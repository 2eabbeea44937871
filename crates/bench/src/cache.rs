//! The two-tier, content-addressed design cache behind the resident
//! exploration service.
//!
//! Layering: [`stellar_core::cache`] defines *what* identifies a query
//! (the [`QueryKey`]) and *how* a search result serializes (the
//! `stellar-design-cache-v1` payload). This module owns the runtime
//! behavior around it:
//!
//! * **Memory tier** — an LRU map from key hash to the rendered entry
//!   (the payload the durable tier seals), so a warm repeat query costs a
//!   lock, a lookup, and a reference-count bump; [`DesignCache::entry`]
//!   hands those bytes out as they are, [`DesignCache::explore`] decodes
//!   them.
//! * **Durable tier** — `<dir>/<key>.json`, the sealed payload in a PR 6
//!   checksummed envelope written with `atomic_write`. Corruption of any
//!   kind (torn file, flipped bit, foreign schema, hash collision) is
//!   detected on load and handled as a *miss* — the cache recomputes;
//!   it never serves a doubtful entry.
//! * **Single-flight coalescing** — N concurrent identical queries
//!   compute once: the first becomes the leader, the rest block on a
//!   condvar and receive the leader's result, counted as `coalesced`.
//! * **Nonce invalidation** — the cache generation nonce lives in
//!   `<dir>/cache_state.json` (the PR 3 stale-report rule applied to
//!   designs: an entry stamped with a foreign generation is stale and
//!   ignored). [`DesignCache::invalidate`] bumps the generation, which
//!   orphans every existing entry at once.
//!
//! The served [`ExploreRun`] is byte-identical to a computed one in its
//! ranking and funnel partitions; only the informational
//! `cache_hits`/`cache_misses`/`coalesced` funnel counters (and the
//! worker telemetry, which a served query did not generate) reflect how
//! the answer was obtained.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use stellar_core::cache::{parse_cache_entry, render_cache_entry, QueryKey};
use stellar_core::{
    explore_dataflows_profiled, Bounds, CompileError, ExploreOptions, ExploreRun, Functionality,
};
use stellar_sim::metrics::escape;

use crate::durable::{self, DurableError};
use crate::harness;

/// File inside the cache directory holding the generation nonce.
pub const STATE_FILE: &str = "cache_state.json";
/// Schema of the generation-state payload.
pub const STATE_SCHEMA: &str = "stellar-cache-state-v1";
/// Memory-tier capacity when none is given.
pub const DEFAULT_CAPACITY: usize = 256;

/// Cumulative cache accounting, readable at any time via
/// [`DesignCache::stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Queries answered without computing (memory, disk, or coalesced).
    pub hits: u64,
    /// Queries that ran the search (including failed computations).
    pub misses: u64,
    /// Hits that piggybacked on an in-flight identical computation.
    pub coalesced: u64,
    /// Hits served by decoding a durable entry (subset of `hits`).
    pub disk_hits: u64,
    /// Memory-tier entries discarded by the LRU bound.
    pub evictions: u64,
    /// Generation bumps ([`DesignCache::invalidate`] calls).
    pub invalidations: u64,
}

impl CacheStats {
    /// Renders the stats as the `stellar-cache-stats-v1` payload the
    /// sidecar files and `stellar_serve` publish.
    pub fn render_json(&self, nonce: &str) -> String {
        format!(
            "{{\"schema\":\"stellar-cache-stats-v1\",\"nonce\":\"{}\",\"hits\":{},\
             \"misses\":{},\"coalesced\":{},\"disk_hits\":{},\"evictions\":{},\
             \"invalidations\":{}}}",
            escape(nonce),
            self.hits,
            self.misses,
            self.coalesced,
            self.disk_hits,
            self.evictions,
            self.invalidations
        )
    }
}

/// The immutable cached answer for one key: the canonical query it
/// answers and its rendered `stellar-design-cache-v1` entry — the exact
/// payload the durable tier seals, so every tier serves the same bytes.
struct CacheValue {
    canon: String,
    entry: Arc<str>,
}

/// One in-flight computation other threads can wait on.
struct Flight {
    slot: Mutex<Option<Result<Arc<str>, CompileError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, r: Result<Arc<str>, CompileError>) {
        let mut slot = self.slot.lock().expect("flight lock");
        *slot = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<str>, CompileError> {
        let mut slot = self.slot.lock().expect("flight lock");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.cv.wait(slot).expect("flight lock");
        }
    }
}

struct Inner {
    nonce: String,
    map: HashMap<String, CacheValue>,
    lru: VecDeque<String>,
    inflight: HashMap<String, Arc<Flight>>,
    stats: CacheStats,
}

/// What the first lookup phase decided for a query.
enum Role {
    Hit(Arc<str>),
    Follow(Arc<Flight>),
    /// Compute (or load from disk) under the generation nonce captured
    /// with the lookup.
    Lead(Arc<Flight>, String),
    /// 128-bit hash collision against a resident entry with a different
    /// canonical query: compute without caching (never evict the
    /// incumbent, never serve the wrong ranking).
    Bypass(String),
}

/// How a lookup obtained its answer.
enum Answer {
    /// Served by a tier, or by a leader's flight when `coalesced`.
    Stored { entry: Arc<str>, coalesced: bool },
    /// Computed by this call: the search's own run and its rendered entry.
    Computed(ExploreRun, Arc<str>),
}

/// The two-tier design cache. Cheap to share by reference across the
/// worker pool; all interior state is behind one mutex (lookups are
/// microseconds, computations run outside the lock).
pub struct DesignCache {
    dir: Option<PathBuf>,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl DesignCache {
    /// Opens (or creates) a durable cache rooted at `dir`, adopting the
    /// generation nonce from `cache_state.json` — or stamping a fresh
    /// one when the state file is missing or corrupt (which orphans any
    /// existing entries, exactly as a corrupt manifest orphans reports).
    ///
    /// # Errors
    ///
    /// A [`DurableError`] if the directory or a fresh state file cannot
    /// be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DesignCache, DurableError> {
        DesignCache::open_with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// [`DesignCache::open`] with an explicit memory-tier capacity.
    ///
    /// # Errors
    ///
    /// A [`DurableError`] if the directory or a fresh state file cannot
    /// be created.
    pub fn open_with_capacity(
        dir: impl Into<PathBuf>,
        capacity: usize,
    ) -> Result<DesignCache, DurableError> {
        let dir = dir.into();
        durable::ensure_dir(&dir)?;
        let state = dir.join(STATE_FILE);
        let nonce = match durable::read_envelope(&state).ok().and_then(|p| {
            if p.starts_with(&format!("{{\"schema\":\"{STATE_SCHEMA}\"")) {
                nonce_of(&p)
            } else {
                None
            }
        }) {
            Some(n) => n,
            None => {
                let fresh = harness::fresh_nonce();
                durable::write_envelope(&state, &render_state(&fresh))?;
                fresh
            }
        };
        Ok(DesignCache {
            dir: Some(dir),
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                nonce,
                map: HashMap::new(),
                lru: VecDeque::new(),
                inflight: HashMap::new(),
                stats: CacheStats::default(),
            }),
        })
    }

    /// A memory-only cache (no durable tier) — what `run_all` children
    /// fall back to in tests and what batch embedders use when nothing
    /// should persist.
    pub fn in_memory(capacity: usize) -> DesignCache {
        DesignCache {
            dir: None,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                nonce: harness::fresh_nonce(),
                map: HashMap::new(),
                lru: VecDeque::new(),
                inflight: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// The durable tier's directory, if one is attached.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The current generation nonce.
    pub fn nonce(&self) -> String {
        self.inner.lock().expect("cache lock").nonce.clone()
    }

    /// A snapshot of the cumulative accounting.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }

    /// The durable path an entry for `key` would live at.
    pub fn entry_path(&self, key: &QueryKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.hex())))
    }

    /// Bumps the generation nonce, clearing the memory tier and orphaning
    /// every durable entry (they remain on disk but fail the nonce check
    /// and are overwritten on the next miss). Returns the new nonce.
    ///
    /// # Errors
    ///
    /// A [`DurableError`] if the new state file cannot be written; the
    /// in-memory generation is left unchanged in that case.
    pub fn invalidate(&self) -> Result<String, DurableError> {
        let fresh = harness::fresh_nonce();
        if let Some(dir) = &self.dir {
            durable::write_envelope(&dir.join(STATE_FILE), &render_state(&fresh))?;
        }
        let mut g = self.inner.lock().expect("cache lock");
        g.nonce = fresh.clone();
        g.map.clear();
        g.lru.clear();
        g.stats.invalidations += 1;
        Ok(fresh)
    }

    /// The cached equivalent of [`explore_dataflows_profiled`]: identical
    /// ranking and funnel partitions whether the answer was computed,
    /// read from disk, or coalesced onto an in-flight computation — only
    /// the informational cache counters and worker telemetry differ. A
    /// served answer is decoded from its stored entry.
    ///
    /// # Errors
    ///
    /// Exactly the [`CompileError`]s of the uncached search (cache
    /// machinery failures degrade to recomputation, never to an error).
    pub fn explore(
        &self,
        func: &Functionality,
        bounds: &Bounds,
        opts: &ExploreOptions,
    ) -> Result<ExploreRun, CompileError> {
        let key = QueryKey::of(func, bounds, opts);
        Ok(match self.answer(&key, func, bounds, opts)? {
            Answer::Stored { entry, coalesced } => hit_run(&entry, coalesced),
            Answer::Computed(run, _) => run,
        })
    }

    /// The same lookup as [`DesignCache::explore`], answered as the
    /// rendered `stellar-design-cache-v1` entry — byte-identical to
    /// [`render_cache_entry`] over the explored run — and whether a cache
    /// tier (or an in-flight computation) served it. `key` must be
    /// `QueryKey::of(func, bounds, opts)`; a caller that already holds it
    /// saves computing it again.
    ///
    /// # Errors
    ///
    /// Exactly the [`CompileError`]s of the uncached search.
    pub fn entry(
        &self,
        key: &QueryKey,
        func: &Functionality,
        bounds: &Bounds,
        opts: &ExploreOptions,
    ) -> Result<(Arc<str>, bool), CompileError> {
        Ok(match self.answer(key, func, bounds, opts)? {
            Answer::Stored { entry, .. } => (entry, true),
            Answer::Computed(_, entry) => (entry, false),
        })
    }

    /// The one lookup behind [`DesignCache::explore`] and
    /// [`DesignCache::entry`].
    fn answer(
        &self,
        key: &QueryKey,
        func: &Functionality,
        bounds: &Bounds,
        opts: &ExploreOptions,
    ) -> Result<Answer, CompileError> {
        let role = {
            let mut g = self.inner.lock().expect("cache lock");
            if let Some(v) = g.map.get(key.hex()) {
                if v.canon == key.canon() {
                    let entry = Arc::clone(&v.entry);
                    touch(&mut g.lru, key.hex());
                    g.stats.hits += 1;
                    Role::Hit(entry)
                } else {
                    Role::Bypass(g.nonce.clone())
                }
            } else if let Some(f) = g.inflight.get(key.hex()) {
                Role::Follow(Arc::clone(f))
            } else {
                let f = Arc::new(Flight::new());
                g.inflight.insert(key.hex().to_string(), Arc::clone(&f));
                Role::Lead(f, g.nonce.clone())
            }
        };
        match role {
            Role::Hit(entry) => Ok(Answer::Stored {
                entry,
                coalesced: false,
            }),
            Role::Follow(f) => {
                let entry = f.wait()?;
                let mut g = self.inner.lock().expect("cache lock");
                g.stats.hits += 1;
                g.stats.coalesced += 1;
                drop(g);
                Ok(Answer::Stored {
                    entry,
                    coalesced: true,
                })
            }
            Role::Lead(f, nonce) => self.lead(key, func, bounds, opts, &f, &nonce),
            Role::Bypass(nonce) => {
                let mut run = explore_dataflows_profiled(func, bounds, opts)?;
                let entry = render_cache_entry(key, &nonce, &run.results, &run.funnel);
                run.funnel.cache_misses = 1;
                let mut g = self.inner.lock().expect("cache lock");
                g.stats.misses += 1;
                drop(g);
                Ok(Answer::Computed(run, entry.into()))
            }
        }
    }

    /// The leader path: probe the durable tier, compute on a true miss,
    /// persist, publish to any followers, and retire the flight.
    fn lead(
        &self,
        key: &QueryKey,
        func: &Functionality,
        bounds: &Bounds,
        opts: &ExploreOptions,
        flight: &Arc<Flight>,
        nonce: &str,
    ) -> Result<Answer, CompileError> {
        if let Some(value) = self.load_disk(key, nonce) {
            let entry = Arc::clone(&value.entry);
            let mut g = self.inner.lock().expect("cache lock");
            self.insert_locked(&mut g, key.hex(), nonce, value);
            g.stats.hits += 1;
            g.stats.disk_hits += 1;
            g.inflight.remove(key.hex());
            drop(g);
            flight.publish(Ok(Arc::clone(&entry)));
            return Ok(Answer::Stored {
                entry,
                coalesced: false,
            });
        }
        match explore_dataflows_profiled(func, bounds, opts) {
            Ok(mut run) => {
                let entry: Arc<str> =
                    render_cache_entry(key, nonce, &run.results, &run.funnel).into();
                if let Some(path) = self.entry_path(key) {
                    if let Err(e) = durable::write_envelope(&path, &entry) {
                        // A full or read-only disk degrades the durable
                        // tier, not the query.
                        eprintln!("design-cache: could not persist {}: {e}", path.display());
                    }
                }
                let value = CacheValue {
                    canon: key.canon().to_string(),
                    entry: Arc::clone(&entry),
                };
                let mut g = self.inner.lock().expect("cache lock");
                self.insert_locked(&mut g, key.hex(), nonce, value);
                g.stats.misses += 1;
                g.inflight.remove(key.hex());
                drop(g);
                flight.publish(Ok(Arc::clone(&entry)));
                run.funnel.cache_misses = 1;
                Ok(Answer::Computed(run, entry))
            }
            Err(e) => {
                let mut g = self.inner.lock().expect("cache lock");
                g.stats.misses += 1;
                g.inflight.remove(key.hex());
                drop(g);
                flight.publish(Err(e.clone()));
                Err(e)
            }
        }
    }

    /// Inserts (or refreshes) a memory-tier entry stamped with generation
    /// `nonce` and enforces the LRU bound. An entry whose generation was
    /// invalidated while it was being computed or loaded is not kept.
    fn insert_locked(&self, g: &mut Inner, hex: &str, nonce: &str, v: CacheValue) {
        if g.nonce != nonce {
            return;
        }
        if g.map.insert(hex.to_string(), v).is_none() {
            g.lru.push_back(hex.to_string());
        } else {
            touch(&mut g.lru, hex);
        }
        while g.map.len() > self.capacity {
            let Some(old) = g.lru.pop_front() else { break };
            g.map.remove(&old);
            g.stats.evictions += 1;
        }
    }

    /// Loads and fully validates a durable entry, keeping its payload as
    /// the stored entry. Every failure mode — unreadable file, bad
    /// checksum, foreign schema, malformed grammar, stale generation,
    /// canonical-string mismatch — is `None`: a miss.
    fn load_disk(&self, key: &QueryKey, nonce: &str) -> Option<CacheValue> {
        let path = self.entry_path(key)?;
        let payload = durable::read_envelope(&path).ok()?;
        let entry = parse_cache_entry(&payload).ok()?;
        if !entry.matches(key) || entry.nonce != nonce {
            return None;
        }
        Some(CacheValue {
            canon: entry.canon,
            entry: payload.into(),
        })
    }
}

/// One exploration request (what one `stellar_serve` query line decodes
/// to).
#[derive(Clone, Debug)]
pub struct DesignQuery {
    /// The functional specification.
    pub func: Functionality,
    /// Iteration bounds.
    pub bounds: Bounds,
    /// Search options (only the ranking-relevant fields key the cache).
    pub opts: ExploreOptions,
}

/// Decodes a stored entry into the served [`ExploreRun`].
fn hit_run(entry: &str, coalesced: bool) -> ExploreRun {
    let mut run = parse_cache_entry(entry)
        .expect("a stored entry was rendered here or validated by parse_cache_entry")
        .into_run();
    run.funnel.cache_hits = 1;
    run.funnel.coalesced = u64::from(coalesced);
    run
}

/// Moves `hex` to the most-recently-used end.
fn touch(lru: &mut VecDeque<String>, hex: &str) {
    if let Some(pos) = lru.iter().position(|h| h == hex) {
        if let Some(h) = lru.remove(pos) {
            lru.push_back(h);
        }
    }
}

fn render_state(nonce: &str) -> String {
    format!(
        "{{\"schema\":\"{STATE_SCHEMA}\",\"nonce\":\"{}\"}}",
        escape(nonce)
    )
}

// ---------------------------------------------------------------------
// The line-oriented serve protocol (`stellar_serve`).
// ---------------------------------------------------------------------

/// Schema of every `stellar_serve` response payload.
pub const SERVE_SCHEMA: &str = "stellar-serve-v1";

/// One decoded `stellar_serve` input line.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeCommand {
    /// A design query: run (or serve) the search and respond with the
    /// sealed ranking + funnel.
    Query(ServeRequest),
    /// Bump the cache generation (orphans every entry).
    Invalidate,
    /// Report the cumulative [`CacheStats`].
    Stats,
    /// Close the session (EOF behaves identically).
    Shutdown,
}

/// A parsed design query: spec name, per-dimension extents, and the
/// ranking-relevant search options.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// Echoed verbatim in the response so clients can pipeline.
    pub id: Option<String>,
    /// Registry name: `matmul`, `matmul_relu`, `max_pool`, or
    /// `merge_select`.
    pub spec: String,
    /// Iteration-space extents, one per index (`Bounds::from_extents`).
    pub bounds: Vec<usize>,
    /// Coefficient bound for the transform scan.
    pub max_coeff: i64,
    /// PE bound (default 4096).
    pub max_pes: usize,
    /// Ranking truncation (default 16).
    pub keep: usize,
}

/// Parses one protocol line. Only the *top-level* members of the object
/// are read: a nested `{"meta":{"cmd":"shutdown"}}` is a value that gets
/// skipped, not a command. Unknown members are ignored; duplicate keys,
/// trailing bytes after the closing brace, and a known member of the
/// wrong type or range are errors, never silently the default.
///
/// # Errors
///
/// A human-readable description of the malformed field (the server
/// echoes it back in an error response).
pub fn parse_serve_line(line: &str) -> Result<ServeCommand, String> {
    let mut f = LineFields::default();
    read_members(line, &mut f)?;
    if let Some(cmd) = f.cmd {
        return match cmd.as_ref() {
            "invalidate" => Ok(ServeCommand::Invalidate),
            "stats" => Ok(ServeCommand::Stats),
            "shutdown" => Ok(ServeCommand::Shutdown),
            other => Err(format!("unknown cmd {other:?}")),
        };
    }
    let defaults = ExploreOptions::default();
    let spec = f.spec.ok_or("missing \"spec\"")?;
    let bounds = f.bounds.ok_or("missing \"bounds\"")?;
    if bounds.is_empty() || bounds.contains(&0) {
        return Err("\"bounds\" extents must be positive".into());
    }
    let max_coeff = f.max_coeff.unwrap_or(defaults.max_coeff);
    if max_coeff < 1 {
        return Err("\"max_coeff\" must be >= 1".into());
    }
    Ok(ServeCommand::Query(ServeRequest {
        id: f.id.map(Cow::into_owned),
        spec: spec.into_owned(),
        bounds,
        max_coeff,
        max_pes: f.max_pes.unwrap_or(defaults.max_pes),
        keep: f.keep.unwrap_or(defaults.keep),
    }))
}

/// The `id` of a line, as far as the reader gets before the first
/// malformed byte — what an error response to a rejected line echoes.
pub fn serve_line_id(line: &str) -> Option<String> {
    let mut f = LineFields::default();
    let _ = read_members(line, &mut f);
    f.id.map(Cow::into_owned)
}

impl ServeRequest {
    /// Resolves the request into a cacheable [`DesignQuery`].
    ///
    /// # Errors
    ///
    /// A description of the unknown spec or a rank mismatch.
    pub fn to_query(&self) -> Result<DesignQuery, String> {
        let func = spec_by_name(&self.spec, &self.bounds)?;
        if func.rank() != self.bounds.len() {
            return Err(format!(
                "spec {:?} has rank {}, got {} bounds",
                self.spec,
                func.rank(),
                self.bounds.len()
            ));
        }
        Ok(DesignQuery {
            func,
            bounds: Bounds::from_extents(&self.bounds),
            opts: ExploreOptions {
                max_coeff: self.max_coeff,
                max_pes: self.max_pes,
                keep: self.keep,
                ..ExploreOptions::default()
            },
        })
    }
}

/// The built-in spec registry. Extents parameterize the constructors'
/// recorded names only — the key derivation normalizes names away, so
/// equal-structure queries share cache entries regardless.
fn spec_by_name(name: &str, extents: &[usize]) -> Result<Functionality, String> {
    let dim = |n: usize| extents.get(n).copied().unwrap_or(1);
    match name {
        "matmul" => Ok(Functionality::matmul(dim(0), dim(1), dim(2))),
        "matmul_relu" => Ok(Functionality::matmul_relu(dim(0), dim(1), dim(2))),
        "max_pool" => Ok(Functionality::max_pool(dim(0), dim(1))),
        "merge_select" => Ok(Functionality::merge_select(dim(0), dim(1))),
        other => Err(format!(
            "unknown spec {other:?} (expected matmul, matmul_relu, max_pool, or merge_select)"
        )),
    }
}

/// Renders a successful query response from an explored run: its
/// cache entry, wrapped by [`render_serve_entry`] with the echoed id and
/// whether the answer was served or computed. The caller seals it into
/// the response envelope.
pub fn render_serve_response(
    req: &ServeRequest,
    key: &QueryKey,
    nonce: &str,
    run: &ExploreRun,
) -> String {
    render_serve_entry(
        req.id.as_deref(),
        run.funnel.cache_hits > 0,
        &render_cache_entry(key, nonce, &run.results, &run.funnel),
    )
}

/// The one writer of a successful query response: the rendered
/// `stellar-design-cache-v1` `entry`, copied verbatim, plus the echoed id
/// and the `cached` flag.
pub fn render_serve_entry(id: Option<&str>, cached: bool, entry: &str) -> String {
    let mut s = String::with_capacity(entry.len() + 96);
    let _ = write!(
        s,
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"id\":{},\"cached\":{cached},\"entry\":",
        render_id(id)
    );
    s.push_str(entry);
    s.push('}');
    s
}

/// Renders an error response (the id echoed when the line carried one).
pub fn render_serve_error(id: Option<&str>, msg: &str) -> String {
    format!(
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"id\":{},\"error\":\"{}\"}}",
        render_id(id),
        escape(msg)
    )
}

/// A response's `id` member value: the escaped string, or `null`.
fn render_id(id: Option<&str>) -> Cow<'static, str> {
    match id {
        Some(id) => format!("\"{}\"", escape(id)).into(),
        None => "null".into(),
    }
}

/// The top-level members of one protocol line the service understands.
#[derive(Default)]
struct LineFields<'a> {
    cmd: Option<Cow<'a, str>>,
    id: Option<Cow<'a, str>>,
    spec: Option<Cow<'a, str>>,
    bounds: Option<Vec<usize>>,
    max_coeff: Option<i64>,
    max_pes: Option<usize>,
    keep: Option<usize>,
}

/// The one reader of top-level members: a single pass over the JSON object
/// in `text`, handing each member's decoded key and raw value to `member`.
/// Every value is checked for shape; a duplicate key, or anything but
/// whitespace around the object, is an error.
fn top_level_members<'a>(
    text: &'a str,
    mut member: impl FnMut(&str, &'a str) -> Result<(), String>,
) -> Result<(), String> {
    let mut c = Cursor {
        text: text.trim(),
        pos: 0,
    };
    if !c.eat(b'{') {
        return Err("request must be a single-line JSON object".into());
    }
    let mut seen = Vec::new();
    c.members(b'}', |c| {
        let key = c.key()?;
        if seen.contains(&key) {
            return Err(format!("duplicate member {key:?}"));
        }
        member(&key, c.value(0)?)?;
        seen.push(key);
        Ok(())
    })?;
    if c.pos != c.text.len() {
        return Err(format!("bytes after the request object at byte {}", c.pos));
    }
    Ok(())
}

/// Reads one serve-protocol line into `f`, member by member (so on an
/// error `f` holds what preceded it). Members the service does not know
/// are skipped.
fn read_members<'a>(line: &'a str, f: &mut LineFields<'a>) -> Result<(), String> {
    top_level_members(line, |key, raw| {
        let not = |what: &str| format!("{key:?} must be {what}");
        let text = || unescape(raw).ok_or_else(|| not("a string"));
        let count = || raw.parse().map_err(|_| not("a non-negative integer"));
        match key {
            "cmd" => f.cmd = Some(text()?),
            "id" => f.id = Some(text()?),
            "spec" => f.spec = Some(text()?),
            "bounds" => {
                let items = raw.strip_prefix('[').and_then(|r| r.strip_suffix(']'));
                // An extent is an `i64` coordinate bound: a larger one is
                // out of range, not a wrapped negative.
                let extent = |e: &str| usize::try_from(e.trim().parse::<i64>().ok()?).ok();
                let extents = items.and_then(|items| match items.trim() {
                    "" => Some(Vec::new()),
                    items => items.split(',').map(extent).collect(),
                });
                f.bounds =
                    Some(extents.ok_or_else(|| {
                        not(&format!("an array of integers from 0 to {}", i64::MAX))
                    })?);
            }
            "max_coeff" => f.max_coeff = Some(raw.parse().map_err(|_| not("an integer"))?),
            "max_pes" => f.max_pes = Some(count()?),
            "keep" => f.keep = Some(count()?),
            _ => {}
        }
        Ok(())
    })
}

/// The decoded top-level `"nonce"` member of a JSON object — the one way
/// reports, the run manifest and the cache state are asked which run or
/// generation stamped them. Writers escape the nonce, so a comparison
/// must decode it; a nested or quoted look-alike is a value to skip.
/// `None` when `payload` is not one well-formed object or has no string
/// `nonce` (reports outside a run stamp `null`).
pub(crate) fn nonce_of(payload: &str) -> Option<String> {
    let mut nonce = None;
    top_level_members(payload, |key, raw| {
        if key == "nonce" {
            nonce = unescape(raw).map(Cow::into_owned);
        }
        Ok(())
    })
    .ok()?;
    nonce
}

/// Nesting allowed inside a skipped member; deeper input is rejected so
/// no line can exhaust the stack.
const MAX_SKIP_DEPTH: usize = 32;

/// A byte position in one line. `pos` only ever stops after an ASCII
/// byte, so it is always a UTF-8 boundary.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    /// The comma-separated items of an object or array whose opening
    /// bracket has been consumed, through its closing bracket.
    fn members(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Cursor<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.ws();
            item(self)?;
            self.ws();
            if !self.eat(b',') {
                return self.expect(close);
            }
        }
    }

    /// An object key, decoded, with its colon.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let at = self.pos;
        let key = unescape(self.string()?).ok_or(format!("malformed key at byte {at}"))?;
        self.ws();
        self.expect(b':')?;
        self.ws();
        Ok(key)
    }

    /// The extent of a string, quotes included, escapes not interpreted.
    fn string(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.expect(b'"')?;
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => break,
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        self.pos += 1;
        Ok(&self.text[start..self.pos])
    }

    /// The extent of one JSON value of any shape, checked for structure.
    fn value(&mut self, depth: usize) -> Result<&'a str, String> {
        let start = self.pos;
        if depth > MAX_SKIP_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_SKIP_DEPTH} at byte {start}"
            ));
        }
        match self.peek() {
            Some(b'"') => return self.string(),
            Some(b'{') => {
                self.pos += 1;
                self.members(b'}', |c| c.key().and_then(|_| c.value(depth + 1)).map(drop))?;
            }
            Some(b'[') => {
                self.pos += 1;
                self.members(b']', |c| c.value(depth + 1).map(drop))?;
            }
            _ => {
                while matches!(
                    self.peek(),
                    Some(b'a'..=b'z' | b'0'..=b'9' | b'E' | b'+' | b'-' | b'.')
                ) {
                    self.pos += 1;
                }
                let token = &self.text[start..self.pos];
                let number = token.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                    && token.parse::<f64>().is_ok_and(f64::is_finite);
                if !number && !matches!(token, "true" | "false" | "null") {
                    return Err(format!("expected a value at byte {start}"));
                }
            }
        }
        Ok(&self.text[start..self.pos])
    }
}

/// Decodes the string literal `raw` (quotes included); `None` if `raw` is
/// not a string or holds an invalid escape or a raw control character.
fn unescape(raw: &str) -> Option<Cow<'_, str>> {
    let body = raw.strip_prefix('"')?.strip_suffix('"')?;
    if !body.contains(|c: char| c == '\\' || c < ' ') {
        return Some(Cow::Borrowed(body));
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    let hex4 = |chars: &mut std::str::Chars| {
        let digits = chars.as_str().get(..4)?;
        *chars = chars.as_str()[4..].chars();
        let hex = digits.bytes().all(|b| b.is_ascii_hexdigit());
        u32::from_str_radix(digits, 16).ok().filter(|_| hex)
    };
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                'b' => '\u{8}',
                'f' => '\u{c}',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => match hex4(&mut chars)? {
                    hi @ 0xd800..=0xdbff => {
                        let lo = chars.as_str().strip_prefix("\\u").and_then(|rest| {
                            chars = rest.chars();
                            hex4(&mut chars).filter(|lo| (0xdc00..0xe000).contains(lo))
                        })?;
                        char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00))?
                    }
                    scalar => char::from_u32(scalar)?,
                },
                c @ ('"' | '\\' | '/') => c,
                _ => return None,
            },
            c if c < ' ' => return None,
            c => c,
        });
    }
    Some(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_commands() {
        assert_eq!(
            parse_serve_line("{\"cmd\":\"invalidate\"}").unwrap(),
            ServeCommand::Invalidate
        );
        assert_eq!(
            parse_serve_line(" {\"cmd\":\"stats\"} ").unwrap(),
            ServeCommand::Stats
        );
        assert_eq!(
            parse_serve_line("{\"cmd\":\"shutdown\"}").unwrap(),
            ServeCommand::Shutdown
        );
        assert!(parse_serve_line("{\"cmd\":\"nope\"}").is_err());
        assert!(parse_serve_line("not json").is_err());
    }

    #[test]
    fn parse_query_with_defaults_and_overrides() {
        let q = match parse_serve_line("{\"spec\":\"matmul\",\"bounds\":[4,4,4]}").unwrap() {
            ServeCommand::Query(q) => q,
            other => panic!("expected a query, got {other:?}"),
        };
        assert_eq!(q.spec, "matmul");
        assert_eq!(q.bounds, vec![4, 4, 4]);
        assert_eq!(q.max_coeff, 1);
        assert_eq!(q.keep, 16);
        assert_eq!(q.id, None);

        let q = match parse_serve_line(
            "{\"id\":\"r1\",\"spec\":\"max_pool\",\"bounds\":[8,3],\"max_coeff\":2,\"keep\":4}",
        )
        .unwrap()
        {
            ServeCommand::Query(q) => q,
            other => panic!("expected a query, got {other:?}"),
        };
        assert_eq!(q.id.as_deref(), Some("r1"));
        assert_eq!(q.max_coeff, 2);
        assert_eq!(q.keep, 4);
        let dq = q.to_query().unwrap();
        assert_eq!(dq.func.rank(), 2);
    }

    #[test]
    fn parse_rejects_bad_queries() {
        assert!(parse_serve_line("{\"spec\":\"matmul\"}").is_err());
        assert!(parse_serve_line("{\"spec\":\"matmul\",\"bounds\":[0,4,4]}").is_err());
        assert!(
            parse_serve_line("{\"spec\":\"matmul\",\"bounds\":[4,4,4],\"max_coeff\":0}").is_err()
        );
        let req = match parse_serve_line("{\"spec\":\"gemv\",\"bounds\":[4,4]}").unwrap() {
            ServeCommand::Query(q) => q,
            other => panic!("expected a query, got {other:?}"),
        };
        assert!(req.to_query().is_err(), "unknown specs resolve to errors");
        // Rank mismatch: matmul is rank 3.
        let req = match parse_serve_line("{\"spec\":\"matmul\",\"bounds\":[4,4]}").unwrap() {
            ServeCommand::Query(q) => q,
            other => panic!("expected a query, got {other:?}"),
        };
        assert!(req.to_query().is_err());
    }

    fn query_of(line: &str) -> ServeRequest {
        match parse_serve_line(line) {
            Ok(ServeCommand::Query(q)) => q,
            other => panic!("expected a query from {line}, got {other:?}"),
        }
    }

    #[test]
    fn only_top_level_members_are_read() {
        // A nested "cmd" is a value to skip, not a command; so is a
        // "max_pes" inside an array of objects or inside a string.
        let q = query_of(r#"{"spec":"matmul","bounds":[3,3,3],"meta":{"cmd":"shutdown"}}"#);
        assert_eq!(q.bounds, [3, 3, 3]);
        let q = query_of(
            r#"{"x":[{"max_pes":1}],"y":"\"max_pes\":2","spec":"matmul","bounds":[ 2, 2 ,2 ]}"#,
        );
        assert_eq!(q.max_pes, ExploreOptions::default().max_pes);
    }

    #[test]
    fn string_escapes_are_decoded_and_echoed_whole() {
        let q = query_of(r#"{"id":"a\"b\\cé😀\n\/","spec":"matmul","bounds":[2,2,2]}"#);
        assert_eq!(q.id.as_deref(), Some("a\"b\\c\u{e9}\u{1f600}\n/"));
        let echoed = render_serve_error(q.id.as_deref(), "x");
        assert!(echoed.contains(r#""id":"a\"b\\cé😀\n/""#), "{echoed}");
        // A lone surrogate (twice), bad hex (twice), an unknown escape, a
        // raw tab, no closing quote.
        for id in "\\ud83d \\ud83dA \\u12g4 \\u+123 \\q a\tb a\\".split(' ') {
            let line = format!(r#"{{"id":"{id}","spec":"matmul","bounds":[2,2,2]}}"#);
            assert!(parse_serve_line(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn malformed_known_members_are_errors_not_defaults() {
        let with = |member: &str| format!(r#"{{"spec":"matmul","bounds":[2,2,2],{member}}}"#);
        for field in ["max_pes", "keep", "max_coeff"] {
            for bad in r#"-5 "7" 99999999999999999999 1.5 1e3 null [1]"#.split(' ') {
                let line = with(&format!("\"{field}\":{bad}"));
                let err = parse_serve_line(&line).expect_err(&line);
                assert!(err.contains(field), "{line}: {err}");
            }
        }
        for bad in r#"[2,-2,2] [2,2.0,2] [[2],2,2] "2,2,2" [2,"2",2] 7 [9223372036854775808,2,2] [2,18446744073709551615,2]"#.split(' ') {
            let line = format!(r#"{{"spec":"matmul","bounds":{bad}}}"#);
            let err = parse_serve_line(&line).expect_err(&line);
            assert!(err.contains("bounds"), "{line}: {err}");
        }
        for bad in [
            r#"{"spec":7,"bounds":[2,2,2]}"#,
            r#"{"cmd":7}"#,
            &with("\"id\":7"),
        ] {
            assert!(parse_serve_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn duplicates_trailing_bytes_and_broken_structure_are_rejected() {
        let ok = r#"{"spec":"matmul","bounds":[2,2,2]}"#;
        assert!(parse_serve_line(ok).is_ok());
        let deep = |n| {
            format!(
                r#"{{"x":{}{},"cmd":"stats"}}"#,
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        for bad in [
            r#"{"spec":"matmul","bounds":[2,2,2],"spec":"max_pool"}"#,
            r#"{"x":1,"x":2,"spec":"matmul","bounds":[2,2,2]}"#,
            &format!("{ok}}}"),
            &format!("{ok} {ok}"),
            r#"{"spec":"matmul","bounds":[2,2,2],}"#,
            r#"{"spec":"matmul" "bounds":[2,2,2]}"#,
            r#"{"spec":"matmul","bounds":[2,,2]}"#,
            r#"{"spec":"matmul","bounds":[2,2,2],"x":-inf}"#,
            r#"{"spec":"matmul","bounds":[2,2,2],"x":{"a" 1}}"#,
            &deep(100_000),
        ] {
            assert!(parse_serve_line(bad).is_err(), "{bad:.80}");
        }
        // Nesting within the bound is skipped like any other value.
        assert_eq!(
            parse_serve_line(&deep(MAX_SKIP_DEPTH)),
            Ok(ServeCommand::Stats)
        );
    }

    #[test]
    fn nonce_of_reads_the_decoded_top_level_member() {
        let weird = "a\"b\\c";
        let stamped = format!(
            r#"{{"id":"e01","meta":{{"nonce":"decoy"}},"note":"\"nonce\":\"x\"","nonce":"{}","metrics":[1.5e-3,null]}}"#,
            escape(weird)
        );
        assert_eq!(nonce_of(&stamped).as_deref(), Some(weird));
        assert_eq!(nonce_of(&render_state(weird)).as_deref(), Some(weird));
        for unstamped in [
            r#"{"nonce":null}"#,
            r#"{"id":"e01"}"#,
            r#"{"nonce":"n"} x"#,
            r#"{"nonce":"n""#,
            r#"{"nonce":"n\q"}"#,
            "[]",
            "",
        ] {
            assert_eq!(nonce_of(unstamped), None, "{unstamped}");
        }
    }

    #[test]
    fn a_rejected_line_still_yields_the_id_read_before_the_error() {
        let line = r#"{"id":"r\"7","spec":"matmul","bounds":[2,2,2],"keep":-1}"#;
        assert!(parse_serve_line(line).is_err());
        assert_eq!(serve_line_id(line).as_deref(), Some("r\"7"));
        // Not reached: the id comes after the malformed member.
        assert_eq!(serve_line_id(r#"{"keep":-1,"id":"r7"}"#), None);
    }
}
