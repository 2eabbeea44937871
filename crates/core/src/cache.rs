//! Content-addressed query keys and the durable payload format for the
//! design cache.
//!
//! Every dataflow search is fully determined by three inputs: the
//! functional specification, the iteration bounds, and the
//! ranking-relevant [`ExploreOptions`] fields. This module derives a
//! [`QueryKey`] — a *stable*, content-addressed identity for that triple
//! — and (de)serializes a search's ranked results plus funnel into the
//! single-line JSON payload the bench crate seals into durable envelopes
//! (schema [`CACHE_SCHEMA`]).
//!
//! # Key derivation
//!
//! The key is a hash of a **canonical rendering**, not of the in-memory
//! structs:
//!
//! * The spec AST is normalized — indices, tensors, and variables are
//!   referred to by declaration position and their *names are excluded*,
//!   so `matmul_4x4x4` and `matmul_8x8x8` (identical structure, bounds
//!   supplied separately) share a key, while any structural change
//!   (an extra assign, a shifted read, a different tensor role) produces
//!   a new one.
//! * [`Bounds`] contribute every per-dimension `(lo, hi)` range.
//! * Of [`ExploreOptions`], exactly the ranking-relevant fields
//!   participate: `max_coeff`, `max_pes`, and `keep`. `parallelism` and
//!   `analytic_tier` are excluded by design — the search proves both
//!   byte-invisible to the ranking, so a cache entry computed serially
//!   serves a parallel query and vice versa.
//! * The canonical string is salted with [`CACHE_SCHEMA`], so bumping the
//!   schema version (e.g. when a fidelity-ladder change alters what a
//!   search returns) auto-invalidates every existing entry.
//!
//! The hash itself is a hand-rolled double FNV-1a 64 (128 bits total):
//! `std::hash` offers no stability guarantee across Rust releases, and a
//! cache that silently re-keys on a toolchain bump would masquerade as a
//! cold cache forever.
//!
//! Collisions are additionally neutralized at the lookup layer: the full
//! canonical string travels inside every serialized entry, and
//! [`CacheEntry::matches`] requires exact equality before an entry may be
//! served. A 128-bit collision therefore degrades to a cache miss, never
//! to a wrong answer.

use std::fmt;
use std::fmt::Write as _;

use rayon::PoolStats;
use stellar_linalg::IntMat;

use crate::explore::{ExploreOptions, ExploreRun, ExploredDataflow};
use crate::expr::Expr;
use crate::fold::ExploreFunnel;
use crate::func::Functionality;
use crate::index::{Bounds, IdxExpr, IndexId};
use crate::transform::SpaceTimeTransform;

/// Schema identifier of the serialized cache-entry payload. Doubles as
/// the hash salt: bump it and every previously written key changes.
pub const CACHE_SCHEMA: &str = "stellar-design-cache-v1";

/// The content-addressed identity of one dataflow-search query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryKey {
    hex: String,
    canon: String,
}

impl QueryKey {
    /// Derives the key for a search over `func` × `bounds` × the
    /// ranking-relevant fields of `opts`.
    pub fn of(func: &Functionality, bounds: &Bounds, opts: &ExploreOptions) -> QueryKey {
        let canon = canonical_query(func, bounds, opts);
        let h0 = fnv1a(canon.as_bytes(), FNV_OFFSET);
        let h1 = fnv1a(canon.as_bytes(), FNV_OFFSET ^ SEED_SPLIT);
        QueryKey {
            hex: format!("{h0:016x}{h1:016x}"),
            canon,
        }
    }

    /// The 128-bit content hash as 32 lowercase hex digits — the durable
    /// tier uses it as the entry's file stem.
    pub fn hex(&self) -> &str {
        &self.hex
    }

    /// The full canonical query string the hash was computed over.
    /// Stored inside every entry and compared exactly on load, so hash
    /// collisions can never serve a wrong ranking.
    pub fn canon(&self) -> &str {
        &self.canon
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-lane seed perturbation (the 64-bit golden ratio), giving two
/// independent FNV lanes and a 128-bit key.
const SEED_SPLIT: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over `bytes` from an explicit offset basis. Stable by
/// construction — pure integer arithmetic, no `std::hash` involvement.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Renders one index expression into the canonical alphabet
/// (`i2`, `i0+1`, `L1`, `U2` — never a quote or backslash).
fn canon_idx(out: &mut String, ix: IdxExpr) {
    match ix {
        IdxExpr::At { idx, offset } => {
            let _ = write!(out, "i{}", idx.pos());
            if offset != 0 {
                let _ = write!(out, "{offset:+}");
            }
        }
        IdxExpr::Lower(idx) => {
            let _ = write!(out, "L{}", idx.pos());
        }
        IdxExpr::Upper(idx) => {
            let _ = write!(out, "U{}", idx.pos());
        }
    }
}

fn canon_idx_list(out: &mut String, ixs: &[IdxExpr]) {
    out.push('(');
    for (n, ix) in ixs.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        canon_idx(out, *ix);
    }
    out.push(')');
}

/// Renders an RHS expression. Constants render as the exact `f64` bit
/// pattern, so `0.0` and `-0.0` — which fold differently — key apart.
fn canon_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Const(c) => {
            let _ = write!(out, "c{:016x}", c.to_bits());
        }
        Expr::Input(t, ixs) => {
            let _ = write!(out, "T{}", t.0);
            canon_idx_list(out, ixs);
        }
        Expr::Var(v, ixs) => {
            let _ = write!(out, "v{}", v.0);
            canon_idx_list(out, ixs);
        }
        Expr::Add(a, b) => canon_binop(out, "+", a, b),
        Expr::Sub(a, b) => canon_binop(out, "-", a, b),
        Expr::Mul(a, b) => canon_binop(out, "*", a, b),
        Expr::Min(a, b) => canon_call(out, "min", &[a, b]),
        Expr::Max(a, b) => canon_call(out, "max", &[a, b]),
        Expr::Select { a, b, if_le, if_gt } => canon_call(out, "sel", &[a, b, if_le, if_gt]),
    }
}

fn canon_binop(out: &mut String, op: &str, a: &Expr, b: &Expr) {
    out.push('(');
    canon_expr(out, a);
    out.push_str(op);
    canon_expr(out, b);
    out.push(')');
}

fn canon_call(out: &mut String, name: &str, args: &[&Expr]) {
    out.push_str(name);
    out.push('(');
    for (n, a) in args.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        canon_expr(out, a);
    }
    out.push(')');
}

/// The canonical query string: schema salt, normalized spec AST, bounds
/// ranges, and the ranking-relevant options. Everything the search's
/// output depends on, nothing it does not.
fn canonical_query(func: &Functionality, bounds: &Bounds, opts: &ExploreOptions) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(s, "{CACHE_SCHEMA}|spec{{r{};", func.rank());
    s.push_str("T[");
    for (n, t) in func.tensors().enumerate() {
        if n > 0 {
            s.push('|');
        }
        s.push(match func.tensor_role(t) {
            crate::func::TensorRole::Input => 'I',
            crate::func::TensorRole::Output => 'O',
        });
        s.push(':');
        for (m, ax) in func.tensor_axes(t).iter().enumerate() {
            if m > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", ax.pos());
        }
    }
    let _ = write!(s, "];v{};A[", func.num_vars());
    for (n, a) in func.assigns().iter().enumerate() {
        if n > 0 {
            s.push('|');
        }
        let _ = write!(s, "v{}@", a.var.0);
        canon_idx_list(&mut s, &a.lhs);
        s.push('=');
        canon_expr(&mut s, &a.rhs);
    }
    s.push_str("];O[");
    for (n, o) in func.outputs().iter().enumerate() {
        if n > 0 {
            s.push('|');
        }
        let _ = write!(s, "T{}@", o.tensor.0);
        canon_idx_list(&mut s, &o.coords);
        s.push('=');
        canon_expr(&mut s, &o.rhs);
    }
    s.push_str("]}|b[");
    for d in 0..bounds.rank() {
        if d > 0 {
            s.push(',');
        }
        let idx = IndexId(d);
        let _ = write!(s, "({},{})", bounds.lo(idx), bounds.hi(idx));
    }
    let _ = write!(
        s,
        "]|opts{{mc={};mp={};k={}}}",
        opts.max_coeff, opts.max_pes, opts.keep
    );
    debug_assert!(
        !s.contains('"') && !s.contains('\\'),
        "canonical query must embed in JSON without escaping"
    );
    s
}

/// Why a serialized cache entry could not be decoded (every variant is a
/// *miss*, never an error surfaced to the query — corruption means
/// recompute).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheEntryError {
    /// The payload does not follow the single-line entry grammar; the
    /// inner string names the first field that failed to parse.
    Malformed(&'static str),
    /// The payload's `schema` field is not [`CACHE_SCHEMA`].
    SchemaMismatch,
    /// A stored transform matrix no longer inverts — a corrupted `rows`
    /// array that still parsed as integers.
    BadTransform,
}

impl fmt::Display for CacheEntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheEntryError::Malformed(what) => write!(f, "malformed cache entry: {what}"),
            CacheEntryError::SchemaMismatch => write!(f, "cache entry has a foreign schema"),
            CacheEntryError::BadTransform => write!(f, "cache entry holds a singular transform"),
        }
    }
}

impl std::error::Error for CacheEntryError {}

/// One decoded cache entry: the generation nonce it was written under,
/// the key identity, and the search output it preserves.
#[derive(Clone, PartialEq, Debug)]
pub struct CacheEntry {
    /// Cache-generation nonce stamped at write time. The durable tier
    /// refuses entries whose nonce differs from the current generation
    /// (the PR 3 stale-report rule, applied to designs).
    pub nonce: String,
    /// The 32-hex-digit content hash the entry was stored under.
    pub key_hex: String,
    /// The full canonical query string — compared *exactly* against the
    /// querying key before the entry may be served.
    pub canon: String,
    /// The funnel of the original computation (cache counters zero).
    pub funnel: ExploreFunnel,
    /// The ranked survivors, byte-identical to what the search returned.
    pub results: Vec<ExploredDataflow>,
}

impl CacheEntry {
    /// True when this entry answers exactly the query `key` — hash *and*
    /// full canonical string must agree.
    pub fn matches(&self, key: &QueryKey) -> bool {
        self.key_hex == key.hex() && self.canon == key.canon()
    }

    /// Rebuilds the [`ExploreRun`] this entry preserves. Worker telemetry
    /// is not cached (a served query did no scan work), so `workers`
    /// reports one idle serial worker with zero items.
    pub fn into_run(self) -> ExploreRun {
        ExploreRun {
            results: self.results,
            funnel: self.funnel,
            workers: PoolStats::serial(0, 0.0),
        }
    }
}

/// Serializes a search result as the single-line `stellar-design-cache-v1`
/// payload (the bench crate wraps it in a checksummed envelope). The
/// funnel's informational cache counters are call-local and deliberately
/// not persisted.
pub fn render_cache_entry(
    key: &QueryKey,
    nonce: &str,
    results: &[ExploredDataflow],
    funnel: &ExploreFunnel,
) -> String {
    debug_assert!(
        !nonce.contains('"') && !nonce.contains('\\'),
        "cache nonces are hex strings"
    );
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"schema\":\"{CACHE_SCHEMA}\",\"nonce\":\"{nonce}\",\"key\":\"{}\",\"canon\":\"{}\",",
        key.hex(),
        key.canon()
    );
    s.push_str("\"funnel\":{");
    for (n, (name, v)) in funnel.fields()[..PERSISTED_FIELDS].iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{v}");
    }
    s.push_str("},\"results\":[");
    for (n, r) in results.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        let m = r.transform.matrix();
        let rank = m.rows();
        let _ = write!(s, "{{\"rank\":{rank},\"rows\":[");
        let mut first = true;
        for row in 0..rank {
            for &x in m.row(row) {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(s, "{x}");
            }
        }
        let _ = write!(
            s,
            "],\"num_pes\":{},\"moving_conns\":{},\"stationary_conns\":{},\"io_ports\":{},\"time_steps\":{}}}",
            r.num_pes, r.moving_conns, r.stationary_conns, r.io_ports, r.time_steps
        );
    }
    s.push_str("]}");
    s
}

/// How many leading [`ExploreFunnel::fields`] an entry persists, in that
/// order. The cache counters after them are excluded: they describe the
/// *serving* call, not the cached search.
const PERSISTED_FIELDS: usize = 12;

/// A strict cursor over the exact grammar [`render_cache_entry`] emits.
/// Anything else — truncation, a flipped byte, a foreign writer — is a
/// [`CacheEntryError::Malformed`], which the cache treats as a miss.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, lit: &str) -> Result<(), CacheEntryError> {
        let rest = &self.s[self.pos..];
        if rest.starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(CacheEntryError::Malformed("unexpected token"))
        }
    }

    /// Reads up to (not including) the next `"` — entry strings contain
    /// no escapes by construction.
    fn string(&mut self) -> Result<&'a str, CacheEntryError> {
        let rest = &self.s[self.pos..];
        let end = rest
            .find('"')
            .ok_or(CacheEntryError::Malformed("unterminated string"))?;
        self.pos += end + 1;
        Ok(&rest[..end])
    }

    fn int(&mut self) -> Result<i64, CacheEntryError> {
        let rest = &self.s[self.pos..];
        let len = rest
            .char_indices()
            .take_while(|&(n, c)| c.is_ascii_digit() || (n == 0 && c == '-'))
            .count();
        if len == 0 {
            return Err(CacheEntryError::Malformed("expected an integer"));
        }
        // Only the spelling `render_cache_entry` writes (no leading zero,
        // no `-0`), so a validated payload is the rendered one, byte for
        // byte, and may be served as it is.
        let text = &rest[..len];
        if text.strip_prefix('-').unwrap_or(text).starts_with('0') && text != "0" {
            return Err(CacheEntryError::Malformed("non-canonical integer"));
        }
        let v = text
            .parse()
            .map_err(|_| CacheEntryError::Malformed("integer out of range"))?;
        self.pos += len;
        Ok(v)
    }

    fn uint(&mut self) -> Result<u64, CacheEntryError> {
        let v = self.int()?;
        u64::try_from(v).map_err(|_| CacheEntryError::Malformed("expected an unsigned integer"))
    }

    fn peek(&self, lit: &str) -> bool {
        self.s[self.pos..].starts_with(lit)
    }
}

/// Parses a `stellar-design-cache-v1` payload back into a [`CacheEntry`],
/// rebuilding each transform (and its rational inverse) with
/// [`SpaceTimeTransform::new`] — the same deterministic constructor the
/// search used, so a round-tripped ranking is byte-identical to the
/// computed one.
///
/// # Errors
///
/// Any deviation from the exact rendered grammar ([`CacheEntryError`]).
/// Callers must treat every error as a cache miss.
pub fn parse_cache_entry(payload: &str) -> Result<CacheEntry, CacheEntryError> {
    let mut c = Cursor { s: payload, pos: 0 };
    c.eat("{\"schema\":\"")?;
    if c.string()? != CACHE_SCHEMA {
        return Err(CacheEntryError::SchemaMismatch);
    }
    c.eat(",\"nonce\":\"")?;
    let nonce = c.string()?.to_string();
    c.eat(",\"key\":\"")?;
    let key_hex = c.string()?.to_string();
    c.eat(",\"canon\":\"")?;
    let canon = c.string()?.to_string();
    c.eat(",\"funnel\":{")?;
    let mut funnel = ExploreFunnel::default();
    let slots = funnel.fields_mut();
    for (n, (name, slot)) in slots.into_iter().take(PERSISTED_FIELDS).enumerate() {
        if n > 0 {
            c.eat(",")?;
        }
        c.eat("\"")?;
        if c.string()? != name {
            return Err(CacheEntryError::Malformed("funnel field out of order"));
        }
        c.eat(":")?;
        *slot = c.uint()?;
    }
    c.eat("},\"results\":[")?;
    let mut results = Vec::new();
    if !c.peek("]") {
        loop {
            c.eat("{\"rank\":")?;
            let rank = usize::try_from(c.int()?)
                .ok()
                .filter(|&r| (1..=16).contains(&r))
                .ok_or(CacheEntryError::Malformed("implausible rank"))?;
            c.eat(",\"rows\":[")?;
            let mut rows = Vec::with_capacity(rank * rank);
            for n in 0..rank * rank {
                if n > 0 {
                    c.eat(",")?;
                }
                rows.push(c.int()?);
            }
            c.eat("],\"num_pes\":")?;
            let num_pes = c.uint()? as usize;
            c.eat(",\"moving_conns\":")?;
            let moving_conns = c.uint()? as usize;
            c.eat(",\"stationary_conns\":")?;
            let stationary_conns = c.uint()? as usize;
            c.eat(",\"io_ports\":")?;
            let io_ports = c.uint()? as usize;
            c.eat(",\"time_steps\":")?;
            let time_steps = c.int()?;
            c.eat("}")?;
            let transform = SpaceTimeTransform::new(IntMat::from_vec(rank, rank, rows))
                .map_err(|_| CacheEntryError::BadTransform)?;
            results.push(ExploredDataflow {
                transform,
                num_pes,
                moving_conns,
                stationary_conns,
                io_ports,
                time_steps,
            });
            if c.peek("]") {
                break;
            }
            c.eat(",")?;
        }
    }
    c.eat("]}")?;
    if c.pos != payload.len() {
        return Err(CacheEntryError::Malformed("trailing bytes"));
    }
    Ok(CacheEntry {
        nonce,
        key_hex,
        canon,
        funnel,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_dataflows_profiled;

    fn e20_query() -> (Functionality, Bounds, ExploreOptions) {
        (
            Functionality::matmul(4, 4, 4),
            Bounds::from_extents(&[4, 4, 4]),
            ExploreOptions {
                parallelism: 1,
                ..ExploreOptions::default()
            },
        )
    }

    #[test]
    fn key_is_deterministic_and_content_addressed() {
        let (f, b, o) = e20_query();
        let k1 = QueryKey::of(&f, &b, &o);
        let k2 = QueryKey::of(&Functionality::matmul(4, 4, 4), &b, &o);
        assert_eq!(k1, k2, "independently built identical specs must agree");
        assert_eq!(k1.hex().len(), 32);
        assert!(k1.hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn names_are_normalized_away_but_structure_is_not() {
        let (f, b, o) = e20_query();
        let key = QueryKey::of(&f, &b, &o);
        // Same structure, different recorded sizes in the *name* only.
        let renamed = Functionality::matmul(8, 8, 8);
        assert_eq!(QueryKey::of(&renamed, &b, &o), key);
        // A structural change (ReLU on the output) must re-key.
        let mut relu = Functionality::matmul(4, 4, 4);
        relu.replace_output_with_relu();
        assert_ne!(QueryKey::of(&relu, &b, &o), key);
    }

    #[test]
    fn every_ranking_relevant_option_keys() {
        let (f, b, o) = e20_query();
        let key = QueryKey::of(&f, &b, &o);
        let variants = [
            ExploreOptions { max_coeff: 2, ..o },
            ExploreOptions { max_pes: 64, ..o },
            ExploreOptions { keep: 4, ..o },
        ];
        for v in variants {
            assert_ne!(QueryKey::of(&f, &b, &v), key);
        }
        // ...while the proven byte-invisible fields do not.
        let invisible = [
            ExploreOptions {
                parallelism: 7,
                ..o
            },
            ExploreOptions {
                analytic_tier: false,
                ..o
            },
        ];
        for v in invisible {
            assert_eq!(QueryKey::of(&f, &b, &v), key);
        }
    }

    #[test]
    fn bounds_key() {
        let (f, _, o) = e20_query();
        let k4 = QueryKey::of(&f, &Bounds::from_extents(&[4, 4, 4]), &o);
        let k3 = QueryKey::of(&f, &Bounds::from_extents(&[3, 4, 4]), &o);
        assert_ne!(k4, k3);
        let shifted = Bounds::from_ranges(&[(1, 5), (0, 4), (0, 4)]);
        assert_ne!(QueryKey::of(&f, &shifted, &o), k4);
    }

    #[test]
    fn entry_round_trips_byte_identically() {
        let (f, b, o) = e20_query();
        let run = explore_dataflows_profiled(&f, &b, &o).unwrap();
        let key = QueryKey::of(&f, &b, &o);
        let payload = render_cache_entry(&key, "abc123", &run.results, &run.funnel);
        let entry = parse_cache_entry(&payload).unwrap();
        assert!(entry.matches(&key));
        assert_eq!(entry.nonce, "abc123");
        assert_eq!(entry.funnel, run.funnel);
        assert_eq!(
            entry.results, run.results,
            "rankings must round-trip exactly"
        );
        // Re-serialization is key- and byte-stable.
        let payload2 = render_cache_entry(&key, "abc123", &entry.results, &entry.funnel);
        assert_eq!(payload, payload2);
    }

    /// The e20 query's entry exactly as the commit before the funnel field
    /// table wrote it to `out/cache/`. The on-disk format — member order,
    /// the twelve funnel fields and their order — is a compatibility
    /// surface: entries written then must parse and re-render to the same
    /// bytes now.
    const E20_ENTRY_V1: &str = concat!(
        r##"{"schema":"stellar-design-cache-v1","nonce":"18da331689991fd4-266b","key":"459d47d53790ebf70a7dc0173b24da5e","##,
        r##""canon":"stellar-design-cache-v1|spec{r3;T[I:0,2|I:2,1|O:0,1];v3;A[v0@(i0,L1,i2)=T0(i0,i2)|v1@(L0,i1,i2)=T1(i2,i1)|v2@(i0,i1,L2)=c0000000000000000|v0@(i0,i1,i2)=v0(i0,i1-1,i2)|v1@(i0,i1,i2)=v1(i0-1,i1,i2)|v2@(i0,i1,i2)=(v2(i0,i1,i2-1)+(v0(i0,i1-1,i2)*v1(i0-1,i1,i2)))];O[T2@(i0,i1)=v2(i0,i1,U2)]}|b[(0,4),(0,4),(0,4)]|opts{mc=1;mp=4096;k=16}","##,
        r##""funnel":{"decoded":19683,"causality_rejected":18954,"singular":273,"pack_fallback":0,"analytic_scored":456,"analytic_rejected":0,"collision_rejected":0,"scored":456,"over_max_pes":0,"dedup_collisions":452,"survivors":4,"materialized":4},"##,
        r##""results":["##,
        r##"{"rank":3,"rows":[0,0,-1,0,-1,-1,1,1,1],"num_pes":16,"moving_conns":24,"stationary_conns":16,"io_ports":24,"time_steps":10},"##,
        r##"{"rank":3,"rows":[0,0,-1,1,-1,-1,1,1,1],"num_pes":28,"moving_conns":69,"stationary_conns":0,"io_ports":39,"time_steps":10},"##,
        r##"{"rank":3,"rows":[-1,0,-1,0,-1,-1,1,1,1],"num_pes":37,"moving_conns":90,"stationary_conns":0,"io_ports":48,"time_steps":10},"##,
        r##"{"rank":3,"rows":[-1,1,-1,0,-1,-1,1,1,1],"num_pes":46,"moving_conns":111,"stationary_conns":0,"io_ports":48,"time_steps":10}"##,
        r##"]}"##
    );

    #[test]
    fn an_entry_written_before_the_field_table_round_trips_byte_identically() {
        let (f, b, o) = e20_query();
        let key = QueryKey::of(&f, &b, &o);
        let entry = parse_cache_entry(E20_ENTRY_V1).unwrap();
        assert!(entry.matches(&key), "the e20 key itself must not move");
        assert_eq!(entry.funnel.decoded, 19683);
        assert_eq!(entry.funnel.materialized, 4);
        assert_eq!(entry.funnel.cache_hits, 0);
        assert_eq!(
            render_cache_entry(&key, &entry.nonce, &entry.results, &entry.funnel),
            E20_ENTRY_V1
        );
        // And it is what the search computes today.
        let run = explore_dataflows_profiled(&f, &b, &o).unwrap();
        assert_eq!(
            render_cache_entry(&key, &entry.nonce, &run.results, &run.funnel),
            E20_ENTRY_V1
        );
    }

    #[test]
    fn corrupted_payloads_are_rejected_not_served() {
        let (f, b, o) = e20_query();
        let run = explore_dataflows_profiled(&f, &b, &o).unwrap();
        let key = QueryKey::of(&f, &b, &o);
        let payload = render_cache_entry(&key, "n", &run.results, &run.funnel);
        // Truncation at every prefix length must fail, never panic.
        for cut in 0..payload.len() {
            assert!(
                parse_cache_entry(&payload[..cut]).is_err(),
                "truncated payload ({cut} bytes) parsed"
            );
        }
        // An integer spelled other than as rendered is malformed.
        for (from, to) in [
            ("\"rows\":[0,", "\"rows\":[-0,"),
            ("\"num_pes\":", "\"num_pes\":0"),
        ] {
            let respelled = payload.replacen(from, to, 1);
            assert_ne!(respelled, payload);
            assert_eq!(
                parse_cache_entry(&respelled).unwrap_err(),
                CacheEntryError::Malformed("non-canonical integer")
            );
        }
        // A foreign schema is a schema mismatch.
        let foreign = payload.replace(CACHE_SCHEMA, "stellar-design-cache-v0");
        assert_eq!(
            parse_cache_entry(&foreign).unwrap_err(),
            CacheEntryError::SchemaMismatch
        );
    }
}
