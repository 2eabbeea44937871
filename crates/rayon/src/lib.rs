//! A small, dependency-free, fully offline stand-in for the `rayon`
//! data-parallelism crate, implementing the subset of its API this
//! workspace uses: `par_iter()` on slices, `into_par_iter()` on integer
//! ranges, `with_min_len`, `map` then `collect`, and
//! `current_num_threads` — plus `with_max_threads` and
//! `try_collect_vec`, which return panics as errors with per-worker
//! telemetry.
//!
//! Scheduling is **work-stealing**: the index space is cut into chunks
//! that are dealt out across per-worker deques up front. Each owner pops
//! LIFO from the *bottom* of its own deque (the chunk it would have run
//! next anyway, cache-warm and in index order); a worker whose deque runs
//! dry becomes a thief and steals a FIFO batch of [`STEAL_BATCH`] chunks
//! from the *top* of a victim's deque — the work farthest from what the
//! victim is touching. An expensive chunk therefore never tail-stalls the
//! pool: the moment any worker idles it relieves the most loaded peer.
//! Results are materialized per chunk, tagged with the chunk's start
//! index, and merged back in index order, so `collect` is
//! **order-preserving and deterministic** regardless of thread count,
//! steal schedule, or completion order — the property the deterministic
//! dataflow-search and sweep pipelines rely on.
//!
//! When the pool resolves to a single worker (`RAYON_NUM_THREADS=1`, a
//! `with_max_threads(1)` cap, or a single-item source) the deque
//! machinery is bypassed entirely: the serial fast path runs the plain
//! loop under one `catch_unwind` and reports itself as one fully-busy
//! worker.
//!
//! The calling thread is worker 0 and `threads − 1` plain
//! `std::thread::scope` threads are spawned per call beside it; for the
//! coarse-grained parallelism in this workspace (thousands of candidate
//! transforms or simulations per call) the spawn cost is noise, and each
//! call saves one thread's stack and heap arena.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Chunks a thief takes from the top of a victim's deque per steal.
///
/// One steal must amortize the victim's lock plus the scan that found it,
/// so thieves take a small FIFO *batch* rather than a single chunk; but a
/// large batch re-creates the imbalance stealing exists to fix (the thief
/// hoards work the next idle worker then has to steal back). Four chunks
/// — half a worker's initial deal under the default eight-chunks-per-
/// worker split — balances the two. The setting is *scheduling only*:
/// chunks stay tagged with their start index and the collected output is
/// merged in index order, so any batch size yields byte-identical results
/// (`steal_batch_size_never_changes_output_order` pins this).
pub const STEAL_BATCH: usize = 4;

/// Wall-clock telemetry for one worker thread of a parallel map: how long
/// the thread existed (`wall_ms`), how much of that it spent executing
/// chunks (`busy_ms`), and how much work it claimed. The gap
/// ([`WorkerStats::idle_ms`]) is the tail-stall/imbalance signal the
/// profiling layer exists to expose. Timings are real wall-clock and
/// therefore **not** deterministic — only the item/chunk counts are —
/// so they are telemetry, never part of a computed result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Milliseconds spent executing claimed chunks.
    pub busy_ms: f64,
    /// Milliseconds from worker start to worker exit.
    pub wall_ms: f64,
    /// Chunks this worker claimed and completed.
    pub chunks: u64,
    /// Items this worker processed.
    pub items: u64,
    /// Chunks this worker executed that were originally dealt to another
    /// worker's deque — the balance counter for the work-stealing
    /// scheduler. Every stolen chunk is also counted under `chunks` by
    /// its executor, so `steals <= chunks` holds per worker, and
    /// `total_steals() <= total_chunks()` holds for the pool.
    pub steals: u64,
}

impl WorkerStats {
    /// Milliseconds the worker spent waiting rather than computing
    /// (clamped at zero against timer skew).
    pub fn idle_ms(&self) -> f64 {
        (self.wall_ms - self.busy_ms).max(0.0)
    }
}

/// Per-worker telemetry for one parallel-map execution, in worker-index
/// order. The serial path reports itself as a single fully-busy worker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// One entry per worker, in worker order; worker 0 is the calling
    /// thread.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Number of worker threads that ran.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Total items processed across workers.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Total chunks executed across workers.
    pub fn total_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.chunks).sum()
    }

    /// Total chunks that moved between workers via stealing. Zero on the
    /// serial path and on perfectly balanced parallel runs.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Busy time as a fraction of total worker wall time (0 when no
    /// worker accumulated any wall time, never NaN).
    pub fn utilization(&self) -> f64 {
        let wall: f64 = self.workers.iter().map(|w| w.wall_ms).sum();
        if wall <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy_ms).sum();
        (busy / wall).clamp(0.0, 1.0)
    }

    /// The stats of a serial execution: one worker, busy the whole time.
    /// Public so callers with their own single-threaded loops (e.g. the
    /// serial oracle of the dataflow search) can report the same
    /// telemetry shape as a parallel run.
    pub fn serial(items: u64, busy_ms: f64) -> PoolStats {
        PoolStats {
            workers: vec![WorkerStats {
                busy_ms,
                wall_ms: busy_ms,
                chunks: u64::from(items > 0),
                items,
                steals: 0,
            }],
        }
    }
}

/// A worker closure panicked during a parallel map. Returned by
/// [`ParMap::try_collect_vec`] instead of re-raising the panic, so a single bad
/// item (one candidate out of millions in a dataflow search) surfaces as
/// an error the caller can handle rather than tearing down the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Panicked {
    /// The panic message, when it was a `&str` or `String` payload;
    /// otherwise a generic description.
    pub message: String,
}

impl fmt::Display for Panicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel worker panicked: {}", self.message)
    }
}

impl std::error::Error for Panicked {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub mod prelude {
    //! The traits that put `par_iter`/`into_par_iter` in scope.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// The number of worker threads parallel iterators use: the
/// `RAYON_NUM_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism. A setting of
/// `1` routes every parallel iterator through the serial fast path — no
/// deques, no worker threads, no stealing.
pub fn current_num_threads() -> usize {
    threads_from_env(std::env::var("RAYON_NUM_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Parses a `RAYON_NUM_THREADS` value: `Some(n)` for a positive integer,
/// `None` (fall back to the machine parallelism) otherwise.
fn threads_from_env(var: Option<&str>) -> Option<usize> {
    match var?.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// An index-addressable source of items — the internal driver behind
/// every parallel iterator. `get` takes `&self` so workers can pull items
/// concurrently.
pub trait ParSource: Sync {
    /// The item produced per index.
    type Item: Send;
    /// Number of items.
    fn len(&self) -> usize;
    /// The item at `i` (`i < len()`).
    fn get(&self, i: usize) -> Self::Item;
    /// True when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A contiguous integer range as a source.
pub struct RangeSource<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_source {
    ($($t:ty),*) => {$(
        impl ParSource for RangeSource<$t> {
            type Item = $t;
            fn len(&self) -> usize {
                self.len
            }
            fn get(&self, i: usize) -> $t {
                self.start + i as $t
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Iter = ParIter<RangeSource<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                ParIter::new(RangeSource {
                    start: self.start,
                    len: usize::try_from(self.end.saturating_sub(self.start)).unwrap_or(0),
                })
            }
        }
    )*};
}

impl_range_source!(usize, u64, u32);

/// A borrowed slice as a source of `&T`.
pub struct SliceSource<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSource for SliceSource<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn get(&self, i: usize) -> &'a T {
        &self.items[i]
    }
}

/// Conversion into a parallel iterator by value (ranges).
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a parallel iterator over references (slices, `Vec`s).
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator produced.
    type Iter;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParIter<SliceSource<'a, T>>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter::new(SliceSource { items: self })
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParIter<SliceSource<'a, T>>;
    fn par_iter(&'a self) -> Self::Iter {
        ParIter::new(SliceSource { items: self })
    }
}

/// A parallel iterator over a [`ParSource`].
pub struct ParIter<S> {
    source: S,
    min_len: usize,
    max_threads: usize,
    steal_batch: usize,
}

impl<S: ParSource> ParIter<S> {
    fn new(source: S) -> ParIter<S> {
        ParIter {
            source,
            min_len: 1,
            max_threads: 0,
            steal_batch: STEAL_BATCH,
        }
    }

    /// Lower-bounds the chunk size workers claim at a time (a splitting
    /// hint, exactly like rayon's).
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Sets the worker-thread count for this execution (`0` keeps the
    /// pool default from [`current_num_threads`]). An explicit request is
    /// honored even past the machine parallelism — oversubscription is
    /// how a single-core box still exercises (and tests) the
    /// work-stealing deques — though never past one worker per chunk.
    /// Results are identical for every setting; only scheduling and
    /// telemetry change.
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Overrides the [`STEAL_BATCH`] steal-batch size for this execution
    /// (clamped to at least 1). Results are byte-identical for every
    /// setting — only the steal schedule changes — which is exactly what
    /// the determinism suite uses this hook to prove.
    #[doc(hidden)]
    pub fn with_steal_batch(mut self, steal_batch: usize) -> Self {
        self.steal_batch = steal_batch.max(1);
        self
    }

    /// Maps every item through `f`.
    pub fn map<R, F>(self, f: F) -> ParMap<S, F>
    where
        R: Send,
        F: Fn(S::Item) -> R + Sync,
    {
        ParMap {
            source: self.source,
            f,
            min_len: self.min_len,
            max_threads: self.max_threads,
            steal_batch: self.steal_batch,
        }
    }
}

/// The result of [`ParIter::map`]: a mapped parallel iterator ready to be
/// reduced or collected.
pub struct ParMap<S, F> {
    source: S,
    f: F,
    min_len: usize,
    max_threads: usize,
    steal_batch: usize,
}

impl<S, F, R> ParMap<S, F>
where
    S: ParSource,
    R: Send,
    F: Fn(S::Item) -> R + Sync,
{
    /// Executes the map with every chunk isolated by `catch_unwind`.
    /// `Err` carries the panic payload of the **lowest-indexed** panicking
    /// chunk — deterministic regardless of thread count, steal schedule,
    /// or completion order, so a panicking input reports the same failure
    /// every run. Once a chunk panics, chunks above it are dropped unrun;
    /// chunks below it still run, because one of them may panic too and
    /// must win. Alongside the results it returns
    /// per-worker telemetry ([`PoolStats`]); the counters cost two
    /// `Instant` reads per *chunk*, noise next to the thousands of items
    /// a chunk holds.
    ///
    /// Scheduling is the work-stealing protocol from the module docs:
    /// chunks are dealt contiguously across per-worker deques (each deque
    /// ordered so the owner's bottom pop walks its range in ascending
    /// index order), owners pop LIFO from the bottom, and idle workers
    /// steal FIFO batches of [`STEAL_BATCH`] chunks from the top of the
    /// first non-empty victim deque. Worker 0 is the calling thread, and
    /// it claims chunk 0 before spawning the other `threads − 1`. A
    /// worker that finds every deque empty while chunks are still in
    /// flight yields and rescans (an executing chunk never spawns new
    /// chunks, so this wait is bounded by the longest single chunk).
    fn try_run(self) -> Result<(Vec<R>, PoolStats), Box<dyn std::any::Any + Send>> {
        let len = self.source.len();
        // An explicit thread request is taken as-is (oversubscription
        // included); `0` means the machine default.
        let mut threads = if self.max_threads > 0 {
            self.max_threads
        } else {
            current_num_threads()
        };
        threads = threads.min(len.max(1));
        // Aim for several chunks per worker so a slow chunk load-balances,
        // bounded below by the caller's splitting hint.
        let chunk = if threads > 1 {
            (len.div_ceil(threads * 8)).max(self.min_len)
        } else {
            len.max(1)
        };
        let n_chunks = len.div_ceil(chunk.max(1)).max(1);
        // Never park workers that can't possibly get a chunk.
        threads = threads.min(n_chunks);
        if threads <= 1 || len <= 1 {
            // Serial fast path: `RAYON_NUM_THREADS=1`, an explicit
            // single-thread cap, or a source too small to split. No
            // deques, no scope, no stealing — one catch_unwind around
            // the plain loop.
            let started = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                (0..len)
                    .map(|i| (self.f)(self.source.get(i)))
                    .collect::<Vec<R>>()
            }))?;
            let busy_ms = started.elapsed().as_secs_f64() * 1e3;
            return Ok((out, PoolStats::serial(len as u64, busy_ms)));
        }

        // Deal chunks contiguously across the per-worker deques, each
        // deque descending by start index from front to back, so the
        // owner's bottom (back) pop walks its range in ascending index
        // order while thieves take the top (front) — the work farthest
        // from the owner's current locality.
        let steal_batch = self.steal_batch.max(1);
        let mut boundary = 0usize;
        // Each entry carries its original owner so the executor can tell
        // a stolen chunk from a home chunk when it books `steals`.
        let deques: Vec<Mutex<VecDeque<(usize, usize, usize)>>> = (0..threads)
            .map(|w| {
                let share = n_chunks / threads + usize::from(w < n_chunks % threads);
                let mut dq = VecDeque::with_capacity(share);
                for c in (boundary..boundary + share).rev() {
                    let start = c * chunk;
                    dq.push_back((start, (start + chunk).min(len), w));
                }
                boundary += share;
                Mutex::new(dq)
            })
            .collect();
        debug_assert_eq!(boundary, n_chunks);
        let remaining = AtomicUsize::new(n_chunks);
        // Start of the lowest-indexed chunk that has panicked so far.
        let lowest_panic = AtomicUsize::new(usize::MAX);
        let chunks: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
        let worker_stats: Mutex<Vec<(usize, WorkerStats)>> = Mutex::new(Vec::new());
        type Payload = Box<dyn std::any::Any + Send>;
        let panics: Mutex<Vec<(usize, Payload)>> = Mutex::new(Vec::new());
        let f = &self.f;
        let source = &self.source;
        // One worker's whole life: pop its own deque, steal when dry, run
        // each chunk under `catch_unwind`, then publish results and stats.
        // `first` is a chunk claimed before any worker started.
        let work = |w: usize, mut first: Option<(usize, usize, usize)>| {
            let worker_started = Instant::now();
            let mut stats = WorkerStats::default();
            let mut local: Vec<(usize, Vec<R>)> = Vec::new();
            'work: loop {
                // Owner path: LIFO pop from the bottom of our own deque.
                let mut job = first
                    .take()
                    .or_else(|| deques[w].lock().ok().and_then(|mut dq| dq.pop_back()));
                if job.is_none() {
                    // Thief path: FIFO-steal a batch from the top of the
                    // first non-empty victim, append it to our own deque
                    // (preserving the descending front-to-back order), and
                    // run its lowest-indexed chunk now.
                    for v in (w + 1..threads).chain(0..w) {
                        let stolen: Vec<(usize, usize, usize)> = match deques[v].lock() {
                            Ok(mut dq) => (0..steal_batch).map_while(|_| dq.pop_front()).collect(),
                            Err(_) => Vec::new(),
                        };
                        if stolen.is_empty() {
                            continue;
                        }
                        if let Ok(mut dq) = deques[w].lock() {
                            dq.extend(stolen);
                            job = dq.pop_back();
                        }
                        break;
                    }
                }
                let Some((start, end, owner)) = job else {
                    if remaining.load(Ordering::Acquire) == 0 {
                        break 'work;
                    }
                    // Chunks are in flight on other workers but none are
                    // stealable; an executing chunk never spawns new chunks,
                    // so just yield and rescan until the stragglers finish.
                    std::thread::yield_now();
                    continue;
                };
                if start > lowest_panic.load(Ordering::Relaxed) {
                    remaining.fetch_sub(1, Ordering::Release);
                    continue;
                }
                let chunk_started = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| {
                    let mut out = Vec::with_capacity(end - start);
                    for i in start..end {
                        out.push(f(source.get(i)));
                    }
                    out
                })) {
                    Ok(out) => {
                        stats.busy_ms += chunk_started.elapsed().as_secs_f64() * 1e3;
                        stats.chunks += 1;
                        stats.items += (end - start) as u64;
                        stats.steals += u64::from(owner != w);
                        local.push((start, out));
                        remaining.fetch_sub(1, Ordering::Release);
                    }
                    Err(payload) => {
                        lowest_panic.fetch_min(start, Ordering::Relaxed);
                        if let Ok(mut p) = panics.lock() {
                            p.push((start, payload));
                        }
                        remaining.fetch_sub(1, Ordering::Release);
                    }
                }
            }
            stats.wall_ms = worker_started.elapsed().as_secs_f64() * 1e3;
            if let Ok(mut all) = chunks.lock() {
                all.extend(local);
            }
            if let Ok(mut all) = worker_stats.lock() {
                all.push((w, stats));
            }
        };
        // The calling thread is worker 0 — it claims chunk 0 before the
        // others start, so it always runs at least one chunk — and
        // `threads − 1` scoped threads are spawned beside it.
        let first = deques[0].lock().ok().and_then(|mut dq| dq.pop_back());
        std::thread::scope(|scope| {
            let work = &work;
            let spawned: Vec<_> = (1..threads)
                .map(|w| scope.spawn(move || work(w, None)))
                .collect();
            work(0, first);
            // Join the threads themselves, not only their closures (all a
            // scope waits for): a thread still exiting holds its malloc
            // arena, and the next pool's threads would each take a new one.
            for handle in spawned {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        let mut panics = panics.into_inner().unwrap_or_default();
        if !panics.is_empty() {
            // First panic by index order, not by wall-clock order.
            panics.sort_unstable_by_key(|&(start, _)| start);
            return Err(panics.remove(0).1);
        }

        // Merge chunks back in index order: deterministic regardless of
        // which worker ran which chunk.
        let mut all = chunks.into_inner().unwrap_or_default();
        all.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(len);
        for (_, mut part) in all {
            out.append(&mut part);
        }
        let mut per_worker = worker_stats.into_inner().unwrap_or_default();
        per_worker.sort_unstable_by_key(|&(w, _)| w);
        Ok((
            out,
            PoolStats {
                workers: per_worker.into_iter().map(|(_, s)| s).collect(),
            },
        ))
    }

    /// Executes the map, returning results in index order. A panic in any
    /// worker is re-raised here with its original payload (rayon's
    /// behavior) — use [`ParMap::try_collect_vec`] to get a `Result`
    /// instead.
    fn run(self) -> Vec<R> {
        match self.try_run() {
            Ok((out, _)) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Executes the map, returning results in index order together with
    /// the [`PoolStats`] of the execution, or [`Panicked`] if any worker
    /// closure panicked — without tearing down the calling thread. The
    /// result vector is identical to [`ParMap::collect`]'s; only the
    /// telemetry (wall-clock, inherently nondeterministic) differs run to
    /// run. On the error path the message comes from the lowest-indexed
    /// panicking chunk, so it is deterministic.
    ///
    /// # Errors
    ///
    /// [`Panicked`] carrying the first panic's message.
    pub fn try_collect_vec(self) -> Result<(Vec<R>, PoolStats), Panicked> {
        self.try_run().map_err(|payload| Panicked {
            message: panic_message(payload.as_ref()),
        })
    }

    /// Collects results in index order (only `Vec` targets are supported).
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(self.run())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * i).collect();
        let expected: Vec<usize> = (0..1000usize).map(|i| i * i).collect();
        assert_eq!(squares, expected);
    }

    #[test]
    fn slice_par_iter_yields_refs_in_order() {
        let words = vec!["a", "bb", "ccc", "dddd"];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_sources() {
        let none: Vec<u64> = (0..0u64).into_par_iter().map(|i| i).collect();
        assert!(none.is_empty());
        let one: Vec<u64> = (7..8u64).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(one, vec![14]);
    }

    #[test]
    fn with_min_len_does_not_change_results() {
        let a: Vec<usize> = (0..537usize).into_par_iter().map(|i| i + 1).collect();
        let b: Vec<usize> = (0..537usize)
            .into_par_iter()
            .with_min_len(100)
            .map(|i| i + 1)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn try_collect_vec_succeeds_like_collect() {
        let ok: Result<(Vec<usize>, PoolStats), Panicked> = (0..1000usize)
            .into_par_iter()
            .map(|i| i * 3)
            .try_collect_vec();
        let expected: Vec<usize> = (0..1000usize).map(|i| i * 3).collect();
        assert_eq!(ok.unwrap().0, expected);
    }

    #[test]
    fn worker_panic_surfaces_as_err_not_abort() {
        let res = (0..10_000usize)
            .into_par_iter()
            .map(|i| {
                if i == 7777 {
                    panic!("bad candidate {i}");
                }
                i
            })
            .try_collect_vec();
        let err = res.unwrap_err();
        assert_eq!(err.message, "bad candidate 7777");
        assert!(err.to_string().contains("worker panicked"));
    }

    #[test]
    fn first_panic_by_index_wins_deterministically() {
        // Two panicking items in different chunks: the reported message
        // must always come from the lower index, on every thread count.
        for _ in 0..8 {
            let res = (0..50_000usize)
                .into_par_iter()
                .with_min_len(64)
                .map(|i| {
                    if i == 1_000 || i == 49_000 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .try_collect_vec();
            assert_eq!(res.unwrap_err().message, "boom at 1000");
        }
    }

    #[test]
    fn serial_path_panic_is_also_caught() {
        // len <= 1 takes the serial path; the panic must still become Err.
        let res = (0..1usize)
            .into_par_iter()
            .map(|_| -> usize { panic!("serial boom") })
            .try_collect_vec();
        assert_eq!(res.unwrap_err().message, "serial boom");
    }

    #[test]
    fn run_reraises_with_original_payload() {
        // collect() keeps rayon semantics: the panic propagates.
        let caught = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..100usize)
                .into_par_iter()
                .map(|i| if i == 50 { panic!("kept payload") } else { i })
                .collect();
        });
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kept payload"));
    }

    #[test]
    fn profiled_collect_matches_plain_collect() {
        let plain: Vec<u64> = (0..10_000u64).into_par_iter().map(|i| i * 7).collect();
        let (profiled, stats) = (0..10_000u64)
            .into_par_iter()
            .map(|i| i * 7)
            .try_collect_vec()
            .unwrap();
        assert_eq!(plain, profiled);
        assert!(stats.worker_count() >= 1);
        assert_eq!(stats.total_items(), 10_000);
        assert!(stats.total_chunks() >= 1);
        for w in &stats.workers {
            assert!(w.wall_ms >= 0.0 && w.busy_ms >= 0.0 && w.idle_ms() >= 0.0);
        }
    }

    #[test]
    fn max_threads_caps_the_worker_count() {
        for cap in [1usize, 2, 3] {
            let (out, stats) = (0..50_000usize)
                .into_par_iter()
                .with_max_threads(cap)
                .map(|i| i + 1)
                .try_collect_vec()
                .unwrap();
            assert_eq!(out.len(), 50_000);
            assert!(
                stats.worker_count() <= cap,
                "cap {cap} produced {} workers",
                stats.worker_count()
            );
            assert_eq!(stats.total_items(), 50_000);
        }
    }

    #[test]
    fn serial_profile_reports_one_fully_busy_worker() {
        let (_, stats) = (0..100usize)
            .into_par_iter()
            .with_max_threads(1)
            .map(|i| i)
            .try_collect_vec()
            .unwrap();
        assert_eq!(stats.worker_count(), 1);
        assert_eq!(stats.workers[0].items, 100);
        assert_eq!(stats.workers[0].busy_ms, stats.workers[0].wall_ms);
        assert_eq!(stats.workers[0].idle_ms(), 0.0);
    }

    #[test]
    fn pool_utilization_is_bounded_and_nan_free() {
        assert_eq!(PoolStats::default().utilization(), 0.0);
        let (_, stats) = (0..10_000usize)
            .into_par_iter()
            .map(|i| i)
            .try_collect_vec()
            .unwrap();
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        assert!(!u.is_nan());
    }

    #[test]
    fn rayon_num_threads_env_values_resolve_as_documented() {
        // The pure resolution behind current_num_threads: a positive
        // integer is honored (1 selects the serial bypass), anything
        // else falls back to the machine parallelism.
        assert_eq!(threads_from_env(Some("1")), Some(1));
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("-2")), None);
        assert_eq!(threads_from_env(Some("lots")), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(None), None);
    }

    #[test]
    fn steal_batch_size_never_changes_output_order() {
        // The STEAL_BATCH constant is scheduling-only: any batch size
        // must collect byte-identical output, even on a pathologically
        // skewed workload where the first chunks dominate and everything
        // else has to be stolen.
        let skewed = |i: usize| {
            let spins = if i < 64 { 20_000 } else { 1 };
            let mut acc = i as u64;
            for s in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
            }
            (i as u64) << 32 | (acc & 0xffff_ffff)
        };
        let expected: Vec<u64> = (0..4096usize).map(skewed).collect();
        for batch in [1usize, 2, STEAL_BATCH, 7, 64, usize::MAX] {
            let (got, stats) = (0..4096usize)
                .into_par_iter()
                .with_min_len(32)
                .with_max_threads(4)
                .with_steal_batch(batch)
                .map(skewed)
                .try_collect_vec()
                .unwrap();
            assert_eq!(got, expected, "steal batch {batch} changed the output");
            assert_eq!(stats.total_items(), 4096);
        }
    }

    #[test]
    fn steal_counters_are_conserved() {
        // Every chunk is executed exactly once no matter how often it
        // moves between deques: items and chunks are conserved, and
        // steals are bounded by the chunk count (a steal always precedes
        // the execution of the stolen chunk).
        let (out, stats) = (0..10_000usize)
            .into_par_iter()
            .with_min_len(16)
            .with_max_threads(4)
            .map(|i| i * 11)
            .try_collect_vec()
            .unwrap();
        assert_eq!(out.len(), 10_000);
        assert_eq!(stats.total_items(), 10_000);
        assert!(stats.total_chunks() >= 1);
        assert!(
            stats.total_steals() <= stats.total_chunks(),
            "stole {} of {} chunks",
            stats.total_steals(),
            stats.total_chunks()
        );
        for w in &stats.workers {
            assert!(w.steals <= w.chunks, "worker stole more than it ran");
        }
    }

    #[test]
    fn serial_bypass_reports_no_steals() {
        // parallelism == 1 must bypass the deque machinery: one fully
        // busy worker, zero steals.
        let (_, stats) = (0..5_000usize)
            .into_par_iter()
            .with_max_threads(1)
            .map(|i| i)
            .try_collect_vec()
            .unwrap();
        assert_eq!(stats.worker_count(), 1);
        assert_eq!(stats.total_steals(), 0);
        assert_eq!(stats.workers[0].busy_ms, stats.workers[0].wall_ms);
    }

    #[test]
    fn skewed_workload_is_stolen_not_tail_stalled() {
        // With the whole expensive range dealt to worker 0's deque and
        // plenty of cheap chunks elsewhere, a multi-thread run on a
        // multi-core box should record steals; everywhere, the output
        // must stay identical to the serial map.
        let cost = |i: usize| {
            let mut acc = 1u64;
            let spins = if i < 256 { 50_000u64 } else { 10 };
            for s in 0..spins {
                acc = acc.wrapping_mul(0x9e3779b97f4a7c15) ^ s;
            }
            acc ^ i as u64
        };
        let expected: Vec<u64> = (0..2048usize).map(cost).collect();
        let (got, stats) = (0..2048usize)
            .into_par_iter()
            .with_min_len(8)
            .with_max_threads(4)
            .map(cost)
            .try_collect_vec()
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(stats.total_items(), 2048);
        assert_eq!(stats.worker_count(), 4);
        // Steals are opportunistic (scheduling decides how many), but
        // whatever happened must be internally consistent.
        assert!(stats.total_steals() <= stats.total_chunks());
    }

    #[test]
    fn panic_under_stealing_still_reports_lowest_index() {
        // Panic isolation composes with stealing: whichever worker ends
        // up running the panicking chunks, the reported panic is the
        // lowest-indexed one, and counters on the surviving workers stay
        // conserved (every counted chunk really ran).
        for batch in [1usize, STEAL_BATCH, 1024] {
            let res = (0..20_000usize)
                .into_par_iter()
                .with_min_len(16)
                .with_max_threads(4)
                .with_steal_batch(batch)
                .map(|i| {
                    if i == 500 || i == 19_500 {
                        panic!("boom at {i}");
                    }
                    i
                })
                .try_collect_vec();
            assert_eq!(res.unwrap_err().message, "boom at 500", "batch {batch}");
        }
    }

    #[test]
    fn non_panicking_results_unchanged_by_isolation() {
        // The catch_unwind wrapper must not perturb ordering or values —
        // the determinism property the search pipelines rely on.
        let a: Vec<u64> = (0..12_345u64).into_par_iter().map(|i| i ^ 0xabcd).collect();
        let b: Vec<u64> = (0..12_345u64)
            .into_par_iter()
            .map(|i| i ^ 0xabcd)
            .try_collect_vec()
            .unwrap()
            .0;
        assert_eq!(a, b);
    }
}
