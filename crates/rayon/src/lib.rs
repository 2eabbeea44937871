//! A small, dependency-free, fully offline stand-in for the `rayon`
//! data-parallelism crate, reduced to the one operation this workspace
//! uses: [`par_map`], an order-preserving parallel map over `0..len` that
//! returns a panic as an error, with per-worker telemetry.
//!
//! Scheduling is one shared counter: the calling thread is worker 0 and
//! takes item 0, and every worker then claims the next unclaimed item
//! until none is left, so an expensive item never tail-stalls the items
//! behind it. Results merge in index order, so the output is
//! **deterministic** whatever the thread count or completion order — the
//! property the dataflow search and the sweep experiments rely on. Every
//! consumer's items are coarse (search shards, whole simulations), so one
//! claim is one item.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Wall-clock telemetry for one worker of a [`par_map`]: how long the
/// worker existed (`wall_ms`), how much of that it spent running items
/// (`busy_ms`), and how many items it ran. The gap
/// ([`WorkerStats::idle_ms`]) is the tail-stall signal the profiling
/// layer exposes. Timings are real wall-clock and therefore **not**
/// deterministic, so they are telemetry, never part of a computed result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Milliseconds spent running claimed items.
    pub busy_ms: f64,
    /// Milliseconds from worker start to worker exit.
    pub wall_ms: f64,
    /// Items this worker ran.
    pub items: u64,
}

impl WorkerStats {
    /// Milliseconds the worker spent waiting rather than computing
    /// (clamped at zero against timer skew).
    pub fn idle_ms(&self) -> f64 {
        (self.wall_ms - self.busy_ms).max(0.0)
    }
}

/// Per-worker telemetry for one [`par_map`], in worker order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// One entry per worker, in worker order; worker 0 is the calling
    /// thread.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Number of workers that ran.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Total items processed across workers.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Always 0: the shared counter moves no work between workers. Kept
    /// because the benchmark's `rayon.steals` row reads it.
    pub fn total_steals(&self) -> u64 {
        0
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
                items,
            }],
        }
    }
}

/// A worker closure panicked during a [`par_map`]. Returned instead of
/// re-raising the panic, so a single bad item (one shard of a dataflow
/// search) surfaces as an error the caller can handle rather than
/// tearing down the process.
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

/// The machine's available parallelism: the worker count a [`par_map`]
/// with `threads == 0` uses.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `0..len` on `min(threads, len)` workers (at least one;
/// `threads == 0` means [`current_num_threads`]) and returns the results
/// in index order with per-worker [`PoolStats`]. An explicit `threads` is
/// honored past the machine parallelism, so a small machine still runs
/// and tests several workers. The results are identical for every
/// `threads`; only the telemetry differs run to run.
///
/// # Errors
///
/// [`Panicked`] with the message of the **lowest-indexed** item that
/// panicked, whatever the thread count or completion order. Claims
/// ascend, so every item below a panicked one was already claimed and
/// still runs, and may win; a panic moves the counter to `len`, so the
/// workers stop claiming.
pub fn par_map<R, F>(len: usize, threads: usize, f: F) -> Result<(Vec<R>, PoolStats), Panicked>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = match threads {
        0 => current_num_threads(),
        n => n,
    };
    let workers = threads.min(len).max(1);
    // Item 0 is the caller's; the claim counter publishes no other data,
    // since results return through the scope's joins.
    let next = AtomicUsize::new(1);
    let work = |first: usize| {
        let started = Instant::now();
        let (mut out, mut stats) = (Vec::new(), WorkerStats::default());
        let mut i = first;
        while i < len {
            let item_started = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(p.as_ref()));
            if r.is_err() {
                next.store(len, Ordering::Relaxed);
            }
            out.push((i, r));
            stats.busy_ms += item_started.elapsed().as_secs_f64() * 1e3;
            stats.items += 1;
            i = next.fetch_add(1, Ordering::Relaxed);
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        (out, stats)
    };
    let runs = std::thread::scope(|scope| {
        let (work, next) = (&work, &next);
        let spawned: Vec<_> = (1..workers)
            .map(|_| scope.spawn(move || work(next.fetch_add(1, Ordering::Relaxed))))
            .collect();
        let mut runs = vec![work(0)];
        // Join the threads themselves, not only their closures (all a
        // scope waits for): a thread still exiting holds its malloc arena,
        // and the next map's threads would each take a new one.
        for handle in spawned {
            match handle.join() {
                Ok(run) => runs.push(run),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        runs
    });

    let stats = PoolStats {
        workers: runs.iter().map(|(_, stats)| *stats).collect(),
    };
    let mut all: Vec<_> = runs.into_iter().flat_map(|(out, _)| out).collect();
    all.sort_unstable_by_key(|&(i, _)| i);
    // Collecting stops at the first error in index order: the lowest
    // panicked item, below which every item ran.
    let out = all
        .into_iter()
        .map(|(_, r)| r)
        .collect::<Result<Vec<R>, String>>()
        .map_err(|message| Panicked { message })?;
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cost that is heavy for the first items and light for the rest.
    fn skewed(i: usize) -> u64 {
        let spins = if i < 16 { 50_000u64 } else { 10 };
        let mut acc = 1u64;
        for s in 0..spins {
            acc = acc.wrapping_mul(0x9e3779b97f4a7c15) ^ s;
        }
        acc ^ i as u64
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let expected: Vec<usize> = (0..1000usize).map(|i| i * i).collect();
        for threads in [1usize, 2, 4, 8] {
            let (squares, _) = par_map(1000, threads, |i| i * i).unwrap();
            assert_eq!(squares, expected, "threads {threads}");
        }
    }

    #[test]
    fn slice_par_iter_yields_refs_in_order() {
        let words = ["a", "bb", "ccc", "dddd"];
        let (lens, _) = par_map(words.len(), 4, |i| words[i].len()).unwrap();
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_sources() {
        let (none, stats) = par_map(0, 4, |i| i).unwrap();
        assert!(none.is_empty());
        assert_eq!((stats.worker_count(), stats.total_items()), (1, 0));
        let (one, stats) = par_map(1, 4, |i| i * 2 + 14).unwrap();
        assert_eq!(one, vec![14]);
        assert_eq!((stats.worker_count(), stats.total_items()), (1, 1));
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn worker_panic_surfaces_as_err_not_abort() {
        let err = par_map(10_000, 0, |i| {
            if i == 7777 {
                panic!("bad candidate {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "bad candidate 7777");
        assert!(err.to_string().contains("worker panicked"));
    }

    #[test]
    fn first_panic_by_index_wins_deterministically() {
        // Two panicking items: the reported message must always come from
        // the lower index, on every run.
        for _ in 0..8 {
            let err = par_map(50_000, 0, |i| {
                if i == 1_000 || i == 49_000 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.message, "boom at 1000");
        }
    }

    #[test]
    fn serial_path_panic_is_also_caught() {
        // One worker runs the same loop, under the same catch_unwind.
        let err = par_map(1, 1, |_| -> usize { panic!("serial boom") }).unwrap_err();
        assert_eq!(err.message, "serial boom");
    }

    #[test]
    fn profiled_collect_matches_plain_collect() {
        let plain: Vec<u64> = (0..10_000u64).map(|i| i * 7).collect();
        let (profiled, stats) = par_map(10_000, 0, |i| i as u64 * 7).unwrap();
        assert_eq!(plain, profiled);
        assert!(stats.worker_count() >= 1);
        assert_eq!(stats.total_items(), 10_000);
        assert_eq!(stats.total_steals(), 0);
        for w in &stats.workers {
            assert!(w.wall_ms >= 0.0 && w.busy_ms >= 0.0 && w.idle_ms() >= 0.0);
        }
    }

    #[test]
    fn max_threads_caps_the_worker_count() {
        // `min(threads, len)` workers, oversubscription included, and the
        // items they ran sum to `len`.
        for (len, threads) in [(50_000usize, 1usize), (50_000, 2), (50_000, 3), (3, 8)] {
            let (out, stats) = par_map(len, threads, |i| i + 1).unwrap();
            assert_eq!(out.len(), len);
            assert_eq!(
                stats.worker_count(),
                threads.min(len),
                "{len} items, {threads} threads"
            );
            assert_eq!(stats.total_items(), len as u64);
        }
    }

    #[test]
    fn serial_profile_reports_one_fully_busy_worker() {
        let stats = PoolStats::serial(100, 1.5);
        assert_eq!(stats.worker_count(), 1);
        assert_eq!(stats.workers[0].items, 100);
        assert_eq!(stats.workers[0].idle_ms(), 0.0);
        assert_eq!(stats.utilization(), 1.0);
        let (_, stats) = par_map(100, 1, |i| i).unwrap();
        assert_eq!(stats.worker_count(), 1);
        assert_eq!(stats.workers[0].items, 100);
    }

    #[test]
    fn pool_utilization_is_bounded_and_nan_free() {
        assert_eq!(PoolStats::default().utilization(), 0.0);
        let (_, stats) = par_map(10_000, 0, |i| i).unwrap();
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        assert!(!u.is_nan());
    }

    #[test]
    fn skewed_workload_is_stolen_not_tail_stalled() {
        // The expensive items all come first; idle workers keep claiming
        // the cheap ones behind them, and the output matches the serial
        // map.
        let expected: Vec<u64> = (0..2048usize).map(skewed).collect();
        let (got, stats) = par_map(2048, 4, skewed).unwrap();
        assert_eq!(got, expected);
        assert_eq!(stats.total_items(), 2048);
        assert_eq!(stats.worker_count(), 4);
    }

    #[test]
    fn panic_under_stealing_still_reports_lowest_index() {
        // Whichever worker runs the panicking items, the reported panic is
        // the lowest-indexed one, and a clean map right after is
        // unperturbed.
        for threads in [1usize, 4] {
            let err = par_map(20_000, threads, |i| {
                if i == 500 || i == 19_500 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.message, "boom at 500", "threads {threads}");
            let (out, stats) = par_map(20_000, threads, |i| i).unwrap();
            assert_eq!(out, (0..20_000).collect::<Vec<_>>());
            assert_eq!(stats.total_items(), 20_000);
        }
    }

    #[test]
    fn non_panicking_results_unchanged_by_isolation() {
        // The catch_unwind wrapper must not perturb ordering or values —
        // the determinism property the search pipelines rely on.
        let expected: Vec<u64> = (0..12_345u64).map(|i| i ^ 0xabcd).collect();
        let (got, _) = par_map(12_345, 0, |i| i as u64 ^ 0xabcd).unwrap();
        assert_eq!(got, expected);
    }
}
