//! The calling thread is worker 0 of every parallel map: a map under
//! `with_max_threads(n)` runs on the caller plus at most `n − 1` spawned
//! threads, the caller always executes chunk 0, a panic in a chunk it runs
//! surfaces through the same lowest-index rule as any other, and the
//! [`PoolStats`] counters stay conserved with it in the pool.
//!
//! [`PoolStats`]: rayon::PoolStats

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use rayon::prelude::*;

/// A little work per item, so every worker gets a chance to run.
fn spin(i: usize) -> u64 {
    let mut x = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..2_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    x
}

#[test]
fn a_map_runs_on_the_caller_and_at_most_n_threads() {
    let caller = thread::current().id();
    for n in [2usize, 3, 4] {
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let (out, stats) = (0..4_096usize)
            .into_par_iter()
            .with_min_len(16)
            .with_max_threads(n)
            .map(|i| {
                ids.lock().unwrap().insert(thread::current().id());
                spin(i)
            })
            .try_collect_vec()
            .unwrap();
        assert_eq!(out, (0..4_096).map(spin).collect::<Vec<_>>());
        let ids = ids.into_inner().unwrap();
        assert!(ids.contains(&caller), "n={n}: the caller ran no chunk");
        assert!(ids.len() <= n, "n={n}: {} distinct threads", ids.len());
        assert_eq!(stats.worker_count(), n, "n={n}: PoolStats keeps n entries");
        assert!(stats.workers[0].chunks >= 1, "n={n}: worker 0 ran nothing");
    }
}

#[test]
fn a_panic_in_a_caller_chunk_is_the_lowest_index_err() {
    // Every item the caller runs panics; the caller runs chunk 0 first, so
    // the lowest-index panic is item 0, whatever the other workers did.
    let caller = thread::current().id();
    for n in [2usize, 4] {
        for batch in [1usize, rayon::STEAL_BATCH, 64] {
            let err = (0..8_192usize)
                .into_par_iter()
                .with_min_len(32)
                .with_max_threads(n)
                .with_steal_batch(batch)
                .map(|i| {
                    if thread::current().id() == caller {
                        panic!("caller chunk at {i}");
                    }
                    spin(i)
                })
                .try_collect_vec()
                .unwrap_err();
            assert_eq!(err.message, "caller chunk at 0", "n={n} batch={batch}");
        }
    }
    // The caller is unharmed: a clean map right after matches the serial one.
    let out: Vec<u64> = (0..1_000usize).into_par_iter().map(spin).collect();
    assert_eq!(out, (0..1_000).map(spin).collect::<Vec<_>>());
}

#[test]
fn counters_are_conserved_with_the_caller_in_the_pool() {
    for n in [2usize, 3, 5] {
        let (out, stats) = (0..10_000usize)
            .into_par_iter()
            .with_min_len(8)
            .with_max_threads(n)
            .map(spin)
            .try_collect_vec()
            .unwrap();
        assert_eq!(out.len(), 10_000);
        assert_eq!(stats.worker_count(), n);
        assert_eq!(stats.total_items(), 10_000);
        assert!(stats.total_steals() <= stats.total_chunks());
        for w in &stats.workers {
            assert!(w.steals <= w.chunks);
            assert!(w.busy_ms >= 0.0 && w.idle_ms() >= 0.0);
        }
    }
}
