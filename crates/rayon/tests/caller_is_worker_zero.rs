//! The calling thread is worker 0 of every parallel map: a map on `n`
//! threads runs on the caller plus at most `n − 1` spawned threads, the
//! caller always runs item 0, a panic in an item it runs surfaces through
//! the same lowest-index rule as any other, and the [`PoolStats`]
//! counters stay conserved with it in the pool.
//!
//! [`PoolStats`]: rayon::PoolStats

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use rayon::par_map;

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
        let (out, stats) = par_map(4_096, n, |i| {
            ids.lock().unwrap().insert(thread::current().id());
            spin(i)
        })
        .unwrap();
        assert_eq!(out, (0..4_096).map(spin).collect::<Vec<_>>());
        let ids = ids.into_inner().unwrap();
        assert!(ids.contains(&caller), "n={n}: the caller ran no item");
        assert!(ids.len() <= n, "n={n}: {} distinct threads", ids.len());
        assert_eq!(stats.worker_count(), n, "n={n}: PoolStats keeps n entries");
        assert!(stats.workers[0].items >= 1, "n={n}: worker 0 ran nothing");
    }
}

#[test]
fn a_panic_in_a_caller_chunk_is_the_lowest_index_err() {
    // Every item the caller runs panics; the caller runs item 0 first, so
    // the lowest-index panic is item 0, whatever the other workers did.
    let caller = thread::current().id();
    for n in [2usize, 4] {
        let err = par_map(8_192, n, |i| {
            if thread::current().id() == caller {
                panic!("caller item at {i}");
            }
            spin(i)
        })
        .unwrap_err();
        assert_eq!(err.message, "caller item at 0", "n={n}");
    }
    // The caller is unharmed: a clean map right after matches the serial one.
    let (out, _) = par_map(1_000, 0, spin).unwrap();
    assert_eq!(out, (0..1_000).map(spin).collect::<Vec<_>>());
}

#[test]
fn counters_are_conserved_with_the_caller_in_the_pool() {
    for n in [2usize, 3, 5] {
        let (out, stats) = par_map(10_000, n, spin).unwrap();
        assert_eq!(out.len(), 10_000);
        assert_eq!(stats.worker_count(), n);
        assert_eq!(stats.total_items(), 10_000);
        for w in &stats.workers {
            assert!(w.busy_ms >= 0.0 && w.idle_ms() >= 0.0);
        }
    }
}
