//! Property-based tests for the work-stealing pool's telemetry
//! invariants: for arbitrary source lengths, worker counts, chunk-size
//! hints, and steal-batch sizes, the [`PoolStats`] counters must be
//! conserved — items processed sum to exactly the source length, every
//! steal is also an executed chunk, and a panicking item neither escapes
//! the `catch_unwind` isolation nor leaves residue that corrupts the
//! counters of a subsequent clean run.
//!
//! [`PoolStats`]: rayon::PoolStats

use proptest::prelude::*;
use rayon::prelude::*;

/// Deliberately skewed per-item cost: every eleventh item spins ~100×
/// longer than the rest, so its owner stays pinned on it while thieves
/// drain the remainder of that deque — the schedule the conservation
/// invariants have to survive.
fn busy_work(i: usize) -> u64 {
    let spins = if i.is_multiple_of(11) { 2_000 } else { 16 };
    let mut x = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..spins {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counter conservation: items across workers sum to the source
    /// length, chunks partition the items (at least one per non-empty
    /// run, never more than one per item), and steals never exceed
    /// chunks — per worker and pool-wide — because a steal is an
    /// *executed* chunk that was dealt to another worker's deque.
    #[test]
    fn pool_counters_are_conserved(
        len in 0usize..400,
        threads in 1usize..9,
        min_len in 1usize..24,
        batch in 1usize..9,
    ) {
        let (out, stats) = (0..len)
            .into_par_iter()
            .with_min_len(min_len)
            .with_max_threads(threads)
            .with_steal_batch(batch)
            .map(busy_work)
            .try_collect_vec()
            .expect("clean workload must not panic");
        let expect: Vec<u64> = (0..len).map(busy_work).collect();
        prop_assert_eq!(out, expect);
        prop_assert_eq!(stats.total_items(), len as u64);
        prop_assert!(stats.worker_count() >= 1);
        prop_assert!(stats.worker_count() <= threads);
        prop_assert!(stats.total_steals() <= stats.total_chunks());
        for (w, ws) in stats.workers.iter().enumerate() {
            prop_assert!(ws.items <= len as u64);
            prop_assert!(
                ws.steals <= ws.chunks,
                "worker {} reported {} steals over {} chunks",
                w, ws.steals, ws.chunks
            );
        }
        if len > 0 {
            prop_assert!(stats.total_chunks() >= 1);
            prop_assert!(stats.total_chunks() <= len as u64);
        } else {
            prop_assert_eq!(stats.total_chunks(), 0);
        }
    }

    /// Panic isolation: one panicking item surfaces as `Err(Panicked)`
    /// carrying that item's message, and a clean run issued immediately
    /// afterwards still conserves all of its counters — the abort path
    /// leaves no residue in thread-local or global state.
    #[test]
    fn panic_isolation_preserves_counter_conservation(
        len in 1usize..300,
        threads in 1usize..9,
        min_len in 1usize..24,
        batch in 1usize..9,
        panic_seed in 0usize..300,
    ) {
        let panic_at = panic_seed % len;
        let err = (0..len)
            .into_par_iter()
            .with_min_len(min_len)
            .with_max_threads(threads)
            .with_steal_batch(batch)
            .map(|i| {
                busy_work(i);
                if i == panic_at {
                    panic!("boom at {i}");
                }
                i
            })
            .try_collect_vec()
            .expect_err("the panicking item must surface as an error");
        prop_assert!(
            err.message.contains(&format!("boom at {panic_at}")),
            "unexpected panic message: {}", err.message
        );
        let (out, stats) = (0..len)
            .into_par_iter()
            .with_min_len(min_len)
            .with_max_threads(threads)
            .with_steal_batch(batch)
            .map(busy_work)
            .try_collect_vec()
            .expect("clean run after an isolated panic");
        prop_assert_eq!(out.len(), len);
        prop_assert_eq!(stats.total_items(), len as u64);
        prop_assert!(stats.total_steals() <= stats.total_chunks());
    }
}
