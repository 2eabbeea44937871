//! Property-based tests for the pool's results and telemetry: for
//! arbitrary source lengths and thread counts, [`par_map`] returns the
//! serial map, the [`PoolStats`] counters are conserved (items processed
//! sum to exactly the source length on `min(threads, len)` workers), and
//! a panicking item neither escapes the `catch_unwind` isolation nor
//! leaves residue that corrupts a subsequent clean run.
//!
//! [`PoolStats`]: rayon::PoolStats

use proptest::prelude::*;
use rayon::par_map;

/// Deliberately skewed per-item cost: every eleventh item spins ~100×
/// longer than the rest, so its worker stays pinned on it while the
/// others claim the items behind it.
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

    /// The result is the serial map, and the items across the
    /// `min(threads, len)` workers (at least one) sum to the source length.
    #[test]
    fn pool_counters_are_conserved(len in 0usize..400, threads in 1usize..9) {
        let (out, stats) = par_map(len, threads, busy_work)
            .expect("clean workload must not panic");
        let expect: Vec<u64> = (0..len).map(busy_work).collect();
        prop_assert_eq!(out, expect);
        prop_assert_eq!(stats.total_items(), len as u64);
        prop_assert_eq!(stats.worker_count(), threads.min(len).max(1));
        for ws in &stats.workers {
            prop_assert!(ws.items <= len as u64);
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
        panic_seed in 0usize..300,
    ) {
        let panic_at = panic_seed % len;
        let err = par_map(len, threads, |i| {
            busy_work(i);
            if i == panic_at {
                panic!("boom at {i}");
            }
            i
        })
        .expect_err("the panicking item must surface as an error");
        prop_assert_eq!(err.message, format!("boom at {panic_at}"));
        let (out, stats) = par_map(len, threads, busy_work)
            .expect("clean run after an isolated panic");
        prop_assert_eq!(out.len(), len);
        prop_assert_eq!(stats.total_items(), len as u64);
    }
}
