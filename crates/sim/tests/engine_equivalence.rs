//! Observational equivalence of the event-driven skip-ahead simulation
//! paths against the retained per-cycle / closed-form `reference`
//! implementations.
//!
//! The engine rewrite is only admissible because nothing observable moved:
//! for every random shape, seed, balance policy, and DMA loss plan, the
//! stats, the cycle breakdowns (sum == cycles invariant included), the
//! drop counters, and the *bytes* of the exported Chrome/CSV traces must
//! be identical between the two paths — and when a path fails, both must
//! fail with the same error.

use proptest::prelude::*;
use stellar_sim::{
    dma, merger, simulate_os_matmul_traced, simulate_sparse_matmul_traced,
    simulate_ws_matmul_traced, sparse, systolic, BalancePolicy, DmaModel, FaultInjector, FaultPlan,
    FlattenedMerger, L2Cache, Merger, RetryPolicy, RowPartitionedMerger, SparseArrayParams, Tracer,
    Watchdog,
};
use stellar_tensor::ops::Fiber;
use stellar_tensor::{gen, CsrMatrix, DenseMatrix};

/// A small deterministic dense matrix (values in [-4, 4]).
fn small_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(rows, cols);
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    for r in 0..rows {
        for c in 0..cols {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            m.set(r, c, ((state >> 40) % 9) as f64 - 4.0);
        }
    }
    m
}

/// Both tracers must export identical bytes in every format.
fn assert_traces_identical(got: &Tracer, want: &Tracer) {
    assert_eq!(got.len(), want.len());
    assert_eq!(got.dropped(), want.dropped());
    assert_eq!(got.to_chrome_json(), want.to_chrome_json());
    assert_eq!(got.to_csv(), want.to_csv());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sparse lane model: skip-ahead vs per-cycle, across all balance
    /// policies and matrix shapes.
    #[test]
    fn sparse_event_driven_matches_per_cycle(
        rows in 1usize..=48,
        cols in 8usize..=128,
        lanes in 1usize..=8,
        startup in 0u64..=4,
        seed in 0u64..500,
        policy in proptest::sample::select(vec![
            BalancePolicy::None,
            BalancePolicy::AdjacentRows,
            BalancePolicy::Global,
        ]),
    ) {
        let b = if seed % 3 == 0 {
            gen::uniform(rows, cols, 0.15, seed)
        } else {
            gen::imbalanced(rows, cols, (rows / 8).max(1), cols / 2, 4, seed)
        };
        let params = SparseArrayParams { lanes, row_startup_cycles: startup, balance: policy };
        let wd = Watchdog::default_budget();
        let mut tr_a = Tracer::enabled();
        let mut tr_b = Tracer::enabled();
        let got = simulate_sparse_matmul_traced(&b, &params, wd, &mut tr_a).map(|(r, _)| r);
        let want = sparse::reference::simulate_sparse_matmul_traced(&b, &params, wd, &mut tr_b);
        prop_assert_eq!(&got, &want);
        if let Ok(r) = &got {
            r.stats.breakdown.debug_assert_accounts_for(r.stats.cycles, "sparse equivalence");
        }
        assert_traces_identical(&tr_a, &tr_b);
    }

    /// Sparse: a tight watchdog must expire identically on both paths
    /// (same error variant, budget, and detail bytes).
    #[test]
    fn sparse_watchdog_expires_identically(
        rows in 4usize..=32,
        budget in 1u64..200,
        seed in 0u64..100,
    ) {
        let b = gen::uniform(rows, 64, 0.2, seed);
        let params = SparseArrayParams {
            lanes: 4,
            row_startup_cycles: 1,
            balance: BalancePolicy::Global,
        };
        let wd = Watchdog::with_budget(budget);
        let got = simulate_sparse_matmul_traced(&b, &params, wd, &mut Tracer::disabled())
            .map(|(r, _)| r);
        let want = sparse::reference::simulate_sparse_matmul_traced(
            &b, &params, wd, &mut Tracer::disabled());
        prop_assert_eq!(got, want);
    }

    /// Weight-stationary systolic: flat double-buffered 4-wide lanes vs
    /// per-PE steps over per-step nested-Vec allocation, bit for bit.
    #[test]
    fn ws_flat_buffers_match_reference(
        m in 1usize..=8,
        k in 1usize..=8,
        n in 1usize..=8,
        seed in 0u64..300,
    ) {
        let a = small_matrix(m, k, seed);
        let b = small_matrix(k, n, seed + 7);
        let wd = Watchdog::default_budget();
        let mut tr_a = Tracer::enabled();
        let mut tr_b = Tracer::enabled();
        let got = simulate_ws_matmul_traced(&a, &b, wd, &mut tr_a);
        let want = systolic::reference::simulate_ws_matmul_traced(&a, &b, wd, &mut tr_b);
        prop_assert_eq!(got, want);
        assert_traces_identical(&tr_a, &tr_b);
    }

    /// Output-stationary systolic: same equivalence as the WS array.
    #[test]
    fn os_flat_buffers_match_reference(
        m in 1usize..=8,
        k in 1usize..=8,
        n in 1usize..=8,
        seed in 0u64..300,
    ) {
        let a = small_matrix(m, k, seed);
        let b = small_matrix(k, n, seed + 13);
        let wd = Watchdog::default_budget();
        let mut tr_a = Tracer::enabled();
        let mut tr_b = Tracer::enabled();
        let got = simulate_os_matmul_traced(&a, &b, wd, &mut tr_a);
        let want = systolic::reference::simulate_os_matmul_traced(&a, &b, wd, &mut tr_b);
        prop_assert_eq!(got, want);
        assert_traces_identical(&tr_a, &tr_b);
    }

    /// Mergers: event-queue critical-lane selection and engine-advance
    /// attribution vs the closed forms, including critical-lane ties.
    #[test]
    fn mergers_match_reference(
        num_rows in 0usize..=48,
        lanes in 1usize..=32,
        switch in 0u64..=4,
        width in 1usize..=16,
        startup in 0u64..=8,
        seed in 0u64..200,
    ) {
        // Deterministic multi-fiber rows with deliberate repeats (tie
        // fodder), overlapping coordinates (real k-way merges, not just
        // concatenation), and sign-alternating values so some sums cancel
        // to exactly 0.0 — the engine path's flat row-length counter must
        // agree with the reference's materializing merge on all of it.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let rows: Vec<Vec<Fiber>> = (0..num_rows)
            .map(|_| {
                let num_fibers = ((next() >> 33) % 4) as usize;
                (0..num_fibers)
                    .map(|fi| {
                        let mask = (next() >> 30) & 0xFF_FFFF;
                        let coords: Vec<usize> =
                            (0..24).filter(|c| (mask >> c) & 1 == 1).collect();
                        let values: Vec<f64> = coords
                            .iter()
                            .map(|&c| {
                                let v = (c % 3 + 1) as f64 * 0.5;
                                if fi % 2 == 1 {
                                    -v
                                } else {
                                    v
                                }
                            })
                            .collect();
                        Fiber::new(coords, values)
                    })
                    .filter(|f| !f.is_empty())
                    .collect()
            })
            .collect();
        let wd = Watchdog::default_budget();
        let rp = RowPartitionedMerger { lanes, row_switch_cycles: switch };
        prop_assert_eq!(
            rp.simulate_budgeted(&rows, &wd),
            merger::reference::simulate_row_partitioned(&rp, &rows, &wd)
        );
        let fl = FlattenedMerger { width, startup_cycles: startup };
        prop_assert_eq!(
            fl.simulate_budgeted(&rows, &wd),
            merger::reference::simulate_flattened(&fl, &rows, &wd)
        );
    }

    /// Reliable DMA: engine-advance attribution vs the closed forms, with
    /// the injector's RNG drawn in identical request order.
    #[test]
    fn reliable_dma_matches_reference(
        words in 0u64..10_000,
        reqs in 0u64..400,
        words_each in 1u64..16,
        slots in 1usize..=16,
        seed in 0u64..200,
        drop in 0u8..=3,
    ) {
        let plan = FaultPlan { seed, dma_drop_per_request: f64::from(drop) * 0.1 };
        let dma_model = DmaModel::with_slots(slots);
        let wd = Watchdog::default_budget();
        let policy = RetryPolicy::exponential();
        let mut inj_a = FaultInjector::new(plan);
        let mut inj_b = FaultInjector::new(plan);
        prop_assert_eq!(
            dma_model.reliable_contiguous_cycles(words, &policy, &mut inj_a, &wd),
            dma::reference::reliable_contiguous_cycles(&dma_model, words, &policy, &mut inj_b, &wd)
        );
        prop_assert_eq!(
            dma_model.reliable_scattered_cycles(reqs, words_each, &policy, &mut inj_a, &wd),
            dma::reference::reliable_scattered_cycles(
                &dma_model, reqs, words_each, &policy, &mut inj_b, &wd)
        );
        prop_assert_eq!(inj_a.dropped, inj_b.dropped);
    }

    /// L2 cache: the flat tag store vs the HashMap-of-Vec reference, per
    /// access (latency and hit/miss) and in aggregate.
    #[test]
    fn cache_flat_store_matches_reference(
        addrs in proptest::collection::vec(0u64..4096, 0..400),
        ways in 1usize..=8,
    ) {
        let dram = stellar_sim::DramParams::default();
        let mut flat = L2Cache::new(256, ways, 4, dram);
        let mut hash = stellar_sim::cache::reference::L2Cache::new(256, ways, 4, dram);
        for (n, &a) in addrs.iter().enumerate() {
            prop_assert_eq!(flat.access(a), hash.access(a), "access #{}", n);
        }
        prop_assert_eq!(flat.hits(), hash.hits());
        prop_assert_eq!(flat.misses(), hash.misses());
        prop_assert_eq!(flat.breakdown(), hash.breakdown());
    }
}

/// The e04-scale workloads (the sweep the speedup criterion is measured
/// on) run byte-identically through both paths under every policy.
#[test]
fn e04_scale_workloads_are_byte_identical() {
    let workloads = [
        gen::uniform(64, 256, 0.1, 1),
        gen::imbalanced(64, 512, 4, 96, 8, 2),
        gen::imbalanced(64, 512, 2, 256, 4, 3),
        gen::power_law(64, 512, 16.0, 1.7, 4),
    ];
    for (w, b) in workloads.iter().enumerate() {
        for policy in [
            BalancePolicy::None,
            BalancePolicy::AdjacentRows,
            BalancePolicy::Global,
        ] {
            let params = SparseArrayParams {
                lanes: 8,
                row_startup_cycles: 1,
                balance: policy,
            };
            let wd = Watchdog::default_budget();
            let mut tr_a = Tracer::enabled();
            let mut tr_b = Tracer::enabled();
            let got = simulate_sparse_matmul_traced(b, &params, wd, &mut tr_a).map(|(r, _)| r);
            let want = sparse::reference::simulate_sparse_matmul_traced(b, &params, wd, &mut tr_b);
            assert_eq!(got, want, "workload {w}, {policy:?}");
            assert_traces_identical(&tr_a, &tr_b);
        }
    }
}

/// Zero-shape edge cases go through the same early exits on both paths.
#[test]
fn degenerate_shapes_are_identical() {
    let empty = CsrMatrix::from_dense(&DenseMatrix::zeros(4, 4));
    let params = SparseArrayParams {
        lanes: 4,
        row_startup_cycles: 1,
        balance: BalancePolicy::Global,
    };
    let wd = Watchdog::default_budget();
    assert_eq!(
        simulate_sparse_matmul_traced(&empty, &params, wd, &mut Tracer::disabled(),)
            .map(|(r, _)| r),
        sparse::reference::simulate_sparse_matmul_traced(
            &empty,
            &params,
            wd,
            &mut Tracer::disabled(),
        ),
    );
    // Mismatched systolic shapes: identical InvalidConfig bytes.
    let a = small_matrix(3, 4, 1);
    let b = small_matrix(5, 2, 2);
    assert_eq!(
        simulate_ws_matmul_traced(&a, &b, wd, &mut Tracer::disabled()),
        systolic::reference::simulate_ws_matmul_traced(&a, &b, wd, &mut Tracer::disabled()),
    );
}
