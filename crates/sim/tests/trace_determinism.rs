//! Integration tests for the observability layer: cycle-attributed traces
//! are deterministic (same seed + same fault plan ⇒ byte-identical trace
//! JSON and identical breakdowns), and every simulation entry point's
//! `CycleBreakdown` accounts for exactly its reported cycles — in release
//! builds too, where the library's `debug_assert`s are compiled out.

use stellar_sim::{
    layer_utilization, rows_of_partials, simulate_os_matmul, simulate_sparse_matmul,
    simulate_sparse_matmul_traced, simulate_ws_matmul, simulate_ws_matmul_traced, BalancePolicy,
    CycleBreakdown, DmaModel, DramParams, FaultInjector, FaultPlan, FlattenedMerger, GemmParams,
    L2Cache, Merger, RetryPolicy, RowPartitionedMerger, SparseArrayParams, Tracer, Watchdog,
    DEFAULT_TRACE_CAPACITY,
};
use stellar_tensor::gen;
use stellar_tensor::ops::spgemm_outer_partials;
use stellar_tensor::CscMatrix;

fn sparse_params(balance: BalancePolicy) -> SparseArrayParams {
    SparseArrayParams {
        lanes: 8,
        row_startup_cycles: 1,
        balance,
    }
}

/// Runs the weight-stationary simulation once under a fixed fault plan
/// with tracing on, returning the trace exports and the breakdown.
fn traced_ws_run(seed: u64) -> (String, String, CycleBreakdown) {
    let a = gen::dense(16, 8, 3);
    let b = gen::dense(8, 12, 4);
    let mut tracer = Tracer::with_capacity(DEFAULT_TRACE_CAPACITY);
    let r = simulate_ws_matmul_traced(
        &a,
        &b,
        &mut FaultInjector::new(FaultPlan::transient(seed, 1e-3)),
        Watchdog::default_budget(),
        &mut tracer,
    )
    .expect("traced ws sim");
    (tracer.to_chrome_json(), tracer.to_csv(), r.stats.breakdown)
}

#[test]
fn steal_heavy_traced_sweep_is_byte_identical_across_worker_counts() {
    // A pathologically skewed traced sweep through the work-stealing
    // pool: the first grid point is a large simulation and the tail is
    // sixteen tiny ones, each item a full traced run with its own fault
    // seed. The worker that draws the big point stays pinned on it while
    // the others finish instantly and steal the rest of its deque — and
    // the merged trace exports must still be byte-identical to the
    // sequential sweep at every worker count, because collection is
    // order-preserving and each point's tracer/injector state is local.
    // `with_max_threads` spawns the requested workers even past the
    // machine parallelism, so this holds on single-core runners too.
    use rayon::prelude::*;

    let points: Vec<(u64, (usize, usize, usize))> = std::iter::once((7u64, (24, 12, 16)))
        .chain((0..16u64).map(|i| (100 + i, (5, 3, 4))))
        .collect();
    let run_point = |&(seed, (m, k, n)): &(u64, (usize, usize, usize))| {
        let a = gen::dense(m, k, seed);
        let b = gen::dense(k, n, seed + 1);
        let mut tracer = Tracer::with_capacity(DEFAULT_TRACE_CAPACITY);
        let r = simulate_ws_matmul_traced(
            &a,
            &b,
            &mut FaultInjector::new(FaultPlan::transient(seed, 1e-3)),
            Watchdog::default_budget(),
            &mut tracer,
        )
        .expect("traced sweep point");
        format!(
            "{}\n{}\n{:?}\n",
            tracer.to_chrome_json(),
            tracer.to_csv(),
            r.stats.breakdown
        )
    };
    let sequential: String = points.iter().map(run_point).collect();
    for threads in [1usize, 2, 4, 8] {
        let merged = points
            .par_iter()
            .with_min_len(1)
            .with_max_threads(threads)
            .map(run_point)
            .try_collect_vec()
            .expect("traced sweep must not panic")
            .0
            .concat();
        assert_eq!(
            merged, sequential,
            "threads={threads}: traced sweep diverged from the sequential order"
        );
    }
}

#[test]
fn same_seed_and_plan_give_byte_identical_traces() {
    let (json1, csv1, b1) = traced_ws_run(42);
    let (json2, csv2, b2) = traced_ws_run(42);
    assert_eq!(json1, json2, "chrome trace must be byte-identical");
    assert_eq!(csv1, csv2, "csv export must be byte-identical");
    assert_eq!(b1, b2, "cycle breakdown must be identical");
    // A different fault seed is allowed to change the attribution, but
    // never the accounting invariant (checked below); the trace itself
    // must still be internally consistent JSON.
    assert!(json1.starts_with("{\"displayTimeUnit\""));
    assert!(json1.contains("\"traceEvents\":["));
}

#[test]
fn sparse_trace_is_deterministic_under_a_stuck_lane() {
    let b = gen::power_law(32, 32, 6.0, 1.8, 9);
    let run = || {
        let mut plan = FaultPlan::none();
        plan.stuck_lane = Some(2);
        let mut tracer = Tracer::with_capacity(DEFAULT_TRACE_CAPACITY);
        let r = simulate_sparse_matmul_traced(
            &b,
            &sparse_params(BalancePolicy::Global),
            &mut FaultInjector::new(plan),
            Watchdog::default_budget(),
            &mut tracer,
        )
        .expect("stuck-lane sparse sim under global balancing")
        .0;
        (tracer.to_chrome_json(), r.stats.breakdown, r.stats.cycles)
    };
    let (j1, b1, c1) = run();
    let (j2, b2, c2) = run();
    assert_eq!(j1, j2);
    assert_eq!(b1, b2);
    assert_eq!(c1, c2);
    assert_eq!(b1.total(), c1, "breakdown must account for every cycle");
}

#[test]
fn systolic_breakdowns_sum_to_cycles() {
    let a = gen::dense(12, 7, 1);
    let b = gen::dense(7, 9, 2);
    let ws = simulate_ws_matmul(&a, &b).expect("ws sim");
    assert_eq!(ws.stats.breakdown.total(), ws.stats.cycles);
    let os = simulate_os_matmul(&a, &b).expect("os sim");
    assert_eq!(os.stats.breakdown.total(), os.stats.cycles);
}

#[test]
fn sparse_breakdowns_sum_to_cycles_under_every_policy() {
    let b = gen::imbalanced(32, 256, 4, 48, 8, 7);
    for policy in [
        BalancePolicy::None,
        BalancePolicy::AdjacentRows,
        BalancePolicy::Global,
    ] {
        let r = simulate_sparse_matmul(&b, &sparse_params(policy)).expect("sparse sim");
        assert_eq!(
            r.stats.breakdown.total(),
            r.stats.cycles,
            "policy {policy:?}"
        );
    }
}

#[test]
fn gemm_breakdown_sums_to_cycles() {
    let s = layer_utilization(56, 64, 256, &GemmParams::stellar_gemmini()).expect("gemm model");
    assert_eq!(s.breakdown.total(), s.cycles);
}

#[test]
fn dma_report_breakdowns_sum_to_cycles_with_and_without_faults() {
    let dma = DmaModel::with_slots(16);
    let wd = Watchdog::default_budget();
    for drop in [0.0, 0.05] {
        let mut plan = FaultPlan::none();
        plan.seed = 99;
        plan.dma_drop_per_request = drop;
        let mut inj = FaultInjector::new(plan);
        let rep = dma
            .reliable_contiguous_cycles(4096, &RetryPolicy::exponential(), &mut inj, &wd)
            .expect("contiguous transfer");
        assert_eq!(rep.breakdown.total(), rep.cycles, "contiguous drop={drop}");
        let mut inj = FaultInjector::new(plan);
        let rep = dma
            .reliable_scattered_cycles(64, 8, &RetryPolicy::exponential(), &mut inj, &wd)
            .expect("scattered transfer");
        assert_eq!(rep.breakdown.total(), rep.cycles, "scattered drop={drop}");
    }
}

#[test]
fn merger_breakdowns_sum_to_cycles() {
    let a = gen::uniform(48, 32, 0.2, 11);
    let b = gen::uniform(32, 48, 0.2, 12);
    let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &b);
    let rows = rows_of_partials(48, &partials);
    let rp = RowPartitionedMerger::paper_config()
        .simulate(&rows)
        .expect("row-partitioned merge");
    assert_eq!(rp.breakdown.total(), rp.cycles);
    let fl = FlattenedMerger::paper_config()
        .simulate(&rows)
        .expect("flattened merge");
    assert_eq!(fl.breakdown.total(), fl.cycles);
}

#[test]
fn cache_breakdown_accounts_for_all_access_cycles() {
    let mut cache = L2Cache::new(1024, 4, 8, DramParams::default());
    let cycles = cache.access_all((0..4096u64).map(|n| (n * 13) % 2048));
    assert_eq!(cache.breakdown().total(), cycles);
}

#[test]
fn disabled_tracer_collects_nothing_but_breakdowns_still_flow() {
    let a = gen::dense(8, 8, 5);
    let b = gen::dense(8, 8, 6);
    let mut tracer = Tracer::disabled();
    let r = simulate_ws_matmul_traced(
        &a,
        &b,
        &mut FaultInjector::new(FaultPlan::none()),
        Watchdog::default_budget(),
        &mut tracer,
    )
    .expect("ws sim with disabled tracer");
    assert!(tracer.is_empty(), "disabled tracer must record no spans");
    assert_eq!(r.stats.breakdown.total(), r.stats.cycles);
}
