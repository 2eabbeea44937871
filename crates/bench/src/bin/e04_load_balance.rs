//! E4 — Figures 6 and 10: load balancing on imbalanced sparse workloads.
//!
//! Compares the three balancing policies on progressively more imbalanced
//! matrices, and shows the Figure 10 hardware trade-off: per-PE balancing
//! prunes more connections (more regfile ports) than row-group balancing.

use rayon::prelude::*;
use stellar_bench::{pct, table, Report};
use stellar_core::prelude::*;
use stellar_core::IndexId;
use stellar_sim::{
    simulate_sparse_matmul_traced, BalancePolicy, FaultInjector, FaultPlan, SparseArrayParams,
    Tracer, Watchdog, DEFAULT_TRACE_CAPACITY,
};
use stellar_tensor::gen;

fn main() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e04",
        "Figures 6/10 — load balancing: utilization and hardware cost",
    );

    // Performance side (Figure 6): three workloads, three policies. Every
    // (workload, policy) point is an independent simulation, so the grid
    // runs in parallel; results and traces merge back in grid order, so
    // the report (and the Chrome trace) is identical to a serial sweep.
    let workloads = [
        ("balanced", gen::uniform(64, 256, 0.1, 1)),
        ("mildly imbalanced", gen::imbalanced(64, 512, 4, 96, 8, 2)),
        (
            "severely imbalanced",
            gen::imbalanced(64, 512, 2, 256, 4, 3),
        ),
        ("power-law", gen::power_law(64, 512, 16.0, 1.7, 4)),
    ];
    let policies = [
        ("none", BalancePolicy::None),
        ("adjacent", BalancePolicy::AdjacentRows),
        ("global", BalancePolicy::Global),
    ];
    let tracing = report.tracer().is_enabled();
    let grid: Vec<_> = (0..workloads.len() * policies.len())
        .into_par_iter()
        .map(|point| {
            let (w, p) = (point / policies.len(), point % policies.len());
            let mut tracer = if tracing {
                Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
            } else {
                Tracer::disabled()
            };
            let r = simulate_sparse_matmul_traced(
                &workloads[w].1,
                &SparseArrayParams {
                    lanes: 8,
                    row_startup_cycles: 1,
                    balance: policies[p].1,
                },
                &mut FaultInjector::new(FaultPlan::none()),
                Watchdog::default_budget(),
                &mut tracer,
            )
            .expect("sparse simulation")
            .0;
            (r, tracer)
        })
        .collect();
    let mut rows = Vec::new();
    for (w, (name, _)) in workloads.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for (p, (pname, _)) in policies.iter().enumerate() {
            let (r, tracer) = &grid[w * policies.len() + p];
            report.tracer().absorb(tracer);
            report.breakdown(&format!("{name}/{pname}"), &r.stats.breakdown);
            let m = report.metrics();
            m.counter_add(
                "cycles",
                &[("workload", name), ("policy", pname)],
                r.stats.cycles,
            );
            m.gauge_set(
                "utilization",
                &[("workload", name), ("policy", pname)],
                r.utilization(),
            );
            row.push(format!("{} ({})", r.stats.cycles, pct(r.utilization())));
        }
        rows.push(row);
    }
    table(
        &[
            "workload",
            "no balancing",
            "adjacent rows",
            "fully flexible",
        ],
        &rows,
    );

    // Hardware side (Figure 10): row-group shifts preserve intra-row
    // connections; per-PE shifts must replace them with regfile ports.
    let i = IndexId::nth(0);
    let build = |g: Granularity| -> Result<(usize, usize), CompileError> {
        let spec = AcceleratorSpec::new("lb", Functionality::matmul(4, 4, 4))
            .with_bounds(Bounds::from_extents(&[4, 4, 4]))
            .with_transform(SpaceTimeTransform::input_stationary())
            .with_shift(ShiftSpec::new(
                Region::all(3).restrict(i, 2, 4),
                vec![-2, 0, 1],
                g,
            ));
        let d = compile(&spec)?;
        let arr = &d.spatial_arrays[0];
        Ok((arr.num_moving_conns(), arr.num_io_ports()))
    };
    let (rc, rp) = build(Granularity::RowGroup)?;
    let (pc, pp) = build(Granularity::PerPe)?;
    println!("\nhardware cost of flexibility (Figure 10):");
    println!("  row-group shift : {rc} moving wires, {rp} regfile ports (conns preserved)");
    println!("  per-PE shift    : {pc} moving wires, {pp} regfile ports (conns pruned)");
    let m = report.metrics();
    m.counter_add("moving_conns", &[("shift", "row-group")], rc as u64);
    m.counter_add("regfile_ports", &[("shift", "row-group")], rp as u64);
    m.counter_add("moving_conns", &[("shift", "per-pe")], pc as u64);
    m.counter_add("regfile_ports", &[("shift", "per-pe")], pp as u64);
    report.finish("4 workloads x 3 balancing policies simulated");
    Ok(())
}
