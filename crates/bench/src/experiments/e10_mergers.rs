//! E10 — Figure 18: merged elements per cycle for row-partitioned
//! (GAMMA-like, 32 lanes) and flattened (SpArch-like, 16-wide) mergers,
//! merging partial matrices in SpArch's execution order.

use stellar_accels::compare_on_suite_matrix;
use crate::{table, Report};
use stellar_workloads::suite;

pub fn run() {
    let mut report = Report::new(
        "e10",
        "Figure 18 — merger throughput on SuiteSparse (SpArch execution order)",
    );

    let mut rows = Vec::new();
    let mut at_least_80 = 0usize;
    let mut wins = 0usize;
    // Merge tasks group partial matrices from 16 consecutive condensed
    // columns, as in SpArch's proposed order.
    let mats = suite();
    for (n, m) in mats.iter().enumerate() {
        let c = compare_on_suite_matrix(m, 16, 200 + n as u64).expect("merger comparison");
        if c.relative() >= 0.8 {
            at_least_80 += 1;
        }
        if c.row_partitioned_epc > c.flattened_epc {
            wins += 1;
        }
        let metrics = report.metrics();
        metrics.gauge_set(
            "epc",
            &[("merger", "row-partitioned"), ("matrix", m.name)],
            c.row_partitioned_epc,
        );
        metrics.gauge_set(
            "epc",
            &[("merger", "flattened"), ("matrix", m.name)],
            c.flattened_epc,
        );
        rows.push(vec![
            m.name.to_string(),
            format!("{:.2}", c.row_partitioned_epc),
            format!("{:.2}", c.flattened_epc),
            format!("{:.2}", c.relative()),
        ]);
    }
    table(
        &[
            "matrix",
            "row-partitioned (tp 32)",
            "flattened (tp 16)",
            "relative",
        ],
        &rows,
    );
    println!(
        "\nrow-partitioned merger achieves >=80% of flattened performance on {}/{} matrices",
        at_least_80,
        mats.len()
    );
    println!("row-partitioned outright wins on {wins} matrices");
    println!("(paper: >=80% on over a third of the matrices; wins on four of them —");
    println!(" e.g. poisson3Da and cop20k_A reward the cheaper merger, §VI-D)");

    let m = report.metrics();
    m.counter_add("matrices_at_80pct", &[], at_least_80 as u64);
    m.counter_add("row_partitioned_wins", &[], wins as u64);
    report.finish("merger throughput compared across the suite");
}
