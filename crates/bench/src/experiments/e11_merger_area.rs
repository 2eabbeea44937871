//! E11 — §IV-F and §VI-D: merger area trade-offs.
//!
//! SpArch's flattened/hierarchical mergers (128 64-bit comparators,
//! throughput 16) against GAMMA/OuterSPACE-style row-partitioned mergers
//! (throughput 32) — the paper reports a 13× area gap.

use stellar_area::{
    flattened_merger_area_um2, merger_area_ratio, row_partitioned_merger_area_um2, Technology,
};
use crate::{table, Report};

pub fn run() {
    let mut report = Report::new(
        "e11",
        "§IV-F/§VI-D — merger area: flattened vs row-partitioned",
    );

    let tech = Technology::asap7();
    let mut rows = Vec::new();
    for (name, area, tp) in [
        (
            "flattened (SpArch-like)",
            flattened_merger_area_um2(16, 64, &tech),
            16usize,
        ),
        (
            "row-partitioned (GAMMA-like)",
            row_partitioned_merger_area_um2(32, 64, &tech),
            32,
        ),
    ] {
        report
            .metrics()
            .gauge_set("area_um2", &[("merger", name)], area);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", area),
            tp.to_string(),
            format!("{:.0}", area / tp as f64),
        ]);
    }
    table(
        &["merger", "area um^2", "peak elems/cyc", "um^2 per elem/cyc"],
        &rows,
    );

    println!(
        "\nflattened / row-partitioned area ratio: {:.1}x  (paper: 13x)",
        merger_area_ratio(&tech)
    );
    println!("\nThe cheaper merger also has *higher* peak throughput (32 vs 16) — it");
    println!("just cannot sustain it under row-length imbalance (see E10). Architects");
    println!("with area constraints and poisson3Da/cop20k_A-like workloads should");
    println!("prefer the row-partitioned design (§VI-D).");

    // Width sweep: how the flattened merger's area explodes.
    println!("\nflattened merger width sweep:");
    let mut sweep = Vec::new();
    for w in [4, 8, 16, 32] {
        sweep.push(vec![
            w.to_string(),
            format!("{:.0}", flattened_merger_area_um2(w, 64, &tech)),
        ]);
    }
    table(&["width", "area um^2"], &sweep);

    report
        .metrics()
        .gauge_set("area_ratio", &[], merger_area_ratio(&tech));
    report.finish("merger area trade-off quantified");
}
