//! E8 — Figure 15: PE utilization of SCNN on pruned AlexNet, hand-written
//! vs Stellar-generated.

use stellar_accels::{run_alexnet, ScnnConfig};
use crate::{pct, table, Report};

pub fn run() {
    let mut report = Report::new("e08", "Figure 15 — SCNN PE utilization on pruned AlexNet");

    let hand = run_alexnet(&ScnnConfig::handwritten());
    let stellar = run_alexnet(&ScnnConfig::stellar());

    let mut rows = Vec::new();
    for (h, s) in hand.iter().zip(&stellar) {
        let perf_ratio = h.cycles as f64 / s.cycles as f64;
        rows.push(vec![
            h.name.to_string(),
            pct(h.utilization),
            pct(s.utilization),
            format!("{} cyc", h.cycles),
            format!("{} cyc", s.cycles),
            pct(perf_ratio),
        ]);
    }
    table(
        &[
            "layer",
            "hand util",
            "stellar util",
            "hand cycles",
            "stellar cycles",
            "stellar perf",
        ],
        &rows,
    );

    let min = hand
        .iter()
        .zip(&stellar)
        .map(|(h, s)| h.cycles as f64 / s.cycles as f64)
        .fold(f64::INFINITY, f64::min);
    let max = hand
        .iter()
        .zip(&stellar)
        .map(|(h, s)| h.cycles as f64 / s.cycles as f64)
        .fold(0.0, f64::max);
    println!(
        "\nStellar-generated SCNN reaches {}..{} of handwritten performance per layer",
        pct(min),
        pct(max)
    );
    println!("(paper: \"83%-94% of the hand-designed accelerator's reported performance\")");

    let m = report.metrics();
    for (h, s) in hand.iter().zip(&stellar) {
        m.counter_add("cycles", &[("design", "hand"), ("layer", h.name)], h.cycles);
        m.counter_add(
            "cycles",
            &[("design", "stellar"), ("layer", s.name)],
            s.cycles,
        );
    }
    m.gauge_set("perf_ratio_min", &[], min);
    m.gauge_set("perf_ratio_max", &[], max);
    report.finish("SCNN per-layer utilization compared");
}
