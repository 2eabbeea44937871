//! E5 — Figure 16a: PE utilization of the hand-written and
//! Stellar-generated Gemmini accelerators on end-to-end ResNet-50.

use stellar_accels::run_resnet50;
use crate::{pct, table, Report};
use stellar_sim::{CycleBreakdown, GemmParams};

pub fn run() {
    let mut report = Report::new(
        "e05",
        "Figure 16a — Gemmini utilization on ResNet-50 (16x16 WS @ 500 MHz)",
    );

    let hand = run_resnet50(&GemmParams::handwritten_gemmini()).expect("resnet50 run");
    let stellar = run_resnet50(&GemmParams::stellar_gemmini()).expect("resnet50 run");

    let mut rows = Vec::new();
    let (mut hb, mut ht, mut sb, mut st) = (0u64, 0u64, 0u64, 0u64);
    let mut hand_breakdown = CycleBreakdown::new();
    let mut stellar_breakdown = CycleBreakdown::new();
    for ((name, h), (_, s)) in hand.iter().zip(&stellar) {
        hand_breakdown = hand_breakdown.merge(h.breakdown);
        stellar_breakdown = stellar_breakdown.merge(s.breakdown);
        rows.push(vec![
            name.to_string(),
            pct(h.utilization.fraction()),
            pct(s.utilization.fraction()),
            format!(
                "{:.2}",
                s.utilization.fraction() / h.utilization.fraction().max(1e-12)
            ),
        ]);
        hb += h.utilization.busy;
        ht += h.utilization.total;
        sb += s.utilization.busy;
        st += s.utilization.total;
    }
    table(&["layer", "handwritten", "stellar", "ratio"], &rows);

    let hu = hb as f64 / ht as f64;
    let su = sb as f64 / st as f64;
    println!(
        "\nend-to-end utilization: handwritten {}, Stellar {}",
        pct(hu),
        pct(su)
    );
    println!(
        "Stellar reaches {} of the handwritten design's utilization",
        pct(su / hu)
    );
    println!("(paper: \"90% of the utilization of the handwritten Gemmini\")");

    report.breakdown("resnet50/handwritten", &hand_breakdown);
    report.breakdown("resnet50/stellar", &stellar_breakdown);
    let m = report.metrics();
    m.gauge_set("utilization", &[("design", "handwritten")], hu);
    m.gauge_set("utilization", &[("design", "stellar")], su);
    m.gauge_set("utilization_ratio", &[], su / hu);
    report.finish("ResNet-50 end-to-end utilization compared");
}
