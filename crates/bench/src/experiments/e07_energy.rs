//! E7 — Figure 17: energy consumed per MAC on layers of ResNet-50
//! (Intel 22nm, 500 MHz), for the hand-written and Stellar-generated
//! Gemmini accelerators.

use stellar_accels::{gemmini_design, run_resnet50};
use stellar_area::{energy_per_mac_pj, EnergyModel, Technology};
use crate::{table, Report};
use stellar_sim::GemmParams;

pub fn run() {
    let mut report = Report::new(
        "e07",
        "Figure 17 — energy per MAC on ResNet-50 layers (Intel 22nm)",
    );

    // The handwritten design: no global stall tree, hand-tuned control.
    let mut hand_design = gemmini_design();
    for arr in &mut hand_design.spatial_arrays {
        arr.has_global_stall = false;
    }
    let stellar_design = gemmini_design();

    let tech = Technology::intel22();
    let hand_model = EnergyModel::new(&hand_design, tech.clone());
    let stellar_model = EnergyModel::new(&stellar_design, tech);

    let hand = run_resnet50(&GemmParams::handwritten_gemmini()).expect("resnet50 run");
    let stellar = run_resnet50(&GemmParams::stellar_gemmini()).expect("resnet50 run");

    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    let mut best = f64::INFINITY;
    for ((name, h), (_, s)) in hand.iter().zip(&stellar) {
        let he = energy_per_mac_pj(&hand_model, &h.traffic);
        let se = energy_per_mac_pj(&stellar_model, &s.traffic);
        let overhead = se / he - 1.0;
        worst = worst.max(overhead);
        best = best.min(overhead);
        report.metrics().observe("energy_overhead", &[], overhead);
        rows.push(vec![
            name.to_string(),
            format!("{he:.3}"),
            format!("{se:.3}"),
            format!("{:+.1}%", 100.0 * overhead),
        ]);
    }
    table(
        &["layer", "hand pJ/MAC", "stellar pJ/MAC", "overhead"],
        &rows,
    );
    println!(
        "\nStellar energy overhead ranges from {:+.1}% to {:+.1}% across layers",
        100.0 * best,
        100.0 * worst
    );
    println!("(paper: \"from 7% at best to 30% at worst\")");

    let m = report.metrics();
    m.gauge_set("energy_overhead_best", &[], best);
    m.gauge_set("energy_overhead_worst", &[], worst);
    report.finish("per-layer energy overheads computed");
}
