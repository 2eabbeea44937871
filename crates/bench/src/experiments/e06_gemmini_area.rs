//! E6 — Table III and the §VI-B frequency claim: area breakdown of the
//! Gemmini accelerators, and centralized vs distributed address-generator
//! timing.
//!
//! The hand-written column is the paper's published Table III; the
//! Stellar-generated column is computed by the analytical area model from
//! the compiled design's structure.

use stellar_accels::{gemmini_design, handwritten_gemmini_area};
use stellar_area::{area_of, max_frequency_mhz, Technology};
use crate::{table, Report};

pub fn run() {
    let mut report = Report::new(
        "e06",
        "Table III — area comparison between Gemmini accelerators (ASAP7, 500 MHz)",
    );

    let design = gemmini_design();
    let tech = Technology::asap7();
    let stellar = area_of(&design, &tech);
    let hand = handwritten_gemmini_area();
    let hand_total: f64 = hand.iter().map(|(_, a)| a).sum();
    let stellar_total = stellar.total_um2();

    let stellar_by_name = |name: &str| -> f64 {
        stellar
            .rows()
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, a, _)| *a)
            .unwrap_or(0.0)
    };

    let mut rows = Vec::new();
    for (name, hand_um2) in &hand {
        let s = stellar_by_name(name);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}K", hand_um2 / 1e3),
            format!("{:.1}%", 100.0 * hand_um2 / hand_total),
            format!("{:.0}K", s / 1e3),
            format!("{:.1}%", 100.0 * s / stellar_total),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        format!("{:.0}K", hand_total / 1e3),
        "100%".into(),
        format!("{:.0}K", stellar_total / 1e3),
        "100%".into(),
    ]);
    table(
        &[
            "component",
            "orig um^2",
            "orig %",
            "stellar um^2",
            "stellar %",
        ],
        &rows,
    );
    println!(
        "\nStellar-generated total is {:+.1}% vs handwritten (paper: +13% at 500 MHz).",
        100.0 * (stellar_total / hand_total - 1.0)
    );

    // §VI-B frequency: centralized loop unrollers vs distributed address
    // generators.
    let central = max_frequency_mhz(&design, true, &tech);
    let distributed = max_frequency_mhz(&design, false, &tech);
    println!("\nmax frequency (timing model):");
    println!("  handwritten (centralized loop unrollers): {central:.0} MHz  (paper: ~700 MHz)");
    println!(
        "  Stellar (distributed address generators): {distributed:.0} MHz  (paper: up to 1 GHz)"
    );

    let m = report.metrics();
    m.gauge_set("area_um2", &[("design", "handwritten")], hand_total);
    m.gauge_set("area_um2", &[("design", "stellar")], stellar_total);
    m.gauge_set("area_ratio", &[], stellar_total / hand_total);
    m.gauge_set("max_mhz", &[("addrgen", "centralized")], central);
    m.gauge_set("max_mhz", &[("addrgen", "distributed")], distributed);
    report.finish("Gemmini area and frequency compared against Table III");
}
