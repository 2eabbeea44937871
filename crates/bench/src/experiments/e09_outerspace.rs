//! E9 — Figure 16b and §VI-C: throughput of the Stellar-generated
//! OuterSPACE accelerator on the SuiteSparse suite, before and after the
//! DMA fix, against the hand-written design.

use stellar_accels::{outerspace_throughput, OuterSpaceConfig};
use crate::{table, Report};
use stellar_workloads::suite;

pub fn run() {
    let mut report = Report::new(
        "e09",
        "Figure 16b — OuterSPACE throughput on SuiteSparse (GFLOP/s)",
    );

    let cfgs = [
        OuterSpaceConfig::stellar_default(),
        OuterSpaceConfig::stellar_fixed(),
        OuterSpaceConfig::handwritten(),
    ];

    let mut rows = Vec::new();
    let (mut d_sum, mut f_sum, mut h_sum, mut ptr_frac_sum) = (0.0, 0.0, 0.0, 0.0);
    let mats = suite();
    for (n, m) in mats.iter().enumerate() {
        let r = outerspace_throughput(m, &cfgs, 100 + n as u64);
        let (d, f, h) = (r[0], r[1], r[2]);
        d_sum += d.gflops;
        f_sum += f.gflops;
        h_sum += h.gflops;
        ptr_frac_sum += d.pointer_cycles as f64 / d.cycles as f64;
        let metrics = report.metrics();
        metrics.gauge_set("gflops", &[("dma", "1-req"), ("matrix", m.name)], d.gflops);
        metrics.gauge_set("gflops", &[("dma", "16-req"), ("matrix", m.name)], f.gflops);
        metrics.gauge_set("gflops", &[("dma", "hand"), ("matrix", m.name)], h.gflops);
        rows.push(vec![
            m.name.to_string(),
            format!("{:.2}", d.gflops),
            format!("{:.2}", f.gflops),
            format!("{:.2}", h.gflops),
            format!("{:.0}%", 100.0 * d.pointer_cycles as f64 / d.cycles as f64),
        ]);
    }
    let n = mats.len() as f64;
    rows.push(vec![
        "AVERAGE".into(),
        format!("{:.2}", d_sum / n),
        format!("{:.2}", f_sum / n),
        format!("{:.2}", h_sum / n),
        format!("{:.0}%", 100.0 * ptr_frac_sum / n),
    ]);
    table(
        &[
            "matrix",
            "stellar (1-req DMA)",
            "stellar (16-req DMA)",
            "handwritten",
            "ptr stall",
        ],
        &rows,
    );
    println!("\npaper: initial Stellar 1.42 GFLOP/s avg; 16-request DMA 2.1; handwritten 2.9.");
    println!("Scattered partial-sum pointer reads are <10% of traffic but dominate the");
    println!("default DMA's stalls (§VI-C); raising outstanding requests from 1 to 16");
    println!("recovers most of the gap without changing DRAM bandwidth.");

    let m = report.metrics();
    m.gauge_set("avg_gflops", &[("dma", "1-req")], d_sum / n);
    m.gauge_set("avg_gflops", &[("dma", "16-req")], f_sum / n);
    m.gauge_set("avg_gflops", &[("dma", "hand")], h_sum / n);
    m.gauge_set("avg_ptr_stall_frac", &[], ptr_frac_sum / n);
    report.finish("OuterSPACE throughput swept over the suite");
}
