//! E14 — ablation of §VI-C's design choice: sweeping the DMA's
//! independent outstanding-request count from 1 to 64 on the OuterSPACE
//! workload, with the corresponding DMA area from the analytical model.
//!
//! The paper jumps from 1 to 16 requests; this sweep shows the whole
//! trade-off curve (throughput saturates once pointer latency is covered,
//! while area keeps growing).

use rayon::prelude::*;
use stellar_accels::{outerspace_throughput, OuterSpaceConfig};
use stellar_area::{area::dma_area_um2, Technology};
use stellar_bench::{table, Report};
use stellar_core::DmaDesign;
use stellar_sim::DmaModel;
use stellar_workloads::suite;

const SLOTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn main() {
    let mut report = Report::new(
        "e14",
        "DMA outstanding-request sweep (ablation of the §VI-C fix)",
    );

    let mats: Vec<_> = suite().into_iter().take(10).collect();
    let tech = Technology::asap7();

    // Each matrix is instantiated once and evaluated at every slot count;
    // the matrices are independent seeded instances, swept in parallel.
    // Averages per slot count reduce in matrix order, so the floating-point
    // sums (and thus the report) match the serial sweep bit for bit.
    let cfgs = SLOTS.map(|slots| OuterSpaceConfig {
        dma: DmaModel::with_slots(slots),
        ..OuterSpaceConfig::stellar_default()
    });
    let grid: Vec<Vec<f64>> = (0..mats.len())
        .into_par_iter()
        .map(|n| {
            outerspace_throughput(&mats[n], &cfgs, 300 + n as u64)
                .iter()
                .map(|r| r.gflops)
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    let mut prev_gflops = 0.0;
    for (s, &slots) in SLOTS.iter().enumerate() {
        let avg: f64 = grid.iter().map(|per_slot| per_slot[s]).sum::<f64>() / mats.len() as f64;
        let area = dma_area_um2(
            &DmaDesign {
                max_inflight_reqs: slots,
                bus_bits: 128,
            },
            &tech,
        );
        let gain = if prev_gflops > 0.0 {
            format!("{:+.0}%", 100.0 * (avg / prev_gflops - 1.0))
        } else {
            "-".into()
        };
        let metrics = report.metrics();
        metrics.gauge_set("avg_gflops", &[("slots", &slots.to_string())], avg);
        metrics.gauge_set("dma_area_um2", &[("slots", &slots.to_string())], area);
        rows.push(vec![
            slots.to_string(),
            format!("{avg:.2}"),
            gain,
            format!("{:.0}", area),
        ]);
        prev_gflops = avg;
    }
    table(
        &[
            "outstanding reqs",
            "avg GFLOP/s",
            "marginal gain",
            "DMA area um^2",
        ],
        &rows,
    );
    println!("\nThe throughput curve saturates once outstanding requests cover the");
    println!("pointer round-trip latency; the paper's choice of 16 sits at the knee,");
    println!("while DMA area keeps growing linearly with tracker count.");
    report.finish("7-point outstanding-request sweep measured");
}
