//! The paper's headline evaluation claims, asserted as tests. Exact
//! numbers are not expected to match (our substrate is a model, not the
//! authors' testbed); the *shapes* — who wins, by roughly what factor,
//! where crossovers fall — are what these tests pin down.

use stellar::accels::{
    compare_on_suite_matrix, gemmini_design, handwritten_gemmini_area, outerspace_throughput,
    run_alexnet, run_resnet50, OuterSpaceConfig, ScnnConfig,
};
use stellar::area::{
    area_of, energy_per_mac_pj, max_frequency_mhz, merger_area_ratio, EnergyModel, Technology,
};
use stellar::sim::GemmParams;
use stellar::workloads::suite;

/// §VI-B / Figure 16a: "The Stellar-generated Gemmini accelerator achieved
/// 90% of the utilization of the handwritten Gemmini accelerator".
#[test]
fn gemmini_utilization_ratio_near_90_percent() {
    let hand = run_resnet50(&GemmParams::handwritten_gemmini()).unwrap();
    let stellar = run_resnet50(&GemmParams::stellar_gemmini()).unwrap();
    let util = |rows: &[(&str, stellar::sim::SimStats)]| {
        let busy: u64 = rows.iter().map(|(_, s)| s.utilization.busy).sum();
        let total: u64 = rows.iter().map(|(_, s)| s.utilization.total).sum();
        busy as f64 / total as f64
    };
    let ratio = util(&stellar) / util(&hand);
    assert!(
        (0.84..0.96).contains(&ratio),
        "utilization ratio {ratio:.3}, paper reports ~0.90"
    );
}

/// Table III: "the Stellar-generated Gemmini accelerator only consumed 13%
/// more area than the hand-designed accelerator".
#[test]
fn gemmini_area_overhead_near_13_percent() {
    let stellar_total = area_of(&gemmini_design(), &Technology::asap7()).total_um2();
    let hand_total: f64 = handwritten_gemmini_area().iter().map(|(_, a)| a).sum();
    let overhead = stellar_total / hand_total - 1.0;
    assert!(
        (0.05..0.25).contains(&overhead),
        "area overhead {:.1}%, paper reports +13%",
        100.0 * overhead
    );
}

/// §VI-B: the handwritten design failed timing above 700 MHz while the
/// Stellar-generated one reached 1 GHz.
#[test]
fn frequency_gap_from_address_generators() {
    let d = gemmini_design();
    let tech = Technology::asap7();
    let central = max_frequency_mhz(&d, true, &tech);
    let distributed = max_frequency_mhz(&d, false, &tech);
    assert!(
        (550.0..850.0).contains(&central),
        "centralized {central:.0} MHz"
    );
    assert!(
        (900.0..1400.0).contains(&distributed),
        "distributed {distributed:.0} MHz"
    );
}

/// Figure 17: "Stellar's power overhead ranges from 7% at best to 30% at
/// worst ... on various layers of ResNet50".
#[test]
fn energy_overhead_range_spans_layers() {
    let mut hand_design = gemmini_design();
    for arr in &mut hand_design.spatial_arrays {
        arr.has_global_stall = false;
    }
    let hand_model = EnergyModel::new(&hand_design, Technology::intel22());
    let stellar_model = EnergyModel::new(&gemmini_design(), Technology::intel22());
    let hand = run_resnet50(&GemmParams::handwritten_gemmini()).unwrap();
    let stellar = run_resnet50(&GemmParams::stellar_gemmini()).unwrap();
    let overheads: Vec<f64> = hand
        .iter()
        .zip(&stellar)
        .map(|((_, h), (_, s))| {
            energy_per_mac_pj(&stellar_model, &s.traffic)
                / energy_per_mac_pj(&hand_model, &h.traffic)
                - 1.0
        })
        .collect();
    let min = overheads.iter().copied().fold(f64::INFINITY, f64::min);
    let max = overheads.iter().copied().fold(0.0, f64::max);
    assert!(
        min > 0.03,
        "best-case overhead {min:.3} should be small but positive"
    );
    assert!(max > 0.15, "worst-case overhead {max:.3} should be large");
    assert!(
        max < 0.45,
        "worst-case overhead {max:.3} should stay bounded"
    );
    assert!(
        max / min.max(1e-9) > 2.0,
        "overhead must vary substantially by layer"
    );
}

/// Figure 15: "the Stellar-generated SCNN achieved 83%-94% of the
/// hand-designed accelerator's reported performance".
#[test]
fn scnn_performance_band() {
    let hand = run_alexnet(&ScnnConfig::handwritten());
    let stellar = run_alexnet(&ScnnConfig::stellar());
    for (h, s) in hand.iter().zip(&stellar) {
        let ratio = h.cycles as f64 / s.cycles as f64;
        assert!(
            (0.78..0.97).contains(&ratio),
            "{}: ratio {ratio:.3} outside the 83%-94% band (with slack)",
            h.name
        );
    }
}

/// Figure 16b / §VI-C: default DMA ~1.42 GFLOP/s, 16-request DMA ~2.1,
/// handwritten ~2.9. We assert the ordering and rough magnitudes.
#[test]
fn outerspace_dma_fix_shape() {
    let mats = suite();
    let avg = |cfg: &OuterSpaceConfig| {
        let sum: f64 = mats
            .iter()
            .enumerate()
            .map(|(n, m)| {
                outerspace_throughput(m, std::slice::from_ref(cfg), 50 + n as u64)[0].gflops
            })
            .sum();
        sum / mats.len() as f64
    };
    let d = avg(&OuterSpaceConfig::stellar_default());
    let f = avg(&OuterSpaceConfig::stellar_fixed());
    let h = avg(&OuterSpaceConfig::handwritten());
    assert!(
        d < f && f < h,
        "ordering: {d:.2} < {f:.2} < {h:.2} violated"
    );
    assert!(
        (0.5..2.5).contains(&d),
        "default {d:.2} GFLOP/s (paper 1.42)"
    );
    assert!((1.5..3.5).contains(&f), "fixed {f:.2} GFLOP/s (paper 2.1)");
    assert!(
        (2.0..4.5).contains(&h),
        "handwritten {h:.2} GFLOP/s (paper 2.9)"
    );
}

/// Figure 18: "the row-partitioned mergers achieve at least 80% of the
/// flattened merger's performance on over a third of the SuiteSPARSE
/// matrices", and outright win on some.
#[test]
fn merger_crossover_on_suite() {
    let mats = suite();
    let comparisons: Vec<f64> = mats
        .iter()
        .enumerate()
        .map(|(n, m)| {
            compare_on_suite_matrix(m, 16, 70 + n as u64)
                .unwrap()
                .relative()
        })
        .collect();
    let at_least_80 = comparisons.iter().filter(|&&r| r >= 0.8).count();
    let wins = comparisons.iter().filter(|&&r| r > 1.0).count();
    assert!(
        at_least_80 * 3 >= mats.len(),
        "only {at_least_80}/{} matrices reach 80% (paper: over a third)",
        mats.len()
    );
    assert!(
        wins >= 2,
        "row-partitioned should win outright on some matrices, got {wins}"
    );
    // And it must lose badly somewhere (the imbalance-sensitive cases).
    let worst = comparisons.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        worst < 0.8,
        "worst case {worst:.2} should show imbalance sensitivity"
    );
}

/// §IV-F / §VI-D: the flattened (SpArch-style) merger costs ~13× the
/// row-partitioned merger's area.
#[test]
fn merger_area_ratio_near_13x() {
    let r = merger_area_ratio(&Technology::asap7());
    assert!((9.0..18.0).contains(&r), "area ratio {r:.1} (paper: 13x)");
}
