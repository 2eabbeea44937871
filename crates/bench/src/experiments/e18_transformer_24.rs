//! E18 — extension: the A100 2:4 structured-sparse array (Figure 5) on a
//! transformer workload.
//!
//! Weight GEMMs of a BERT-base layer are prunable to 2:4 (the NVIDIA
//! scheme the paper's Figure 5 regenerates); activation-activation GEMMs
//! (attention scores/context) are not. The experiment reports per-GEMM and
//! end-to-end speedup of the 2:4 array over the dense array, plus the
//! hardware cost of the `OptimisticSkip` bundles.

use stellar_accels::a100_sparse_spec;
use stellar_area::{area_of, Technology};
use crate::{table, Report};
use stellar_core::prelude::*;
use stellar_sim::{layer_utilization, CycleBreakdown, GemmParams};
use stellar_workloads::transformer::{bert_base_layer, is_weight_gemm};

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e18",
        "A100 2:4 structured sparsity on BERT-base (extension of Fig 5)",
    );

    let params = GemmParams::stellar_gemmini();
    let mut rows = Vec::new();
    let (mut dense_cycles, mut sparse_cycles) = (0u64, 0u64);
    let mut dense_breakdown = CycleBreakdown::new();
    for g in bert_base_layer(128) {
        let stats = layer_utilization(g.m, g.k, g.n, &params).expect("gemm model");
        dense_breakdown = dense_breakdown.merge(stats.breakdown);
        let reps = g.repeats as u64;
        let d = stats.cycles * reps;
        // 2:4 halves the reduction work of weight GEMMs only.
        let prunable = is_weight_gemm(&g);
        let s = if prunable {
            layer_utilization(g.m, g.k / 2, g.n, &params)
                .expect("gemm model")
                .cycles
                * reps
        } else {
            d
        };
        dense_cycles += d;
        sparse_cycles += s;
        rows.push(vec![
            g.name.to_string(),
            if prunable { "2:4 weights" } else { "act x act" }.into(),
            format!("{d}"),
            format!("{s}"),
            format!("{:.2}x", d as f64 / s as f64),
        ]);
    }
    table(
        &[
            "GEMM",
            "operand kind",
            "dense cycles",
            "2:4 cycles",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nend-to-end layer speedup: {:.2}x (weights are 2/3 of the layer's MACs at seq 128)",
        dense_cycles as f64 / sparse_cycles as f64
    );

    // Hardware cost: the 2:4 array keeps its wires as 2-wide bundles.
    let dense_design = compile(
        &AcceleratorSpec::new("dense16", Functionality::matmul(4, 4, 4))
            .with_transform(SpaceTimeTransform::output_stationary())
            .with_data_bits(16),
    )?;
    let sparse_design = compile(&a100_sparse_spec(4))?;
    let tech = Technology::asap7();
    let da = area_of(&dense_design, &tech);
    let sa = area_of(&sparse_design, &tech);
    println!(
        "\narray area: dense {:.0}K um^2, 2:4 {:.0}K um^2 ({:+.1}% for the bundles)",
        da.arrays_um2 / 1e3,
        sa.arrays_um2 / 1e3,
        100.0 * (sa.arrays_um2 / da.arrays_um2 - 1.0)
    );
    println!("(OptimisticSkip keeps PE-to-PE connections, widening them to 2-value");
    println!("bundles — area grows modestly while weight GEMM throughput doubles.)");

    report.breakdown("bert_layer/dense", &dense_breakdown);
    let m = report.metrics();
    m.counter_add("cycles", &[("array", "dense")], dense_cycles);
    m.counter_add("cycles", &[("array", "2:4")], sparse_cycles);
    m.gauge_set(
        "end_to_end_speedup",
        &[],
        dense_cycles as f64 / sparse_cycles as f64,
    );
    m.gauge_set(
        "bundle_area_overhead",
        &[],
        sa.arrays_um2 / da.arrays_um2 - 1.0,
    );
    report.finish("BERT-base layer 2:4 speedup and bundle cost measured");
    Ok(())
}
