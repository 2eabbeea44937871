//! E13 — Figures 13 and 14: register-file optimization.
//!
//! Hardcoding a memory buffer's read parameters (Listing 6) lets the
//! compiler prove the producer's emission order; matching it against the
//! spatial array's consumption order selects progressively cheaper regfile
//! implementations, down to a pure feed-forward shift register.

use stellar_area::{regfile_area_um2, Technology};
use crate::{table, Report};
use stellar_core::memory::EmissionOrder;
use stellar_core::prelude::*;
use stellar_core::{choose_regfile, AccessOrder, RegfileDesign};

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e13",
        "Figures 13/14 — regfile optimization passes and their area",
    );

    // Part 1: the optimizer's decisions for producer/consumer order pairs.
    let wavefront = HardcodedParams::new(vec![4, 4], EmissionOrder::Wavefront).emission_order();
    let row_major = HardcodedParams::new(vec![4, 4], EmissionOrder::RowMajor).emission_order();
    let col_major = HardcodedParams::new(vec![4, 4], EmissionOrder::ColMajor).emission_order();
    // A data-dependent consumer revisits coordinates.
    let revisiting = AccessOrder::from_coords(vec![vec![0, 0], vec![0, 1], vec![0, 0], vec![1, 1]]);

    let mut rows = Vec::new();
    for (p, c, label) in [
        (&wavefront, &wavefront, "wavefront -> wavefront (Figure 13)"),
        (&row_major, &row_major, "row-major -> row-major"),
        (
            &row_major,
            &col_major,
            "row-major -> col-major (transposition, Fig 14d)",
        ),
        (
            &row_major,
            &wavefront,
            "row-major -> wavefront (single-pass)",
        ),
        (
            &row_major,
            &revisiting,
            "row-major -> data-dependent revisits",
        ),
    ] {
        rows.push(vec![label.to_string(), choose_regfile(p, c).to_string()]);
    }
    table(&["producer -> consumer orders", "selected regfile"], &rows);

    // Part 2: area of each regfile variant at the same capacity (Fig 14's
    // "more or less aggressive optimizations").
    let tech = Technology::asap7();
    let mut area_rows = Vec::new();
    for kind in [
        RegfileKind::FeedForward,
        RegfileKind::Transposing,
        RegfileKind::EdgeIo,
        RegfileKind::Baseline,
    ] {
        let rf = RegfileDesign {
            name: format!("rf_{kind}"),
            tensor: "B".into(),
            kind,
            entries: 256,
            in_ports: 16,
            out_ports: 16,
            coord_bits: if kind.cost_rank() >= 2 { 16 } else { 0 },
            data_bits: 8,
        };
        let area = regfile_area_um2(&rf, &tech);
        report
            .metrics()
            .gauge_set("regfile_area_um2", &[("kind", &kind.to_string())], area);
        area_rows.push(vec![
            kind.to_string(),
            rf.num_comparators().to_string(),
            format!("{area:.0}"),
        ]);
    }
    table(
        &["regfile kind", "coord comparators", "area um^2"],
        &area_rows,
    );

    // Part 3: the end-to-end effect inside a compiled design.
    let func = Functionality::matmul(4, 4, 4);
    let tb = func.tensors().nth(1).unwrap();
    let with_hc = compile(
        &AcceleratorSpec::new("hc", func.clone())
            .with_transform(SpaceTimeTransform::output_stationary())
            .with_memory(
                MemorySpec::new("SRAM_B", tb, vec![AxisFormat::Dense, AxisFormat::Dense])
                    .with_hardcoded(HardcodedParams::new(vec![4, 4], EmissionOrder::Wavefront)),
            ),
    )?;
    let without_hc = compile(
        &AcceleratorSpec::new("nohc", func).with_transform(SpaceTimeTransform::output_stationary()),
    )?;
    let kind_of = |d: &stellar_core::AcceleratorDesign| {
        d.regfiles.iter().find(|r| r.tensor == "B").unwrap().kind
    };
    println!("\ncompiled design, B regfile:");
    println!("  with hardcoded reads (Listing 6): {}", kind_of(&with_hc));
    println!(
        "  without hardcoding              : {}",
        kind_of(&without_hc)
    );
    report.finish("regfile selections and areas tabulated");
    Ok(())
}
