//! E19 — ablation of the regfile optimizer (§IV-D): compile the same
//! Gemmini-class accelerator with and without hardcoded memory-buffer read
//! parameters, and compare the regfiles the compiler selects and what they
//! cost.
//!
//! This isolates the value of Listing 6's hardcoding: without a provable
//! producer order, the compiler must fall back to associative or edge-IO
//! regfiles; with it, shift registers suffice.

use stellar_area::{regfile_area_um2, Technology};
use crate::{table, Report};
use stellar_core::memory::EmissionOrder;
use stellar_core::prelude::*;

fn build(hardcoded: bool) -> Result<stellar_core::AcceleratorDesign, CompileError> {
    let func = Functionality::matmul(16, 16, 16);
    let tensors: Vec<_> = func.tensors().collect();
    let mut spec = AcceleratorSpec::new(if hardcoded { "hc" } else { "nohc" }, func)
        .with_bounds(Bounds::from_extents(&[16, 16, 16]))
        .with_transform(SpaceTimeTransform::weight_stationary())
        .with_data_bits(8);
    for (n, &t) in tensors.iter().enumerate() {
        let mut m = MemorySpec::new(
            format!("sram_{n}"),
            t,
            vec![AxisFormat::Dense, AxisFormat::Dense],
        )
        .with_capacity(64 * 1024)
        .with_width(16);
        if hardcoded {
            m = m.with_hardcoded(HardcodedParams::new(vec![16, 16], EmissionOrder::Wavefront));
        }
        spec = spec.with_memory(m);
    }
    compile(&spec)
}

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e19",
        "ablation — what Listing 6's hardcoding buys the regfiles",
    );

    let tech = Technology::asap7();
    let with = build(true)?;
    let without = build(false)?;

    let mut rows = Vec::new();
    let mut totals = (0.0f64, 0.0f64);
    for (rf_h, rf_n) in with.regfiles.iter().zip(&without.regfiles) {
        let (ah, an) = (regfile_area_um2(rf_h, &tech), regfile_area_um2(rf_n, &tech));
        totals.0 += ah;
        totals.1 += an;
        rows.push(vec![
            rf_h.tensor.clone(),
            format!("{} ({} cmp)", rf_h.kind, rf_h.num_comparators()),
            format!("{ah:.0}"),
            format!("{} ({} cmp)", rf_n.kind, rf_n.num_comparators()),
            format!("{an:.0}"),
        ]);
    }
    table(
        &[
            "tensor",
            "hardcoded: kind",
            "area um^2",
            "runtime-only: kind",
            "area um^2",
        ],
        &rows,
    );
    println!(
        "\ntotal regfile area: {:.0}K (hardcoded) vs {:.0}K (runtime-only) — {:.1}x",
        totals.0 / 1e3,
        totals.1 / 1e3,
        totals.1 / totals.0.max(1.0)
    );
    println!("Hardcoding the read pattern (Listing 6) lets the optimizer prove the");
    println!("producer order and select shift-register regfiles (Figure 14c) instead");
    println!("of coordinate-searching structures.");

    let m = report.metrics();
    m.gauge_set("regfile_area_um2", &[("variant", "hardcoded")], totals.0);
    m.gauge_set("regfile_area_um2", &[("variant", "runtime-only")], totals.1);
    m.gauge_set("area_ratio", &[], totals.1 / totals.0.max(1.0));
    report.finish("hardcoded vs runtime-only regfile cost compared");
    Ok(())
}
