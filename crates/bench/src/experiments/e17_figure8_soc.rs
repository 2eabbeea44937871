//! E17 — Figure 8: the full sparse matrix-multiplication accelerator as
//! one SoC — a sparse matmul spatial array plus a merge array, sharing
//! the DMA and memory system — compiled, emitted, and measured.

use stellar_area::{area_of, Technology};
use crate::Report;
use stellar_core::prelude::*;
use stellar_core::{compile_soc, DmaDesign, IndexId};
use stellar_rtl::{emit_accelerator, lint};

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e17",
        "Figure 8 — sparse matmul + merger in one accelerator",
    );

    let (j, k) = (IndexId::nth(1), IndexId::nth(2));
    let mul = AcceleratorSpec::new("sp_mul", Functionality::matmul(8, 8, 8))
        .with_bounds(Bounds::from_extents(&[8, 8, 8]))
        .with_transform(SpaceTimeTransform::input_stationary())
        .with_skip(SkipSpec::skip(&[j], &[k]))
        .with_data_bits(64)
        .with_host_cpu(true);
    let merger = AcceleratorSpec::new("merger", Functionality::merge_select(8, 8))
        .with_bounds(Bounds::from_extents(&[8, 8]))
        .with_transform(SpaceTimeTransform::from_rows(&[&[1, 0], &[0, 1]]))
        .with_data_bits(64)
        .with_host_cpu(false);

    let soc = compile_soc(
        "spgemm_soc",
        &[mul, merger],
        Some(DmaDesign {
            max_inflight_reqs: 16,
            bus_bits: 128,
        }),
    )?;

    print!("{}", soc.summary());

    let netlist = emit_accelerator(&soc);
    match lint::check(&netlist) {
        Ok(()) => println!(
            "\nemitted Verilog: {} modules, {} lines, lint clean",
            netlist.modules().len(),
            netlist.verilog_lines()
        ),
        Err(errs) => println!("\nLINT FAILED: {errs:?}"),
    }
    let m = report.metrics();
    m.counter_add("verilog_modules", &[], netlist.modules().len() as u64);
    m.counter_add("verilog_lines", &[], netlist.verilog_lines() as u64);

    let area = area_of(&soc, &Technology::asap7());
    println!("\narea breakdown (ASAP7):");
    for (name, um2, pct) in area.rows() {
        if um2 > 0.0 {
            println!("  {name:<15} {um2:>10.0} um^2 ({pct:>4.1}%)");
        }
    }
    println!("  {:<15} {:>10.0} um^2", "TOTAL", area.total_um2());
    println!("\nThe matmul array's scattered partial sums leave through its output");
    println!("regfiles and re-enter the merger's input regfiles — the Figure 8");
    println!("topology, with the 16-request DMA of §VI-C feeding both.");
    report
        .metrics()
        .gauge_set("soc_area_um2", &[], area.total_um2());
    report.finish("Figure 8 SoC compiled, emitted, and measured");
    Ok(())
}
