//! E2 — Figure 3: pipelining strategies.
//!
//! Changing individual values in the time row of the space-time transform
//! adds or removes pipeline registers along each axis of the spatial array,
//! trading registers (area) against critical path (frequency).

use stellar_area::{array_max_frequency_mhz, Technology};
use crate::{table, Report};
use stellar_core::prelude::*;

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e02",
        "Figure 3 — pipelining strategies via the transform's time row",
    );

    let base = SpaceTimeTransform::input_stationary();
    let variants: Vec<(&str, SpaceTimeTransform)> = vec![
        ("time row [1,1,1] (baseline)", base.clone()),
        (
            "time row [2,1,1] (extra regs on i)",
            base.with_time_row(&[2, 1, 1])?,
        ),
        (
            "time row [1,2,1] (extra regs on j)",
            base.with_time_row(&[1, 2, 1])?,
        ),
        ("time row [2,2,2] (fully doubled)", base.with_time_scale(2)?),
    ];

    let tech = Technology::asap7();
    let mut rows = Vec::new();
    for (name, t) in variants {
        let spec = AcceleratorSpec::new("pipe", Functionality::matmul(4, 4, 4))
            .with_bounds(Bounds::from_extents(&[4, 4, 4]))
            .with_transform(t)
            .with_data_bits(8);
        let d = compile(&spec)?;
        let arr = &d.spatial_arrays[0];
        let mhz = array_max_frequency_mhz(&d, &tech);
        let m = report.metrics();
        m.counter_add(
            "pipeline_regs",
            &[("variant", name)],
            arr.total_pipeline_registers() as u64,
        );
        m.gauge_set("array_max_mhz", &[("variant", name)], mhz);
        rows.push(vec![
            name.to_string(),
            arr.total_pipeline_registers().to_string(),
            arr.time_steps.to_string(),
            format!("{mhz:.0}"),
        ]);
    }
    table(
        &[
            "variant",
            "pipeline regs",
            "latency (steps)",
            "array max MHz",
        ],
        &rows,
    );
    println!("\nMore aggressive pipelining buys registers for clock frequency; the\nlatency in time-steps grows correspondingly (Figure 3).");
    report.finish("4 pipelining variants measured");
    Ok(())
}
