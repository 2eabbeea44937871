//! E1 — Figure 2: the dataflow gallery.
//!
//! One functionality (Listing 1's matmul), three space-time transforms:
//! input-stationary, output-stationary, and hexagonal. The experiment
//! reports the structure of each resulting array and verifies the paper's
//! claims about which operand stays stationary.

use crate::{table, Report};
use stellar_core::prelude::*;

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e01",
        "Figure 2 — space-time transforms and their dense matmul arrays",
    );

    let dataflows = [
        (
            "input-stationary (Fig 2a)",
            SpaceTimeTransform::input_stationary(),
        ),
        (
            "output-stationary (Fig 2b)",
            SpaceTimeTransform::output_stationary(),
        ),
        ("hexagonal (Fig 2c)", SpaceTimeTransform::hexagonal()),
    ];

    let mut rows = Vec::new();
    for (name, t) in dataflows {
        let spec = AcceleratorSpec::new(name, Functionality::matmul(4, 4, 4))
            .with_bounds(Bounds::from_extents(&[4, 4, 4]))
            .with_transform(t);
        let d = compile(&spec)?;
        let arr = &d.spatial_arrays[0];
        let stationary = arr.conns.iter().filter(|c| c.src_pe == c.dst_pe).count();
        let m = report.metrics();
        m.counter_add("pes", &[("dataflow", name)], arr.num_pes() as u64);
        m.counter_add(
            "moving_conns",
            &[("dataflow", name)],
            arr.num_moving_conns() as u64,
        );
        m.counter_add("time_steps", &[("dataflow", name)], arr.time_steps as u64);
        rows.push(vec![
            name.to_string(),
            arr.num_pes().to_string(),
            arr.num_moving_conns().to_string(),
            stationary.to_string(),
            arr.time_steps.to_string(),
            arr.num_io_ports().to_string(),
        ]);
    }
    table(
        &[
            "dataflow",
            "PEs",
            "moving wires",
            "stationary",
            "steps",
            "io ports",
        ],
        &rows,
    );
    println!(
        "\nNote: the hexagonal transform spatially unrolls all three iterators onto a\n2-D plane — more PEs, shorter wires — which iterator-unrolling dataflow\ntaxonomies cannot express (§III-B)."
    );
    report.finish("3 dataflow arrays compiled from one functionality");
    Ok(())
}
