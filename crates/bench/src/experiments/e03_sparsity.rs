//! E3 — Figures 4 and 5, Listing 2: sparsity specifications and their
//! effect on the spatial array.
//!
//! `Skip` clauses remove the PE-to-PE connections whose data-identity
//! guarantee breaks, replacing them with regfile ports; `OptimisticSkip`
//! (A100 2:4) keeps the wires but widens them into candidate bundles.

use stellar_accels::a100_sparse_spec;
use crate::{table, Report};
use stellar_core::prelude::*;
use stellar_core::IndexId;

pub fn run() -> Result<(), CompileError> {
    let mut report = Report::new(
        "e03",
        "Figures 4/5 — Skip and OptimisticSkip restructure the array",
    );
    let (i, j, k) = (IndexId::nth(0), IndexId::nth(1), IndexId::nth(2));

    let mut build = |name: &str, skips: Vec<SkipSpec>| -> Result<Vec<String>, CompileError> {
        let mut spec = AcceleratorSpec::new(name, Functionality::matmul(4, 4, 4))
            .with_bounds(Bounds::from_extents(&[4, 4, 4]))
            .with_transform(SpaceTimeTransform::input_stationary());
        for s in skips {
            spec = spec.with_skip(s);
        }
        let d = compile(&spec)?;
        let arr = &d.spatial_arrays[0];
        let bundled = arr.conns.iter().filter(|c| c.bundle > 1).count();
        let m = report.metrics();
        m.counter_add(
            "moving_conns",
            &[("spec", name)],
            arr.num_moving_conns() as u64,
        );
        m.counter_add("bundled_conns", &[("spec", name)], bundled as u64);
        m.counter_add(
            "regfile_ports",
            &[("spec", name)],
            arr.num_io_ports() as u64,
        );
        Ok(vec![
            name.to_string(),
            arr.num_moving_conns().to_string(),
            arr.conns
                .iter()
                .filter(|c| c.src_pe == c.dst_pe)
                .count()
                .to_string(),
            bundled.to_string(),
            arr.num_io_ports().to_string(),
        ])
    };

    let rows = vec![
        build("dense baseline (Fig 2a)", vec![])?,
        // Listing 5: Skip j when B(k, j) == 0 — B in CSR.
        build("B is CSR (Fig 4)", vec![SkipSpec::skip(&[j], &[k])])?,
        // Listing 2 line 2: Skip i when A(i, k) == 0 — A in CSC.
        build("A is CSC", vec![SkipSpec::skip(&[i], &[k])])?,
        // Listing 2 lines 2-3: both operands sparse.
        build(
            "A CSC + B CSR",
            vec![SkipSpec::skip(&[i], &[k]), SkipSpec::skip(&[j], &[k])],
        )?,
        // Listing 2 line 5: diagonal A.
        build(
            "A diagonal (skip i,k when i!=k)",
            vec![SkipSpec::skip(&[i, k], &[])],
        )?,
    ];
    table(
        &[
            "sparsity spec",
            "moving wires",
            "stationary",
            "bundled",
            "regfile ports",
        ],
        &rows,
    );

    // Figure 5: the A100 2:4 array keeps connections as 2-wide bundles.
    let d = compile(&a100_sparse_spec(4))?;
    let arr = &d.spatial_arrays[0];
    let wide = arr.conns.iter().filter(|c| c.bundle == 2).count();
    println!(
        "\nA100 2:4 (OptimisticSkip, Fig 5): {} conns kept, {} widened to 2-wide bundles",
        arr.conns.len(),
        wide
    );
    report
        .metrics()
        .counter_add("bundled_conns", &[("spec", "a100 2:4")], wide as u64);
    report.finish("5 sparsity specs + the A100 2:4 array compiled");
    Ok(())
}
