//! E12 — Table I: the framework feature comparison, with each Stellar
//! column entry backed by the module of this reproduction implementing it.

use crate::{table, Report};

pub fn run() {
    let mut report = Report::new("e12", "Table I — design-framework feature comparison");

    let frameworks = [
        "PolySA",
        "AutoSA",
        "Interstellar",
        "Tabla",
        "Sparseloop",
        "TeAAL",
        "SAM",
        "DSAGen",
        "Spatial",
        "Stellar",
    ];
    // Rows: feature, then yes/no per framework (from the paper's Table I).
    let features: Vec<(&str, [&str; 10], &str)> = vec![
        (
            "Functionality",
            ["y", "y", "y", "y", "y", "y", "y", "y", "y", "y"],
            "stellar_core::func",
        ),
        (
            "Dataflow",
            ["y", "y", "y", "n", "y", "y", "y", "~", "~", "y"],
            "stellar_core::transform",
        ),
        (
            "Sparse data structures",
            ["n", "n", "n", "n", "y", "y", "y", "n", "n", "y"],
            "stellar_core::sparsity + stellar_tensor::fibertree",
        ),
        (
            "Load-balancing",
            ["n", "n", "n", "n", "n", "y", "n", "y", "n", "y"],
            "stellar_core::balance",
        ),
        (
            "Private memory buffers",
            ["y", "y", "y", "y", "y", "y", "y", "y", "y", "y"],
            "stellar_core::memory",
        ),
        (
            "Simulators",
            ["n", "n", "n", "n", "y", "y", "y", "n", "n", "n"],
            "(stellar-sim substitutes for FireSim)",
        ),
        (
            "Synthesizable RTL",
            ["y", "y", "y", "y", "n", "n", "n", "y", "y", "y"],
            "stellar_rtl::emit_accelerator",
        ),
        (
            "Application-level API",
            ["y", "y", "y", "y", "n", "n", "n", "y", "y", "y"],
            "stellar_isa::Program",
        ),
        (
            "ISA-level interface",
            ["n", "n", "n", "n", "n", "n", "n", "n", "n", "y"],
            "stellar_isa::Instruction (Table II)",
        ),
    ];

    let mut rows = Vec::new();
    for (feat, marks, module) in &features {
        let mut row = vec![feat.to_string()];
        row.extend(marks.iter().map(|m| m.to_string()));
        row.push(module.to_string());
        rows.push(row);
    }
    let mut cols: Vec<&str> = vec!["feature"];
    cols.extend(frameworks);
    cols.push("implemented by");
    table(&cols, &rows);
    println!("\n(y = supported, n = not, ~ = implicit; per the paper's Table I.)");

    let stellar_yes = features
        .iter()
        .filter(|(_, marks, _)| marks[frameworks.len() - 1] == "y")
        .count();
    let m = report.metrics();
    m.counter_add("features", &[], features.len() as u64);
    m.counter_add("stellar_supported", &[], stellar_yes as u64);
    report.finish("Table I feature matrix rendered");
}
