//! The paper's evaluation, E1–E21: one module per table or figure (see
//! `DESIGN.md` for the index). Each module's `run` prints its tables and
//! writes `out/<id>.json` through [`crate::Report`]. `run_all --child
//! NAME` runs one of them in its own process; that is how the scheduler
//! launches every experiment.

use std::process::{ExitCode, Termination};

use crate::harness::experiment_id;

/// One experiment of the suite.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The module name, e.g. `e04_load_balance`; its
    /// [`experiment_id`] (`e04`) names the report file.
    pub name: &'static str,
    /// Runs the experiment; the exit status its `run` reports.
    pub run: fn() -> ExitCode,
}

/// Declares each experiment module and lists it in [`ALL`], so a name
/// cannot drift from its file.
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every experiment, in the paper's evaluation order.
        pub const ALL: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            run: || $name::run().report(),
        }),*];
    };
}

experiments!(
    e01_dataflows,
    e02_pipelining,
    e03_sparsity,
    e04_load_balance,
    e05_gemmini_util,
    e06_gemmini_area,
    e07_energy,
    e08_scnn_util,
    e09_outerspace,
    e10_mergers,
    e11_merger_area,
    e12_feature_table,
    e13_regfiles,
    e14_dma_sweep,
    e15_l2_cache,
    e16_prior_work_gallery,
    e17_figure8_soc,
    e18_transformer_24,
    e19_regfile_ablation,
    e20_dataflow_search,
    e21_fault_sweep,
);

/// The experiment named `want`, by id (`e04`) or full name
/// (`e04_load_balance`).
pub fn find(want: &str) -> Option<&'static Experiment> {
    ALL.iter()
        .find(|e| e.name == want || experiment_id(e.name) == want)
}
