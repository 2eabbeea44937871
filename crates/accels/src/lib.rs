//! Accelerators regenerated from prior work, as in the paper's evaluation
//! (§VI-A): "we generate two DNN accelerators from prior work: a dense DNN
//! accelerator modeled after Gemmini ... and SCNN", plus the sparse
//! matrix-multiplication accelerator based on OuterSPACE (§VI-C) and the
//! GAMMA-like / SpArch-like mergers (§VI-D).
//!
//! Each module pairs a *Stellar-generated* design (built through
//! `stellar-core`'s specification language and compiler) with a model of
//! the *hand-written* original, so the evaluation benches can reproduce the
//! paper's comparisons.

pub mod a100;
pub mod gemmini;
pub mod merger;
pub mod outerspace;
pub mod scnn;
pub mod specs;
#[cfg(test)]
mod testing;

pub use a100::a100_sparse_spec;
pub use gemmini::{gemmini_design, gemmini_spec, handwritten_gemmini_area, run_resnet50};
pub use merger::{compare_mergers, compare_on_suite_matrix, MergerComparison};
pub use outerspace::{outerspace_throughput, OuterSpaceConfig, OuterSpaceResult};
pub use scnn::{run_alexnet, ScnnConfig, ScnnLayerResult};
pub use specs::{
    compile_prior_work_specs, outerspace_multiply_spec, row_merger_spec, scnn_pe_spec,
};
