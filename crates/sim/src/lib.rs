//! Cycle-level simulation of Stellar-generated accelerators.
//!
//! The paper evaluates generated RTL with FireSim (cycle-exact FPGA
//! simulation). This crate substitutes a software cycle-level model with
//! the same observables — cycles, PE utilization, throughput, and memory
//! traffic — driven by the same design parameters (array shape, dataflow,
//! sparsity skipping, load balancing granularity, DMA outstanding-request
//! count, DRAM latency/bandwidth):
//!
//! * [`systolic`] — a cycle-stepped weight-stationary systolic array that
//!   actually computes matmuls, validated against the dense golden model.
//! * [`gemm`] — a tile-level model for DNN-scale GEMMs (the Gemmini
//!   comparison of Figure 16a).
//! * [`sparse`] — a lane-based model of sparse spatial arrays with
//!   `Skip`-style zero skipping and `Shift`-style load balancing
//!   (Figures 6 and 10).
//! * [`merger`] — row-partitioned (GAMMA-like) and flattened (SpArch-like)
//!   merger models (Figures 18 and 19).
//! * [`dma`] — a DMA/DRAM model separating contiguous bursts from
//!   latency-bound scattered requests (the §VI-C bottleneck study), with an
//!   optional reliability layer (per-request failure, timeout, and
//!   retry-with-backoff).
//! * [`cache`] — a shared L2 model (the §IV-F Chipyard mitigation).
//! * [`engine`] — the shared event-driven skip-ahead kernel under the
//!   models above: a monotonic [`engine::EventQueue`] plus an
//!   [`engine::Engine`] clock that jumps straight to the next completion
//!   event, attributing and watchdog-charging the skipped cycles in one
//!   arithmetic step. Each model keeps its original per-cycle loop in a
//!   `reference` submodule as the observational-equivalence oracle.
//! * [`stats`] — shared counters and utilization accounting.
//! * [`fault`] — deterministic seed-driven fault injection (bit flips,
//!   dropped/duplicated DMA responses, stuck-at PEs, SRAM corruption) and
//!   the SECDED protection model.
//! * [`error`] — [`SimError`] and the [`Watchdog`] cycle budget that bounds
//!   every simulation loop: all `simulate_*` entry points return `Result`
//!   and terminate on deadlock or budget exhaustion instead of hanging.
//! * [`trace`] — the cycle-attribution layer: a shared stall taxonomy
//!   ([`trace::StallClass`]), per-run [`trace::CycleBreakdown`] whose
//!   categories sum exactly to the reported cycles, and a bounded
//!   ring-buffer [`trace::Tracer`] exporting Chrome `trace_event` JSON.
//! * [`metrics`] — a typed [`metrics::MetricsRegistry`]
//!   (counters/gauges/histograms with labels) with a stable JSON schema,
//!   used by the bench harness to emit one consolidated `metrics.json`.
//!
//! Each simulated operation has at most two entry points: a plain function
//! with the default controls (no faults, the default watchdog budget, no
//! trace), and one full-control form that takes every control input and
//! returns everything the run measured. For the dense arrays that is
//! [`simulate_ws_matmul`] / [`simulate_os_matmul`] and their `_traced`
//! forms (fault injector, watchdog, tracer); for the sparse array,
//! [`simulate_sparse_matmul`] and [`simulate_sparse_matmul_traced`], which
//! also returns the run's [`EngineStats`].

pub mod cache;
pub mod dma;
pub mod engine;
pub mod error;
pub mod fault;
pub mod gemm;
pub mod merger;
pub mod metrics;
pub mod sparse;
pub mod stats;
pub mod systolic;
pub mod trace;

pub use cache::L2Cache;
pub use dma::{DmaModel, DmaTransferReport, DramParams, RetryPolicy};
pub use engine::{Engine, EngineStats, Event, EventQueue};
pub use error::{SimError, Watchdog, DEFAULT_WATCHDOG_BUDGET};
pub use fault::{DmaFault, EccMode, FaultCounts, FaultInjector, FaultPlan, RunOutcome};
pub use gemm::{gemm_cycles, layer_utilization, GemmBreakdown, GemmParams};
pub use merger::{
    rows_of_partials, FlattenedMerger, MergeCounter, MergeStats, Merger, RowPartitionedMerger,
};
pub use metrics::{Histogram, MetricValue, MetricsRegistry, Stopwatch};
pub use sparse::{
    simulate_sparse_matmul, simulate_sparse_matmul_traced, BalancePolicy, SparseArrayParams,
    SparseSimResult,
};
pub use stats::{SimStats, Utilization};
pub use systolic::{
    simulate_os_matmul, simulate_os_matmul_traced, simulate_ws_matmul, simulate_ws_matmul_traced,
    WsResult,
};
pub use trace::{
    breakdown_of_schedule, CycleBreakdown, StallClass, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY,
};
