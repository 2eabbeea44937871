//! E21 — DMA response-loss sweep: drop rate × retry policy.
//!
//! The paper's evaluation assumes loss-free memory. This experiment
//! exercises the DMA reliability layer end to end: scattered transfers
//! under seeded response loss, retried under each retry policy, with every
//! recovery cycle attributed to `FaultRecovery`. The whole report is
//! deterministic — the sweep is built twice from the same seeds and
//! asserted byte-identical — and the zero-drop plan is asserted to cost
//! exactly the loss-free baseline.

use std::fmt::Write as _;

use crate::Report;
use stellar_sim::{
    CycleBreakdown, DmaModel, FaultInjector, FaultPlan, RetryPolicy, StallClass, Watchdog,
};

const TRIALS: u64 = 40;

/// Runs the sweep, appending its table to `out`, and returns the merged
/// cycle attribution of every completed transfer.
fn dma_sweep(out: &mut String) -> CycleBreakdown {
    let dma = DmaModel::with_slots(16);
    let policies = [
        ("none", RetryPolicy::none()),
        ("exp x3", RetryPolicy::exponential()),
        (
            "exp x10",
            RetryPolicy {
                max_retries: 10,
                base_backoff_cycles: 8,
                timeout_cycles: 240,
            },
        ),
    ];
    writeln!(
        out,
        "\n-- dma: 200 scattered requests, response-loss sweep --"
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>8} | {:>10} {:>12} {:>6}",
        "drop rate", "policy", "avg cycles", "recovery cyc", "wedged"
    )
    .unwrap();
    let base = dma.scattered_cycles(200, 8);
    let mut merged = CycleBreakdown::new();
    for drop in [0.0f64, 0.01, 0.05] {
        for (pname, policy) in policies {
            let mut done_cycles = 0u64;
            let mut recovery_cycles = 0u64;
            let mut done = 0u64;
            let mut wedged = 0u64;
            // Independent seeded trials, merged in trial order so the
            // cycle attribution stays deterministic.
            for trial in 0..TRIALS {
                let plan = FaultPlan {
                    seed: 7000 + trial,
                    dma_drop_per_request: drop,
                };
                match dma.reliable_scattered_cycles(
                    200,
                    8,
                    &policy,
                    &mut FaultInjector::new(plan),
                    &Watchdog::default_budget(),
                ) {
                    Ok(rep) => {
                        done += 1;
                        done_cycles += rep.cycles;
                        recovery_cycles += rep.breakdown.get(StallClass::FaultRecovery);
                        merged = merged.merge(rep.breakdown);
                    }
                    Err(_) => wedged += 1,
                }
            }
            // A cell with no completed trial has no average: `-`.
            let avg = |total: u64, decimals: usize| match done {
                0 => "-".to_string(),
                _ => format!("{:.decimals$}", total as f64 / done as f64),
            };
            writeln!(
                out,
                "{:>10} {:>8} | {:>10} {:>12} {:>5.0}%",
                format!("{drop:.2}"),
                pname,
                avg(done_cycles, 0),
                avg(recovery_cycles, 1),
                100.0 * wedged as f64 / TRIALS as f64,
            )
            .unwrap();
            // Acceptance: loss-free transfers cost exactly the base
            // cycles, and the breakdown attributes zero recovery cycles,
            // whatever retry capability is available.
            if drop == 0.0 {
                assert_eq!(
                    done_cycles,
                    base * done,
                    "loss-free run must match baseline"
                );
                assert_eq!(recovery_cycles, 0, "loss-free run charged recovery");
                assert_eq!(wedged, 0);
            }
        }
    }
    merged
}

/// One pass of the sweep: the printed report plus the merged attribution
/// fed to the metrics pipeline.
fn build_report() -> (String, CycleBreakdown) {
    let mut out = String::new();
    let dma_recovery = dma_sweep(&mut out);
    writeln!(
        out,
        "\nRetry cycles are charged to FaultRecovery only when a response is\n\
         actually lost; without retries the first loss wedges the transfer."
    )
    .unwrap();
    (out, dma_recovery)
}

pub fn run() {
    let mut report = Report::new("e21", "DMA response-loss sweep: drop rate x retry policy");
    let (text, dma_recovery) = build_report();
    let (again_text, again_recovery) = build_report();
    // Acceptance: the same plans produce a byte-identical report and
    // identical cycle attribution.
    assert_eq!(text, again_text, "loss sweep report must be deterministic");
    assert!(!text.contains("NaN"), "loss sweep report printed NaN");
    assert_eq!(
        dma_recovery, again_recovery,
        "cycle attribution must be deterministic"
    );
    print!("{text}");

    report.breakdown("dma_reliable_merged", &dma_recovery);
    report.metrics().counter_add(
        "dma_fault_recovery_cycles",
        &[],
        dma_recovery.get(StallClass::FaultRecovery),
    );
    report.finish("loss sweep deterministic; recovery cycles attributed");
}
