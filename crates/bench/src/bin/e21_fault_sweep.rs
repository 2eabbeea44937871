//! E21 — resilience sweep: fault rate × ECC × DMA retry policy.
//!
//! The paper's evaluation assumes fault-free hardware. This experiment
//! exercises the fault-injection layer end to end: transient upsets in the
//! cycle-stepped systolic array (with and without SECDED), a hard stuck
//! lane on the sparse array under each balancing policy, and DMA response
//! loss under each retry policy. The whole report is deterministic — the
//! sweep is built twice from the same seeds and asserted byte-identical —
//! and the zero-fault plan is asserted to reproduce the fault-free
//! baseline exactly.

use std::fmt::Write as _;

use rayon::prelude::*;
use stellar_area::{ecc_area_overhead_fraction, secded_access_energy_ratio, Technology};
use stellar_bench::Report;
use stellar_core::prelude::*;
use stellar_sim::{
    simulate_sparse_matmul_traced, simulate_ws_matmul, simulate_ws_matmul_traced, BalancePolicy,
    CycleBreakdown, DmaModel, FaultInjector, FaultPlan, RetryPolicy, RunOutcome, SimError,
    SparseArrayParams, StallClass, Tracer, Watchdog,
};
use stellar_tensor::gen;

const TRIALS: u64 = 40;

/// One (rate, ecc) cell of the systolic sweep: outcome histogram over
/// `TRIALS` seeds.
#[derive(Default)]
struct Cell {
    correct: u64,
    corrected: u64,
    detected: u64,
    sdc: u64,
    hung: u64,
}

impl Cell {
    fn rate(&self, n: u64) -> f64 {
        n as f64 / TRIALS as f64
    }
}

fn systolic_sweep(out: &mut String) -> (u64, u64, CycleBreakdown) {
    let a = gen::dense(24, 12, 1);
    let b = gen::dense(12, 12, 2);
    let golden = simulate_ws_matmul(&a, &b).expect("fault-free ws sim");

    // Acceptance: the zero-fault plan reproduces the baseline exactly —
    // same product, same cycle count, no RNG disturbance.
    let zero = simulate_ws_matmul_traced(
        &a,
        &b,
        &mut FaultInjector::new(FaultPlan::none()),
        Watchdog::default_budget(),
        &mut Tracer::disabled(),
    )
    .expect("zero-fault ws sim");
    assert_eq!(zero.product, golden.product, "zero-fault product drifted");
    assert_eq!(
        zero.stats.cycles, golden.stats.cycles,
        "zero-fault cycles drifted"
    );

    writeln!(out, "\n-- systolic array: transient upsets per MAC --").unwrap();
    writeln!(
        out,
        "{:>10} {:>6} | {:>8} {:>9} {:>8} {:>8}",
        "rate", "ecc", "correct", "corrected", "detected", "sdc"
    )
    .unwrap();

    let mut sdc_plain = 0u64;
    let mut sdc_ecc = 0u64;
    for rate in [1e-4f64, 1e-3, 5e-3] {
        for ecc in [false, true] {
            let mut cell = Cell::default();
            // Each trial owns its seeded FaultPlan and injector, so the
            // trials run in parallel; outcomes fold back in trial order.
            let outcomes: Vec<RunOutcome> = (0..TRIALS)
                .into_par_iter()
                .map(|trial| {
                    let mut plan = FaultPlan::transient(1000 * trial + 17, rate);
                    if ecc {
                        plan = plan.with_ecc();
                    }
                    let mut inj = FaultInjector::new(plan);
                    match simulate_ws_matmul_traced(
                        &a,
                        &b,
                        &mut inj,
                        Watchdog::default_budget(),
                        &mut Tracer::disabled(),
                    ) {
                        Ok(r) => RunOutcome::classify(&inj.counts, r.product == golden.product),
                        Err(_) => RunOutcome::Hung,
                    }
                })
                .collect();
            for outcome in outcomes {
                match outcome {
                    RunOutcome::Correct => cell.correct += 1,
                    RunOutcome::Corrected => cell.corrected += 1,
                    RunOutcome::Detected => cell.detected += 1,
                    RunOutcome::SilentDataCorruption => cell.sdc += 1,
                    RunOutcome::Hung => cell.hung += 1,
                }
            }
            if ecc {
                sdc_ecc += cell.sdc;
            } else {
                sdc_plain += cell.sdc;
            }
            writeln!(
                out,
                "{:>10.0e} {:>6} | {:>7.0}% {:>8.0}% {:>7.0}% {:>7.0}%",
                rate,
                if ecc { "secded" } else { "off" },
                100.0 * cell.rate(cell.correct),
                100.0 * cell.rate(cell.corrected),
                100.0 * cell.rate(cell.detected),
                100.0 * cell.rate(cell.sdc),
            )
            .unwrap();
        }
    }
    (sdc_plain, sdc_ecc, golden.stats.breakdown)
}

fn stuck_lane_sweep(out: &mut String) {
    let b = gen::power_law(64, 64, 8.0, 1.8, 5);
    writeln!(
        out,
        "\n-- sparse array: one hard-stuck lane (lane 0 of 8) --"
    )
    .unwrap();
    for (name, policy) in [
        ("no balancing", BalancePolicy::None),
        ("adjacent rows", BalancePolicy::AdjacentRows),
        ("fully flexible", BalancePolicy::Global),
    ] {
        let mut plan = FaultPlan::none();
        plan.stuck_lane = Some(0);
        let r = simulate_sparse_matmul_traced(
            &b,
            &SparseArrayParams {
                lanes: 8,
                row_startup_cycles: 1,
                balance: policy,
            },
            &mut FaultInjector::new(plan),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        );
        let verdict = match r {
            Ok((res, _)) => format!("completes in {} cycles", res.stats.cycles),
            Err(SimError::Deadlock { cycle, .. }) => {
                format!("DEADLOCK detected at cycle {cycle}")
            }
            Err(e) => format!("error: {e}"),
        };
        writeln!(out, "{name:<16}: {verdict}").unwrap();
    }
}

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
            // Independent seeded trials: run in parallel, merge in trial
            // order so the cycle attribution stays deterministic.
            let reports: Vec<_> = (0..TRIALS)
                .into_par_iter()
                .map(|trial| {
                    let mut plan = FaultPlan::none();
                    plan.seed = 7000 + trial;
                    plan.dma_drop_per_request = drop;
                    let mut inj = FaultInjector::new(plan);
                    dma.reliable_scattered_cycles(
                        200,
                        8,
                        &policy,
                        &mut inj,
                        &Watchdog::default_budget(),
                    )
                    .ok()
                })
                .collect();
            for rep in reports {
                match rep {
                    Some(rep) => {
                        done += 1;
                        done_cycles += rep.cycles;
                        // The breakdown attributes retry/backoff cost
                        // directly — no more inferring it from the delta
                        // against the fault-free cycle count.
                        recovery_cycles += rep.breakdown.get(StallClass::FaultRecovery);
                        merged = merged.merge(rep.breakdown);
                    }
                    None => wedged += 1,
                }
            }
            let avg = if done > 0 {
                done_cycles as f64 / done as f64
            } else {
                f64::NAN
            };
            let avg_recovery = if done > 0 {
                recovery_cycles as f64 / done as f64
            } else {
                f64::NAN
            };
            writeln!(
                out,
                "{:>10} {:>8} | {:>10.0} {:>12.1} {:>5.0}%",
                format!("{drop:.2}"),
                pname,
                avg,
                avg_recovery,
                100.0 * wedged as f64 / TRIALS as f64,
            )
            .unwrap();
            // Acceptance: fault-free transfers cost exactly the base
            // cycles, and the breakdown attributes zero recovery cycles,
            // whatever retry capability is available.
            if drop == 0.0 {
                assert_eq!(avg, base as f64, "fault-free run must match baseline");
                assert_eq!(recovery_cycles, 0, "fault-free run charged recovery");
                assert_eq!(wedged, 0);
            }
        }
    }
    merged
}

fn ecc_cost(out: &mut String) {
    let design = compile(
        &AcceleratorSpec::new("ws16", Functionality::matmul(16, 16, 16))
            .with_transform(SpaceTimeTransform::weight_stationary())
            .with_data_bits(32),
    )
    .expect("compile ws16");
    let area_frac = ecc_area_overhead_fraction(&design, &Technology::asap7());
    let energy_ratio = secded_access_energy_ratio(design.data_bits);
    writeln!(out, "\n-- secded cost (32-bit ws16 design) --").unwrap();
    writeln!(out, "area overhead   : {:+.1}% of total", 100.0 * area_frac).unwrap();
    writeln!(
        out,
        "access energy   : x{energy_ratio:.3} per SRAM/regfile word"
    )
    .unwrap();
}

/// Everything one pass of the sweep produces: the printed report plus the
/// machine-readable numbers fed to the metrics pipeline.
struct SweepData {
    text: String,
    sdc_plain: u64,
    sdc_ecc: u64,
    ws_baseline: CycleBreakdown,
    dma_recovery: CycleBreakdown,
}

fn build_report() -> SweepData {
    let mut out = String::new();
    let (sdc_plain, sdc_ecc, ws_baseline) = systolic_sweep(&mut out);
    // Acceptance: with ECC on, silent data corruption must be strictly
    // rarer than without, at equal rates and seeds.
    assert!(
        sdc_ecc < sdc_plain,
        "secded must reduce sdc ({sdc_ecc} !< {sdc_plain})"
    );
    stuck_lane_sweep(&mut out);
    let dma_recovery = dma_sweep(&mut out);
    ecc_cost(&mut out);
    writeln!(
        out,
        "\nSECDED turns silent corruptions into corrected/detected events\n\
         ({sdc_plain} sdc runs without ecc vs {sdc_ecc} with, same seeds), load\n\
         balancing doubles as stuck-lane tolerance, and retry cycles are\n\
         charged to FaultRecovery only when a response is actually lost."
    )
    .unwrap();
    SweepData {
        text: out,
        sdc_plain,
        sdc_ecc,
        ws_baseline,
        dma_recovery,
    }
}

fn main() {
    let mut report = Report::new(
        "e21",
        "fault-injection sweep: rate x ECC x DMA retry policy",
    );
    let data = build_report();
    let again = build_report();
    // Acceptance: the same fault plans produce a byte-identical report and
    // identical cycle attribution.
    assert_eq!(
        data.text, again.text,
        "resilience report must be deterministic"
    );
    assert_eq!(
        data.dma_recovery, again.dma_recovery,
        "cycle attribution must be deterministic"
    );
    print!("{}", data.text);

    report.breakdown("ws_baseline", &data.ws_baseline);
    report.breakdown("dma_reliable_merged", &data.dma_recovery);
    let m = report.metrics();
    m.counter_add("sdc_runs", &[("ecc", "off")], data.sdc_plain);
    m.counter_add("sdc_runs", &[("ecc", "secded")], data.sdc_ecc);
    m.counter_add(
        "dma_fault_recovery_cycles",
        &[],
        data.dma_recovery.get(StallClass::FaultRecovery),
    );
    report.finish("fault sweep deterministic; recovery cycles attributed");
}
