//! The profiling pass behind `run_all --profile`.
//!
//! One profile run exercises the two performance-critical subsystems with
//! their telemetry enabled and consolidates everything into a single
//! envelope-sealed `out/profile.json` (schema [`PROFILE_SCHEMA`]):
//!
//! * **Search funnel** — [`explore_dataflows_profiled`] over the
//!   acceptance-criteria sweep, yielding the per-stage
//!   [`ExploreFunnel`] (whose buckets provably sum to the full
//!   `(2c+1)^(rank²)` candidate space) and per-worker
//!   [`PoolStats`] telemetry.
//! * **Engine introspection** — the e04-scale sparse sweep through
//!   [`simulate_sparse_matmul_traced`], aggregating
//!   [`EngineStats`] (event counts, peak queue depth, compactions, and
//!   the skip-ahead jump-length histogram with percentiles).
//!
//! The profiled sweeps reuse the production entry points: the funnel and
//! worker counters ride on branches those paths already take, so
//! profiling changes no rankings and allocates nothing in the hot loops.
//! How fast those paths run is the business of `benchmark/`, not of this
//! pass.

use std::fmt::Write as _;

use rayon::PoolStats;
use stellar_core::{
    explore_dataflows_profiled, Bounds, ExploreFunnel, ExploreOptions, Functionality,
};
use stellar_sim::metrics::{escape, json_f64};
use stellar_sim::{
    simulate_sparse_matmul_traced, BalancePolicy, EngineStats, Histogram, SparseArrayParams,
    Tracer, Watchdog,
};
use stellar_tensor::{gen, CsrMatrix};

/// The profile report schema identifier. Bump only with a corresponding
/// update to the CI jq checks and DESIGN.md's profiling section.
pub const PROFILE_SCHEMA: &str = "stellar-profile-v3";

/// What to profile.
#[derive(Clone, Debug)]
pub struct ProfileOptions {
    /// Worker parallelism for the explore sweep (also the worker count
    /// the profile reports). `0` uses all cores.
    pub jobs: usize,
    /// Coefficient bound for the explore sweep: `2` is the
    /// acceptance-criteria space (`5^9` candidates), `1` a fast smoke.
    pub max_coeff: i64,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            jobs: 0,
            max_coeff: 2,
        }
    }
}

/// Everything one profile run measured.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Worker parallelism the explore sweep ran with.
    pub jobs: usize,
    /// The search funnel (partition invariants checked).
    pub funnel: ExploreFunnel,
    /// Outcome of [`ExploreFunnel::check`] — `"ok"` or the violated rule.
    pub funnel_check: &'static str,
    /// Per-worker scan telemetry.
    pub workers: PoolStats,
    /// Ranked results the profiled search returned.
    pub explore_results: usize,
    /// Aggregated engine introspection over the sparse sweep.
    pub engine: EngineStats,
    /// Sparse sweep grid points simulated.
    pub sim_points: usize,
    /// Every sweep or grid point that returned an error instead of a
    /// measurement (empty on a healthy run); what it would have
    /// contributed is missing from the counters above.
    pub failures: Vec<String>,
}

/// The e04-scale sparse sweep grid (the workloads of
/// `engine_equivalence::e04_scale_workloads_are_byte_identical`).
fn sim_workloads() -> Vec<CsrMatrix> {
    vec![
        gen::uniform(64, 256, 0.1, 1),
        gen::imbalanced(64, 512, 4, 96, 8, 2),
        gen::imbalanced(64, 512, 2, 256, 4, 3),
        gen::power_law(64, 512, 16.0, 1.7, 4),
    ]
}

const SIM_POLICIES: [BalancePolicy; 3] = [
    BalancePolicy::None,
    BalancePolicy::AdjacentRows,
    BalancePolicy::Global,
];

/// Runs the full profile pass. A sweep that returns an error is listed in
/// [`ProfileReport::failures`]; nothing here panics on one.
pub fn run_profile(opts: &ProfileOptions) -> ProfileReport {
    let mut failures = Vec::new();

    // --- Search funnel + worker telemetry. ---
    let func = Functionality::matmul(3, 3, 3);
    let bounds = Bounds::from_extents(&[3, 3, 3]);
    let explore_opts = ExploreOptions {
        max_coeff: opts.max_coeff,
        keep: 64,
        parallelism: opts.jobs,
        ..ExploreOptions::default()
    };
    let (funnel, workers, explore_results) =
        match explore_dataflows_profiled(&func, &bounds, &explore_opts) {
            Ok(run) => (run.funnel, run.workers, run.results.len()),
            Err(e) => {
                failures.push(format!("explore sweep: {e}"));
                (ExploreFunnel::default(), PoolStats::serial(0, 0.0), 0)
            }
        };

    // --- Engine introspection. ---
    let mut engine = EngineStats::default();
    let mut jump_cycles = Histogram::default();
    let mut sim_points = 0usize;
    for (w, b) in sim_workloads().iter().enumerate() {
        for policy in SIM_POLICIES {
            let params = SparseArrayParams {
                lanes: 8,
                row_startup_cycles: 1,
                balance: policy,
            };
            match simulate_sparse_matmul_traced(
                b,
                &params,
                Watchdog::default_budget(),
                &mut Tracer::disabled(),
            ) {
                Ok((_, stats)) => {
                    engine.events_scheduled += stats.events_scheduled;
                    engine.events_popped += stats.events_popped;
                    engine.max_pending = engine.max_pending.max(stats.max_pending);
                    engine.compactions += stats.compactions;
                    jump_cycles.merge(&stats.jump_cycles);
                    sim_points += 1;
                }
                Err(e) => failures.push(format!("sparse sweep workload {w} {policy:?}: {e}")),
            }
        }
    }
    engine.jump_cycles = jump_cycles;

    ProfileReport {
        jobs: workers.worker_count(),
        funnel_check: funnel.check().err().unwrap_or("ok"),
        funnel,
        workers,
        explore_results,
        engine,
        sim_points,
        failures,
    }
}

/// Renders the report as the `stellar-profile-v3` JSON payload (callers
/// seal it into an envelope via [`crate::durable::write_envelope`]).
/// Every float goes through [`json_f64`], so the document never contains
/// NaN or Inf.
pub fn render_profile_json(r: &ProfileReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{PROFILE_SCHEMA}\",");
    let _ = writeln!(s, "  \"jobs\": {},", r.jobs);
    let _ = writeln!(s, "  \"explore\": {{");
    let funnel: Vec<String> = r
        .funnel
        .fields()
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    let _ = writeln!(s, "    \"funnel\": {{{}}},", funnel.join(", "));
    let _ = writeln!(s, "    \"funnel_check\": \"{}\",", r.funnel_check);
    let _ = writeln!(
        s,
        "    \"worker_utilization\": {},",
        json_f64(r.workers.utilization())
    );
    s.push_str("    \"workers\": [\n");
    for (n, w) in r.workers.workers.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"busy_ms\": {}, \"idle_ms\": {}, \"wall_ms\": {}, \"items\": {}}}",
            json_f64(w.busy_ms),
            json_f64(w.idle_ms()),
            json_f64(w.wall_ms),
            w.items,
        );
        s.push_str(if n + 1 < r.workers.workers.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("    ],\n");
    let _ = writeln!(s, "    \"results\": {}", r.explore_results);
    s.push_str("  },\n");
    let e = &r.engine;
    let h = &e.jump_cycles;
    let _ = writeln!(s, "  \"sim\": {{");
    let _ = writeln!(
        s,
        "    \"engine\": {{\"events_scheduled\": {}, \"events_popped\": {}, \
         \"max_pending\": {}, \"compactions\": {}, \"jump_cycles\": {{\"count\": {}, \
         \"mean\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}}},",
        e.events_scheduled,
        e.events_popped,
        e.max_pending,
        e.compactions,
        h.count,
        json_f64(h.mean()),
        json_f64(if h.count == 0 { 0.0 } else { h.min }),
        json_f64(if h.count == 0 { 0.0 } else { h.max }),
        json_f64(h.p50()),
        json_f64(h.p95()),
        json_f64(h.p99()),
    );
    let _ = writeln!(s, "    \"points\": {}", r.sim_points);
    s.push_str("  },\n");
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let _ = write!(s, "  \"failures\": [{}]\n}}", failures.join(", "));
    s
}

/// Prints the human-readable profile: the funnel table, worker
/// utilization, engine gauges, and any failures.
pub fn print_profile(r: &ProfileReport) {
    crate::header("profile", "search & runtime telemetry");
    let f = &r.funnel;
    // The partition buckets; the tier attributions go on the line below
    // the table and the cache counters stay in the JSON.
    let informational = |name: &str| {
        name.starts_with("analytic_")
            || matches!(
                name,
                "pack_fallback" | "cache_hits" | "cache_misses" | "coalesced"
            )
    };
    let stages: Vec<Vec<String>> = f
        .fields()
        .iter()
        .filter(|(name, _)| !informational(name))
        .map(|(name, v)| vec![name.to_string(), v.to_string()])
        .collect();
    crate::table(&["stage", "candidates"], &stages);
    println!(
        "funnel check: {} (pack fallbacks: {}, analytic scored: {}, analytic rejected: {})",
        r.funnel_check, f.pack_fallback, f.analytic_scored, f.analytic_rejected
    );
    println!(
        "scan workers: {} at {} utilization",
        r.workers.worker_count(),
        crate::pct(r.workers.utilization())
    );
    let e = &r.engine;
    println!(
        "engine: {} events, peak queue {}, {} compactions, jumps {}",
        e.events_scheduled, e.max_pending, e.compactions, e.jump_cycles
    );
    for f in &r.failures {
        println!("FAILED {f}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable;

    #[test]
    fn profile_report_shape_is_stable() {
        let r = run_profile(&ProfileOptions {
            jobs: 2,
            max_coeff: 1,
        });
        assert_eq!(r.failures, Vec::<String>::new());
        // The funnel covers the whole 3^9 smoke space and partitions.
        assert_eq!(r.funnel.decoded, 3u64.pow(9));
        assert_eq!(r.funnel_check, "ok");
        // The analytical tier handles the whole matmul smoke sweep.
        assert_eq!(r.funnel.analytic_scored, r.funnel.scored);
        assert!(r.funnel.analytic_scored > 0);
        assert!(r.workers.worker_count() >= 1 && r.workers.worker_count() <= 2);
        assert_eq!(r.sim_points, 12);
        assert!(r.engine.events_scheduled > 0);
        assert_eq!(r.engine.events_scheduled, r.engine.events_popped);
        assert!(r.engine.jump_cycles.count > 0);
        let json = render_profile_json(&r);
        // Schema, and no NaN/Inf leaves anywhere.
        assert!(json.contains("\"schema\": \"stellar-profile-v3\""));
        assert!(json.ends_with("\"failures\": []\n}"));
        assert!(json.contains("\"analytic_scored\""));
        assert!(json.contains("\"analytic_rejected\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Sealing round-trips.
        let sealed = durable::seal(&json);
        assert_eq!(durable::unseal(&sealed).unwrap(), json);
        // Printing must not panic.
        print_profile(&r);
    }

    #[test]
    fn a_failed_sweep_is_reported_not_panicked() {
        // 201^9 candidates overflow the code space, so the search returns
        // SearchSpaceTooLarge; the sparse sweep still runs.
        let r = run_profile(&ProfileOptions {
            jobs: 1,
            max_coeff: 100,
        });
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].starts_with("explore sweep: "));
        assert_eq!(r.funnel, ExploreFunnel::default());
        assert_eq!(r.explore_results, 0);
        assert_eq!(r.sim_points, 12);
        let json = render_profile_json(&r);
        assert!(json.contains("\"failures\": [\"explore sweep: "));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        print_profile(&r);
    }
}
