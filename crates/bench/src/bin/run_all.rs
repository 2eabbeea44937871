//! Runs every experiment (E1–E21) — the one-command regeneration of the
//! paper's evaluation section — then consolidates the per-experiment
//! `out/e*.json` reports into one schema-stable `out/metrics.json` with
//! harness self-profiling.
//!
//! Each experiment runs in its own process: the scheduler launches
//! `run_all --child NAME`, which runs that one experiment of
//! [`stellar_bench::experiments::ALL`] and exits. `run_all -j N` schedules
//! up to `N` such processes concurrently (they are independent); each
//! child's output is captured and replayed as one contiguous block, and
//! the consolidated metrics are identical in shape to a serial run.
//! `run_all --trace` additionally sets `STELLAR_TRACE=1` for every child,
//! so experiments with traced simulations (e.g. E4) dump Chrome
//! `trace_event` JSON files loadable in Perfetto / `chrome://tracing`.
//!
//! The scheduler is crash-safe and self-healing (see
//! [`stellar_bench::harness`]):
//!
//! * every report travels in a checksummed, schema-versioned envelope
//!   written atomically, so a reader never sees a torn file;
//! * `--timeout SECS` kills a wedged experiment, `--retries N` retries a
//!   failed one with deterministic backoff, and an experiment that still
//!   fails is quarantined (recorded as `failed`/`timed_out`) instead of
//!   aborting the suite;
//! * Ctrl-C drains gracefully: in-flight children finish, a partial
//!   `metrics.json` marked `interrupted` is still flushed, exit code 130;
//! * `--resume` skips experiments whose report validates against the run
//!   nonce stamped in `out/run_state.json`, so `kill -9` mid-suite plus
//!   `run_all --resume` reproduces the uninterrupted run's output;
//! * `--chaos seed=…,kill=…,hang=…,corrupt=…` injects deterministic
//!   child faults so the recovery paths above are testable on demand;
//! * `--validate` checks every envelope under the out dir and exits
//!   nonzero on corruption — the CI integrity gate.

use std::process::ExitCode;
use std::time::Instant;

use stellar_bench::chaos::ChaosPlan;
use stellar_bench::durable;
use stellar_bench::experiments;
use stellar_bench::harness::{
    self, interrupt, ConsolidateCtx, ExperimentStatus, ScheduleOptions, MANIFEST_FILE, SUMMARY_FILE,
};
use stellar_bench::profile;
use stellar_bench::report::out_dir;

const USAGE: &str = "\
usage: run_all [options]
       run_all --child NAME   run one experiment in this process
  -j, --jobs N       concurrent experiment processes (default 1)
      --trace        set STELLAR_TRACE=1 for every child
      --resume       skip experiments whose report validates against
                     the nonce in out/run_state.json
      --timeout S    per-experiment wall-clock budget in seconds
                     (default 900; 0 disables the watchdog)
      --retries N    retries per experiment before quarantine (default 1)
      --nonce S      use this run nonce instead of a fresh one
      --only LIST    comma-separated subset of experiments to run, by id
                     or full name (e.g. --only e01,e04_load_balance,e20)
      --cache        serve dataflow searches from the content-addressed
                     design cache under out/cache (STELLAR_CACHE_DIR for
                     every child); identical queries hit instead of
                     recomputing (off unless given)
      --exe PATH     launch each experiment as `PATH --child NAME`
                     (default: this run_all)
      --chaos SPEC   deterministic fault injection, e.g.
                     seed=7,kill=0.3,hang=0.1,corrupt=0.2,first=1
      --fixed-wall-ms MS  pin every wall-clock field (byte-stable output)
      --profile      after the suite, run the telemetry/profiling pass
                     (search funnel, worker stats, engine gauges) and
                     write envelope-sealed out/profile.json
      --validate     verify every envelope under the out dir and exit";

/// Everything the CLI decided.
struct Cli {
    opts: ScheduleOptions,
    resume: bool,
    requested_nonce: Option<String>,
    validate: bool,
    profile: bool,
}

/// Parses the argument list into a [`Cli`].
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate run_all itself: {e}"))?;
    let mut opts = ScheduleOptions::suite(String::new(), out_dir(), exe);
    let mut resume = false;
    let mut requested_nonce = None;
    let mut validate = false;
    let mut profile = false;
    let mut cache = false;

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match a.as_str() {
            "--trace" => opts.trace = true,
            "--resume" => resume = true,
            "--validate" => validate = true,
            "--profile" => profile = true,
            "-j" | "--jobs" => opts.jobs = parse_jobs(&take(a)?)?,
            "--timeout" => {
                let v = take(a)?;
                let secs: u64 = v.parse().map_err(|_| format!("invalid timeout {v:?}"))?;
                opts.timeout_ms = secs.saturating_mul(1_000);
            }
            "--retries" => {
                let v = take(a)?;
                opts.retries = v
                    .parse()
                    .map_err(|_| format!("invalid retry count {v:?}"))?;
            }
            "--nonce" => requested_nonce = Some(take(a)?),
            "--chaos" => opts.chaos = Some(ChaosPlan::parse(&take(a)?)?),
            "--exe" => opts.exe = take(a)?.into(),
            "--fixed-wall-ms" => {
                let v = take(a)?;
                opts.fixed_wall_ms =
                    Some(v.parse().map_err(|_| format!("invalid wall-clock {v:?}"))?);
            }
            "--only" => opts.experiments = harness::select_experiments(&take(a)?)?,
            "--cache" => cache = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => {
                if let Some(v) = other.strip_prefix("--jobs=") {
                    opts.jobs = parse_jobs(v)?;
                } else if let Some(v) = other.strip_prefix("-j") {
                    opts.jobs = parse_jobs(v)?;
                } else {
                    return Err(format!("unknown argument {other:?}\n{USAGE}"));
                }
            }
        }
    }
    if cache {
        // The durable design cache lives beside the reports and survives
        // runs; children pick it up via STELLAR_CACHE_DIR.
        opts.cache_dir = Some(opts.out_dir.join("cache"));
    }
    Ok(Cli {
        opts,
        resume,
        requested_nonce,
        validate,
        profile,
    })
}

/// A worker count for `-j N`, `--jobs N`, `--jobs=N` or `-jN`: a whole
/// number of at least 1.
fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("invalid worker count {v:?}"))
}

/// `run_all --child NAME`: runs one experiment, found by id or full name
/// as `--only` finds it, and exits with its status. No SIGINT handler, no
/// manifest, no consolidation: the parent scheduler owns those.
fn run_child(args: &[String]) -> ExitCode {
    let [name] = args else {
        eprintln!("run_all: --child expects one experiment name\n{USAGE}");
        return ExitCode::from(2);
    };
    match experiments::find(name) {
        Some(e) => (e.run)(),
        None => {
            eprintln!("run_all: unknown experiment {name:?}");
            ExitCode::from(2)
        }
    }
}

/// `--validate`: every `*.json` under the out dir that claims to be an
/// envelope must unseal cleanly. Returns the number of invalid files.
fn validate_out_dir(dir: &std::path::Path) -> usize {
    let mut checked = 0usize;
    let mut invalid = 0usize;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("run_all: cannot read {}: {e}", dir.display());
            return 1;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let Ok(body) = std::fs::read_to_string(&path) else {
            continue;
        };
        if !durable::is_envelope(&body) {
            continue; // traces are bare JSON by design
        }
        checked += 1;
        match durable::unseal(&body) {
            Ok(_) => println!("valid    {}", path.display()),
            Err(e) => {
                invalid += 1;
                eprintln!("INVALID  {}: {e}", path.display());
            }
        }
    }
    println!("validated {checked} envelope(s), {invalid} invalid");
    invalid
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--child") {
        return run_child(&args[1..]);
    }
    let cli = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("run_all: {e}");
            std::process::exit(2);
        }
    };
    let mut opts = cli.opts;
    let dir = opts.out_dir.clone();

    if cli.validate {
        std::process::exit(if validate_out_dir(&dir) == 0 { 0 } else { 1 });
    }

    interrupt::install_sigint_handler();

    let prepared = match harness::prepare_run(
        &dir,
        &opts.experiments,
        opts.trace,
        cli.resume,
        cli.requested_nonce,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("run_all: cannot stamp the run manifest: {e}");
            std::process::exit(1);
        }
    };
    opts.nonce = prepared.nonce.clone();
    if prepared.resumed_count() > 0 {
        println!(
            "resuming run {}: {} of {} experiment(s) already have validated reports",
            prepared.nonce,
            prepared.resumed_count(),
            opts.experiments.len()
        );
    }

    let total = Instant::now();
    let outcomes = harness::run_experiments(&opts, &prepared);
    let total_ms = total.elapsed().as_secs_f64() * 1e3;
    let interrupted = interrupt::interrupted();

    let ctx = ConsolidateCtx {
        out_dir: &dir,
        trace: opts.trace,
        jobs: opts.jobs,
        total_ms,
        nonce: Some(&opts.nonce),
        interrupted,
        fixed_wall_ms: opts.fixed_wall_ms,
    };
    let json = harness::consolidate(&ctx, &outcomes);
    let path = dir.join("metrics.json");
    match durable::write_envelope(&path, &json) {
        Ok(()) => println!("\nconsolidated metrics -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write consolidated metrics: {e}"),
    }
    let summary = harness::render_run_summary(&opts.nonce, &outcomes, interrupted);
    if let Err(e) = durable::write_envelope(&dir.join(SUMMARY_FILE), &summary) {
        eprintln!("warning: could not write run summary: {e}");
    }
    if !interrupted && outcomes.iter().all(|o| o.status == ExperimentStatus::Ok) {
        // The run is complete; a later `--resume` must not splice these
        // reports into a new run, so retire the manifest.
        let _ = std::fs::remove_file(dir.join(MANIFEST_FILE));
    }

    if cli.profile && !interrupted {
        // The profiling pass: search funnel + worker telemetry and engine
        // introspection. Its findings land in profile.json (CI gates on
        // it with jq); the exit code stays the suite's.
        let popts = profile::ProfileOptions {
            jobs: opts.jobs,
            ..profile::ProfileOptions::default()
        };
        let report = profile::run_profile(&popts);
        profile::print_profile(&report);
        let path = dir.join("profile.json");
        match durable::write_envelope(&path, &profile::render_profile_json(&report)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write profile: {e}"),
        }
    }

    let failures: Vec<&str> = outcomes.iter().filter_map(|o| o.error.as_deref()).collect();
    println!(
        "\n=== run_all: {} experiments, {} worker(s), {:.0} ms ===",
        opts.experiments.len(),
        opts.jobs,
        opts.fixed_wall_ms.unwrap_or(total_ms)
    );
    if interrupted {
        for f in &failures {
            eprintln!("INCOMPLETE {f}");
        }
        eprintln!("run interrupted; partial metrics flushed — re-run with --resume to finish");
        std::process::exit(130);
    }
    if failures.is_empty() {
        println!("all experiments completed");
    } else {
        for f in &failures {
            eprintln!("FAILED {f}");
        }
        std::process::exit(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(args: &[&str]) -> Result<usize, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|cli| cli.opts.jobs)
    }

    #[test]
    fn every_worker_count_spelling_parses_alike() {
        assert_eq!(jobs(&[]), Ok(1));
        assert_eq!(jobs(&["-j", "2"]), Ok(2));
        assert_eq!(jobs(&["--jobs", "3"]), Ok(3));
        assert_eq!(jobs(&["--jobs=4"]), Ok(4));
        assert_eq!(jobs(&["-j5"]), Ok(5));
        for bad in [&["-j", "0"][..], &["--jobs", "0"], &["--jobs=0"], &["-j0"]] {
            assert_eq!(jobs(bad), Err("invalid worker count \"0\"".to_string()));
        }
        for bad in [&["-j", "x"][..], &["--jobs", "x"], &["--jobs=x"], &["-jx"]] {
            assert_eq!(jobs(bad), Err("invalid worker count \"x\"".to_string()));
        }
        assert_eq!(jobs(&["-j"]), Err("-j expects a value".to_string()));
    }
}
