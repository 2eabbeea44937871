//! One absolute benchmark for the whole Stellar pipeline: six named
//! workloads, end-to-end metrics from an untraced run, per-layer metrics
//! from a separate traced run. See `benchmark/README.md`.

mod adapters;
mod compare;
mod gen;
mod host;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use run::{Outcome, RunArgs};

const USAGE: &str = "\
usage: stellar-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       stellar-benchmark all [--seed N] [--seconds S] [--quick] [--out FILE]
       stellar-benchmark selfcheck [--seed N] [--seconds S] [--quick]
       stellar-benchmark compare A.json... --vs B.json...
       stellar-benchmark noise SET.json... [--out FILE]
       stellar-benchmark manifest

One run prints its metric table and, as the last line of standard output,
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.";

const DEFAULT_SEED: u64 = 1;
/// Full sets each side of a `selfcheck` runs; a side's value is their median.
const SELFCHECK_SETS: usize = 3;

pub fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "search_mc3" => run::run::<workloads::search::Search>(args),
        "compile_emit" => run::run::<workloads::compile::Compile>(args),
        "sim_models" => run::run::<workloads::sim::Sim>(args),
        "serve_hot" => run::run::<workloads::serve::Hot>(args),
        "serve_churn" => run::run::<workloads::serve::Churn>(args),
        "suite_run_all" => run::run::<workloads::suite::Suite>(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Flags common to the subcommands, checked where they enter.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
    vs: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
        files: Vec::new(),
        vs: Vec::new(),
    };
    let mut it = args.iter();
    let mut after_vs = false;
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match a.as_str() {
            "--workload" => f.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(f.seconds > 0.0 && f.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                f.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => f.quick = true,
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            "--vs" => after_vs = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file if after_vs => f.vs.push(file.to_string()),
            file => f.files.push(file.to_string()),
        }
    }
    Ok(f)
}

fn record_path(workload: &str, traced: bool) -> PathBuf {
    host::out_dir().join(format!(
        "run-{workload}-{}.json",
        if traced { "traced" } else { "untraced" }
    ))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn one_run(f: &Flags) -> Result<bool, String> {
    let args = RunArgs {
        workload: f.workload.clone().ok_or("--workload is required")?,
        seed: f.seed,
        seconds: f.seconds,
        traced: f.trace,
        quick: f.quick,
    };
    let outcome = run_workload(&args)?;
    write_file(
        &record_path(&args.workload, args.traced),
        &outcome.record().render(),
    )?;
    print!("{}", outcome.table());
    println!("{}", outcome.driver_line());
    Ok(outcome.correct())
}

/// Runs every workload in its own process, untraced and then, with
/// `traced_too`, traced, and returns the merged result.
fn full_set(f: &Flags, traced_too: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let modes: &[bool] = if traced_too { &[false, true] } else { &[false] };
    for &traced in modes {
        for w in metrics::WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &f.seed.to_string()])
                .args([
                    "--seconds",
                    &f.seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .stdin(Stdio::null());
            if f.quick {
                cmd.arg("--quick");
            }
            // The child's table is for the reader; its last line is the
            // driver's and is dropped here.
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let table: Vec<&str> = text.lines().collect();
            println!("{}", table[..table.len().saturating_sub(1)].join("\n"));
            if !out.status.success() {
                return Err(format!(
                    "{} ({}) failed",
                    w.name,
                    if traced { "traced" } else { "untraced" }
                ));
            }
            let path = record_path(w.name, traced);
            let record =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(json::parse(&record)?);
        }
    }
    // Workloads whose run raised a flag, named once per set so a reader
    // need not search the runs.
    let flagged = |flag: &str| {
        let mut names: Vec<Value> = Vec::new();
        for r in &runs {
            let name = r.get("workload").cloned().unwrap_or(Value::Null);
            if r.get(flag).and_then(Value::as_bool) == Some(true) && !names.contains(&name) {
                names.push(name);
            }
        }
        Value::Arr(names)
    };
    Ok(Value::obj(vec![
        ("schema", Value::str("stellar-benchmark-result-v1")),
        ("host", run::host_record()),
        ("seed", Value::Num(f.seed as f64)),
        ("seconds", Value::Num(f.seconds)),
        ("noisy_host", flagged("noisy_host")),
        ("layers_suspect", flagged("layers_suspect")),
        ("runs", Value::Arr(runs)),
    ]))
}

fn read_results(files: &[String]) -> Result<Vec<Value>, String> {
    files
        .iter()
        .map(|p| {
            json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
                .map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", args),
    };
    let f = parse_flags(rest)?;
    match cmd {
        "run" => one_run(&f),
        "all" => {
            let result = full_set(&f, true)?;
            let path = f
                .out
                .clone()
                .unwrap_or_else(|| host::out_dir().join("result.json"));
            write_file(&path, &result.render())?;
            for flag in ["noisy_host", "layers_suspect"] {
                let names = result.get(flag).map_or(String::new(), Value::render);
                if names != "[]" {
                    println!("{flag}: {names}");
                }
            }
            println!("wrote {}", path.display());
            Ok(result
                .get("runs")
                .and_then(Value::as_arr)
                .is_some_and(|runs| {
                    runs.iter()
                        .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true))
                }))
        }
        "selfcheck" => {
            // The two sides' sets alternate, so a drift of the machine
            // falls on both; a side's value is the median over its sets.
            let (mut first, mut second) = (Vec::new(), Vec::new());
            for n in 0..SELFCHECK_SETS {
                for (side, sets) in [("a", &mut first), ("b", &mut second)] {
                    let set = full_set(&f, false)?;
                    write_file(
                        &host::out_dir().join(format!("selfcheck-{side}{n}.json")),
                        &set.render(),
                    )?;
                    sets.push(set);
                }
            }
            let off = compare::disagreements(&first, &second);
            for line in &off {
                println!("selfcheck: {line}");
            }
            println!(
                "selfcheck: {}",
                if off.is_empty() {
                    "both sides agree within every bound"
                } else {
                    "FAILED"
                }
            );
            Ok(off.is_empty())
        }
        "compare" => {
            if f.files.is_empty() || f.vs.is_empty() {
                return Err("compare needs result files on both sides of --vs".to_string());
            }
            let (table, regressed) =
                compare::compare(&read_results(&f.files)?, &read_results(&f.vs)?);
            print!("{table}");
            Ok(!regressed)
        }
        "noise" => {
            if f.files.len() < 2 {
                return Err("noise needs at least two result files of one build".to_string());
            }
            let (table, summary) = compare::noise(&read_results(&f.files)?);
            print!("{table}");
            if let Some(path) = &f.out {
                write_file(path, &(summary.render() + "\n"))?;
            }
            Ok(true)
        }
        "manifest" => {
            print!("{}", metrics::manifest_text());
            Ok(true)
        }
        "help" => {
            println!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stellar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Needs the repository's release binaries (`cargo build --release` at
    /// the root, or `benchmark/run.sh`), which `serve_*` and `suite_run_all`
    /// run as children.
    #[test]
    fn quick_mode_runs_every_workload_and_check_within_twenty_seconds() {
        let started = Instant::now();
        for w in metrics::WORKLOADS {
            for traced in [false, true] {
                let args = RunArgs {
                    workload: w.name.to_string(),
                    seed: 3,
                    seconds: 0.5,
                    traced,
                    quick: true,
                };
                let out = run_workload(&args)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name));
                assert!(out.correct(), "{}: {:?}", w.name, out.checks.failures);
                assert!(out.checks.attempted > 0 && out.checks.failed == 0);

                let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
                if traced {
                    assert_eq!(
                        names,
                        metrics::PER_LAYER
                            .iter()
                            .map(|m| m.name)
                            .collect::<Vec<_>>()
                    );
                    let overhead = out
                        .metrics
                        .iter()
                        .find(|m| m.0 == "trace.overhead_share")
                        .unwrap()
                        .1;
                    assert!(overhead.abs() < 0.5, "{}: overhead {overhead}", w.name);
                } else {
                    assert_eq!(
                        names,
                        metrics::END_TO_END
                            .iter()
                            .map(|m| m.name)
                            .collect::<Vec<_>>()
                    );
                    for (name, v, _) in &out.metrics {
                        assert!(*v > 0.0, "{} {name} must never read 0", w.name);
                    }
                }

                // The driver's line has exactly its four keys, and the
                // record round-trips with every name well-formed.
                let line = json::parse(&out.driver_line()).unwrap();
                let keys: Vec<&str> = line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let record = out.record();
                assert_eq!(json::parse(&record.render()).unwrap(), record);
                for (name, m) in record.get("metrics").and_then(Value::as_obj).unwrap() {
                    assert!(metrics::valid_name(name), "{name}");
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                }
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "quick mode took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn flags_are_checked_where_they_enter() {
        let parse =
            |s: &str| parse_flags(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let f = parse("--workload sim_models --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (f.workload.as_deref(), f.seed, f.seconds, f.trace),
            (Some("sim_models"), 9, 2.5, true)
        );
        assert_eq!(parse("").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seconds 1e9",
            "--bogus",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let f = parse("a.json b.json --vs c.json").unwrap();
        assert_eq!((f.files.len(), f.vs.len()), (2, 1));
        assert!(run_workload(&RunArgs {
            workload: "nope".into(),
            seed: 0,
            seconds: 1.0,
            traced: false,
            quick: true
        })
        .is_err());
    }
}
