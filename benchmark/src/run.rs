//! One run of one workload: repeated set-up, the timed closed loop, output
//! checks, the metrics, and the files the run leaves under `benchmark/out`.
//!
//! The load generator is this one process, closed loop: the next iteration
//! (or request) starts when the previous one has returned.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host::{self, Usage};
use crate::json::Value;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;

/// Times set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Iterations the timed loop makes at least, however long they take.
pub const MIN_ITERATIONS: usize = 3;
/// A traced run whose `trace.overhead_share` is this far from 0 in either
/// direction marks its per-layer numbers as suspect: recording cost that
/// much, or the machine moved that much between alternate iterations.
pub const MAX_TRACE_OVERHEAD: f64 = 0.05;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Two iterations of shrunken inputs: exercises every check, measures
    /// nothing worth keeping.
    pub quick: bool,
}

/// Output checks: how many were made, how many failed, and the first few
/// failures in words.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn verdict(&mut self, r: Result<(), String>) {
        let msg = r.as_ref().err().cloned().unwrap_or_default();
        self.check(r.is_ok(), || msg);
    }
}

/// Which process an iteration's CPU time and peak memory are read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measured {
    /// The benchmark process itself (in-process workloads).
    This,
    /// A live child, by pid (`stellar_serve`).
    Child(u32),
    /// Children spawned and waited for in each iteration (`run_all`).
    Waited,
}

/// What one timed iteration did.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// Units of the workload's `work_per_s` done.
    pub work: f64,
    pub output_bytes: u64,
    /// Seconds of the iteration that were the client's own bookkeeping
    /// (checking responses), to leave out of its wall time.
    pub excluded: Duration,
    /// Per-request latencies, where the workload has requests.
    pub latencies_us: Vec<f64>,
}

/// Per-layer values a workload adds to those derived from its spans.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    /// The share of a traced run's time its loop takes; `layers` gets the
    /// rest for extra measurements. A workload whose `layers` makes none
    /// takes it all, and has that many more iterations to report.
    const TRACED_LOOP_SHARE: f64 = 0.5;

    /// Builds inputs, starts children, warms caches and runs one discarded
    /// warm-up iteration: everything before the first timed operation.
    fn setup(args: &RunArgs, tr: &mut Tracer) -> Result<Self, String>;

    fn measured(&self) -> Measured;

    /// CPU time and peak memory of measured processes that have already
    /// exited (a restarted service's first incarnation).
    fn exited(&self) -> Usage {
        Usage::default()
    }

    fn iterate(
        &mut self,
        n: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Iteration, String>;

    /// Checks made once, after the timed loop.
    fn final_checks(&mut self, _checks: &mut Checks) -> Result<(), String> {
        Ok(())
    }

    /// The traced run's layer metrics, from the spans of the recorded
    /// set-up and of the traced iterations, plus whatever extra
    /// measurements the workload makes within `budget`, recorded in `tr`.
    fn layers(
        &mut self,
        args: &RunArgs,
        budget: Duration,
        spans: &Spans,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String>;

    /// Stops children and removes scratch files.
    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

/// The spans of a traced run, totalled by name.
#[derive(Default)]
pub struct Spans {
    /// The one recorded set-up.
    pub setup: SpanSamples,
    /// One sample per traced iteration.
    pub iterations: SpanSamples,
}

/// Per span name: `(self seconds, calls)` samples.
#[derive(Default)]
pub struct SpanSamples(BTreeMap<&'static str, Vec<(f64, u64)>>);

impl SpanSamples {
    /// Median over samples of the name's summed self time, seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| {
            stats::median(&v.iter().map(|(s, _)| *s).collect::<Vec<_>>())
        })
    }

    fn push(&mut self, tr: &Tracer, mark: usize) {
        for (name, t) in tr.totals_since(mark) {
            self.0
                .entry(name)
                .or_default()
                .push((t.self_ns as f64 / 1e9, t.count));
        }
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub args: RunArgs,
    pub checks: Checks,
    pub iterations: usize,
    pub samples: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub setup_samples: Vec<f64>,
    /// Wall time of every untraced iteration, in run order.
    pub iteration_samples: Vec<f64>,
    /// Seconds the hypervisor stole from this machine's CPUs during the run.
    pub steal_s: f64,
    pub load_before: f64,
    pub load_after: f64,
    /// CPUs the rest of the machine kept busy while this run slept before
    /// its set-up, and whether that left the run less than one CPU. Judged
    /// then, because `serve_hot` goes on to pin itself to one CPU.
    pub others_busy_cpus: f64,
    pub noisy_host: bool,
    pub p999_us: Option<f64>,
    pub timed_s: f64,
}

/// CPU time so far and peak memory of the workload's measured processes.
fn usage_of<W: Workload>(w: &W) -> Usage {
    let live = match w.measured() {
        Measured::This => host::usage_self(),
        Measured::Child(pid) => host::usage_of_pid(pid),
        Measured::Waited => host::usage_children(),
    };
    let exited = w.exited();
    Usage {
        cpu: live.cpu + exited.cpu,
        peak_rss_mib: live.peak_rss_mib.max(exited.peak_rss_mib),
    }
}

pub fn run<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    let load_before = host::loadavg();
    let others_busy_cpus = host::others_busy_cpus();
    let noisy_host = host::is_noisy(others_busy_cpus);
    let mut tr = Tracer::new(false);
    let mut checks = Checks::default();

    // Set-up, several times; the last one stays for the timed loop. In a
    // traced run the last set-up is recorded, for the set-up layers.
    let mut setup_samples = Vec::new();
    let mut kept = None;
    let reps = if args.quick { 1 } else { SETUP_REPS };
    for rep in 0..reps {
        tr.set_enabled(args.traced && rep + 1 == reps);
        let t0 = Instant::now();
        let w = W::setup(args, &mut tr)?;
        setup_samples.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps {
            kept = Some(w);
        } else {
            w.teardown()?;
        }
    }
    let mut w = kept.ok_or("no set-up ran")?;
    let mut spans = Spans::default();
    if args.traced {
        spans.setup.push(&tr, 0);
    }

    // The timed loop. A traced run alternates iterations with recording off
    // and on, and leaves the workload time for its extra layer measurements.
    let loop_seconds = if args.traced {
        args.seconds * W::TRACED_LOOP_SHARE
    } else {
        args.seconds
    };
    let min_iterations = if args.quick { 2 } else { MIN_ITERATIONS };
    let cpu0 = usage_of(&w).cpu;
    let (mut walls_plain, mut walls_traced) = (Vec::new(), Vec::new());
    let steal0 = host::steal_s();
    let (mut work, mut output_bytes) = (0.0, 0u64);
    // Request latencies, in windows of whole iterations each long enough to
    // support a 99th percentile.
    let mut windows: Vec<Vec<f64>> = vec![Vec::new()];
    let started = Instant::now();
    let mut n = 0u64;
    while (started.elapsed().as_secs_f64() < loop_seconds && !args.quick)
        || (n as usize) < min_iterations
    {
        let recording = args.traced && n % 2 == 1;
        tr.set_enabled(recording);
        let mark = tr.mark();
        let t0 = Instant::now();
        let it = w.iterate(n, &mut tr, &mut checks)?;
        let wall = t0.elapsed().saturating_sub(it.excluded).as_secs_f64();
        if recording {
            walls_traced.push(wall);
            spans.iterations.push(&tr, mark);
        } else {
            walls_plain.push(wall);
        }
        work = it.work;
        output_bytes = it.output_bytes;
        if !recording && !it.latencies_us.is_empty() {
            if stats::supports(windows.last().map_or(0, Vec::len), 0.99) {
                windows.push(Vec::new());
            }
            if let Some(w) = windows.last_mut() {
                w.extend(it.latencies_us);
            }
        }
        n += 1;
    }
    tr.set_enabled(false);
    let timed_s = started.elapsed().as_secs_f64();
    let Usage {
        cpu: cpu1,
        peak_rss_mib,
    } = usage_of(&w);
    w.final_checks(&mut checks)?;

    let iter_wall_s = stats::median(&walls_plain);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut p999_us = None;
    if args.traced {
        let mut layers: Layers = BTreeMap::new();
        layers.insert("output_bytes", output_bytes as f64);
        // Each recorded iteration against the plain one just before it, so
        // that a drift of the machine falls on both; then the median pair.
        let ratios: Vec<f64> = walls_plain
            .iter()
            .zip(&walls_traced)
            .map(|(plain, traced)| traced / plain)
            .collect();
        if !ratios.is_empty() {
            layers.insert("trace.overhead_share", stats::median(&ratios) - 1.0);
        }
        let budget = Duration::from_secs_f64((args.seconds - timed_s).max(args.seconds * 0.2));
        tr.set_enabled(true);
        w.layers(args, budget, &spans, &mut tr, &mut layers)?;
        tr.set_enabled(false);
        for name in layers.keys() {
            if !PER_LAYER.iter().any(|m| m.name == *name) {
                return Err(format!("layer metric {name} is not in the table"));
            }
        }
        for m in PER_LAYER {
            metrics.push((m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit));
        }
    } else {
        // A query is a request where the workload has requests, else an
        // iteration. The tail is each window's own 99th percentile, then
        // the median over windows: a few seconds of a stolen processor fill
        // the top hundredth of a whole run, but only some of its windows.
        let tails: Vec<f64> = windows
            .iter()
            .filter(|w| stats::supports(w.len(), 0.99))
            .map(|w| stats::percentile(w, 0.99))
            .collect();
        let mut queries: Vec<f64> = windows.concat();
        if queries.is_empty() {
            queries = walls_plain.iter().map(|w| w * 1e6).collect();
        }
        if stats::supports(queries.len(), 0.999) {
            p999_us = Some(stats::percentile(&queries, 0.999));
        }
        let value = |name: &str| match name {
            "setup_s" => stats::median(&setup_samples),
            "iter_wall_s" => iter_wall_s,
            "work_per_s" => work / iter_wall_s,
            "cpu_s_per_iter" => cpu1.saturating_sub(cpu0).as_secs_f64() / n as f64,
            "query_p50_us" => stats::median(&queries),
            "query_p99_us" if tails.is_empty() => stats::median(&queries),
            "query_p99_us" => stats::median(&tails),
            "peak_rss_mb" => peak_rss_mib,
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        for m in END_TO_END {
            metrics.push((m.name, value(m.name), m.unit));
        }
    }
    let samples = if args.traced {
        walls_traced.len()
    } else {
        walls_plain.len()
    };

    if args.traced {
        let quick = if args.quick { "-quick" } else { "" };
        let path = host::out_dir().join(format!("trace-{}{quick}.json", args.workload));
        std::fs::create_dir_all(host::out_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, tr.chrome_json(&args.workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.teardown()?;
    Ok(Outcome {
        args: args.clone(),
        checks,
        iterations: n as usize,
        samples,
        metrics,
        setup_samples,
        iteration_samples: walls_plain,
        steal_s: host::steal_s() - steal0,
        load_before,
        load_after: host::loadavg(),
        others_busy_cpus,
        noisy_host,
        p999_us,
        timed_s,
    })
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// Whether a traced run's own overhead puts its per-layer numbers in
    /// doubt.
    pub fn layers_suspect(&self) -> bool {
        self.metrics
            .iter()
            .any(|(name, v, _)| *name == "trace.overhead_share" && v.abs() >= MAX_TRACE_OVERHEAD)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in table order.
    fn metrics_value(&self) -> Value {
        let one = |(name, v, unit): &(&str, f64, &str)| {
            let m = Value::obj(vec![("value", Value::Num(*v)), ("unit", Value::str(*unit))]);
            (name.to_string(), m)
        };
        Value::Obj(self.metrics.iter().map(one).collect())
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
        .render()
    }

    /// The run's record for `result.json`: the driver line's content plus
    /// the noise-hygiene facts.
    pub fn record(&self) -> Value {
        let def = metrics::workload(&self.args.workload);
        Value::obj(vec![
            ("workload", Value::str(self.args.workload.as_str())),
            ("traced", Value::Bool(self.args.traced)),
            ("seed", Value::Num(self.args.seed as f64)),
            ("seconds", Value::Num(self.args.seconds)),
            ("quick", Value::Bool(self.args.quick)),
            ("work_unit", Value::str(def.map_or("", |d| d.work_unit))),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            (
                "failed_share",
                Value::Num(self.checks.failed as f64 / self.checks.attempted.max(1) as f64),
            ),
            (
                "failures",
                Value::Arr(
                    self.checks
                        .failures
                        .iter()
                        .map(|f| Value::str(f.as_str()))
                        .collect(),
                ),
            ),
            ("iterations", Value::Num(self.iterations as f64)),
            ("samples", Value::Num(self.samples as f64)),
            ("timed_s", Value::Num(self.timed_s)),
            (
                "setup_samples_s",
                Value::Arr(self.setup_samples.iter().map(|s| Value::Num(*s)).collect()),
            ),
            (
                "iter_wall_samples_s",
                Value::Arr(
                    self.iteration_samples
                        .iter()
                        .map(|s| Value::Num(*s))
                        .collect(),
                ),
            ),
            ("steal_s", Value::Num(self.steal_s)),
            (
                "query_p999_us",
                self.p999_us.map_or(Value::Null, Value::Num),
            ),
            ("loadavg_before", Value::Num(self.load_before)),
            ("loadavg_after", Value::Num(self.load_after)),
            ("others_busy_cpus_before", Value::Num(self.others_busy_cpus)),
            ("noisy_host", Value::Bool(self.noisy_host)),
            ("layers_suspect", Value::Bool(self.layers_suspect())),
            ("metrics", self.metrics_value()),
        ])
    }

    /// The metric table, for people.
    pub fn table(&self) -> String {
        let def = metrics::workload(&self.args.workload);
        let mut s = format!(
            "{} ({}) seed {} — {} iterations in {:.1} s, {} checks, {} failed{}\n",
            self.args.workload,
            if self.args.traced {
                "traced, per layer"
            } else {
                "untraced, end to end"
            },
            self.args.seed,
            self.iterations,
            self.timed_s,
            self.checks.attempted,
            self.checks.failed,
            if self.noisy_host { " [noisy host]" } else { "" },
        );
        for (name, v, unit) in &self.metrics {
            if self.args.traced && *v == 0.0 {
                continue;
            }
            let unit = if *name == "work_per_s" {
                format!("{}/s", def.map_or("", |d| d.work_unit))
            } else {
                unit.to_string()
            };
            s.push_str(&format!("  {name:<36} {v:>18.6} {unit}\n"));
        }
        if let Some(p) = self.p999_us {
            s.push_str(&format!(
                "  {:<36} {p:>18.6} us (informational)\n",
                "query_p999_us"
            ));
        }
        if self.layers_suspect() {
            s.push_str(&format!(
                "  SUSPECT: |trace.overhead_share| >= {MAX_TRACE_OVERHEAD}, so this run's per-layer numbers are in doubt\n"
            ));
        }
        for f in &self.checks.failures {
            s.push_str(&format!("  FAILED: {f}\n"));
        }
        s
    }
}

/// Facts about the machine and build, recorded once per result file.
pub fn host_record() -> Value {
    let scratch = host::out_dir();
    Value::obj(vec![
        ("nproc", Value::Num(host::nproc() as f64)),
        ("load_threads", Value::Num(host::load_threads() as f64)),
        ("cpu_model", Value::str(host::cpu_model())),
        ("scratch_dir", Value::str(scratch.display().to_string())),
        (
            "scratch_fs",
            Value::str(host::fs_type_of(host::benchmark_dir())),
        ),
        ("git_commit", Value::str(git_commit())),
    ])
}

/// The checked-out commit, read from `.git` without running git; a checkout
/// that is not a repository records `unknown`.
fn git_commit() -> String {
    let git = host::benchmark_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_outcome(overhead: f64) -> Outcome {
        Outcome {
            args: RunArgs {
                workload: "sim_models".into(),
                seed: 1,
                seconds: 1.0,
                traced: true,
                quick: true,
            },
            checks: Checks::default(),
            iterations: 2,
            samples: 1,
            metrics: vec![("trace.overhead_share", overhead, "ratio")],
            setup_samples: vec![0.1],
            iteration_samples: vec![0.1],
            steal_s: 0.0,
            load_before: 0.0,
            load_after: 0.0,
            others_busy_cpus: 0.0,
            noisy_host: false,
            p999_us: None,
            timed_s: 1.0,
        }
    }

    #[test]
    fn an_overhead_of_a_twentieth_either_way_marks_the_layers_suspect() {
        for (overhead, suspect) in [(0.01, false), (-0.04, false), (0.05, true), (-0.1, true)] {
            let out = traced_outcome(overhead);
            assert_eq!(out.layers_suspect(), suspect, "{overhead}");
            assert_eq!(
                out.record().get("layers_suspect"),
                Some(&Value::Bool(suspect))
            );
            assert_eq!(out.table().contains("SUSPECT"), suspect);
        }
    }

    #[test]
    fn the_noisy_flag_follows_foreign_load_not_the_load_average() {
        let mut out = traced_outcome(0.0);
        out.load_before = 64.0;
        assert_eq!(out.record().get("noisy_host"), Some(&Value::Bool(false)));
        out.noisy_host = host::is_noisy(host::nproc() as f64);
        assert_eq!(out.record().get("noisy_host"), Some(&Value::Bool(true)));
        assert!(out.table().contains("[noisy host]"));
    }
}
