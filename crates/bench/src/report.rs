//! The shared experiment-report pipeline.
//!
//! Every experiment used to format and print its own results ad hoc;
//! this module gives them one lifecycle: open a [`Report`], record
//! metrics and cycle breakdowns into its [`MetricsRegistry`], then
//! [`Report::finish`] — which stamps the wall-clock self-profile, writes
//! a schema-stable `out/<id>.json`, optionally dumps the Chrome trace
//! collected during the run, and prints a one-line summary. `run_all`
//! consolidates the per-experiment files into `out/metrics.json`.
//!
//! Configuration is explicit: a [`Report`] is built from
//! [`ReportOptions`], and only [`ReportOptions::from_env`] (the path the
//! experiments take) reads the `STELLAR_*` environment variables that
//! `run_all` sets for its children. Tests and embedders construct options
//! directly — nothing in this module ever *mutates* the process
//! environment, which would race across threads.
//!
//! Tracing is opt-in via the `STELLAR_TRACE` environment variable (set
//! by `run_all --trace`), so the default path stays allocation- and
//! branch-cheap. When `run_all` schedules the experiment it also passes a
//! per-run nonce (`STELLAR_RUN_NONCE`) that is stamped into the emitted
//! JSON, letting the consolidator reject stale reports left over from
//! earlier runs.

use std::path::PathBuf;

use stellar_sim::metrics::escape;
use stellar_sim::{CycleBreakdown, MetricsRegistry, Stopwatch, Tracer, DEFAULT_TRACE_CAPACITY};

/// Environment variable that enables span tracing in experiments.
pub const TRACE_ENV: &str = "STELLAR_TRACE";

/// Environment variable overriding the output directory (default `out`).
pub const OUT_DIR_ENV: &str = "STELLAR_OUT_DIR";

/// Environment variable carrying `run_all`'s per-run nonce. Reports stamp
/// it into their JSON; the consolidator skips files whose stamp does not
/// match the current run.
pub const RUN_NONCE_ENV: &str = "STELLAR_RUN_NONCE";

/// Environment variable pinning the report's `wall_ms` to a fixed value
/// instead of the measured elapsed time. Set by `run_all` when byte-stable
/// output is required (the kill-9 + `--resume` byte-identity tests); never
/// set on normal runs.
pub const FIXED_WALL_ENV: &str = "STELLAR_FIXED_WALL_MS";

/// Environment variable carrying the design-cache directory (set by
/// `run_all --cache`). Experiments that run dataflow searches route them
/// through a [`stellar_bench::cache::DesignCache`] rooted here when set;
/// unset means every search computes.
///
/// [`stellar_bench::cache::DesignCache`]: crate::cache::DesignCache
pub const CACHE_DIR_ENV: &str = "STELLAR_CACHE_DIR";

/// True when the harness was asked to collect traces.
pub fn trace_enabled() -> bool {
    std::env::var(TRACE_ENV).map(|v| v != "0" && !v.is_empty()) == Ok(true)
}

/// The directory experiment artifacts are written to.
pub fn out_dir() -> PathBuf {
    std::env::var(OUT_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("out"))
}

/// The per-run nonce `run_all` passed down, if any.
pub fn run_nonce() -> Option<String> {
    std::env::var(RUN_NONCE_ENV).ok().filter(|s| !s.is_empty())
}

/// The pinned wall-clock `run_all` passed down, if any.
pub fn fixed_wall_ms() -> Option<f64> {
    std::env::var(FIXED_WALL_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
}

/// The design-cache directory `run_all --cache` passed down, if any.
pub fn cache_dir() -> Option<PathBuf> {
    std::env::var(CACHE_DIR_ENV)
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Explicit report configuration — where artifacts go, whether spans are
/// traced, and the run nonce stamped into the JSON.
#[derive(Clone, Debug)]
pub struct ReportOptions {
    /// Directory `<id>.json` (and traces) are written to.
    pub out_dir: PathBuf,
    /// Collect spans into the report's [`Tracer`].
    pub trace: bool,
    /// Stamped as `"nonce"` in the emitted JSON (`null` when absent).
    pub nonce: Option<String>,
    /// Pin the emitted `wall_ms` to this value instead of the measured
    /// elapsed time (byte-stable output for resume byte-identity tests).
    pub fixed_wall_ms: Option<f64>,
}

impl ReportOptions {
    /// The configuration the experiments run under: derived from the
    /// `STELLAR_OUT_DIR` / `STELLAR_TRACE` / `STELLAR_RUN_NONCE`
    /// environment variables `run_all` sets for its children.
    pub fn from_env() -> ReportOptions {
        ReportOptions {
            out_dir: out_dir(),
            trace: trace_enabled(),
            nonce: run_nonce(),
            fixed_wall_ms: fixed_wall_ms(),
        }
    }

    /// An explicit test/embedder configuration: write under `out_dir`,
    /// no tracing, no nonce.
    pub fn in_dir(out_dir: impl Into<PathBuf>) -> ReportOptions {
        ReportOptions {
            out_dir: out_dir.into(),
            trace: false,
            nonce: None,
            fixed_wall_ms: None,
        }
    }

    /// Builder: enable or disable span tracing.
    pub fn with_trace(mut self, trace: bool) -> ReportOptions {
        self.trace = trace;
        self
    }

    /// Builder: stamp a run nonce.
    pub fn with_nonce(mut self, nonce: impl Into<String>) -> ReportOptions {
        self.nonce = Some(nonce.into());
        self
    }

    /// Builder: pin the emitted `wall_ms` (byte-stable test output).
    pub fn with_fixed_wall_ms(mut self, ms: f64) -> ReportOptions {
        self.fixed_wall_ms = Some(ms);
        self
    }
}

/// An in-flight experiment report.
pub struct Report {
    id: String,
    title: String,
    opts: ReportOptions,
    registry: MetricsRegistry,
    breakdowns: Vec<(String, CycleBreakdown)>,
    tracer: Tracer,
    stopwatch: Stopwatch,
}

impl Report {
    /// Opens a report configured from the environment (the experiments'
    /// path). See [`Report::with_options`].
    pub fn new(id: &str, title: &str) -> Report {
        Report::with_options(id, title, ReportOptions::from_env())
    }

    /// Opens a report with explicit options: prints the section header and
    /// starts the wall-clock self-profile. `id` names the output file
    /// (`<out_dir>/<id>.json`), conventionally the lowercase experiment id.
    pub fn with_options(id: &str, title: &str, opts: ReportOptions) -> Report {
        crate::header(&id.to_uppercase(), title);
        Report {
            id: id.to_lowercase(),
            title: title.to_string(),
            registry: MetricsRegistry::new(),
            breakdowns: Vec::new(),
            tracer: if opts.trace {
                Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
            } else {
                Tracer::disabled()
            },
            stopwatch: Stopwatch::start(),
            opts,
        }
    }

    /// The report's metrics registry, for counters/gauges/histograms.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// The report's tracer — enabled only when the options ask for
    /// tracing. Pass it (or absorb per-point tracers into it) to the
    /// full-control [`stellar_sim::simulate_ws_matmul_traced`],
    /// [`stellar_sim::simulate_os_matmul_traced`] or
    /// [`stellar_sim::simulate_sparse_matmul_traced`]; spans land in
    /// `out/<id>.trace.json` at [`Report::finish`].
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Records a named cycle breakdown: both as labelled counters in the
    /// registry and as a top-level `breakdowns.<name>` object in the
    /// emitted JSON.
    pub fn breakdown(&mut self, name: &str, b: &CycleBreakdown) {
        self.registry
            .record_breakdown("breakdown", &[("of", name)], b);
        self.breakdowns.push((name.to_string(), *b));
    }

    /// Closes the report: records `wall_ms`, writes `out/<id>.json` as a
    /// checksummed [`crate::durable`] envelope via an atomic
    /// temp-file-and-rename (and the Chrome trace when spans were
    /// collected — the trace stays bare JSON for Perfetto, but is still
    /// written atomically), and prints a summary line. A reader therefore
    /// never observes a torn report: it sees the old file, the new file,
    /// or a checksum mismatch. IO failures are reported on stderr, never
    /// fatal — a read-only filesystem must not fail the experiment itself.
    pub fn finish(mut self, summary: &str) {
        let wall_ms = self
            .opts
            .fixed_wall_ms
            .unwrap_or(self.stopwatch.elapsed_ms());
        self.registry
            .gauge_set("wall_ms", &[("section", "total")], wall_ms);

        let dir = self.opts.out_dir.clone();
        let trace_file = if self.tracer.is_empty() {
            None
        } else {
            Some(format!("{}.trace.json", self.id))
        };

        let mut json = String::from("{");
        json.push_str(&format!(
            "\"id\":\"{}\",\"title\":\"{}\",\"wall_ms\":{:.3},",
            escape(&self.id),
            escape(&self.title),
            wall_ms
        ));
        match &self.opts.nonce {
            Some(n) => json.push_str(&format!("\"nonce\":\"{}\",", escape(n))),
            None => json.push_str("\"nonce\":null,"),
        }
        json.push_str("\"breakdowns\":{");
        for (n, (name, b)) in self.breakdowns.iter().enumerate() {
            if n > 0 {
                json.push(',');
            }
            json.push_str(&format!("\"{}\":{}", escape(name), b.to_json()));
        }
        json.push_str("},");
        match &trace_file {
            Some(f) => json.push_str(&format!("\"trace\":\"{}\",", escape(f))),
            None => json.push_str("\"trace\":null,"),
        }
        json.push_str(&format!("\"metrics\":{}", self.registry.to_json()));
        json.push('}');

        let mut wrote = false;
        match crate::durable::ensure_dir(&dir) {
            Ok(()) => {
                let path = dir.join(format!("{}.json", self.id));
                match crate::durable::write_envelope(&path, &json) {
                    Ok(()) => wrote = true,
                    Err(e) => eprintln!("warning: could not write report: {e}"),
                }
                if let Some(f) = &trace_file {
                    let tpath = dir.join(f);
                    if let Err(e) = crate::durable::atomic_write(
                        &tpath,
                        self.tracer.to_chrome_json().as_bytes(),
                    ) {
                        eprintln!("warning: could not write trace: {e}");
                    }
                }
            }
            Err(e) => eprintln!("warning: {e}"),
        }

        if wrote {
            println!(
                "\n[{}] {summary} ({wall_ms:.1} ms) -> {}",
                self.id,
                dir.join(format!("{}.json", self.id)).display()
            );
        } else {
            println!("\n[{}] {summary} ({wall_ms:.1} ms)", self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use stellar_sim::StallClass;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("stellar-report-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn report_writes_schema_stable_json() {
        // Explicit options — no process-global env mutation, so this test
        // cannot race sibling tests on the multithreaded runner.
        let dir = tmpdir("basic");
        let mut r = Report::with_options("e99", "schema test", ReportOptions::in_dir(&dir));
        r.metrics().counter_add("cycles", &[("model", "ws")], 42);
        r.breakdown("ws", &CycleBreakdown::new().with(StallClass::Compute, 42));
        r.finish("done");

        let sealed = fs::read_to_string(dir.join("e99.json")).unwrap();
        let body = crate::durable::unseal(&sealed).expect("report must be a valid envelope");
        assert!(body.starts_with("{\"id\":\"e99\",\"title\":\"schema test\",\"wall_ms\":"));
        assert!(body.contains("\"nonce\":null"));
        assert!(body.contains("\"breakdowns\":{\"ws\":{\"compute\":42,"));
        assert!(body.contains("\"trace\":null"));
        assert!(body.contains("\"metrics\":["));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_stamps_the_run_nonce() {
        let dir = tmpdir("nonce");
        let r = Report::with_options(
            "e97",
            "nonce stamp",
            ReportOptions::in_dir(&dir).with_nonce("run-abc123"),
        );
        r.finish("done");
        let sealed = fs::read_to_string(dir.join("e97.json")).unwrap();
        let body = crate::durable::unseal(&sealed).expect("report must be a valid envelope");
        assert!(body.contains("\"nonce\":\"run-abc123\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_wall_pins_the_emitted_wall_ms() {
        let dir = tmpdir("fixedwall");
        let r = Report::with_options(
            "e95",
            "fixed wall",
            ReportOptions::in_dir(&dir).with_fixed_wall_ms(0.0),
        );
        r.finish("done");
        let sealed = fs::read_to_string(dir.join("e95.json")).unwrap();
        let body = crate::durable::unseal(&sealed).unwrap();
        assert!(
            body.contains("\"wall_ms\":0.000,"),
            "wall_ms not pinned: {body}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracer_follows_explicit_options() {
        let dir = tmpdir("tracegate");
        let mut off = Report::with_options("e98", "trace gate", ReportOptions::in_dir(&dir));
        assert!(!off.tracer().is_enabled());
        let mut on = Report::with_options(
            "e96",
            "trace gate",
            ReportOptions::in_dir(&dir).with_trace(true),
        );
        assert!(on.tracer().is_enabled());
        let _ = fs::remove_dir_all(&dir);
    }
}
