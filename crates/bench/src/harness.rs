//! The `run_all` experiment scheduler and metrics consolidator.
//!
//! Experiments are independent processes, each launched as
//! `run_all --child NAME` (see [`ScheduleOptions::exe`]), so the harness
//! can run them concurrently (`run_all -j N`): worker threads claim the
//! next pending experiment from a shared cursor, launch it with its output
//! captured, and replay that output as one contiguous block when the
//! experiment finishes — interleaving happens at experiment granularity,
//! never mid-line. Results are keyed by experiment index, so the
//! consolidated `out/metrics.json` is identical in shape for every `-j`.
//!
//! A launch ends when both of the child's output pipes reach EOF, which
//! every child (`run_all --child NAME`, or a test stub) reaches by
//! exiting: the launching thread blocks on that event, never polls.
//!
//! The scheduler is self-healing: every launch runs under a wall-clock
//! watchdog ([`ScheduleOptions::timeout_ms`]), a failed or timed-out or
//! invalid-report attempt is retried with deterministic exponential
//! backoff up to [`ScheduleOptions::retries`] times, and an experiment
//! that exhausts its retries is *quarantined* — recorded as `failed` /
//! `timed_out` in the consolidated report — instead of aborting the
//! suite. SIGINT drains gracefully: in-flight children finish, pending
//! experiments are marked `interrupted`, and a partial consolidated
//! report is still flushed.
//!
//! Every run stamps a nonce into a durable `run_state.json` manifest
//! before the first launch, and every child stamps that nonce into its
//! report. [`prepare_run`] with `resume = true` reuses the manifest's
//! nonce and skips experiments whose report envelope validates against
//! it — so a `kill -9` mid-suite followed by `run_all --resume`
//! reconstructs the exact consolidated document an uninterrupted run
//! would have produced. Reports travel in checksummed envelopes (see
//! [`crate::durable`]): a torn, bit-flipped, wrong-version, or
//! stale-nonce report is detected, deleted, and re-run, never consumed.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::cache::nonce_of;
use crate::chaos::{ChaosInjector, ChaosPlan, Fate};
use crate::durable;
use crate::experiments;
use crate::report::{CACHE_DIR_ENV, FIXED_WALL_ENV, OUT_DIR_ENV, RUN_NONCE_ENV, TRACE_ENV};

/// Schema identifier for the consolidated metrics payload. Bump only with
/// a corresponding update to the CI smoke-check and DESIGN.md.
pub const SCHEMA: &str = "stellar-metrics-v2";

/// The resume manifest's file name (under the out dir) and payload schema.
pub const MANIFEST_FILE: &str = "run_state.json";
/// Schema identifier for the resume manifest payload.
pub const MANIFEST_SCHEMA: &str = "stellar-run-state-v1";

/// The per-run scheduler summary's file name and payload schema. Kept
/// *outside* `metrics.json` so that resumed and uninterrupted runs can
/// produce byte-identical metrics while the summary still records what
/// the scheduler actually did (resumes, retries, quarantines).
pub const SUMMARY_FILE: &str = "run_summary.json";
/// Schema identifier for the run-summary payload.
pub const SUMMARY_SCHEMA: &str = "stellar-run-summary-v1";

/// The report-file id of an experiment (`e04_load_balance` → `e04`).
pub fn experiment_id(name: &str) -> &str {
    name.split('_').next().unwrap_or(name)
}

/// The report path of an experiment under `out_dir`.
pub fn report_path(out_dir: &Path, name: &str) -> PathBuf {
    out_dir.join(format!("{}.json", experiment_id(name)))
}

/// Resolves a `--only` selection: a comma-separated list of experiment
/// ids (`e04`) and/or full names (`e04_load_balance`), in the
/// order given. Whitespace around separators is ignored; empty items are
/// skipped.
///
/// # Errors
///
/// A message naming the first unknown or repeated experiment (by id or
/// by name: each experiment owns one report file and one `metrics.json`
/// key), or an error when the list selects nothing.
pub fn select_experiments(list: &str) -> Result<Vec<&'static str>, String> {
    let mut picked = Vec::new();
    for want in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let found = experiments::find(want)
            .ok_or_else(|| format!("unknown experiment {want:?}"))?
            .name;
        if picked.contains(&found) {
            return Err(format!("duplicate experiment {want:?}"));
        }
        picked.push(found);
    }
    if picked.is_empty() {
        return Err("--only selected no experiments".into());
    }
    Ok(picked)
}

/// A nonce unique to this run: wall-clock nanoseconds plus the pid, so
/// two harness runs (even back to back, even concurrent) never share one.
pub fn fresh_nonce() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("{nanos:x}-{:x}", std::process::id())
}

pub mod interrupt {
    //! Cooperative SIGINT handling for the scheduler: the handler only
    //! sets a flag; workers drain in-flight children, stop claiming new
    //! work, and the partial consolidated report is still flushed.

    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    /// True once an interrupt was requested (SIGINT or [`request`]).
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain, exactly as SIGINT would.
    pub fn request() {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Clears the flag (test isolation).
    pub fn reset() {
        INTERRUPTED.store(false, Ordering::SeqCst);
    }

    extern "C" fn on_sigint(_sig: i32) {
        // Async-signal-safe: one relaxed-ordering-free atomic store.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT handler (no-op off Unix).
    #[cfg(unix)]
    pub fn install_sigint_handler() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        #[allow(clippy::fn_to_numeric_cast_any)]
        let handler = on_sigint as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
        }
    }

    /// Installs the SIGINT handler (no-op off Unix).
    #[cfg(not(unix))]
    pub fn install_sigint_handler() {
        let _ = on_sigint; // keep the handler referenced
    }
}

/// How one scheduled experiment ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentStatus {
    /// Completed with a validated report (possibly after retries, or
    /// skipped because a resumed report already validated).
    Ok,
    /// Exhausted its retries on nonzero exits / invalid reports.
    Failed,
    /// Exhausted its retries on watchdog kills.
    TimedOut,
    /// Never ran (or was cut short) because the run was interrupted.
    Interrupted,
}

impl ExperimentStatus {
    /// The stable string recorded in the consolidated JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExperimentStatus::Ok => "ok",
            ExperimentStatus::Failed => "failed",
            ExperimentStatus::TimedOut => "timed_out",
            ExperimentStatus::Interrupted => "interrupted",
        }
    }
}

/// What one scheduled experiment produced.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// The experiment name.
    pub name: &'static str,
    /// Wall-clock of the last attempt's child process, in milliseconds.
    pub wall_ms: f64,
    /// `None` on success, a one-line description on failure.
    pub error: Option<String>,
    /// How the experiment ended.
    pub status: ExperimentStatus,
    /// Child launches performed (0 when resumed or never launched).
    pub attempts: u32,
    /// True when the experiment was skipped because its report from a
    /// previous run validated against the resume manifest.
    pub resumed: bool,
}

impl ExperimentOutcome {
    fn resumed(name: &'static str) -> ExperimentOutcome {
        ExperimentOutcome {
            name,
            wall_ms: 0.0,
            error: None,
            status: ExperimentStatus::Ok,
            attempts: 0,
            resumed: true,
        }
    }

    fn interrupted(name: &'static str) -> ExperimentOutcome {
        ExperimentOutcome {
            name,
            wall_ms: 0.0,
            error: Some(format!("{name}: interrupted before completion")),
            status: ExperimentStatus::Interrupted,
            attempts: 0,
            resumed: false,
        }
    }
}

/// How the scheduler runs the suite.
#[derive(Clone, Debug)]
pub struct ScheduleOptions {
    /// Concurrent experiment processes (clamped to `1..=experiments`).
    pub jobs: usize,
    /// Set `STELLAR_TRACE=1` for every child.
    pub trace: bool,
    /// The per-run nonce passed as `STELLAR_RUN_NONCE` (normally the one
    /// [`prepare_run`] stamped into the manifest).
    pub nonce: String,
    /// Where the children write their reports.
    pub out_dir: PathBuf,
    /// The executable each experiment is launched as, `exe --child
    /// NAME`: `run_all` itself, or a stand-in in tests.
    pub exe: PathBuf,
    /// The suite to run, in consolidation order.
    pub experiments: Vec<&'static str>,
    /// Per-experiment wall-clock budget in milliseconds; a child that
    /// exceeds it is killed and the attempt counts as timed out. `0`
    /// disables the watchdog.
    pub timeout_ms: u64,
    /// Retries after the first failed attempt before quarantining.
    pub retries: u32,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// retry (deterministic, capped at 8 s).
    pub retry_backoff_ms: u64,
    /// Deterministic fault injection for the recovery paths, if any.
    pub chaos: Option<ChaosPlan>,
    /// Pin every wall-clock field in the consolidated output to this
    /// value (forwarded to children as `STELLAR_FIXED_WALL_MS`), so tests
    /// can compare consolidated documents byte-for-byte.
    pub fixed_wall_ms: Option<f64>,
    /// Design-cache directory forwarded to children as
    /// `STELLAR_CACHE_DIR` (`run_all --cache`); `None` leaves the cache
    /// off and every search computes.
    pub cache_dir: Option<PathBuf>,
}

impl ScheduleOptions {
    /// The full-suite defaults: serial, untraced, 15-minute watchdog, one
    /// retry, quarter-second backoff, no chaos.
    pub fn suite(nonce: String, out_dir: PathBuf, exe: PathBuf) -> ScheduleOptions {
        ScheduleOptions {
            jobs: 1,
            trace: false,
            nonce,
            out_dir,
            exe,
            experiments: experiments::ALL.iter().map(|e| e.name).collect(),
            timeout_ms: 900_000,
            retries: 1,
            retry_backoff_ms: 250,
            chaos: None,
            fixed_wall_ms: None,
            cache_dir: None,
        }
    }
}

/// What [`prepare_run`] decided: the nonce the run uses and, per
/// experiment, whether a validated report from a previous run lets the
/// scheduler skip it.
#[derive(Clone, Debug)]
pub struct PreparedRun {
    /// The run nonce (fresh, requested, or recovered from the manifest).
    pub nonce: String,
    /// Parallel to the suite: `true` means skip, the report validates.
    pub resumed: Vec<bool>,
}

impl PreparedRun {
    /// A fresh run of `n` experiments, nothing resumed — for driving
    /// [`run_experiments`] directly in tests.
    pub fn fresh(nonce: String, n: usize) -> PreparedRun {
        PreparedRun {
            nonce,
            resumed: vec![false; n],
        }
    }

    /// How many experiments were validated for skipping.
    pub fn resumed_count(&self) -> usize {
        self.resumed.iter().filter(|&&r| r).count()
    }
}

/// Renders the manifest payload for a run configuration. Byte-stable, so
/// resume compatibility is an equality check.
fn render_manifest(nonce: &str, trace: bool, experiments: &[&str]) -> String {
    let mut json = format!(
        "{{\"schema\":\"{MANIFEST_SCHEMA}\",\"nonce\":\"{}\",\"trace\":{trace},\"experiments\":[",
        stellar_sim::metrics::escape(nonce)
    );
    for (n, name) in experiments.iter().enumerate() {
        if n > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\"", stellar_sim::metrics::escape(name)));
    }
    json.push_str("]}");
    json
}

/// Validates one experiment report against the run nonce: the file must
/// be a checksum-valid envelope whose payload stamps exactly this nonce.
///
/// # Errors
///
/// A one-line description of why the report is unusable.
pub fn validate_report(out_dir: &Path, name: &str, nonce: &str) -> Result<(), String> {
    let path = report_path(out_dir, name);
    match read_report(&path, Some(nonce)) {
        ReportRead::Body(_) => Ok(()),
        ReportRead::Stale => Err(format!(
            "{}: stale report (nonce does not match this run)",
            path.display()
        )),
        ReportRead::Corrupt(e) => Err(format!("{}: {e}", path.display())),
        ReportRead::Missing(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Decides how a (possibly resumed) run starts. With `resume = false`,
/// or when the manifest is missing/invalid/incompatible: pick a fresh
/// nonce (or `requested_nonce`), delete every report in the suite, and
/// stamp a new manifest durably **before** anything launches — a crash
/// between the stamp and the first report flush therefore leaves
/// old-nonce reports that a later resume detects as stale and re-runs.
/// With `resume = true` and a matching manifest: reuse its nonce and
/// validate each report (envelope checksum + nonce); validated reports
/// are skipped, invalid ones are deleted and re-run.
///
/// # Errors
///
/// [`durable::DurableError`] if the manifest cannot be stamped — without
/// a durable nonce the run would not be resumable, so this is fatal.
pub fn prepare_run(
    out_dir: &Path,
    experiments: &[&'static str],
    trace: bool,
    resume: bool,
    requested_nonce: Option<String>,
) -> Result<PreparedRun, durable::DurableError> {
    let manifest_path = out_dir.join(MANIFEST_FILE);
    if resume {
        match durable::read_envelope(&manifest_path) {
            Ok(payload) => match nonce_of(&payload) {
                Some(nonce) if payload == render_manifest(&nonce, trace, experiments) => {
                    let resumed = experiments
                        .iter()
                        .map(|name| match validate_report(out_dir, name, &nonce) {
                            Ok(()) => true,
                            Err(why) => {
                                eprintln!("resume: re-running {name}: {why}");
                                let _ = fs::remove_file(report_path(out_dir, name));
                                false
                            }
                        })
                        .collect();
                    return Ok(PreparedRun { nonce, resumed });
                }
                _ => eprintln!(
                    "resume: manifest {} does not match this invocation \
                     (flags or suite changed); starting fresh",
                    manifest_path.display()
                ),
            },
            Err(e) => eprintln!("resume: cannot resume ({e}); starting fresh"),
        }
    }
    // Fresh run: stale reports must be *missing*, not last run's.
    durable::ensure_dir(out_dir)?;
    for name in experiments {
        let _ = fs::remove_file(report_path(out_dir, name));
    }
    let nonce = requested_nonce.unwrap_or_else(fresh_nonce);
    durable::write_envelope(&manifest_path, &render_manifest(&nonce, trace, experiments))?;
    Ok(PreparedRun::fresh(nonce, experiments.len()))
}

/// Everything one child launch produced.
struct Attempt {
    wall_ms: f64,
    /// `Ok` iff the child exited cleanly *and* its report validates.
    verdict: Result<(), (ExperimentStatus, String)>,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
}

/// Drains one child pipe on a thread (so a chatty child can't deadlock
/// against a full pipe while we wait on the other one), dropping `eof`
/// when the pipe closes.
fn drain_pipe<R: std::io::Read + Send + 'static>(
    pipe: Option<R>,
    eof: mpsc::Sender<()>,
) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        if let Some(mut pipe) = pipe {
            let _ = pipe.read_to_end(&mut buf);
        }
        drop(eof);
        buf
    })
}

/// Launches one attempt of `name` with captured output, under the
/// watchdog and the chaos injector's fate, and validates the report the
/// child leaves behind.
fn launch_once(
    name: &'static str,
    opts: &ScheduleOptions,
    injector: Option<&ChaosInjector>,
    attempt: u32,
) -> Attempt {
    // Each attempt starts from a missing report, so post-flight
    // validation can only ever see what *this* child wrote.
    let _ = fs::remove_file(report_path(&opts.out_dir, name));
    let fate = injector.map_or(Fate::Healthy, |i| i.fate(name, attempt));

    let mut cmd = Command::new(&opts.exe);
    cmd.args(["--child", name]);
    if opts.trace {
        cmd.env(TRACE_ENV, "1");
    }
    cmd.env(RUN_NONCE_ENV, &opts.nonce);
    cmd.env(OUT_DIR_ENV, &opts.out_dir);
    if let Some(ms) = opts.fixed_wall_ms {
        cmd.env(FIXED_WALL_ENV, format!("{ms}"));
    }
    if let Some(dir) = &opts.cache_dir {
        cmd.env(CACHE_DIR_ENV, dir);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());

    let started = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return Attempt {
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                verdict: Err((
                    ExperimentStatus::Failed,
                    format!("{name}: spawn {}: {e}", opts.exe.display()),
                )),
                stdout: Vec::new(),
                stderr: Vec::new(),
            }
        }
    };
    // The exit event: nothing is ever sent, so the channel disconnects
    // once both drains reach EOF. A child holds its pipes until it exits
    // (see the module docs), so the `wait` below only reaps it.
    let (eof, exited) = mpsc::channel();
    let out_reader = drain_pipe(child.stdout.take(), eof.clone());
    let err_reader = drain_pipe(child.stderr.take(), eof);

    if fate == Fate::Kill {
        // Chaos: the child dies as if the OOM killer got it.
        let _ = child.kill();
    }
    let budget = match (fate, opts.timeout_ms) {
        // Chaos: pretend the child is already wedged so the watchdog
        // path runs (only meaningful when the watchdog is enabled).
        (Fate::Hang, ms) if ms > 0 => Duration::ZERO,
        // `recv_timeout` waits without a deadline when it cannot add
        // the timeout to `now`.
        (_, 0) => Duration::MAX,
        (_, ms) => Duration::from_millis(ms).saturating_sub(started.elapsed()),
    };
    let timed_out = exited.recv_timeout(budget) == Err(RecvTimeoutError::Timeout);
    if timed_out {
        let _ = child.kill();
    }
    let exited_cleanly = child.wait().is_ok_and(|status| status.success());
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let stdout = out_reader.join().unwrap_or_default();
    let stderr = err_reader.join().unwrap_or_default();

    let verdict = if timed_out {
        Err((
            ExperimentStatus::TimedOut,
            format!(
                "{name}: timed out after {:.0} ms (budget {} ms), killed",
                wall_ms, opts.timeout_ms
            ),
        ))
    } else if !exited_cleanly || fate == Fate::Kill {
        // A child that exited before the chaos kill landed (SIGKILL on a
        // zombie is a no-op) still counts as killed, so the injected
        // fault does not depend on how fast the child ran.
        Err((ExperimentStatus::Failed, format!("{name}: exited nonzero")))
    } else {
        if fate == Fate::Corrupt {
            // Chaos: the report survives the child but not the disk.
            if let Some(i) = injector {
                let _ = i.corrupt_file(&report_path(&opts.out_dir, name));
            }
        }
        // Post-flight validation: a clean exit without a valid report is
        // still a failure — a missing or corrupt report would otherwise
        // surface only at consolidation.
        validate_report(&opts.out_dir, name, &opts.nonce).map_err(|why| {
            (
                ExperimentStatus::Failed,
                format!("{name}: report invalid after clean exit: {why}"),
            )
        })
    };
    Attempt {
        wall_ms,
        verdict,
        stdout,
        stderr,
    }
}

/// Deterministic backoff before retry `attempt` (1-based): base doubled
/// per retry, capped at 8 s.
fn backoff_ms(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64 << attempt.min(5)).min(8_000)
}

/// Runs one experiment to its final outcome: attempt, retry with
/// backoff, quarantine. Replays each attempt's captured output as one
/// contiguous block under `replay`.
fn run_one(
    name: &'static str,
    opts: &ScheduleOptions,
    injector: Option<&ChaosInjector>,
    replay: &Mutex<()>,
) -> ExperimentOutcome {
    let max_attempts = opts.retries.saturating_add(1);
    let mut attempt = 0u32;
    loop {
        let a = launch_once(name, opts, injector, attempt);
        {
            // One experiment's output lands as one contiguous block.
            let guard = replay.lock();
            let mut so = std::io::stdout();
            let _ = so.write_all(&a.stdout);
            let _ = so.flush();
            let _ = std::io::stderr().write_all(&a.stderr);
            drop(guard);
        }
        match a.verdict {
            Ok(()) => {
                return ExperimentOutcome {
                    name,
                    wall_ms: a.wall_ms,
                    error: None,
                    status: ExperimentStatus::Ok,
                    attempts: attempt + 1,
                    resumed: false,
                }
            }
            Err((status, why)) => {
                if interrupt::interrupted() {
                    // Drain mode: never retry into an interrupted run.
                    return ExperimentOutcome {
                        name,
                        wall_ms: a.wall_ms,
                        error: Some(format!("{why} (run interrupted, not retried)")),
                        status: ExperimentStatus::Interrupted,
                        attempts: attempt + 1,
                        resumed: false,
                    };
                }
                if attempt + 1 >= max_attempts {
                    eprintln!("QUARANTINED {name} after {} attempt(s): {why}", attempt + 1);
                    return ExperimentOutcome {
                        name,
                        wall_ms: a.wall_ms,
                        error: Some(why),
                        status,
                        attempts: attempt + 1,
                        resumed: false,
                    };
                }
                let pause = backoff_ms(opts.retry_backoff_ms, attempt);
                eprintln!(
                    "RETRY {name} (attempt {}/{max_attempts} failed: {why}); backing off {pause} ms",
                    attempt + 1
                );
                std::thread::sleep(Duration::from_millis(pause));
                attempt += 1;
            }
        }
    }
}

/// Runs the whole suite with `opts.jobs` concurrent processes, returning
/// one outcome per experiment **in suite order** regardless of completion
/// order. Experiments `prepared` as resumed are skipped (their validated
/// reports stand in); after SIGINT, in-flight experiments drain and
/// pending ones are recorded as interrupted.
pub fn run_experiments(opts: &ScheduleOptions, prepared: &PreparedRun) -> Vec<ExperimentOutcome> {
    let experiments = &opts.experiments;
    let jobs = opts.jobs.clamp(1, experiments.len().max(1));
    let injector = opts.chaos.map(ChaosInjector::new);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExperimentOutcome>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();
    let replay = Mutex::new(());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(name) = experiments.get(idx).copied() else {
                    break;
                };
                let outcome = if prepared.resumed.get(idx).copied().unwrap_or(false) {
                    let guard = replay.lock();
                    println!(
                        "[{}] resumed: validated report from interrupted run",
                        experiment_id(name)
                    );
                    drop(guard);
                    ExperimentOutcome::resumed(name)
                } else if interrupt::interrupted() {
                    ExperimentOutcome::interrupted(name)
                } else {
                    run_one(name, opts, injector.as_ref(), &replay)
                };
                if let Ok(mut slot) = slots[idx].lock() {
                    *slot = Some(outcome);
                }
            });
        }
    });
    slots
        .into_iter()
        .zip(experiments)
        .map(|(slot, name)| {
            slot.into_inner()
                .ok()
                .flatten()
                .unwrap_or_else(|| ExperimentOutcome {
                    name,
                    wall_ms: 0.0,
                    error: Some(format!("{name}: worker panicked before recording")),
                    status: ExperimentStatus::Failed,
                    attempts: 0,
                    resumed: false,
                })
        })
        .collect()
}

/// How one report file read went.
enum ReportRead {
    Body(String),
    Stale,
    Corrupt(durable::EnvelopeError),
    Missing(std::io::Error),
}

/// Reads one per-experiment report body, validating envelope and nonce
/// (skip the nonce check when `nonce` is `None`). A file that is not a
/// valid sealed envelope — bare JSON included — is corrupt.
fn read_report(path: &Path, nonce: Option<&str>) -> ReportRead {
    let body = match fs::read_to_string(path) {
        Ok(body) => body,
        Err(e) => return ReportRead::Missing(e),
    };
    let payload = match durable::unseal(&body) {
        Ok(payload) => payload,
        Err(e) => return ReportRead::Corrupt(e),
    };
    if nonce.is_some_and(|n| nonce_of(payload).as_deref() != Some(n)) {
        return ReportRead::Stale;
    }
    ReportRead::Body(payload.to_string())
}

/// Context for [`consolidate`] — everything about the run that is not a
/// per-experiment outcome.
#[derive(Clone, Debug)]
pub struct ConsolidateCtx<'a> {
    /// Where the per-experiment reports live.
    pub out_dir: &'a Path,
    /// Whether the run traced.
    pub trace: bool,
    /// The `-j` the suite ran with.
    pub jobs: usize,
    /// Total harness wall-clock, in milliseconds.
    pub total_ms: f64,
    /// The run nonce reports must stamp (skip the check when `None`).
    pub nonce: Option<&'a str>,
    /// True when the run was cut short by SIGINT.
    pub interrupted: bool,
    /// Pin every wall-clock field to this value (byte-stable output).
    pub fixed_wall_ms: Option<f64>,
}

/// Splices the per-experiment `<out_dir>/<id>.json` envelopes (each
/// written by [`crate::Report::finish`]) into the consolidated metrics
/// payload and returns it (unsealed — the caller seals it for disk).
/// Reports that are missing, stale (nonce mismatch), or corrupt (torn /
/// bit-flipped / wrong envelope version) are skipped with a warning and
/// counted in the harness block. The document depends only on the
/// outcomes and report files — never on scheduling order — so `-j N` and
/// `-j 1` (and a resumed run vs an uninterrupted one) consolidate
/// identically.
pub fn consolidate(ctx: &ConsolidateCtx<'_>, outcomes: &[ExperimentOutcome]) -> String {
    let mut experiments = Vec::new();
    let mut stale = 0usize;
    let mut corrupt = 0usize;
    for o in outcomes {
        let path = report_path(ctx.out_dir, o.name);
        match read_report(&path, ctx.nonce) {
            ReportRead::Body(body) => experiments.push(body),
            ReportRead::Stale => {
                eprintln!(
                    "warning: STALE report {} (nonce does not match this run) — the experiment \
                     likely crashed before writing; skipped",
                    path.display()
                );
                stale += 1;
            }
            ReportRead::Corrupt(e) => {
                eprintln!("warning: CORRUPT report {} ({e}), skipped", path.display());
                corrupt += 1;
            }
            ReportRead::Missing(_) => {
                eprintln!("warning: no report from {} ({})", o.name, path.display())
            }
        }
    }

    let failures = outcomes
        .iter()
        .filter(|o| o.status == ExperimentStatus::Failed)
        .count();
    let timed_out = outcomes
        .iter()
        .filter(|o| o.status == ExperimentStatus::TimedOut)
        .count();
    let wall = |ms: f64| ctx.fixed_wall_ms.unwrap_or(ms);
    let mut json = String::from("{");
    json.push_str(&format!("\"schema\":\"{SCHEMA}\","));
    json.push_str(&format!("\"trace\":{},", ctx.trace));
    json.push_str(&format!("\"interrupted\":{},", ctx.interrupted));
    json.push_str("\"experiments\":[");
    json.push_str(&experiments.join(","));
    json.push_str("],");
    json.push_str("\"harness\":{");
    json.push_str(&format!(
        "\"experiments\":{},\"consolidated\":{},\"stale\":{stale},\"corrupt\":{corrupt},\
         \"failures\":{failures},\"timed_out\":{timed_out},\"jobs\":{},\
         \"total_wall_ms\":{:.3},",
        outcomes.len(),
        experiments.len(),
        ctx.jobs,
        wall(ctx.total_ms),
    ));
    json.push_str("\"statuses\":{");
    for (n, o) in outcomes.iter().enumerate() {
        if n > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\":\"{}\"", o.name, o.status.as_str()));
    }
    json.push_str("},");
    json.push_str("\"wall_ms\":{");
    for (n, o) in outcomes.iter().enumerate() {
        if n > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\":{:.3}", o.name, wall(o.wall_ms)));
    }
    json.push_str("}}}");
    json
}

/// Renders the scheduler's run summary payload: what `--resume` skipped,
/// what was retried, what ended quarantined. Lives in its own file
/// (`run_summary.json`) so `metrics.json` stays byte-identical between a
/// resumed and an uninterrupted run.
pub fn render_run_summary(
    nonce: &str,
    outcomes: &[ExperimentOutcome],
    interrupted: bool,
) -> String {
    let resumed = outcomes.iter().filter(|o| o.resumed).count();
    let launched = outcomes.iter().filter(|o| o.attempts > 0).count();
    let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
    let quarantined: Vec<&str> = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.status,
                ExperimentStatus::Failed | ExperimentStatus::TimedOut
            )
        })
        .map(|o| o.name)
        .collect();
    let mut json = format!(
        "{{\"schema\":\"{SUMMARY_SCHEMA}\",\"nonce\":\"{}\",\"resumed\":{resumed},\
         \"launched\":{launched},\"retried\":{retried},\"interrupted\":{interrupted},\
         \"quarantined\":[",
        stellar_sim::metrics::escape(nonce)
    );
    for (n, name) in quarantined.iter().enumerate() {
        if n > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{name}\""));
    }
    json.push_str("],\"attempts\":{");
    for (n, o) in outcomes.iter().enumerate() {
        if n > 0 {
            json.push(',');
        }
        json.push_str(&format!("\"{}\":{}", o.name, o.attempts));
    }
    json.push_str("}}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("stellar-harness-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn fake_outcomes() -> Vec<ExperimentOutcome> {
        experiments::ALL
            .iter()
            .map(|e| ExperimentOutcome {
                name: e.name,
                wall_ms: 1.5,
                error: None,
                status: ExperimentStatus::Ok,
                attempts: 1,
                resumed: false,
            })
            .collect()
    }

    fn ctx<'a>(dir: &'a Path, jobs: usize, nonce: Option<&'a str>) -> ConsolidateCtx<'a> {
        ConsolidateCtx {
            out_dir: dir,
            trace: false,
            jobs,
            total_ms: 10.0,
            nonce,
            interrupted: false,
            fixed_wall_ms: None,
        }
    }

    fn experiments_block(json: &str) -> &str {
        let start = json.find("\"experiments\":[").unwrap();
        let end = json[start..].find(']').unwrap();
        &json[start..start + end + 1]
    }

    #[test]
    fn sealed_reports_are_spliced_unsealed() {
        let dir = tmpdir("sealed");
        durable::write_envelope(&dir.join("e01.json"), "{\"id\":\"e01\"}").unwrap();
        let json = consolidate(&ctx(&dir, 1, None), &fake_outcomes());
        assert!(json.contains("\"experiments\":[{\"id\":\"e01\"}]"));
        assert!(json.contains("\"consolidated\":1"));
        assert!(json.contains("\"corrupt\":0"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bare_reports_count_as_corrupt() {
        let dir = tmpdir("newline");
        fs::write(dir.join("e01.json"), "{\"id\":\"e01\"}\n").unwrap();
        let json = consolidate(&ctx(&dir, 1, None), &fake_outcomes());
        assert!(json.contains("\"experiments\":[]"));
        assert!(json.contains("\"consolidated\":0"));
        assert!(json.contains("\"corrupt\":1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_nonce_reports_are_skipped() {
        let dir = tmpdir("stale");
        durable::write_envelope(
            &dir.join("e01.json"),
            "{\"id\":\"e01\",\"nonce\":\"old-run\"}",
        )
        .unwrap();
        durable::write_envelope(
            &dir.join("e02.json"),
            "{\"id\":\"e02\",\"nonce\":\"this-run\"}",
        )
        .unwrap();
        let json = consolidate(&ctx(&dir, 1, Some("this-run")), &fake_outcomes());
        assert!(!json.contains("old-run"), "stale report was spliced in");
        assert!(json.contains("\"id\":\"e02\""));
        assert!(json.contains("\"consolidated\":1"));
        assert!(json.contains("\"stale\":1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_flipped_envelopes_count_as_corrupt() {
        let dir = tmpdir("corrupt");
        let sealed = durable::seal("{\"id\":\"e01\",\"nonce\":\"n\"}");
        fs::write(dir.join("e01.json"), &sealed[..sealed.len() - 6]).unwrap();
        let mut flipped = durable::seal("{\"id\":\"e02\",\"nonce\":\"n\"}").into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        fs::write(dir.join("e02.json"), &flipped).unwrap();
        let json = consolidate(&ctx(&dir, 1, Some("n")), &fake_outcomes());
        assert!(json.contains("\"experiments\":[]"));
        assert!(json.contains("\"corrupt\":2"));
        assert!(json.contains("\"stale\":0"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn consolidation_is_job_count_independent() {
        // `-j 4` and `-j 1` must produce the same experiment set and
        // schema; only the recorded jobs knob may differ.
        let dir = tmpdir("jobs");
        for id in ["e01", "e02", "e03"] {
            durable::write_envelope(
                &dir.join(format!("{id}.json")),
                &format!("{{\"id\":\"{id}\",\"nonce\":\"n\"}}"),
            )
            .unwrap();
        }
        let serial = consolidate(&ctx(&dir, 1, Some("n")), &fake_outcomes());
        let parallel = consolidate(&ctx(&dir, 4, Some("n")), &fake_outcomes());
        assert_eq!(experiments_block(&serial), experiments_block(&parallel));
        assert!(serial.contains(&format!("\"schema\":\"{SCHEMA}\"")));
        assert!(parallel.contains(&format!("\"schema\":\"{SCHEMA}\"")));
        assert!(serial.contains("\"jobs\":1"));
        assert!(parallel.contains("\"jobs\":4"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_object_reports_are_skipped() {
        let dir = tmpdir("garbage");
        fs::write(dir.join("e01.json"), "not json at all").unwrap();
        let json = consolidate(&ctx(&dir, 1, None), &fake_outcomes());
        assert!(json.contains("\"experiments\":[]"));
        assert!(json.contains("\"consolidated\":0"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_wall_pins_every_wall_clock_field() {
        let dir = tmpdir("fixedwall");
        let mut c = ctx(&dir, 2, None);
        c.fixed_wall_ms = Some(0.0);
        c.total_ms = 987.654;
        let json = consolidate(&c, &fake_outcomes());
        assert!(json.contains("\"total_wall_ms\":0.000"));
        assert!(json.contains("\"e01_dataflows\":0.000"));
        assert!(!json.contains("987.654"));
        assert!(!json.contains("1.500"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn statuses_and_interrupted_are_recorded() {
        let dir = tmpdir("statuses");
        let mut outcomes = fake_outcomes();
        outcomes[2].status = ExperimentStatus::TimedOut;
        outcomes[2].error = Some("e03_sparsity: timed out".into());
        outcomes[4].status = ExperimentStatus::Interrupted;
        let mut c = ctx(&dir, 1, None);
        c.interrupted = true;
        let json = consolidate(&c, &outcomes);
        assert!(json.contains("\"interrupted\":true"));
        assert!(json.contains("\"e03_sparsity\":\"timed_out\""));
        assert!(json.contains("\"e05_gemmini_util\":\"interrupted\""));
        assert!(json.contains("\"timed_out\":1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_summary_counts_resumes_retries_quarantines() {
        let mut outcomes = fake_outcomes();
        outcomes[0].resumed = true;
        outcomes[0].attempts = 0;
        outcomes[1].attempts = 3;
        outcomes[2].status = ExperimentStatus::Failed;
        outcomes[2].error = Some("boom".into());
        let json = render_run_summary("n", &outcomes, false);
        assert!(json.contains(&format!("\"schema\":\"{SUMMARY_SCHEMA}\"")));
        assert!(json.contains("\"resumed\":1"));
        assert!(json.contains("\"retried\":1"));
        assert!(json.contains("\"quarantined\":[\"e03_sparsity\"]"));
        assert!(json.contains("\"e02_pipelining\":3"));
        let _ = json;
    }

    #[test]
    fn manifest_roundtrip_and_nonce_extraction() {
        let payload = render_manifest("abc-123", true, &["e01_dataflows", "e02_pipelining"]);
        assert_eq!(nonce_of(&payload).as_deref(), Some("abc-123"));
        assert!(payload.contains("\"trace\":true"));
        assert!(payload.contains("\"e02_pipelining\""));
    }

    #[test]
    fn prepare_fresh_run_stamps_manifest_and_clears_reports() {
        let dir = tmpdir("fresh");
        fs::write(dir.join("e01.json"), "stale junk").unwrap();
        let prepared = prepare_run(
            &dir,
            &["e01_dataflows", "e02_pipelining"],
            false,
            false,
            Some("forced-nonce".into()),
        )
        .unwrap();
        assert_eq!(prepared.nonce, "forced-nonce");
        assert_eq!(prepared.resumed, vec![false, false]);
        assert!(!dir.join("e01.json").exists(), "stale report not cleared");
        let manifest = durable::read_envelope(&dir.join(MANIFEST_FILE)).unwrap();
        assert!(manifest.contains("\"nonce\":\"forced-nonce\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_validates_reports_against_manifest_nonce() {
        let dir = tmpdir("resume");
        let suite: &[&'static str] = &["e01_dataflows", "e02_pipelining", "e03_sparsity"];
        let first = prepare_run(&dir, suite, false, false, Some("n1".into())).unwrap();
        assert_eq!(first.resumed_count(), 0);
        // e01 completed with the right nonce; e02 is a *stale* report
        // (valid envelope, previous run's nonce — the crash-between-
        // nonce-stamp-and-flush case); e03 never wrote.
        durable::write_envelope(&dir.join("e01.json"), "{\"id\":\"e01\",\"nonce\":\"n1\"}")
            .unwrap();
        durable::write_envelope(&dir.join("e02.json"), "{\"id\":\"e02\",\"nonce\":\"n0\"}")
            .unwrap();
        let resumed = prepare_run(&dir, suite, false, true, None).unwrap();
        assert_eq!(resumed.nonce, "n1", "manifest nonce must be reused");
        assert_eq!(resumed.resumed, vec![true, false, false]);
        assert!(
            !dir.join("e02.json").exists(),
            "stale report must be deleted for re-run, not consumed"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_changed_flags_starts_fresh() {
        let dir = tmpdir("resume-flags");
        let suite: &[&'static str] = &["e01_dataflows"];
        prepare_run(&dir, suite, false, false, Some("n1".into())).unwrap();
        durable::write_envelope(&dir.join("e01.json"), "{\"id\":\"e01\",\"nonce\":\"n1\"}")
            .unwrap();
        // Trace flag differs from the manifest: the old reports are not
        // comparable, so everything re-runs under a fresh nonce.
        let resumed = prepare_run(&dir, suite, true, true, None).unwrap();
        assert_ne!(resumed.nonce, "n1");
        assert_eq!(resumed.resumed, vec![false]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(backoff_ms(250, 0), 250);
        assert_eq!(backoff_ms(250, 1), 500);
        assert_eq!(backoff_ms(250, 2), 1000);
        assert_eq!(backoff_ms(250, 30), 8_000);
        assert_eq!(backoff_ms(0, 3), 0);
    }

    #[test]
    fn experiment_ids() {
        assert_eq!(experiment_id("e04_load_balance"), "e04");
        assert_eq!(experiment_id("e21_fault_sweep"), "e21");
        assert_eq!(experiment_id("weird"), "weird");
        // The suite is E1–E21 in order, one report file and one
        // `metrics.json` key each.
        let ids: Vec<&str> = experiments::ALL
            .iter()
            .map(|e| experiment_id(e.name))
            .collect();
        let want: Vec<String> = (1..=21).map(|n| format!("e{n:02}")).collect();
        assert_eq!(ids, want);
        for (n, e) in experiments::ALL.iter().enumerate() {
            for later in &experiments::ALL[n + 1..] {
                assert_ne!(e.name, later.name);
                assert_ne!(experiment_id(e.name), experiment_id(later.name));
            }
        }
    }

    #[test]
    fn only_selection_accepts_lists_of_ids_and_names() {
        assert_eq!(
            select_experiments("e01,e04,e20").unwrap(),
            vec!["e01_dataflows", "e04_load_balance", "e20_dataflow_search"]
        );
        assert_eq!(
            select_experiments(" e04_load_balance , e01 ").unwrap(),
            vec!["e04_load_balance", "e01_dataflows"]
        );
        // A repeat, by id or by name, is an error: two runs of one
        // experiment would write one report file and duplicate its
        // `metrics.json` keys.
        assert_eq!(
            select_experiments("e01,e01"),
            Err("duplicate experiment \"e01\"".to_string())
        );
        assert_eq!(
            select_experiments("e01, e04 ,e01_dataflows"),
            Err("duplicate experiment \"e01_dataflows\"".to_string())
        );
        assert!(select_experiments("e99").is_err());
        assert!(select_experiments("e01,bogus").is_err());
        assert!(select_experiments("").is_err());
        assert!(select_experiments(" , ,").is_err());
    }

    #[test]
    fn status_strings_are_stable() {
        assert_eq!(ExperimentStatus::Ok.as_str(), "ok");
        assert_eq!(ExperimentStatus::Failed.as_str(), "failed");
        assert_eq!(ExperimentStatus::TimedOut.as_str(), "timed_out");
        assert_eq!(ExperimentStatus::Interrupted.as_str(), "interrupted");
    }
}
