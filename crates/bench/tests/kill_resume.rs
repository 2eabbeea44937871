//! End-to-end crash-safety tests against the real `run_all` binary:
//! SIGKILL mid-suite + `--resume` must reproduce an uninterrupted run's
//! consolidated `metrics.json` byte for byte, and SIGINT must drain
//! gracefully with exit code 130 and a partial report marked
//! `interrupted`; a run nonce that needs JSON escaping must be
//! recognised by every staleness check, fresh and resumed; and
//! `run_all --child` must refuse a name that is not an experiment.
//!
//! The experiments are `#!/bin/sh` stubs (reached through a dispatcher
//! script given as `--exe`, and selected via `--only`) with absolute
//! paths baked in, so nothing here
//! depends on the test process environment; wall clocks are pinned with
//! `--fixed-wall-ms 0` and the nonce with `--nonce n` so byte equality is
//! meaningful.
#![cfg(unix)]

use std::fs;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stellar_bench::durable;

fn scratch(tag: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("stellar-killres-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).unwrap();
    base
}

/// The stand-in for `run_all` each experiment is launched as, `dispatch
/// --child NAME`; it runs the stub named `NAME` beside it.
const DISPATCH: &str = "dispatch";

fn stub(exe_dir: &Path, name: &str, body: &str) {
    for (file, body) in [(name, body), (DISPATCH, "exec \"$(dirname \"$0\")/$2\"")] {
        let path = exe_dir.join(file);
        fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
    }
}

fn payload(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"title\":\"stub\",\"wall_ms\":0.000,\"nonce\":\"n\",\
         \"breakdowns\":{{}},\"trace\":null,\"metrics\":[]}}"
    )
}

/// Stages a sealed good report and returns a stub body that installs it.
fn instant_stub_body(base: &Path, out: &Path, id: &str) -> String {
    let good = base.join(format!("{id}.good"));
    fs::write(&good, durable::seal(&payload(id))).unwrap();
    format!(
        "cp {} {}",
        good.display(),
        out.join(format!("{id}.json")).display()
    )
}

fn wait_for(path: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `run_all` against a stub suite in `out`, with byte-stable knobs.
fn run_all_cmd(exe_dir: &Path, out: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.args([
        "--only",
        "e01,e02,e03",
        "--exe",
        &exe_dir.join(DISPATCH).display().to_string(),
        "--nonce",
        "n",
        "--fixed-wall-ms",
        "0",
        "--timeout",
        "60",
    ]);
    cmd.args(extra);
    cmd.env("STELLAR_OUT_DIR", out);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Builds the three-experiment stub suite: e01/e03 complete instantly,
/// e02 blocks until `go` exists (the mid-suite window).
fn build_suite(base: &Path, out: &Path, go: &Path) -> PathBuf {
    let exe = base.join("exe");
    fs::create_dir_all(&exe).unwrap();
    fs::create_dir_all(out).unwrap();
    stub(&exe, "e01_dataflows", &instant_stub_body(base, out, "e01"));
    let good2 = base.join("e02.good");
    fs::write(&good2, durable::seal(&payload("e02"))).unwrap();
    // The stub records its own pid so a test that SIGKILLs the harness can
    // also reap this orphan (SIGKILL does not propagate to children).
    stub(
        &exe,
        "e02_pipelining",
        &format!(
            "echo $$ > {p}\ntouch {s}\nwhile [ ! -f {g} ]; do sleep 0.05; done\ncp {c} {r}",
            p = base.join("e02.pid").display(),
            s = base.join("e02.started").display(),
            g = go.display(),
            c = good2.display(),
            r = out.join("e02.json").display(),
        ),
    );
    stub(&exe, "e03_sparsity", &instant_stub_body(base, out, "e03"));
    exe
}

#[test]
fn kill9_then_resume_is_byte_identical_to_uninterrupted() {
    // Control: the same suite, never interrupted (`go` pre-created).
    let control_base = scratch("control");
    let control_out = control_base.join("out");
    let go = control_base.join("go");
    fs::write(&go, "go").unwrap();
    let exe = build_suite(&control_base, &control_out, &go);
    let status = run_all_cmd(&exe, &control_out, &["-j", "2"])
        .status()
        .unwrap();
    assert!(status.success(), "control run failed: {status:?}");
    let control_metrics = fs::read(control_out.join("metrics.json")).unwrap();

    // Victim: e02 blocks, e01/e03 land, then the harness takes a SIGKILL.
    let base = scratch("victim");
    let out = base.join("out");
    let go = base.join("go");
    let exe = build_suite(&base, &out, &go);
    let mut child = run_all_cmd(&exe, &out, &["-j", "2"]).spawn().unwrap();
    wait_for(&out.join("e01.json"), "e01 report");
    wait_for(&out.join("e03.json"), "e03 report");
    wait_for(&base.join("e02.started"), "e02 to be in flight");
    child.kill().unwrap(); // SIGKILL: no drain, no flush
    child.wait().unwrap();
    assert!(
        !out.join("metrics.json").exists(),
        "a SIGKILLed run must not have consolidated"
    );
    // Reap the orphaned e02 stub so it cannot race the resume run for the
    // report file once `go` appears.
    let orphan = fs::read_to_string(base.join("e02.pid")).unwrap();
    let _ = Command::new("kill")
        .args(["-9", orphan.trim()])
        .status()
        .unwrap();

    // Resume: e02 is released, the validated e01/e03 reports are skipped.
    fs::write(&go, "go").unwrap();
    let status = run_all_cmd(&exe, &out, &["-j", "2", "--resume"])
        .status()
        .unwrap();
    assert!(status.success(), "resume run failed: {status:?}");

    let resumed_metrics = fs::read(out.join("metrics.json")).unwrap();
    assert_eq!(
        resumed_metrics, control_metrics,
        "resumed metrics.json must be byte-identical to the uninterrupted run"
    );

    // The scheduler's own account of the recovery lives in the summary.
    let summary = durable::read_envelope(&out.join("run_summary.json")).unwrap();
    assert!(summary.contains("\"resumed\":2"), "summary: {summary}");
    assert!(summary.contains("\"launched\":1"), "summary: {summary}");

    // And the consolidated payload validates as a healthy, complete run.
    let metrics = durable::unseal(&String::from_utf8(resumed_metrics).unwrap())
        .unwrap()
        .to_string();
    assert!(metrics.contains("\"stale\":0"));
    assert!(metrics.contains("\"corrupt\":0"));
    assert!(metrics.contains("\"interrupted\":false"));
    assert!(metrics.contains("\"consolidated\":3"));

    let _ = fs::remove_dir_all(&control_base);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn sigint_drains_gracefully_with_partial_metrics() {
    let base = scratch("sigint");
    let out = base.join("out");
    let go = base.join("go");
    let exe = build_suite(&base, &out, &go);

    // Serial, so the claim order is e01 → e02 (blocked) → e03.
    let mut child = run_all_cmd(&exe, &out, &["-j", "1"]).spawn().unwrap();
    wait_for(&base.join("e02.started"), "e02 to be in flight");
    let int = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(int.success(), "could not deliver SIGINT");
    // Only after the interrupt is e02 released: it must drain to a clean
    // completion, and e03 must be skipped.
    fs::write(&go, "go").unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(130), "graceful-interrupt exit code");

    let metrics = durable::read_envelope(&out.join("metrics.json")).unwrap();
    assert!(metrics.contains("\"interrupted\":true"), "{metrics}");
    assert!(metrics.contains("\"id\":\"e01\""), "{metrics}");
    assert!(
        metrics.contains("\"id\":\"e02\""),
        "e02 did not drain: {metrics}"
    );
    assert!(
        metrics.contains("\"e03_sparsity\":\"interrupted\""),
        "{metrics}"
    );

    // An interrupted run keeps its manifest, so it is resumable.
    assert!(out.join("run_state.json").exists());
    let resumed = run_all_cmd(&exe, &out, &["-j", "1", "--resume"])
        .status()
        .unwrap();
    assert!(resumed.success(), "post-SIGINT resume failed: {resumed:?}");
    let metrics = durable::read_envelope(&out.join("metrics.json")).unwrap();
    assert!(metrics.contains("\"interrupted\":false"));
    assert!(metrics.contains("\"consolidated\":3"));

    let _ = fs::remove_dir_all(&base);
}

/// The run nonce is stamped escaped into every report and into the
/// manifest; the staleness checks must compare what it decodes to. With a
/// nonce holding `"` and `\`, the real experiments (`run_all --child`, so
/// the real report writer) must be consolidated by a fresh run, and a `--resume`
/// must recover the nonce from the manifest and accept the report that
/// carries it.
#[test]
fn a_nonce_that_needs_escaping_survives_a_fresh_run_and_a_resume() {
    const NONCE: &str = "a\"b\\c";
    let base = scratch("nonce");
    let out = base.join("out");
    let exe = base.join("exe");
    fs::create_dir_all(&exe).unwrap();
    let go = base.join("go");
    stub(
        &exe,
        "e01_dataflows",
        &format!(
            "exec {} --child e01_dataflows",
            env!("CARGO_BIN_EXE_run_all")
        ),
    );
    // e02 fails until `go` exists, then is the real experiment too.
    stub(
        &exe,
        "e02_pipelining",
        &format!(
            "[ -f {} ] || exit 1\nexec {} --child e02_pipelining",
            go.display(),
            env!("CARGO_BIN_EXE_run_all")
        ),
    );
    let run = |only: &str, extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
        let dispatch = exe.join(DISPATCH).display().to_string();
        cmd.args(["--only", only, "--exe", &dispatch]);
        cmd.args(["--fixed-wall-ms", "0", "--retries", "0"]);
        cmd.args(extra);
        cmd.env("STELLAR_OUT_DIR", &out);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd.status().unwrap()
    };

    // Fresh run of one experiment: consolidated, not quarantined as stale.
    assert!(run("e01", &["--nonce", NONCE]).success());
    let metrics = durable::read_envelope(&out.join("metrics.json")).unwrap();
    assert!(metrics.contains("\"consolidated\":1"), "{metrics}");
    assert!(metrics.contains("\"stale\":0"), "{metrics}");
    assert!(
        metrics.contains("\"e01_dataflows\":\"ok\""),
        "e01 was not accepted: {metrics}"
    );
    assert!(metrics.contains(r#""nonce":"a\"b\\c""#), "{metrics}");

    // A run that e02 fails keeps its manifest; the resume recovers the
    // nonce from it, skips e01 on its validated report, and finishes e02.
    assert!(!run("e01,e02", &["--nonce", NONCE]).success());
    assert!(out.join("run_state.json").exists());
    fs::write(&go, "go").unwrap();
    assert!(run("e01,e02", &["--resume"]).success());
    let summary = durable::read_envelope(&out.join("run_summary.json")).unwrap();
    assert!(summary.contains("\"resumed\":1"), "{summary}");
    assert!(summary.contains("\"launched\":1"), "{summary}");
    assert!(summary.contains(r#""nonce":"a\"b\\c""#), "{summary}");
    let metrics = durable::read_envelope(&out.join("metrics.json")).unwrap();
    assert!(metrics.contains("\"consolidated\":2"), "{metrics}");
    assert!(metrics.contains("\"stale\":0"), "{metrics}");

    let _ = fs::remove_dir_all(&base);
}

/// `run_all --child` resolves its name as `--only` does; a name that is no
/// experiment is a usage error that runs nothing and writes no report.
#[test]
fn a_child_that_names_no_experiment_exits_2_and_writes_nothing() {
    let out = scratch("child").join("out");
    let done = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--child", "e99"])
        .env("STELLAR_OUT_DIR", &out)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(done.status.code(), Some(2), "{done:?}");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(stderr.contains("e99"), "{stderr}");
    assert!(done.stdout.is_empty(), "{done:?}");
    assert!(
        !out.exists(),
        "a refused child wrote under {}",
        out.display()
    );
    let _ = fs::remove_dir_all(out.parent().unwrap());
}
