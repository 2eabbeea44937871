//! Scheduler recovery integration tests: retry, quarantine, watchdog,
//! chaos injection, and the resume corruption matrix — all driven through
//! the real `run_experiments` machinery with stub experiment executables
//! (tiny `#!/bin/sh` scripts staged in a private exe dir, reached through
//! a dispatcher that stands in for `run_all --child NAME`), so the process
//! spawning, output capture, and post-flight validation paths are the
//! ones `run_all` ships.
//!
//! Everything here uses explicit [`ScheduleOptions`] — no process
//! environment mutation — and a pinned wall clock plus the fixed nonce
//! `"n"`, so consolidated documents can be compared byte for byte.
#![cfg(unix)]

use std::fs;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};

use stellar_bench::chaos::ChaosPlan;
use stellar_bench::durable;
use stellar_bench::harness::{
    consolidate, prepare_run, run_experiments, ConsolidateCtx, ExperimentStatus, PreparedRun,
    ScheduleOptions,
};

/// A fresh scratch tree `<tmp>/<tag>-<pid>/{exe,out,prep}`.
fn scratch(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("stellar-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let exe = base.join("exe");
    let out = base.join("out");
    let prep = base.join("prep");
    for d in [&exe, &out, &prep] {
        fs::create_dir_all(d).unwrap();
    }
    (exe, out, prep)
}

/// The stand-in for `run_all` the scheduler launches as `dispatch --child
/// NAME`; it runs the stub named `NAME` beside it.
const DISPATCH: &str = "dispatch";

/// Installs an executable `#!/bin/sh` stub named like a real experiment,
/// and the [`DISPATCH`] script that reaches it.
fn stub(exe_dir: &Path, name: &str, body: &str) {
    for (file, body) in [(name, body), (DISPATCH, "exec \"$(dirname \"$0\")/$2\"")] {
        let path = exe_dir.join(file);
        fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
    }
}

/// The schema-shaped report payload a healthy experiment would emit,
/// stamped with the fixed test nonce `"n"`.
fn good_payload(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"title\":\"stub\",\"wall_ms\":0.000,\"nonce\":\"n\",\
         \"breakdowns\":{{}},\"trace\":null,\"metrics\":[]}}"
    )
}

/// Seals a healthy report into `prep/<id>.json.good` for stubs to `cp`.
fn stage_good(prep: &Path, id: &str) -> PathBuf {
    let path = prep.join(format!("{id}.json.good"));
    fs::write(&path, durable::seal(&good_payload(id))).unwrap();
    path
}

/// A stub body that copies the staged good report into place.
fn cp_body(staged: &Path, out: &Path, id: &str) -> String {
    format!(
        "cp {} {}",
        staged.display(),
        out.join(format!("{id}.json")).display()
    )
}

/// Scheduler options pinned for byte-stable comparisons.
fn opts(out: &Path, exe: &Path, experiments: Vec<&'static str>) -> ScheduleOptions {
    let mut o = ScheduleOptions::suite("n".to_string(), out.to_path_buf(), exe.join(DISPATCH));
    o.experiments = experiments;
    o.timeout_ms = 10_000;
    o.retry_backoff_ms = 10;
    o.fixed_wall_ms = Some(0.0);
    o
}

fn ctx<'a>(out: &'a Path, jobs: usize) -> ConsolidateCtx<'a> {
    ConsolidateCtx {
        out_dir: out,
        trace: false,
        jobs,
        total_ms: 0.0,
        nonce: Some("n"),
        interrupted: false,
        fixed_wall_ms: Some(0.0),
    }
}

#[test]
fn healthy_suite_completes_and_consolidates() {
    let (exe, out, prep) = scratch("healthy");
    let g1 = stage_good(&prep, "e01");
    let g2 = stage_good(&prep, "e02");
    stub(&exe, "e01_dataflows", &cp_body(&g1, &out, "e01"));
    stub(&exe, "e02_pipelining", &cp_body(&g2, &out, "e02"));
    let o = opts(&out, &exe, vec!["e01_dataflows", "e02_pipelining"]);
    let outcomes = run_experiments(&o, &PreparedRun::fresh("n".into(), 2));
    assert!(outcomes
        .iter()
        .all(|x| x.status == ExperimentStatus::Ok && x.attempts == 1 && x.error.is_none()));
    let json = consolidate(&ctx(&out, 1), &outcomes);
    assert!(json.contains("\"consolidated\":2"));
    assert!(json.contains("\"failures\":0"));
    assert!(json.contains("\"id\":\"e01\"") && json.contains("\"id\":\"e02\""));
}

#[test]
fn persistent_failure_is_quarantined_not_fatal() {
    let (exe, out, prep) = scratch("quarantine");
    stub(&exe, "e01_dataflows", "exit 1");
    let g2 = stage_good(&prep, "e02");
    stub(&exe, "e02_pipelining", &cp_body(&g2, &out, "e02"));
    let o = opts(&out, &exe, vec!["e01_dataflows", "e02_pipelining"]);
    let outcomes = run_experiments(&o, &PreparedRun::fresh("n".into(), 2));
    assert_eq!(outcomes[0].status, ExperimentStatus::Failed);
    assert_eq!(outcomes[0].attempts, 2, "one retry before quarantine");
    assert!(outcomes[0].error.as_deref().unwrap().contains("nonzero"));
    // The suite kept going: the sibling completed normally.
    assert_eq!(outcomes[1].status, ExperimentStatus::Ok);
    let json = consolidate(&ctx(&out, 1), &outcomes);
    assert!(json.contains("\"failures\":1"));
    assert!(json.contains("\"e01_dataflows\":\"failed\""));
    assert!(json.contains("\"id\":\"e02\""));
}

#[test]
fn hung_child_is_killed_by_the_watchdog() {
    let (exe, out, _prep) = scratch("watchdog");
    // Loop in short sleeps so killing the sh leaves at most a 100 ms
    // orphan holding the output pipe.
    stub(&exe, "e01_dataflows", "while true; do sleep 0.1; done");
    let mut o = opts(&out, &exe, vec!["e01_dataflows"]);
    o.timeout_ms = 300;
    o.retries = 0;
    let outcomes = run_experiments(&o, &PreparedRun::fresh("n".into(), 1));
    assert_eq!(outcomes[0].status, ExperimentStatus::TimedOut);
    assert!(outcomes[0].error.as_deref().unwrap().contains("timed out"));
    let json = consolidate(&ctx(&out, 1), &outcomes);
    assert!(json.contains("\"timed_out\":1"));
    assert!(json.contains("\"e01_dataflows\":\"timed_out\""));
}

#[test]
fn transient_failure_recovers_on_retry() {
    let (exe, out, prep) = scratch("transient");
    let g1 = stage_good(&prep, "e01");
    let marker = prep.join("attempted-once");
    // First launch fails; the retry succeeds — the flaky-experiment shape.
    stub(
        &exe,
        "e01_dataflows",
        &format!(
            "if [ -f {m} ]; then {cp}; else touch {m}; exit 1; fi",
            m = marker.display(),
            cp = cp_body(&g1, &out, "e01"),
        ),
    );
    let o = opts(&out, &exe, vec!["e01_dataflows"]);
    let outcomes = run_experiments(&o, &PreparedRun::fresh("n".into(), 1));
    assert_eq!(outcomes[0].status, ExperimentStatus::Ok);
    assert_eq!(outcomes[0].attempts, 2);
    assert!(consolidate(&ctx(&out, 1), &outcomes).contains("\"consolidated\":1"));
}

#[test]
fn chaos_kill_is_recovered_by_retry() {
    let (exe, out, prep) = scratch("chaos-kill");
    let g1 = stage_good(&prep, "e01");
    stub(&exe, "e01_dataflows", &cp_body(&g1, &out, "e01"));
    let mut o = opts(&out, &exe, vec!["e01_dataflows"]);
    // Certain kill on attempt 0, clean retries: deterministic recovery.
    o.chaos = Some(ChaosPlan::parse("seed=7,kill=1,first=1").unwrap());
    let outcomes = run_experiments(&o, &PreparedRun::fresh("n".into(), 1));
    assert_eq!(outcomes[0].status, ExperimentStatus::Ok);
    assert_eq!(outcomes[0].attempts, 2, "killed once, then recovered");
}

#[test]
fn chaos_corruption_is_caught_postflight_and_retried() {
    let (exe, out, prep) = scratch("chaos-corrupt");
    let g1 = stage_good(&prep, "e01");
    stub(&exe, "e01_dataflows", &cp_body(&g1, &out, "e01"));
    let mut o = opts(&out, &exe, vec!["e01_dataflows"]);
    // The child exits cleanly but its report gets a byte flipped; the
    // post-flight envelope check must catch it before consolidation ever
    // sees the file.
    o.chaos = Some(ChaosPlan::parse("seed=11,corrupt=1,first=1").unwrap());
    let outcomes = run_experiments(&o, &PreparedRun::fresh("n".into(), 1));
    assert_eq!(outcomes[0].status, ExperimentStatus::Ok);
    assert_eq!(outcomes[0].attempts, 2);
    assert!(outcomes[0].error.is_none());
    // The surviving report is the clean retry's.
    let body = durable::read_envelope(&out.join("e01.json")).unwrap();
    assert_eq!(body, good_payload("e01"));
}

/// The corruption matrix (satellite): a truncated, bit-flipped,
/// wrong-version, or wrong-checksum report must each be rejected by
/// `--resume` validation, deleted, re-run — and the final consolidated
/// document must be byte-identical to a run that was never corrupted.
#[test]
fn corruption_matrix_is_rejected_and_rerun_under_resume() {
    let suite: Vec<&'static str> = vec!["e01_dataflows", "e02_pipelining"];

    // Control: an uncorrupted run of the same suite.
    let control = {
        let (exe, out, prep) = scratch("matrix-control");
        let g1 = stage_good(&prep, "e01");
        let g2 = stage_good(&prep, "e02");
        stub(&exe, "e01_dataflows", &cp_body(&g1, &out, "e01"));
        stub(&exe, "e02_pipelining", &cp_body(&g2, &out, "e02"));
        let prepared = prepare_run(&out, &suite, false, false, Some("n".into())).unwrap();
        let o = opts(&out, &exe, suite.clone());
        let outcomes = run_experiments(&o, &prepared);
        consolidate(&ctx(&out, 1), &outcomes)
    };

    let sealed = durable::seal(&good_payload("e01"));
    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", sealed.as_bytes()[..sealed.len() - 9].to_vec()),
        ("bit-flipped", {
            let mut b = sealed.clone().into_bytes();
            let mid = b.len() / 2;
            b[mid] ^= 0x08;
            b
        }),
        (
            "wrong-version",
            durable::seal(&good_payload("e01"))
                .replace("stellar-envelope-v1", "stellar-envelope-v0")
                .into_bytes(),
        ),
        ("wrong-checksum", {
            let p = good_payload("e01");
            format!(
                "{{\"stellar_envelope\":\"stellar-envelope-v1\",\"crc32\":1,\"len\":{},\"payload\":{p}}}",
                p.len()
            )
            .into_bytes()
        }),
    ];

    for (kind, bytes) in corruptions {
        let (exe, out, prep) = scratch(&format!("matrix-{kind}"));
        let g1 = stage_good(&prep, "e01");
        let g2 = stage_good(&prep, "e02");
        stub(&exe, "e01_dataflows", &cp_body(&g1, &out, "e01"));
        stub(&exe, "e02_pipelining", &cp_body(&g2, &out, "e02"));
        // A run stamped its manifest, e02 completed, and e01's report was
        // left corrupted (the crash-mid-write shape under test).
        prepare_run(&out, &suite, false, false, Some("n".into())).unwrap();
        fs::write(out.join("e01.json"), &bytes).unwrap();
        fs::write(out.join("e02.json"), durable::seal(&good_payload("e02"))).unwrap();

        let prepared = prepare_run(&out, &suite, false, true, None).unwrap();
        assert_eq!(prepared.nonce, "n", "{kind}: manifest nonce must be reused");
        assert_eq!(
            prepared.resumed,
            vec![false, true],
            "{kind}: corrupt report must be re-run, healthy one resumed"
        );
        assert!(
            !out.join("e01.json").exists(),
            "{kind}: corrupt report must be deleted before re-run"
        );

        let o = opts(&out, &exe, suite.clone());
        let outcomes = run_experiments(&o, &prepared);
        assert_eq!(outcomes[0].status, ExperimentStatus::Ok, "{kind}");
        assert!(outcomes[1].resumed, "{kind}");
        let resumed_json = consolidate(&ctx(&out, 1), &outcomes);
        assert_eq!(
            resumed_json, control,
            "{kind}: resumed consolidation must be byte-identical to the control run"
        );
    }
}

/// The stale-nonce satellite: a crash between the new run's nonce stamp
/// and its first report flush leaves reports stamped with the *previous*
/// nonce. Resume must detect them as stale and re-run, never consume.
#[test]
fn stale_nonce_leftovers_are_rerun_not_consumed() {
    let suite: Vec<&'static str> = vec!["e01_dataflows"];
    let (exe, out, prep) = scratch("stale-nonce");
    let g1 = stage_good(&prep, "e01");
    stub(&exe, "e01_dataflows", &cp_body(&g1, &out, "e01"));

    // The interrupted-previous-run shape: the manifest says nonce "n"
    // (stamped before anything launched), but the only report on disk is a
    // *valid envelope* from an older run stamped "old" — exactly what a
    // crash after the stamp but before the first flush leaves behind.
    prepare_run(&out, &suite, false, false, Some("n".into())).unwrap();
    let old_payload = good_payload("e01").replace("\"nonce\":\"n\"", "\"nonce\":\"old\"");
    fs::write(out.join("e01.json"), durable::seal(&old_payload)).unwrap();

    let prepared = prepare_run(&out, &suite, false, true, None).unwrap();
    assert_eq!(
        prepared.resumed,
        vec![false],
        "stale-nonce report must not validate for skipping"
    );
    let o = opts(&out, &exe, suite.clone());
    let outcomes = run_experiments(&o, &prepared);
    assert_eq!(outcomes[0].status, ExperimentStatus::Ok);
    let json = consolidate(&ctx(&out, 1), &outcomes);
    assert!(
        !json.contains("\"nonce\":\"old\""),
        "stale report leaked into consolidation: {json}"
    );
    assert!(json.contains("\"stale\":0") && json.contains("\"consolidated\":1"));
}
