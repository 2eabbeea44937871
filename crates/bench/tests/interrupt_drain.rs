//! Graceful-interrupt drain semantics, at library level.
//!
//! This lives in its own integration-test binary because the interrupt
//! flag is process-global: sharing a process with the other scheduler
//! tests would race them. The single test below owns the whole process.
#![cfg(unix)]

use std::fs;
use std::os::unix::fs::PermissionsExt;
use std::path::Path;
use std::time::{Duration, Instant};

use stellar_bench::durable;
use stellar_bench::harness::{
    consolidate, interrupt, render_run_summary, run_experiments, ConsolidateCtx, ExperimentStatus,
    PreparedRun, ScheduleOptions,
};

/// The stand-in for `run_all` the scheduler launches as `dispatch --child
/// NAME`; it runs the stub named `NAME` beside it.
const DISPATCH: &str = "dispatch";

fn stub(exe_dir: &Path, name: &str, body: &str) {
    for (file, body) in [(name, body), (DISPATCH, "exec \"$(dirname \"$0\")/$2\"")] {
        let path = exe_dir.join(file);
        fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
    }
}

fn wait_for(path: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn interrupt_drains_in_flight_work_and_skips_the_rest() {
    let base = std::env::temp_dir().join(format!("stellar-interrupt-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let exe = base.join("exe");
    let out = base.join("out");
    fs::create_dir_all(&exe).unwrap();
    fs::create_dir_all(&out).unwrap();

    let payload = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"title\":\"stub\",\"wall_ms\":0.000,\"nonce\":\"n\",\
             \"breakdowns\":{{}},\"trace\":null,\"metrics\":[]}}"
        )
    };
    let good1 = base.join("e01.good");
    fs::write(&good1, durable::seal(&payload("e01"))).unwrap();
    let started = base.join("e01.started");
    let go = base.join("e01.go");
    // e01 signals that it is in flight, then blocks until released — the
    // window in which the interrupt arrives.
    stub(
        &exe,
        "e01_dataflows",
        &format!(
            "touch {s}\nwhile [ ! -f {g} ]; do sleep 0.05; done\ncp {c} {r}",
            s = started.display(),
            g = go.display(),
            c = good1.display(),
            r = out.join("e01.json").display(),
        ),
    );
    // e02 must never run; leave evidence if it does.
    stub(
        &exe,
        "e02_pipelining",
        &format!("touch {}", base.join("e02.ran").display()),
    );

    let mut opts = ScheduleOptions::suite("n".to_string(), out.clone(), exe.join(DISPATCH));
    opts.experiments = vec!["e01_dataflows", "e02_pipelining"];
    opts.timeout_ms = 30_000;
    opts.fixed_wall_ms = Some(0.0);

    interrupt::reset();
    let releaser = std::thread::spawn({
        let started = started.clone();
        let go = go.clone();
        move || {
            wait_for(&started, "e01 to start");
            // The interrupt lands while e01 is in flight...
            interrupt::request();
            // ...and only then is e01 released to finish.
            fs::write(&go, "go").unwrap();
        }
    });
    let outcomes = run_experiments(&opts, &PreparedRun::fresh("n".into(), 2));
    releaser.join().unwrap();

    // In-flight work drained to a clean, validated completion.
    assert_eq!(outcomes[0].status, ExperimentStatus::Ok);
    assert_eq!(outcomes[0].attempts, 1);
    // Pending work was never launched.
    assert_eq!(outcomes[1].status, ExperimentStatus::Interrupted);
    assert_eq!(outcomes[1].attempts, 0);
    assert!(
        !base.join("e02.ran").exists(),
        "e02 ran after the interrupt"
    );

    // The partial consolidated report is still written, marked interrupted.
    let ctx = ConsolidateCtx {
        out_dir: &out,
        trace: false,
        jobs: 1,
        total_ms: 0.0,
        nonce: Some("n"),
        interrupted: interrupt::interrupted(),
        fixed_wall_ms: Some(0.0),
    };
    let json = consolidate(&ctx, &outcomes);
    assert!(json.contains("\"interrupted\":true"));
    assert!(json.contains("\"id\":\"e01\""));
    assert!(json.contains("\"e02_pipelining\":\"interrupted\""));
    let summary = render_run_summary("n", &outcomes, true);
    assert!(summary.contains("\"interrupted\":true"));
    assert!(summary.contains("\"launched\":1"));

    interrupt::reset();
    let _ = fs::remove_dir_all(&base);
}
