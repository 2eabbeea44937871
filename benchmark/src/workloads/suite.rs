//! `suite_run_all`: one iteration is one `run_all` (default `-j 1`) over all
//! 21 experiments into a fresh `STELLAR_OUT_DIR` under `benchmark/out`. The
//! suite is fixed, so the seed has no effect on this workload. Set-up's
//! warm-up is `run_all --only` two cheap experiments: it pages in the
//! harness and proves the binaries run without costing a whole suite three
//! times a run.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::adapters;
use crate::host;
use crate::json::{self, Value};
use crate::run::{Checks, Iteration, Layers, Measured, RunArgs, Spans, Workload};
use crate::stats;
use crate::trace::Tracer;

pub const EXPERIMENTS: usize = 21;
const WARMUP_ONLY: &str = "e01,e12";
const QUICK_ONLY: &str = "e01,e05,e12,e20";

pub struct Suite {
    exe: PathBuf,
    dir: PathBuf,
    only: Option<&'static str>,
    runs: Vec<SuiteRun>,
}

/// One experiment of one `run_all`: the wall time its own report states and
/// the wall time the harness saw, in seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentWall {
    pub id: String,
    pub own_s: f64,
    pub seen_s: f64,
}

struct SuiteRun {
    wall_s: f64,
    experiments: Vec<ExperimentWall>,
}

/// What `metrics.json` must say after a clean run: `expected` experiments,
/// every status `ok`. Returns the per-experiment wall times.
pub fn read_metrics(text: &str, expected: usize) -> Result<Vec<ExperimentWall>, String> {
    let v = json::parse(adapters::unseal_line(text)?)?;
    let statuses = v
        .path(&["harness", "statuses"])
        .and_then(Value::as_obj)
        .ok_or("no harness.statuses")?;
    let bad: Vec<&str> = statuses
        .iter()
        .filter(|(_, s)| s.as_str() != Some("ok"))
        .map(|(name, _)| name.as_str())
        .collect();
    if statuses.len() != expected || !bad.is_empty() {
        return Err(format!(
            "{} of {expected} experiments reported, not ok: {bad:?}",
            statuses.len()
        ));
    }
    let seen_by_harness = v
        .path(&["harness", "wall_ms"])
        .and_then(Value::as_obj)
        .ok_or("no harness.wall_ms")?;
    let experiments = v
        .get("experiments")
        .and_then(Value::as_arr)
        .ok_or("no experiments")?;
    experiments
        .iter()
        .map(|e| {
            let id = e
                .get("id")
                .and_then(Value::as_str)
                .ok_or("experiment without id")?;
            let own = e
                .get("wall_ms")
                .and_then(Value::as_f64)
                .ok_or("experiment without wall_ms")?;
            let seen = seen_by_harness
                .iter()
                .find(|(name, _)| name.starts_with(id))
                .and_then(|(_, ms)| ms.as_f64())
                .ok_or_else(|| format!("harness saw no {id}"))?;
            Ok(ExperimentWall {
                id: id.to_string(),
                own_s: own / 1e3,
                seen_s: seen / 1e3,
            })
        })
        .collect()
}

impl Suite {
    fn run_all(&self, only: Option<&str>) -> Result<(Duration, bool), String> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        }
        std::fs::create_dir_all(&self.dir).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(&self.exe);
        cmd.env("STELLAR_OUT_DIR", &self.dir)
            .env_remove("STELLAR_CACHE_DIR")
            .env_remove("STELLAR_TRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(list) = only {
            cmd.args(["--only", list]);
        }
        let t0 = Instant::now();
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", self.exe.display()))?;
        Ok((t0.elapsed(), status.success()))
    }
}

impl Workload for Suite {
    const TRACED_LOOP_SHARE: f64 = 1.0;

    fn setup(args: &RunArgs, _tr: &mut Tracer) -> Result<Suite, String> {
        let w = Suite {
            exe: host::repo_binary("run_all")?,
            dir: host::out_dir()
                .join("scratch")
                .join(format!("suite_run_all-{}", std::process::id())),
            only: args.quick.then_some(QUICK_ONLY),
            runs: Vec::new(),
        };
        let (_, ok) = w.run_all(Some(WARMUP_ONLY))?;
        if !ok {
            return Err("the warm-up run_all failed".to_string());
        }
        Ok(w)
    }

    fn measured(&self) -> Measured {
        Measured::Waited
    }

    fn iterate(
        &mut self,
        n: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let t0 = Instant::now();
        let expected = self.only.map_or(EXPERIMENTS, |l| l.split(',').count());
        let t_run = Instant::now();
        let (wall, ok) = self.run_all(self.only)?;
        tr.record("suite.run_all", n, t_run, Instant::now());
        checks.check(ok, || "run_all exited with a failure".to_string());
        let path = self.dir.join("metrics.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match read_metrics(&text, expected) {
            Ok(per_experiment) => {
                for _ in 0..expected {
                    checks.check(true, String::new);
                }
                self.runs.push(SuiteRun {
                    wall_s: wall.as_secs_f64(),
                    experiments: per_experiment,
                });
            }
            Err(e) => {
                for _ in 0..expected {
                    checks.check(false, || e.clone());
                }
            }
        }
        Ok(Iteration {
            work: expected as f64,
            output_bytes: text.len() as u64,
            excluded: t0.elapsed().saturating_sub(wall),
            ..Iteration::default()
        })
    }

    fn layers(
        &mut self,
        _args: &RunArgs,
        _budget: Duration,
        _spans: &Spans,
        _tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        // Each value is the median over this run's `run_all`s.
        let med = |f: &dyn Fn(&SuiteRun) -> f64| {
            stats::median(&self.runs.iter().map(f).collect::<Vec<_>>())
        };
        let own_sum = |r: &SuiteRun, keep: &dyn Fn(&str) -> bool| -> f64 {
            r.experiments
                .iter()
                .filter(|e| keep(&e.id))
                .map(|e| e.own_s)
                .sum()
        };
        const NAMED: [(&str, &str); 4] = [
            ("suite.e09_s", "e09"),
            ("suite.e10_s", "e10"),
            ("suite.e14_s", "e14"),
            ("suite.e15_s", "e15"),
        ];
        for (metric, id) in NAMED {
            out.insert(metric, med(&|r| own_sum(r, &|e| e == id)));
        }
        out.insert(
            "suite.rest_s",
            med(&|r| own_sum(r, &|e| NAMED.iter().all(|(_, id)| *id != e))),
        );
        out.insert(
            "bench.harness.overhead_s",
            med(&|r| r.wall_s - own_sum(r, &|_| true)),
        );
        out.insert(
            "bench.harness.spawn_ms_per_exp",
            med(&|r| {
                let gaps: Vec<f64> = r
                    .experiments
                    .iter()
                    .map(|e| (e.seen_s - e.own_s) * 1e3)
                    .collect();
                stats::median(&gaps)
            }),
        );
        Ok(())
    }

    fn teardown(self) -> Result<(), String> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(statuses: &str) -> String {
        let payload = format!(
            "{{\"experiments\":[{{\"id\":\"e01\",\"wall_ms\":1.5}},{{\"id\":\"e02\",\"wall_ms\":2.5}}],\
             \"harness\":{{\"statuses\":{{{statuses}}},\"wall_ms\":{{\"e01_a\":11.5,\"e02_b\":12.5}}}}}}"
        );
        adapters::seal_payload(&payload)
    }

    #[test]
    fn clean_metrics_give_per_experiment_walls() {
        let got = read_metrics(&sealed("\"e01_a\":\"ok\",\"e02_b\":\"ok\""), 2).unwrap();
        let wall = |id: &str, own_s, seen_s| ExperimentWall {
            id: id.to_string(),
            own_s,
            seen_s,
        };
        assert_eq!(
            got,
            vec![wall("e01", 0.0015, 0.0115), wall("e02", 0.0025, 0.0125)]
        );
    }

    #[test]
    fn a_failed_missing_or_corrupted_experiment_is_rejected() {
        assert!(read_metrics(&sealed("\"e01_a\":\"ok\",\"e02_b\":\"failed\""), 2).is_err());
        assert!(read_metrics(&sealed("\"e01_a\":\"ok\""), 2).is_err());
        let mut flipped = sealed("\"e01_a\":\"ok\",\"e02_b\":\"ok\"");
        flipped = flipped.replacen("e01", "e91", 1);
        assert!(
            read_metrics(&flipped, 2).is_err(),
            "a flipped byte must fail the checksum"
        );
    }
}
