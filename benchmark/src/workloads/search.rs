//! `search_mc3`: one iteration is one `explore_dataflows` over
//! `matmul(3,3,3)` with `max_coeff = 3`, `keep = 64`, on `min(nproc, 4)`
//! threads: 7^9 = 40 353 607 candidates. The search is exhaustive, so the
//! seed has no effect on this workload.

use std::time::{Duration, Instant};

use crate::adapters::{self, SearchOutcome, SearchProblem};
use crate::host;
use crate::run::{Checks, Iteration, Layers, Measured, RunArgs, Spans, Workload};
use crate::stats;
use crate::trace::Tracer;

const KEEP: usize = 64;

pub struct Search {
    problem: SearchProblem,
    max_coeff: i64,
    threads: usize,
    /// The first iteration's outcome: every later one must repeat it.
    first: Option<SearchOutcome>,
    pool: Vec<(f64, f64, f64)>,
}

impl Search {
    fn candidates(&self) -> u64 {
        (2 * self.max_coeff as u64 + 1).pow(9)
    }
}

/// The funnel of a complete sweep: every candidate decoded, the scored ones
/// a subset, and at most `keep` survivors kept.
pub fn check_funnel(o: &SearchOutcome, candidates: u64) -> Result<(), String> {
    if o.decoded != candidates {
        return Err(format!("decoded {} of {candidates} candidates", o.decoded));
    }
    if o.scored + o.causality_rejected > o.decoded || o.survivors > o.scored {
        return Err("funnel stages exceed their parents".to_string());
    }
    if o.kept != (o.survivors as usize).min(KEEP) {
        return Err(format!("kept {} of {} survivors", o.kept, o.survivors));
    }
    Ok(())
}

impl Workload for Search {
    fn setup(args: &RunArgs, tr: &mut Tracer) -> Result<Search, String> {
        let mut w = Search {
            problem: adapters::mc3_problem(),
            max_coeff: if args.quick { 2 } else { 3 },
            threads: host::load_threads(),
            first: None,
            pool: Vec::new(),
        };
        w.iterate(0, tr, &mut Checks::default())?;
        w.first = None;
        w.pool.clear();
        Ok(w)
    }

    fn measured(&self) -> Measured {
        Measured::This
    }

    fn iterate(
        &mut self,
        n: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Iteration, String> {
        let out = tr.span("core.explore.search", n, |_| {
            adapters::explore(&self.problem, self.max_coeff, KEEP, self.threads)
        })?;
        checks.verdict(check_funnel(&out, self.candidates()));
        self.pool
            .push((out.steals as f64, out.utilization, out.idle_ms));
        let it = Iteration {
            work: out.decoded as f64,
            output_bytes: out.ranking.len() as u64,
            ..Iteration::default()
        };
        match &self.first {
            Some(first) => checks.check(first.ranking == out.ranking, || {
                format!("iteration {n} ranked differently from the first")
            }),
            None => self.first = Some(out),
        }
        Ok(it)
    }

    fn final_checks(&mut self, checks: &mut Checks) -> Result<(), String> {
        let parallel = self.first.as_ref().ok_or("no iteration ran")?;
        let serial = adapters::explore(&self.problem, self.max_coeff, KEEP, 1)?;
        checks.check(serial.ranking == parallel.ranking, || {
            "the serial ranking is not byte-identical to the parallel one".to_string()
        });
        for (n, (reported, built)) in adapters::materialize_pes(&self.problem, parallel)?
            .into_iter()
            .enumerate()
        {
            checks.check(reported == built, || {
                format!("survivor {n} reports {reported} PEs but materializes {built}")
            });
        }
        Ok(())
    }

    fn layers(
        &mut self,
        _args: &RunArgs,
        budget: Duration,
        _spans: &Spans,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let first = self.first.as_ref().ok_or("no iteration ran")?;
        out.insert("core.explore.decoded", first.decoded as f64);
        out.insert(
            "core.explore.causality_rejected",
            first.causality_rejected as f64,
        );
        out.insert("core.explore.scored", first.scored as f64);
        out.insert("core.explore.survivors", first.survivors as f64);
        out.insert(
            "core.explore.scored_share",
            first.scored as f64 / first.decoded as f64,
        );
        out.insert(
            "core.analytic.routed_share",
            first.analytic_scored as f64 / (first.scored as f64).max(1.0),
        );
        let col = |f: fn(&(f64, f64, f64)) -> f64| {
            stats::median(&self.pool.iter().map(f).collect::<Vec<_>>())
        };
        out.insert("rayon.steals", col(|p| p.0));
        out.insert("rayon.utilization", col(|p| p.1));
        out.insert("rayon.idle_ms", col(|p| p.2));

        // Per-search set-up and survivor materialization, many times each.
        let mark = tr.mark();
        for _ in 0..20 {
            adapters::search_setup(&self.problem, tr)?;
            tr.span("core.explore.materialize", 0, |_| {
                adapters::materialize_pes(&self.problem, first)
            })?;
        }
        let totals = tr.totals_since(mark);
        let mean_s = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e9 / t.count as f64)
        };
        out.insert("core.fold.precompute_s", mean_s("core.fold.precompute"));
        out.insert("core.analytic.audit_s", mean_s("core.analytic.audit"));
        out.insert(
            "core.explore.materialize_s",
            mean_s("core.explore.materialize"),
        );

        // One thread against two, alternating, for the rest of the budget.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while started.elapsed() < budget || one.is_empty() {
            for (threads, name, walls) in [
                (1, "core.explore.search_1t", &mut one),
                (2, "core.explore.search_2t", &mut two),
            ] {
                let t0 = Instant::now();
                tr.span(name, 0, |_| {
                    adapters::explore(&self.problem, self.max_coeff, KEEP, threads)
                })?;
                walls.push(t0.elapsed().as_secs_f64());
            }
        }
        let one_s = stats::median(&one);
        out.insert("core.explore.search_1t_s", one_s);
        out.insert(
            "core.explore.candidates_per_s_1t",
            self.candidates() as f64 / one_s,
        );
        out.insert("rayon.speedup_2t", one_s / stats::median(&two));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_candidate_count_fails_the_funnel_check() {
        let p = adapters::mc3_problem();
        let out = adapters::explore(&p, 1, KEEP, 1).unwrap();
        assert_eq!(check_funnel(&out, 3u64.pow(9)), Ok(()));
        assert!(check_funnel(&out, 3u64.pow(9) + 1).is_err());
    }
}
