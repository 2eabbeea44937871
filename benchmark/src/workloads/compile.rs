//! `compile_emit`: one iteration sends 18 specs through the whole pipeline
//! (`compile → emit_accelerator → to_verilog → lint → testbench → area,
//! energy, timing`) and runs the golden executor on the matmul ones. Six
//! specs are fixed; the seed draws the other twelve and the golden inputs.

use std::time::{Duration, Instant};

use crate::adapters::{self, DesignFacts, Spec, StageFacts};
use crate::gen;
use crate::run::{Checks, Iteration, Layers, Measured, RunArgs, Spans, Workload};
use crate::stats;
use crate::trace::Tracer;

pub struct Compile {
    specs: Vec<Spec>,
    seed: u64,
    /// The first iteration's facts: every later one must repeat them.
    first: Option<Vec<DesignFacts>>,
}

/// The specs of one run: the six fixed ones, then the seed's twelve draws.
pub fn specs_for(seed: u64, quick: bool) -> Vec<Spec> {
    let mut specs = adapters::fixed_specs();
    let draws = gen::spec_draws(seed);
    let take = if quick { 4 } else { draws.len() };
    for (n, d) in draws.iter().take(take).enumerate() {
        specs.push(adapters::matmul_spec(
            &format!("draw{n}"),
            d.m,
            d.n,
            d.k,
            d.flow,
            d.bits,
        ));
    }
    specs
}

/// What every design must satisfy whatever its numbers are: lint-clean RTL,
/// non-empty Verilog and testbench, positive finite area, energy and clock.
pub fn check_design(name: &str, f: &DesignFacts) -> Result<(), String> {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !f.lint_clean {
        return Err(format!("{name}: netlist fails lint"));
    }
    if f.pes == 0 || f.nets == 0 || f.verilog_bytes == 0 || f.testbench_bytes == 0 {
        return Err(format!("{name}: empty design or RTL"));
    }
    if !positive(f.area_um2) || !positive(f.mac_pj) || !positive(f.max_mhz) {
        return Err(format!(
            "{name}: area {} um2, {} pJ/MAC, {} MHz",
            f.area_um2, f.mac_pj, f.max_mhz
        ));
    }
    Ok(())
}

impl Workload for Compile {
    fn setup(args: &RunArgs, tr: &mut Tracer) -> Result<Compile, String> {
        let mut w = Compile {
            specs: specs_for(args.seed, args.quick),
            seed: args.seed,
            first: None,
        };
        w.iterate(0, tr, &mut Checks::default())?;
        w.first = None;
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
        let mut facts = Vec::with_capacity(self.specs.len());
        for (d, spec) in self.specs.iter().enumerate() {
            let req = n * 100 + d as u64;
            let name = adapters::spec_name(spec);
            let f = adapters::pipeline(spec, req, tr)?;
            checks.verdict(check_design(name, &f));
            if let Some((got, want)) = adapters::golden_matmul(spec, self.seed + d as u64, req, tr)
            {
                checks.check(adapters::approx_eq(&got, &want), || {
                    format!("{name}: executor output differs from the dense product")
                });
            }
            facts.push(f);
        }
        let it = Iteration {
            work: facts.len() as f64,
            output_bytes: facts
                .iter()
                .map(|f| (f.verilog_bytes + f.testbench_bytes) as u64)
                .sum(),
            ..Iteration::default()
        };
        match &self.first {
            Some(first) => checks.check(*first == facts, || {
                format!("iteration {n} emitted different designs")
            }),
            None => self.first = Some(facts),
        }
        Ok(it)
    }

    fn layers(
        &mut self,
        _args: &RunArgs,
        budget: Duration,
        spans: &Spans,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let it = &spans.iterations;
        let compile_s = it.seconds("core.spec.compile");
        let verilog_s = it.seconds("rtl.verilog");
        out.insert("core.spec.compile_s", compile_s);
        out.insert("core.exec.golden_s", it.seconds("core.exec.golden"));
        out.insert("rtl.emit_s", it.seconds("rtl.emit"));
        out.insert("rtl.verilog_s", verilog_s);
        out.insert("rtl.lint_s", it.seconds("rtl.lint"));
        out.insert("rtl.testbench_s", it.seconds("rtl.testbench"));
        out.insert("area.model_s", it.seconds("area.model"));
        let first = self.first.as_ref().ok_or("no iteration ran")?;
        let sum = |f: fn(&DesignFacts) -> usize| first.iter().map(f).sum::<usize>() as f64;
        out.insert("rtl.emit.nets", sum(|f| f.nets));
        out.insert("rtl.verilog.bytes", sum(|f| f.verilog_bytes));
        if verilog_s > 0.0 {
            out.insert(
                "rtl.verilog.lines_per_s",
                sum(|f| f.verilog_lines) / verilog_s,
            );
        }

        // The three named stages called one by one over the same specs, as
        // often as the budget allows; what `compile` spends beyond them is
        // the rest (design assembly and register-file selection).
        let mut passes = (Vec::new(), Vec::new(), Vec::new());
        let mut stage_facts = StageFacts::default();
        let started = Instant::now();
        while started.elapsed() < budget || passes.0.is_empty() {
            let mark = tr.mark();
            stage_facts = StageFacts::default();
            for (d, spec) in self.specs.iter().enumerate() {
                let f = adapters::compile_stages(spec, d as u64, tr)?;
                stage_facts.points += f.points;
                stage_facts.conns_after_prune += f.conns_after_prune;
                stage_facts.pes += f.pes;
            }
            let totals = tr.totals_since(mark);
            let s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
            passes.0.push(s("core.iterspace.elaborate"));
            passes.1.push(s("core.prune"));
            passes.2.push(s("core.spacetime.fold"));
        }
        let (elaborate, prune, fold) = (
            stats::median(&passes.0),
            stats::median(&passes.1),
            stats::median(&passes.2),
        );
        out.insert("core.iterspace.elaborate_s", elaborate);
        out.insert("core.prune.s", prune);
        out.insert("core.spacetime.fold_s", fold);
        out.insert(
            "core.spec.compile_rest_s",
            compile_s - elaborate - prune - fold,
        );
        out.insert("core.iterspace.points", stage_facts.points as f64);
        out.insert(
            "core.prune.conns_after",
            stage_facts.conns_after_prune as f64,
        );
        out.insert("core.spacetime.pes", stage_facts.pes as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_design_that_fails_lint_or_has_no_area_fails_its_check() {
        let spec = adapters::matmul_spec("t", 3, 3, 3, adapters::Dataflow::OutputStationary, 8);
        let good = adapters::pipeline(&spec, 0, &mut Tracer::new(false)).unwrap();
        assert_eq!(check_design("t", &good), Ok(()));
        assert!(check_design(
            "t",
            &DesignFacts {
                lint_clean: false,
                ..good
            }
        )
        .is_err());
        assert!(check_design(
            "t",
            &DesignFacts {
                area_um2: 0.0,
                ..good
            }
        )
        .is_err());
        assert!(check_design(
            "t",
            &DesignFacts {
                max_mhz: f64::NAN,
                ..good
            }
        )
        .is_err());
    }

    #[test]
    fn a_corrupted_product_fails_the_golden_check() {
        let spec = adapters::matmul_spec("t", 3, 4, 5, adapters::Dataflow::WeightStationary, 8);
        let (got, want) = adapters::golden_matmul(&spec, 1, 0, &mut Tracer::new(false)).unwrap();
        assert!(adapters::approx_eq(&got, &want));
        let mut bad = got.clone();
        bad.set(1, 2, bad.at(1, 2) + 1.0);
        assert!(!adapters::approx_eq(&bad, &want));
    }

    #[test]
    fn output_bytes_repeat_exactly_for_a_seed() {
        let bytes = |seed| {
            specs_for(seed, true)
                .iter()
                .map(|s| {
                    adapters::pipeline(s, 0, &mut Tracer::new(false))
                        .unwrap()
                        .verilog_bytes
                })
                .sum::<usize>()
        };
        assert_eq!(bytes(3), bytes(3));
        assert_ne!(bytes(3), bytes(4));
    }
}
