//! `sim_models`: one iteration is a fixed batch over pre-generated inputs
//! through every cycle model: both systolic arrays, the sparse lane model
//! under three balance policies, both mergers, the L2, the reliable DMA,
//! the GEMM-level DNN runs and the ISA host. Repetitions are fixed so each
//! of the five timed models holds 10–30 % of an iteration. The work unit is
//! the simulated cycle; the per-iteration total is an exact constant.

use std::time::Duration;

use crate::adapters::{self, Csr, Dense, MergerInput};
use crate::gen;
use crate::run::{Checks, Iteration, Layers, Measured, RunArgs, Spans, Workload};
use crate::trace::Tracer;

const SYSTOLIC: (usize, usize, usize) = (384, 96, 96);
const SPARSE_SHAPE: (usize, usize) = (4096, 8192);
const SPARSE_LANES: usize = 16;
const SPARSE_REPS: usize = 25;
const MERGER_MAX_DIM: usize = 2048;
const MERGER_PICKS: usize = 6;
const L2_ACCESSES: usize = 2_000_000;
const DMA_REQUESTS: u64 = 2_000_000;
const DMA_SLOTS: usize = 4;
const DMA_DROP: f64 = 0.02;
const DMA_REPS: usize = 6;

/// How far each input is shrunk under `--quick`.
fn shrink(quick: bool, full: usize, small: usize) -> usize {
    if quick {
        small
    } else {
        full
    }
}

pub struct Sim {
    a: Dense,
    b: Dense,
    product: Dense,
    sparse: Vec<Csr>,
    sparse_reps: usize,
    mergers: Vec<MergerInput>,
    l2: Vec<u64>,
    dma_requests: u64,
    dma_seed: u64,
    isa_a: Dense,
    isa_b: Csr,
    counts: Option<Counts>,
}

/// The simulated quantities of one iteration, which a change to host speed
/// must leave identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub systolic_cycles: u64,
    pub sparse_cycles: u64,
    pub merger_cycles: u64,
    pub merged_elements: u64,
    pub l2_cycles: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dma_cycles: u64,
    pub dma_retries: u64,
    pub dnn_cycles: u64,
    pub isa_cycles: u64,
    pub isa_instructions: u64,
}

impl Counts {
    pub fn cycles_total(&self) -> u64 {
        self.systolic_cycles
            + self.sparse_cycles
            + self.merger_cycles
            + self.l2_cycles
            + self.dma_cycles
            + self.dnn_cycles
            + self.isa_cycles
    }
}

/// One suite matrix from each third of six equal strata of the suite
/// ordered by merge work, so the pick varies with the seed and the work of
/// an iteration does not.
pub fn merger_picks(seed: u64) -> Vec<usize> {
    let order = adapters::suite_by_merge_work(MERGER_MAX_DIM);
    let stratum = order.len() / MERGER_PICKS;
    let mut rng = gen::Rng::new(seed, "sim_models.suite");
    (0..MERGER_PICKS)
        .map(|s| order[s * stratum + rng.below(stratum as u64) as usize])
        .collect()
}

/// A scattered transfer of `requests` on `slots` slots cannot beat the
/// fault-free latency bound, and at drop rate `p` with retries its retry
/// count lies within five standard deviations of `requests * p / (1 - p)`.
pub fn check_dma(requests: u64, cycles: u64, retries: u64) -> Result<(), String> {
    let floor = requests * 60 / DMA_SLOTS as u64;
    let mean = requests as f64 * DMA_DROP / (1.0 - DMA_DROP);
    let slack = 5.0 * mean.sqrt() + 1.0;
    if cycles < floor {
        return Err(format!(
            "dma: {cycles} cycles beat the fault-free bound {floor}"
        ));
    }
    if (retries as f64 - mean).abs() > slack {
        return Err(format!(
            "dma: {retries} retries, expected {mean:.0} ± {slack:.0}"
        ));
    }
    Ok(())
}

impl Workload for Sim {
    const TRACED_LOOP_SHARE: f64 = 1.0;

    fn setup(args: &RunArgs, tr: &mut Tracer) -> Result<Sim, String> {
        let (seed, q) = (args.seed, args.quick);
        let (m, k, n) = SYSTOLIC;
        let a = adapters::dense_matrix(shrink(q, m, 48), k, seed, tr);
        let b = adapters::dense_matrix(k, n, seed + 1, tr);
        let product = adapters::dense_product(&a, &b);
        let picks = merger_picks(seed);
        let mut w = Sim {
            product,
            a,
            b,
            sparse: adapters::sparse_operands(
                shrink(q, SPARSE_SHAPE.0, 512),
                SPARSE_SHAPE.1,
                seed + 2,
                tr,
            ),
            sparse_reps: shrink(q, SPARSE_REPS, 1),
            mergers: picks
                .iter()
                .take(shrink(q, MERGER_PICKS, 3))
                .map(|&index| adapters::merger_input(index, MERGER_MAX_DIM, seed, tr))
                .collect(),
            l2: gen::l2_addresses(shrink(q, L2_ACCESSES, 100_000), seed),
            dma_requests: shrink(q, DMA_REQUESTS as usize, 100_000) as u64,
            dma_seed: seed,
            isa_a: adapters::dense_matrix(8, 8, seed + 6, tr),
            isa_b: adapters::sparse_uniform(8, 8, 0.4, seed + 7),
            counts: None,
        };
        w.iterate(0, tr, &mut Checks::default())?;
        w.counts = None;
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
        let mut c = Counts::default();

        let (ws, ws_cycles) = tr.span("sim.systolic.ws", n, |_| {
            adapters::systolic_ws(&self.a, &self.b)
        })?;
        let (os, os_cycles) = tr.span("sim.systolic.os", n, |_| {
            adapters::systolic_os(&self.a, &self.b)
        })?;
        c.systolic_cycles = ws_cycles + os_cycles;
        checks.check(adapters::approx_eq(&ws, &self.product), || {
            "weight-stationary product differs from the dense product".to_string()
        });
        checks.check(adapters::approx_eq(&os, &self.product), || {
            "output-stationary product differs from the dense product".to_string()
        });

        let sparse: Vec<u64> = tr.span("sim.sparse", n, |_| {
            (0..self.sparse_reps)
                .map(|_| {
                    self.sparse
                        .iter()
                        .map(|op| adapters::sparse_cycles(op, SPARSE_LANES))
                        .sum::<Result<u64, String>>()
                })
                .collect::<Result<_, _>>()
        })?;
        c.sparse_cycles = sparse.iter().sum();
        // No policy can finish before the busiest possible schedule: nnz
        // spread evenly over the lanes.
        let floor: u64 = self
            .sparse
            .iter()
            .map(|op| (op.nnz() / SPARSE_LANES) as u64)
            .sum::<u64>()
            * adapters::SPARSE_POLICIES as u64;
        checks.check(
            sparse.iter().all(|s| *s == sparse[0] && *s >= floor),
            || {
                format!(
                    "sparse cycles {sparse:?} vary between repetitions or beat the floor {floor}"
                )
            },
        );

        for (span, merge) in [
            (
                "sim.merger.rp",
                adapters::merge_row_partitioned as fn(&_) -> _,
            ),
            ("sim.merger.fl", adapters::merge_flattened),
        ] {
            let per_input: Vec<(u64, u64)> = tr.span(span, n, |_| {
                self.mergers
                    .iter()
                    .map(|m| merge(&m.batches))
                    .collect::<Result<_, String>>()
            })?;
            for (m, (cycles, merged)) in self.mergers.iter().zip(per_input) {
                c.merger_cycles += cycles;
                c.merged_elements += merged;
                checks.check(merged == m.reference_nnz, || {
                    format!(
                        "{span} {}: merged {merged} elements, tensor-level merge has {}",
                        m.name, m.reference_nnz
                    )
                });
            }
        }

        let (l2_cycles, hits, misses) = tr.span("sim.cache", n, |_| adapters::l2_access(&self.l2));
        (c.l2_cycles, c.l2_hits, c.l2_misses) = (l2_cycles, hits, misses);
        checks.check(hits + misses == self.l2.len() as u64, || {
            format!(
                "l2: {hits} hits + {misses} misses != {} accesses",
                self.l2.len()
            )
        });

        let dma: Vec<(u64, u64)> = tr.span("sim.dma", n, |_| {
            (0..DMA_REPS)
                .map(|r| {
                    adapters::dma_scattered(
                        self.dma_requests,
                        DMA_SLOTS,
                        DMA_DROP,
                        self.dma_seed + r as u64,
                    )
                })
                .collect::<Result<_, _>>()
        })?;
        for (cycles, retries) in dma {
            c.dma_cycles += cycles;
            c.dma_retries += retries;
            checks.verdict(check_dma(self.dma_requests, cycles, retries));
        }

        c.dnn_cycles = tr.span("sim.gemm", n, |_| adapters::dnn_cycles())?;
        checks.check(c.dnn_cycles > 0, || "dnn runs took no cycles".to_string());

        let (instructions, isa_cycles, round_trip) = tr.span("isa.host", n, |_| {
            adapters::isa_program(&self.isa_a, &self.isa_b)
        })?;
        (c.isa_instructions, c.isa_cycles) = (instructions as u64, isa_cycles);
        checks.check(round_trip && isa_cycles > 0, || {
            "isa: the dense tensor did not arrive in its scratchpad".to_string()
        });

        match self.counts {
            Some(first) => checks.check(first == c, || {
                format!("iteration {n} simulated {c:?}, the first {first:?}")
            }),
            None => self.counts = Some(c),
        }
        Ok(Iteration {
            work: c.cycles_total() as f64,
            ..Iteration::default()
        })
    }

    fn layers(
        &mut self,
        _args: &RunArgs,
        _budget: Duration,
        spans: &Spans,
        _tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let c = self.counts.ok_or("no iteration ran")?;
        let it = &spans.iterations;
        let rate = |count: u64, s: f64| if s > 0.0 { count as f64 / s } else { 0.0 };
        let (ws, os) = (it.seconds("sim.systolic.ws"), it.seconds("sim.systolic.os"));
        let (rp, fl) = (it.seconds("sim.merger.rp"), it.seconds("sim.merger.fl"));
        out.insert("sim.systolic.ws_s", ws);
        out.insert("sim.systolic.os_s", os);
        out.insert(
            "sim.systolic.cycles_per_s",
            rate(c.systolic_cycles, ws + os),
        );
        out.insert("sim.sparse.s", it.seconds("sim.sparse"));
        out.insert(
            "sim.sparse.cycles_per_s",
            rate(c.sparse_cycles, it.seconds("sim.sparse")),
        );
        out.insert("sim.merger.rp_s", rp);
        out.insert("sim.merger.fl_s", fl);
        out.insert("sim.merger.elems_per_s", rate(c.merged_elements, rp + fl));
        out.insert("sim.cache.s", it.seconds("sim.cache"));
        out.insert(
            "sim.cache.accesses_per_s",
            rate(c.l2_hits + c.l2_misses, it.seconds("sim.cache")),
        );
        out.insert(
            "sim.cache.hit_rate",
            c.l2_hits as f64 / (c.l2_hits + c.l2_misses).max(1) as f64,
        );
        out.insert("sim.dma.s", it.seconds("sim.dma"));
        out.insert(
            "sim.dma.requests_per_s",
            rate(self.dma_requests * DMA_REPS as u64, it.seconds("sim.dma")),
        );
        out.insert("sim.dma.retries", c.dma_retries as f64);
        out.insert("sim.gemm.s", it.seconds("sim.gemm"));
        out.insert("isa.host.s", it.seconds("isa.host"));
        out.insert(
            "isa.host.instr_per_s",
            rate(c.isa_instructions, it.seconds("isa.host")),
        );
        out.insert("sim.cycles_total", c.cycles_total() as f64);
        // Input generation, from the recorded set-up.
        out.insert(
            "workloads.instantiate_s",
            spans.setup.seconds("workloads.instantiate"),
        );
        out.insert("tensor.gen_s", spans.setup.seconds("tensor.gen"));
        out.insert(
            "tensor.spgemm_partials_s",
            spans.setup.seconds("tensor.spgemm_partials"),
        );
        out.insert(
            "tensor.csc_from_csr_s",
            spans.setup.seconds("tensor.csc_from_csr"),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_take_one_matrix_per_stratum_and_vary_with_the_seed() {
        let order = adapters::suite_by_merge_work(MERGER_MAX_DIM);
        assert_eq!(order.len() % MERGER_PICKS, 0);
        let stratum = order.len() / MERGER_PICKS;
        let picks = merger_picks(4);
        assert_eq!(picks, merger_picks(4));
        for (s, p) in picks.iter().enumerate() {
            assert!(order[s * stratum..(s + 1) * stratum].contains(p));
        }
        assert!((0..8).any(|seed| merger_picks(seed) != picks));
    }

    #[test]
    fn dma_check_rejects_impossible_cycles_and_retry_counts() {
        let (cycles, retries) = adapters::dma_scattered(100_000, DMA_SLOTS, DMA_DROP, 3).unwrap();
        assert_eq!(check_dma(100_000, cycles, retries), Ok(()));
        assert!(check_dma(100_000, 1000, retries).is_err());
        assert!(check_dma(100_000, cycles, retries * 2).is_err());
    }

    #[test]
    fn a_corrupted_merger_reference_is_counted_as_a_failure() {
        let args = RunArgs {
            workload: "sim_models".into(),
            seed: 2,
            seconds: 0.0,
            traced: false,
            quick: true,
        };
        let mut tr = Tracer::new(false);
        let mut w = Sim::setup(&args, &mut tr).unwrap();
        let mut clean = Checks::default();
        w.iterate(0, &mut tr, &mut clean).unwrap();
        assert_eq!(clean.failed, 0, "{:?}", clean.failures);
        assert!(clean.attempted >= 14);
        w.mergers[0].reference_nnz += 1;
        w.l2.pop();
        let mut bad = Checks::default();
        w.iterate(1, &mut tr, &mut bad).unwrap();
        // Both mergers miss the corrupted reference, and the shorter address
        // list changes the exact counts.
        assert!(bad.failed >= 3, "{:?}", bad.failures);
    }
}
