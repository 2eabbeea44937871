//! Every call from the benchmark into the repository goes through this file,
//! so the `use` lines below are the complete list of public names the
//! benchmark pins. Only plain entry points are used, plus
//! `explore_dataflows_profiled` for the funnel and the pool telemetry: no
//! `reference` module and no `_traced` / `_faulty` variant, which ROADMAP
//! slates for collapse.
//!
//! Functions here take a [`Tracer`] where the caller wants a span per call;
//! with tracing off a span is one branch.

use std::collections::HashMap;
use std::path::Path;

use stellar_accels::{
    gemmini_spec, outerspace_multiply_spec, row_merger_spec, run_alexnet, run_resnet50,
    scnn_pe_spec, ScnnConfig,
};
use stellar_area::{area_of, array_max_frequency_mhz, EnergyModel, Technology};
use stellar_bench::cache::{
    parse_serve_line, render_serve_error, render_serve_response, DesignCache, ServeCommand,
    SERVE_SCHEMA,
};
use stellar_bench::durable::{seal, unseal};
use stellar_core::cache::QueryKey;
use stellar_core::prune::{apply_balance, apply_sparsity};
use stellar_core::{
    compile, explore_dataflows_profiled, AcceleratorSpec, AnalyticScorer, Bounds, Executor,
    ExploreOptions, ExploreRun, FoldScorer, Functionality, IndexId, IterationSpace, SkipSpec,
    SpaceTimeTransform, SpatialArray,
};
use stellar_isa::{Host, MemUnit, MetadataType, Program};
use stellar_rtl::testbench::TestbenchOptions;
use stellar_rtl::{emit_accelerator, generate_testbench, lint, Netlist};
use stellar_sim::{
    rows_of_partials, simulate_os_matmul, simulate_sparse_matmul, simulate_ws_matmul,
    BalancePolicy, DmaModel, FaultInjector, FaultPlan, FlattenedMerger, GemmParams, L2Cache,
    Merger, RetryPolicy, RowPartitionedMerger, SparseArrayParams, Watchdog,
};
use stellar_tensor::ops::{merge_partials, spgemm_outer_partials, Fiber};
use stellar_tensor::{gen, AxisFormat, CscMatrix, CsrMatrix, DenseMatrix, DenseTensor};
use stellar_workloads::suite;

use crate::trace::Tracer;

pub type Spec = AcceleratorSpec;
pub type Dense = DenseMatrix;
pub type Csr = CsrMatrix;
pub type MergeBatches = Vec<Vec<Vec<Fiber>>>;

// ---------------------------------------------------------------- search

/// One dataflow-search problem: a functionality over fixed bounds.
pub struct SearchProblem {
    func: Functionality,
    bounds: Bounds,
}

/// What one search returned, reduced to plain numbers plus the ranking
/// rendered as text (two rankings are byte-identical iff the texts are).
pub struct SearchOutcome {
    run: ExploreRun,
    pub ranking: String,
    pub decoded: u64,
    pub causality_rejected: u64,
    pub scored: u64,
    pub analytic_scored: u64,
    pub survivors: u64,
    pub kept: usize,
    pub steals: u64,
    pub utilization: f64,
    pub idle_ms: f64,
}

/// The `search_mc3` problem: `matmul(3,3,3)`.
pub fn mc3_problem() -> SearchProblem {
    SearchProblem {
        func: Functionality::matmul(3, 3, 3),
        bounds: Bounds::from_extents(&[3, 3, 3]),
    }
}

pub fn explore(
    p: &SearchProblem,
    max_coeff: i64,
    keep: usize,
    parallelism: usize,
) -> Result<SearchOutcome, String> {
    let opts = ExploreOptions {
        max_coeff,
        keep,
        parallelism,
        ..ExploreOptions::default()
    };
    let run = explore_dataflows_profiled(&p.func, &p.bounds, &opts).map_err(|e| e.to_string())?;
    let f = run.funnel;
    Ok(SearchOutcome {
        ranking: format!("{:?}", run.results),
        decoded: f.decoded,
        causality_rejected: f.causality_rejected,
        scored: f.scored,
        analytic_scored: f.analytic_scored,
        survivors: f.survivors,
        kept: run.results.len(),
        steals: run.workers.total_steals(),
        utilization: run.workers.utilization(),
        idle_ms: run.workers.workers.iter().map(|w| w.idle_ms()).sum(),
        run,
    })
}

/// Materializes every survivor and returns `(reported, materialized)` PE
/// counts.
pub fn materialize_pes(
    p: &SearchProblem,
    out: &SearchOutcome,
) -> Result<Vec<(usize, usize)>, String> {
    let is = IterationSpace::elaborate(&p.func, &p.bounds).map_err(|e| e.to_string())?;
    out.run
        .results
        .iter()
        .map(|d| {
            let arr = d.materialize(&is, &p.func).map_err(|e| e.to_string())?;
            Ok((d.num_pes, arr.num_pes()))
        })
        .collect()
}

/// The per-search set-up the scan pays once: the fold scorer's precompute
/// and the analytic tier's structural audit. Returns whether the audit
/// accepted the space.
pub fn search_setup(p: &SearchProblem, tr: &mut Tracer) -> Result<bool, String> {
    let is = IterationSpace::elaborate(&p.func, &p.bounds).map_err(|e| e.to_string())?;
    tr.span("core.fold.precompute", 0, |_| {
        std::hint::black_box(FoldScorer::new(&is, &p.func));
    });
    Ok(tr.span("core.analytic.audit", 0, |_| {
        AnalyticScorer::try_new(&is, &p.func).is_some()
    }))
}

// ---------------------------------------------------------------- compile

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataflow {
    OutputStationary,
    WeightStationary,
    InputStationary,
    Hexagonal,
}

/// A dense matmul spec with the given extents, dataflow and data width.
pub fn matmul_spec(name: &str, m: usize, n: usize, k: usize, flow: Dataflow, bits: u32) -> Spec {
    let t = match flow {
        Dataflow::OutputStationary => SpaceTimeTransform::output_stationary(),
        Dataflow::WeightStationary => SpaceTimeTransform::weight_stationary(),
        Dataflow::InputStationary => SpaceTimeTransform::input_stationary(),
        Dataflow::Hexagonal => SpaceTimeTransform::hexagonal(),
    };
    AcceleratorSpec::new(name, Functionality::matmul(m, n, k))
        .with_bounds(Bounds::from_extents(&[m, n, k]))
        .with_transform(t)
        .with_data_bits(bits)
}

/// The six fixed specs of `compile_emit`: the four prior-work arrays the
/// paper regenerates, the 32x32 dense array, and a sparse input-stationary
/// matmul with one `Skip`.
pub fn fixed_specs() -> Vec<Spec> {
    let (j, k) = (IndexId::nth(1), IndexId::nth(2));
    vec![
        gemmini_spec(),
        scnn_pe_spec(4, 4),
        outerspace_multiply_spec(4),
        row_merger_spec(8, 8),
        matmul_spec("dense32", 32, 32, 32, Dataflow::OutputStationary, 8),
        matmul_spec("sparse8", 8, 8, 8, Dataflow::InputStationary, 16)
            .with_skip(SkipSpec::skip(&[j], &[k])),
    ]
}

/// Numbers one design yields on its way through the pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DesignFacts {
    pub pes: usize,
    pub nets: usize,
    pub verilog_lines: usize,
    pub verilog_bytes: usize,
    pub testbench_bytes: usize,
    pub lint_clean: bool,
    pub area_um2: f64,
    pub mac_pj: f64,
    pub max_mhz: f64,
}

/// One spec through the whole pipeline: compile, emit, Verilog, lint,
/// testbench, area/energy/timing.
pub fn pipeline(spec: &Spec, req: u64, tr: &mut Tracer) -> Result<DesignFacts, String> {
    let design = tr.span("core.spec.compile", req, |_| {
        compile(spec).map_err(|e| e.to_string())
    })?;
    let netlist: Netlist = tr.span("rtl.emit", req, |_| emit_accelerator(&design));
    let verilog = tr.span("rtl.verilog", req, |_| netlist.to_verilog());
    let lint_clean = tr.span("rtl.lint", req, |_| lint::check(&netlist).is_ok());
    let tb = tr.span("rtl.testbench", req, |_| {
        generate_testbench(&netlist, &TestbenchOptions::default())
    });
    let (area_um2, mac_pj, max_mhz) = tr.span("area.model", req, |_| {
        let asap7 = Technology::asap7();
        (
            area_of(&design, &asap7).total_um2(),
            EnergyModel::new(&design, Technology::intel22()).mac_pj(),
            array_max_frequency_mhz(&design, &asap7),
        )
    });
    Ok(DesignFacts {
        pes: design.total_pes(),
        nets: netlist.modules().iter().map(|m| m.nets.len()).sum(),
        verilog_lines: verilog.lines().count(),
        verilog_bytes: verilog.len(),
        testbench_bytes: tb.len(),
        lint_clean,
        area_um2,
        mac_pj,
        max_mhz,
    })
}

/// Sizes of the intermediate representation after each compiler stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageFacts {
    pub points: usize,
    pub conns_after_prune: usize,
    pub pes: usize,
}

/// The three named compiler stages called one by one, as `compile` calls
/// them, each under its own span.
pub fn compile_stages(spec: &Spec, req: u64, tr: &mut Tracer) -> Result<StageFacts, String> {
    let func = spec.functionality();
    let mut is = tr.span("core.iterspace.elaborate", req, |_| {
        IterationSpace::elaborate(func, spec.bounds()).map_err(|e| e.to_string())
    })?;
    tr.span("core.prune", req, |_| {
        apply_sparsity(&mut is, func, spec.skips());
        apply_balance(&mut is, func, spec.shifts());
    });
    let arr = tr.span("core.spacetime.fold", req, |_| {
        SpatialArray::from_iterspace(&is, func, spec.transform()).map_err(|e| e.to_string())
    })?;
    Ok(StageFacts {
        points: is.num_points(),
        conns_after_prune: is.conns().len(),
        pes: arr.num_pes(),
    })
}

/// Runs a matmul spec's functionality through the golden executor and
/// returns its output next to `stellar-tensor`'s dense product of the same
/// inputs. `None` for specs whose functionality is not a three-index
/// `A, B -> C` kernel.
pub fn golden_matmul(spec: &Spec, seed: u64, req: u64, tr: &mut Tracer) -> Option<(Dense, Dense)> {
    let func = spec.functionality();
    let tensors: Vec<_> = func.tensors().collect();
    if func.rank() != 3 || tensors.len() != 3 || !func.name().starts_with("matmul_") {
        return None;
    }
    let exec = Executor::new(func, spec.bounds());
    let (sa, sb) = (exec.tensor_shape(tensors[0]), exec.tensor_shape(tensors[1]));
    let a = gen::dense(sa[0], sa[1], seed);
    let b = gen::dense(sb[0], sb[1], seed ^ 0x9e37);
    let mut inputs = HashMap::new();
    inputs.insert(tensors[0], DenseTensor::from_matrix(&a));
    inputs.insert(tensors[1], DenseTensor::from_matrix(&b));
    let out = tr
        .span("core.exec.golden", req, |_| exec.run(&inputs))
        .ok()?;
    Some((out.get(&tensors[2])?.to_matrix(), a.matmul(&b)))
}

pub fn spec_name(spec: &Spec) -> &str {
    spec.name()
}

// -------------------------------------------------------------------- sim

pub fn dense_matrix(rows: usize, cols: usize, seed: u64, tr: &mut Tracer) -> Dense {
    tr.span("tensor.gen", 0, |_| gen::dense(rows, cols, seed))
}

pub fn dense_product(a: &Dense, b: &Dense) -> Dense {
    a.matmul(b)
}

pub fn approx_eq(a: &Dense, b: &Dense) -> bool {
    a.approx_eq(b, 1e-9)
}

/// The four sparse operands of `sim_models`: uniform, two imbalanced, one
/// power-law.
pub fn sparse_operands(rows: usize, cols: usize, seed: u64, tr: &mut Tracer) -> Vec<Csr> {
    tr.span("tensor.gen", 0, |_| {
        vec![
            gen::uniform(rows, cols, 0.004, seed),
            gen::imbalanced(rows, cols, rows / 16, 256, 8, seed + 1),
            gen::imbalanced(rows, cols, rows / 64, 1024, 16, seed + 2),
            gen::power_law(rows, cols, 32.0, 2.0, seed + 3),
        ]
    })
}

pub const SPARSE_POLICIES: usize = 3;

/// Simulated cycles of one sparse operand under all three balance policies.
pub fn sparse_cycles(b: &Csr, lanes: usize) -> Result<u64, String> {
    let mut cycles = 0;
    for balance in [
        BalancePolicy::None,
        BalancePolicy::AdjacentRows,
        BalancePolicy::Global,
    ] {
        let params = SparseArrayParams {
            lanes,
            row_startup_cycles: 2,
            balance,
        };
        cycles += simulate_sparse_matmul(b, &params)
            .map_err(|e| e.to_string())?
            .stats
            .cycles;
    }
    Ok(cycles)
}

pub fn systolic_ws(a: &Dense, b: &Dense) -> Result<(Dense, u64), String> {
    let r = simulate_ws_matmul(a, b).map_err(|e| e.to_string())?;
    Ok((r.product, r.stats.cycles))
}

pub fn systolic_os(a: &Dense, b: &Dense) -> Result<(Dense, u64), String> {
    let r = simulate_os_matmul(a, b).map_err(|e| e.to_string())?;
    Ok((r.product, r.stats.cycles))
}

/// Suite matrix indices in ascending order of merge work at `max_dim`:
/// scaled rows times the square of the average row length, which the
/// merged element count of `A·A` follows.
pub fn suite_by_merge_work(max_dim: usize) -> Vec<usize> {
    let work = |m: &stellar_workloads::SuiteMatrix| {
        m.rows.min(max_dim) as f64 * m.avg_row_len() * m.avg_row_len()
    };
    let all = suite();
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by(|a, b| work(&all[*a]).total_cmp(&work(&all[*b])));
    order
}

/// Partial matrices merged together in one SpArch batch.
const SPARCH_WAYS: usize = 16;

/// One merger input: the SpArch merge batches of `A·A` for one suite matrix
/// (partial matrices of consecutive groups of columns, as
/// `sparch_merge_batches` groups them), plus the nnz the tensor-level merge
/// of the same partials yields.
pub struct MergerInput {
    pub name: &'static str,
    pub batches: MergeBatches,
    pub reference_nnz: u64,
}

/// Instantiates suite matrix `index` at `max_dim` and builds its batches.
pub fn merger_input(index: usize, max_dim: usize, seed: u64, tr: &mut Tracer) -> MergerInput {
    let m = suite()[index];
    let a = tr.span("workloads.instantiate", 0, |_| m.instantiate(max_dim, seed));
    let csc = tr.span("tensor.csc_from_csr", 0, |_| CscMatrix::from_csr(&a));
    let partials = tr.span("tensor.spgemm_partials", 0, |_| {
        spgemm_outer_partials(&csc, &a)
    });
    let mut batches = Vec::new();
    let mut reference_nnz = 0;
    for chunk in partials.chunks(SPARCH_WAYS) {
        batches.push(rows_of_partials(a.rows(), chunk));
        reference_nnz += merge_partials(a.rows(), a.cols(), chunk).nnz() as u64;
    }
    MergerInput {
        name: m.name,
        batches,
        reference_nnz,
    }
}

/// `(cycles, merged_elements)` of the row-partitioned merger over all
/// batches.
pub fn merge_row_partitioned(batches: &MergeBatches) -> Result<(u64, u64), String> {
    merge_with(&RowPartitionedMerger::paper_config(), batches)
}

/// `(cycles, merged_elements)` of the flattened merger over all batches.
pub fn merge_flattened(batches: &MergeBatches) -> Result<(u64, u64), String> {
    merge_with(&FlattenedMerger::paper_config(), batches)
}

fn merge_with(m: &dyn Merger, batches: &MergeBatches) -> Result<(u64, u64), String> {
    let (mut cycles, mut merged) = (0, 0);
    for b in batches {
        let s = m.simulate(b).map_err(|e| e.to_string())?;
        cycles += s.cycles;
        merged += s.merged_elements;
    }
    Ok((cycles, merged))
}

/// `(cycles, hits, misses)` of a fresh Chipyard-default L2 over `addrs`.
pub fn l2_access(addrs: &[u64]) -> (u64, u64, u64) {
    let mut l2 = L2Cache::chipyard_default();
    let cycles = l2.access_all(addrs.iter().copied());
    (cycles, l2.hits(), l2.misses())
}

/// `(cycles, retries)` of a reliable scattered transfer under response loss.
/// The policy is the exponential one with eight retries in place of three:
/// at a 2 % drop rate, three let about one transfer in four of 2 M requests
/// lose a request for good, and a benchmark input must not fail.
pub fn dma_scattered(
    requests: u64,
    slots: usize,
    drop: f64,
    seed: u64,
) -> Result<(u64, u64), String> {
    let plan = FaultPlan {
        seed,
        dma_drop_per_request: drop,
        ..FaultPlan::none()
    };
    let r = DmaModel::with_slots(slots)
        .reliable_scattered_cycles(
            requests,
            4,
            &RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::exponential()
            },
            &mut FaultInjector::new(plan),
            &Watchdog::default_budget(),
        )
        .map_err(|e| e.to_string())?;
    Ok((r.cycles, r.retries))
}

/// Simulated cycles of ResNet-50 on the generated Gemmini plus pruned
/// AlexNet on the generated SCNN.
pub fn dnn_cycles() -> Result<u64, String> {
    let resnet: u64 = run_resnet50(&GemmParams::stellar_gemmini())
        .map_err(|e| e.to_string())?
        .iter()
        .map(|(_, s)| s.cycles)
        .sum();
    let alexnet: u64 = run_alexnet(&ScnnConfig::stellar())
        .iter()
        .map(|l| l.cycles)
        .sum();
    Ok(resnet + alexnet)
}

/// The `isa_programming` example's program: a dense and a CSR transfer
/// into two scratchpads. Returns `(instructions, dma cycles, A round-trips)`.
pub fn isa_program(a: &Dense, b: &Csr) -> Result<(usize, u64, bool), String> {
    let (rows, cols) = (a.rows() as u64, a.cols() as u64);
    let mut host = Host::new();
    let a_addr = host.dram_store_dense(a).map_err(|e| e.to_string())?;
    let (b_data, b_row_ids, b_coords) = host.dram_store_csr(b).map_err(|e| e.to_string())?;
    let mut p = Program::new();
    p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("SRAM_A"));
    p.set_data_addr_src(a_addr);
    p.set_span(0, cols);
    p.set_span(1, rows);
    for axis in 0..2u8 {
        p.set_axis_type(axis, AxisFormat::Dense);
    }
    p.set_data_stride(0, 1);
    p.set_data_stride(1, cols);
    p.issue();
    p.set_src_and_dst(MemUnit::Dram, MemUnit::buffer("SRAM_B"));
    p.set_data_addr_src(b_data);
    p.set_metadata_addr_src(0, MetadataType::RowId, b_row_ids);
    p.set_metadata_addr_src(0, MetadataType::Coord, b_coords);
    p.set_span(1, b.rows() as u64);
    p.set_span(2, b.cols() as u64);
    p.set_data_stride(0, 1);
    p.set_metadata_stride(0, MetadataType::Coord, 1);
    p.set_metadata_stride(1, MetadataType::RowId, 1);
    p.set_axis_type(0, AxisFormat::Compressed);
    p.set_axis_type(1, AxisFormat::Dense);
    p.issue();
    host.run(&p).map_err(|e| e.to_string())?;
    let round_trip = host.buffer_dense("SRAM_A").as_ref() == Some(a);
    Ok((p.instructions().len(), host.cycles(), round_trip))
}

pub fn sparse_uniform(rows: usize, cols: usize, density: f64, seed: u64) -> Csr {
    gen::uniform(rows, cols, density, seed)
}

// ------------------------------------------------------------------ serve

/// The time one in-process request spent, and what it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayKind {
    /// A design query, answered from a cache tier or computed; `disk` marks
    /// a hit the durable tier served.
    Query {
        cached: bool,
        disk: bool,
    },
    Invalidate,
    Other,
}

/// The serve path replayed in-process through the library's public
/// functions, one span per call, in the order `stellar_serve` makes them.
pub struct ServeReplay {
    cache: DesignCache,
}

impl ServeReplay {
    pub fn open(dir: &Path) -> Result<ServeReplay, String> {
        Ok(ServeReplay {
            cache: DesignCache::open(dir).map_err(|e| e.to_string())?,
        })
    }

    /// Answers one protocol line as the service does and returns the sealed
    /// response.
    pub fn respond(&self, line: &str, req: u64, tr: &mut Tracer) -> (String, ReplayKind) {
        let mut kind = ReplayKind::Other;
        let payload = tr.span("serve.request", req, |tr| {
            let parsed = tr.span("bench.cache.parse", req, |_| {
                parse_serve_line(line).and_then(|cmd| match cmd {
                    ServeCommand::Query(r) => r.to_query().map(|q| (Some((r, q)), None)),
                    other => Ok((None, Some(other))),
                })
            });
            match parsed {
                Err(e) => render_serve_error(None, &e),
                Ok((Some((request, query)), _)) => {
                    let key = tr.span("core.cache.key", req, |_| {
                        QueryKey::of(&query.func, &query.bounds, &query.opts)
                    });
                    let disk_before = self.cache.stats().disk_hits;
                    let mut disk = false;
                    let run = tr.span_named_by(req, |_| {
                        let run = self.cache.explore(&query.func, &query.bounds, &query.opts);
                        disk = self.cache.stats().disk_hits > disk_before;
                        let name = match &run {
                            Ok(_) if disk => "bench.cache.disk_hit",
                            Ok(r) if r.funnel.cache_hits > 0 => "bench.cache.hit",
                            _ => "bench.cache.miss",
                        };
                        (name, run)
                    });
                    match run {
                        Ok(run) => {
                            kind = ReplayKind::Query {
                                cached: run.funnel.cache_hits > 0,
                                disk,
                            };
                            tr.span("bench.cache.render", req, |_| {
                                render_serve_response(&request, &key, &self.cache.nonce(), &run)
                            })
                        }
                        Err(e) => render_serve_error(request.id.as_deref(), &e.to_string()),
                    }
                }
                Ok((None, Some(ServeCommand::Invalidate))) => {
                    kind = ReplayKind::Invalidate;
                    match tr.span("bench.cache.invalidate", req, |_| self.cache.invalidate()) {
                        Ok(n) => {
                            format!("{{\"schema\":\"{SERVE_SCHEMA}\",\"invalidated\":true,\"nonce\":\"{n}\"}}")
                        }
                        Err(e) => render_serve_error(None, &e.to_string()),
                    }
                }
                Ok(_) => self.cache.stats().render_json(&self.cache.nonce()),
            }
        });
        let sealed = tr.span("bench.durable.seal", req, |_| seal(&payload));
        (sealed, kind)
    }
}

/// The payload of a sealed response line, or the envelope error.
pub fn unseal_line(line: &str) -> Result<&str, String> {
    unseal(line.trim_end()).map_err(|e| e.to_string())
}

/// The memory tier's capacity, which `serve_churn` must exceed.
pub const MEMORY_TIER_CAPACITY: usize = stellar_bench::cache::DEFAULT_CAPACITY;

/// Seals a payload as the repository seals its reports (test fixtures).
#[cfg(test)]
pub fn seal_payload(payload: &str) -> String {
    seal(payload)
}
