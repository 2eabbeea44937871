//! Automated dataflow search.
//!
//! The paper motivates frameworks like Stellar by the need for "automated
//! and rapid design space exploration" (§I). Because a dataflow is just an
//! invertible integer matrix, the space of candidate dataflows is
//! enumerable: this module sweeps small-coefficient space-time transforms,
//! keeps the ones that are valid for a functionality (invertible, causal
//! for every recurrence, collision-free over the bounds), and scores them
//! by the structure of the array they produce.
//!
//! The `(2c+1)^(rank²)` candidate space is embarrassingly parallel: every
//! candidate is evaluated from read-only inputs, so the enumeration is
//! sharded into contiguous code ranges scanned by rayon workers
//! ([`ExploreOptions::parallelism`]). Each shard deduplicates locally;
//! shards are then merged **in code order** under a global dedup set, so
//! the survivor for every duplicated structure is the lowest-code
//! candidate — exactly the one the serial scan keeps — and the final
//! stable sort produces a ranking byte-identical to the serial path.
//!
//! Candidates are scored through a fidelity ladder (cheapest exact tier
//! first, every tier producing bit-identical summaries):
//!
//! 1. **Block causality skip** — the time row occupies the top `rank`
//!    digits of the mixed-radix code, so `n_choices^(rank·(rank−1))`
//!    consecutive codes share it; a failing time row rejects the whole
//!    block without decoding a single candidate.
//! 2. **Closed-form analytical tier** ([`crate::analytic`]) — every
//!    candidate takes the signed cofactor vector `c` of its space rows; it
//!    is singular iff `t · c = 0`, exact for every search the size check
//!    admits. A summary depends on the space rows only through `c`'s
//!    direction, so when the iteration space's geometry allows it, the
//!    PE, wire and port counts are one read of the per-search
//!    [`KernelTable`], else the closed form of `c` made primitive; the
//!    time row's latency is taken once per block. A first-sight bit per
//!    table class, cleared per block, lets only a class's first candidate
//!    in a block reach the dedup set. Every ranked survivor is re-folded
//!    afterwards as an oracle backstop
//!    ([`CompileError::AnalyticDivergence`] if the tiers ever disagree).
//! 3. **Allocation-free fold** ([`FoldScorer`]) — candidates the
//!    analytical tier declines (overflow, causality error attribution,
//!    non-box geometry) go through the one packed point fold of
//!    [`crate::fold`]: `u64` keys in scratch tables — no
//!    [`SpatialArray`], no `Vec<i64>` hashing, and no rational matrix
//!    inverse until a candidate actually survives structural
//!    deduplication.
//! 4. **Full fold** — coordinates too wide even for packed keys take
//!    [`SpatialArray::from_iterspace`] per candidate, which for them is
//!    the hashed point mapping of [`crate::spacetime::reference`],
//!    always correct.
//!
//! Candidates are decoded by an odometer over the space digits, with no
//! division per candidate, and deduplicated on the one structure record,
//! [`StructureSummary`].
//!
//! Full arrays are materialized lazily, only for ranked survivors, via
//! [`ExploredDataflow::materialize`]. The pre-fast-path scan is retained
//! as [`explore_dataflows_reference`], the one in-tree oracle search:
//! serial, a full hashed fold per candidate, same ranking and same
//! funnel partitions — the tests hold the fast path byte-identical to it.

use std::collections::HashSet;
use std::ops::Range;
use std::time::Instant;

use rayon::prelude::*;
use rayon::PoolStats;
use stellar_linalg::IntMat;

use crate::analytic::{
    make_primitive, odometer_step, search_cofactor_bound, AnalyticScorer, AnalyticScratch,
    KernelTable,
};
use crate::error::CompileError;
use crate::fold::{summarize_array, ExploreFunnel, FoldScorer, FoldScratch, StructureSummary};
use crate::func::Functionality;
use crate::index::Bounds;
use crate::iterspace::IterationSpace;
use crate::spacetime::{reference, SpatialArray};
use crate::transform::SpaceTimeTransform;

/// One explored dataflow and the structure it yields.
#[derive(Clone, PartialEq, Debug)]
pub struct ExploredDataflow {
    /// The transform.
    pub transform: SpaceTimeTransform,
    /// PEs in the folded array.
    pub num_pes: usize,
    /// Inter-PE (moving) wires.
    pub moving_conns: usize,
    /// Stationary self-connections (operand reuse in place).
    pub stationary_conns: usize,
    /// Regfile ports required.
    pub io_ports: usize,
    /// Latency in time steps.
    pub time_steps: i64,
}

impl ExploredDataflow {
    fn from_summary(transform: SpaceTimeTransform, s: StructureSummary) -> ExploredDataflow {
        ExploredDataflow {
            transform,
            num_pes: s.num_pes,
            moving_conns: s.moving_conns,
            stationary_conns: s.stationary_conns,
            io_ports: s.io_ports,
            time_steps: s.time_steps,
        }
    }

    /// The structure this dataflow was ranked on — what the search
    /// deduplicates by and what a fold of [`Self::transform`] reproduces.
    pub fn summary(&self) -> StructureSummary {
        StructureSummary {
            num_pes: self.num_pes,
            moving_conns: self.moving_conns,
            stationary_conns: self.stationary_conns,
            io_ports: self.io_ports,
            time_steps: self.time_steps,
        }
    }

    /// A composite cost: PEs weighted against ports and wires, latency as a
    /// tiebreaker. Lower is better. (A deliberately simple default; callers
    /// can re-rank on the raw fields.)
    pub fn cost(&self) -> f64 {
        self.num_pes as f64 * 10.0
            + self.io_ports as f64 * 2.0
            + self.moving_conns as f64
            + self.time_steps as f64 * 0.1
    }

    /// Materializes the full [`SpatialArray`] this dataflow folds to. The
    /// search itself never builds arrays (it ranks on the scorer's
    /// structure keys); call this on the survivors you intend to compile
    /// or inspect further.
    ///
    /// # Errors
    ///
    /// Propagates fold errors — impossible for dataflows returned by
    /// [`explore_dataflows`] over the same space, since the search already
    /// proved the fold valid.
    pub fn materialize(
        &self,
        is: &IterationSpace,
        func: &Functionality,
    ) -> Result<SpatialArray, CompileError> {
        SpatialArray::from_iterspace(is, func, &self.transform)
    }
}

/// Options bounding the search.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Coefficient magnitude bound for transform entries (1 ⇒ entries in
    /// {-1, 0, 1}; the classic systolic dataflows all live here).
    pub max_coeff: i64,
    /// Reject arrays with more PEs than this (keeps hexagonal-style blowups
    /// bounded).
    pub max_pes: usize,
    /// Keep at most this many results (best first).
    pub keep: usize,
    /// Worker parallelism: `0` shards across all available cores, `1`
    /// keeps the original single-threaded scan, and `n ≥ 2` both shards
    /// the enumeration for `n` workers and runs exactly `n` pool workers:
    /// the caller plus `n − 1` spawned threads — oversubscribing the
    /// machine if it has fewer cores — so profiled runs report exactly the
    /// requested worker count and the work-stealing deques are exercised
    /// everywhere.
    /// Every setting produces a byte-identical ranking — and, through
    /// [`explore_dataflows_profiled`], a byte-identical
    /// [`ExploreFunnel`].
    pub parallelism: usize,
    /// Score candidates through the closed-form analytical tier
    /// ([`crate::analytic`]) when the iteration space's geometry allows
    /// it, folding only the candidates the tier declines plus the ranked
    /// survivors (the fold-oracle backstop). The ranking and funnel
    /// partitions are byte-identical either way — only the informational
    /// `analytic_*` funnel fields (and the wall-clock) change. Default
    /// `true`; disable to force every candidate through the fold.
    pub analytic_tier: bool,
    /// Test hook: panic while scanning this candidate code, exercising
    /// the shard panic-isolation path ([`CompileError::WorkerPanicked`]).
    /// Never set outside tests.
    #[doc(hidden)]
    pub panic_on_code: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            max_coeff: 1,
            max_pes: 4096,
            keep: 16,
            parallelism: 0,
            analytic_tier: true,
            panic_on_code: None,
        }
    }
}

/// Read-only context shared by every scan shard.
struct ScanCtx<'a> {
    func: &'a Functionality,
    is: IterationSpace,
    scorer: FoldScorer,
    analytic: Option<AnalyticScorer>,
    /// The kernel-class table, built once on the calling thread when the
    /// analytical tier applies and the search is small enough for one.
    table: Option<KernelTable>,
    diffs: Vec<Vec<i64>>,
    coeffs: Vec<i64>,
    max_pes: usize,
    panic_on_code: Option<usize>,
}

/// Decodes one mixed-radix candidate code into the flat row-major matrix
/// buffer (entry 0 is the least-significant digit, as in the original
/// scan).
#[inline]
fn decode_candidate(code: usize, coeffs: &[i64], rows: &mut [i64]) {
    let n_choices = coeffs.len();
    let mut rem = code;
    for slot in rows.iter_mut() {
        *slot = coeffs[rem % n_choices];
        rem /= n_choices;
    }
}

/// Builds the transform (and its rational inverse) of a candidate the
/// determinant test let through.
fn transform_of(rank: usize, rows: &[i64]) -> SpaceTimeTransform {
    SpaceTimeTransform::new(IntMat::from_vec(rank, rank, rows.to_vec()))
        .expect("candidate passed the exact determinant check")
}

/// The fold of one non-singular candidate: the packed fold, else — for
/// coordinates too wide for packed keys, counted in `pack_fallback` — the
/// full fold.
fn fold_summary(
    ctx: &ScanCtx<'_>,
    rows: &[i64],
    scratch: &mut FoldScratch,
    pack_fallback: &mut u64,
) -> Result<StructureSummary, CompileError> {
    ctx.scorer.score_rows(rows, scratch).unwrap_or_else(|| {
        *pack_fallback += 1;
        let t = transform_of(ctx.scorer.rank(), rows);
        SpatialArray::from_iterspace(&ctx.is, ctx.func, &t).map(|a| summarize_array(&a))
    })
}

/// Scans one contiguous range of mixed-radix codes, returning the valid
/// dataflows in code order, locally deduplicated by structure (first
/// occurrence wins, as in the serial scan), plus the shard's stage-count
/// [`ExploreFunnel`]. All steady-state work runs in the per-shard scratch
/// buffers; a `SpaceTimeTransform` (and its exact rational inverse) is
/// built only for candidates that survive deduplication. The funnel
/// counters are plain integer adds on branches the scan already takes, so
/// the hot loop stays allocation-free.
fn scan_codes(ctx: &ScanCtx<'_>, codes: Range<usize>) -> (Vec<ExploredDataflow>, ExploreFunnel) {
    let rank = ctx.scorer.rank();
    let n_entries = rank * rank;
    let n_space = n_entries - rank;
    let n_choices = ctx.coeffs.len();
    let max_coeff = ctx.coeffs.last().copied().unwrap_or(0);
    let mut out = Vec::new();
    let mut funnel = ExploreFunnel::default();
    let mut seen: HashSet<StructureSummary> = HashSet::new();
    let mut scratch = FoldScratch::for_scorer(&ctx.scorer);
    let mut cofactors = AnalyticScratch::new(rank);
    let mut rows = vec![0i64; n_entries];
    // One bit per kernel class: set once the class has been scored in the
    // current block, whose later members then repeat its summary.
    let n_classes = ctx.table.as_ref().map_or(0, KernelTable::num_classes);
    let mut first_sight = vec![0u64; n_classes.div_ceil(64)];
    // The time row occupies the most-significant `rank` digits of the
    // mixed-radix code, so `n_choices^(rank·(rank−1))` consecutive codes
    // share one time row: the causality prefilter (every recurrence must
    // move strictly forward in time) runs once per block, and a failing
    // block is rejected wholesale — the funnel counts stay exactly those
    // of the per-candidate scan. (The pow cannot overflow: the caller
    // already verified `n_choices^(rank²)` fits in `usize`.)
    let block = n_choices.checked_pow(n_space as u32).unwrap_or(1).max(1);
    let mut code = codes.start;
    while code < codes.end {
        let run_start = code;
        let run_end = ((code / block + 1) * block).min(codes.end);
        decode_candidate(code, &ctx.coeffs, &mut rows);
        let trow = &rows[n_space..];
        if ctx
            .diffs
            .iter()
            .any(|d| trow.iter().zip(d).map(|(a, b)| a * b).sum::<i64>() <= 0)
        {
            if let Some(pc) = ctx.panic_on_code {
                if pc >= code && pc < run_end {
                    // Test hook: a deliberately bad candidate, standing in
                    // for a scoring bug one input out of millions triggers.
                    panic!("injected panic at candidate code {pc}");
                }
            }
            let n = (run_end - code) as u64;
            funnel.decoded += n;
            funnel.causality_rejected += n;
            code = run_end;
            continue;
        }
        // The closed form serves the block when its time row has one.
        let time_steps = ctx.analytic.as_ref().and_then(|a| a.time_steps(trow));
        first_sight.fill(0);
        for code in run_start..run_end {
            if ctx.panic_on_code == Some(code) {
                panic!("injected panic at candidate code {code}");
            }
            // Odometer decode: only the space digits move within a block.
            if code > run_start {
                odometer_step(&mut rows[..n_space], max_coeff);
            }
            funnel.decoded += 1;
            let (space, trow) = rows.split_at(n_space);
            // det [S; t] = t · c, exact for every search `search_inputs`
            // admits.
            let c = cofactors.cofactors(space);
            if trow.iter().zip(c.iter()).map(|(a, b)| a * b).sum::<i64>() == 0 {
                funnel.singular += 1;
                continue;
            }
            let closed = match (&ctx.analytic, time_steps) {
                (Some(a), Some(ts)) => match ctx.table.as_ref().and_then(|t| t.lookup(c)) {
                    Some((class, counts)) => {
                        let bit = 1u64 << (class & 63);
                        let fresh = first_sight[class >> 6] & bit == 0;
                        first_sight[class >> 6] |= bit;
                        Some((counts.with_time_steps(ts), fresh))
                    }
                    None => {
                        make_primitive(c);
                        a.kernel_counts(c).map(|k| (k.with_time_steps(ts), true))
                    }
                },
                _ => None,
            };
            let (summary, analytic, fresh) = match closed {
                Some((summary, fresh)) => (summary, true, fresh),
                None => match fold_summary(ctx, &rows, &mut scratch, &mut funnel.pack_fallback) {
                    Ok(summary) => (summary, false, true),
                    Err(_) => {
                        funnel.collision_rejected += 1;
                        continue;
                    }
                },
            };
            funnel.scored += 1;
            funnel.analytic_scored += u64::from(analytic);
            if summary.num_pes > ctx.max_pes {
                funnel.over_max_pes += 1;
                funnel.analytic_rejected += u64::from(analytic);
                continue;
            }
            if !fresh || !seen.insert(summary) {
                funnel.dedup_collisions += 1;
                continue;
            }
            funnel.survivors += 1;
            out.push(ExploredDataflow::from_summary(
                transform_of(rank, &rows),
                summary,
            ));
        }
        code = run_end;
    }
    (out, funnel)
}

/// The fold-oracle backstop for the analytical tier: every ranked
/// survivor is re-scored through the exact fold, which must reproduce
/// the ranked structure bit for bit. Costs at most `keep` folds.
fn confirm_survivors(ctx: &ScanCtx<'_>, results: &[ExploredDataflow]) -> Result<(), CompileError> {
    let mut scratch = FoldScratch::for_scorer(&ctx.scorer);
    for e in results {
        let diverged = |detail: String| CompileError::AnalyticDivergence { detail };
        // The scan's funnel has closed; a pack fallback here is not booked.
        let rows = e.transform.flat_rows();
        let folded = fold_summary(ctx, &rows, &mut scratch, &mut 0).map_err(|err| {
            diverged(format!(
                "{}: fold rejected a ranked survivor: {err}",
                e.transform
            ))
        })?;
        let ranked = e.summary();
        if folded != ranked {
            return Err(diverged(format!(
                "{}: ranked {ranked:?} vs fold {folded:?}",
                e.transform
            )));
        }
    }
    Ok(())
}

/// The size `(2·max_coeff+1)^(rank²)` of a search's candidate space.
/// `max_coeff` arrives from serve lines, so this runs before the
/// coefficient list is built: an absurd bound must be this error, not an
/// allocation failure that aborts the process.
fn candidate_count(rank: usize, max_coeff: i64) -> Result<usize, CompileError> {
    let n_entries = (rank * rank) as u32;
    let n_choices = if max_coeff < 0 {
        0
    } else {
        usize::try_from(max_coeff)
            .ok()
            .and_then(|c| c.checked_mul(2)?.checked_add(1))
            .unwrap_or(usize::MAX)
    };
    n_choices
        .checked_pow(n_entries)
        .ok_or(CompileError::SearchSpaceTooLarge {
            choices: n_choices,
            entries: n_entries,
        })
}

/// Shared search preamble: validates the functionality, elaborates the
/// iteration space, collects the recurrence difference vectors, and sizes
/// the candidate space with overflow checking.
#[allow(clippy::type_complexity)]
fn search_inputs(
    func: &Functionality,
    bounds: &Bounds,
    max_coeff: i64,
) -> Result<(IterationSpace, Vec<Vec<i64>>, Vec<i64>, usize), CompileError> {
    func.validate()?;
    let rank = func.rank();
    let is = IterationSpace::elaborate(func, bounds)?;

    // The recurrences' difference vectors, for quick causality filtering.
    let mut diffs = Vec::new();
    for v in func.vars() {
        if let Some(d) = func.difference_vector(v)? {
            diffs.push(d);
        }
    }

    let total = candidate_count(rank, max_coeff)?;
    // Every admitted search has exact cofactors and determinants `t · c`,
    // which is what lets the scan decide singularity by them.
    debug_assert!(total == 0 || search_cofactor_bound(rank, max_coeff).is_some());
    let coeffs: Vec<i64> = (-max_coeff..=max_coeff).collect();
    Ok((is, diffs, coeffs, total))
}

/// Ranks deduplicated results: stable sort on cost (ties keep code order,
/// so the parallel and serial rankings agree byte for byte) with
/// `total_cmp`, so a degenerate NaN cost cannot abort a sweep.
fn rank_results(mut results: Vec<ExploredDataflow>, keep: usize) -> Vec<ExploredDataflow> {
    results.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
    results.truncate(keep);
    results
}

/// One profiled dataflow search: the ranking plus the telemetry the
/// search gathered while producing it.
#[derive(Clone, Debug)]
pub struct ExploreRun {
    /// The ranked survivors, exactly as [`explore_dataflows`] returns.
    pub results: Vec<ExploredDataflow>,
    /// Per-stage candidate accounting. `funnel.decoded` equals the full
    /// `(2·max_coeff+1)^(rank²)` space and the partition invariants of
    /// [`ExploreFunnel::check`] hold; the funnel is byte-identical across
    /// serial and parallel runs of the same search.
    pub funnel: ExploreFunnel,
    /// Worker telemetry for the scan. Items are scheduled work units
    /// (enumeration shards; the serial path reports one unit), not
    /// individual candidates.
    pub workers: PoolStats,
}

/// Enumerates valid dataflows for a functionality over the given bounds,
/// returning distinct array structures sorted by [`ExploredDataflow::cost`].
///
/// Validity means: invertible, every recurrence's `Δt > 0` or (`Δt == 0`
/// with spatial movement is rejected to keep arrays fully pipelined),
/// and no space-time collisions over the bounds. Transforms yielding an
/// array structure identical to an already-kept transform are deduplicated.
///
/// The scan is sharded across worker threads per
/// [`ExploreOptions::parallelism`]; the ranking is byte-identical to the
/// serial scan for every setting (see the module docs for the argument).
/// Candidates are scored by the allocation-free [`FoldScorer`] fast path;
/// the ranking is additionally byte-identical to that of
/// [`explore_dataflows_reference`], the retained full-fold oracle.
///
/// # Errors
///
/// Returns an error if the functionality itself is invalid, or
/// [`CompileError::SearchSpaceTooLarge`] if `(2·max_coeff+1)^(rank²)`
/// overflows `usize`.
pub fn explore_dataflows(
    func: &Functionality,
    bounds: &Bounds,
    opts: &ExploreOptions,
) -> Result<Vec<ExploredDataflow>, CompileError> {
    explore_dataflows_profiled(func, bounds, opts).map(|run| run.results)
}

/// [`explore_dataflows`] with telemetry: the same ranking, plus the
/// stage-count [`ExploreFunnel`] and per-worker [`PoolStats`]. The
/// counters ride on branches the scan already takes — the hot loop stays
/// allocation-free — and the funnel is deterministic: byte-identical for
/// every [`ExploreOptions::parallelism`] setting, because shard funnels
/// merge in code order and shard-local survivors that lose the global
/// deduplication are demoted to `dedup_collisions`, exactly as the serial
/// scan would have counted them.
///
/// # Errors
///
/// Same contract as [`explore_dataflows`].
pub fn explore_dataflows_profiled(
    func: &Functionality,
    bounds: &Bounds,
    opts: &ExploreOptions,
) -> Result<ExploreRun, CompileError> {
    let (is, diffs, coeffs, total) = search_inputs(func, bounds, opts.max_coeff)?;
    let scorer = FoldScorer::new(&is, func);
    let analytic = opts
        .analytic_tier
        .then(|| AnalyticScorer::try_new(&is, func))
        .flatten();
    let table = analytic
        .as_ref()
        .and_then(|a| a.kernel_table(opts.max_coeff));
    let ctx = ScanCtx {
        func,
        is,
        scorer,
        analytic,
        table,
        diffs,
        coeffs,
        max_pes: opts.max_pes,
        panic_on_code: opts.panic_on_code,
    };

    let workers = match opts.parallelism {
        0 => rayon::current_num_threads(),
        n => n,
    };
    // Shards below this size cost more to fan out than to just scan.
    const MIN_SHARD: usize = 4096;
    // One shard for a serial or small search, which the pool runs on its
    // serial path; otherwise several shards per worker so an expensive
    // shard load-balances. Either way the scan runs under panic isolation:
    // one bad candidate (a scoring bug, an overflow) becomes
    // `Err(WorkerPanicked)` instead of tearing down the process hosting
    // the search.
    let (n_shards, shard) = if workers <= 1 || total <= MIN_SHARD {
        (1, total)
    } else {
        let shard = total.div_ceil(workers * 8).max(MIN_SHARD);
        (total.div_ceil(shard), shard)
    };
    let (shards, pool) = (0..n_shards)
        .into_par_iter()
        .with_max_threads(workers)
        .map(|s| scan_codes(&ctx, s * shard..((s + 1) * shard).min(total)))
        .try_collect_vec()
        .map_err(|p| CompileError::WorkerPanicked { message: p.message })?;

    // Merge shards in code order under a global dedup set: the survivor of
    // every structure is its lowest-code candidate, matching the serial
    // scan exactly. Funnels merge the same way; a shard-local survivor
    // that loses the global dedup is demoted to a dedup collision, which
    // is what the serial scan would have counted it as.
    let mut funnel = ExploreFunnel::default();
    let mut seen: HashSet<StructureSummary> = HashSet::new();
    let mut results: Vec<ExploredDataflow> = Vec::new();
    for (shard, shard_funnel) in shards {
        funnel.merge(&shard_funnel);
        for e in shard {
            if seen.insert(e.summary()) {
                results.push(e);
            } else {
                funnel.survivors -= 1;
                funnel.dedup_collisions += 1;
            }
        }
    }

    let results = rank_results(results, opts.keep);
    if ctx.analytic.is_some() {
        confirm_survivors(&ctx, &results)?;
    }
    funnel.materialized = results.len() as u64;
    debug_assert_eq!(funnel.decoded, total as u64);
    debug_assert_eq!(funnel.check(), Ok(()));
    Ok(ExploreRun {
        results,
        workers: pool,
        funnel,
    })
}

/// The pre-fast-path search, retained as the one in-tree oracle: a serial
/// scan that materializes a full [`SpatialArray`] per candidate via the
/// hashed [`mod@reference`] fold, with the same stage-count telemetry as
/// [`explore_dataflows_profiled`]. The equivalence tests in
/// `tests/explore_parallel.rs` hold [`explore_dataflows`] byte-identical
/// to its `results` and the fast path's funnel partitions equal to its
/// `funnel`.
///
/// The oracle's filters commute as a *set* (a candidate rejected by both
/// causality and singularity is rejected either way), but funnel buckets
/// need one canonical attribution order. It classifies in the fast path's
/// order — causality first (the same raw time-row dot product as
/// [`SpaceTimeTransform::time_delta`], taken before the matrix is
/// built), then singularity, then the full fold. `pack_fallback` and the
/// `analytic_*` counters are always zero here: the oracle has no packed
/// fast path to fall back *from* and no closed forms.
///
/// # Errors
///
/// Same contract as [`explore_dataflows`].
pub fn explore_dataflows_reference(
    func: &Functionality,
    bounds: &Bounds,
    opts: &ExploreOptions,
) -> Result<ExploreRun, CompileError> {
    let (is, diffs, coeffs, total) = search_inputs(func, bounds, opts.max_coeff)?;
    let rank = func.rank();
    let n_entries = rank * rank;
    let n_choices = coeffs.len();
    let started = Instant::now();
    let mut funnel = ExploreFunnel::default();
    let mut results: Vec<ExploredDataflow> = Vec::new();
    let mut seen: HashSet<StructureSummary> = HashSet::new();
    for code in 0..total {
        // Decode the matrix entries from the mixed-radix code.
        let mut rem = code;
        let mut data = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            data.push(coeffs[rem % n_choices]);
            rem /= n_choices;
        }
        funnel.decoded += 1;
        let trow = &data[(rank - 1) * rank..];
        if diffs
            .iter()
            .any(|d| trow.iter().zip(d).map(|(a, b)| a * b).sum::<i64>() <= 0)
        {
            funnel.causality_rejected += 1;
            continue;
        }
        let t = match SpaceTimeTransform::new(IntMat::from_vec(rank, rank, data)) {
            Ok(t) => t,
            Err(_) => {
                funnel.singular += 1;
                continue;
            }
        };
        let arr = match reference::from_iterspace(&is, func, &t) {
            Ok(a) => a,
            Err(_) => {
                funnel.collision_rejected += 1;
                continue;
            }
        };
        funnel.scored += 1;
        if arr.num_pes() > opts.max_pes {
            funnel.over_max_pes += 1;
            continue;
        }
        let summary = summarize_array(&arr);
        if !seen.insert(summary) {
            funnel.dedup_collisions += 1;
            continue;
        }
        funnel.survivors += 1;
        results.push(ExploredDataflow::from_summary(t, summary));
    }
    let busy_ms = started.elapsed().as_secs_f64() * 1e3;
    let results = rank_results(results, opts.keep);
    funnel.materialized = results.len() as u64;
    debug_assert_eq!(funnel.decoded, total as u64);
    debug_assert_eq!(funnel.check(), Ok(()));
    Ok(ExploreRun {
        results,
        funnel,
        workers: PoolStats::serial(1, busy_ms),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(opts: ExploreOptions) -> Vec<ExploredDataflow> {
        let f = Functionality::matmul(4, 4, 4);
        explore_dataflows(&f, &Bounds::from_extents(&[4, 4, 4]), &opts).unwrap()
    }

    #[test]
    fn finds_multiple_distinct_dataflows() {
        let found = run(ExploreOptions::default());
        assert!(
            found.len() >= 4,
            "expected a gallery of dataflows, got {}",
            found.len()
        );
        // Sorted by cost.
        for w in found.windows(2) {
            assert!(w[0].cost() <= w[1].cost());
        }
    }

    #[test]
    fn classic_dataflow_structures_are_rediscovered() {
        // The search must find 16-PE arrays with a stationary operand —
        // the output/input-stationary family of Figure 2.
        let found = run(ExploreOptions::default());
        assert!(
            found
                .iter()
                .any(|e| e.num_pes == 16 && e.stationary_conns > 0),
            "no 16-PE stationary-operand dataflow found"
        );
    }

    #[test]
    fn all_results_are_causal_and_collision_free() {
        let f = Functionality::matmul(3, 3, 3);
        let bounds = Bounds::from_extents(&[3, 3, 3]);
        let found = explore_dataflows(&f, &bounds, &ExploreOptions::default()).unwrap();
        let is = IterationSpace::elaborate(&f, &bounds).unwrap();
        for e in &found {
            // Lazily materializing a survivor must succeed (no collision)
            // and reproduce the scorer's structure key exactly.
            let arr = e.materialize(&is, &f).unwrap();
            assert_eq!(arr.num_pes(), e.num_pes);
            assert!(arr.conns().iter().all(|c| c.registers >= 1));
        }
    }

    #[test]
    fn max_pes_bound_respected() {
        let found = run(ExploreOptions {
            max_pes: 16,
            ..ExploreOptions::default()
        });
        assert!(found.iter().all(|e| e.num_pes <= 16));
    }

    #[test]
    fn keep_truncates() {
        let found = run(ExploreOptions {
            keep: 3,
            ..ExploreOptions::default()
        });
        assert!(found.len() <= 3);
    }

    #[test]
    fn parallel_ranking_matches_serial() {
        // The determinism contract at unit scope; the cross-crate tests in
        // `crates/core/tests/explore_parallel.rs` cover larger sweeps.
        let serial = run(ExploreOptions {
            parallelism: 1,
            ..ExploreOptions::default()
        });
        for parallelism in [0, 2, 3, 8] {
            let parallel = run(ExploreOptions {
                parallelism,
                ..ExploreOptions::default()
            });
            assert_eq!(parallel, serial, "parallelism={parallelism} diverged");
        }
    }

    #[test]
    fn scorer_ranking_matches_reference_fold() {
        // The fast path vs the retained full-fold oracle, at unit scope;
        // the max_coeff=2 sweeps live in `explore_parallel.rs`.
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        let opts = ExploreOptions {
            parallelism: 1,
            ..ExploreOptions::default()
        };
        let fast = explore_dataflows(&f, &bounds, &opts).unwrap();
        let oracle = explore_dataflows_reference(&f, &bounds, &opts).unwrap();
        assert_eq!(fast, oracle.results);
    }

    #[test]
    fn panicking_shard_surfaces_as_worker_panicked() {
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        for parallelism in [1usize, 0, 4] {
            let err = explore_dataflows(
                &f,
                &bounds,
                &ExploreOptions {
                    parallelism,
                    panic_on_code: Some(1234),
                    ..ExploreOptions::default()
                },
            )
            .unwrap_err();
            match err {
                CompileError::WorkerPanicked { message } => {
                    assert!(
                        message.contains("candidate code 1234"),
                        "parallelism={parallelism}: unexpected message {message:?}"
                    );
                }
                other => {
                    panic!("parallelism={parallelism}: expected WorkerPanicked, got {other:?}")
                }
            }
        }
    }

    #[test]
    fn search_survives_a_panic_and_runs_clean_afterwards() {
        // The process (and the search machinery) must be fully usable
        // after an isolated panic: same ranking as a never-panicked run.
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        let clean_before = explore_dataflows(&f, &bounds, &ExploreOptions::default()).unwrap();
        let _ = explore_dataflows(
            &f,
            &bounds,
            &ExploreOptions {
                panic_on_code: Some(77),
                ..ExploreOptions::default()
            },
        )
        .unwrap_err();
        let clean_after = explore_dataflows(&f, &bounds, &ExploreOptions::default()).unwrap();
        assert_eq!(clean_before, clean_after);
    }

    #[test]
    fn funnel_accounts_for_every_candidate() {
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        let opts = ExploreOptions {
            parallelism: 1,
            ..ExploreOptions::default()
        };
        let run = explore_dataflows_profiled(&f, &bounds, &opts).unwrap();
        // The funnel covers the whole (2c+1)^(rank²) space and partitions.
        assert_eq!(run.funnel.decoded, 3u64.pow(9));
        run.funnel.check().unwrap();
        assert!(run.funnel.survivors > 0);
        assert_eq!(run.funnel.materialized, run.results.len() as u64);
        // The profiled entry returns the exact same ranking.
        assert_eq!(run.results, explore_dataflows(&f, &bounds, &opts).unwrap());
        // Serial scan: one fully-busy worker.
        assert_eq!(run.workers.worker_count(), 1);
        assert_eq!(run.workers.total_items(), 1);
    }

    #[test]
    fn funnel_is_identical_across_parallelism() {
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        let serial = explore_dataflows_profiled(
            &f,
            &bounds,
            &ExploreOptions {
                parallelism: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        for parallelism in [0usize, 2, 3, 8] {
            let run = explore_dataflows_profiled(
                &f,
                &bounds,
                &ExploreOptions {
                    parallelism,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                run.funnel, serial.funnel,
                "parallelism={parallelism} funnel diverged"
            );
            assert_eq!(run.results, serial.results);
            if parallelism >= 2 {
                // parallelism n caps the pool at n threads.
                assert!(
                    run.workers.worker_count() <= parallelism,
                    "parallelism={parallelism} ran {} workers",
                    run.workers.worker_count()
                );
            }
        }
    }

    #[test]
    fn reference_funnel_matches_fast_path() {
        let f = Functionality::matmul(4, 4, 4);
        let bounds = Bounds::from_extents(&[4, 4, 4]);
        let opts = ExploreOptions {
            parallelism: 1,
            ..ExploreOptions::default()
        };
        let fast = explore_dataflows_profiled(&f, &bounds, &opts).unwrap();
        let oracle = explore_dataflows_reference(&f, &bounds, &opts).unwrap();
        // The oracle has neither a packed fast path nor an analytical
        // tier, so its informational tier-attribution counters are 0 by
        // construction; every partitioned bucket must agree.
        let mut fast_funnel = fast.funnel;
        fast_funnel.pack_fallback = 0;
        fast_funnel.analytic_scored = 0;
        fast_funnel.analytic_rejected = 0;
        assert_eq!(fast_funnel, oracle.funnel);
        assert_eq!(oracle.results, fast.results);
    }

    #[test]
    fn absurd_max_coeff_is_rejected_before_the_coefficient_list_is_built() {
        // 2·10¹²+1 choices: collecting them first would ask for 16 TB.
        let f = Functionality::matmul(2, 2, 2);
        let bounds = Bounds::from_extents(&[2, 2, 2]);
        for (max_coeff, choices) in [
            (1_000_000_000_000, 2_000_000_000_001),
            (i64::MAX, usize::MAX),
        ] {
            let opts = ExploreOptions {
                max_coeff,
                ..ExploreOptions::default()
            };
            let too_large = CompileError::SearchSpaceTooLarge {
                choices,
                entries: 9,
            };
            assert_eq!(
                explore_dataflows(&f, &bounds, &opts),
                Err(too_large.clone())
            );
            assert_eq!(
                explore_dataflows_reference(&f, &bounds, &opts).map(|run| run.results),
                Err(too_large)
            );
        }
    }

    #[test]
    fn every_admitted_search_decides_singularity_exactly() {
        // `t · c` decides singularity only while it is exact in `i64`. At
        // each rank, find the largest `max_coeff` the size check admits
        // (from rank 7 on that is 0) and certify its cofactor bound.
        for rank in 1..=7usize {
            let (mut lo, mut hi) = (0i64, i64::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2 + 1;
                if candidate_count(rank, mid).is_ok() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            assert!(
                search_cofactor_bound(rank, lo).is_some(),
                "rank {rank}, max_coeff {lo}"
            );
            if rank == 2 {
                // The widest case: |t · c| ≤ 2 · 32,767² ≈ 2.1·10⁹.
                assert_eq!(lo, 32_767);
            }
        }
    }

    #[test]
    fn oversized_search_space_is_rejected_not_wrapped() {
        // rank 5 at max_coeff 3: 7^25 > usize::MAX — must be a clean error.
        let mut f = Functionality::new("rank5");
        let idxs: Vec<_> = (0..5).map(|i| f.index(format!("i{i}"))).collect();
        let t_in = f.input_tensor("x", &idxs);
        let t_out = f.output_tensor("y", &idxs);
        let v = f.var("v");
        let lhs: Vec<_> = idxs.iter().map(|&i| crate::index::at(i)).collect();
        f.assign(v, lhs.clone(), crate::expr::Expr::Input(t_in, lhs.clone()));
        f.output(t_out, lhs.clone(), crate::expr::Expr::Var(v, lhs.clone()));
        let err = explore_dataflows(
            &f,
            &Bounds::from_extents(&[2; 5]),
            &ExploreOptions {
                max_coeff: 3,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(
            err,
            Err(CompileError::SearchSpaceTooLarge {
                choices: 7,
                entries: 25,
            })
        );
    }
}
