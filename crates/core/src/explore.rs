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
//! The enumeration is sharded into runs of whole time-row blocks (below)
//! for rayon workers ([`ExploreOptions::parallelism`]), merged **in code
//! order** under a global dedup set, so every structure's survivor is its
//! lowest-code candidate and the ranking is byte-identical to the serial
//! path's.
//!
//! Candidates are decided on a fidelity ladder (cheapest exact tier first,
//! every tier producing bit-identical summaries):
//!
//! 1. **Block causality skip** — the time row `t` occupies the top `rank`
//!    digits of the mixed-radix code, so `n_choices^(rank·(rank−1))`
//!    consecutive codes share it; a failing time row rejects the whole
//!    block without decoding a single candidate.
//! 2. **Closed-form analytical tier** ([`crate::analytic`]) — a candidate
//!    is singular iff `t · c = 0` for the cofactor vector `c` of its space
//!    rows (exact for every admitted search), else scores the counts of
//!    `c`'s kernel direction plus `t`'s latency. So on box geometry a
//!    causal block is decided without visiting its candidates: one pass
//!    over the per-search [`KernelTable`]'s direction records (tuple
//!    count, lowest space code, class) yields every funnel counter and one
//!    survivor per class. A search too large for a table takes the closed
//!    form per candidate. Ranked survivors are re-folded as an oracle
//!    backstop ([`CompileError::AnalyticDivergence`] on disagreement).
//! 3. **Allocation-free fold** ([`FoldScorer`]) — candidates the
//!    analytical tier declines (overflow, causality error attribution,
//!    non-box geometry) take the packed point fold of [`crate::fold`],
//!    decoded by an odometer; a [`SpatialArray`] is built only for
//!    survivors of deduplication on their [`StructureSummary`].
//! 4. **Full fold** — coordinates too wide even for packed keys take
//!    [`SpatialArray::from_iterspace`] per candidate, which for them is
//!    the hashed point mapping of [`crate::spacetime::reference`].
//!
//! Full arrays are materialized lazily, only for ranked survivors, via
//! [`ExploredDataflow::materialize`]. [`explore_dataflows_reference`] is
//! the one in-tree oracle search (serial, a full hashed fold per
//! candidate); the tests hold the fast path byte-identical to it.

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
        structure_cost(&self.summary())
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
    /// scans on the calling thread, and `n ≥ 2` shards for `n` workers and
    /// runs exactly `n` pool workers (the caller plus `n − 1` spawned
    /// threads, oversubscribing the machine if it has fewer cores). Every
    /// setting produces a byte-identical ranking and [`ExploreFunnel`].
    pub parallelism: usize,
    /// Score candidates through the closed-form analytical tier
    /// ([`crate::analytic`]) where the iteration space's geometry allows,
    /// folding only what it declines plus the ranked survivors. Rankings
    /// and funnel partitions are byte-identical either way; only the
    /// `analytic_*` funnel fields change. Default `true`.
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
    /// Codes per time-row block: `n_choices^(rank·(rank−1))`.
    block: usize,
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

/// A shard-local survivor: its candidate code and structure.
type Survivor = (usize, StructureSummary);

/// Scans a run of whole time-row blocks, returning its survivors in code
/// order, deduplicated locally (first occurrence wins), and its funnel. A
/// block whose shared time row fails causality is rejected wholesale, a
/// causal block the kernel-class table serves is decided from its
/// direction records, and any other block takes its candidates one by
/// one: the closed form where the analytical tier applies, else the fold.
fn scan_codes(ctx: &ScanCtx<'_>, blocks: Range<usize>) -> (Vec<Survivor>, ExploreFunnel) {
    let rank = ctx.scorer.rank();
    let n_space = rank * rank - rank;
    let max_coeff = ctx.coeffs.last().copied().unwrap_or(0);
    let mut out = Vec::new();
    let mut funnel = ExploreFunnel::default();
    let mut seen: HashSet<StructureSummary> = HashSet::new();
    let mut scratch = FoldScratch::for_scorer(&ctx.scorer);
    let mut cofactors = AnalyticScratch::new(rank);
    let mut rows = vec![0i64; rank * rank];
    let mut claimed = vec![false; ctx.table.as_ref().map_or(0, |t| t.classes.len())];
    for start in blocks.map(|b| b * ctx.block) {
        let codes = start..start + ctx.block;
        if let Some(pc) = ctx.panic_on_code.filter(|pc| codes.contains(pc)) {
            // Test hook: a deliberately bad candidate, standing in for a
            // scoring bug one input out of millions triggers.
            panic!("injected panic at candidate code {pc}");
        }
        funnel.decoded += ctx.block as u64;
        decode_candidate(start, &ctx.coeffs, &mut rows);
        let trow = &rows[n_space..];
        if ctx.diffs.iter().any(|d| dot(trow, d) <= 0) {
            funnel.causality_rejected += ctx.block as u64;
            continue;
        }
        let time_steps = ctx.analytic.as_ref().and_then(|a| a.time_steps(trow));
        if let (Some(table), Some(ts)) = (&ctx.table, time_steps) {
            // Every tuple of a direction `v` is singular iff `t · v = 0`,
            // else scores its class's counts plus `ts`. Distinct classes
            // have distinct counts, so a class's lowest-code nonsingular
            // tuple — met first, as the records run in code order — is its
            // one candidate survivor, and its other tuples are collisions.
            claimed.fill(false);
            for dir in &table.dirs {
                let n = u64::from(dir.tuples);
                if dot(trow, &dir.v.map(i64::from)) == 0 {
                    funnel.singular += n;
                    continue;
                }
                let class = usize::from(dir.class);
                let summary = table.classes[class].with_time_steps(ts);
                let first = !std::mem::replace(&mut claimed[class], true);
                if book(ctx, &mut funnel, &mut seen, summary, n, true, first) {
                    out.push((start + dir.first as usize, summary));
                }
            }
            continue;
        }
        for code in codes {
            // Odometer decode: only the space digits move within a block.
            if code > start {
                odometer_step(&mut rows[..n_space], max_coeff);
            }
            let (space, trow) = rows.split_at(n_space);
            // det [S; t] = t · c, exact for every admitted search.
            let c = cofactors.cofactors(space);
            if dot(trow, c) == 0 {
                funnel.singular += 1;
                continue;
            }
            let closed = ctx.analytic.as_ref().zip(time_steps).and_then(|(a, ts)| {
                make_primitive(c);
                a.kernel_counts(c).map(|k| k.with_time_steps(ts))
            });
            let fold = || fold_summary(ctx, &rows, &mut scratch, &mut funnel.pack_fallback);
            let Ok(summary) = closed.map_or_else(fold, Ok) else {
                funnel.collision_rejected += 1;
                continue;
            };
            let analytic = closed.is_some();
            if book(ctx, &mut funnel, &mut seen, summary, 1, analytic, true) {
                out.push((code, summary));
            }
        }
    }
    (out, funnel)
}

/// Books `n` scored candidates sharing `summary` (`analytic` when the
/// closed form scored them) through the PE bound and local deduplication;
/// `true` when the first of them, if `first` is eligible, survives.
fn book(
    ctx: &ScanCtx<'_>,
    funnel: &mut ExploreFunnel,
    seen: &mut HashSet<StructureSummary>,
    summary: StructureSummary,
    n: u64,
    analytic: bool,
    first: bool,
) -> bool {
    let analytic = u64::from(analytic) * n;
    funnel.scored += n;
    funnel.analytic_scored += analytic;
    if summary.num_pes > ctx.max_pes {
        funnel.over_max_pes += n;
        funnel.analytic_rejected += analytic;
        return false;
    }
    let fresh = first && seen.insert(summary);
    funnel.dedup_collisions += n - u64::from(fresh);
    funnel.survivors += u64::from(fresh);
    fresh
}

/// `a · b` over the shorter slice's length.
fn dot(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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

/// [`ExploredDataflow::cost`] of a structure.
fn structure_cost(s: &StructureSummary) -> f64 {
    s.num_pes as f64 * 10.0
        + s.io_ports as f64 * 2.0
        + s.moving_conns as f64
        + s.time_steps as f64 * 0.1
}

/// Ranks deduplicated results: stable sort on cost (ties keep code order,
/// so the parallel and serial rankings agree byte for byte) with
/// `total_cmp`, so a degenerate NaN cost cannot abort a sweep.
fn rank_results<T>(mut results: Vec<T>, keep: usize, cost: impl Fn(&T) -> f64) -> Vec<T> {
    results.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    results.truncate(keep);
    results
}

/// One profiled dataflow search: the ranking plus the telemetry the
/// search gathered while producing it.
#[derive(Clone, Debug)]
pub struct ExploreRun {
    /// The ranked survivors, exactly as [`explore_dataflows`] returns.
    pub results: Vec<ExploredDataflow>,
    /// Per-stage candidate accounting over the whole candidate space, with
    /// the partitions of [`ExploreFunnel::check`]; byte-identical across
    /// serial and parallel runs of the same search.
    pub funnel: ExploreFunnel,
    /// Worker telemetry for the scan. Items are shards of whole time-row
    /// blocks, which the class path decides without visiting their
    /// candidates — not candidates (the serial path reports one item).
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
/// serial scan for every setting and to [`explore_dataflows_reference`],
/// the retained full-fold oracle (see the module docs).
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
/// stage-count [`ExploreFunnel`] and per-worker [`PoolStats`]. The funnel
/// is byte-identical for every [`ExploreOptions::parallelism`] setting:
/// shard funnels merge in code order, and shard-local survivors that lose
/// the global deduplication are demoted to `dedup_collisions`, exactly as
/// the serial scan would have counted them.
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
    let n_space = func.rank() * func.rank() - func.rank();
    // The pow cannot overflow: `search_inputs` verified `n_choices^(rank²)`.
    let block = coeffs.len().pow(n_space as u32).max(1);
    let ctx = ScanCtx {
        func,
        is,
        scorer,
        analytic,
        table,
        diffs,
        coeffs,
        block,
        max_pes: opts.max_pes,
        panic_on_code: opts.panic_on_code,
    };

    let workers = match opts.parallelism {
        0 => rayon::current_num_threads(),
        n => n,
    };
    // Shards below this many candidates cost more to fan out than to scan.
    const MIN_SHARD: usize = 4096;
    // One shard for a serial or small search (the pool's serial path),
    // else several per worker, in whole time-row blocks, so an expensive
    // shard load-balances. Panic isolation turns one bad candidate into
    // `Err(WorkerPanicked)` instead of tearing down the hosting process.
    let n_blocks = total / block;
    let shard = if workers <= 1 || total <= MIN_SHARD {
        n_blocks.max(1)
    } else {
        total.div_ceil(workers * 8).max(MIN_SHARD).div_ceil(block)
    };
    let (shards, pool) = (0..n_blocks.div_ceil(shard).max(1))
        .into_par_iter()
        .with_max_threads(workers)
        .map(|s| scan_codes(&ctx, s * shard..((s + 1) * shard).min(n_blocks)))
        .try_collect_vec()
        .map_err(|p| CompileError::WorkerPanicked { message: p.message })?;

    // Merge shards in code order under a global dedup set: the survivor of
    // every structure is its lowest-code candidate, as in the serial scan.
    // Funnels merge the same way; a shard-local survivor that loses the
    // global dedup is demoted to the dedup collision a serial scan counts.
    let mut funnel = ExploreFunnel::default();
    let mut seen: HashSet<StructureSummary> = HashSet::new();
    let mut survivors = Vec::new();
    for (shard, shard_funnel) in shards {
        funnel.merge(&shard_funnel);
        for (code, summary) in shard {
            if seen.insert(summary) {
                survivors.push((code, summary));
            } else {
                funnel.survivors -= 1;
                funnel.dedup_collisions += 1;
            }
        }
    }

    // Only the kept survivors get a transform, and its rational inverse.
    let mut rows = vec![0i64; func.rank() * func.rank()];
    let mut results = Vec::new();
    for (code, summary) in rank_results(survivors, opts.keep, |(_, s)| structure_cost(s)) {
        decode_candidate(code, &ctx.coeffs, &mut rows);
        results.push(ExploredDataflow::from_summary(
            transform_of(func.rank(), &rows),
            summary,
        ));
    }
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
/// [`explore_dataflows_profiled`]. `tests/explore_parallel.rs` holds
/// [`explore_dataflows`]'s ranking and funnel partitions equal to its own.
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
        if diffs.iter().any(|d| dot(trow, d) <= 0) {
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
    let results = rank_results(results, opts.keep, ExploredDataflow::cost);
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

    /// A running sum along the last of `rank` indices.
    fn prefix_sum(rank: usize) -> Functionality {
        use crate::expr::Expr;
        use crate::index::{at, shifted, IdxExpr};
        let mut f = Functionality::new(format!("prefix_sum_r{rank}"));
        let idxs: Vec<_> = (0..rank).map(|i| f.index(format!("i{i}"))).collect();
        let last = idxs[rank - 1];
        let x = f.input_tensor("x", &idxs);
        let y = f.output_tensor("y", &idxs[..rank - 1]);
        let v = f.var("v");
        let here: Vec<_> = idxs.iter().map(|&i| at(i)).collect();
        let with_last = |e| {
            let mut ixs = here.clone();
            ixs[rank - 1] = e;
            ixs
        };
        let first = with_last(IdxExpr::Lower(last));
        f.assign(v, first, Expr::Input(x, here.clone()));
        let prev = Expr::Var(v, with_last(shifted(last, -1)));
        f.assign(
            v,
            here.clone(),
            Expr::add(prev, Expr::Input(x, here.clone())),
        );
        let out = Expr::Var(v, with_last(IdxExpr::Upper(last)));
        f.output(y, here[..rank - 1].to_vec(), out);
        f
    }

    /// `v(p) = v(p − d) + x(p)` over `(i, j, k)`, read out at `j`'s upper
    /// bound: one recurrence along a diagonal difference `d`.
    fn recurrence_along(d: [i64; 3]) -> Functionality {
        use crate::expr::Expr;
        use crate::index::{at, shifted, IdxExpr};
        let mut f = Functionality::new(format!("recurrence_{d:?}"));
        let idxs: Vec<_> = ["i", "j", "k"].iter().map(|n| f.index(*n)).collect();
        let x = f.input_tensor("x", &idxs);
        let y = f.output_tensor("y", &[idxs[0], idxs[2]]);
        let v = f.var("v");
        let here: Vec<_> = idxs.iter().map(|&i| at(i)).collect();
        let back: Vec<_> = idxs.iter().zip(d).map(|(&i, dd)| shifted(i, -dd)).collect();
        let next = Expr::add(Expr::Var(v, back), Expr::Input(x, here.clone()));
        f.assign(v, here.clone(), next);
        let out = Expr::Var(v, vec![here[0], IdxExpr::Upper(idxs[1]), here[2]]);
        f.output(y, vec![here[0], here[2]], out);
        f
    }

    /// The per-candidate oracle for the class search: each code decoded on
    /// its own by an odometer, singular iff `t · c = 0`, scored by
    /// [`AnalyticScorer::score_rows`], deduplicated by first occurrence.
    fn per_candidate(
        f: &Functionality,
        bounds: &Bounds,
        opts: &ExploreOptions,
    ) -> (Vec<ExploredDataflow>, ExploreFunnel) {
        let (is, diffs, _, total) = search_inputs(f, bounds, opts.max_coeff).unwrap();
        let a = AnalyticScorer::try_new(&is, f).expect("box geometry");
        let rank = f.rank();
        let n_space = rank * rank - rank;
        let mut cofactors = AnalyticScratch::for_scorer(&a);
        let mut rows = vec![-opts.max_coeff; rank * rank];
        let mut funnel = ExploreFunnel::default();
        let mut seen = HashSet::new();
        let mut results = Vec::new();
        for code in 0..total {
            if code > 0 {
                odometer_step(&mut rows, opts.max_coeff);
            }
            funnel.decoded += 1;
            let (space, trow) = rows.split_at(n_space);
            if diffs.iter().any(|d| dot(trow, d) <= 0) {
                funnel.causality_rejected += 1;
                continue;
            }
            if dot(trow, cofactors.cofactors(space)) == 0 {
                funnel.singular += 1;
                continue;
            }
            let s = a.score_rows(&rows, &mut cofactors).expect("closed form");
            funnel.scored += 1;
            funnel.analytic_scored += 1;
            if s.num_pes > opts.max_pes {
                funnel.over_max_pes += 1;
                funnel.analytic_rejected += 1;
            } else if !seen.insert(s) {
                funnel.dedup_collisions += 1;
            } else {
                funnel.survivors += 1;
                results.push(ExploredDataflow::from_summary(transform_of(rank, &rows), s));
            }
        }
        let results = rank_results(results, opts.keep, ExploredDataflow::cost);
        funnel.materialized = results.len() as u64;
        (results, funnel)
    }

    /// A rank-3 search at `max_coeff = 2` walks 5⁹ candidates through the
    /// oracle: debug builds take a few cases, release builds more.
    const ORACLE_CASES: u32 = if cfg!(debug_assertions) { 6 } else { 48 };

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(ORACLE_CASES))]

        /// The class search decides every causal block from the kernel
        /// table's direction records; its ranking and funnel must be the
        /// per-candidate oracle's, byte for byte, at every parallelism.
        #[test]
        fn class_search_matches_the_per_candidate_oracle(
            kernel in 0usize..6,
            extents in proptest::collection::vec(1usize..=4, 3),
            max_coeff in 1i64..=2,
            max_pes in 1usize..=64,
            keep in 1usize..=64,
        ) {
            let (f, rank) = match kernel {
                0 => (Functionality::matmul(extents[0], extents[1], extents[2]), 3),
                1 => (prefix_sum(2), 2),
                2 => (prefix_sum(3), 3),
                3 => (recurrence_along([1, 1, 0]), 3),
                4 => (recurrence_along([0, 1, 1]), 3),
                _ => (recurrence_along([1, 1, 1]), 3),
            };
            let bounds = Bounds::from_extents(&extents[..rank]);
            let opts = |parallelism| ExploreOptions {
                max_coeff,
                max_pes,
                keep,
                parallelism,
                ..ExploreOptions::default()
            };
            let (results, funnel) = per_candidate(&f, &bounds, &opts(1));
            let want = (format!("{results:?}"), format!("{funnel:?}"));
            for parallelism in [1usize, 2, 4] {
                let run = explore_dataflows_profiled(&f, &bounds, &opts(parallelism)).unwrap();
                let got = (format!("{:?}", run.results), format!("{:?}", run.funnel));
                proptest::prop_assert_eq!(&got, &want, "parallelism {}", parallelism);
            }
            // The scan without a table — the per-candidate closed form that
            // serves searches the table declines — must book the same.
            let (is, diffs, coeffs, total) = search_inputs(&f, &bounds, max_coeff).unwrap();
            let block = coeffs.len().pow((rank * rank - rank) as u32);
            let ctx = ScanCtx {
                func: &f,
                scorer: FoldScorer::new(&is, &f),
                analytic: AnalyticScorer::try_new(&is, &f),
                table: None,
                is,
                diffs,
                coeffs,
                block,
                max_pes,
                panic_on_code: None,
            };
            let (survivors, mut scanned) = scan_codes(&ctx, 0..total / block);
            scanned.materialized = funnel.materialized;
            proptest::prop_assert_eq!(format!("{scanned:?}"), want.1);
            let ranked = rank_results(survivors, keep, |(_, s)| structure_cost(s));
            let kept: Vec<_> = results.iter().map(ExploredDataflow::summary).collect();
            proptest::prop_assert_eq!(ranked.into_iter().map(|(_, s)| s).collect::<Vec<_>>(), kept);
        }
    }
}
