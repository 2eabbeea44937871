//! Allocation-free candidate scoring for the dataflow search, and the one
//! packed point fold.
//!
//! The search of [`crate::explore`] only needs a candidate's
//! [`StructureSummary`] — PE count, moving/stationary wire counts, IO port
//! count, and latency — yet the naive path materializes a full
//! [`SpatialArray`] per candidate: a fresh `Vec<i64>` per point from
//! [`SpaceTimeTransform::apply`], `HashSet<Vec<i64>>` collision sets, and
//! a rational matrix inverse per transform. This module is the compiler
//! mid-end analogue of the simulator's skip-ahead engine (PR 4): the
//! iteration space is flattened **once per explore** into a row-major
//! `i64` coordinate matrix plus flat connection/IO tables
//! ([`FoldScorer`]), and each candidate is then scored with integer dot
//! products into reusable per-worker buffers ([`FoldScratch`]) — zero
//! steady-state allocations.
//!
//! The loop that maps every lattice point through `T`, packs the
//! space-time image into a `u64` key (each component biased into an
//! unsigned field sized from the per-axis coordinate bounds), detects
//! collisions, assigns PE ids and tracks the time range lives here once,
//! as `PointScratch::fold`: generation-stamped open-addressing tables,
//! never a hashed `Vec<i64>`. [`FoldScorer::score_rows`] and
//! [`SpatialArray::from_iterspace`] are its two callers.
//!
//! When a fold cannot be packed into 64-bit keys (very wide coordinates
//! or huge spaces) the kernel reports `None` and callers fall back to the
//! hashed point mapping of [`crate::spacetime::reference`], which is
//! always correct. The scorer is proven key-equal to both
//! [`SpatialArray::from_iterspace`] and that reference by
//! `crates/core/tests/fold_equivalence.rs`.

use crate::error::CompileError;
use crate::func::Functionality;
use crate::iterspace::{IoDir, IterationSpace};
use crate::spacetime::SpatialArray;
use crate::transform::SpaceTimeTransform;

/// The structural fingerprint of a folded array — exactly the fields the
/// dataflow search ranks and deduplicates on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StructureSummary {
    /// PEs in the folded array.
    pub num_pes: usize,
    /// Inter-PE (moving) wires.
    pub moving_conns: usize,
    /// Stationary self-connections.
    pub stationary_conns: usize,
    /// Regfile ports required.
    pub io_ports: usize,
    /// Latency in time steps.
    pub time_steps: i64,
}

/// Derives the [`StructureSummary`] of a fully materialized array (the
/// slow-path equivalent of [`FoldScorer::score`]).
pub fn summarize_array(arr: &SpatialArray) -> StructureSummary {
    let moving = arr.conns().iter().filter(|c| !c.is_stationary()).count();
    StructureSummary {
        num_pes: arr.num_pes(),
        moving_conns: moving,
        stationary_conns: arr.conns().len() - moving,
        io_ports: arr.io_ports().len(),
        time_steps: arr.total_time_steps(),
    }
}

/// Per-stage candidate accounting for one dataflow search: how many of
/// the `(2·max_coeff+1)^(rank²)` enumerated codes each filter stage
/// consumed. Counters are plain `u64` adds on paths that already branch,
/// so the search's zero-steady-state-allocation property is untouched.
///
/// The stages form a partition, checked by [`ExploreFunnel::check`]:
///
/// * every decoded candidate lands in exactly one **terminal** bucket —
///   `causality_rejected + singular + collision_rejected + scored
///   == decoded`;
/// * every scored candidate lands in exactly one **outcome** bucket —
///   `over_max_pes + dedup_collisions + survivors == scored`.
///
/// `pack_fallback`, `analytic_scored`, and `analytic_rejected` are
/// informational (subsets of the partitioned buckets recording *which
/// tier* did the work — the full fold, the packed fast path, or the
/// closed-form analytical tier) and participate in neither sum; `check`
/// holds them to their subset relations instead. The `cache_hits` /
/// `cache_misses` / `coalesced` counters are likewise informational:
/// they account for the design-cache layer *around* the search (PR 10)
/// and stay zero on every uncached path, so funnel partitions remain
/// byte-identical whether a result was computed or served. Shard funnels merge by
/// field-wise addition; the parallel merge then demotes shard-local
/// survivors that lose global deduplication from `survivors` to
/// `dedup_collisions`, so the funnel of a parallel search is
/// byte-identical to the serial one.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExploreFunnel {
    /// Candidate codes decoded from the mixed-radix enumeration. Equals
    /// the full search-space size `(2·max_coeff+1)^(rank²)` after a
    /// complete sweep.
    pub decoded: u64,
    /// Rejected by the causality prefilter: some recurrence fails to move
    /// strictly forward in time (`Δt ≤ 0`).
    pub causality_rejected: u64,
    /// Rejected because the transform matrix is singular.
    pub singular: u64,
    /// Scored via the full `SpatialArray` fold because the packed-`u64`
    /// fast path could not represent the coordinates. Informational —
    /// these candidates still land in `collision_rejected`, `singular`,
    /// or `scored`.
    pub pack_fallback: u64,
    /// Candidates whose [`StructureSummary`] came from the closed-form
    /// analytical tier ([`crate::analytic::AnalyticScorer`]) instead of a
    /// lattice fold. Informational — a subset of `scored`.
    pub analytic_scored: u64,
    /// Analytically scored candidates rejected by the PE bound, i.e. the
    /// candidates the search disposed of without ever folding a lattice
    /// point. Informational — a subset of both `analytic_scored` and
    /// `over_max_pes`.
    pub analytic_rejected: u64,
    /// Rejected because two iteration points collide in space-time.
    pub collision_rejected: u64,
    /// Valid candidates that produced a structure summary.
    pub scored: u64,
    /// Scored candidates rejected by the [`ExploreOptions::max_pes`]
    /// bound.
    ///
    /// [`ExploreOptions::max_pes`]: crate::explore::ExploreOptions::max_pes
    pub over_max_pes: u64,
    /// Scored candidates whose structure key was already claimed by a
    /// lower-code candidate (local dedup plus parallel-merge demotions).
    pub dedup_collisions: u64,
    /// Distinct structures that survived deduplication.
    pub survivors: u64,
    /// Survivors actually kept after ranking and truncation to
    /// [`ExploreOptions::keep`] — the ones a caller would materialize.
    ///
    /// [`ExploreOptions::keep`]: crate::explore::ExploreOptions::keep
    pub materialized: u64,
    /// Queries answered from the design cache (memory or durable tier)
    /// without running the scan. Informational, set by the cache layer —
    /// the search itself always leaves it zero, and a cache hit carries
    /// the *original* computation's partition counters unchanged.
    pub cache_hits: u64,
    /// Queries that missed the design cache and ran the scan (the cache
    /// layer's accounting of this very computation). Informational.
    pub cache_misses: u64,
    /// Queries that piggybacked on an identical in-flight computation
    /// (single-flight coalescing) instead of scanning or reading a
    /// stored entry. Informational — coalesced queries also count as
    /// `cache_hits`.
    pub coalesced: u64,
}

impl ExploreFunnel {
    /// Every counter with its name, in declaration order — the one field
    /// table. [`ExploreFunnel::merge`], the design cache's on-disk funnel
    /// (every entry before the `cache_*` counters, in this order) and the
    /// profile JSON are all driven by it.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 15] {
        [
            ("decoded", &mut self.decoded),
            ("causality_rejected", &mut self.causality_rejected),
            ("singular", &mut self.singular),
            ("pack_fallback", &mut self.pack_fallback),
            ("analytic_scored", &mut self.analytic_scored),
            ("analytic_rejected", &mut self.analytic_rejected),
            ("collision_rejected", &mut self.collision_rejected),
            ("scored", &mut self.scored),
            ("over_max_pes", &mut self.over_max_pes),
            ("dedup_collisions", &mut self.dedup_collisions),
            ("survivors", &mut self.survivors),
            ("materialized", &mut self.materialized),
            ("cache_hits", &mut self.cache_hits),
            ("cache_misses", &mut self.cache_misses),
            ("coalesced", &mut self.coalesced),
        ]
    }

    /// [`ExploreFunnel::fields_mut`] by value.
    pub fn fields(&self) -> [(&'static str, u64); 15] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Field-wise accumulation (shard → global), saturating on overflow.
    pub fn merge(&mut self, o: &ExploreFunnel) {
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(o.fields()) {
            *mine = mine.saturating_add(theirs);
        }
    }

    /// Verifies the partition invariants, returning the first violated
    /// equation as `Err` (for test assertions and the profile sentinel).
    ///
    /// # Errors
    ///
    /// A static description of the violated invariant.
    pub fn check(&self) -> Result<(), &'static str> {
        let terminal = self
            .causality_rejected
            .saturating_add(self.singular)
            .saturating_add(self.collision_rejected)
            .saturating_add(self.scored);
        if terminal != self.decoded {
            return Err("terminal buckets do not sum to decoded");
        }
        let outcomes = self
            .over_max_pes
            .saturating_add(self.dedup_collisions)
            .saturating_add(self.survivors);
        if outcomes != self.scored {
            return Err("outcome buckets do not sum to scored");
        }
        if self.materialized > self.survivors {
            return Err("materialized exceeds survivors");
        }
        if self.analytic_scored > self.scored {
            return Err("analytic_scored exceeds scored");
        }
        if self.analytic_rejected > self.analytic_scored {
            return Err("analytic_rejected exceeds analytic_scored");
        }
        if self.analytic_rejected > self.over_max_pes {
            return Err("analytic_rejected exceeds over_max_pes");
        }
        if self.coalesced > self.cache_hits {
            return Err("coalesced exceeds cache_hits");
        }
        Ok(())
    }
}

/// A generation-stamped open-addressing `u64` set/map used as per-candidate
/// scratch: `begin` logically clears it in O(1) by bumping the generation,
/// so scoring millions of candidates never re-zeros memory.
#[derive(Clone, Debug)]
pub(crate) struct ScratchTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    gens: Vec<u32>,
    mask: usize,
    gen: u32,
}

impl ScratchTable {
    /// A table able to hold `n` entries at ≤ 50% load.
    pub(crate) fn with_capacity(n: usize) -> ScratchTable {
        let cap = (n.max(1) * 2).next_power_of_two().max(8);
        ScratchTable {
            keys: vec![0; cap],
            vals: vec![0; cap],
            gens: vec![0; cap],
            mask: cap - 1,
            gen: 0,
        }
    }

    /// Starts a fresh logical table (O(1) amortized).
    pub(crate) fn begin(&mut self) {
        if self.gen == u32::MAX {
            self.gens.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing spreads packed (low-entropy) keys well.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Inserts `key → val`; returns the existing value if the key was
    /// already present this generation (and leaves it unchanged).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, val: u32) -> Option<u32> {
        let mut slot = self.slot_of(key);
        loop {
            if self.gens[slot] != self.gen {
                self.gens[slot] = self.gen;
                self.keys[slot] = key;
                self.vals[slot] = val;
                return None;
            }
            if self.keys[slot] == key {
                return Some(self.vals[slot]);
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// The buffers and results of the one packed point fold, sized once per
/// iteration space and reused across candidates.
#[derive(Clone, Debug)]
pub(crate) struct PointScratch {
    st: Vec<i64>,
    offsets: Vec<i64>,
    widths: Vec<u32>,
    st_table: ScratchTable,
    pe_table: ScratchTable,
    /// After an `Ok` fold: each point's PE id, `0..num_pes` handed out in
    /// first-occurrence (point) order.
    pub(crate) point_pe: Vec<u32>,
    /// After an `Ok` fold: each point's time step.
    pub(crate) point_time: Vec<i64>,
    /// After an `Ok` fold: distinct spatial images, i.e. PEs.
    pub(crate) num_pes: usize,
    /// After an `Ok` fold: first and last time step (`(0, 0)` for an
    /// empty space).
    pub(crate) time_range: (i64, i64),
}

impl PointScratch {
    pub(crate) fn new(rank: usize, n_points: usize) -> PointScratch {
        PointScratch {
            st: vec![0; rank],
            offsets: vec![0; rank],
            widths: vec![0; rank],
            st_table: ScratchTable::with_capacity(n_points),
            pe_table: ScratchTable::with_capacity(n_points),
            point_pe: vec![0; n_points],
            point_time: vec![0; n_points],
            num_pes: 0,
            time_range: (0, 0),
        }
    }

    /// Computes the per-component packing layout for a candidate
    /// transform: `offsets[i]` biases component `i` into
    /// `0..=2*offsets[i]` and `widths[i]` is its bit width. Returns `None`
    /// when the packed key would not fit in 64 bits or when any bound
    /// overflows `i64` — which also certifies that every dot product the
    /// fold performs fits in `i64`.
    fn layout(&mut self, rows: &[i64], axis_abs: &[i64]) -> Option<()> {
        let rank = self.st.len();
        let mut total_bits = 0u32;
        for i in 0..rank {
            let mut bound: i64 = 0;
            for c in 0..rank {
                let term = rows[i * rank + c].checked_abs()?.checked_mul(axis_abs[c])?;
                bound = bound.checked_add(term)?;
            }
            let span = (bound as u64).checked_mul(2)?; // values live in 0..=span
            let bits = (64 - span.leading_zeros()).max(1);
            self.offsets[i] = bound;
            self.widths[i] = bits;
            total_bits += bits;
        }
        (total_bits <= 64).then_some(())
    }

    /// Folds every point through the flat row-major transform `rows`:
    /// packed space-time key for collision detection, packed spatial
    /// prefix for PE identity, time range on the side. `points` yields
    /// the `rank` coordinates of each of the space's points, in point
    /// order; `axis_abs` bounds `|coordinate|` per axis.
    ///
    /// `None` means the image does not pack into 64 bits (callers fall
    /// back to the hashed fold). A collision is reported at the first
    /// colliding point, with its space-time image.
    pub(crate) fn fold<'a>(
        &mut self,
        rows: &[i64],
        axis_abs: &[i64],
        points: impl Iterator<Item = &'a [i64]>,
    ) -> Option<Result<(), CompileError>> {
        let rank = self.st.len();
        debug_assert_eq!(rows.len(), rank * rank);
        self.layout(rows, axis_abs)?;
        let (st, offsets, widths) = (&mut self.st, &self.offsets, &self.widths);
        self.st_table.begin();
        self.pe_table.begin();
        let time_width = widths[rank - 1];
        let mut num_pes = 0u32;
        let mut tmin = i64::MAX;
        let mut tmax = i64::MIN;
        for (p, pc) in points.enumerate() {
            let mut key = 0u64;
            match rank {
                // Fully unrolled dot-product lanes for the common ranks.
                // The arithmetic is integer — exact and associative — so
                // unrolling is trivially result-identical to the generic
                // loop below; the match arm is loop-invariant, so LLVM
                // unswitches it out of the point loop.
                3 => {
                    let (x, y, z) = (pc[0], pc[1], pc[2]);
                    let s0 = rows[0] * x + rows[1] * y + rows[2] * z;
                    let s1 = rows[3] * x + rows[4] * y + rows[5] * z;
                    let s2 = rows[6] * x + rows[7] * y + rows[8] * z;
                    st[0] = s0;
                    st[1] = s1;
                    st[2] = s2;
                    key = (s0 + offsets[0]) as u64;
                    key = (key << widths[1]) | (s1 + offsets[1]) as u64;
                    key = (key << widths[2]) | (s2 + offsets[2]) as u64;
                }
                4 => {
                    let (x, y, z, w) = (pc[0], pc[1], pc[2], pc[3]);
                    let s0 = rows[0] * x + rows[1] * y + rows[2] * z + rows[3] * w;
                    let s1 = rows[4] * x + rows[5] * y + rows[6] * z + rows[7] * w;
                    let s2 = rows[8] * x + rows[9] * y + rows[10] * z + rows[11] * w;
                    let s3 = rows[12] * x + rows[13] * y + rows[14] * z + rows[15] * w;
                    st[0] = s0;
                    st[1] = s1;
                    st[2] = s2;
                    st[3] = s3;
                    key = (s0 + offsets[0]) as u64;
                    key = (key << widths[1]) | (s1 + offsets[1]) as u64;
                    key = (key << widths[2]) | (s2 + offsets[2]) as u64;
                    key = (key << widths[3]) | (s3 + offsets[3]) as u64;
                }
                _ => {
                    for i in 0..rank {
                        let mut acc = 0i64;
                        for (c, &coef) in rows[i * rank..(i + 1) * rank].iter().enumerate() {
                            acc += coef * pc[c];
                        }
                        st[i] = acc;
                        key = (key << widths[i]) | (acc + offsets[i]) as u64;
                    }
                }
            }
            if self.st_table.insert(key, 0).is_some() {
                return Some(Err(CompileError::SpaceTimeCollision { coord: st.clone() }));
            }
            let time = st[rank - 1];
            tmin = tmin.min(time);
            tmax = tmax.max(time);
            let pe = match self.pe_table.insert(key >> time_width, num_pes) {
                Some(existing) => existing,
                None => {
                    num_pes += 1;
                    num_pes - 1
                }
            };
            self.point_pe[p] = pe;
            self.point_time[p] = time;
        }
        self.num_pes = num_pes as usize;
        self.time_range = if tmin <= tmax { (tmin, tmax) } else { (0, 0) };
        Some(Ok(()))
    }
}

/// Per-worker reusable scratch for [`FoldScorer::score_rows`]: every
/// buffer is sized once from the scorer and reused across candidates, so
/// steady-state scoring performs no allocations.
#[derive(Clone, Debug)]
pub struct FoldScratch {
    points: PointScratch,
    diff_moving: Vec<bool>,
    conn_table: ScratchTable,
    io_table: ScratchTable,
}

impl FoldScratch {
    /// Scratch sized for one scorer.
    pub fn for_scorer(s: &FoldScorer) -> FoldScratch {
        FoldScratch {
            points: PointScratch::new(s.rank, s.n_points),
            diff_moving: vec![false; s.conn_diffs.len()],
            conn_table: ScratchTable::with_capacity(s.conn_var.len()),
            io_table: ScratchTable::with_capacity(s.io_point.len()),
        }
    }
}

/// One distinct recurrence difference vector, with a representative
/// variable name for causality errors.
#[derive(Clone, Debug)]
struct ConnDiff {
    var_name: String,
    diff: Vec<i64>,
}

/// The flattened, read-only image of an iteration space that candidate
/// scoring runs against: point coordinates as one row-major `i64` matrix,
/// connections and IO requests as parallel index arrays.
#[derive(Clone, Debug)]
pub struct FoldScorer {
    rank: usize,
    n_points: usize,
    /// Row-major `n_points × rank` point coordinates.
    coords: Vec<i64>,
    /// Per-axis bound on |coordinate|, for packed-key sizing.
    axis_abs: Vec<i64>,
    /// Distinct connection difference vectors, in first-occurrence order.
    conn_diffs: Vec<ConnDiff>,
    /// Per connection: carried variable, endpoints, and diff index.
    conn_var: Vec<u32>,
    conn_src: Vec<u32>,
    conn_dst: Vec<u32>,
    conn_diff_ix: Vec<u32>,
    /// Per IO connection: requesting point and `(tensor, dir)` group.
    io_point: Vec<u32>,
    io_group: Vec<u32>,
    /// Whether conn/io keys pack into `u64` (false forces the fallback).
    packable: bool,
}

impl FoldScorer {
    /// Flattens an iteration space (and its functionality) into the
    /// scorer's SoA form. Done once per explore; candidates then score
    /// against it allocation-free.
    pub fn new(is: &IterationSpace, func: &Functionality) -> FoldScorer {
        let rank = is.bounds().rank();
        let n_points = is.num_points();
        let mut coords = Vec::with_capacity(n_points * rank);
        for pid in 0..n_points {
            coords.extend_from_slice(is.point(crate::iterspace::PointId(pid)).coords());
        }
        let axis_abs: Vec<i64> = (0..rank).map(|d| is.bounds().abs_coord_bound(d)).collect();

        let mut conn_diffs: Vec<ConnDiff> = Vec::new();
        let mut conn_var = Vec::with_capacity(is.conns().len());
        let mut conn_src = Vec::with_capacity(is.conns().len());
        let mut conn_dst = Vec::with_capacity(is.conns().len());
        let mut conn_diff_ix = Vec::with_capacity(is.conns().len());
        for c in is.conns() {
            let ix = match conn_diffs.iter().position(|d| d.diff == c.diff) {
                Some(ix) => ix,
                None => {
                    conn_diffs.push(ConnDiff {
                        var_name: func.var_name(c.var).to_string(),
                        diff: c.diff.clone(),
                    });
                    conn_diffs.len() - 1
                }
            };
            conn_var.push(c.var.0 as u32);
            conn_src.push(c.src.0 as u32);
            conn_dst.push(c.dst.0 as u32);
            conn_diff_ix.push(ix as u32);
        }

        let mut io_point = Vec::with_capacity(is.io_conns().len());
        let mut io_group = Vec::with_capacity(is.io_conns().len());
        for io in is.io_conns() {
            io_point.push(io.point.0 as u32);
            io_group.push((io.tensor.0 * 2 + usize::from(io.dir == IoDir::Write)) as u32);
        }

        // Conn keys pack as ((var * P) + src_pe) * P + dst_pe and IO keys
        // as group * P + pe, with P = n_points (PE ids are < n_points).
        let p = n_points as u64;
        let n_vars = func.num_vars() as u64;
        let max_group = io_group.iter().max().copied().unwrap_or(0) as u64;
        let packable = n_points <= u32::MAX as usize
            && n_vars
                .max(1)
                .checked_mul(p.max(1))
                .and_then(|x| x.checked_mul(p.max(1)))
                .is_some()
            && (max_group + 1).checked_mul(p.max(1)).is_some();

        FoldScorer {
            rank,
            n_points,
            coords,
            axis_abs,
            conn_diffs,
            conn_var,
            conn_src,
            conn_dst,
            conn_diff_ix,
            io_point,
            io_group,
            packable,
        }
    }

    /// The iteration rank candidates must match.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Scores a candidate transform. `None` means the fold cannot be
    /// packed into 64-bit keys — fall back to
    /// [`SpatialArray::from_iterspace`].
    pub fn score(
        &self,
        t: &SpaceTimeTransform,
        scratch: &mut FoldScratch,
    ) -> Option<Result<StructureSummary, CompileError>> {
        assert_eq!(t.rank(), self.rank, "transform rank mismatch");
        self.score_rows(&t.flat_rows(), scratch)
    }

    /// Scores a candidate from its flat row-major matrix (which must be
    /// invertible — the search checks the determinant first). Mirrors
    /// [`SpatialArray::from_iterspace`] exactly: collisions are detected
    /// in point order, then causality in connection order; `Ok` summaries
    /// are key-equal to the materialized array's.
    pub fn score_rows(
        &self,
        rows: &[i64],
        scratch: &mut FoldScratch,
    ) -> Option<Result<StructureSummary, CompileError>> {
        let rank = self.rank;
        if !self.packable {
            return None;
        }
        let points = self.coords.chunks_exact(rank);
        if let Err(collision) = scratch.points.fold(rows, &self.axis_abs, points)? {
            return Some(Err(collision));
        }
        let point_pe = &scratch.points.point_pe;
        let (tmin, tmax) = scratch.points.time_range;

        // Causality per distinct difference vector (all connections
        // sharing a diff have the same Δt, so first-occurrence order is
        // connection order), caching the moving/stationary split.
        let image = |i: usize, diff: &[i64]| -> i64 {
            let row = &rows[i * rank..(i + 1) * rank];
            row.iter().zip(diff).map(|(a, b)| a * b).sum()
        };
        for (ix, cd) in self.conn_diffs.iter().enumerate() {
            if image(rank - 1, &cd.diff) < 0 {
                return Some(Err(CompileError::CausalityViolation {
                    var: cd.var_name.clone(),
                    delta: (0..rank).map(|i| image(i, &cd.diff)).collect(),
                }));
            }
            scratch.diff_moving[ix] = (0..rank - 1).any(|i| image(i, &cd.diff) != 0);
        }

        // Distinct physical wires: (var, src_pe, dst_pe) triples.
        scratch.conn_table.begin();
        let p = self.n_points as u64;
        let mut moving = 0usize;
        let mut stationary = 0usize;
        for j in 0..self.conn_var.len() {
            let src = point_pe[self.conn_src[j] as usize] as u64;
            let dst = point_pe[self.conn_dst[j] as usize] as u64;
            let key = (self.conn_var[j] as u64 * p + src) * p + dst;
            if scratch.conn_table.insert(key, 0).is_none() {
                if scratch.diff_moving[self.conn_diff_ix[j] as usize] {
                    moving += 1;
                } else {
                    stationary += 1;
                }
            }
        }

        // Distinct IO ports: (tensor, dir, pe) triples.
        scratch.io_table.begin();
        let mut io_ports = 0usize;
        for k in 0..self.io_point.len() {
            let pe = point_pe[self.io_point[k] as usize] as u64;
            let key = self.io_group[k] as u64 * p + pe;
            if scratch.io_table.insert(key, 0).is_none() {
                io_ports += 1;
            }
        }

        Some(Ok(StructureSummary {
            num_pes: scratch.points.num_pes,
            moving_conns: moving,
            stationary_conns: stationary,
            io_ports,
            time_steps: tmax - tmin + 1,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Bounds;
    use crate::spacetime::reference;

    fn matmul_scorer(n: usize) -> (Functionality, IterationSpace, FoldScorer) {
        let f = Functionality::matmul(n, n, n);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[n, n, n])).unwrap();
        let scorer = FoldScorer::new(&is, &f);
        (f, is, scorer)
    }

    #[test]
    fn scorer_matches_materialized_gallery() {
        let (f, is, scorer) = matmul_scorer(4);
        let mut scratch = FoldScratch::for_scorer(&scorer);
        for t in [
            SpaceTimeTransform::output_stationary(),
            SpaceTimeTransform::input_stationary(),
            SpaceTimeTransform::hexagonal(),
            SpaceTimeTransform::output_stationary()
                .with_time_scale(2)
                .unwrap(),
        ] {
            let got = scorer.score(&t, &mut scratch).expect("packable").unwrap();
            let arr = SpatialArray::from_iterspace(&is, &f, &t).unwrap();
            assert_eq!(got, summarize_array(&arr), "{t}");
        }
    }

    #[test]
    fn scorer_reports_causality_like_the_fold() {
        let (f, is, scorer) = matmul_scorer(2);
        let mut scratch = FoldScratch::for_scorer(&scorer);
        let t = SpaceTimeTransform::output_stationary()
            .with_time_row(&[1, 1, -1])
            .unwrap();
        let got = scorer.score(&t, &mut scratch).expect("packable");
        let want = reference::from_iterspace(&is, &f, &t).map(|a| summarize_array(&a));
        assert_eq!(got, want);
        assert!(matches!(got, Err(CompileError::CausalityViolation { .. })));
    }

    #[test]
    fn scratch_tables_survive_many_generations() {
        let mut t = ScratchTable::with_capacity(4);
        for round in 0..10_000u64 {
            t.begin();
            assert_eq!(t.insert(round, 7), None);
            assert_eq!(t.insert(round, 9), Some(7));
            // Keys from earlier generations are gone.
            assert_eq!(t.insert(round.wrapping_sub(1), 1), None);
        }
    }
}
