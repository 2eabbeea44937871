//! Closed-form analytical scoring tier for the dataflow search.
//!
//! The [`FoldScorer`](crate::fold::FoldScorer) fast path still *folds*
//! every lattice point to score a candidate — O(points) integer dot
//! products per transform. But for the iteration spaces the search
//! actually runs on (a full rectangular bounds box, one recurrence
//! difference per variable, box-shaped IO access sets — exactly what
//! [`IterationSpace::elaborate`] produces), every field of the
//! [`StructureSummary`] has a closed form in the transform matrix alone:
//!
//! * An invertible integer transform is injective on `Z^rank`, so a
//!   space-time collision over distinct box points is impossible — no
//!   per-point collision scan is needed.
//! * The spatial rows `S` (the first `rank − 1` rows) have a rank-1
//!   integer kernel. Its generator is the *signed* cofactor vector
//!   `cⱼ = (−1)^(rank−1+j) · det(S without column j)` (at rank 3, the
//!   cross product of the two space rows), so `det [S; t] = t · c` for
//!   every time row `t`, and `S · c = 0`. Divided by its gcd it is the
//!   primitive direction `v`: `S·x = S·y ⇔ x − y ∈ Z·v`. Two points share
//!   a PE exactly when they lie on the same `v`-line, and an
//!   axis-aligned box is `v`-convex, so **the number of PEs is the number
//!   of `v`-lines meeting the box**:
//!   `lines(e, v) = Πᵢ eᵢ − Πᵢ max(0, eᵢ − |vᵢ|)` for box extents `e`
//!   (each line meets the box in a contiguous run; the formula counts the
//!   run heads, the points `p` with `p − v` outside the box).
//! * A variable's connections all share one difference `d`; the source
//!   points fill the box `B ∩ (B − d)` with extents
//!   `mᵢ = max(0, eᵢ − |dᵢ|)`. Sources on one `v`-line have destinations
//!   on one `v`-line too (`dst = src + d`), so **distinct wires per
//!   variable = lines(m, v)**, all stationary when **`d ∥ v`** (then
//!   `S·d = 0`: every wire stays in its PE) and all moving otherwise.
//!   `lines` reads only `|vᵢ|`, but the stationarity rule needs the sign:
//!   `(1, 1, 0)` and `(1, −1, 0)` cut a box into the same number of
//!   lines, and only the first is parallel to `d = (1, 1, 0)`.
//! * Each `(tensor, direction)` IO group's distinct request points fill a
//!   sub-box `F`, so **its distinct ports = lines(extents(F), v)**.
//! * The time row `t` is separable over the box:
//!   `time_steps = Σᵢ max(tᵢ·loᵢ, tᵢ·(hiᵢ−1)) − Σᵢ min(...) + 1`.
//!
//! The closed form therefore splits by what it depends on:
//! [`AnalyticScorer::kernel_counts`] reads the space rows only through
//! `v` (PEs, moving and stationary wires, IO ports), and
//! [`AnalyticScorer::time_steps`] reads only the time row. Since `v` is
//! unchanged by any unimodular re-mix `U·S` of the space rows, so is the
//! summary, and a search needs `kernel_counts` once per kernel direction,
//! not once per candidate: [`KernelTable`] records every direction one
//! time-row block meets — 3,217 directions in 7 distinct count records
//! for the 7⁹ sweep over a 3×3×3 box. [`AnalyticScorer::score_rows`],
//! their composition per candidate, is the tests' oracle for the table.
//!
//! [`AnalyticScorer::try_new`] verifies the geometric preconditions
//! *exactly once per search* (bit vectors over the elaborated points,
//! connections, and IO requests); if any fails it returns `None` and the
//! search scores every candidate through the fold. The closed form
//! declines (fall back to the fold) on any arithmetic overflow or
//! causality violation, so it never has to reproduce the fold's error
//! values: a summary it does produce is byte-identical to the fold's,
//! which `crates/core/tests/fold_equivalence.rs` proves by proptest, and
//! the search re-folds every ranked survivor as an oracle backstop
//! ([`CompileError::AnalyticDivergence`] if the tiers ever disagree).
//!
//! [`IterationSpace::elaborate`]: crate::iterspace::IterationSpace::elaborate
//! [`CompileError::AnalyticDivergence`]: crate::error::CompileError::AnalyticDivergence

use std::collections::btree_map::{BTreeMap, Entry};

use stellar_linalg::bareiss_det;

use crate::fold::StructureSummary;
use crate::func::Functionality;
use crate::iterspace::{IoDir, IterationSpace, PointId};

/// Largest cofactor box, in points, a [`KernelTable`] build indexes (its
/// `u16` slots over the half box then take at most 2 MiB). The smallest
/// search it excludes is rank 3 at `max_coeff = 6`, `13⁹ ≈ 1.1·10¹⁰`
/// candidates; every other excluded search is larger still.
const TABLE_BOX_BUDGET: usize = 1 << 21;

/// One per-variable connection class: the shared recurrence difference
/// and the extents of the source sub-box `B ∩ (B − d)`.
#[derive(Clone, Debug)]
struct ConnGroup {
    diff: Vec<i64>,
    src_extents: Vec<i64>,
}

/// One `(tensor, direction)` IO group: the extents of the sub-box its
/// distinct request points fill.
#[derive(Clone, Debug)]
struct IoGroup {
    extents: Vec<i64>,
}

/// Reusable per-worker scratch for [`AnalyticScorer::score_rows`] and
/// [`AnalyticScratch::cofactors`]: the minor buffers for ranks other
/// than 3 and the cofactor vector itself.
#[derive(Clone, Debug)]
pub struct AnalyticScratch {
    minor: Vec<i64>,
    det: Vec<i128>,
    v: Vec<i64>,
}

impl AnalyticScratch {
    /// Scratch for matrices of the given rank.
    pub(crate) fn new(rank: usize) -> AnalyticScratch {
        let m = rank.saturating_sub(1);
        AnalyticScratch {
            minor: vec![0; m * m],
            det: vec![0; m * m],
            v: vec![0; rank],
        }
    }

    /// Scratch sized for one scorer.
    pub fn for_scorer(s: &AnalyticScorer) -> AnalyticScratch {
        AnalyticScratch::new(s.rank)
    }

    /// The signed cofactor vector `c` of the `rank − 1` space rows (flat,
    /// row-major): `cⱼ = (−1)^(rank−1+j) · det(S without column j)`, so
    /// `det [S; t] = t · c` for every time row `t`. Exact while the space
    /// rows' entries `b` satisfy `(rank−1)! · b^(rank−1) ≤ i64::MAX`;
    /// callers certify that first (beyond it the result is unspecified).
    /// The vector is the scratch's own, free to be reduced in place.
    #[inline]
    pub fn cofactors(&mut self, space: &[i64]) -> &mut [i64] {
        let r = self.v.len();
        debug_assert_eq!(space.len(), r * (r - 1));
        match r {
            3 => {
                let (a, b) = (&space[..3], &space[3..6]);
                self.v[0] = a[1] * b[2] - a[2] * b[1];
                self.v[1] = a[2] * b[0] - a[0] * b[2];
                self.v[2] = a[0] * b[1] - a[1] * b[0];
            }
            _ => {
                let n = r - 1;
                for col in 0..r {
                    for (i, row) in space.chunks_exact(r).enumerate() {
                        let slot = &mut self.minor[i * n..(i + 1) * n];
                        let kept = row.iter().enumerate().filter(|&(j, _)| j != col);
                        for (m, (_, &e)) in slot.iter_mut().zip(kept) {
                            *m = e;
                        }
                    }
                    let m = bareiss_det(&self.minor, n, &mut self.det).unwrap_or(0);
                    self.v[col] = if (n + col).is_multiple_of(2) { m } else { -m };
                }
            }
        }
        &mut self.v
    }
}

/// The space-row-only part of a [`StructureSummary`]: what
/// [`AnalyticScorer::kernel_counts`] derives from the kernel direction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KernelCounts {
    /// PEs in the folded array.
    pub num_pes: usize,
    /// Inter-PE (moving) wires.
    pub moving_conns: usize,
    /// Stationary self-connections.
    pub stationary_conns: usize,
    /// Regfile ports required.
    pub io_ports: usize,
}

impl KernelCounts {
    /// The full summary once the time row's latency is known.
    #[inline]
    pub fn with_time_steps(self, time_steps: i64) -> StructureSummary {
        StructureSummary {
            num_pes: self.num_pes,
            moving_conns: self.moving_conns,
            stationary_conns: self.stationary_conns,
            io_ports: self.io_ports,
            time_steps,
        }
    }
}

/// The closed-form analytical tier: verified box geometry of one
/// iteration space, against which candidate transforms are scored in
/// O(rank³ + groups) without touching a single lattice point.
#[derive(Clone, Debug)]
pub struct AnalyticScorer {
    rank: usize,
    n_points: usize,
    extents: Vec<i64>,
    lo: Vec<i64>,
    hi1: Vec<i64>,
    conn_groups: Vec<ConnGroup>,
    io_groups: Vec<IoGroup>,
}

/// Number of lattice lines of direction `v` meeting a box with the given
/// extents (see the module docs). `None` on overflow.
fn lines(extents: &[i64], v: &[i64]) -> Option<usize> {
    let mut all: u128 = 1;
    let mut interior: u128 = 1;
    for (&e, &vi) in extents.iter().zip(v) {
        if e <= 0 {
            return Some(0);
        }
        let e = e as u128;
        all = all.checked_mul(e)?;
        interior = interior.checked_mul(e - (vi.unsigned_abs() as u128).min(e))?;
    }
    usize::try_from(all - interior).ok()
}

/// Points in a box with the given (non-negative) extents. `None` on overflow.
fn volume(extents: &[i64]) -> Option<usize> {
    extents
        .iter()
        .try_fold(1usize, |a, &e| a.checked_mul(e as usize))
}

/// Checked dot product of two `i64` slices.
fn dot(a: &[i64], b: &[i64]) -> Option<i64> {
    let mut acc = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        acc = acc.checked_add(x.checked_mul(y)?)?;
    }
    Some(acc)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `d ∥ v` (the zero vector is parallel to everything): every 2×2 minor
/// of `[d; v]` vanishes.
fn parallel(d: &[i64], v: &[i64]) -> bool {
    let r = d.len();
    (0..r).all(|i| (i + 1..r).all(|j| d[i] as i128 * v[j] as i128 == d[j] as i128 * v[i] as i128))
}

/// The cofactor magnitude bound `(rank−1)! · b^(rank−1)` for space-row
/// entries of magnitude at most `b`, or `None` when it leaves `i64`.
fn cofactor_bound(rank: usize, b: u64) -> Option<i64> {
    let b = i64::try_from(b).ok()?;
    (1..rank as i64).try_fold(1i64, |k, f| k.checked_mul(f)?.checked_mul(b))
}

/// The cofactor bound `K` of a search whose entries lie in
/// `−max_coeff..=max_coeff`, when its determinants `t · c`, at most
/// `rank · max_coeff · K` in magnitude, are exact in `i64` too.
pub(crate) fn search_cofactor_bound(rank: usize, max_coeff: i64) -> Option<i64> {
    let k = cofactor_bound(rank, u64::try_from(max_coeff).ok()?)?;
    (rank as i64).checked_mul(max_coeff)?.checked_mul(k)?;
    Some(k)
}

/// Divides a vector by the gcd of its entries in place, leaving its
/// primitive direction. Returns `false` (leaving `v` untouched) for the
/// zero vector.
pub(crate) fn make_primitive(v: &mut [i64]) -> bool {
    let g = v.iter().fold(0u64, |acc, &x| gcd(acc, x.unsigned_abs()));
    if g == 0 {
        return false;
    }
    for x in v.iter_mut() {
        *x /= g as i64;
    }
    true
}

/// Advances a mixed-radix odometer whose digits run `−max..=max`, least
/// significant first — the search's candidate encoding, with no `/` or
/// `%`. Returns `false` when it wraps back to all `−max`.
#[inline]
pub(crate) fn odometer_step(digits: &mut [i64], max: i64) -> bool {
    for d in digits {
        if *d < max {
            *d += 1;
            return true;
        }
        *d = -max;
    }
    false
}

impl AnalyticScorer {
    /// Verifies the iteration space has the box geometry the closed forms
    /// require, returning `None` (score everything through the fold) on
    /// any deviation:
    ///
    /// * the elaborated points are exactly the bounds box;
    /// * each variable's connections share one difference vector and
    ///   their endpoints exactly fill `B ∩ (B − d)`;
    /// * each `(tensor, direction)` IO group's distinct request points
    ///   exactly fill an axis-aligned sub-box.
    ///
    /// Runs once per search, in O(points · rank + conns · rank + io).
    pub fn try_new(is: &IterationSpace, func: &Functionality) -> Option<AnalyticScorer> {
        let bounds = is.bounds();
        let rank = bounds.rank();
        if rank == 0 {
            return None;
        }
        let n_points = is.num_points();
        if n_points == 0 || n_points != bounds.num_points() {
            return None;
        }
        let lo: Vec<i64> = (0..rank)
            .map(|d| bounds.lo(crate::index::IndexId(d)))
            .collect();
        let hi1: Vec<i64> = (0..rank)
            .map(|d| bounds.hi(crate::index::IndexId(d)) - 1)
            .collect();
        let extents: Vec<i64> = (0..rank).map(|d| hi1[d] - lo[d] + 1).collect();

        // Row-major strides for mapping a coordinate to its box position.
        let mut strides = vec![1usize; rank];
        for d in (0..rank - 1).rev() {
            strides[d] = strides[d + 1] * extents[d + 1] as usize;
        }
        let box_pos = |coords: &[i64]| -> Option<usize> {
            let mut pos = 0usize;
            for d in 0..rank {
                let c = coords[d];
                if c < lo[d] || c > hi1[d] {
                    return None;
                }
                pos += (c - lo[d]) as usize * strides[d];
            }
            Some(pos)
        };

        // The elaborated points must be exactly the box (distinct,
        // in-bounds, and as many as the box holds).
        let mut seen = vec![false; n_points];
        for pid in 0..n_points {
            let pos = box_pos(is.point(PointId(pid)).coords())?;
            if seen[pos] {
                return None;
            }
            seen[pos] = true;
        }

        // Connection classes: one per variable, uniform difference, with
        // destinations exactly filling the shifted sub-box B ∩ (B + d).
        let mut var_group: Vec<Option<usize>> = vec![None; func.num_vars()];
        let mut conn_groups: Vec<ConnGroup> = Vec::new();
        let mut group_dsts: Vec<Vec<bool>> = Vec::new();
        for c in is.conns() {
            let gix = match var_group.get(c.var.0).copied().flatten() {
                Some(gix) => {
                    if conn_groups[gix].diff != c.diff {
                        return None;
                    }
                    gix
                }
                None => {
                    let src_extents = (0..rank)
                        .map(|d| (extents[d] - c.diff[d].abs()).max(0))
                        .collect();
                    conn_groups.push(ConnGroup {
                        diff: c.diff.clone(),
                        src_extents,
                    });
                    group_dsts.push(vec![false; n_points]);
                    *var_group.get_mut(c.var.0)? = Some(conn_groups.len() - 1);
                    conn_groups.len() - 1
                }
            };
            let src = is.point(c.src).coords();
            let dst = is.point(c.dst).coords();
            for d in 0..rank {
                if dst[d] - src[d] != conn_groups[gix].diff[d] {
                    return None;
                }
            }
            group_dsts[gix][box_pos(dst)?] = true;
        }
        for (g, dsts) in conn_groups.iter().zip(&group_dsts) {
            // Every destination must lie in the shifted sub-box, and the
            // distinct count must fill it — together: set equality.
            let volume = volume(&g.src_extents)?;
            let mut count = 0usize;
            for (pos, &hit) in dsts.iter().enumerate() {
                if !hit {
                    continue;
                }
                let mut rem = pos;
                for d in 0..rank {
                    let c = lo[d] + (rem / strides[d]) as i64;
                    rem %= strides[d];
                    let dlo = lo[d] + g.diff[d].max(0);
                    let dhi = hi1[d] + g.diff[d].min(0);
                    if c < dlo || c > dhi {
                        return None;
                    }
                }
                count += 1;
            }
            if count != volume {
                return None;
            }
        }

        // IO groups: distinct request points per (tensor, direction) must
        // exactly fill their bounding box.
        let n_io_groups = func.num_tensors() * 2;
        let mut io_points: Vec<Vec<bool>> = vec![Vec::new(); n_io_groups];
        for io in is.io_conns() {
            let gix = io.tensor.0 * 2 + usize::from(io.dir == IoDir::Write);
            let slot = io_points.get_mut(gix)?;
            if slot.is_empty() {
                slot.resize(n_points, false);
            }
            slot[io.point.0] = true;
        }
        let mut io_groups: Vec<IoGroup> = Vec::new();
        for marked in &io_points {
            if marked.is_empty() {
                continue;
            }
            let mut bmin = vec![i64::MAX; rank];
            let mut bmax = vec![i64::MIN; rank];
            let mut count = 0usize;
            for (pid, &hit) in marked.iter().enumerate() {
                if !hit {
                    continue;
                }
                count += 1;
                let coords = is.point(PointId(pid)).coords();
                for d in 0..rank {
                    bmin[d] = bmin[d].min(coords[d]);
                    bmax[d] = bmax[d].max(coords[d]);
                }
            }
            if count == 0 {
                continue;
            }
            let extents: Vec<i64> = (0..rank).map(|d| bmax[d] - bmin[d] + 1).collect();
            if count != volume(&extents)? {
                return None;
            }
            io_groups.push(IoGroup { extents });
        }

        Some(AnalyticScorer {
            rank,
            n_points,
            extents,
            lo,
            hi1,
            conn_groups,
            io_groups,
        })
    }

    /// The iteration rank candidates must match.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Scores an invertible candidate from its flat row-major matrix: the
    /// exact [`StructureSummary`] the fold would produce, or `None` if a
    /// closed form does not apply (a causality violation, entries too
    /// large for exact cofactors, or arithmetic overflow). The composition
    /// of [`AnalyticScorer::kernel_counts`] on the primitive kernel
    /// direction of the space rows and [`AnalyticScorer::time_steps`] on
    /// the time row, step by step — the oracle the tests hold the search's
    /// table lookups to.
    pub fn score_rows(
        &self,
        rows: &[i64],
        scratch: &mut AnalyticScratch,
    ) -> Option<StructureSummary> {
        let r = self.rank;
        debug_assert_eq!(rows.len(), r * r);
        let (space, trow) = rows.split_at(r * (r - 1));
        // Certify exact cofactors before taking them.
        cofactor_bound(r, space.iter().map(|e| e.unsigned_abs()).max().unwrap_or(0))?;
        scratch.cofactors(space);
        if !make_primitive(&mut scratch.v) {
            // The spatial rows are rank-deficient, which contradicts an
            // invertible transform — the caller broke the contract; let
            // the fold sort it out.
            return None;
        }
        Some(
            self.kernel_counts(&scratch.v)?
                .with_time_steps(self.time_steps(trow)?),
        )
    }

    /// The space-row part of the closed form for a nonzero integer kernel
    /// direction `v` of the space rows: PEs, moving and stationary wires
    /// (stationary iff the recurrence difference is parallel to `v`), and
    /// IO ports. `v` must be primitive (gcd 1) for the counts to be the
    /// fold's; its overall sign does not matter. `None` on overflow.
    pub fn kernel_counts(&self, v: &[i64]) -> Option<KernelCounts> {
        let num_pes = lines(&self.extents, v)?;
        let mut moving_conns = 0usize;
        let mut stationary_conns = 0usize;
        for g in &self.conn_groups {
            let wires = lines(&g.src_extents, v)?;
            if parallel(&g.diff, v) {
                stationary_conns = stationary_conns.checked_add(wires)?;
            } else {
                moving_conns = moving_conns.checked_add(wires)?;
            }
        }
        let mut io_ports = 0usize;
        for g in &self.io_groups {
            io_ports = io_ports.checked_add(lines(&g.extents, v)?)?;
        }
        Some(KernelCounts {
            num_pes,
            moving_conns,
            stationary_conns,
            io_ports,
        })
    }

    /// The time-row part of the closed form: the latency of the separable
    /// time range over the box. `None` on overflow, and when some
    /// recurrence runs backwards in time (`t · d < 0`) — causality errors
    /// are the fold's to attribute.
    pub fn time_steps(&self, trow: &[i64]) -> Option<i64> {
        for g in &self.conn_groups {
            if dot(trow, &g.diff)? < 0 {
                return None;
            }
        }
        let mut tmin = 0i64;
        let mut tmax = 0i64;
        for ((&t, &lo), &hi1) in trow.iter().zip(&self.lo).zip(&self.hi1) {
            let a = t.checked_mul(lo)?;
            let z = t.checked_mul(hi1)?;
            tmin = tmin.checked_add(a.min(z))?;
            tmax = tmax.checked_add(a.max(z))?;
        }
        tmax.checked_sub(tmin)?.checked_add(1)
    }

    /// Builds the [`KernelTable`] for a search whose candidate entries lie
    /// in `−max_coeff..=max_coeff` by one walk over the
    /// `(2·max_coeff+1)^(rank·(rank−1))` space-row tuples of a time-row
    /// block, in code order, filing each under its direction through a
    /// transient `u16` index over the lower half of the cofactor box
    /// `[−K, K]^rank`, `K = (rank−1)! · max_coeff^(rank−1)` (`c` and `−c`
    /// share a slot). `None` when such cofactors are not certified exact in
    /// `i64`, the box exceeds 2²¹ points, a class's closed form overflows,
    /// or past 65,535 directions or a direction entry beyond ±127.
    pub fn kernel_table(&self, max_coeff: i64) -> Option<KernelTable> {
        let r = self.rank;
        // Rank 5 exceeds the box budget even at `max_coeff = 1`.
        let k = search_cofactor_bound(r, max_coeff).filter(|_| r <= 4)?;
        let side = usize::try_from(k).ok()?.checked_mul(2)?.checked_add(1)?;
        let last = side
            .checked_pow(r as u32)
            .filter(|&n| n <= TABLE_BOX_BUDGET)?
            - 1;
        // Slot → index into `dirs`, for the walk only.
        let mut dir_of = vec![NONE; last / 2 + 1];
        let mut table = KernelTable {
            k: k.unsigned_abs(),
            dirs: Vec::new(),
            classes: Vec::new(),
        };
        // One class id per distinct counts record.
        let mut ids: BTreeMap<KernelCounts, u16> = BTreeMap::new();
        let mut scratch = AnalyticScratch::new(r);
        let mut space = vec![-max_coeff; r * (r - 1)];
        let slot = |c: &[i64]| {
            let p = c.iter().fold(0, |p, &x| p * side + (x + k) as usize);
            p.min(last - p)
        };
        for code in 0u32.. {
            let c = scratch.cofactors(&space);
            let raw = slot(c);
            if dir_of[raw] == NONE {
                // A new raw vector joins its primitive direction, whose
                // record the direction's own slot indexes. The zero vector
                // (singular space rows) is its own direction, with no class.
                let nonzero = make_primitive(c);
                let home = slot(c);
                if dir_of[home] == NONE {
                    dir_of[home] = u16::try_from(table.dirs.len())
                        .ok()
                        .filter(|&n| n != NONE)?;
                    let class = if nonzero {
                        match ids.entry(self.kernel_counts(c)?) {
                            Entry::Occupied(id) => *id.get(),
                            Entry::Vacant(id) => {
                                table.classes.push(*id.key());
                                let next = u16::try_from(table.classes.len() - 1).ok();
                                *id.insert(next.filter(|&n| n != NONE)?)
                            }
                        }
                    } else {
                        NONE
                    };
                    let mut v = [0i8; 4];
                    for (x, &y) in v.iter_mut().zip(c.iter()) {
                        *x = i8::try_from(y).ok()?;
                    }
                    table.dirs.push(Direction {
                        v,
                        first: code,
                        tuples: 0,
                        class,
                    });
                }
                dir_of[raw] = dir_of[home];
            }
            table.dirs[usize::from(dir_of[raw])].tuples += 1;
            if !odometer_step(&mut space, max_coeff) {
                break;
            }
        }
        Some(table)
    }

    /// The peak utilization bound of a scored structure: active lattice
    /// points over the `PEs × time` envelope the transform unfolds them
    /// into. Always in `[0, 1]` — the transform maps the `n_points`
    /// distinct iterations injectively into that envelope.
    pub fn utilization_bound(&self, s: &StructureSummary) -> f64 {
        let envelope = s.num_pes as f64 * s.time_steps as f64;
        if envelope <= 0.0 {
            0.0
        } else {
            (self.n_points as f64 / envelope).min(1.0)
        }
    }
}

/// No direction yet (in the build's index), or no class (`v = 0`).
const NONE: u16 = u16::MAX;

/// One primitive kernel direction `v` of a [`KernelTable`], up to sign:
/// the space-row tuples whose raw cofactor vector is a nonzero multiple
/// of `v` (for `v = 0`, the singular ones). Time row `t` makes them all
/// singular iff `t · v = 0`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Direction {
    /// The first tuple's cofactor vector made primitive, zero past the rank.
    pub(crate) v: [i8; 4],
    /// The lowest space code with this direction.
    pub(crate) first: u32,
    /// How many space-row tuples have this direction.
    pub(crate) tuples: u32,
    /// The direction's kernel class; [`NONE`] for `v = 0`.
    pub(crate) class: u16,
}

/// The per-search kernel-class table ([`AnalyticScorer::kernel_table`]).
/// A class is one distinct [`KernelCounts`] record: the kernel directions
/// the box cannot tell apart. Inside a time-row block a candidate's fate
/// depends only on its kernel direction and the time row, so the table
/// keeps one record per direction, in code order, and the search decides
/// each block from these alone. A block of the 7⁹ sweep over a 3×3×3 box
/// has 3,217 nonzero directions in 7 classes: 3,218 records of 16 bytes.
#[derive(Clone, Debug)]
pub struct KernelTable {
    /// The cofactor bound `K` of the table's search.
    k: u64,
    /// The directions, in order of their lowest space code.
    pub(crate) dirs: Vec<Direction>,
    /// Counts per class.
    pub(crate) classes: Vec<KernelCounts>,
}

impl KernelTable {
    /// The dense class id and counts of a raw cofactor vector
    /// ([`AnalyticScratch::cofactors`]) by a scan of the records; `None`
    /// when the vector is zero, outside the cofactor box, or of a direction
    /// no space-row tuple of the table's search has.
    pub fn lookup(&self, cof: &[i64]) -> Option<(usize, KernelCounts)> {
        if cof.iter().all(|&x| x == 0) || cof.iter().any(|x| x.unsigned_abs() > self.k) {
            return None;
        }
        let dir = |d: &&Direction| d.class != NONE && parallel(cof, &d.v.map(i64::from));
        let class = usize::from(self.dirs.iter().find(dir)?.class);
        Some((class, self.classes[class]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::{FoldScorer, FoldScratch};
    use crate::index::Bounds;
    use crate::transform::SpaceTimeTransform;

    fn matmul_space(n: usize) -> (Functionality, IterationSpace) {
        let f = Functionality::matmul(n, n, n);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[n, n, n])).unwrap();
        (f, is)
    }

    #[test]
    fn analytic_applies_to_elaborated_matmul() {
        let (f, is) = matmul_space(4);
        let a = AnalyticScorer::try_new(&is, &f).expect("matmul geometry is all boxes");
        assert_eq!(a.rank(), 3);
        assert_eq!(a.conn_groups.len(), 3);
        assert_eq!(a.io_groups.len(), 3);
    }

    #[test]
    fn gallery_matches_the_fold_exactly() {
        let (f, is) = matmul_space(4);
        let a = AnalyticScorer::try_new(&is, &f).unwrap();
        let fold = FoldScorer::new(&is, &f);
        let mut ascratch = AnalyticScratch::for_scorer(&a);
        let mut fscratch = FoldScratch::for_scorer(&fold);
        for t in [
            SpaceTimeTransform::output_stationary(),
            SpaceTimeTransform::input_stationary(),
            SpaceTimeTransform::hexagonal(),
            SpaceTimeTransform::output_stationary()
                .with_time_scale(2)
                .unwrap(),
        ] {
            let rows = t.flat_rows();
            let got = a.score_rows(&rows, &mut ascratch).expect("scorable");
            let want = fold
                .score_rows(&rows, &mut fscratch)
                .expect("packable")
                .expect("valid");
            assert_eq!(got, want, "{t}");
        }
    }

    #[test]
    fn causality_violations_defer_to_the_fold() {
        let (f, is) = matmul_space(3);
        let a = AnalyticScorer::try_new(&is, &f).unwrap();
        let mut s = AnalyticScratch::for_scorer(&a);
        let t = SpaceTimeTransform::output_stationary()
            .with_time_row(&[1, 1, -1])
            .unwrap();
        assert_eq!(a.score_rows(&t.flat_rows(), &mut s), None);
    }

    #[test]
    fn oversized_entries_defer_to_the_fold() {
        let (f, is) = matmul_space(3);
        let a = AnalyticScorer::try_new(&is, &f).unwrap();
        let mut s = AnalyticScratch::for_scorer(&a);
        // Entries large enough that the cofactor bound cannot be
        // certified: the tier must refuse rather than risk overflow.
        let huge = 1i64 << 62;
        let rows = vec![huge, 0, 0, 0, huge, 0, 0, 0, 1];
        assert_eq!(a.score_rows(&rows, &mut s), None);
    }

    #[test]
    fn utilization_bound_is_points_over_envelope() {
        let (f, is) = matmul_space(4);
        let a = AnalyticScorer::try_new(&is, &f).unwrap();
        let mut s = AnalyticScratch::for_scorer(&a);
        let t = SpaceTimeTransform::output_stationary();
        let summary = a.score_rows(&t.flat_rows(), &mut s).unwrap();
        let u = a.utilization_bound(&summary);
        let want = 64.0 / (summary.num_pes as f64 * summary.time_steps as f64);
        assert!((u - want).abs() < 1e-12, "got {u}, want {want}");
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn cofactors_expand_the_determinant() {
        // det [S; t] = t · c at every rank, through each cofactor arm.
        for rank in 1..=5usize {
            let mut s = AnalyticScratch::new(rank);
            let mut buf = vec![0i128; rank * rank];
            for seed in 0..50i64 {
                let rows: Vec<i64> = (0..rank as i64 * rank as i64)
                    .map(|i| (i * 7 + seed * 13 + i * i * seed) % 7 - 3)
                    .collect();
                let (space, t) = rows.split_at(rank * (rank - 1));
                let c = s.cofactors(space);
                let expanded: i64 = t.iter().zip(c.iter()).map(|(a, b)| a * b).sum();
                assert_eq!(
                    Some(expanded),
                    bareiss_det(&rows, rank, &mut buf),
                    "{rows:?}"
                );
            }
        }
    }

    #[test]
    fn kernel_table_of_the_7_9_sweep() {
        let (f, is) = matmul_space(3);
        let a = AnalyticScorer::try_new(&is, &f).unwrap();
        let t = a.kernel_table(3).expect("max_coeff 3 fits the budget");
        // 3,217 nonzero directions up to sign, which the 3×3×3 box tells
        // into 7 count records, plus the zero direction.
        assert_eq!(t.dirs.len(), 3_218);
        assert_eq!(t.classes.len(), 7);
        // The records cover one block's 7⁶ space tuples, in code order,
        // and each direction is its first tuple's made primitive.
        let tuples: u64 = t.dirs.iter().map(|d| u64::from(d.tuples)).sum();
        assert_eq!(tuples, 7u64.pow(6));
        assert!(t.dirs.windows(2).all(|w| w[0].first < w[1].first));
        let mut s = AnalyticScratch::for_scorer(&a);
        let mut space = [0i64; 6];
        for d in &t.dirs {
            let mut rem = d.first as usize;
            for x in &mut space {
                *x = (rem % 7) as i64 - 3;
                rem /= 7;
            }
            let c = s.cofactors(&space);
            assert_eq!(make_primitive(c), d.class != NONE);
            assert_eq!(c, &d.v.map(i64::from)[..3]);
        }
        assert!(
            a.kernel_table(6).is_none(),
            "a 145³-point box exceeds the budget"
        );
        assert!(a.kernel_table(-1).is_none());
        // Every class's counts are its closed form.
        let rows = SpaceTimeTransform::hexagonal().flat_rows();
        let (_, counts) = t.lookup(s.cofactors(&rows[..6])).unwrap();
        assert_eq!(
            Some(counts.with_time_steps(a.time_steps(&rows[6..]).unwrap())),
            a.score_rows(&rows, &mut s)
        );
        assert_eq!(t.lookup(&[0, 0, 0]), None, "singular space rows");
        assert_eq!(t.lookup(&[19, 0, 0]), None, "outside the cofactor box");
    }

    #[test]
    fn lines_counts_fibers_in_boxes() {
        // 3×3 box, diagonal direction: 9 − 4 = 5 diagonals.
        assert_eq!(lines(&[3, 3], &[1, 1]), Some(5));
        // Axis direction: each column is one line.
        assert_eq!(lines(&[3, 4], &[1, 0]), Some(4));
        // Step larger than the box: every point its own line.
        assert_eq!(lines(&[3, 3], &[5, 1]), Some(9));
        // Degenerate box.
        assert_eq!(lines(&[0, 3], &[1, 1]), Some(0));
    }
}
