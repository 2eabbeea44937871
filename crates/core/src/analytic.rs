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
//!   integer kernel spanned by a primitive vector `v` (the cofactor
//!   "cross product" along the time row — `rank` minors through the one
//!   determinant, [`stellar_linalg::bareiss_det`] — divided by its gcd):
//!   `S·x = S·y ⇔ x − y ∈ Z·v`. Two points share a PE exactly when they
//!   lie on the same `v`-line, and an axis-aligned box is `v`-convex, so
//!   **the number of PEs is the number of `v`-lines meeting the box**:
//!   `lines(e, v) = Πᵢ eᵢ − Πᵢ max(0, eᵢ − |vᵢ|)` for box extents `e`
//!   (each line meets the box in a contiguous run; the formula counts the
//!   run heads, the points `p` with `p − v` outside the box).
//! * A variable's connections all share one difference `d`; the source
//!   points fill the box `B ∩ (B − d)` with extents
//!   `mᵢ = max(0, eᵢ − |dᵢ|)`. Sources on one `v`-line have destinations
//!   on one `v`-line too (`dst = src + d`), so **distinct wires per
//!   variable = lines(m, v)**, all moving (some spatial row moves `d`) or
//!   all stationary (`S·d = 0`).
//! * Each `(tensor, direction)` IO group's distinct request points fill a
//!   sub-box `F`, so **its distinct ports = lines(extents(F), v)**.
//! * The time row `t` is separable over the box:
//!   `time_steps = Σᵢ max(tᵢ·loᵢ, tᵢ·(hiᵢ−1)) − Σᵢ min(...) + 1`.
//!
//! [`AnalyticScorer::try_new`] verifies the geometric preconditions
//! *exactly once per search* (bit vectors over the elaborated points,
//! connections, and IO requests); if any fails it returns `None` and the
//! search scores every candidate through the fold, exactly as before.
//! Per candidate, [`AnalyticScorer::score_rows`] costs O(rank³ + groups)
//! — independent of the number of lattice points — and returns `None`
//! (fall back to the fold) on any arithmetic overflow or causality
//! violation, so it never has to reproduce the fold's error values: a
//! `Some` summary is byte-identical to the fold's, which
//! `crates/core/tests/fold_equivalence.rs` proves by proptest, and the
//! search re-folds every ranked survivor as an oracle backstop
//! ([`CompileError::AnalyticDivergence`] if the tiers ever disagree).
//!
//! [`IterationSpace::elaborate`]: crate::iterspace::IterationSpace::elaborate
//! [`CompileError::AnalyticDivergence`]: crate::error::CompileError::AnalyticDivergence

use stellar_linalg::bareiss_det;

use crate::fold::StructureSummary;
use crate::func::Functionality;
use crate::iterspace::{IoDir, IterationSpace, PointId};

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

/// Reusable per-worker scratch for [`AnalyticScorer::score_rows`]: the
/// minor buffer for the kernel cofactors and the kernel vector itself.
#[derive(Clone, Debug)]
pub struct AnalyticScratch {
    minor: Vec<i64>,
    det: Vec<i128>,
    v: Vec<i64>,
}

impl AnalyticScratch {
    /// Scratch sized for one scorer.
    pub fn for_scorer(s: &AnalyticScorer) -> AnalyticScratch {
        let m = s.rank.saturating_sub(1);
        AnalyticScratch {
            minor: vec![0; m * m],
            det: vec![0; m * m],
            v: vec![0; s.rank],
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

    /// Scores a candidate from its flat row-major matrix (which must be
    /// invertible — the search checks the determinant first). Returns the
    /// exact [`StructureSummary`] the fold would produce, or `None` if a
    /// closed form does not apply to this candidate (a causality
    /// violation, entries too large for exact cofactors, or arithmetic
    /// overflow) — callers fall back to the fold, which classifies the
    /// candidate exactly as if this tier did not exist.
    pub fn score_rows(
        &self,
        rows: &[i64],
        scratch: &mut AnalyticScratch,
    ) -> Option<StructureSummary> {
        let r = self.rank;
        debug_assert_eq!(rows.len(), r * r);

        // The kernel vector of the spatial rows: v_i = det(minor_i),
        // where minor_i drops column i. Bound the entries so every
        // sub-minor provably fits `i64` — the condition under which
        // `bareiss_det` is exact: (r−1)! · b^(r−1) ≤ i64::MAX.
        let n = r - 1;
        let b = rows[..n * r].iter().map(|e| e.abs()).max().unwrap_or(0);
        let mut bound = 1i128;
        for f in 1..=n as i128 {
            bound = bound.checked_mul(f)?.checked_mul(b.max(1) as i128)?;
        }
        if bound > i64::MAX as i128 {
            return None;
        }
        if n == 0 {
            scratch.v[0] = 1;
        } else {
            for col in 0..r {
                for i in 0..n {
                    let row = &rows[i * r..(i + 1) * r];
                    let mslot = &mut scratch.minor[i * n..(i + 1) * n];
                    let mut jj = 0;
                    for (j, &e) in row.iter().enumerate() {
                        if j != col {
                            mslot[jj] = e;
                            jj += 1;
                        }
                    }
                }
                scratch.v[col] = bareiss_det(&scratch.minor, n, &mut scratch.det)?;
            }
        }
        let g = scratch
            .v
            .iter()
            .fold(0u64, |acc, &x| gcd(acc, x.unsigned_abs()));
        if g == 0 {
            // The spatial rows are rank-deficient, which contradicts an
            // invertible transform — the caller broke the contract; let
            // the fold sort it out.
            return None;
        }
        if g > 1 {
            for x in scratch.v.iter_mut() {
                *x /= g as i64;
            }
        }
        let v = &scratch.v;

        let num_pes = lines(&self.extents, v)?;

        // Separable time range over the box.
        let trow = &rows[n * r..];
        let mut tmin = 0i64;
        let mut tmax = 0i64;
        for (d, &t) in trow.iter().enumerate().take(r) {
            let a = t.checked_mul(self.lo[d])?;
            let z = t.checked_mul(self.hi1[d])?;
            tmin = tmin.checked_add(a.min(z))?;
            tmax = tmax.checked_add(a.max(z))?;
        }
        let time_steps = tmax.checked_sub(tmin)?.checked_add(1)?;

        // Wires per connection class: moving if any spatial row moves the
        // difference, stationary otherwise.
        let mut moving = 0usize;
        let mut stationary = 0usize;
        for gconn in &self.conn_groups {
            if dot(trow, &gconn.diff)? < 0 {
                return None; // causality: the fold owns error attribution
            }
            let wires = lines(&gconn.src_extents, v)?;
            let mut is_moving = false;
            for i in 0..n {
                if dot(&rows[i * r..(i + 1) * r], &gconn.diff)? != 0 {
                    is_moving = true;
                    break;
                }
            }
            if is_moving {
                moving = moving.checked_add(wires)?;
            } else {
                stationary = stationary.checked_add(wires)?;
            }
        }

        let mut io_ports = 0usize;
        for gio in &self.io_groups {
            io_ports = io_ports.checked_add(lines(&gio.extents, v)?)?;
        }

        Some(StructureSummary {
            num_pes,
            moving_conns: moving,
            stationary_conns: stationary,
            io_ports,
            time_steps,
        })
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
