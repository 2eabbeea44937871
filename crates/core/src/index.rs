//! Tensor iteration space indices and index expressions.
//!
//! The indices `i`, `j`, `k` of Listing 1 "exist only in the tensor
//! iteration space, and do not directly correspond to time or space
//! coordinates on a physical hardware accelerator" (§III-A). They become
//! space/time coordinates only after the dataflow transform is applied.

use std::fmt;

/// An opaque handle to one iterator of a [`Functionality`]'s tensor
/// iteration space.
///
/// Created by [`Functionality::index`]; the numeric value is the iterator's
/// position in the iteration vector.
///
/// [`Functionality`]: crate::func::Functionality
/// [`Functionality::index`]: crate::func::Functionality::index
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub(crate) usize);

impl IndexId {
    /// The iterator's position in the iteration vector.
    pub fn pos(self) -> usize {
        self.0
    }
}

impl fmt::Debug for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idx#{}", self.0)
    }
}

/// One coordinate of a variable or tensor access, in terms of the iteration
/// indices.
///
/// `At { idx, offset: 0 }` is a plain index like `i`; a negative offset like
/// `At { idx, offset: -1 }` is `i - 1` (referencing a neighbouring
/// iteration); `Lower`/`Upper` pin the coordinate to an iteration bound, as
/// in `j.lowerBound` on line 3 of Listing 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IdxExpr {
    /// `idx + offset`.
    At {
        /// The iterator.
        idx: IndexId,
        /// A constant additive offset.
        offset: i64,
    },
    /// The iterator pinned at its lower bound (`i.lowerBound`).
    Lower(IndexId),
    /// The iterator pinned at its upper bound (`i.upperBound`).
    Upper(IndexId),
}

impl IdxExpr {
    /// The iterator this expression refers to.
    pub fn index(self) -> IndexId {
        match self {
            IdxExpr::At { idx, .. } | IdxExpr::Lower(idx) | IdxExpr::Upper(idx) => idx,
        }
    }

    /// The additive offset (zero for bound-pinned expressions).
    pub fn offset(self) -> i64 {
        match self {
            IdxExpr::At { offset, .. } => offset,
            _ => 0,
        }
    }

    /// Returns `true` if the coordinate is pinned at a bound.
    pub fn is_pinned(self) -> bool {
        !matches!(self, IdxExpr::At { .. })
    }

    /// Evaluates the expression at a concrete iteration point, given bounds.
    ///
    /// For `At`, this is `point[idx] + offset`; for `Lower`/`Upper`, the
    /// respective bound (`Upper` evaluates to the *last* iteration,
    /// `hi - 1`, matching `k.upperBound` marking the final accumulation
    /// step).
    pub fn eval(self, point: &[i64], bounds: &Bounds) -> i64 {
        match self {
            IdxExpr::At { idx, offset } => point[idx.0] + offset,
            IdxExpr::Lower(idx) => bounds.lo(idx),
            IdxExpr::Upper(idx) => bounds.hi(idx) - 1,
        }
    }
}

/// Shorthand for a plain index coordinate `i`.
pub fn at(idx: IndexId) -> IdxExpr {
    IdxExpr::At { idx, offset: 0 }
}

/// Shorthand for a shifted coordinate `i + offset`.
pub fn shifted(idx: IndexId, offset: i64) -> IdxExpr {
    IdxExpr::At { idx, offset }
}

/// Rectangular iteration bounds: each iterator `x` ranges over
/// `lo(x) .. hi(x)` (half-open).
///
/// Bounds are supplied at elaboration time; the specification itself is
/// bound-agnostic, matching the paper's separation between functionality and
/// the concrete tile shape.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bounds {
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl Bounds {
    /// Bounds `0..n` for each of the given extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero or above `i64::MAX`.
    pub fn from_extents(extents: &[usize]) -> Bounds {
        assert!(extents.iter().all(|&e| e > 0), "extents must be non-zero");
        Bounds {
            lo: vec![0; extents.len()],
            hi: extents
                .iter()
                .map(|&e| i64::try_from(e).expect("extents must fit in i64"))
                .collect(),
        }
    }

    /// Bounds `lo..hi` (half-open) per iterator, for iteration spaces
    /// that do not start at the origin — e.g. a far-offset tile of a
    /// larger problem, whose wide coordinates exercise the search's
    /// packed-key fallback.
    ///
    /// # Panics
    ///
    /// Panics if any range is empty (`hi <= lo`).
    pub fn from_ranges(ranges: &[(i64, i64)]) -> Bounds {
        assert!(
            ranges.iter().all(|&(lo, hi)| hi > lo),
            "ranges must be non-empty"
        );
        Bounds {
            lo: ranges.iter().map(|&(lo, _)| lo).collect(),
            hi: ranges.iter().map(|&(_, hi)| hi).collect(),
        }
    }

    /// Number of iterators.
    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// The inclusive lower bound of an iterator.
    pub fn lo(&self, idx: IndexId) -> i64 {
        self.lo[idx.0]
    }

    /// The exclusive upper bound of an iterator.
    pub fn hi(&self, idx: IndexId) -> i64 {
        self.hi[idx.0]
    }

    /// The extent (`hi - lo`) of an iterator.
    pub fn extent(&self, idx: IndexId) -> i64 {
        self.hi[idx.0] - self.lo[idx.0]
    }

    /// The largest `|coordinate|` an in-bounds point can take on axis `d`
    /// — the per-axis magnitude bound the fold scorer sizes its packed
    /// space-time keys from.
    pub fn abs_coord_bound(&self, d: usize) -> i64 {
        self.lo[d].abs().max((self.hi[d] - 1).abs())
    }

    /// Total number of points in the iteration space, saturating at
    /// `usize::MAX`, so a budget check against it cannot be passed by a
    /// count that wrapped.
    pub fn num_points(&self) -> usize {
        self.lo.iter().zip(&self.hi).fold(1, |n: usize, (&l, &h)| {
            n.saturating_mul(usize::try_from(h.saturating_sub(l)).unwrap_or(0))
        })
    }

    /// Returns `true` if the point lies within bounds.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.rank()
            && point
                .iter()
                .enumerate()
                .all(|(d, &p)| p >= self.lo[d] && p < self.hi[d])
    }

    /// Iterates over all points in lexicographic order.
    pub fn iter_points(&self) -> PointIter {
        PointIter {
            bounds: self.clone(),
            next: if self.num_points() == 0 {
                None
            } else {
                Some(self.lo.clone())
            },
        }
    }
}

/// Iterator over all points of a [`Bounds`], in lexicographic order.
#[derive(Clone, Debug)]
pub struct PointIter {
    bounds: Bounds,
    next: Option<Vec<i64>>,
}

impl Iterator for PointIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        let current = self.next.clone()?;
        // Advance odometer-style from the last axis.
        let mut p = current.clone();
        let mut d = p.len();
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            p[d] += 1;
            if p[d] < self.bounds.hi[d] {
                self.next = Some(p);
                break;
            }
            p[d] = self.bounds.lo[d];
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(n: usize) -> IndexId {
        IndexId(n)
    }

    #[test]
    fn idx_expr_eval() {
        let b = Bounds::from_extents(&[4, 5]);
        let p = [2, 3];
        assert_eq!(at(idx(0)).eval(&p, &b), 2);
        assert_eq!(shifted(idx(1), -1).eval(&p, &b), 2);
        assert_eq!(IdxExpr::Lower(idx(0)).eval(&p, &b), 0);
        assert_eq!(IdxExpr::Upper(idx(1)).eval(&p, &b), 4);
    }

    #[test]
    fn idx_expr_accessors() {
        assert_eq!(shifted(idx(2), -3).offset(), -3);
        assert_eq!(shifted(idx(2), -3).index(), idx(2));
        assert!(IdxExpr::Lower(idx(0)).is_pinned());
        assert!(!at(idx(0)).is_pinned());
        assert_eq!(IdxExpr::Upper(idx(0)).offset(), 0);
    }

    #[test]
    fn bounds_queries() {
        let b = Bounds::from_extents(&[3, 4]);
        assert_eq!(b.rank(), 2);
        assert_eq!(b.extent(idx(0)), 3);
        assert_eq!(b.num_points(), 12);
        // A count past `usize::MAX` saturates rather than wrapping small.
        let huge = Bounds::from_extents(&[1 << 32, 1 << 32, 2]);
        assert_eq!(huge.num_points(), usize::MAX);
        assert!(b.contains(&[2, 3]));
        assert!(!b.contains(&[3, 0]));
        assert!(!b.contains(&[0]));
        assert_eq!(b.abs_coord_bound(0), 2);
        assert_eq!(b.abs_coord_bound(1), 3);
    }

    #[test]
    fn iter_points_lexicographic() {
        let b = Bounds::from_extents(&[2, 3]);
        let pts: Vec<Vec<i64>> = b.iter_points().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn from_ranges_offsets_the_box() {
        let b = Bounds::from_ranges(&[(10, 13), (-2, 0)]);
        assert_eq!(b.rank(), 2);
        assert_eq!(b.lo(idx(0)), 10);
        assert_eq!(b.hi(idx(0)), 13);
        assert_eq!(b.extent(idx(1)), 2);
        assert_eq!(b.num_points(), 6);
        assert!(b.contains(&[12, -1]));
        assert!(!b.contains(&[13, -1]));
        assert_eq!(b.abs_coord_bound(0), 12);
        assert_eq!(b.abs_coord_bound(1), 2);
        assert_eq!(b.iter_points().count(), 6);
        assert_eq!(b.iter_points().next().unwrap(), vec![10, -2]);
    }

    #[test]
    #[should_panic(expected = "ranges must be non-empty")]
    fn from_ranges_rejects_empty_range() {
        let _ = Bounds::from_ranges(&[(3, 3)]);
    }

    #[test]
    fn iter_points_count_matches() {
        let b = Bounds::from_extents(&[3, 2, 4]);
        assert_eq!(b.iter_points().count(), b.num_points());
    }
}
