//! Space-time transforms: Stellar's dataflow specification (§III-B).
//!
//! A dataflow is an invertible integer matrix `T` mapping tensor iteration
//! coordinates to `(space..., time)` (Equation 1). Changing numeric entries
//! of `T` moves between input-stationary, output-stationary, hexagonal, and
//! other dataflows (Figure 2), and scaling entries of the final (time) row
//! adds or removes pipeline registers (Figure 3).

use std::fmt;

use stellar_linalg::{IntMat, RatMat};

use crate::error::CompileError;

/// An invertible integer space-time transform.
///
/// The first `rows - 1` rows map iteration coordinates to spatial
/// coordinates; the final row maps them to the time step.
///
/// # Examples
///
/// ```
/// use stellar_core::SpaceTimeTransform;
///
/// let t = SpaceTimeTransform::output_stationary();
/// // The MAC at (i=1, j=2, k=3) runs on PE (x=1, y=2) at t = 1+2+3.
/// assert_eq!(t.apply(&[1, 2, 3]), vec![1, 2, 6]);
/// let back = t.invert(&[1, 2, 6]).unwrap();
/// assert_eq!(back, vec![1, 2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct SpaceTimeTransform {
    mat: IntMat,
    inv: RatMat,
}

impl SpaceTimeTransform {
    /// Wraps an integer matrix as a space-time transform.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidTransform`] if the matrix is not
    /// square or not invertible.
    pub fn new(mat: IntMat) -> Result<SpaceTimeTransform, CompileError> {
        if !mat.is_square() {
            return Err(CompileError::InvalidTransform(format!(
                "transform must be square, got {}x{}",
                mat.rows(),
                mat.cols()
            )));
        }
        let inv = mat
            .inverse()
            .ok_or_else(|| CompileError::InvalidTransform("transform is singular".into()))?;
        Ok(SpaceTimeTransform { mat, inv })
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square and invertible; use
    /// [`SpaceTimeTransform::new`] for fallible construction.
    pub fn from_rows(rows: &[&[i64]]) -> SpaceTimeTransform {
        SpaceTimeTransform::new(IntMat::from_rows(rows)).expect("invalid space-time transform")
    }

    /// The identity transform of the given rank (every iterator becomes a
    /// time axis, nothing is spatial). The identity is its own inverse, so
    /// unlike [`SpaceTimeTransform::new`] this cannot fail.
    pub fn identity(rank: usize) -> SpaceTimeTransform {
        SpaceTimeTransform {
            mat: IntMat::identity(rank),
            inv: RatMat::identity(rank),
        }
    }

    /// The output-stationary matmul dataflow of Figure 2b:
    /// `x = i`, `y = j`, `t = i + j + k`. Partial sums stay in place; `A`
    /// and `B` stream through the array.
    pub fn output_stationary() -> SpaceTimeTransform {
        SpaceTimeTransform::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[1, 1, 1]])
    }

    /// The input-stationary matmul dataflow of Figure 2a:
    /// `x = k`, `y = j`, `t = i + j + k`. The `B` inputs stay resident in
    /// PEs (indexed by `(k, j)`); partial sums travel down the array.
    pub fn input_stationary() -> SpaceTimeTransform {
        SpaceTimeTransform::from_rows(&[&[0, 0, 1], &[0, 1, 0], &[1, 1, 1]])
    }

    /// A weight-stationary systolic dataflow in the Gemmini style: the same
    /// PE placement as [`SpaceTimeTransform::input_stationary`] (weights
    /// indexed by `(k, j)` stay resident).
    pub fn weight_stationary() -> SpaceTimeTransform {
        SpaceTimeTransform::input_stationary()
    }

    /// The hexagonal dataflow of Figure 2c, which spatially unrolls all
    /// three matmul iterators onto a 2-D plane: `x = i - k`, `y = j - k`,
    /// `t = i + j + k`.
    pub fn hexagonal() -> SpaceTimeTransform {
        SpaceTimeTransform::from_rows(&[&[1, 0, -1], &[0, 1, -1], &[1, 1, 1]])
    }

    /// Returns this transform with the time row multiplied by `factor`,
    /// uniformly adding pipeline registers along every connection
    /// (Figure 3's "more aggressively pipelined" variants).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidTransform`] if `factor` is zero.
    pub fn with_time_scale(&self, factor: i64) -> Result<SpaceTimeTransform, CompileError> {
        if factor == 0 {
            return Err(CompileError::InvalidTransform(
                "time scale must be non-zero".into(),
            ));
        }
        let mut m = self.mat.clone();
        let t = m.rows() - 1;
        for v in m.row_mut(t) {
            *v *= factor;
        }
        SpaceTimeTransform::new(m)
    }

    /// Returns this transform with the time row replaced, for fine-grained
    /// per-axis pipelining control (Figure 3 changes individual entries of
    /// the lowest row).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidTransform`] if the row has the wrong
    /// length or makes the transform singular.
    pub fn with_time_row(&self, row: &[i64]) -> Result<SpaceTimeTransform, CompileError> {
        if row.len() != self.mat.cols() {
            return Err(CompileError::InvalidTransform(format!(
                "time row must have {} entries",
                self.mat.cols()
            )));
        }
        let mut m = self.mat.clone();
        let t = m.rows() - 1;
        m.row_mut(t).copy_from_slice(row);
        SpaceTimeTransform::new(m)
    }

    /// The rank of the iteration space (and of the space-time vector).
    pub fn rank(&self) -> usize {
        self.mat.rows()
    }

    /// Number of spatial dimensions (`rank - 1`).
    pub fn space_dims(&self) -> usize {
        self.mat.rows() - 1
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &IntMat {
        &self.mat
    }

    /// The matrix as one flat row-major buffer — the form the point fold
    /// and the scorers take candidates in.
    pub(crate) fn flat_rows(&self) -> Vec<i64> {
        (0..self.rank())
            .flat_map(|r| self.mat.row(r).iter().copied())
            .collect()
    }

    /// The exact inverse.
    pub fn inverse(&self) -> &RatMat {
        &self.inv
    }

    /// Maps an iteration point to `(space..., time)`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.rank()`.
    pub fn apply(&self, point: &[i64]) -> Vec<i64> {
        self.mat.mul_vec(point)
    }

    /// Maps an iteration point to `(space..., time)` into a reused buffer,
    /// allocating nothing — the per-point workhorse of the fold and the
    /// scheduled executor.
    pub fn apply_into(&self, point: &[i64], out: &mut Vec<i64>) {
        out.clear();
        for r in 0..self.mat.rows() {
            out.push(self.mat.row(r).iter().zip(point).map(|(a, b)| a * b).sum());
        }
    }

    /// The spatial part of the image of `point`.
    pub fn space_of(&self, point: &[i64]) -> Vec<i64> {
        let mut st = self.apply(point);
        st.pop();
        st
    }

    /// The time step of `point` — a single dot product with the time row,
    /// allocating nothing.
    pub fn time_of(&self, point: &[i64]) -> i64 {
        let t = self.mat.rows() - 1;
        self.mat.row(t).iter().zip(point).map(|(a, b)| a * b).sum()
    }

    /// Recovers the iteration point from a space-time coordinate, or `None`
    /// if the coordinate has no integer preimage (the "no tensor iteration
    /// here this cycle" case a PE's IO request generator must detect,
    /// Figure 11).
    pub fn invert(&self, spacetime: &[i64]) -> Option<Vec<i64>> {
        self.inv.mul_int_vec(spacetime)
    }

    /// The time component of `T·d` for a difference vector `d`: the number
    /// of pipeline registers on the corresponding PE-to-PE connection
    /// (Figure 3).
    pub fn time_delta(&self, diff: &[i64]) -> i64 {
        self.time_of(diff)
    }

    /// The spatial component of `T·d` for a difference vector `d`.
    pub fn space_delta(&self, diff: &[i64]) -> Vec<i64> {
        self.space_of(diff)
    }
}

impl fmt::Debug for SpaceTimeTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpaceTimeTransform({:?})", self.mat)
    }
}

impl fmt::Display for SpaceTimeTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_stationary_mapping() {
        let t = SpaceTimeTransform::output_stationary();
        assert_eq!(t.apply(&[1, 2, 3]), vec![1, 2, 6]);
        assert_eq!(t.space_of(&[1, 2, 3]), vec![1, 2]);
        assert_eq!(t.time_of(&[1, 2, 3]), 6);
        // Output-stationary: c (diff (0,0,1)) stays in place, 1 cycle/step.
        assert_eq!(t.space_delta(&[0, 0, 1]), vec![0, 0]);
        assert_eq!(t.time_delta(&[0, 0, 1]), 1);
    }

    #[test]
    fn input_stationary_mapping() {
        let t = SpaceTimeTransform::input_stationary();
        // b (diff (1,0,0)) is stationary: B values indexed by (k, j).
        assert_eq!(t.space_delta(&[1, 0, 0]), vec![0, 0]);
        // c (diff (0,0,1)) travels down x one PE per cycle (Figure 4's
        // vertical accumulation).
        assert_eq!(t.space_delta(&[0, 0, 1]), vec![1, 0]);
        assert_eq!(t.time_delta(&[0, 0, 1]), 1);
    }

    #[test]
    fn hexagonal_spreads_all_iterators() {
        let t = SpaceTimeTransform::hexagonal();
        // All three unit difference vectors move spatially: nothing is
        // stationary in the hexagonal array.
        for d in [[1, 0, 0], [0, 1, 0], [0, 0, 1]] {
            assert_ne!(
                t.space_delta(&d),
                vec![0, 0],
                "{d:?} unexpectedly stationary"
            );
        }
    }

    #[test]
    fn time_scale_multiplies_registers() {
        let t = SpaceTimeTransform::output_stationary();
        let t2 = t.with_time_scale(2).unwrap();
        assert_eq!(t2.time_delta(&[0, 0, 1]), 2);
        assert_eq!(t2.space_delta(&[0, 0, 1]), vec![0, 0]);
        assert!(t.with_time_scale(0).is_err());
    }

    #[test]
    fn time_row_replacement() {
        let t = SpaceTimeTransform::output_stationary();
        let t2 = t.with_time_row(&[2, 1, 1]).unwrap();
        // a (diff (0,1,0)) now has 1 register; b (diff (1,0,0)) has 2.
        assert_eq!(t2.time_delta(&[0, 1, 0]), 1);
        assert_eq!(t2.time_delta(&[1, 0, 0]), 2);
        assert!(t.with_time_row(&[1, 1]).is_err());
        // A time row making T singular is rejected.
        assert!(t.with_time_row(&[1, 0, 0]).is_err());
    }

    #[test]
    fn apply_into_matches_apply() {
        let mut out = Vec::new();
        for t in [
            SpaceTimeTransform::output_stationary(),
            SpaceTimeTransform::hexagonal(),
            SpaceTimeTransform::output_stationary()
                .with_time_scale(3)
                .unwrap(),
        ] {
            for p in [[0, 0, 0], [1, 2, 3], [-2, 5, 1]] {
                t.apply_into(&p, &mut out);
                assert_eq!(out, t.apply(&p));
                assert_eq!(t.time_of(&p), *out.last().unwrap());
                assert_eq!(t.space_of(&p), out[..2]);
            }
        }
    }

    #[test]
    fn invert_round_trip() {
        for t in [
            SpaceTimeTransform::output_stationary(),
            SpaceTimeTransform::input_stationary(),
            SpaceTimeTransform::hexagonal(),
        ] {
            for p in [[0, 0, 0], [1, 2, 3], [3, 1, 2]] {
                let st = t.apply(&p);
                assert_eq!(t.invert(&st), Some(p.to_vec()));
            }
        }
    }

    #[test]
    fn invert_detects_fractional() {
        let t = SpaceTimeTransform::output_stationary()
            .with_time_scale(2)
            .unwrap();
        // With time doubled, odd time steps have no integer preimage.
        let st = t.apply(&[1, 1, 1]); // t = 6
        assert!(t.invert(&st).is_some());
        assert!(t.invert(&[1, 1, 5]).is_none());
    }

    #[test]
    fn singular_rejected() {
        let m = IntMat::from_rows(&[&[1, 0, 0], &[1, 0, 0], &[1, 1, 1]]);
        assert!(matches!(
            SpaceTimeTransform::new(m),
            Err(CompileError::InvalidTransform(_))
        ));
    }
}
