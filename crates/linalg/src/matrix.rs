//! Dense integer and rational matrices with exact inverses.

use std::fmt;

use crate::rational::Rational;
use crate::vector::IntVec;

/// A dense row-major integer matrix.
///
/// `IntMat` is the representation of Stellar space-time transforms
/// (Equation 1 of the paper): square, integer, and invertible. Rectangular
/// matrices are also supported for index maps (tensor coordinates as affine
/// functions of iterators).
///
/// # Examples
///
/// ```
/// use stellar_linalg::IntMat;
///
/// let id = IntMat::identity(3);
/// assert_eq!(id.mul_vec(&[1, 2, 3]), vec![1, 2, 3]);
/// assert_eq!(id.det(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IntMat {
    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[i64]]) -> IntMat {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        IntMat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix of the given shape from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> IntMat {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        IntMat { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> IntMat {
        let mut m = IntMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// An all-zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> IntMat {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        IntMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[i64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [i64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[i64]) -> IntVec {
        assert_eq!(v.len(), self.cols, "vector length must equal matrix cols");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn mul_mat(&self, rhs: &IntMat) -> IntMat {
        assert_eq!(self.cols, rhs.rows, "inner matrix dimensions must agree");
        let mut out = IntMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> IntMat {
        let mut out = IntMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Exact determinant ([`bareiss_det`]).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the determinant does not fit
    /// in `i64`.
    pub fn det(&self) -> i64 {
        assert!(self.is_square(), "determinant requires a square matrix");
        let mut buf = vec![0i128; self.data.len()];
        bareiss_det(&self.data, self.rows, &mut buf).expect("determinant overflows i64")
    }

    /// The minor matrix with row `r` and column `c` removed.
    fn minor(&self, r: usize, c: usize) -> IntMat {
        let mut data = Vec::with_capacity((self.rows - 1) * (self.cols - 1));
        for i in 0..self.rows {
            if i == r {
                continue;
            }
            for j in 0..self.cols {
                if j == c {
                    continue;
                }
                data.push(self[(i, j)]);
            }
        }
        IntMat::from_vec(self.rows - 1, self.cols - 1, data)
    }

    /// Exact inverse as a rational matrix, or `None` if singular.
    ///
    /// Computed via the adjugate: `T⁻¹ = adj(T) / det(T)`, keeping every
    /// entry exact so that `T⁻¹ · (x, y, t)` recovers integer tensor
    /// iterators without rounding (§IV-B of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<RatMat> {
        assert!(self.is_square(), "inverse requires a square matrix");
        let n = self.rows;
        let det = self.det();
        if det == 0 {
            return None;
        }
        if n == 1 {
            return Some(RatMat {
                rows: 1,
                cols: 1,
                data: vec![Rational::new(1, det)],
            });
        }
        let mut data = vec![Rational::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                let cof = self.minor(i, j).det();
                let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
                // Adjugate is the transpose of the cofactor matrix.
                data[j * n + i] = Rational::new(sign * cof, det);
            }
        }
        Some(RatMat {
            rows: n,
            cols: n,
            data,
        })
    }

    /// Returns `true` if the matrix is square with non-zero determinant.
    pub fn is_invertible(&self) -> bool {
        self.is_square() && self.det() != 0
    }
}

/// Exact determinant of a flat row-major `n × n` matrix by Bareiss
/// fraction-free elimination, in the caller's `buf` (at least `n²` long)
/// so a scan over millions of matrices allocates nothing. `None` when the
/// determinant leaves `i64`.
///
/// Intermediates (leading minors and products of two of them) are held
/// in `i128` and not checked, so the result is exact whenever every minor
/// fits `i64`. `#[inline]` because the workspace builds without LTO and
/// the dataflow scan's cofactors call this per candidate at ranks other
/// than 3.
#[inline]
pub fn bareiss_det(rows: &[i64], n: usize, buf: &mut [i128]) -> Option<i64> {
    debug_assert_eq!(rows.len(), n * n);
    if n == 0 {
        return Some(1);
    }
    let m = &mut buf[..n * n];
    for (b, &v) in m.iter_mut().zip(rows) {
        *b = v as i128;
    }
    let mut sign = 1i128;
    let mut prev = 1i128;
    for k in 0..n - 1 {
        if m[k * n + k] == 0 {
            match (k + 1..n).find(|&r| m[r * n + k] != 0) {
                Some(r) => {
                    for c in 0..n {
                        m.swap(k * n + c, r * n + c);
                    }
                    sign = -sign;
                }
                None => return Some(0),
            }
        }
        for i in k + 1..n {
            for j in k + 1..n {
                m[i * n + j] = (m[i * n + j] * m[k * n + k] - m[i * n + k] * m[k * n + j]) / prev;
            }
            m[i * n + k] = 0;
        }
        prev = m[k * n + k];
    }
    i64::try_from(sign * m[n * n - 1]).ok()
}

impl std::ops::Index<(usize, usize)> for IntMat {
    type Output = i64;
    fn index(&self, (r, c): (usize, usize)) -> &i64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IntMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for IntMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IntMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A dense row-major matrix of exact [`Rational`] entries.
///
/// Produced by [`IntMat::inverse`]; used to recover tensor iterators from
/// space-time coordinates.
#[derive(Clone, PartialEq, Eq)]
pub struct RatMat {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl RatMat {
    /// The rational identity matrix of size `n`.
    pub fn identity(n: usize) -> RatMat {
        let mut data = vec![Rational::ZERO; n * n];
        for i in 0..n {
            data[i * n + i] = Rational::from(1);
        }
        RatMat {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product with an integer vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<Rational> {
        assert_eq!(v.len(), self.cols, "vector length must equal matrix cols");
        (0..self.rows)
            .map(|r| {
                let mut acc = Rational::ZERO;
                for (c, &x) in v.iter().enumerate() {
                    acc = acc + self.data[r * self.cols + c] * Rational::from(x);
                }
                acc
            })
            .collect()
    }

    /// Matrix–vector product, returning `Some` only when every component of
    /// the result is an integer. This is the coordinate-recovery operation a
    /// Stellar PE performs: a space-time point that maps to a fractional
    /// iteration point corresponds to no tensor iteration at all.
    pub fn mul_int_vec(&self, v: &[i64]) -> Option<IntVec> {
        self.mul_vec(v)
            .into_iter()
            .map(|r| r.to_integer())
            .collect()
    }

    /// Entry access.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> Rational {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Converts back to an integer matrix if every entry is integral.
    pub fn to_int(&self) -> Option<IntMat> {
        let data: Option<Vec<i64>> = self.data.iter().map(|r| r.to_integer()).collect();
        Some(IntMat::from_vec(self.rows, self.cols, data?))
    }
}

impl fmt::Debug for RatMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RatMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.at(r, c))?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let id = IntMat::identity(4);
        assert_eq!(id.det(), 1);
        assert_eq!(id.mul_vec(&[5, 6, 7, 8]), vec![5, 6, 7, 8]);
        let inv = id.inverse().unwrap();
        assert_eq!(inv.to_int().unwrap(), id);
    }

    #[test]
    fn det_known_values() {
        let m = IntMat::from_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m.det(), -2);
        let m = IntMat::from_rows(&[&[2, 0, 0], &[0, 3, 0], &[0, 0, 4]]);
        assert_eq!(m.det(), 24);
        let singular = IntMat::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(singular.det(), 0);
        assert!(singular.inverse().is_none());
    }

    #[test]
    fn det_needs_pivoting() {
        let m = IntMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(m.det(), -1);
        let m = IntMat::from_rows(&[&[0, 0, 1], &[0, 1, 0], &[1, 0, 0]]);
        assert_eq!(m.det(), -1);
    }

    #[test]
    fn inverse_round_trip() {
        // Output-stationary transform from Figure 2b.
        let t = IntMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[1, 1, 1]]);
        let inv = t.inverse().unwrap();
        for v in [[0, 0, 0], [1, 2, 3], [-4, 5, -6], [7, 7, 7]] {
            let xyt = t.mul_vec(&v);
            assert_eq!(inv.mul_int_vec(&xyt).unwrap(), v.to_vec());
        }
    }

    #[test]
    fn inverse_fractional_preimage_detected() {
        // det = 2: half the lattice has no integer preimage.
        let t = IntMat::from_rows(&[&[2, 0], &[0, 1]]);
        let inv = t.inverse().unwrap();
        assert_eq!(inv.mul_int_vec(&[2, 3]).unwrap(), vec![1, 3]);
        assert!(inv.mul_int_vec(&[3, 3]).is_none());
    }

    #[test]
    fn mul_mat_associates_with_vec() {
        let a = IntMat::from_rows(&[&[1, 2], &[3, 4]]);
        let b = IntMat::from_rows(&[&[0, 1], &[1, 1]]);
        let v = [5, -3];
        assert_eq!(a.mul_mat(&b).mul_vec(&v), a.mul_vec(&b.mul_vec(&v)));
    }

    #[test]
    fn transpose_involution() {
        let a = IntMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn hexagonal_transform_invertible() {
        // The hexagonal dataflow (Figure 2c) uses a transform that spatially
        // unrolls all three matmul indices onto a 2D plane.
        let t = IntMat::from_rows(&[&[1, 0, -1], &[0, 1, -1], &[1, 1, 1]]);
        assert!(t.is_invertible());
        let inv = t.inverse().unwrap();
        let xyt = t.mul_vec(&[3, 1, 2]);
        assert_eq!(inv.mul_int_vec(&xyt).unwrap(), vec![3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn det_non_square_panics() {
        let _ = IntMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]).det();
    }
}
