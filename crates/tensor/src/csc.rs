//! Compressed sparse column (CSC) matrices.

use std::fmt;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// A compressed-sparse-column matrix.
///
/// The column-major dual of [`CsrMatrix`]: the outer (column) axis is
/// `Dense`, the inner (row) axis is `Compressed`. Listing 2 of the paper
/// expresses an `A*B=C` kernel with `A` in CSC (`Skip i when A(i,k)==0`,
/// skipping along columns) and `B` in CSR. Outer-product SpGEMM accelerators
/// such as OuterSPACE stream the columns of `A` from CSC.
///
/// # Examples
///
/// ```
/// use stellar_tensor::{CscMatrix, DenseMatrix};
///
/// let d = DenseMatrix::from_rows(&[&[0.0, 5.0], &[7.0, 0.0]]);
/// let m = CscMatrix::from_dense(&d);
/// assert_eq!(m.col(0), (&[1][..], &[7.0][..]));
/// assert_eq!(m.col(1), (&[0][..], &[5.0][..]));
/// ```
#[derive(Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> CscMatrix {
        CscMatrix::from_coo(&CooMatrix::from_dense(d))
    }

    /// Builds from a COO matrix (duplicates summed, zeros dropped).
    pub fn from_coo(coo: &CooMatrix) -> CscMatrix {
        // Sort column-major by building the CSR of the transpose.
        let mut t = CooMatrix::new(coo.cols(), coo.rows());
        for (r, c, v) in coo.iter() {
            t.push(c, r, v);
        }
        let csr_t = CsrMatrix::from_coo(&t);
        CscMatrix {
            rows: coo.rows(),
            cols: coo.cols(),
            col_ptr: csr_t.row_ptr().to_vec(),
            row_idx: csr_t.col_idx().to_vec(),
            values: csr_t.values().to_vec(),
        }
    }

    /// Builds from a CSR matrix by a counting transpose in O(nnz + cols)
    /// (explicit zeros dropped, as [`CscMatrix::from_coo`] drops them).
    pub fn from_csr(csr: &CsrMatrix) -> CscMatrix {
        let (col_ptr, row_idx, values) = csr.transposed_arrays();
        CscMatrix {
            rows: csr.rows(),
            cols: csr.cols(),
            col_ptr,
            row_idx,
            values,
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

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The compressed fiber of column `c`: `(row indices, values)`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        assert!(c < self.cols, "column index out of bounds");
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_len(&self, c: usize) -> usize {
        assert!(c < self.cols, "column index out of bounds");
        self.col_ptr[c + 1] - self.col_ptr[c]
    }

    /// The raw `col_ptr` array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                d.set(r, c, v);
            }
        }
        d
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for c in 0..self.cols {
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                coo.push(r, c, v);
            }
        }
        CsrMatrix::from_coo(&coo)
    }
}

impl fmt::Debug for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CscMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0], &[4.0, 0.0, 5.0]])
    }

    #[test]
    fn dense_round_trip() {
        let d = sample();
        let m = CscMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn col_access() {
        let m = CscMatrix::from_dense(&sample());
        assert_eq!(m.col(0), (&[0, 2][..], &[1.0, 4.0][..]));
        assert_eq!(m.col_len(1), 1);
    }

    #[test]
    fn from_csr_matches_coo_route() {
        // Stored explicit zeros of both signs, an empty row and an empty
        // column, on a non-square shape.
        let csr = CsrMatrix::from_raw(
            3,
            4,
            vec![0, 3, 3, 6],
            vec![0, 1, 3, 0, 1, 3],
            vec![1.5, 0.0, -2.0, -0.0, 4.0, 5.0],
        );
        let csc = CscMatrix::from_csr(&csr);
        assert_eq!(csc, CscMatrix::from_coo(&csr.to_coo()));
        assert_eq!(csc.col_ptr(), &[0, 1, 2, 2, 4]);
        assert_eq!(csc.col(1), (&[2][..], &[4.0][..]));
    }

    #[test]
    fn csr_csc_round_trip() {
        let d = sample();
        let csr = CsrMatrix::from_dense(&d);
        let csc = CscMatrix::from_csr(&csr);
        assert_eq!(csc.to_csr().to_dense(), d);
    }
}
