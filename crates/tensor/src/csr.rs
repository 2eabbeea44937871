//! Compressed sparse row (CSR) matrices.

use std::fmt;

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;

/// A compressed-sparse-row matrix.
///
/// In fibertree terms (§III-E of the paper), CSR is a 2-D tensor whose outer
/// (row) axis is `Dense` and whose inner (column) axis is `Compressed`: a
/// `row_ptr` array of fiber boundaries plus per-element `col_idx` coordinates
/// and values. This matches the `matrix_B_row_ids` / `matrix_B_coords` /
/// `matrix_B_data` arrays moved by the ISA example in Listing 7.
///
/// # Examples
///
/// ```
/// use stellar_tensor::{CsrMatrix, DenseMatrix};
///
/// let d = DenseMatrix::from_rows(&[&[0.0, 5.0], &[7.0, 0.0]]);
/// let m = CsrMatrix::from_dense(&d);
/// assert_eq!(m.row(0), (&[1][..], &[5.0][..]));
/// assert_eq!(m.row(1), (&[0][..], &[7.0][..]));
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `row_ptr` must have
    /// `rows + 1` monotone entries ending at `col_idx.len()`, `col_idx` and
    /// `values` must have equal lengths, every column index must be in range,
    /// and column indices must be strictly increasing within each row.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> CsrMatrix {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr must have rows+1 entries");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        for r in 0..rows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be monotone");
            let fiber = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in fiber.windows(2) {
                assert!(w[0] < w[1], "column indices must be strictly increasing");
            }
            for &c in fiber {
                assert!(c < cols, "column index out of bounds");
            }
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> CsrMatrix {
        CsrMatrix::from_coo(CooMatrix::from_dense(d))
    }

    /// Builds from a COO matrix (duplicates summed, zeros dropped),
    /// compacting its entries in place.
    pub fn from_coo(mut coo: CooMatrix) -> CsrMatrix {
        coo.compact();
        let mut row_ptr = vec![0usize; coo.rows() + 1];
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        for (r, col, v) in coo.iter() {
            row_ptr[r + 1] += 1;
            col_idx.push(col);
            values.push(v);
        }
        for r in 0..coo.rows() {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows: coo.rows(),
            cols: coo.cols(),
            row_ptr,
            col_idx,
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

    /// Density in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// The compressed fiber of row `r`: `(column indices, values)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        assert!(r < self.rows, "row index out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_len(&self, r: usize) -> usize {
        assert!(r < self.rows, "row index out of bounds");
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The raw `row_ptr` array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The raw values array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Reads `A[r][c]`, returning 0.0 for unstored entries.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(c < self.cols, "column index out of bounds");
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(r, c, v);
            }
        }
        d
    }

    /// Converts to COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r, c, v);
            }
        }
        coo
    }

    /// The transpose (equivalently: reinterprets this CSR as CSC of Aᵀ).
    /// Explicit zeros are dropped, as [`CsrMatrix::from_coo`] drops them.
    pub fn transpose(&self) -> CsrMatrix {
        let (row_ptr, col_idx, values) =
            transposed_arrays(self.cols, &self.row_ptr, &self.col_idx, &self.values);
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse matrix × dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum()
            })
            .collect()
    }

    /// Statistics on row lengths: `(min, max, mean)`. Row-length imbalance is
    /// what load balancers (§III-D) and row-partitioned mergers (§VI-D) are
    /// sensitive to.
    pub fn row_length_stats(&self) -> (usize, usize, f64) {
        if self.rows == 0 {
            return (0, 0, 0.0);
        }
        let lens: Vec<usize> = (0..self.rows).map(|r| self.row_len(r)).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        (min, max, mean)
    }
}

/// The `(ptr, idx, values)` arrays of the transpose of a compressed matrix
/// given as `ptr`/`idx`/`values` with `inner` columns, by a counting
/// transpose in O(nnz + inner): count each column's non-zeros, prefix-sum
/// the counts into column starts, then scatter the rows in ascending order,
/// so every column's row indices come out sorted. Explicit zeros (`0.0` and
/// `-0.0`) are skipped, which is what a COO round trip's `compact` does.
/// Read as CSR, the result is the CSC of the input and vice versa, so
/// [`CsrMatrix::transpose`], [`CscMatrix::from_csr`](crate::CscMatrix::from_csr)
/// and [`CscMatrix::to_csr`](crate::CscMatrix::to_csr) all share it.
pub(crate) fn transposed_arrays(
    inner: usize,
    ptr: &[usize],
    idx: &[usize],
    values: &[f64],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut out_ptr = vec![0usize; inner + 1];
    for (&c, &v) in idx.iter().zip(values) {
        if v != 0.0 {
            out_ptr[c + 1] += 1;
        }
    }
    for c in 0..inner {
        out_ptr[c + 1] += out_ptr[c];
    }
    let nnz = out_ptr[inner];
    let mut next = out_ptr[..inner].to_vec();
    let mut out_idx = vec![0usize; nnz];
    let mut out_values = vec![0.0; nnz];
    for (r, span) in ptr.windows(2).enumerate() {
        for (&c, &v) in idx[span[0]..span[1]].iter().zip(&values[span[0]..span[1]]) {
            if v != 0.0 {
                let slot = next[c];
                next[c] += 1;
                out_idx[slot] = r;
                out_values[slot] = v;
            }
        }
    }
    (out_ptr, out_idx, out_values)
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
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
        DenseMatrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 4.0],
        ])
    }

    #[test]
    fn dense_round_trip() {
        let d = sample();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn row_access() {
        let m = CsrMatrix::from_dense(&sample());
        assert_eq!(m.row(0), (&[0, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row_len(2), 2);
        assert_eq!(m.at(2, 3), 4.0);
        assert_eq!(m.at(2, 2), 0.0);
    }

    /// The COO route the counting transpose replaced: push every entry
    /// transposed, then sort, sum and drop zeros in `from_coo`.
    fn transpose_via_coo(m: &CsrMatrix) -> CsrMatrix {
        let mut coo = CooMatrix::new(m.cols(), m.rows());
        for r in 0..m.rows() {
            let (cols, vals) = m.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(c, r, v);
            }
        }
        CsrMatrix::from_coo(coo)
    }

    /// Raw CSR arrays for a `rows × cols` matrix: each slot is stored with
    /// probability ~`fill`/8 and takes a value from `{0.0, -0.0, ±1.5,
    /// ±2, 3.25}`, so stored explicit zeros of both signs, empty rows and
    /// empty columns all occur.
    fn raw_csr(rows: usize, cols: usize, fill: u64, seed: u64) -> CsrMatrix {
        const VALUES: [f64; 7] = [0.0, -0.0, 1.5, -1.5, 2.0, -2.0, 3.25];
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for _ in 0..rows {
            for c in 0..cols {
                if next() % 8 < fill {
                    col_idx.push(c);
                    values.push(VALUES[(next() % 7) as usize]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The counting transpose is the COO route, array for array,
        /// down to the sign bit of every value; transposing twice gives the
        /// input back without its explicit zeros.
        #[test]
        fn counting_transpose_matches_coo_route(
            rows in 0usize..12,
            cols in 0usize..12,
            fill in 0u64..=8,
            seed in proptest::num::u64::ANY,
        ) {
            let m = raw_csr(rows, cols, fill, seed);
            let got = m.transpose();
            let want = transpose_via_coo(&m);
            proptest::prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
            proptest::prop_assert_eq!(got.row_ptr(), want.row_ptr());
            proptest::prop_assert_eq!(got.col_idx(), want.col_idx());
            let bits = |m: &CsrMatrix| -> Vec<u64> {
                m.values().iter().map(|v| v.to_bits()).collect()
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            proptest::prop_assert!(got.values().iter().all(|&v| v != 0.0));
            proptest::prop_assert_eq!(got.transpose(), CsrMatrix::from_coo(m.to_coo()));
        }
    }

    #[test]
    fn transpose_matches_dense() {
        let d = sample();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.transpose().to_dense(), d.transpose());
    }

    #[test]
    fn spmv_matches_dense() {
        let d = sample();
        let m = CsrMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = m.spmv(&x);
        for (r, &yr) in y.iter().enumerate() {
            let expect: f64 = (0..4).map(|c| d.at(r, c) * x[c]).sum();
            assert_eq!(yr, expect);
        }
    }

    #[test]
    fn row_length_stats() {
        let m = CsrMatrix::from_dense(&sample());
        assert_eq!(m.row_length_stats(), (0, 2, 4.0 / 3.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_unsorted() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn from_raw_rejects_bad_ptr() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 3], vec![1, 2], vec![1.0, 2.0]);
    }
}
