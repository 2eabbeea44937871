//! Reference kernels: the golden models that every simulated accelerator is
//! checked against.
//!
//! The paper's evaluation regenerates accelerators built around three kernel
//! families, all implemented here in straightforward software form:
//!
//! * dense matmul and 2-D convolution (Gemmini, SCNN),
//! * outer-product SpGEMM producing scattered partial matrices
//!   (OuterSPACE, SpArch),
//! * row-wise (Gustavson) SpGEMM (GAMMA), and sorted-fiber merging.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::{DenseMatrix, DenseTensor};

/// Row-wise (Gustavson) sparse × sparse matrix product, as accelerated by
/// GAMMA: for each row of `a`, scale and merge the referenced rows of `b`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn spgemm_gustavson(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = CooMatrix::new(a.rows(), b.cols());
    let mut acc: Vec<f64> = vec![0.0; b.cols()];
    let mut touched: Vec<usize> = Vec::new();
    for i in 0..a.rows() {
        let (ks, avs) = a.row(i);
        for (&k, &av) in ks.iter().zip(avs) {
            let (js, bvs) = b.row(k);
            for (&j, &bv) in js.iter().zip(bvs) {
                if acc[j] == 0.0 {
                    touched.push(j);
                }
                acc[j] += av * bv;
            }
        }
        for &j in &touched {
            if acc[j] != 0.0 {
                out.push(i, j, acc[j]);
            }
            acc[j] = 0.0;
        }
        touched.clear();
    }
    CsrMatrix::from_coo(out)
}

/// One partial matrix of an outer-product SpGEMM: the rank-1 product of
/// column `k` of `A` with row `k` of `B`, stored as scattered COO triples
/// exactly as OuterSPACE scatters them through DRAM (§VI-C of the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct PartialMatrix {
    /// The contraction index this partial matrix came from.
    pub k: usize,
    /// The rank-1 product entries, row-major sorted.
    pub entries: CooMatrix,
}

impl PartialMatrix {
    /// Number of entries (`nnz(A[:,k]) * nnz(B[k,:])`).
    pub fn nnz(&self) -> usize {
        self.entries.nnz()
    }

    /// Length of each row of this partial matrix, indexed by output row.
    pub fn row_lengths(&self) -> Vec<usize> {
        self.entries.row_lengths()
    }
}

/// Outer-product SpGEMM multiply phase: produces one [`PartialMatrix`] per
/// contraction index `k` with any non-zeros. The merge phase
/// ([`merge_partials`]) reduces these into the final result.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn spgemm_outer_partials(a: &CscMatrix, b: &CsrMatrix) -> Vec<PartialMatrix> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = Vec::new();
    for k in 0..a.cols() {
        let (ris, avs) = a.col(k);
        let (cjs, bvs) = b.row(k);
        if ris.is_empty() || cjs.is_empty() {
            continue;
        }
        let mut entries = CooMatrix::new(a.rows(), b.cols());
        for (&i, &av) in ris.iter().zip(avs) {
            for (&j, &bv) in cjs.iter().zip(bvs) {
                entries.push(i, j, av * bv);
            }
        }
        entries.compact();
        out.push(PartialMatrix { k, entries });
    }
    out
}

/// Outer-product SpGEMM merge phase: sums all partial matrices into the
/// final CSR result. This is the golden model for the merger spatial arrays
/// of §VI-D.
pub fn merge_partials(rows: usize, cols: usize, partials: &[PartialMatrix]) -> CsrMatrix {
    let mut all = CooMatrix::new(rows, cols);
    for p in partials {
        for (r, c, v) in p.entries.iter() {
            all.push(r, c, v);
        }
    }
    CsrMatrix::from_coo(all)
}

/// Full outer-product SpGEMM (multiply + merge).
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn spgemm_outer(a: &CscMatrix, b: &CsrMatrix) -> CsrMatrix {
    let partials = spgemm_outer_partials(a, b);
    merge_partials(a.rows(), b.cols(), &partials)
}

/// A sorted sparse fiber: strictly increasing coordinates with values.
/// The unit of work for merger spatial arrays (Figure 19 of the paper).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fiber {
    /// Strictly increasing coordinates.
    pub coords: Vec<usize>,
    /// One value per coordinate.
    pub values: Vec<f64>,
}

impl Fiber {
    /// Builds a fiber, checking sortedness.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or coordinates are not strictly
    /// increasing.
    pub fn new(coords: Vec<usize>, values: Vec<f64>) -> Fiber {
        assert_eq!(coords.len(), values.len(), "coords/values length mismatch");
        assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "fiber coordinates must be strictly increasing"
        );
        Fiber { coords, values }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` if the fiber has no elements.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

/// K-way merge of sorted fibers, summing values at equal coordinates: the
/// golden model for both row-partitioned (GAMMA-style) and flattened
/// (SpArch-style) merger hardware.
pub fn merge_fibers(fibers: &[Fiber]) -> Fiber {
    let mut heads: Vec<usize> = vec![0; fibers.len()];
    let mut out = Fiber::default();
    loop {
        let mut min: Option<usize> = None;
        for (f, &h) in fibers.iter().zip(&heads) {
            if h < f.len() {
                min = Some(match min {
                    Some(m) => m.min(f.coords[h]),
                    None => f.coords[h],
                });
            }
        }
        let Some(coord) = min else { break };
        let mut sum = 0.0;
        for (f, h) in fibers.iter().zip(heads.iter_mut()) {
            if *h < f.len() && f.coords[*h] == coord {
                sum += f.values[*h];
                *h += 1;
            }
        }
        if sum != 0.0 {
            out.coords.push(coord);
            out.values.push(sum);
        }
    }
    out
}

/// Dense 2-D convolution with stride and zero padding: the golden model for
/// convolutional accelerators (Gemmini, SCNN).
///
/// * `input` — `[C_in, H, W]`
/// * `weights` — `[C_out, C_in, KH, KW]`
/// * returns `[C_out, H_out, W_out]`
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if `stride` is zero.
pub fn conv2d(
    input: &DenseTensor,
    weights: &DenseTensor,
    stride: usize,
    pad: usize,
) -> DenseTensor {
    assert_eq!(input.ndim(), 3, "input must be [C,H,W]");
    assert_eq!(weights.ndim(), 4, "weights must be [K,C,R,S]");
    assert!(stride > 0, "stride must be non-zero");
    let (cin, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (cout, wc, kh, kw) = (
        weights.shape()[0],
        weights.shape()[1],
        weights.shape()[2],
        weights.shape()[3],
    );
    assert_eq!(cin, wc, "input channels must match weight channels");
    let hout = (h + 2 * pad - kh) / stride + 1;
    let wout = (w + 2 * pad - kw) / stride + 1;
    let mut out = DenseTensor::zeros(&[cout, hout, wout]);
    for k in 0..cout {
        for oy in 0..hout {
            for ox in 0..wout {
                let mut acc = 0.0;
                for c in 0..cin {
                    for ry in 0..kh {
                        for rx in 0..kw {
                            let iy = (oy * stride + ry) as isize - pad as isize;
                            let ix = (ox * stride + rx) as isize - pad as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            acc += input.at(&[c, iy as usize, ix as usize])
                                * weights.at(&[k, c, ry, rx]);
                        }
                    }
                }
                out.set(&[k, oy, ox], acc);
            }
        }
    }
    out
}

/// Lowers a convolution to a matmul via im2col, the mapping Gemmini-class
/// accelerators use: returns `(patches, out_h, out_w)` where `patches` is
/// `[H_out*W_out, C_in*KH*KW]`.
pub fn im2col(
    input: &DenseTensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (DenseMatrix, usize, usize) {
    assert_eq!(input.ndim(), 3, "input must be [C,H,W]");
    let (cin, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let hout = (h + 2 * pad - kh) / stride + 1;
    let wout = (w + 2 * pad - kw) / stride + 1;
    let mut m = DenseMatrix::zeros(hout * wout, cin * kh * kw);
    for oy in 0..hout {
        for ox in 0..wout {
            for c in 0..cin {
                for ry in 0..kh {
                    for rx in 0..kw {
                        let iy = (oy * stride + ry) as isize - pad as isize;
                        let ix = (ox * stride + rx) as isize - pad as isize;
                        let v = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            0.0
                        } else {
                            input.at(&[c, iy as usize, ix as usize])
                        };
                        m.set(oy * wout + ox, (c * kh + ry) * kw + rx, v);
                    }
                }
            }
        }
    }
    (m, hout, wout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn gustavson_matches_dense() {
        let a = gen::uniform(20, 30, 0.2, 1);
        let b = gen::uniform(30, 25, 0.2, 2);
        let c = spgemm_gustavson(&a, &b);
        let expect = a.to_dense().matmul(&b.to_dense());
        assert!(c.to_dense().approx_eq(&expect, 1e-9));
    }

    #[test]
    fn outer_product_matches_gustavson() {
        let a = gen::uniform(16, 24, 0.15, 3);
        let b = gen::uniform(24, 20, 0.15, 4);
        let via_outer = spgemm_outer(&CscMatrix::from_csr(&a), &b);
        let via_rows = spgemm_gustavson(&a, &b);
        assert!(via_outer.to_dense().approx_eq(&via_rows.to_dense(), 1e-9));
    }

    #[test]
    fn partials_have_rank_one_structure() {
        let a = gen::uniform(10, 12, 0.3, 5);
        let partials =
            spgemm_outer_partials(&CscMatrix::from_csr(&a), &gen::uniform(12, 10, 0.3, 6));
        for p in &partials {
            // Every row of a rank-1 partial matrix has the same column set.
            let lens = p.row_lengths();
            let nonzero_lens: Vec<usize> = lens.into_iter().filter(|&l| l > 0).collect();
            if let Some(&first) = nonzero_lens.first() {
                assert!(nonzero_lens.iter().all(|&l| l == first));
            }
        }
    }

    #[test]
    fn merge_fibers_sums_duplicates() {
        let f1 = Fiber::new(vec![0, 2, 5], vec![1.0, 2.0, 3.0]);
        let f2 = Fiber::new(vec![2, 3], vec![10.0, 20.0]);
        let f3 = Fiber::new(vec![5], vec![-3.0]);
        let merged = merge_fibers(&[f1, f2, f3]);
        assert_eq!(merged.coords, vec![0, 2, 3]);
        assert_eq!(merged.values, vec![1.0, 12.0, 20.0]);
    }

    #[test]
    fn merge_fibers_empty() {
        assert!(merge_fibers(&[]).is_empty());
        assert!(merge_fibers(&[Fiber::default()]).is_empty());
    }

    #[test]
    fn conv2d_identity_kernel() {
        let mut input = DenseTensor::zeros(&[1, 3, 3]);
        for y in 0..3 {
            for x in 0..3 {
                input.set(&[0, y, x], (y * 3 + x) as f64);
            }
        }
        let mut w = DenseTensor::zeros(&[1, 1, 1, 1]);
        w.set(&[0, 0, 0, 0], 1.0);
        let out = conv2d(&input, &w, 1, 0);
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_matches_im2col_matmul() {
        let mut input = DenseTensor::zeros(&[2, 5, 5]);
        let mut v = 0.3;
        for c in 0..2 {
            for y in 0..5 {
                for x in 0..5 {
                    input.set(&[c, y, x], v);
                    v = (v * 7.3) % 1.9 - 0.6;
                }
            }
        }
        let mut wts = DenseTensor::zeros(&[3, 2, 3, 3]);
        for k in 0..3 {
            for c in 0..2 {
                for r in 0..3 {
                    for s in 0..3 {
                        wts.set(&[k, c, r, s], v);
                        v = (v * 5.7) % 1.7 - 0.5;
                    }
                }
            }
        }
        let direct = conv2d(&input, &wts, 1, 1);
        let (patches, hout, wout) = im2col(&input, 3, 3, 1, 1);
        // Weight matrix: [K, C*KH*KW]
        let mut wmat = DenseMatrix::zeros(3, 2 * 9);
        for k in 0..3 {
            for c in 0..2 {
                for r in 0..3 {
                    for s in 0..3 {
                        wmat.set(k, (c * 3 + r) * 3 + s, wts.at(&[k, c, r, s]));
                    }
                }
            }
        }
        let gemm = patches.matmul(&wmat.transpose()); // [H*W, K]
        for k in 0..3 {
            for y in 0..hout {
                for x in 0..wout {
                    let d = direct.at(&[k, y, x]);
                    let g = gemm.at(y * wout + x, k);
                    assert!((d - g).abs() < 1e-9, "mismatch at {k},{y},{x}: {d} vs {g}");
                }
            }
        }
    }

    #[test]
    fn conv2d_stride_and_pad_shapes() {
        let input = DenseTensor::zeros(&[1, 8, 8]);
        let w = DenseTensor::zeros(&[4, 1, 3, 3]);
        let out = conv2d(&input, &w, 2, 1);
        assert_eq!(out.shape(), &[4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn fiber_rejects_unsorted() {
        let _ = Fiber::new(vec![3, 1], vec![1.0, 2.0]);
    }
}
