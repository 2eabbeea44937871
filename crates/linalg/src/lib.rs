//! Exact integer and rational linear algebra for Stellar's space-time
//! transforms.
//!
//! Stellar dataflows are *invertible integer matrices* mapping a tensor
//! iteration space to physical space and time coordinates (Equation 1 of the
//! paper). Inverting such a matrix in floating point would introduce rounding
//! error into coordinate recovery (`T⁻¹ · (x, y, t)` must reproduce the exact
//! tensor iterators), so this crate provides exact arithmetic:
//!
//! * [`Rational`] — a normalized `i64`-backed rational number.
//! * [`IntMat`] — a dense integer matrix with exact determinant and
//!   adjugate-based inverse.
//! * [`bareiss_det`] — the one determinant kernel (Bareiss fraction-free
//!   elimination into a caller buffer), shared by [`IntMat::det`] and
//!   the cofactors that decide the dataflow scan's singularity test.
//! * [`RatMat`] — a dense rational matrix, used for inverses.
//! * [`IntVec`] — convenience alias plus helpers for lattice vectors.
//!
//! # Examples
//!
//! ```
//! use stellar_linalg::IntMat;
//!
//! // The output-stationary matmul space-time transform from Figure 2b.
//! let t = IntMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[1, 1, 1]]);
//! assert_eq!(t.det(), 1);
//! let inv = t.inverse().expect("T is invertible");
//! let xyt = t.mul_vec(&[2, 3, 4]);
//! let ijk = inv.mul_int_vec(&xyt).expect("exact integer preimage");
//! assert_eq!(ijk, vec![2, 3, 4]);
//! ```

mod matrix;
mod rational;
mod vector;

pub use matrix::{bareiss_det, IntMat, RatMat};
pub use rational::Rational;
pub use vector::{add, dot, is_zero, scale, sub, IntVec};
