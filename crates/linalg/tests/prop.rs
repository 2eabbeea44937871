//! Property-based tests for exact linear algebra invariants.

use proptest::prelude::*;
use stellar_linalg::{bareiss_det, IntMat, Rational};

fn small_mat(n: usize) -> impl Strategy<Value = IntMat> {
    proptest::collection::vec(-5i64..=5, n * n).prop_map(move |data| IntMat::from_vec(n, n, data))
}

/// Laplace expansion along the first row: the textbook definition, sharing
/// no step with Bareiss elimination.
fn cofactor_det(m: &[i128], n: usize) -> i128 {
    if n == 0 {
        return 1;
    }
    (0..n)
        .map(|col| {
            let minor: Vec<i128> = (1..n)
                .flat_map(|r| (0..n).filter(move |&c| c != col).map(move |c| m[r * n + c]))
                .collect();
            let sign = if col % 2 == 0 { 1 } else { -1 };
            sign * m[col] * cofactor_det(&minor, n - 1)
        })
        .sum()
}

#[test]
fn bareiss_det_reports_overflow_as_none() {
    let mut buf = [0i128; 4];
    // det = 2^64 leaves i64; one bit less still fits.
    let big = 1i64 << 32;
    assert_eq!(bareiss_det(&[big, 0, 0, big], 2, &mut buf), None);
    assert_eq!(
        bareiss_det(&[big, 0, 0, big / 4], 2, &mut buf),
        Some(1 << 62)
    );
    assert_eq!(bareiss_det(&[], 0, &mut buf), Some(1));
}

proptest! {
    #[test]
    fn bareiss_det_matches_cofactor_expansion(
        n in 1usize..=5,
        entries in proptest::collection::vec(-9i64..=9, 25),
    ) {
        // Zero-heavy matrices (every third entry cleared) exercise the
        // pivot search and the singular early return.
        for sparse in [false, true] {
            let rows: Vec<i64> = entries[..n * n]
                .iter()
                .enumerate()
                .map(|(i, &e)| if sparse && i % 3 == 0 { 0 } else { e })
                .collect();
            let wide: Vec<i128> = rows.iter().map(|&e| e as i128).collect();
            let want = i64::try_from(cofactor_det(&wide, n)).ok();
            let mut buf = vec![0i128; n * n];
            prop_assert_eq!(bareiss_det(&rows, n, &mut buf), want, "{:?}", rows);
            prop_assert_eq!(Some(IntMat::from_vec(n, n, rows).det()), want);
        }
    }

    #[test]
    fn rational_add_commutes(a in -50i64..50, b in 1i64..50, c in -50i64..50, d in 1i64..50) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
    }

    #[test]
    fn rational_add_associates(a in -20i64..20, b in 1i64..10, c in -20i64..20,
                               d in 1i64..10, e in -20i64..20, f in 1i64..10) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        let z = Rational::new(e, f);
        prop_assert_eq!((x + y) + z, x + (y + z));
        prop_assert_eq!((x * y) * z, x * (y * z));
        prop_assert_eq!(x * (y + z), x * y + x * z);
    }

    #[test]
    fn rational_sub_is_add_neg(a in -50i64..50, b in 1i64..50, c in -50i64..50, d in 1i64..50) {
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        prop_assert_eq!(x - y, x + (-y));
    }

    #[test]
    fn det_of_product_is_product_of_dets(a in small_mat(3), b in small_mat(3)) {
        prop_assert_eq!(a.mul_mat(&b).det(), a.det() * b.det());
    }

    #[test]
    fn det_transpose_invariant(a in small_mat(3)) {
        prop_assert_eq!(a.det(), a.transpose().det());
    }

    #[test]
    fn inverse_recovers_preimage(a in small_mat(3), v in proptest::collection::vec(-10i64..=10, 3)) {
        if let Some(inv) = a.inverse() {
            let image = a.mul_vec(&v);
            prop_assert_eq!(inv.mul_int_vec(&image), Some(v));
        } else {
            prop_assert_eq!(a.det(), 0);
        }
    }

    #[test]
    fn unimodular_inverse_is_integral(perm in proptest::sample::select(vec![
        [0usize, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
    ])) {
        // Permutation matrices are unimodular; inverse must be integral.
        let mut m = IntMat::zeros(3, 3);
        for (r, &c) in perm.iter().enumerate() {
            m[(r, c)] = 1;
        }
        prop_assert_eq!(m.det().abs(), 1);
        let inv = m.inverse().unwrap().to_int().unwrap();
        prop_assert_eq!(m.mul_mat(&inv), IntMat::identity(3));
    }

    #[test]
    fn mat_vec_linear(a in small_mat(3),
                      u in proptest::collection::vec(-10i64..=10, 3),
                      w in proptest::collection::vec(-10i64..=10, 3)) {
        let sum = stellar_linalg::add(&u, &w);
        let lhs = a.mul_vec(&sum);
        let rhs = stellar_linalg::add(&a.mul_vec(&u), &a.mul_vec(&w));
        prop_assert_eq!(lhs, rhs);
    }
}
