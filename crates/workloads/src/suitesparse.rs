//! A synthetic SuiteSparse suite.
//!
//! The OuterSPACE and SpArch evaluations (Figures 16b and 18 of the Stellar
//! paper) run on matrices from the SuiteSparse collection. The collection
//! itself is not redistributable here, so each entry records the *published*
//! dimensions, non-zero count, and structural class of the real matrix, and
//! [`SuiteMatrix::instantiate`] generates a synthetic matrix matching those
//! statistics (optionally scaled down for tractable simulation while
//! preserving average row length and imbalance class).

use stellar_tensor::{gen, CsrMatrix};

/// The structural class of a matrix, determining its row-length
/// distribution.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SparsityClass {
    /// FEM/PDE discretizations: banded, near-uniform row lengths.
    Fem,
    /// Web/social/citation graphs: power-law row lengths with the given
    /// skew exponent.
    PowerLaw(f64),
    /// Meshes and road networks: short, nearly constant row lengths.
    Regular,
    /// Circuit matrices: mostly banded with a few dense rows.
    Circuit,
}

/// One matrix of the suite: published statistics plus a structural class.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SuiteMatrix {
    /// The SuiteSparse name (kept so figures read like the paper's).
    pub name: &'static str,
    /// Published row count.
    pub rows: usize,
    /// Published column count.
    pub cols: usize,
    /// Published non-zero count.
    pub nnz: usize,
    /// Structural class.
    pub class: SparsityClass,
}

impl SuiteMatrix {
    /// Average non-zeros per row.
    pub fn avg_row_len(&self) -> f64 {
        self.nnz as f64 / self.rows.max(1) as f64
    }

    /// Generates a synthetic instance, scaled so that neither dimension
    /// exceeds `max_dim` (average row length is preserved; the matrix stays
    /// square if the original was).
    pub fn instantiate(&self, max_dim: usize, seed: u64) -> CsrMatrix {
        let scale = (max_dim as f64 / self.rows.max(self.cols) as f64).min(1.0);
        let rows = ((self.rows as f64 * scale).round() as usize).max(8);
        let cols = ((self.cols as f64 * scale).round() as usize).max(8);
        let avg = self.avg_row_len().max(1.0);
        match self.class {
            SparsityClass::Fem => {
                let bandwidth = ((avg * 8.0) as usize).clamp(2, cols / 2 + 1);
                gen::banded(rows.min(cols), bandwidth, avg.round() as usize, seed)
            }
            SparsityClass::PowerLaw(alpha) => gen::power_law(rows, cols, avg, alpha, seed),
            SparsityClass::Regular => {
                let nnz = ((rows as f64 * avg) as usize).min(rows * cols);
                gen::uniform_nnz(rows, cols, nnz, seed)
            }
            SparsityClass::Circuit => {
                // Banded bulk plus a handful of heavy rows.
                let base = gen::banded(
                    rows.min(cols),
                    (avg * 6.0) as usize + 2,
                    avg.round() as usize,
                    seed,
                );
                let heavy = gen::imbalanced(
                    rows.min(cols),
                    cols.min(rows),
                    (rows / 64).max(1),
                    (avg * 40.0) as usize,
                    0,
                    seed + 1,
                );
                let mut coo = base.to_coo();
                for (r, c, v) in heavy.to_coo().iter() {
                    coo.push(r, c, v);
                }
                CsrMatrix::from_coo(coo)
            }
        }
    }
}

/// The evaluation suite: the SuiteSparse matrices OuterSPACE (and SpArch)
/// were evaluated on, with their published statistics.
pub fn suite() -> Vec<SuiteMatrix> {
    use SparsityClass::*;
    vec![
        SuiteMatrix {
            name: "2cubes_sphere",
            rows: 101_492,
            cols: 101_492,
            nnz: 1_647_264,
            class: Fem,
        },
        SuiteMatrix {
            name: "amazon0312",
            rows: 400_727,
            cols: 400_727,
            nnz: 3_200_440,
            class: PowerLaw(2.1),
        },
        SuiteMatrix {
            name: "ca-CondMat",
            rows: 23_133,
            cols: 23_133,
            nnz: 186_936,
            class: PowerLaw(2.0),
        },
        SuiteMatrix {
            name: "cage12",
            rows: 130_228,
            cols: 130_228,
            nnz: 2_032_536,
            class: Fem,
        },
        SuiteMatrix {
            name: "cop20k_A",
            rows: 121_192,
            cols: 121_192,
            nnz: 2_624_331,
            class: Fem,
        },
        SuiteMatrix {
            name: "email-Enron",
            rows: 36_692,
            cols: 36_692,
            nnz: 367_662,
            class: PowerLaw(1.8),
        },
        SuiteMatrix {
            name: "filter3D",
            rows: 106_437,
            cols: 106_437,
            nnz: 2_707_179,
            class: Fem,
        },
        SuiteMatrix {
            name: "m133-b3",
            rows: 200_200,
            cols: 200_200,
            nnz: 800_800,
            class: Regular,
        },
        SuiteMatrix {
            name: "mario002",
            rows: 389_874,
            cols: 389_874,
            nnz: 2_101_242,
            class: Regular,
        },
        SuiteMatrix {
            name: "offshore",
            rows: 259_789,
            cols: 259_789,
            nnz: 4_242_673,
            class: Fem,
        },
        SuiteMatrix {
            name: "p2p-Gnutella31",
            rows: 62_586,
            cols: 62_586,
            nnz: 147_892,
            class: PowerLaw(1.9),
        },
        SuiteMatrix {
            name: "patents_main",
            rows: 240_547,
            cols: 240_547,
            nnz: 560_943,
            class: PowerLaw(2.2),
        },
        SuiteMatrix {
            name: "poisson3Da",
            rows: 13_514,
            cols: 13_514,
            nnz: 352_762,
            class: Fem,
        },
        SuiteMatrix {
            name: "roadNet-CA",
            rows: 1_971_281,
            cols: 1_971_281,
            nnz: 5_533_214,
            class: Regular,
        },
        SuiteMatrix {
            name: "scircuit",
            rows: 170_998,
            cols: 170_998,
            nnz: 958_936,
            class: Circuit,
        },
        SuiteMatrix {
            name: "web-Google",
            rows: 916_428,
            cols: 916_428,
            nnz: 5_105_039,
            class: PowerLaw(2.0),
        },
        SuiteMatrix {
            name: "webbase-1M",
            rows: 1_000_005,
            cols: 1_000_005,
            nnz: 3_105_536,
            class: PowerLaw(1.7),
        },
        SuiteMatrix {
            name: "wiki-Vote",
            rows: 8_297,
            cols: 8_297,
            nnz: 103_689,
            class: PowerLaw(1.8),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_paper_matrices() {
        let names: Vec<&str> = suite().iter().map(|m| m.name).collect();
        // §VI-D names these two explicitly.
        assert!(names.contains(&"poisson3Da"));
        assert!(names.contains(&"cop20k_A"));
        assert!(names.len() >= 16);
    }

    #[test]
    fn instantiation_preserves_avg_row_len() {
        for m in suite().iter().take(6) {
            let inst = m.instantiate(2000, 7);
            let (_, _, mean) = inst.row_length_stats();
            let want = m.avg_row_len();
            assert!(
                (mean - want).abs() / want < 0.8,
                "{}: mean row len {mean:.1} vs published {want:.1}",
                m.name
            );
        }
    }

    #[test]
    fn instantiation_respects_max_dim() {
        for m in suite() {
            let inst = m.instantiate(1000, 3);
            assert!(inst.rows() <= 1001, "{}: {} rows", m.name, inst.rows());
        }
    }

    #[test]
    fn power_law_instances_are_imbalanced() {
        let web = suite()
            .into_iter()
            .find(|m| m.name == "webbase-1M")
            .unwrap();
        let fem = suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap();
        let w = web.instantiate(2000, 5);
        let f = fem.instantiate(2000, 5);
        let (_, wmax, wmean) = w.row_length_stats();
        let (_, fmax, fmean) = f.row_length_stats();
        let w_skew = wmax as f64 / wmean.max(1e-9);
        let f_skew = fmax as f64 / fmean.max(1e-9);
        assert!(
            w_skew > 2.0 * f_skew,
            "webbase skew {w_skew:.1} should dwarf poisson3Da skew {f_skew:.1}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let m = suite()[0];
        assert_eq!(m.instantiate(500, 1), m.instantiate(500, 1));
        assert_ne!(m.instantiate(500, 1), m.instantiate(500, 2));
    }
}
