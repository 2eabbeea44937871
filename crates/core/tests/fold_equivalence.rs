//! Equivalence proofs for the dataflow-search fast path.
//!
//! The search scores candidates with [`FoldScorer`] (packed-`u64` keys, no
//! materialization) and materializes survivors with the flat-buffer
//! [`SpatialArray::from_iterspace`]. Both must be observationally identical
//! to the retained hash-based oracle, `spacetime::reference::from_iterspace`:
//! same summaries, same arrays, and the *same errors* for collision and
//! causality rejects. These properties drive random functionalities, bounds,
//! and transform matrices through all three implementations.

use proptest::prelude::*;
use stellar_core::index::{at, shifted, IdxExpr};
use stellar_core::iterspace::IoDir;
use stellar_core::prelude::*;
use stellar_core::spacetime::reference;
use stellar_core::{
    explore_dataflows, explore_dataflows_reference, summarize_array, AnalyticScorer,
    AnalyticScratch, ExploreOptions, FoldScorer, FoldScratch, IterationSpace, SpatialArray,
    StructureSummary,
};
use stellar_linalg::IntMat;

fn small_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=4, 1usize..=4, 1usize..=4)
}

/// A random 3x3 candidate matrix exactly as the `max_coeff = 2` scan would
/// enumerate it (entries in -2..=2, singular ones included so rejects are
/// exercised too).
fn candidate_matrix() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-2i64..=2, 9)
}

/// Renders every public observable of an array into one comparable string:
/// the transform matrix, PEs, connections, IO ports, the time range, and
/// each tensor's per-direction access order. (The internal io-order map is
/// a `HashMap`, so the derived `Debug` of the array itself is not stable;
/// this canonical image is.)
fn canonical_image(arr: &SpatialArray, func: &Functionality) -> String {
    let mut img = String::new();
    img.push_str(&format!("transform: {:?}\n", arr.transform().matrix()));
    img.push_str(&format!("pes: {:?}\n", arr.pes()));
    img.push_str(&format!("conns: {:?}\n", arr.conns()));
    img.push_str(&format!("io_ports: {:?}\n", arr.io_ports()));
    img.push_str(&format!("time_range: {:?}\n", arr.time_range()));
    for tensor in func.tensors() {
        for dir in [IoDir::Read, IoDir::Write] {
            img.push_str(&format!(
                "order[{tensor:?}, {dir:?}]: {:?}\n",
                arr.access_order(tensor, dir)
            ));
        }
    }
    img
}

/// A running sum along the last of `rank` indices,
/// `y(i0, ..) = Σ_last x(i0, .., last)`: one recurrence, one input and one
/// output tensor, at any rank — what takes the point fold off its unrolled
/// rank-3 arm.
fn prefix_sum(rank: usize) -> Functionality {
    let mut f = Functionality::new(format!("prefix_sum_r{rank}"));
    let idxs: Vec<_> = (0..rank).map(|i| f.index(format!("i{i}"))).collect();
    let last = idxs[rank - 1];
    let x = f.input_tensor("x", &idxs);
    let y = f.output_tensor("y", &idxs[..rank - 1]);
    let v = f.var("v");
    let here: Vec<_> = idxs.iter().map(|&i| at(i)).collect();
    let with_last = |e| {
        let mut ixs = here.clone();
        ixs[rank - 1] = e;
        ixs
    };
    f.assign(
        v,
        with_last(IdxExpr::Lower(last)),
        Expr::Input(x, here.clone()),
    );
    f.assign(
        v,
        here.clone(),
        Expr::add(
            Expr::Var(v, with_last(shifted(last, -1))),
            Expr::Input(x, here.clone()),
        ),
    );
    f.output(
        y,
        here[..rank - 1].to_vec(),
        Expr::Var(v, with_last(IdxExpr::Upper(last))),
    );
    f
}

/// `v(p) = v(p − d) + x(p)` over `(i, j, k)`, written out as
/// `y(i, k) = v(i, j.upper, k)`: one recurrence along a fixed difference
/// `d ≥ 0`. (`validate` rejects reads of future iterations, so no
/// difference vector has a negative entry; the sign sensitivity the
/// kernel table must respect comes from the kernel direction instead —
/// `v = (1, −1, 0)` against `d = (1, 1, 0)`.)
fn recurrence_along(d: [i64; 3]) -> Functionality {
    let mut f = Functionality::new(format!("recurrence_{}_{}_{}", d[0], d[1], d[2]));
    let idxs: Vec<_> = ["i", "j", "k"].iter().map(|n| f.index(*n)).collect();
    let x = f.input_tensor("x", &idxs);
    let y = f.output_tensor("y", &[idxs[0], idxs[2]]);
    let v = f.var("v");
    let here: Vec<_> = idxs.iter().map(|&i| at(i)).collect();
    let back: Vec<_> = idxs.iter().zip(d).map(|(&i, dd)| shifted(i, -dd)).collect();
    f.assign(
        v,
        here.clone(),
        Expr::add(Expr::Var(v, back), Expr::Input(x, here.clone())),
    );
    f.output(
        y,
        vec![here[0], here[2]],
        Expr::Var(v, vec![here[0], IdxExpr::Upper(idxs[1]), here[2]]),
    );
    f
}

/// The rank-3 functionalities of the kernel-class proofs: matmul (every
/// difference an axis) and two diagonal recurrences.
fn rank3_func(which: usize) -> Functionality {
    match which {
        0 => Functionality::matmul(1, 1, 1),
        1 => recurrence_along([1, 1, 0]),
        _ => recurrence_along([0, 1, 1]),
    }
}

/// Rank-3 candidates with entries in `-3..=3`: uniformly random, or with
/// space rows whose kernel is `±(1, 1, 0)`, `±(1, −1, 0)` or `±(0, 1, 1)`
/// — the kernels against which a diagonal recurrence is stationary or not
/// depending on the kernel's signs, which random rows rarely hit.
fn rank3_rows() -> impl Strategy<Value = Vec<i64>> {
    let space = [[1, -1, 0, 0, 0, 1], [1, 1, 0, 0, 0, 1], [0, 1, -1, 1, 0, 0]];
    prop_oneof![
        proptest::collection::vec(-3i64..=3, 9),
        (
            proptest::sample::select(space.to_vec()),
            proptest::collection::vec(-3i64..=3, 3),
        )
            .prop_map(|(space, t)| [space.to_vec(), t].concat()),
    ]
}

/// Random box bounds: a lower bound in `-2..=2` and an extent in `1..=4`
/// per axis.
fn box_ranges(rank: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((-2i64..=2, 1i64..=4), rank)
        .prop_map(|axes| axes.into_iter().map(|(lo, e)| (lo, lo + e)).collect())
}

/// Re-mixes the `rank − 1` space rows of a flat candidate by a random
/// unimodular `U` — a product of elementary row operations: add `m ×` one
/// row to another, swap two rows, negate a row. The time row is untouched.
fn unimodular_mix(rows: &[i64], rank: usize, ops: &[(u8, usize, usize, i64)]) -> Vec<i64> {
    let mut out = rows.to_vec();
    let n = rank - 1;
    for &(op, a, b, m) in ops {
        let (a, b) = (a % n, b % n);
        match op % 3 {
            0 if a != b => {
                for c in 0..rank {
                    out[a * rank + c] += m * out[b * rank + c];
                }
            }
            1 => {
                for c in 0..rank {
                    out.swap(a * rank + c, b * rank + c);
                }
            }
            _ => {
                for x in &mut out[a * rank..(a + 1) * rank] {
                    *x = -*x;
                }
            }
        }
    }
    out
}

fn mix_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    proptest::collection::vec((0u8..3, 0usize..3, 0usize..3, -2i64..=2), 0..5)
}

/// The kernel-class invariance the search's table relies on, for one
/// candidate `rows` (entries within `max_coeff`) and one re-mix of its
/// space rows:
///
/// * the kernel table's summary (class counts plus `time_steps`) equals
///   `score_rows`, which equals the fold — and the table declines exactly
///   when `score_rows` does;
/// * re-mixing the space rows by a unimodular `U` changes neither the
///   table's class and counts (its raw cofactors are `det U = ±1` times
///   the original's), nor `score_rows`, nor the fold's summary.
fn check_kernel_class(
    f: &Functionality,
    ranges: &[(i64, i64)],
    rows: &[i64],
    ops: &[(u8, usize, usize, i64)],
    max_coeff: i64,
) -> Result<(), TestCaseError> {
    let rank = ranges.len();
    if IntMat::from_vec(rank, rank, rows.to_vec()).det() == 0 {
        return Ok(()); // the search rejects singular matrices before scoring
    }
    let is = IterationSpace::elaborate(f, &Bounds::from_ranges(ranges)).unwrap();
    let analytic = AnalyticScorer::try_new(&is, f);
    prop_assert!(
        analytic.is_some(),
        "{} must admit the analytical tier",
        f.name()
    );
    let analytic = analytic.unwrap();
    let table = analytic.kernel_table(max_coeff);
    prop_assert!(
        table.is_some(),
        "max_coeff {max_coeff} must fit a kernel table"
    );
    let table = table.unwrap();
    let fold = FoldScorer::new(&is, f);
    let mut ascratch = AnalyticScratch::for_scorer(&analytic);
    let mut fscratch = FoldScratch::for_scorer(&fold);
    let n_space = rank * (rank - 1);

    let mut table_summary = |rows: &[i64]| -> Option<(usize, StructureSummary)> {
        let (class, counts) = table.lookup(ascratch.cofactors(&rows[..n_space]))?;
        Some((
            class,
            counts.with_time_steps(analytic.time_steps(&rows[n_space..])?),
        ))
    };
    let mixed = unimodular_mix(rows, rank, ops);
    let tabled = table_summary(rows);
    let tabled_mixed = table_summary(&mixed);
    prop_assert_eq!(tabled, tabled_mixed, "the re-mix moved the kernel class");

    let scored = analytic.score_rows(rows, &mut ascratch);
    let scored_mixed = analytic.score_rows(&mixed, &mut ascratch);
    prop_assert_eq!(
        scored,
        scored_mixed,
        "the re-mix changed the analytic summary"
    );
    prop_assert_eq!(
        tabled.map(|(_, s)| s),
        scored,
        "table and score_rows disagree"
    );

    let folded = fold
        .score_rows(rows, &mut fscratch)
        .expect("small folds are packable");
    let folded_mixed = fold.score_rows(&mixed, &mut fscratch).expect("packable");
    prop_assert_eq!(
        folded.as_ref().ok(),
        folded_mixed.as_ref().ok(),
        "the re-mix changed the fold"
    );
    match (scored, folded) {
        (Some(s), Ok(fs)) => prop_assert_eq!(s, fs),
        (None, Err(_)) => {}
        (scored, folded) => {
            return Err(TestCaseError::fail(format!(
                "analytic and fold disagree on {rows:?}: {scored:?} vs {folded:?}"
            )));
        }
    }
    Ok(())
}

/// For one candidate matrix over one space: the scorer returns exactly
/// what the reference fold computes — key-equal summaries on success, the
/// byte-identical `CompileError` on collision or causality rejects — and
/// the flat-buffer fold agrees with the reference fold on the full array
/// image, not just the summary.
fn check_against_reference(
    f: &Functionality,
    extents: &[usize],
    entries: Vec<i64>,
) -> Result<(), TestCaseError> {
    let rank = extents.len();
    let is = IterationSpace::elaborate(f, &Bounds::from_extents(extents)).unwrap();
    let mat = IntMat::from_vec(rank, rank, entries);
    if mat.det() == 0 {
        return Ok(()); // the search rejects singular matrices before scoring
    }
    let t = SpaceTimeTransform::new(mat).unwrap();

    let scorer = FoldScorer::new(&is, f);
    let mut scratch = FoldScratch::for_scorer(&scorer);
    let scored = scorer.score(&t, &mut scratch);
    prop_assert!(scored.is_some(), "small folds must be packable");

    let oracle = reference::from_iterspace(&is, f, &t);
    let flat = SpatialArray::from_iterspace(&is, f, &t);
    match (scored.unwrap(), oracle) {
        (Ok(summary), Ok(ref_arr)) => {
            prop_assert_eq!(summary, summarize_array(&ref_arr));
            let flat_arr = flat.unwrap();
            prop_assert_eq!(summary, summarize_array(&flat_arr));
            prop_assert_eq!(canonical_image(&flat_arr, f), canonical_image(&ref_arr, f));
        }
        (Err(scorer_err), Err(ref_err)) => {
            prop_assert_eq!(&scorer_err, &ref_err);
            prop_assert_eq!(flat.unwrap_err(), ref_err);
        }
        (scored, oracle) => {
            return Err(TestCaseError::fail(format!(
                "scorer and reference disagree: {scored:?} vs {oracle:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The unrolled rank-3 arm of the point fold, on matmul (three
    /// recurrences, three tensors).
    #[test]
    fn scorer_and_flat_fold_match_reference(
        (m, n, k) in small_dims(),
        entries in candidate_matrix(),
    ) {
        check_against_reference(&Functionality::matmul(m, n, k), &[m, n, k], entries)?;
    }

    /// The generic arm (ranks 2 and 5) and the unrolled rank-4 arm, on a
    /// running sum of that rank.
    #[test]
    fn scorer_and_flat_fold_match_reference_at_other_ranks(
        rank in proptest::sample::select(vec![2usize, 4, 5]),
        dims in proptest::collection::vec(1usize..=3, 5),
        entries in proptest::collection::vec(-2i64..=2, 25),
    ) {
        check_against_reference(
            &prefix_sum(rank),
            &dims[..rank],
            entries[..rank * rank].to_vec(),
        )?;
    }

    /// The analytical scoring tier agrees with the exact integer fold on
    /// every candidate it claims: wherever the closed forms apply
    /// (`score_rows` returns `Some`), the summary is key-equal to the
    /// fold's; wherever the fold rejects (causality under the transform),
    /// the analytical tier must have deferred (`None`) rather than
    /// invented a structure. With entries in `-2..=2` and small dims, no
    /// overflow certificate can fire, so the correspondence is exact:
    /// fold `Ok(s)` ⇔ analytic `Some(s)`.
    #[test]
    fn analytic_tier_matches_the_fold(
        (m, n, k) in small_dims(),
        entries in candidate_matrix(),
    ) {
        let f = Functionality::matmul(m, n, k);
        let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[m, n, k])).unwrap();
        let mat = IntMat::from_vec(3, 3, entries.clone());
        if mat.det() == 0 {
            return Ok(()); // the search rejects singular matrices before scoring
        }
        let t = SpaceTimeTransform::new(mat).unwrap();

        let analytic = AnalyticScorer::try_new(&is, &f);
        prop_assert!(analytic.is_some(), "matmul spaces must admit the analytical tier");
        let analytic = analytic.unwrap();
        let mut ascratch = AnalyticScratch::for_scorer(&analytic);
        let rows: Vec<i64> = {
            let m = t.matrix();
            (0..m.rows()).flat_map(|r| m.row(r).to_vec()).collect()
        };
        let summary = analytic.score_rows(&rows, &mut ascratch);

        let scorer = FoldScorer::new(&is, &f);
        let mut scratch = FoldScratch::for_scorer(&scorer);
        let folded = scorer.score(&t, &mut scratch).expect("matmul folds must be packable");

        match (summary, folded) {
            (Some(s), Ok(fold_s)) => prop_assert_eq!(s, fold_s),
            (None, Err(_)) => {}
            (summary, folded) => {
                return Err(TestCaseError::fail(format!(
                    "analytic and fold disagree on {entries:?}: {summary:?} vs {folded:?}"
                )));
            }
        }
        if let Some(s) = summary {
            let u = analytic.utilization_bound(&s);
            prop_assert!((0.0..=1.0).contains(&u), "utilization bound {u} out of range");
        }
    }

    /// The fast-path search returns byte-identical rankings to the retained
    /// oracle scan, and materializing each survivor reproduces the exact
    /// structure fields the scorer ranked it on.
    #[test]
    fn explore_matches_reference_and_materializes_faithfully(
        (m, n, k) in small_dims(),
        parallelism in 0usize..=3,
    ) {
        let f = Functionality::matmul(m, n, k);
        let bounds = Bounds::from_extents(&[m, n, k]);
        let opts = ExploreOptions {
            parallelism,
            ..ExploreOptions::default()
        };
        let fast = explore_dataflows(&f, &bounds, &opts).unwrap();
        let oracle = explore_dataflows_reference(&f, &bounds, &opts).unwrap().results;
        prop_assert_eq!(&fast, &oracle);

        let is = IterationSpace::elaborate(&f, &bounds).unwrap();
        for e in &fast {
            let arr = e.materialize(&is, &f).unwrap();
            prop_assert_eq!(e.summary(), summarize_array(&arr));
        }
    }

    /// The kernel-class invariance at rank 3 over random boxes, entries
    /// in `-3..=3` (the 7⁹ sweep's), and random unimodular re-mixes — on
    /// matmul and on the diagonal recurrences, where stationarity depends
    /// on the kernel's sign pattern and not just its magnitudes.
    #[test]
    fn kernel_table_matches_score_rows_and_the_fold(
        which in 0usize..3,
        ranges in box_ranges(3),
        rows in rank3_rows(),
        ops in mix_ops(),
    ) {
        check_kernel_class(&rank3_func(which), &ranges, &rows, &ops, 3)?;
    }

    /// The same at rank 2 (`max_coeff = 3`), through the Bareiss arm of
    /// the cofactor routine.
    #[test]
    fn kernel_table_matches_at_rank_2(
        ranges in box_ranges(2),
        rows in proptest::collection::vec(-3i64..=3, 4),
        ops in mix_ops(),
    ) {
        check_kernel_class(&prefix_sum(2), &ranges, &rows, &ops, 3)?;
    }
}

proptest! {
    // A rank-4 table walks 3¹² space-row tuples through Bareiss minors;
    // a few cases keep debug builds quick.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same at rank 4, through the Bareiss arm of the cofactor routine
    /// (`max_coeff = 1`; rank 4 at 2 exceeds the table's bit budget).
    #[test]
    fn kernel_table_matches_at_rank_4(
        ranges in box_ranges(4),
        rows in proptest::collection::vec(-1i64..=1, 16),
        ops in mix_ops(),
    ) {
        check_kernel_class(&prefix_sum(4), &ranges, &rows, &ops, 1)?;
    }
}

/// Kernels `(1, 1, 0)` and `(1, −1, 0)` cut every box into the same lines,
/// but only the first is parallel to the diagonal recurrence
/// `d = (1, 1, 0)`: its wires stay in their PE. A table keyed on `|v|`
/// would give both candidates one summary.
#[test]
fn stationarity_follows_the_signed_kernel() {
    let f = recurrence_along([1, 1, 0]);
    let is = IterationSpace::elaborate(&f, &Bounds::from_extents(&[3, 3, 3])).unwrap();
    let analytic = AnalyticScorer::try_new(&is, &f).unwrap();
    let table = analytic.kernel_table(1).unwrap();
    let fold = FoldScorer::new(&is, &f);
    let mut ascratch = AnalyticScratch::for_scorer(&analytic);
    let mut fscratch = FoldScratch::for_scorer(&fold);
    // Space rows with kernel ∝ (1, 1, 0), then ∝ (1, −1, 0); time row (1, 0, 1).
    let along = [1, -1, 0, 0, 0, 1, 1, 0, 1];
    let across = [1, 1, 0, 0, 0, 1, 1, 0, 1];
    let mut summaries = Vec::new();
    for rows in [along, across] {
        let folded = fold.score_rows(&rows, &mut fscratch).unwrap().unwrap();
        let (_, counts) = table.lookup(ascratch.cofactors(&rows[..6])).unwrap();
        assert_eq!(
            counts.with_time_steps(analytic.time_steps(&rows[6..]).unwrap()),
            folded
        );
        assert_eq!(analytic.score_rows(&rows, &mut ascratch), Some(folded));
        summaries.push(folded);
    }
    assert_eq!(summaries[0].num_pes, summaries[1].num_pes);
    assert_eq!(
        (summaries[0].moving_conns, summaries[1].stationary_conns),
        (0, 0)
    );
    assert!(summaries[0].stationary_conns > 0 && summaries[1].moving_conns > 0);
}
