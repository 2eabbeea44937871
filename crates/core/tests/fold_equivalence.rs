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
}
