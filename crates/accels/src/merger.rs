//! The merger comparison of §VI-D (Figure 18): row-partitioned
//! (GAMMA-like, throughput 32) vs flattened (SpArch-like, throughput 16)
//! mergers, merging partial matrices in SpArch's proposed execution order.
//!
//! SpArch's loop order condenses `A`'s columns and merges the partial
//! matrices produced by *consecutive groups* of columns; these "many small
//! partial matrices ... can have highly imbalanced row-lengths", which is
//! exactly what hurts the cheaper row-partitioned merger.

use stellar_sim::{
    FlattenedMerger, MergeCounter, MergeStats, Merger, RowPartitionedMerger, SimError, Watchdog,
};
use stellar_tensor::CsrMatrix;
use stellar_workloads::SuiteMatrix;

/// Per-matrix comparison result: the y-values of one Figure 18 column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergerComparison {
    /// Merged elements per cycle on the 32-lane row-partitioned merger.
    pub row_partitioned_epc: f64,
    /// Merged elements per cycle on the 16-wide flattened merger.
    pub flattened_epc: f64,
}

impl MergerComparison {
    /// Row-partitioned performance relative to flattened.
    pub fn relative(&self) -> f64 {
        if self.flattened_epc == 0.0 {
            0.0
        } else {
            self.row_partitioned_epc / self.flattened_epc
        }
    }
}

/// Calls `each` once per merge batch of `A·A` in SpArch's execution order,
/// with the merged length of every output row of that batch.
///
/// A batch merges the partial matrices of `ways` consecutive non-empty
/// contraction indices `k` (column `k` holds a non-zero and row `k` an
/// entry), so it covers a contiguous `k` range, and row `i`'s entries of
/// `A` in that range are one contiguous run of its CSR row. The lengths
/// come straight from that run: row `i` accumulates `A[i,k]·A[k,j]` over
/// row `k` in ascending `k`, the same add order in which a
/// [`MergeCounter`] sums the batch's per-row fibers, so the `!= 0.0`
/// cancellation count is bit-identical without materializing a partial
/// matrix or a fiber.
///
/// # Panics
///
/// Panics if `a` is not square.
fn sparch_batch_lengths(a: &CsrMatrix, ways: usize, mut each: impl FnMut(&[u64])) {
    assert_eq!(a.cols(), a.rows(), "inner dimensions must agree");
    let n = a.rows();
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    // Explicit zeros are skipped throughout: the CSC copy of A that the
    // multiply phase streams holds none.
    let mut col_nonzero = vec![false; n];
    for (&k, &v) in col_idx.iter().zip(values) {
        if v != 0.0 {
            col_nonzero[k] = true;
        }
    }
    let ks: Vec<usize> = (0..n)
        .filter(|&k| col_nonzero[k] && a.row_len(k) > 0)
        .collect();
    // `cursor[i]` is where row i's entries past the previous batch begin.
    // Entries between two batches' ranges add nothing: their column holds
    // a non-zero, so their row of A is empty.
    let mut cursor = row_ptr[..n].to_vec();
    let mut lengths = vec![0u64; n];
    let mut counter = MergeCounter::default();
    for batch in ks.chunks(ways.max(1)) {
        let last = batch[batch.len() - 1];
        for (i, len) in lengths.iter_mut().enumerate() {
            let start = cursor[i];
            let end = start + col_idx[start..row_ptr[i + 1]].partition_point(|&k| k <= last);
            cursor[i] = end;
            if start == end {
                *len = 0;
                continue;
            }
            counter.begin_row(n);
            for (&k, &av) in col_idx[start..end].iter().zip(&values[start..end]) {
                if av != 0.0 {
                    let (js, bvs) = a.row(k);
                    for (&j, &bv) in js.iter().zip(bvs) {
                        counter.add(j, av * bv);
                    }
                }
            }
            *len = counter.end_row();
        }
        each(&lengths);
    }
}

/// Runs both mergers over all batches of one matrix, giving each batch's
/// row lengths to both.
///
/// # Errors
///
/// Returns [`SimError`] if a batch exceeds the merger's cycle budget (the
/// row-partitioned merger's first such error if it has one, else the
/// flattened merger's).
pub fn compare_mergers(a: &CsrMatrix, ways: usize) -> Result<MergerComparison, SimError> {
    let rp = RowPartitionedMerger::paper_config();
    let fl = FlattenedMerger::paper_config();
    let watchdog = Watchdog::default_budget();
    let mut rp_total = Ok(MergeStats::default());
    let mut fl_total = Ok(MergeStats::default());
    sparch_batch_lengths(a, ways, |lengths| {
        accumulate(&mut rp_total, || rp.simulate_lengths(lengths, &watchdog));
        accumulate(&mut fl_total, || fl.simulate_lengths(lengths, &watchdog));
    });
    Ok(MergerComparison {
        row_partitioned_epc: rp_total?.elements_per_cycle(),
        flattened_epc: fl_total?.elements_per_cycle(),
    })
}

/// Adds one batch's cycles and merged elements to a running total; once a
/// batch fails, the total keeps that first error and no later batch runs.
fn accumulate(
    total: &mut Result<MergeStats, SimError>,
    batch: impl FnOnce() -> Result<MergeStats, SimError>,
) {
    if let Ok(t) = total {
        match batch() {
            Ok(s) => {
                t.cycles += s.cycles;
                t.merged_elements += s.merged_elements;
            }
            Err(e) => *total = Err(e),
        }
    }
}

/// Runs the comparison on a synthetic SuiteSparse instance.
///
/// # Errors
///
/// Returns [`SimError`] if a batch exceeds the merger's cycle budget.
pub fn compare_on_suite_matrix(
    m: &SuiteMatrix,
    ways: usize,
    seed: u64,
) -> Result<MergerComparison, SimError> {
    let a = m.instantiate(2048, seed);
    compare_mergers(&a, ways)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_sim::rows_of_partials;
    use stellar_tensor::ops::{merge_fibers, spgemm_outer_partials, Fiber};
    use stellar_tensor::{gen, CscMatrix};
    use stellar_workloads::suite;

    /// The merge batches for `A·A` in SpArch's execution order, built by
    /// materializing every partial matrix and every per-row fiber: the
    /// oracle for [`sparch_batch_lengths`].
    fn sparch_merge_batches(a: &CsrMatrix, ways: usize) -> Vec<Vec<Vec<Fiber>>> {
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(a), a);
        partials
            .chunks(ways.max(1))
            .map(|chunk| rows_of_partials(a.rows(), chunk))
            .collect()
    }

    /// The comparison [`compare_mergers`] replaced: materialize the
    /// batches, then run each merger over all of them on the fiber path.
    fn compare_mergers_two_pass(a: &CsrMatrix, ways: usize) -> Result<MergerComparison, SimError> {
        let batches = sparch_merge_batches(a, ways);
        let run = |m: &dyn Merger| -> Result<f64, SimError> {
            let mut total = MergeStats::default();
            for batch in &batches {
                let s = m.simulate(batch)?;
                total.cycles += s.cycles;
                total.merged_elements += s.merged_elements;
            }
            Ok(total.elements_per_cycle())
        };
        Ok(MergerComparison {
            row_partitioned_epc: run(&RowPartitionedMerger::paper_config())?,
            flattened_epc: run(&FlattenedMerger::paper_config())?,
        })
    }

    fn batch_lengths(a: &CsrMatrix, ways: usize) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        sparch_batch_lengths(a, ways, |lengths| out.push(lengths.to_vec()));
        out
    }

    /// `merge_fibers` lengths of every row of every materialized batch.
    fn materialized_lengths(a: &CsrMatrix, ways: usize) -> Vec<Vec<u64>> {
        sparch_merge_batches(a, ways)
            .iter()
            .map(|rows| rows.iter().map(|f| merge_fibers(f).len() as u64).collect())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The direct batch lengths equal `merge_fibers` over the
        /// materialized batches, row for row, and the comparison built on
        /// them equals the two-pass one bit for bit.
        #[test]
        fn direct_lengths_match_materialized_batches(
            n in 0usize..24,
            fill in 0u64..=8,
            seed in proptest::num::u64::ANY,
            ways in 1usize..=20,
        ) {
            let a = crate::testing::raw_csr(n, n, fill, seed);
            proptest::prop_assert_eq!(batch_lengths(&a, ways), materialized_lengths(&a, ways));
            let got = compare_mergers(&a, ways).unwrap();
            let want = compare_mergers_two_pass(&a, ways).unwrap();
            let bits = |c: MergerComparison| {
                (c.row_partitioned_epc.to_bits(), c.flattened_epc.to_bits())
            };
            proptest::prop_assert_eq!(bits(got), bits(want));
        }
    }

    #[test]
    fn exact_cancellation_leaves_the_count() {
        // Row 0 of A·A: A[0,1]·A[1,2] + A[0,2]·A[2,2] = 1·2 + 2·(−1) = 0,
        // so coordinate 2 cancels when k = 1 and k = 2 share a batch and
        // survives when they do not.
        let a = CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![1, 2, 2, 2],
            vec![1.0, 2.0, 2.0, -1.0],
        );
        assert_eq!(batch_lengths(&a, 2), vec![vec![0, 1, 1]]);
        assert_eq!(batch_lengths(&a, 1), vec![vec![1, 0, 0], vec![1, 1, 1]]);
        for ways in 1..=2 {
            assert_eq!(batch_lengths(&a, ways), materialized_lengths(&a, ways));
        }
    }

    #[test]
    fn adds_in_ascending_k() {
        // Row 0 of A·A at column 0 sums 1.0, −1.0, 1e-17 for k = 1, 2, 3.
        // In that order the sum is 1e-17 and counts; summed from k = 3
        // down, 1e-17 is absorbed by −1.0 and the sum cancels to 0.
        let a = CsrMatrix::from_raw(
            4,
            4,
            vec![0, 3, 4, 5, 6],
            vec![1, 2, 3, 0, 0, 0],
            vec![1.0, 1.0, 1.0, 1.0, -1.0, 1e-17],
        );
        let lengths = batch_lengths(&a, 4);
        assert_eq!(lengths[0][0], 1);
        assert_eq!(lengths, materialized_lengths(&a, 4));
    }

    #[test]
    fn balanced_fem_favors_row_partitioned() {
        // poisson3Da-like matrices have near-uniform row lengths: the
        // 32-lane merger's higher peak wins (§VI-D: "on four of the
        // matrices, the smaller, row-partitioned merger performed better").
        let fem = suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap();
        let c = compare_on_suite_matrix(&fem, 16, 3).unwrap();
        assert!(
            c.relative() > 0.8,
            "poisson3Da: row-partitioned should be competitive, got {:.2}",
            c.relative()
        );
    }

    #[test]
    fn skewed_graph_favors_flattened() {
        let web = suite()
            .into_iter()
            .find(|m| m.name == "webbase-1M")
            .unwrap();
        let fem = suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap();
        let cw = compare_on_suite_matrix(&web, 16, 3).unwrap();
        let cf = compare_on_suite_matrix(&fem, 16, 3).unwrap();
        assert!(
            cw.relative() < cf.relative(),
            "webbase {:.2} should be worse for row-partitioned than poisson3Da {:.2}",
            cw.relative(),
            cf.relative()
        );
    }

    #[test]
    fn flattened_capped_at_16() {
        let a = gen::uniform(256, 256, 0.1, 5);
        let c = compare_mergers(&a, 16).unwrap();
        assert!(c.flattened_epc <= 16.0 + 1e-9);
        assert!(c.row_partitioned_epc <= 32.0 + 1e-9);
    }

    #[test]
    fn batches_cover_all_partials() {
        let a = gen::uniform(64, 64, 0.15, 8);
        let batches = sparch_merge_batches(&a, 8);
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &a);
        assert_eq!(batches.len(), partials.len().div_ceil(8));
    }
}
