//! The OuterSPACE-class sparse matrix-multiplication accelerator (§VI-C,
//! Figure 16b).
//!
//! OuterSPACE computes `A·A` by outer products: the multiply phase streams
//! column `k` of `A` (CSC) against row `k` of `A` (CSR), scattering partial
//! vectors through DRAM; the merge phase reads back each scattered vector
//! via a *pointer*, then merges. The pointers are the bottleneck the paper
//! dissects: "despite comprising less than 10% of the total memory traffic
//! ... accesses to these pointers initially posed a severe memory
//! bottleneck", because Stellar's default DMA tracks one outstanding
//! request.

use stellar_sim::DmaModel;
use stellar_tensor::CsrMatrix;
use stellar_workloads::SuiteMatrix;

/// Configuration of the OuterSPACE-class run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OuterSpaceConfig {
    /// The DMA (slots = outstanding requests; 1 = Stellar default, 16 =
    /// the §VI-C fix).
    pub dma: DmaModel,
    /// Clock frequency in GHz (OuterSPACE reports 1.5 GHz).
    pub freq_ghz: f64,
    /// Parallel compute lanes (PEs × multipliers); OuterSPACE has 256 PEs.
    pub compute_lanes: usize,
    /// Models the hand-written design's custom memory path, which streams
    /// pointer blocks through dedicated request queues rather than the
    /// general-purpose DMA.
    pub handwritten_memory_path: bool,
}

impl OuterSpaceConfig {
    /// The initial Stellar-generated configuration (default 1-request DMA).
    pub fn stellar_default() -> OuterSpaceConfig {
        OuterSpaceConfig {
            dma: DmaModel::with_slots(1),
            freq_ghz: 1.5,
            compute_lanes: 256,
            handwritten_memory_path: false,
        }
    }

    /// The §VI-C fix: 16 independent DRAM requests per cycle, same total
    /// bandwidth.
    pub fn stellar_fixed() -> OuterSpaceConfig {
        OuterSpaceConfig {
            dma: DmaModel::with_slots(16),
            ..OuterSpaceConfig::stellar_default()
        }
    }

    /// A model of the hand-written OuterSPACE (2.9 GFLOP/s average in its
    /// paper).
    pub fn handwritten() -> OuterSpaceConfig {
        OuterSpaceConfig {
            dma: DmaModel::with_slots(64),
            handwritten_memory_path: true,
            ..OuterSpaceConfig::stellar_default()
        }
    }
}

/// The result of one SpGEMM run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OuterSpaceResult {
    /// Floating-point operations (2 × partial products).
    pub flops: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles in the multiply phase.
    pub multiply_cycles: u64,
    /// Cycles in the merge phase.
    pub merge_cycles: u64,
    /// Cycles spent on scattered pointer accesses (the bottleneck).
    pub pointer_cycles: u64,
    /// Achieved throughput in GFLOP/s.
    pub gflops: f64,
}

/// Runs `A·A` through the phase model for one synthetic instance of the
/// given SuiteSparse matrix under each of `cfgs`: the matrix is
/// instantiated and counted once, then every config is a closed form over
/// that count. Results come back in `cfgs` order.
pub fn outerspace_throughput(
    m: &SuiteMatrix,
    cfgs: &[OuterSpaceConfig],
    seed: u64,
) -> Vec<OuterSpaceResult> {
    // Keep instances tractable while preserving row statistics.
    let count = OperandCount::of(&m.instantiate(4096, seed));
    cfgs.iter().map(|cfg| count.evaluate(cfg)).collect()
}

/// Runs `A·A` on a concrete matrix.
pub fn outerspace_throughput_on(a: &CsrMatrix, cfg: &OuterSpaceConfig) -> OuterSpaceResult {
    OperandCount::of(a).evaluate(cfg)
}

/// Everything the phase model reads of the operand `A` of `A·A`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct OperandCount {
    /// Entries over all partial vectors: `Σₖ nnz(A[:,k]) · nnz(A[k,:])`.
    partial_products: u64,
    /// One partial vector per (k, non-zero of column k) with row k
    /// non-empty.
    num_vectors: u64,
    /// Stored entries of `A`.
    nnz: u64,
    /// Rows of `A`.
    rows: u64,
}

impl OperandCount {
    /// Counts `a` in one pass over its CSR arrays. Column lengths come
    /// from a histogram over `col_idx()` that skips explicit zeros, as the
    /// CSC copy of `a` (which the multiply phase streams) drops them.
    fn of(a: &CsrMatrix) -> OperandCount {
        let n = a.rows().min(a.cols());
        let mut col_len = vec![0u64; n];
        for (&c, &v) in a.col_idx().iter().zip(a.values()) {
            if c < n && v != 0.0 {
                col_len[c] += 1;
            }
        }
        // One partial vector per (k, row of A column k); vector length =
        // nnz(row k of A).
        let mut partial_products: u64 = 0;
        let mut num_vectors: u64 = 0;
        for (k, &col_nnz) in col_len.iter().enumerate() {
            let row_nnz = a.row_len(k) as u64;
            partial_products += col_nnz * row_nnz;
            num_vectors += if row_nnz > 0 { col_nnz } else { 0 };
        }
        OperandCount {
            partial_products,
            num_vectors,
            nnz: a.nnz() as u64,
            rows: a.rows() as u64,
        }
    }

    /// The phase model under `cfg`.
    fn evaluate(&self, cfg: &OuterSpaceConfig) -> OuterSpaceResult {
        let OperandCount {
            partial_products,
            num_vectors,
            nnz,
            rows,
        } = *self;
        let flops = 2 * partial_products;
        let wpc = cfg.dma.dram.words_per_cycle;
        // Scattered short-vector streams pay DRAM row-activation overheads:
        // roughly a third of peak sequential bandwidth.
        let wpc_scattered = wpc / 3.0;

        // Multiply phase: stream A (CSR + CSC) contiguously, write partial
        // vectors (small scattered runs) and one pointer per vector
        // (fire-and-forget writes: no control dependency).
        let a_words = 2 * (2 * nnz + rows + 1);
        let compute_cycles = partial_products / cfg.compute_lanes.max(1) as u64;
        let mul_stream = (a_words as f64 / wpc).ceil() as u64;
        let mul_scatter = ((partial_products + num_vectors) as f64 / wpc_scattered).ceil() as u64;
        let multiply_cycles = compute_cycles.max(mul_stream + mul_scatter);

        // Merge phase: read each pointer (scattered scalar with a *control
        // dependency* — the vector read cannot issue before the pointer
        // returns), then the vectors, then write the merged result.
        let pointer_reads = pointer_read_cycles(num_vectors, cfg);
        let vec_reads = (partial_products as f64 / wpc_scattered).ceil() as u64;
        let result_writes = ((partial_products / 2) as f64 / wpc).ceil() as u64;
        let merge_compute = partial_products / cfg.compute_lanes.max(1) as u64;
        let merge_cycles = pointer_reads + vec_reads.max(merge_compute) + result_writes;

        let cycles = (multiply_cycles + merge_cycles).max(1);
        let secs = cycles as f64 / (cfg.freq_ghz * 1e9);
        OuterSpaceResult {
            flops,
            cycles,
            multiply_cycles,
            merge_cycles,
            pointer_cycles: pointer_reads,
            gflops: flops as f64 / secs / 1e9,
        }
    }
}

/// Cycles for the control-dependent scattered pointer reads. Each read
/// returns a single scalar after roughly a quarter of a DRAM latency of exposed
/// stall (the rest overlaps with other traffic); `slots` independent
/// requests overlap those stalls. The hand-written design's dedicated
/// request queues stream pointer blocks at full bandwidth instead.
fn pointer_read_cycles(num_vectors: u64, cfg: &OuterSpaceConfig) -> u64 {
    if cfg.handwritten_memory_path {
        (num_vectors as f64 / cfg.dma.dram.words_per_cycle).ceil() as u64
    } else {
        let exposed = (cfg.dma.dram.latency_cycles as f64 / 4.0) / cfg.dma.slots.max(1) as f64;
        (num_vectors as f64 * exposed.max(1.0)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_tensor::CscMatrix;
    use stellar_workloads::suite;

    /// One config through the slice API: the single-config form the tests
    /// below are written against.
    fn outerspace_throughput(
        m: &SuiteMatrix,
        cfg: &OuterSpaceConfig,
        seed: u64,
    ) -> OuterSpaceResult {
        super::outerspace_throughput(m, std::slice::from_ref(cfg), seed)[0]
    }

    fn poisson() -> SuiteMatrix {
        suite()
            .into_iter()
            .find(|m| m.name == "poisson3Da")
            .unwrap()
    }

    #[test]
    fn sixteen_slots_beat_one() {
        let m = poisson();
        let slow = outerspace_throughput(&m, &OuterSpaceConfig::stellar_default(), 1);
        let fast = outerspace_throughput(&m, &OuterSpaceConfig::stellar_fixed(), 1);
        assert!(
            fast.gflops > 1.2 * slow.gflops,
            "16-slot DMA should be much faster: {:.2} vs {:.2} GFLOP/s",
            fast.gflops,
            slow.gflops
        );
        assert_eq!(slow.flops, fast.flops);
    }

    #[test]
    fn handwritten_beats_both() {
        let m = poisson();
        let fixed = outerspace_throughput(&m, &OuterSpaceConfig::stellar_fixed(), 1);
        let hand = outerspace_throughput(&m, &OuterSpaceConfig::handwritten(), 1);
        assert!(hand.gflops > fixed.gflops);
    }

    #[test]
    fn pointer_cycles_dominate_default_dma() {
        // §VI-C: pointers are <10% of traffic but the dominant stall.
        let m = poisson();
        let r = outerspace_throughput(&m, &OuterSpaceConfig::stellar_default(), 1);
        assert!(
            r.pointer_cycles as f64 > 0.4 * r.cycles as f64,
            "pointer cycles {}/{} should dominate",
            r.pointer_cycles,
            r.cycles
        );
    }

    #[test]
    fn average_throughputs_have_paper_shape() {
        // Averages over the suite: default ≈ 1.4, fixed ≈ 2.1, hand ≈ 2.9
        // GFLOP/s in the paper. We assert the ordering and rough bands.
        let mats: Vec<SuiteMatrix> = suite().into_iter().take(8).collect();
        let avg = |cfg: &OuterSpaceConfig| {
            let sum: f64 = mats
                .iter()
                .map(|m| outerspace_throughput(m, cfg, 7).gflops)
                .sum();
            sum / mats.len() as f64
        };
        let d = avg(&OuterSpaceConfig::stellar_default());
        let f = avg(&OuterSpaceConfig::stellar_fixed());
        let h = avg(&OuterSpaceConfig::handwritten());
        assert!(d < f && f < h, "ordering violated: {d:.2} {f:.2} {h:.2}");
        assert!((0.3..4.0).contains(&d), "default avg {d:.2} GFLOP/s");
        assert!(f / d > 1.2, "fix should give a substantial boost");
    }

    #[test]
    fn flops_match_reference_partials() {
        use stellar_tensor::gen;
        use stellar_tensor::ops::spgemm_outer_partials;
        let a = gen::uniform(64, 64, 0.1, 3);
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &a);
        let want: u64 = 2 * partials.iter().map(|p| p.nnz() as u64).sum::<u64>();
        let got = outerspace_throughput_on(&a, &OuterSpaceConfig::stellar_default());
        assert_eq!(got.flops, want);
    }

    /// The per-`k` loop over a CSC copy that the one-pass count replaced.
    fn count_via_csc(a: &CsrMatrix) -> OperandCount {
        let a_csc = CscMatrix::from_csr(a);
        let (mut partial_products, mut num_vectors) = (0u64, 0u64);
        for k in 0..a.rows().min(a.cols()) {
            let col_nnz = a_csc.col_len(k) as u64;
            let row_nnz = a.row_len(k) as u64;
            partial_products += col_nnz * row_nnz;
            num_vectors += if row_nnz > 0 { col_nnz } else { 0 };
        }
        OperandCount {
            partial_products,
            num_vectors,
            nnz: a.nnz() as u64,
            rows: a.rows() as u64,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The one-pass count equals the per-`k` CSC loop on square and
        /// non-square operands, with empty rows and columns and stored
        /// explicit zeros.
        #[test]
        fn operand_count_matches_csc_loop(
            rows in 0usize..24,
            cols in 0usize..24,
            fill in 0u64..=8,
            seed in proptest::num::u64::ANY,
        ) {
            let a = crate::testing::raw_csr(rows, cols, fill, seed);
            proptest::prop_assert_eq!(OperandCount::of(&a), count_via_csc(&a));
        }
    }

    #[test]
    fn every_config_reads_one_count() {
        let m = poisson();
        let cfgs = [
            OuterSpaceConfig::stellar_default(),
            OuterSpaceConfig::stellar_fixed(),
            OuterSpaceConfig::handwritten(),
        ];
        let a = m.instantiate(4096, 5);
        let want: Vec<OuterSpaceResult> = cfgs
            .iter()
            .map(|cfg| outerspace_throughput_on(&a, cfg))
            .collect();
        assert_eq!(super::outerspace_throughput(&m, &cfgs, 5), want);
        assert!(super::outerspace_throughput(&m, &[], 5).is_empty());
    }
}
