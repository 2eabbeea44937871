//! Merger spatial-array models: row-partitioned (GAMMA-like) and flattened
//! (SpArch-like) partial-matrix mergers (Figures 18 and 19, §VI-D).
//!
//! Outer-product SpGEMM produces scattered partial matrices that must be
//! merged (summed at matching coordinates). GAMMA-style mergers give each
//! PE lane one output row, emitting one merged element per lane per cycle —
//! cheap, but sensitive to row-length imbalance. SpArch-style mergers
//! flatten all rows into one fiber and pop up to `width` elements per cycle
//! regardless of row boundaries — imbalance-immune, but area-hungry
//! (§VI-D: 60% of SpArch's area, 13× a row-partitioned merger).
//!
//! Both models run on the shared skip-ahead [`Engine`]: lane completions
//! are scheduled as events (the last event to pop *is* the critical lane,
//! because the queue's FIFO tie-break matches the reference's last-max
//! rule) and the elapsed cycles are attributed through engine advances, so
//! the `sum(breakdown) == cycles` invariant is structural. The original
//! closed-form implementations are retained in [`mod@reference`] as the
//! equivalence oracle.

use stellar_tensor::ops::{merge_fibers, Fiber, PartialMatrix};

use crate::engine::{Engine, EventQueue};
use crate::error::{SimError, Watchdog};
use crate::stats::Utilization;
use crate::trace::{CycleBreakdown, StallClass};

/// Merger throughput statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MergeStats {
    /// Cycles taken.
    pub cycles: u64,
    /// Total merged output elements produced.
    pub merged_elements: u64,
    /// Comparator occupancy.
    pub utilization: Utilization,
    /// Where the critical path's cycles went: `Compute` for ideally
    /// distributed merge work, `LoadImbalance` for excess length of the
    /// critical lane, `MergeStall` for row-switch restarts and
    /// partial-width pops, `Fill` for pipeline startup. Sums to `cycles`.
    pub breakdown: CycleBreakdown,
}

impl MergeStats {
    /// Merged elements per cycle — the y-axis of Figure 18.
    pub fn elements_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.merged_elements as f64 / self.cycles as f64
        }
    }
}

/// A merger design point.
///
/// A merger's cost depends only on each output row's merged length, so
/// [`Merger::simulate_lengths`] is the one cost model; the fiber-batch
/// entry points count those lengths with a [`MergeCounter`] and call it.
pub trait Merger {
    /// Maximum merged elements per cycle.
    fn max_throughput(&self) -> usize;

    /// Simulates merging one batch whose output row `r` has `lengths[r]`
    /// merged elements, under an explicit cycle budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogExpired`] if the merge needs more cycles
    /// than the watchdog allows.
    fn simulate_lengths(
        &self,
        lengths: &[u64],
        watchdog: &Watchdog,
    ) -> Result<MergeStats, SimError>;

    /// Simulates merging one batch of per-row fiber groups under an
    /// explicit cycle budget. `rows[r]` holds the fibers (one per partial
    /// matrix) contributing to output row `r`. The merged values themselves
    /// are checked against [`merge_fibers`] in tests.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WatchdogExpired`] if the merge needs more cycles
    /// than the watchdog allows.
    fn simulate_budgeted(
        &self,
        rows: &[Vec<Fiber>],
        watchdog: &Watchdog,
    ) -> Result<MergeStats, SimError> {
        let mut counter = MergeCounter::default();
        let lengths: Vec<u64> = rows
            .iter()
            .map(|fibers| counter.merged_len(fibers))
            .collect();
        self.simulate_lengths(&lengths, watchdog)
    }

    /// [`Merger::simulate_budgeted`] under the default watchdog budget.
    fn simulate(&self, rows: &[Vec<Fiber>]) -> Result<MergeStats, SimError> {
        self.simulate_budgeted(rows, &Watchdog::default_budget())
    }
}

/// Flat-SoA counter for merged output-row lengths.
///
/// The merger models only need `merge_fibers(fibers).len()` per row — the
/// number of coordinates whose summed value is nonzero — yet the k-way
/// merge materializes the full coord/value vectors (two allocations per
/// row) and re-scans every fiber head once per output element. This
/// counter instead accumulates each row into a dense value array indexed
/// by coordinate, reused across rows via a generation stamp so no
/// clearing pass is needed.
///
/// A row is [`begin_row`](MergeCounter::begin_row), one
/// [`add`](MergeCounter::add) per entry, then
/// [`end_row`](MergeCounter::end_row). Per coordinate, values are summed
/// in the order they are added, starting from `0.0`. [`merged_len`]
/// adds in fiber order — exactly the float-add order of [`merge_fibers`]'s
/// inner loop (fiber coords are strictly increasing, so the merge visits
/// each fiber's entry for a coordinate exactly once, in fiber order). The
/// sums are therefore bit-identical, the `!= 0.0` cancellation test
/// agrees, and the counted length matches the materializing merge
/// exactly. A caller that holds the fibers' entries in another layout
/// (such as an operand's CSR) gets the same count by adding them in the
/// same order. The [`reference`](mod@reference) module keeps calling
/// [`merge_fibers`] itself, so the engine-vs-oracle equivalence tests
/// cross-check this counter on every batch.
///
/// [`merged_len`]: MergeCounter::merged_len
#[derive(Debug, Default)]
pub struct MergeCounter {
    sums: Vec<f64>,
    stamp: Vec<u64>,
    generation: u64,
    touched: Vec<usize>,
}

/// One stamped accumulation: first touch in this generation clears the
/// slot and records it, then the value is added.
#[inline(always)]
fn tally(
    stamp: &mut [u64],
    sums: &mut [f64],
    touched: &mut Vec<usize>,
    generation: u64,
    c: usize,
    v: f64,
) {
    if stamp[c] != generation {
        stamp[c] = generation;
        sums[c] = 0.0;
        touched.push(c);
    }
    sums[c] += v;
}

impl MergeCounter {
    /// Starts a new output row whose coordinates are all below `width`.
    pub fn begin_row(&mut self, width: usize) {
        if self.sums.len() < width {
            self.sums.resize(width, 0.0);
            self.stamp.resize(width, 0);
        }
        self.generation += 1;
    }

    /// Adds `v` at coordinate `c` of the current row.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not below the `width` given to
    /// [`MergeCounter::begin_row`] (or to an earlier, wider row).
    #[inline(always)]
    pub fn add(&mut self, c: usize, v: f64) {
        tally(
            &mut self.stamp,
            &mut self.sums,
            &mut self.touched,
            self.generation,
            c,
            v,
        );
    }

    /// Ends the current row, returning how many of its coordinates summed
    /// to a nonzero value.
    pub fn end_row(&mut self) -> u64 {
        let sums = &self.sums;
        self.touched.drain(..).filter(|&c| sums[c] != 0.0).count() as u64
    }

    /// `merge_fibers(fibers).len() as u64`, without materializing the
    /// merged fiber.
    pub fn merged_len(&mut self, fibers: &[Fiber]) -> u64 {
        let Some(max) = fibers.iter().filter_map(|f| f.coords.last()).max() else {
            return 0;
        };
        self.begin_row(max + 1);
        let generation = self.generation;
        for f in fibers {
            debug_assert!(
                f.coords.windows(2).all(|w| w[0] < w[1]),
                "fiber coords must be strictly increasing"
            );
            // 4-wide unrolled stamp scan. Coords are strictly increasing
            // within a fiber, so the four lanes of a quad touch four
            // distinct slots — no intra-quad aliasing — and each
            // coordinate still receives its adds in fiber order, keeping
            // the float sums bit-identical to the scalar scan.
            let len = f.coords.len().min(f.values.len());
            let mut x = 0usize;
            while x + 4 <= len {
                let (c0, c1, c2, c3) = (
                    f.coords[x],
                    f.coords[x + 1],
                    f.coords[x + 2],
                    f.coords[x + 3],
                );
                let (v0, v1, v2, v3) = (
                    f.values[x],
                    f.values[x + 1],
                    f.values[x + 2],
                    f.values[x + 3],
                );
                tally(
                    &mut self.stamp,
                    &mut self.sums,
                    &mut self.touched,
                    generation,
                    c0,
                    v0,
                );
                tally(
                    &mut self.stamp,
                    &mut self.sums,
                    &mut self.touched,
                    generation,
                    c1,
                    v1,
                );
                tally(
                    &mut self.stamp,
                    &mut self.sums,
                    &mut self.touched,
                    generation,
                    c2,
                    v2,
                );
                tally(
                    &mut self.stamp,
                    &mut self.sums,
                    &mut self.touched,
                    generation,
                    c3,
                    v3,
                );
                x += 4;
            }
            while x < len {
                tally(
                    &mut self.stamp,
                    &mut self.sums,
                    &mut self.touched,
                    generation,
                    f.coords[x],
                    f.values[x],
                );
                x += 1;
            }
        }
        self.end_row()
    }
}

/// A GAMMA-style row-partitioned merger: `lanes` PEs, each merging whole
/// rows, one element per cycle per lane (Figure 19a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowPartitionedMerger {
    /// Number of row lanes (the paper's low-area configuration uses 32).
    pub lanes: usize,
    /// Pipeline restart cost when a lane switches rows.
    pub row_switch_cycles: u64,
}

impl RowPartitionedMerger {
    /// The §VI-D configuration: 32 lanes.
    pub fn paper_config() -> RowPartitionedMerger {
        RowPartitionedMerger {
            lanes: 32,
            row_switch_cycles: 1,
        }
    }
}

impl Merger for RowPartitionedMerger {
    fn max_throughput(&self) -> usize {
        self.lanes
    }

    fn simulate_lengths(
        &self,
        row_cost: &[u64],
        watchdog: &Watchdog,
    ) -> Result<MergeStats, SimError> {
        // A row's output length is the lane busy time for that row.
        let merged_elements: u64 = row_cost.iter().sum();
        // Greedy longest-processing-time assignment would be the balanced
        // ideal; hardware assigns rows to lanes in arrival order.
        let lanes = self.lanes.max(1);
        let mut lane_time = vec![0u64; lanes];
        let mut lane_elems = vec![0u64; lanes];
        let mut lane_switch = vec![0u64; lanes];
        for (r, &cost) in row_cost.iter().enumerate() {
            if cost == 0 {
                continue;
            }
            let lane = r % lanes;
            lane_time[lane] += cost + self.row_switch_cycles;
            lane_elems[lane] += cost;
            lane_switch[lane] += self.row_switch_cycles;
        }
        // Each lane drains its queue independently; its completion is one
        // event. The queue pops in (time, schedule-order) — so the last
        // event out is the highest-indexed lane among those tied for the
        // longest time, matching the reference's `max_by_key` (last max).
        let mut queue = EventQueue::with_capacity(lanes);
        for (l, &t) in lane_time.iter().enumerate() {
            if t > 0 {
                queue.schedule(t, l as u32);
            }
        }
        let mut cycles = 0u64;
        let mut crit = 0usize;
        while let Some(ev) = queue.pop() {
            // Skip straight from completion to completion; intermediate
            // cycles carry no state change by construction.
            cycles = ev.time;
            crit = ev.key as usize;
        }
        watchdog.check_total(cycles, "row-partitioned merge")?;
        // The critical lane defines the cycle count; attribute its time:
        // the share a perfectly balanced assignment would also pay is
        // Compute, the excess is LoadImbalance, restarts are MergeStall.
        let ideal = merged_elements.div_ceil(lanes as u64);
        let compute = lane_elems[crit].min(ideal);
        let mut engine = Engine::new(*watchdog);
        engine.advance(compute, StallClass::Compute, "row-partitioned merge")?;
        engine.advance(
            lane_elems[crit] - compute,
            StallClass::LoadImbalance,
            "row-partitioned merge",
        )?;
        engine.advance(
            lane_switch[crit],
            StallClass::MergeStall,
            "row-partitioned merge",
        )?;
        let breakdown = engine.into_breakdown();
        breakdown.debug_assert_accounts_for(cycles, "row-partitioned merge");
        let busy: u64 = lane_time.iter().sum();
        Ok(MergeStats {
            cycles,
            merged_elements,
            utilization: Utilization {
                busy,
                total: cycles * self.lanes as u64,
            },
            breakdown,
        })
    }
}

/// A SpArch-style flattened merger: all rows form one fiber, up to `width`
/// elements pop per cycle regardless of row boundaries (Figure 19b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlattenedMerger {
    /// Elements merged per cycle (SpArch uses 16, with 128 64-bit
    /// comparators).
    pub width: usize,
    /// Pipeline fill cost per merge batch.
    pub startup_cycles: u64,
}

impl FlattenedMerger {
    /// The SpArch configuration: 16 elements per cycle.
    pub fn paper_config() -> FlattenedMerger {
        FlattenedMerger {
            width: 16,
            startup_cycles: 4,
        }
    }
}

impl Merger for FlattenedMerger {
    fn max_throughput(&self) -> usize {
        self.width
    }

    fn simulate_lengths(
        &self,
        lengths: &[u64],
        watchdog: &Watchdog,
    ) -> Result<MergeStats, SimError> {
        let merged_elements: u64 = lengths.iter().sum();
        let width = self.width.max(1) as u64;
        let full_steps = merged_elements / width;
        let steps = merged_elements.div_ceil(width);
        let cycles = self.startup_cycles + steps;
        watchdog.check_total(cycles, "flattened merge")?;
        // Skip-ahead in three leaps: startup is pipeline fill; full-width
        // pops are compute; the final partial-width pop is a merge stall
        // (comparators idle).
        let mut engine = Engine::new(*watchdog);
        engine.advance(self.startup_cycles, StallClass::Fill, "flattened merge")?;
        engine.advance(full_steps, StallClass::Compute, "flattened merge")?;
        engine.advance(
            steps - full_steps,
            StallClass::MergeStall,
            "flattened merge",
        )?;
        let breakdown = engine.into_breakdown();
        breakdown.debug_assert_accounts_for(cycles, "flattened merge");
        Ok(MergeStats {
            cycles,
            merged_elements,
            utilization: Utilization {
                busy: merged_elements,
                total: cycles * width,
            },
            breakdown,
        })
    }
}

/// Groups the entries of a set of partial matrices into per-output-row
/// fibers: the input format of a merger batch.
pub fn rows_of_partials(num_rows: usize, partials: &[PartialMatrix]) -> Vec<Vec<Fiber>> {
    let mut rows: Vec<Vec<Fiber>> = vec![Vec::new(); num_rows];
    for p in partials {
        // Collect this partial's entries per row (already sorted row-major).
        let mut cur_row = usize::MAX;
        let mut coords: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for (r, c, v) in p.entries.iter() {
            if r != cur_row {
                if !coords.is_empty() {
                    rows[cur_row].push(Fiber::new(
                        std::mem::take(&mut coords),
                        std::mem::take(&mut values),
                    ));
                }
                cur_row = r;
            }
            coords.push(c);
            values.push(v);
        }
        if !coords.is_empty() {
            rows[cur_row].push(Fiber::new(coords, values));
        }
    }
    rows
}

/// The retained closed-form per-cycle accountings — the observational
/// equivalence oracle for the engine-backed `Merger` impls above and the
/// "pre" side of the `sim` benchmark suite.
pub mod reference {
    use super::*;

    /// Closed-form counterpart of the engine-backed
    /// [`RowPartitionedMerger::simulate_budgeted`](super::Merger::simulate_budgeted)
    /// (identical observable behaviour).
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogExpired`] past the budget.
    pub fn simulate_row_partitioned(
        m: &RowPartitionedMerger,
        rows: &[Vec<Fiber>],
        watchdog: &Watchdog,
    ) -> Result<MergeStats, SimError> {
        // Per-row output length (the lane busy time for that row).
        let row_cost: Vec<u64> = rows
            .iter()
            .map(|fibers| merge_fibers(fibers).len() as u64)
            .collect();
        let merged_elements: u64 = row_cost.iter().sum();
        // Greedy longest-processing-time assignment would be the balanced
        // ideal; hardware assigns rows to lanes in arrival order.
        let lanes = m.lanes.max(1);
        let mut lane_time = vec![0u64; lanes];
        let mut lane_elems = vec![0u64; lanes];
        let mut lane_switch = vec![0u64; lanes];
        for (r, &cost) in row_cost.iter().enumerate() {
            if cost == 0 {
                continue;
            }
            let lane = r % lanes;
            lane_time[lane] += cost + m.row_switch_cycles;
            lane_elems[lane] += cost;
            lane_switch[lane] += m.row_switch_cycles;
        }
        let cycles = lane_time.iter().copied().max().unwrap_or(0);
        watchdog.check_total(cycles, "row-partitioned merge")?;
        // The critical lane defines the cycle count; attribute its time:
        // the share a perfectly balanced assignment would also pay is
        // Compute, the excess is LoadImbalance, restarts are MergeStall.
        let crit = lane_time
            .iter()
            .enumerate()
            .max_by_key(|&(_, &t)| t)
            .map(|(l, _)| l)
            .unwrap_or(0);
        let ideal = merged_elements.div_ceil(lanes as u64);
        let compute = lane_elems[crit].min(ideal);
        let breakdown = CycleBreakdown::new()
            .with(StallClass::Compute, compute)
            .with(StallClass::LoadImbalance, lane_elems[crit] - compute)
            .with(StallClass::MergeStall, lane_switch[crit]);
        breakdown.debug_assert_accounts_for(cycles, "row-partitioned merge");
        let busy: u64 = lane_time.iter().sum();
        Ok(MergeStats {
            cycles,
            merged_elements,
            utilization: Utilization {
                busy,
                total: cycles * m.lanes as u64,
            },
            breakdown,
        })
    }

    /// Closed-form counterpart of the engine-backed
    /// [`FlattenedMerger::simulate_budgeted`](super::Merger::simulate_budgeted)
    /// (identical observable behaviour).
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogExpired`] past the budget.
    pub fn simulate_flattened(
        m: &FlattenedMerger,
        rows: &[Vec<Fiber>],
        watchdog: &Watchdog,
    ) -> Result<MergeStats, SimError> {
        let merged_elements: u64 = rows
            .iter()
            .map(|fibers| merge_fibers(fibers).len() as u64)
            .sum();
        let width = m.width.max(1) as u64;
        let full_steps = merged_elements / width;
        let steps = merged_elements.div_ceil(width);
        let cycles = m.startup_cycles + steps;
        watchdog.check_total(cycles, "flattened merge")?;
        // Startup is pipeline fill; full-width pops are compute; the
        // final partial-width pop is a merge stall (comparators idle).
        let breakdown = CycleBreakdown::new()
            .with(StallClass::Fill, m.startup_cycles)
            .with(StallClass::Compute, full_steps)
            .with(StallClass::MergeStall, steps - full_steps);
        breakdown.debug_assert_accounts_for(cycles, "flattened merge");
        Ok(MergeStats {
            cycles,
            merged_elements,
            utilization: Utilization {
                busy: merged_elements,
                total: cycles * width,
            },
            breakdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_tensor::ops::spgemm_outer_partials;
    use stellar_tensor::{gen, CscMatrix};

    fn partial_rows(seed: u64, density: f64) -> Vec<Vec<Fiber>> {
        let a = gen::uniform(64, 48, density, seed);
        let b = gen::uniform(48, 64, density, seed + 1);
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &b);
        rows_of_partials(64, &partials)
    }

    #[test]
    fn rows_of_partials_matches_golden() {
        let a = gen::uniform(16, 12, 0.3, 5);
        let b = gen::uniform(12, 16, 0.3, 6);
        let partials = spgemm_outer_partials(&CscMatrix::from_csr(&a), &b);
        let rows = rows_of_partials(16, &partials);
        let golden = stellar_tensor::ops::spgemm_outer(&CscMatrix::from_csr(&a), &b);
        for (r, fibers) in rows.iter().enumerate() {
            let merged = merge_fibers(fibers);
            let (cols, vals) = golden.row(r);
            assert_eq!(merged.coords, cols.to_vec(), "row {r} coords");
            for (got, want) in merged.values.iter().zip(vals) {
                assert!((got - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn flattened_hits_peak_on_long_rows() {
        let rows = partial_rows(1, 0.4);
        let m = FlattenedMerger::paper_config();
        let stats = m.simulate(&rows).unwrap();
        assert!(
            stats.elements_per_cycle() > 14.0,
            "flattened should run near 16 elem/cyc, got {:.1}",
            stats.elements_per_cycle()
        );
    }

    #[test]
    fn row_partitioned_beats_flattened_on_balanced_rows() {
        // With many similar-length rows, the 32-lane merger's higher peak
        // wins — the §VI-D observation that 4 matrices ran *faster* on the
        // cheaper merger.
        let rows = partial_rows(2, 0.4);
        let rp = RowPartitionedMerger::paper_config()
            .simulate(&rows)
            .unwrap();
        let fl = FlattenedMerger::paper_config().simulate(&rows).unwrap();
        assert!(
            rp.elements_per_cycle() > fl.elements_per_cycle(),
            "row-partitioned {:.1} vs flattened {:.1}",
            rp.elements_per_cycle(),
            fl.elements_per_cycle()
        );
    }

    #[test]
    fn imbalance_hurts_row_partitioned_only() {
        // A single huge row with many tiny ones: lanes idle behind the big
        // row.
        let mut rows: Vec<Vec<Fiber>> = Vec::new();
        rows.push(vec![Fiber::new((0..2000).collect(), vec![1.0; 2000])]);
        for r in 0..63 {
            rows.push(vec![Fiber::new(vec![r], vec![1.0])]);
        }
        let rp = RowPartitionedMerger::paper_config()
            .simulate(&rows)
            .unwrap();
        let fl = FlattenedMerger::paper_config().simulate(&rows).unwrap();
        assert!(
            fl.elements_per_cycle() > rp.elements_per_cycle(),
            "flattened {:.1} must beat row-partitioned {:.1} under imbalance",
            fl.elements_per_cycle(),
            rp.elements_per_cycle()
        );
    }

    #[test]
    fn breakdowns_sum_and_separate_the_designs() {
        use crate::trace::StallClass;
        // The imbalanced batch: row-partitioned blames LoadImbalance,
        // flattened doesn't have the concept.
        let mut rows: Vec<Vec<Fiber>> = Vec::new();
        rows.push(vec![Fiber::new((0..2000).collect(), vec![1.0; 2000])]);
        for r in 0..63 {
            rows.push(vec![Fiber::new(vec![r], vec![1.0])]);
        }
        let rp = RowPartitionedMerger::paper_config()
            .simulate(&rows)
            .unwrap();
        assert_eq!(rp.breakdown.total(), rp.cycles);
        assert_eq!(rp.breakdown.dominant(), Some(StallClass::LoadImbalance));
        let fl = FlattenedMerger::paper_config().simulate(&rows).unwrap();
        assert_eq!(fl.breakdown.total(), fl.cycles);
        assert_eq!(fl.breakdown.get(StallClass::LoadImbalance), 0);
        assert_eq!(fl.breakdown.dominant(), Some(StallClass::Compute));
        assert_eq!(fl.breakdown.get(StallClass::Fill), 4);
    }

    #[test]
    fn empty_batch() {
        let rp = RowPartitionedMerger::paper_config().simulate(&[]).unwrap();
        assert_eq!(rp.cycles, 0);
        assert_eq!(rp.elements_per_cycle(), 0.0);
    }

    #[test]
    fn merge_respects_watchdog_budget() {
        let rows = partial_rows(3, 0.4);
        let need = FlattenedMerger::paper_config()
            .simulate(&rows)
            .unwrap()
            .cycles;
        let err = FlattenedMerger::paper_config()
            .simulate_budgeted(&rows, &Watchdog::with_budget(need - 1))
            .unwrap_err();
        assert!(matches!(err, SimError::WatchdogExpired { .. }));
        let ok = FlattenedMerger::paper_config()
            .simulate_budgeted(&rows, &Watchdog::with_budget(need))
            .unwrap();
        assert_eq!(ok.cycles, need);
    }

    #[test]
    fn max_throughputs() {
        assert_eq!(RowPartitionedMerger::paper_config().max_throughput(), 32);
        assert_eq!(FlattenedMerger::paper_config().max_throughput(), 16);
    }

    #[test]
    fn merge_counter_matches_merge_fibers_on_cancellation() {
        // The flat counter must reproduce merge_fibers' exact `!= 0.0`
        // cancellation semantics: +x/−x at the same coordinate vanishes
        // from the count, sums that pass through zero mid-accumulation
        // but end nonzero stay, and disjoint fibers simply union. The
        // counter is also reused across rows to exercise the stamp.
        let batches: Vec<Vec<Fiber>> = vec![
            // exact cancellation at coord 3; coord 5 survives
            vec![
                Fiber::new(vec![3, 5], vec![1.5, 2.0]),
                Fiber::new(vec![3], vec![-1.5]),
            ],
            // through-zero partial sum (1 - 1 + 4) must still count
            vec![
                Fiber::new(vec![7], vec![1.0]),
                Fiber::new(vec![7], vec![-1.0]),
                Fiber::new(vec![7], vec![4.0]),
            ],
            // disjoint coords across three fibers
            vec![
                Fiber::new(vec![0, 9], vec![1.0, 1.0]),
                Fiber::new(vec![4], vec![1.0]),
                Fiber::new(vec![2, 11], vec![1.0, 1.0]),
            ],
            // empty row
            vec![],
            // everything cancels
            vec![
                Fiber::new(vec![1, 2], vec![2.0, -3.0]),
                Fiber::new(vec![1, 2], vec![-2.0, 3.0]),
            ],
        ];
        let mut counter = MergeCounter::default();
        for fibers in &batches {
            assert_eq!(
                counter.merged_len(fibers),
                merge_fibers(fibers).len() as u64,
                "counter diverged from merge_fibers on {fibers:?}"
            );
        }
    }

    #[test]
    fn engine_path_matches_reference_closed_form() {
        // The engine-backed impls must reproduce the retained closed-form
        // accounting byte-for-byte, including tie-breaks on the critical
        // lane (equal-length lanes) and the zero-work batch.
        let wd = Watchdog::default_budget();
        let batches: Vec<Vec<Vec<Fiber>>> = vec![
            partial_rows(7, 0.3),
            partial_rows(8, 0.05),
            Vec::new(),
            // Two lanes tied for critical (rows 0 and 1, same length).
            vec![
                vec![Fiber::new(vec![0, 1, 2], vec![1.0; 3])],
                vec![Fiber::new(vec![0, 1, 2], vec![2.0; 3])],
            ],
        ];
        for rows in &batches {
            let rp = RowPartitionedMerger {
                lanes: 2,
                row_switch_cycles: 1,
            };
            assert_eq!(
                rp.simulate_budgeted(rows, &wd),
                reference::simulate_row_partitioned(&rp, rows, &wd)
            );
            let fl = FlattenedMerger::paper_config();
            assert_eq!(
                fl.simulate_budgeted(rows, &wd),
                reference::simulate_flattened(&fl, rows, &wd)
            );
        }
    }
}
