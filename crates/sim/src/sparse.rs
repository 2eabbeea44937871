//! A lane-based model of sparse spatial arrays with zero skipping and load
//! balancing (Figures 6 and 10 of the paper).
//!
//! After sparsity pruning, each row of the spatial array processes the
//! non-zeros of its assigned tensor rows independently (the Figure 4
//! array). Imbalanced row lengths leave some lanes idle; `Shift`
//! load-balancing lets idle lanes take pending work, at row-group or
//! per-PE granularity.
//!
//! The production path is event-driven: lane state can only change when a
//! lane finishes a row, so the simulator skips time directly from one
//! completion to the next through the shared [`Engine`] instead of
//! ticking every cycle. The retained per-cycle implementation lives in
//! [`mod@reference`] and the two are proven observationally equivalent (same
//! stats, breakdowns, and trace bytes under every seed and fault plan) by
//! the `engine_equivalence` test suite.
//!
//! Two entry points: the plain [`simulate_sparse_matmul`] (fault-free,
//! default watchdog, no trace) and [`simulate_sparse_matmul_traced`],
//! which takes the fault injector, the watchdog and the tracer and returns
//! the result together with the run's [`EngineStats`].

use stellar_area::TrafficCounts;
use stellar_tensor::CsrMatrix;

use crate::engine::{Engine, EngineStats};
use crate::error::{SimError, Watchdog};
use crate::fault::{FaultInjector, FaultPlan};
use crate::stats::{SimStats, Utilization};
use crate::trace::{CycleBreakdown, StallClass, Tracer};

/// How idle lanes may take work from loaded ones.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BalancePolicy {
    /// No load balancing: lanes only execute their own rows.
    None,
    /// Listing 3 / Figure 10a: an idle lane may take pending rows from its
    /// *adjacent* lane only (work moves between directly adjacent rows of
    /// the spatial array).
    AdjacentRows,
    /// Figure 10b / Listing 4: any idle lane may take pending rows from the
    /// most-loaded lane (maximum flexibility, maximum hardware cost).
    Global,
}

/// Parameters of the sparse array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseArrayParams {
    /// Number of PE lanes (array rows).
    pub lanes: usize,
    /// Fixed cycles to start a new row on a lane (fiber pointer setup).
    pub row_startup_cycles: u64,
    /// The balancing policy.
    pub balance: BalancePolicy,
}

/// The result of a sparse-array simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseSimResult {
    /// Overall statistics.
    pub stats: SimStats,
    /// Busy cycles per lane (for utilization heat maps).
    pub lane_busy: Vec<u64>,
    /// Rows executed per lane (tracks how much work moved).
    pub lane_rows: Vec<usize>,
}

impl SparseSimResult {
    /// The utilization fraction.
    pub fn utilization(&self) -> f64 {
        self.stats.utilization.fraction()
    }
}

/// One row of pending work.
#[derive(Clone, Copy, Debug)]
struct RowWork {
    nnz: u64,
}

/// Per-lane pending-row queues packed into one flat arena: lane `l` owns
/// `work[head[l]..tail[l]]`, rows in row order. Owners pop the front
/// (`head[l] += 1`), thieves the back (`tail[l] -= 1`) — both O(1) on a
/// single allocation, so dispatch touches three small contiguous arrays
/// instead of a `VecDeque` per lane.
struct PendingQueues {
    /// `nnz` of each pending row, grouped by owning lane.
    work: Vec<u64>,
    head: Vec<usize>,
    tail: Vec<usize>,
}

impl PendingQueues {
    /// Distributes row `r` of `b` to lane `r % lanes` (skipping empty
    /// rows), in row order within each lane.
    fn new(b: &CsrMatrix, lanes: usize) -> PendingQueues {
        // First pass counts rows per lane into `tail`, then a prefix sum
        // turns the counts into segment offsets.
        let mut head = vec![0usize; lanes];
        let mut tail = vec![0usize; lanes];
        for r in 0..b.rows() {
            if b.row_len(r) > 0 {
                tail[r % lanes] += 1;
            }
        }
        let mut offset = 0usize;
        for l in 0..lanes {
            head[l] = offset;
            offset += tail[l];
            tail[l] = head[l]; // fill pointer while loading; the real tail after
        }
        let mut work = vec![0u64; offset];
        for r in 0..b.rows() {
            let nnz = b.row_len(r) as u64;
            if nnz > 0 {
                let l = r % lanes;
                work[tail[l]] = nnz;
                tail[l] += 1;
            }
        }
        PendingQueues { work, head, tail }
    }

    #[inline]
    fn len(&self, l: usize) -> usize {
        self.tail[l] - self.head[l]
    }

    #[inline]
    fn total(&self) -> usize {
        (0..self.head.len()).map(|l| self.len(l)).sum()
    }

    #[inline]
    fn pop_front(&mut self, l: usize) -> Option<u64> {
        (self.head[l] < self.tail[l]).then(|| {
            let w = self.work[self.head[l]];
            self.head[l] += 1;
            w
        })
    }

    #[inline]
    fn pop_back(&mut self, l: usize) -> Option<u64> {
        (self.head[l] < self.tail[l]).then(|| {
            self.tail[l] -= 1;
            self.work[self.tail[l]]
        })
    }
}

/// Pops the `nnz` of the next row for idle lane `l`: its own queue's head
/// first, then a steal according to the policy. Queues hold rows in row
/// order, so the owner pops from the front and thieves steal from the
/// back — the same "leave the neighbour its current head, take its
/// farthest-future row" rule the per-cycle reference implements with
/// reversed `Vec`s, in O(1) instead of O(n) per steal.
fn next_work(
    pending: &mut PendingQueues,
    l: usize,
    lanes: usize,
    balance: BalancePolicy,
) -> Option<u64> {
    if let Some(w) = pending.pop_front(l) {
        return Some(w);
    }
    match balance {
        BalancePolicy::None => None,
        BalancePolicy::AdjacentRows => {
            // Steal from the more-loaded adjacent lane.
            let left = l.checked_sub(1);
            let right = if l + 1 < lanes { Some(l + 1) } else { None };
            let pick = [left, right]
                .into_iter()
                .flatten()
                .max_by_key(|&n| pending.len(n));
            pick.and_then(|n| {
                if pending.len(n) > 1 {
                    // Leave the neighbour its current head.
                    pending.pop_back(n)
                } else {
                    None
                }
            })
        }
        BalancePolicy::Global => {
            let victim = (0..lanes).max_by_key(|&n| pending.len(n));
            victim.and_then(|v| pending.pop_back(v))
        }
    }
}

/// Simulates processing every non-zero of `b` on the sparse array: row `r`
/// of `b` is initially assigned to lane `r % lanes`, each non-zero costs
/// one lane-cycle, and idle lanes may steal *pending* (unstarted) rows
/// according to the balancing policy — matching the paper's rule that only
/// "future work that has not yet begun" is shifted.
///
/// # Errors
///
/// Returns [`SimError::WatchdogExpired`] if the run exceeds the default
/// cycle budget. See [`simulate_sparse_matmul_traced`] for explicit budgets
/// and fault injection (where a stuck lane can also yield
/// [`SimError::Deadlock`]).
pub fn simulate_sparse_matmul(
    b: &CsrMatrix,
    params: &SparseArrayParams,
) -> Result<SparseSimResult, SimError> {
    simulate_sparse_matmul_traced(
        b,
        params,
        &mut FaultInjector::new(FaultPlan::none()),
        Watchdog::default_budget(),
        &mut Tracer::disabled(),
    )
    .map(|(r, _)| r)
}

/// [`simulate_sparse_matmul`] with every control input, returning the
/// result together with the [`EngineStats`] of the run (event-queue
/// depth/compaction counters and the skip-ahead jump-length histogram,
/// read once when the run ends; they never feed back into the result).
///
/// A `stuck_lane` in the fault plan models a hard PE failure: the lane
/// never dispatches or advances. Whether the array survives depends on the
/// balancing policy — `Global` balancing reroutes the dead lane's pending
/// rows, while `None` (and `AdjacentRows`, which never steals a queue's
/// head) deadlocks, which this function detects structurally and reports as
/// [`SimError::Deadlock`] instead of spinning until the watchdog fires.
///
/// Each advanced cycle is `Compute` when every lane is busy,
/// `LoadImbalance` when only some are (the Figure 6 pathology this model
/// exists to expose), and `Idle` when none are; when enabled, the tracer
/// records one span per executed row (track = lane index).
///
/// Dispatch decisions can only change when a lane completes a row (queues
/// never grow, so a steal that failed once keeps failing until a
/// completion frees a lane), so the loop advances the [`Engine`] straight
/// to the next completion and attributes the whole gap in one step. The
/// hot loop allocates nothing: lane state is struct-of-arrays
/// (`in_flight` durations indexed by lane) and the event queue is
/// preallocated to the lane count.
pub fn simulate_sparse_matmul_traced(
    b: &CsrMatrix,
    params: &SparseArrayParams,
    injector: &mut FaultInjector,
    watchdog: Watchdog,
    tracer: &mut Tracer,
) -> Result<(SparseSimResult, EngineStats), SimError> {
    let lanes = params.lanes.max(1);
    // Pending rows per lane, in row order: owners pop the front, thieves
    // the back.
    let mut pending = PendingQueues::new(b, lanes);

    let mut lane_busy = vec![0u64; lanes];
    let mut lane_rows = vec![0usize; lanes];
    let total_nnz: u64 = (0..b.rows()).map(|r| b.row_len(r) as u64).sum();
    if total_nnz == 0 {
        let empty = SparseSimResult {
            stats: SimStats::default(),
            lane_busy,
            lane_rows,
        };
        return Ok((empty, EngineStats::default()));
    }

    let mut pending_rows = pending.total();
    // Struct-of-arrays lane state: duration of the in-flight row (0 = idle).
    let mut in_flight = vec![0u64; lanes];
    let mut busy_lanes = 0usize;
    let mut engine = Engine::with_capacity(watchdog, lanes);
    // Lanes worth a dispatch attempt this iteration. Queues never grow, so
    // a lane that once failed to find work fails forever (its own queue
    // stays empty and no victim's queue can regain length) — only lanes
    // freed by a completion need rescanning, which keeps each iteration
    // O(completions) instead of O(lanes).
    let mut dispatchable: Vec<usize> = (0..lanes).collect();

    loop {
        // Dispatch: fill freed lanes, in lane order (steals mutate the
        // queues mid-scan exactly as the per-cycle reference does).
        for &l in &dispatchable {
            if injector.lane_stuck(l) {
                continue;
            }
            if let Some(nnz) = next_work(&mut pending, l, lanes, params.balance) {
                pending_rows -= 1;
                let dur = nnz + params.row_startup_cycles;
                tracer.span(
                    l as u32,
                    "sparse_row",
                    engine.now(),
                    dur,
                    StallClass::Compute,
                );
                in_flight[l] = dur;
                busy_lanes += 1;
                engine.schedule_in(dur, l as u32);
            }
        }
        dispatchable.clear();

        // Terminate when no lane holds work and no rows are pending.
        if busy_lanes == 0 {
            if pending_rows == 0 {
                break;
            }
            // Work remains but nothing can take it: a structural deadlock
            // (e.g. a stuck lane owning rows no policy may steal).
            return Err(SimError::Deadlock {
                cycle: engine.now(),
                detail: format!(
                    "{pending_rows} rows pending, all lanes idle, no dispatch possible"
                ),
            });
        }

        // Skip ahead to the next completion. The busy set is constant
        // until then, so the whole gap carries one attribution class —
        // the same per-cycle classification the ticked loop applies.
        let class = if busy_lanes == lanes {
            StallClass::Compute
        } else {
            StallClass::LoadImbalance
        };
        // busy_lanes > 0, so at least one completion event is pending;
        // drain the batch that fires at the same cycle.
        if let Some(first) = engine.advance_to_next_event(class, "sparse lane loop")? {
            let mut ev = first;
            loop {
                let l = ev.key as usize;
                lane_busy[l] += in_flight[l];
                lane_rows[l] += 1;
                in_flight[l] = 0;
                busy_lanes -= 1;
                dispatchable.push(l);
                match engine.pop_due() {
                    Some(next) => ev = next,
                    None => break,
                }
            }
        }
        // Events pop in schedule order within a batch; dispatch walks
        // lanes in index order, as the per-cycle scan did.
        dispatchable.sort_unstable();
    }

    let cycles = engine.now();
    let engine_stats = engine.stats();
    let breakdown = engine.into_breakdown();
    breakdown.debug_assert_accounts_for(cycles, "sparse array");
    let busy: u64 = lane_busy.iter().sum();
    let result = SparseSimResult {
        stats: SimStats {
            cycles,
            utilization: Utilization {
                busy,
                total: cycles * lanes as u64,
            },
            traffic: TrafficCounts {
                macs: total_nnz,
                sram_accesses: total_nnz + b.rows() as u64,
                regfile_accesses: 2 * total_nnz,
                dram_words: 0,
                pe_cycles: cycles * lanes as u64,
            },
            breakdown,
        },
        lane_busy,
        lane_rows,
    };
    Ok((result, engine_stats))
}

/// The retained per-cycle (ticked) implementation, kept verbatim as the
/// observational-equivalence oracle for the event-driven path above and
/// as the "pre" side of the `sim` benchmark suite. Advances one cycle at
/// a time with a full-lane scan per tick and O(n) `Vec::remove(0)`
/// steals — the cost profile the skip-ahead engine exists to remove.
pub mod reference {
    use super::*;

    /// Per-cycle counterpart of [`simulate_sparse_matmul_traced`]
    /// (identical observable behaviour, one loop iteration per cycle).
    ///
    /// # Errors
    ///
    /// Identical to [`simulate_sparse_matmul_traced`].
    pub fn simulate_sparse_matmul_traced(
        b: &CsrMatrix,
        params: &SparseArrayParams,
        injector: &mut FaultInjector,
        mut watchdog: Watchdog,
        tracer: &mut Tracer,
    ) -> Result<SparseSimResult, SimError> {
        let lanes = params.lanes.max(1);
        // Pending rows per lane, in row order.
        let mut pending: Vec<Vec<RowWork>> = vec![Vec::new(); lanes];
        for r in 0..b.rows() {
            let nnz = b.row_len(r) as u64;
            if nnz > 0 {
                pending[r % lanes].push(RowWork { nnz });
            }
        }
        for q in pending.iter_mut() {
            q.reverse(); // pop from the back = row order
        }

        let mut current: Vec<Option<(RowWork, u64)>> = vec![None; lanes]; // (row, remaining incl. startup)
        let mut lane_busy = vec![0u64; lanes];
        let mut lane_rows = vec![0usize; lanes];
        let mut cycles: u64 = 0;
        let mut breakdown = CycleBreakdown::new();
        let total_nnz: u64 = (0..b.rows()).map(|r| b.row_len(r) as u64).sum();
        if total_nnz == 0 {
            return Ok(SparseSimResult {
                stats: SimStats::default(),
                lane_busy,
                lane_rows,
            });
        }

        loop {
            // Dispatch: fill idle lanes.
            let mut dispatched = false;
            for l in 0..lanes {
                if current[l].is_some() || injector.lane_stuck(l) {
                    continue;
                }
                // Own queue first.
                let work = if let Some(w) = pending[l].pop() {
                    Some(w)
                } else {
                    match params.balance {
                        BalancePolicy::None => None,
                        BalancePolicy::AdjacentRows => {
                            // Steal from the more-loaded adjacent lane.
                            let left = l.checked_sub(1);
                            let right = if l + 1 < lanes { Some(l + 1) } else { None };
                            let pick = [left, right]
                                .into_iter()
                                .flatten()
                                .max_by_key(|&n| pending[n].len());
                            pick.and_then(|n| {
                                if pending[n].len() > 1 {
                                    // Leave the neighbour its current head.
                                    let w = pending[n].remove(0);
                                    Some(w)
                                } else {
                                    None
                                }
                            })
                        }
                        BalancePolicy::Global => {
                            let victim = (0..lanes).max_by_key(|&n| pending[n].len());
                            victim.and_then(|v| {
                                if !pending[v].is_empty() {
                                    Some(pending[v].remove(0))
                                } else {
                                    None
                                }
                            })
                        }
                    }
                };
                if let Some(w) = work {
                    let dur = w.nnz + params.row_startup_cycles;
                    tracer.span(l as u32, "sparse_row", cycles, dur, StallClass::Compute);
                    current[l] = Some((w, dur));
                    dispatched = true;
                }
            }

            let pending_rows: usize = pending.iter().map(|q| q.len()).sum();
            // Terminate when no lane holds work and no rows are pending.
            if current.iter().all(|c| c.is_none()) {
                if pending_rows == 0 {
                    break;
                }
                if !dispatched {
                    // Work remains but nothing can take it: a structural
                    // deadlock (e.g. a stuck lane owning rows no policy may
                    // steal).
                    return Err(SimError::Deadlock {
                        cycle: cycles,
                        detail: format!(
                            "{pending_rows} rows pending, all lanes idle, no dispatch possible"
                        ),
                    });
                }
            }

            // Advance one cycle.
            cycles += 1;
            watchdog.tick(1, "sparse lane loop")?;
            let mut busy_lanes = 0usize;
            for l in 0..lanes {
                if let Some((w, remaining)) = current[l].as_mut() {
                    lane_busy[l] += 1;
                    busy_lanes += 1;
                    *remaining -= 1;
                    if *remaining == 0 {
                        lane_rows[l] += 1;
                        let _ = w;
                        current[l] = None;
                    }
                }
            }
            // Cycle attribution: the array is only "computing" when every
            // lane is occupied; partially-occupied cycles are the load
            // imbalance this model exists to expose.
            breakdown.add(
                if busy_lanes == lanes {
                    StallClass::Compute
                } else if busy_lanes > 0 {
                    StallClass::LoadImbalance
                } else {
                    StallClass::Idle
                },
                1,
            );
        }

        breakdown.debug_assert_accounts_for(cycles, "sparse array");
        let busy: u64 = lane_busy.iter().sum();
        Ok(SparseSimResult {
            stats: SimStats {
                cycles,
                utilization: Utilization {
                    busy,
                    total: cycles * lanes as u64,
                },
                traffic: TrafficCounts {
                    macs: total_nnz,
                    sram_accesses: total_nnz + b.rows() as u64,
                    regfile_accesses: 2 * total_nnz,
                    dram_words: 0,
                    pe_cycles: cycles * lanes as u64,
                },
                breakdown,
            },
            lane_busy,
            lane_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_tensor::gen;

    fn params(balance: BalancePolicy) -> SparseArrayParams {
        SparseArrayParams {
            lanes: 8,
            row_startup_cycles: 1,
            balance,
        }
    }

    #[test]
    fn profiled_run_matches_traced_and_reports_engine_stats() {
        let b = gen::imbalanced(32, 256, 4, 128, 2, 7);
        let p = params(BalancePolicy::Global);
        let plain = simulate_sparse_matmul(&b, &p).unwrap();
        let (profiled, stats) = simulate_sparse_matmul_traced(
            &b,
            &p,
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .unwrap();
        // Profiling must not perturb the simulation in any observable way.
        assert_eq!(profiled, plain);
        // Every row completion is one scheduled + one popped event; jumps
        // are observed once per completion *batch* (same-cycle followers
        // drain through `pop_due`), so the jump count is bounded by rows.
        let total_rows: u64 = profiled.lane_rows.iter().map(|&r| r as u64).sum();
        assert_eq!(stats.events_scheduled, total_rows);
        assert_eq!(stats.events_popped, total_rows);
        assert!(stats.jump_cycles.count >= 1 && stats.jump_cycles.count <= total_rows);
        assert!(stats.max_pending >= 1 && stats.max_pending <= 8);
        // Deterministic: a second profiled run reports identical stats.
        let (_, again) = simulate_sparse_matmul_traced(
            &b,
            &p,
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(stats, again);
    }

    #[test]
    fn balanced_matrix_is_fine_without_balancing() {
        let b = gen::uniform(64, 64, 0.2, 1);
        let none = simulate_sparse_matmul(&b, &params(BalancePolicy::None)).unwrap();
        assert!(none.utilization() > 0.7, "got {:.3}", none.utilization());
    }

    #[test]
    fn imbalance_tanks_unbalanced_utilization() {
        // Figure 6: a B matrix whose heavy rows all land on a few lanes.
        let b = gen::imbalanced(8, 256, 2, 128, 2, 7);
        let none = simulate_sparse_matmul(&b, &params(BalancePolicy::None)).unwrap();
        assert!(
            none.utilization() < 0.5,
            "imbalanced workload should idle lanes, got {:.3}",
            none.utilization()
        );
    }

    #[test]
    fn balancing_recovers_utilization() {
        let b = gen::imbalanced(32, 256, 4, 128, 2, 7);
        let none = simulate_sparse_matmul(&b, &params(BalancePolicy::None)).unwrap();
        let adj = simulate_sparse_matmul(&b, &params(BalancePolicy::AdjacentRows)).unwrap();
        let global = simulate_sparse_matmul(&b, &params(BalancePolicy::Global)).unwrap();
        assert!(adj.stats.cycles <= none.stats.cycles);
        assert!(global.stats.cycles <= adj.stats.cycles);
        assert!(
            global.utilization() > none.utilization(),
            "global {:.3} vs none {:.3}",
            global.utilization(),
            none.utilization()
        );
    }

    #[test]
    fn work_is_conserved() {
        let b = gen::power_law(100, 100, 6.0, 1.8, 3);
        let total_nnz: u64 = (0..100).map(|r| b.row_len(r) as u64).sum();
        for policy in [
            BalancePolicy::None,
            BalancePolicy::AdjacentRows,
            BalancePolicy::Global,
        ] {
            let r = simulate_sparse_matmul(&b, &params(policy)).unwrap();
            assert_eq!(r.stats.traffic.macs, total_nnz);
            let rows_done: usize = r.lane_rows.iter().sum();
            let nonempty_rows = (0..100).filter(|&r| b.row_len(r) > 0).count();
            assert_eq!(rows_done, nonempty_rows, "policy {policy:?}");
        }
    }

    #[test]
    fn global_moves_rows_across_lanes() {
        let b = gen::imbalanced(8, 256, 1, 200, 1, 9);
        let r = simulate_sparse_matmul(&b, &params(BalancePolicy::Global)).unwrap();
        // Lane 0 owns the heavy row; other lanes must have taken some rows.
        assert!(r.lane_rows.iter().skip(1).any(|&n| n > 0));
    }

    #[test]
    fn watchdog_bounds_the_lane_loop() {
        let b = gen::uniform(64, 64, 0.3, 2);
        let err = simulate_sparse_matmul_traced(
            &b,
            &params(BalancePolicy::None),
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::with_budget(3),
            &mut Tracer::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::WatchdogExpired { budget: 3, .. }));
    }

    #[test]
    fn stuck_lane_deadlocks_without_balancing() {
        let b = gen::uniform(32, 64, 0.3, 4);
        let mut plan = FaultPlan::none();
        plan.stuck_lane = Some(0);
        let err = simulate_sparse_matmul_traced(
            &b,
            &params(BalancePolicy::None),
            &mut FaultInjector::new(plan),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { .. }),
            "a dead lane's rows are unreachable without balancing: {err:?}"
        );
    }

    #[test]
    fn global_balancing_tolerates_a_stuck_lane() {
        // Load balancing doubles as fault tolerance: with Global stealing,
        // the dead lane's pending rows reroute to live lanes and the run
        // completes with all work conserved.
        let b = gen::uniform(32, 64, 0.3, 4);
        let mut plan = FaultPlan::none();
        plan.stuck_lane = Some(0);
        let (r, _) = simulate_sparse_matmul_traced(
            &b,
            &params(BalancePolicy::Global),
            &mut FaultInjector::new(plan),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(r.lane_rows[0], 0, "the stuck lane must do nothing");
        let rows_done: usize = r.lane_rows.iter().sum();
        let nonempty = (0..32).filter(|&row| b.row_len(row) > 0).count();
        assert_eq!(rows_done, nonempty);
    }

    #[test]
    fn imbalance_shows_up_in_the_breakdown() {
        let b = gen::imbalanced(8, 256, 2, 128, 2, 7);
        let mut tracer = Tracer::enabled();
        let (r, _) = simulate_sparse_matmul_traced(
            &b,
            &params(BalancePolicy::None),
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::default_budget(),
            &mut tracer,
        )
        .unwrap();
        assert_eq!(r.stats.breakdown.total(), r.stats.cycles);
        assert!(
            r.stats.breakdown.get(StallClass::LoadImbalance)
                > r.stats.breakdown.get(StallClass::Compute),
            "an imbalanced matrix must spend most cycles imbalanced: {:?}",
            r.stats.breakdown
        );
        // One span per executed non-empty row.
        let rows_done: usize = r.lane_rows.iter().sum();
        assert_eq!(tracer.len(), rows_done);
    }

    #[test]
    fn empty_matrix() {
        let b = gen::uniform(8, 8, 0.0, 1);
        let r = simulate_sparse_matmul(&b, &params(BalancePolicy::None)).unwrap();
        assert_eq!(r.stats.cycles, 0);
    }

    /// Pins the steal order of the pending queues: owners pop the
    /// lowest pending row, thieves take the victim's highest-numbered row
    /// (the farthest-future work), and `AdjacentRows` leaves a lone head
    /// in place. Breaking any of these reorders `lane_rows` here.
    #[test]
    fn steal_order_is_pinned() {
        // 3 lanes, rows r assigned r % 3. Row lengths chosen so lane 2
        // drains first and must steal.
        //   lane 0: rows 0 (9 nnz), 3 (9 nnz)
        //   lane 1: rows 1 (9 nnz), 4 (9 nnz)
        //   lane 2: row  2 (1 nnz)
        let mut m = stellar_tensor::DenseMatrix::zeros(5, 9);
        for (row, nnz) in [(0usize, 9usize), (1, 9), (2, 1), (3, 9), (4, 9)] {
            for c in 0..nnz {
                m.set(row, c, 1.0);
            }
        }
        let b = CsrMatrix::from_dense(&m);
        let p = SparseArrayParams {
            lanes: 3,
            row_startup_cycles: 0,
            balance: BalancePolicy::Global,
        };
        let r = simulate_sparse_matmul(&b, &p).unwrap();
        // t=0: lanes take rows 0, 1, 2. t=1: lane 2 finishes and steals
        // from the max-length victim — the scan's *last* max on ties is
        // lane 1, whose back row is row 4. t=9: lanes 0/1 finish; lane 0
        // pops its own row 3, lane 1 steals nothing (all queues empty).
        assert_eq!(r.lane_rows, vec![2, 1, 2], "rows executed per lane");
        // Lane 2: row 2 (1 cycle) + stolen row 4 (9 cycles).
        assert_eq!(r.lane_busy, vec![18, 9, 10]);
        // And the ticked reference agrees byte-for-byte.
        let ref_r = reference::simulate_sparse_matmul_traced(
            &b,
            &p,
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(r, ref_r);
    }

    /// The AdjacentRows variant of the pin: the thief prefers the
    /// more-loaded neighbour, takes that queue's *back* row (never the
    /// head), and a lone head is never stolen.
    #[test]
    fn adjacent_steal_order_is_pinned() {
        // 3 lanes. Lane 0 owns rows 0 (8 nnz), 3 (6), 6 (4); lane 1 owns
        // only row 1 (1 nnz); lane 2 owns rows 2 (8) and 5 (6). Lane 1
        // finishes first: its left neighbour's queue (len 2) beats the
        // right (len 1), and it must steal the back row 6 — not head row
        // 3. When lane 1 idles again at t=5, both neighbours hold a lone
        // head (len 1), so no further steal is allowed.
        let mut m = stellar_tensor::DenseMatrix::zeros(7, 8);
        for (row, nnz) in [(0usize, 8usize), (1, 1), (2, 8), (3, 6), (5, 6), (6, 4)] {
            for c in 0..nnz {
                m.set(row, c, 1.0);
            }
        }
        let b = CsrMatrix::from_dense(&m);
        let p = SparseArrayParams {
            lanes: 3,
            row_startup_cycles: 0,
            balance: BalancePolicy::AdjacentRows,
        };
        let r = simulate_sparse_matmul(&b, &p).unwrap();
        // Lane 0 runs rows 0 and 3 (8 + 6), lane 1 rows 1 and the stolen
        // row 6 (1 + 4), lane 2 rows 2 and 5 (8 + 6).
        assert_eq!(r.lane_rows, vec![2, 2, 2]);
        assert_eq!(r.lane_busy, vec![14, 5, 14]);
        let ref_r = reference::simulate_sparse_matmul_traced(
            &b,
            &p,
            &mut FaultInjector::new(FaultPlan::none()),
            Watchdog::default_budget(),
            &mut Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(r, ref_r);
    }
}
