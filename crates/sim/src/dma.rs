//! The DMA/DRAM model: contiguous bursts vs latency-bound scattered
//! requests (§VI-C of the paper).
//!
//! Stellar's default DMA makes *one* new memory request per cycle and
//! tracks one outstanding miss. For contiguous tensors this saturates DRAM
//! bandwidth; for the scattered partial-sum *pointers* of an
//! OuterSPACE-style accelerator, every read returns a single scalar after a
//! full DRAM latency, and the control dependency (pointer → vector)
//! serializes behind it. Raising the number of independent outstanding
//! requests to 16 overlaps those latencies without adding bandwidth.
//!
//! The reliability layer ([`RetryPolicy`], [`DmaModel::reliable_contiguous_cycles`],
//! [`DmaModel::reliable_scattered_cycles`]) models per-request response
//! loss: a dropped response is noticed after a timeout, retried after an
//! exponentially growing backoff, and charged to the cycle count. When a
//! request exhausts its retries the transfer can never complete — the
//! engine is wedged waiting on data that will not arrive — reported as
//! [`SimError::Deadlock`]. The loss itself is drawn by a seeded
//! [`FaultInjector`], one draw per response attempt.

// The reliability layer must not itself panic: unwinding is denied in
// non-test code here.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use crate::engine::Engine;
use crate::error::{SimError, Watchdog};
use crate::fault::FaultInjector;
use crate::trace::{CycleBreakdown, StallClass};

/// DRAM timing parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramParams {
    /// Round-trip latency of one request, cycles.
    pub latency_cycles: u64,
    /// Peak sequential bandwidth, words per cycle.
    pub words_per_cycle: f64,
}

impl Default for DramParams {
    fn default() -> DramParams {
        DramParams {
            latency_cycles: 60,
            words_per_cycle: 8.0,
        }
    }
}

/// A DMA with a configurable number of independent outstanding requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DmaModel {
    /// Independent outstanding request slots (1 = Stellar's default).
    pub slots: usize,
    /// The DRAM behind it.
    pub dram: DramParams,
}

impl DmaModel {
    /// A DMA with the given slot count over default DRAM.
    pub fn with_slots(slots: usize) -> DmaModel {
        DmaModel {
            slots: slots.max(1),
            dram: DramParams::default(),
        }
    }

    /// Cycles to move `words` contiguous words: one latency, then
    /// bandwidth-bound streaming.
    pub fn contiguous_cycles(&self, words: u64) -> u64 {
        if words == 0 {
            return 0;
        }
        self.dram.latency_cycles + (words as f64 / self.dram.words_per_cycle).ceil() as u64
    }

    /// Cycles to issue `requests` independent scattered requests of
    /// `words_each` words: each pays full latency, overlapped across the
    /// available slots, plus the bandwidth cost of the data itself.
    pub fn scattered_cycles(&self, requests: u64, words_each: u64) -> u64 {
        if requests == 0 {
            return 0;
        }
        // With S slots, a new request can retire every latency/S cycles
        // (pipelined); issue rate is also capped at 1/cycle.
        let per_req_latency = (self.dram.latency_cycles as f64 / self.slots as f64).max(1.0);
        let latency_bound = (requests as f64 * per_req_latency).ceil() as u64;
        let bw_bound =
            ((requests * words_each.max(1)) as f64 / self.dram.words_per_cycle).ceil() as u64;
        self.dram.latency_cycles + latency_bound.max(bw_bound)
    }

    /// Cycles for a *dependent* pointer-chase pattern: `chains` independent
    /// chains, each of `depth` serial pointer hops. Within a chain nothing
    /// overlaps; across chains the slots overlap.
    pub fn pointer_chase_cycles(&self, chains: u64, depth: u64) -> u64 {
        if chains == 0 || depth == 0 {
            return 0;
        }
        let serial = depth * self.dram.latency_cycles;
        let parallel = (chains as f64 / self.slots as f64).ceil() as u64;
        serial * parallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn contiguous_is_bandwidth_bound() {
        let dma = DmaModel::with_slots(1);
        let c = dma.contiguous_cycles(8000);
        // 8000 words at 8 w/c = 1000 cycles + latency.
        assert_eq!(c, 60 + 1000);
        // Slots don't help contiguous transfers.
        assert_eq!(DmaModel::with_slots(16).contiguous_cycles(8000), c);
    }

    #[test]
    fn scattered_single_slot_is_latency_bound() {
        let dma = DmaModel::with_slots(1);
        // 1000 single-word requests: ~1 per 60 cycles.
        let c = dma.scattered_cycles(1000, 1);
        assert!(c >= 60_000, "expected latency-bound, got {c}");
    }

    #[test]
    fn sixteen_slots_overlap_latency() {
        let one = DmaModel::with_slots(1).scattered_cycles(1000, 1);
        let sixteen = DmaModel::with_slots(16).scattered_cycles(1000, 1);
        let speedup = one as f64 / sixteen as f64;
        assert!(
            (8.0..20.0).contains(&speedup),
            "16 slots should give order-of-magnitude overlap, got {speedup:.1}x"
        );
    }

    #[test]
    fn scattered_eventually_bandwidth_bound() {
        // With big payloads per request, bandwidth dominates and slots stop
        // helping.
        let one = DmaModel::with_slots(1).scattered_cycles(1000, 512);
        let sixteen = DmaModel::with_slots(16).scattered_cycles(1000, 512);
        assert_eq!(one, sixteen);
    }

    #[test]
    fn pointer_chase_serializes_depth() {
        let dma = DmaModel::with_slots(16);
        let shallow = dma.pointer_chase_cycles(16, 1);
        let deep = dma.pointer_chase_cycles(16, 4);
        assert_eq!(deep, 4 * shallow);
    }

    #[test]
    fn fault_free_reliable_matches_base_exactly() {
        let dma = DmaModel::with_slots(4);
        let mut inj = FaultInjector::new(FaultPlan::none());
        let wd = Watchdog::default_budget();
        let r = dma
            .reliable_contiguous_cycles(8000, &RetryPolicy::exponential(), &mut inj, &wd)
            .unwrap();
        assert_eq!(r.cycles, dma.contiguous_cycles(8000));
        assert_eq!((r.attempts, r.retries), (1, 0));
        let r = dma
            .reliable_scattered_cycles(100, 4, &RetryPolicy::exponential(), &mut inj, &wd)
            .unwrap();
        assert_eq!(r.cycles, dma.scattered_cycles(100, 4));
        assert_eq!((r.attempts, r.retries), (100, 0));
    }

    #[test]
    fn drops_cost_timeout_and_backoff() {
        let dma = DmaModel::with_slots(1);
        let mut plan = FaultPlan::none();
        plan.seed = 11;
        plan.dma_drop_per_request = 0.3;
        let mut inj = FaultInjector::new(plan);
        let wd = Watchdog::default_budget();
        let r = dma
            .reliable_scattered_cycles(200, 1, &RetryPolicy::exponential(), &mut inj, &wd)
            .unwrap();
        assert!(r.retries > 0, "30% drop rate must retry");
        assert!(
            r.cycles > dma.scattered_cycles(200, 1),
            "recovery must cost cycles"
        );
        assert_eq!(r.attempts, 200 + r.retries);
        assert_eq!(inj.dropped, r.retries);
    }

    #[test]
    fn retries_exhausted_is_a_deadlock() {
        let dma = DmaModel::with_slots(1);
        let mut plan = FaultPlan::none();
        plan.seed = 1;
        plan.dma_drop_per_request = 1.0; // every response lost
        let mut inj = FaultInjector::new(plan);
        let wd = Watchdog::default_budget();
        let err = dma
            .reliable_contiguous_cycles(64, &RetryPolicy::exponential(), &mut inj, &wd)
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err:?}");
        // With no retries allowed, the very first drop wedges the transfer.
        let err = dma
            .reliable_scattered_cycles(10, 1, &RetryPolicy::none(), &mut inj, &wd)
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::exponential();
        assert_eq!(p.backoff_cycles(1), 8);
        assert_eq!(p.backoff_cycles(2), 16);
        assert_eq!(p.backoff_cycles(3), 32);
    }

    #[test]
    fn recovery_respects_watchdog() {
        let dma = DmaModel::with_slots(1);
        let mut plan = FaultPlan::none();
        plan.seed = 2;
        plan.dma_drop_per_request = 0.5;
        let mut inj = FaultInjector::new(plan);
        // Plenty of retries, so nothing wedges — but recovery cycles blow
        // straight past a 100-cycle budget.
        let policy = RetryPolicy {
            max_retries: 1000,
            base_backoff_cycles: 8,
            timeout_cycles: 240,
        };
        let err = dma
            .reliable_scattered_cycles(1000, 1, &policy, &mut inj, &Watchdog::with_budget(100))
            .unwrap_err();
        assert!(
            matches!(err, SimError::WatchdogExpired { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_requests_zero_cycles() {
        let dma = DmaModel::with_slots(4);
        assert_eq!(dma.contiguous_cycles(0), 0);
        assert_eq!(dma.scattered_cycles(0, 8), 0);
        assert_eq!(dma.pointer_chase_cycles(0, 3), 0);
    }

    #[test]
    fn zero_words_skip_the_reliable_machinery() {
        // A zero-length transfer issues no request, so even a plan that
        // drops every response costs nothing and draws no randomness.
        let dma = DmaModel::with_slots(4);
        let mut plan = FaultPlan::none();
        plan.dma_drop_per_request = 1.0;
        let mut inj = FaultInjector::new(plan);
        let w = Watchdog::default_budget();
        let rep = dma
            .reliable_contiguous_cycles(0, &RetryPolicy::none(), &mut inj, &w)
            .unwrap();
        assert_eq!(rep, DmaTransferReport::default());
        let rep = dma
            .reliable_scattered_cycles(0, 8, &RetryPolicy::none(), &mut inj, &w)
            .unwrap();
        assert_eq!(rep, DmaTransferReport::default());
        assert_eq!(inj.dropped, 0);
    }

    #[test]
    fn more_slots_than_latency_cycles_is_well_behaved() {
        // With more outstanding-request slots than latency cycles, the
        // issue rate (one request per cycle) becomes the cap: extra slots
        // stop helping but never hurt or underflow.
        let narrow = DmaModel::with_slots(60); // slots == latency
        let wide = DmaModel::with_slots(1024); // slots >> latency
        for reqs in [1u64, 7, 100] {
            let n = narrow.scattered_cycles(reqs, 1);
            let w = wide.scattered_cycles(reqs, 1);
            assert!(w <= n, "more slots must never slow down ({w} > {n})");
            // Latency + at least one issue cycle per request.
            assert!(w >= narrow.dram.latency_cycles + reqs.min(1));
        }
        // Pointer chases collapse to one serial chain's latency.
        assert_eq!(
            wide.pointer_chase_cycles(100, 3),
            3 * wide.dram.latency_cycles
        );
    }

    #[test]
    fn report_breakdown_accounts_for_every_cycle() {
        use crate::trace::StallClass;
        let dma = DmaModel::with_slots(1);
        let mut plan = FaultPlan::none();
        plan.seed = 11;
        plan.dma_drop_per_request = 0.3;
        let mut inj = FaultInjector::new(plan);
        let wd = Watchdog::default_budget();
        let r = dma
            .reliable_scattered_cycles(200, 1, &RetryPolicy::exponential(), &mut inj, &wd)
            .unwrap();
        assert_eq!(r.breakdown.total(), r.cycles);
        assert!(r.breakdown.get(StallClass::FaultRecovery) > 0);
        // Single-word scattered requests on one slot are latency-bound.
        assert!(
            r.breakdown.get(StallClass::DmaLatency) > r.breakdown.get(StallClass::DmaBandwidth)
        );
        // A big contiguous burst is bandwidth-bound.
        let mut clean = FaultInjector::new(FaultPlan::none());
        let c = dma
            .reliable_contiguous_cycles(8000, &RetryPolicy::exponential(), &mut clean, &wd)
            .unwrap();
        assert_eq!(c.breakdown.total(), c.cycles);
        assert_eq!(c.breakdown.get(StallClass::DmaBandwidth), 1000);
        assert_eq!(c.breakdown.get(StallClass::DmaLatency), 60);
        assert_eq!(c.breakdown.get(StallClass::FaultRecovery), 0);
    }

    #[test]
    fn engine_path_matches_reference_closed_form() {
        // Same seed, same plan: the engine-backed paths must reproduce the
        // retained closed-form reports byte-for-byte, with identical
        // injector RNG draw order (checked via the drop counters).
        let wd = Watchdog::default_budget();
        for drop in [0.0, 0.3, 0.2] {
            let plan = FaultPlan {
                seed: 17,
                dma_drop_per_request: drop,
            };
            for slots in [1usize, 4, 16] {
                let dma = DmaModel::with_slots(slots);
                let mut inj_a = FaultInjector::new(plan);
                let mut inj_b = FaultInjector::new(plan);
                let got = dma.reliable_contiguous_cycles(
                    8000,
                    &RetryPolicy::exponential(),
                    &mut inj_a,
                    &wd,
                );
                let want = reference::reliable_contiguous_cycles(
                    &dma,
                    8000,
                    &RetryPolicy::exponential(),
                    &mut inj_b,
                    &wd,
                );
                assert_eq!(got, want);
                let got = dma.reliable_scattered_cycles(
                    200,
                    3,
                    &RetryPolicy::exponential(),
                    &mut inj_a,
                    &wd,
                );
                let want = reference::reliable_scattered_cycles(
                    &dma,
                    200,
                    3,
                    &RetryPolicy::exponential(),
                    &mut inj_b,
                    &wd,
                );
                assert_eq!(got, want);
                assert_eq!(inj_a.dropped, inj_b.dropped);
            }
        }
    }

    #[test]
    fn recovery_penalty_monotone_in_retry_count() {
        // With the same seed, a request that needs n retries costs
        // strictly more cycles at every additional retry the policy
        // grants (timeout + growing backoff per round).
        let dma = DmaModel::with_slots(1);
        let mut cycles_at = Vec::new();
        for max_retries in 1u32..=4 {
            let mut plan = FaultPlan::none();
            plan.seed = 11;
            plan.dma_drop_per_request = 0.9;
            let mut inj = FaultInjector::new(plan);
            let policy = RetryPolicy {
                max_retries,
                base_backoff_cycles: 8,
                timeout_cycles: 240,
            };
            match dma.reliable_contiguous_cycles(64, &policy, &mut inj, &Watchdog::default_budget())
            {
                Ok(rep) => cycles_at.push(Some(rep.cycles)),
                Err(_) => cycles_at.push(None),
            }
        }
        // Every successful run with more retry rounds used at least as
        // many cycles as the previous successful one.
        let succeeded: Vec<u64> = cycles_at.iter().flatten().copied().collect();
        for pair in succeeded.windows(2) {
            assert!(pair[1] >= pair[0], "{cycles_at:?}");
        }
    }

    #[test]
    fn benchmark_dma_stream_is_pinned() {
        // The exact transfer the benchmark's `dma_scattered` input runs: 4
        // slots, 4 words per request, 2 % response loss, exponential retry
        // with 8 retries. Pinning `(cycles, retries)` keeps the drop draw
        // sequence and the retry accounting from drifting.
        let policy = RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::exponential()
        };
        for (requests, seed, want) in [
            (100_000u64, 3u64, (1_628_484u64, 2_070u64)),
            (100_000, 11, (1_621_280, 1_954)),
            (2_000_000, 3, (32_546_784, 41_049)),
            (2_000_000, 11, (32_534_080, 40_844)),
        ] {
            let plan = FaultPlan {
                seed,
                dma_drop_per_request: 0.02,
            };
            let r = DmaModel::with_slots(4)
                .reliable_scattered_cycles(
                    requests,
                    4,
                    &policy,
                    &mut FaultInjector::new(plan),
                    &Watchdog::default_budget(),
                )
                .unwrap();
            assert_eq!(
                (r.cycles, r.retries),
                want,
                "{requests} requests, seed {seed}"
            );
            assert_eq!(r.attempts, requests + r.retries);
        }
    }
}

/// Retry behaviour for lost DMA responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per request before declaring the transfer wedged.
    pub max_retries: u32,
    /// Backoff before the first retry, cycles; doubles every further retry.
    pub base_backoff_cycles: u64,
    /// Cycles waited before a missing response is declared lost.
    pub timeout_cycles: u64,
}

impl RetryPolicy {
    /// No retries: the first dropped response wedges the transfer.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff_cycles: 0,
            timeout_cycles: 240,
        }
    }

    /// The default resilient policy: 3 retries, exponential backoff from 8
    /// cycles, 240-cycle (4× default DRAM latency) timeout.
    pub fn exponential() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff_cycles: 8,
            timeout_cycles: 240,
        }
    }

    /// The backoff before retry number `retry` (1-based): `base << (retry-1)`.
    pub fn backoff_cycles(&self, retry: u32) -> u64 {
        self.base_backoff_cycles
            .saturating_mul(1u64 << (retry.saturating_sub(1)).min(62))
    }
}

/// The outcome of a reliable transfer: cycles including every recovery
/// penalty, plus how much recovering cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DmaTransferReport {
    /// Total cycles, loss-free base plus recovery penalties.
    pub cycles: u64,
    /// Request attempts issued (requests + retries).
    pub attempts: u64,
    /// Retries among those attempts.
    pub retries: u64,
    /// Where every cycle went: `DmaLatency` for round-trip waits,
    /// `DmaBandwidth` for streaming beats, `FaultRecovery` for every
    /// recovery penalty (timeouts and backoffs). Sums to `cycles`.
    pub breakdown: CycleBreakdown,
}

/// Retries one request whose first attempt was already counted in
/// `report.attempts` and came back dropped, returning its recovery penalty
/// in cycles: every lost attempt costs the timeout plus a backoff that
/// doubles per retry, and every retry is one more attempt and one more drop
/// draw.
///
/// # Errors
///
/// [`SimError::Deadlock`] once a retry would exceed `retry.max_retries`.
#[cold]
fn retry_dropped(
    retry: &RetryPolicy,
    injector: &mut FaultInjector,
    report: &mut DmaTransferReport,
) -> Result<u64, SimError> {
    let mut penalty = 0u64;
    let mut attempt = 1u32;
    loop {
        if attempt > retry.max_retries {
            return Err(SimError::Deadlock {
                cycle: penalty + retry.timeout_cycles,
                detail: format!("dma response lost, {} retries exhausted", retry.max_retries),
            });
        }
        report.retries += 1;
        penalty += retry.timeout_cycles + retry.backoff_cycles(attempt);
        attempt += 1;
        report.attempts += 1;
        if !injector.dma_response_dropped() {
            return Ok(penalty);
        }
    }
}

impl DmaModel {
    /// [`DmaModel::contiguous_cycles`] under response loss: the single
    /// burst is retried per the policy, with timeout and backoff cycles
    /// charged on every loss. Loss-free plans reproduce the base cycle
    /// count exactly.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when retries are exhausted;
    /// [`SimError::WatchdogExpired`] when recovery pushes the transfer past
    /// the budget.
    pub fn reliable_contiguous_cycles(
        &self,
        words: u64,
        retry: &RetryPolicy,
        injector: &mut FaultInjector,
        watchdog: &Watchdog,
    ) -> Result<DmaTransferReport, SimError> {
        let mut report = DmaTransferReport::default();
        if words == 0 {
            return Ok(report);
        }
        report.attempts += 1;
        let penalty = if injector.dma_response_dropped() {
            retry_dropped(retry, injector, &mut report)?
        } else {
            0
        };
        let base = self.contiguous_cycles(words);
        report.cycles = base + penalty;
        watchdog.check_total(report.cycles, "reliable contiguous dma")?;
        // Skip-ahead in three leaps: the round-trip wait, the streaming
        // beats, and whatever recovery cost the injector charged.
        let mut engine = Engine::new(*watchdog);
        engine.advance(
            self.dram.latency_cycles,
            StallClass::DmaLatency,
            "reliable contiguous dma",
        )?;
        engine.advance(
            base - self.dram.latency_cycles,
            StallClass::DmaBandwidth,
            "reliable contiguous dma",
        )?;
        engine.advance(
            penalty,
            StallClass::FaultRecovery,
            "reliable contiguous dma",
        )?;
        report.breakdown = engine.into_breakdown();
        report
            .breakdown
            .debug_assert_accounts_for(report.cycles, "reliable contiguous dma");
        Ok(report)
    }

    /// [`DmaModel::scattered_cycles`] under response loss: every request is
    /// retried independently, and recovery penalties overlap across the
    /// outstanding-request slots just like the base latencies do.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when any request exhausts its retries;
    /// [`SimError::WatchdogExpired`] past the budget.
    pub fn reliable_scattered_cycles(
        &self,
        requests: u64,
        words_each: u64,
        retry: &RetryPolicy,
        injector: &mut FaultInjector,
        watchdog: &Watchdog,
    ) -> Result<DmaTransferReport, SimError> {
        let mut report = DmaTransferReport::default();
        if requests == 0 {
            return Ok(report);
        }
        // Bulk loop: every request's first attempt is booked up front,
        // each request costs one drop draw, and only the rare dropped
        // request takes the out-of-line retry tail.
        let mut penalty_sum = 0u64;
        report.attempts += requests;
        for _ in 0..requests {
            if injector.dma_response_dropped() {
                penalty_sum += retry_dropped(retry, injector, &mut report)?;
            }
        }
        // Recovery penalties of independent requests overlap across slots.
        let overlapped = (penalty_sum as f64 / self.slots.max(1) as f64).ceil() as u64;
        report.cycles = self.scattered_cycles(requests, words_each) + overlapped;
        watchdog.check_total(report.cycles, "reliable scattered dma")?;
        // Attribute the dominant bound of the base model: when the
        // request rate limits the transfer the wait is latency, when the
        // payload does it is bandwidth.
        let per_req_latency = (self.dram.latency_cycles as f64 / self.slots as f64).max(1.0);
        let latency_bound = (requests as f64 * per_req_latency).ceil() as u64;
        let bw_bound =
            ((requests * words_each.max(1)) as f64 / self.dram.words_per_cycle).ceil() as u64;
        let bound_class = if latency_bound >= bw_bound {
            StallClass::DmaLatency
        } else {
            StallClass::DmaBandwidth
        };
        // Skip-ahead in three leaps: first-response wait, the overlapped
        // recovery penalty, then the dominant steady-state bound.
        let mut engine = Engine::new(*watchdog);
        engine.advance(
            self.dram.latency_cycles,
            StallClass::DmaLatency,
            "reliable scattered dma",
        )?;
        engine.advance(
            overlapped,
            StallClass::FaultRecovery,
            "reliable scattered dma",
        )?;
        engine.advance(
            latency_bound.max(bw_bound),
            bound_class,
            "reliable scattered dma",
        )?;
        report.breakdown = engine.into_breakdown();
        report
            .breakdown
            .debug_assert_accounts_for(report.cycles, "reliable scattered dma");
        Ok(report)
    }
}

/// The retained closed-form accountings — the observational-equivalence
/// oracle for the engine-backed reliable transfer paths above and the
/// "pre" side of the `sim` benchmark suite.
pub mod reference {
    use super::*;

    /// Closed-form counterpart of [`DmaModel::reliable_contiguous_cycles`]
    /// (identical observable behaviour, including injector draw order).
    ///
    /// # Errors
    ///
    /// Identical to [`DmaModel::reliable_contiguous_cycles`].
    pub fn reliable_contiguous_cycles(
        dma: &DmaModel,
        words: u64,
        retry: &RetryPolicy,
        injector: &mut FaultInjector,
        watchdog: &Watchdog,
    ) -> Result<DmaTransferReport, SimError> {
        let mut report = DmaTransferReport::default();
        if words == 0 {
            return Ok(report);
        }
        report.attempts += 1;
        let penalty = if injector.dma_response_dropped() {
            retry_dropped(retry, injector, &mut report)?
        } else {
            0
        };
        report.cycles = dma.contiguous_cycles(words) + penalty;
        report.breakdown = CycleBreakdown::new()
            .with(StallClass::DmaLatency, dma.dram.latency_cycles)
            .with(
                StallClass::DmaBandwidth,
                dma.contiguous_cycles(words) - dma.dram.latency_cycles,
            )
            .with(StallClass::FaultRecovery, penalty);
        report
            .breakdown
            .debug_assert_accounts_for(report.cycles, "reliable contiguous dma");
        watchdog.check_total(report.cycles, "reliable contiguous dma")?;
        Ok(report)
    }

    /// Closed-form counterpart of [`DmaModel::reliable_scattered_cycles`]
    /// (identical observable behaviour, including injector draw order).
    ///
    /// # Errors
    ///
    /// Identical to [`DmaModel::reliable_scattered_cycles`].
    pub fn reliable_scattered_cycles(
        dma: &DmaModel,
        requests: u64,
        words_each: u64,
        retry: &RetryPolicy,
        injector: &mut FaultInjector,
        watchdog: &Watchdog,
    ) -> Result<DmaTransferReport, SimError> {
        let mut report = DmaTransferReport::default();
        if requests == 0 {
            return Ok(report);
        }
        let mut penalty_sum = 0u64;
        for _ in 0..requests {
            report.attempts += 1;
            if injector.dma_response_dropped() {
                penalty_sum += retry_dropped(retry, injector, &mut report)?;
            }
        }
        // Recovery penalties of independent requests overlap across slots.
        let overlapped = (penalty_sum as f64 / dma.slots.max(1) as f64).ceil() as u64;
        report.cycles = dma.scattered_cycles(requests, words_each) + overlapped;
        // Attribute the dominant bound of the base model: when the
        // request rate limits the transfer the wait is latency, when the
        // payload does it is bandwidth.
        let per_req_latency = (dma.dram.latency_cycles as f64 / dma.slots as f64).max(1.0);
        let latency_bound = (requests as f64 * per_req_latency).ceil() as u64;
        let bw_bound =
            ((requests * words_each.max(1)) as f64 / dma.dram.words_per_cycle).ceil() as u64;
        let bound_class = if latency_bound >= bw_bound {
            StallClass::DmaLatency
        } else {
            StallClass::DmaBandwidth
        };
        report.breakdown = CycleBreakdown::new()
            .with(StallClass::DmaLatency, dma.dram.latency_cycles)
            .with(StallClass::FaultRecovery, overlapped);
        report
            .breakdown
            .add(bound_class, latency_bound.max(bw_bound));
        report
            .breakdown
            .debug_assert_accounts_for(report.cycles, "reliable scattered dma");
        watchdog.check_total(report.cycles, "reliable scattered dma")?;
        Ok(report)
    }
}
