//! The shared event-driven simulation engine: a monotonic event queue plus
//! a skip-ahead clock.
//!
//! The cycle-stepped models in this crate originally advanced time one
//! cycle at a time, scanning every lane on every tick even across long
//! stretches where no state could possibly change. This module provides
//! the alternative the fast analytical modelers (Sparseloop, TeAAL) use:
//! simulated time jumps directly from one *event* (a lane completing a
//! row, a DMA response arriving) to the next, and the cycles in between
//! are attributed to a [`StallClass`] in one arithmetic step instead of
//! one loop iteration per cycle.
//!
//! Two invariants make the engine a drop-in replacement for the ticked
//! loops it replaces:
//!
//! * **Monotonic time.** [`Engine::advance`] only moves forward, the
//!   [`Watchdog`] is ticked by exactly the cycles skipped (so budget
//!   exhaustion fires under the same budgets as a per-cycle loop), and
//!   every advanced cycle is attributed to exactly one stall class, so
//!   the [`CycleBreakdown`] sums to the final cycle count — the same
//!   accounting invariant the ticked loops maintain.
//! * **Deterministic ordering.** Events at equal timestamps pop in the
//!   order they were scheduled (FIFO tie-break via a monotone sequence
//!   number), which keeps lane iteration order identical to the per-cycle
//!   reference.
//!
//! The queue is a preallocated sorted ring (see [`EventQueue`]):
//! scheduling and popping inside a simulation loop performs no heap
//! allocation as long as the number of in-flight events stays within the
//! initial capacity (models size it to their lane count up front).

// The engine sits under every simulation loop: unwinding is denied in
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

use crate::error::{SimError, Watchdog};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::{CycleBreakdown, StallClass};

/// Introspection counters for one engine run, tracked allocation-free
/// alongside the hot loop (plain integer adds per schedule/pop, a
/// fixed-array histogram bucket increment per skip): how the event queue
/// behaved (depth, compactions) and how far each skip-ahead jumped. All
/// values derive from *simulated* time and queue activity, so they are
/// deterministic for a fixed workload — safe to publish next to
/// byte-compared metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Events ever scheduled.
    pub events_scheduled: u64,
    /// Events popped (consumed by the model).
    pub events_popped: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
    /// Times the queue compacted its consumed prefix.
    pub compactions: u64,
    /// Distribution of skip-ahead jump lengths in cycles (one observation
    /// per [`Engine::advance_to_next_event`] that moved time or not).
    pub jump_cycles: Histogram,
}

impl EngineStats {
    /// Publishes the stats into a [`MetricsRegistry`] under
    /// `engine_*{labels}` metrics: `engine_events{kind=scheduled|popped}`
    /// and `engine_compactions` counters, an `engine_max_pending` gauge,
    /// and the `engine_jump_cycles` histogram (with p50/p95/p99 in the
    /// JSON export).
    pub fn record(&self, registry: &mut MetricsRegistry, labels: &[(&str, &str)]) {
        let mut scheduled = labels.to_vec();
        scheduled.push(("kind", "scheduled"));
        registry.counter_add("engine_events", &scheduled, self.events_scheduled);
        let mut popped = labels.to_vec();
        popped.push(("kind", "popped"));
        registry.counter_add("engine_events", &popped, self.events_popped);
        registry.counter_add("engine_compactions", labels, self.compactions);
        registry.gauge_set("engine_max_pending", labels, self.max_pending as f64);
        // Bucket-exact merge of the whole jump histogram (not a replay
        // of observations, which would lose the original buckets).
        registry.observe_histogram("engine_jump_cycles", labels, &self.jump_cycles);
    }
}

/// One scheduled completion/arrival, as seen by a model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Absolute cycle at which the event fires.
    pub time: u64,
    /// Model-defined payload (typically a lane index).
    pub key: u32,
}

/// A queue entry; `seq` breaks ties among same-cycle events FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueueEntry {
    time: u64,
    seq: u64,
    key: u32,
}

/// A monotonic event queue with FIFO ordering among same-cycle events.
///
/// The in-flight set of the models built on this queue is bounded by the
/// lane/slot count (a handful of entries), so the store is a small `Vec`
/// kept sorted ascending by `(time, seq)` behind a consumed-prefix
/// cursor. A model scheduling a completion later than everything pending
/// — the overwhelmingly common case in a skip-ahead loop — appends
/// without shifting anything; popping the earliest event just advances
/// the cursor, compacting the consumed prefix away once it outgrows the
/// live tail. At these sizes both operations beat a binary heap's sift,
/// which is what keeps the hot loops allocation- and
/// pointer-chase-free.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    /// Pending events from `start` on, sorted ascending by `(time, seq)`;
    /// `[..start]` is already consumed.
    sorted: Vec<QueueEntry>,
    start: usize,
    seq: u64,
    /// Introspection counters (plain adds on the hot path): events
    /// popped, the pending-depth high-water mark, and compaction count.
    /// `seq` doubles as the scheduled count.
    popped: u64,
    max_pending: u64,
    compactions: u64,
}

impl EventQueue {
    /// An empty queue that can hold `capacity` in-flight events without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> EventQueue {
        EventQueue {
            sorted: Vec::with_capacity(capacity),
            start: 0,
            seq: 0,
            popped: 0,
            max_pending: 0,
            compactions: 0,
        }
    }

    /// Schedules `key` to fire at absolute cycle `time`.
    #[inline]
    pub fn schedule(&mut self, time: u64, key: u32) {
        let entry = QueueEntry {
            time,
            seq: self.seq,
            key,
        };
        self.seq += 1;
        // Walk back from the end; a same-time pending event has a smaller
        // seq and therefore stays in front of the new one (FIFO).
        let mut pos = self.sorted.len();
        while pos > self.start {
            let e = self.sorted[pos - 1];
            if (e.time, e.seq) > (time, entry.seq) {
                pos -= 1;
            } else {
                break;
            }
        }
        self.sorted.insert(pos, entry);
        self.max_pending = self
            .max_pending
            .max((self.sorted.len() - self.start) as u64);
    }

    /// The firing time of the earliest pending event.
    #[inline]
    pub fn next_time(&self) -> Option<u64> {
        self.sorted.get(self.start).map(|e| e.time)
    }

    /// Pops the earliest pending event (FIFO among equal times).
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let e = *self.sorted.get(self.start)?;
        self.start += 1;
        self.popped += 1;
        if self.start >= self.sorted.len() {
            self.sorted.clear();
            self.start = 0;
        } else if self.start >= 16 && self.start * 2 >= self.sorted.len() {
            // Amortized compaction bounds the buffer at twice the live
            // tail without shifting on every pop.
            self.sorted.drain(..self.start);
            self.start = 0;
            self.compactions += 1;
        }
        Some(Event {
            time: e.time,
            key: e.key,
        })
    }

    /// Pops the earliest event only if it fires at or before `now`.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<Event> {
        if self.next_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len() - self.start
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.sorted.len()
    }

    /// Events ever scheduled into this queue.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Events popped from this queue.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events.
    pub fn max_pending(&self) -> u64 {
        self.max_pending
    }

    /// Times the consumed prefix was compacted away.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

/// The skip-ahead simulation clock: current time, the event queue, the
/// watchdog budget, and the cycle-attribution ledger, advanced together
/// so the `sum(breakdown) == cycles` invariant can never be violated by a
/// model that only moves time through the engine.
#[derive(Clone, Debug)]
pub struct Engine {
    now: u64,
    watchdog: Watchdog,
    breakdown: CycleBreakdown,
    queue: EventQueue,
    /// Skip-ahead jump lengths (cycles per fused pop-and-advance).
    jump_cycles: Histogram,
}

impl Engine {
    /// An engine at cycle 0 under the given watchdog budget.
    pub fn new(watchdog: Watchdog) -> Engine {
        Engine::with_capacity(watchdog, 0)
    }

    /// [`Engine::new`] with an event queue preallocated for `capacity`
    /// in-flight events (size it to the lane count to keep the stepped
    /// loop allocation-free).
    pub fn with_capacity(watchdog: Watchdog, capacity: usize) -> Engine {
        Engine {
            now: 0,
            watchdog,
            breakdown: CycleBreakdown::new(),
            queue: EventQueue::with_capacity(capacity),
            jump_cycles: Histogram::default(),
        }
    }

    /// The current simulated cycle.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The cycles attributed so far (always sums to [`Engine::now`] when
    /// time only moves through [`Engine::advance`]/[`Engine::advance_to`]).
    pub fn breakdown(&self) -> &CycleBreakdown {
        &self.breakdown
    }

    /// Consumes the engine, returning the attribution ledger.
    pub fn into_breakdown(self) -> CycleBreakdown {
        self.breakdown
    }

    /// The watchdog state (elapsed == attributed cycles).
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Schedules `key` to fire `delta` cycles from now.
    #[inline]
    pub fn schedule_in(&mut self, delta: u64, key: u32) {
        self.queue.schedule(self.now.saturating_add(delta), key);
    }

    /// Schedules `key` at an absolute cycle (clamped to the present —
    /// events cannot fire in the past).
    #[inline]
    pub fn schedule_at(&mut self, time: u64, key: u32) {
        self.queue.schedule(time.max(self.now), key);
    }

    /// The firing time of the earliest pending event.
    #[inline]
    pub fn next_event_time(&self) -> Option<u64> {
        self.queue.next_time()
    }

    /// Pops the earliest event that has already fired (`time <= now`).
    #[inline]
    pub fn pop_due(&mut self) -> Option<Event> {
        self.queue.pop_due(self.now)
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// A snapshot of the engine's introspection counters: queue activity
    /// plus the skip-ahead jump-length distribution. Deterministic for a
    /// fixed workload (simulated time only, no wall clock).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            events_scheduled: self.queue.scheduled(),
            events_popped: self.queue.popped(),
            max_pending: self.queue.max_pending(),
            compactions: self.queue.compactions(),
            jump_cycles: self.jump_cycles,
        }
    }

    /// Skips the clock forward by `delta` cycles, attributing every one
    /// of them to `class` and charging the watchdog — one arithmetic step
    /// standing in for `delta` iterations of a ticked loop.
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogExpired`] when the cumulative advanced cycles
    /// exceed the budget, exactly as `delta` single-cycle ticks would.
    #[inline]
    pub fn advance(&mut self, delta: u64, class: StallClass, what: &str) -> Result<(), SimError> {
        self.watchdog.tick(delta, what)?;
        self.breakdown.add(class, delta);
        self.now = self.now.saturating_add(delta);
        Ok(())
    }

    /// [`Engine::advance`] to an absolute cycle (no-op when `time` is in
    /// the past). Returns the cycles actually skipped.
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogExpired`] past the budget.
    pub fn advance_to(
        &mut self,
        time: u64,
        class: StallClass,
        what: &str,
    ) -> Result<u64, SimError> {
        let delta = time.saturating_sub(self.now);
        self.advance(delta, class, what)?;
        Ok(delta)
    }

    /// Pops the earliest pending event after skipping the clock ahead to
    /// its firing time, attributing the gap to `class` — the fused form
    /// of [`Engine::next_event_time`] + [`Engine::advance_to`] +
    /// [`Engine::pop_due`] that hot loops use (one queue pop instead of
    /// three peeks). Returns `None`, without moving time, when the queue
    /// is empty. Same-cycle followers are then due via
    /// [`Engine::pop_due`].
    ///
    /// # Errors
    ///
    /// [`SimError::WatchdogExpired`] past the budget.
    #[inline]
    pub fn advance_to_next_event(
        &mut self,
        class: StallClass,
        what: &str,
    ) -> Result<Option<Event>, SimError> {
        match self.queue.pop() {
            None => Ok(None),
            Some(ev) => {
                let skipped = self.advance_to(ev.time, class, what)?;
                self.jump_cycles.observe(skipped as f64);
                Ok(Some(ev))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::with_capacity(4);
        q.schedule(30, 0);
        q.schedule(10, 1);
        q.schedule(20, 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::with_capacity(8);
        for key in 0..6u32 {
            q.schedule(5, key);
        }
        let keys: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::with_capacity(2);
        q.schedule(10, 7);
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some(Event { time: 10, key: 7 }));
        assert!(q.is_empty());
    }

    #[test]
    fn advance_attributes_and_ticks() {
        let mut e = Engine::new(Watchdog::with_budget(100));
        e.advance(30, StallClass::Compute, "test").unwrap();
        e.advance(12, StallClass::LoadImbalance, "test").unwrap();
        assert_eq!(e.now(), 42);
        assert_eq!(e.breakdown().total(), 42);
        assert_eq!(e.breakdown().get(StallClass::Compute), 30);
        assert_eq!(e.watchdog().elapsed(), 42);
    }

    #[test]
    fn advance_to_skips_exactly_to_the_event() {
        let mut e = Engine::with_capacity(Watchdog::with_budget(1000), 4);
        e.schedule_in(25, 3);
        let next = e.next_event_time().unwrap();
        let skipped = e.advance_to(next, StallClass::Compute, "test").unwrap();
        assert_eq!((skipped, e.now()), (25, 25));
        assert_eq!(e.pop_due(), Some(Event { time: 25, key: 3 }));
        assert_eq!(e.pop_due(), None);
        // Advancing to the past is a no-op, not a panic.
        assert_eq!(e.advance_to(3, StallClass::Idle, "test").unwrap(), 0);
        assert_eq!(e.now(), 25);
    }

    #[test]
    fn watchdog_fires_at_the_same_threshold_as_ticking() {
        // A skip of d cycles must exhaust the budget exactly when d ticks
        // of 1 would.
        let mut ticked = Watchdog::with_budget(10);
        let mut tick_err = None;
        for _ in 0..12 {
            if let Err(e) = ticked.tick(1, "loop") {
                tick_err = Some(e);
                break;
            }
        }
        let mut skipped = Engine::new(Watchdog::with_budget(10));
        let skip_err = skipped
            .advance(12, StallClass::Compute, "loop")
            .unwrap_err();
        assert_eq!(tick_err, Some(skip_err));
    }

    #[test]
    fn stats_count_queue_activity_and_jumps() {
        let mut e = Engine::with_capacity(Watchdog::with_budget(10_000), 4);
        e.schedule_in(10, 0);
        e.schedule_in(25, 1);
        let first = e
            .advance_to_next_event(StallClass::Compute, "test")
            .unwrap()
            .unwrap();
        assert_eq!(first.time, 10);
        let second = e
            .advance_to_next_event(StallClass::Compute, "test")
            .unwrap()
            .unwrap();
        assert_eq!(second.time, 25);
        let s = e.stats();
        assert_eq!(s.events_scheduled, 2);
        assert_eq!(s.events_popped, 2);
        assert_eq!(s.max_pending, 2);
        assert_eq!(s.jump_cycles.count, 2);
        // Jumps of 10 then 15 cycles.
        assert_eq!(s.jump_cycles.min, 10.0);
        assert_eq!(s.jump_cycles.max, 15.0);
        assert_eq!(s.jump_cycles.sum, 25.0);
    }

    #[test]
    fn stats_are_deterministic_across_identical_runs() {
        let run = || {
            let mut e = Engine::with_capacity(Watchdog::with_budget(100_000), 8);
            for i in 0..200u32 {
                e.schedule_in(u64::from(i % 17) + 1, i);
                if i % 3 == 0 {
                    let _ = e.advance_to_next_event(StallClass::Compute, "test");
                }
            }
            while let Ok(Some(_)) = e.advance_to_next_event(StallClass::Idle, "test") {}
            e.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_compaction_is_counted() {
        let mut q = EventQueue::with_capacity(4);
        // Interleave schedules and pops so a long consumed prefix builds
        // up in front of a live tail, forcing the drain branch.
        for i in 0..200u32 {
            q.schedule(u64::from(i), i);
            q.schedule(u64::from(i) + 1000, i);
            let _ = q.pop();
        }
        assert!(q.compactions() > 0, "compaction never triggered");
        assert_eq!(q.scheduled(), 400);
        assert_eq!(q.popped(), 200);
        assert!(q.max_pending() >= q.len() as u64);
    }

    #[test]
    fn stats_record_into_a_registry_without_nulls() {
        let mut e = Engine::with_capacity(Watchdog::with_budget(1000), 2);
        e.schedule_in(5, 0);
        let _ = e.advance_to_next_event(StallClass::Compute, "test");
        let mut r = MetricsRegistry::new();
        e.stats().record(&mut r, &[("model", "test")]);
        assert_eq!(
            r.counter("engine_events", &[("model", "test"), ("kind", "scheduled")]),
            1
        );
        assert_eq!(
            r.counter("engine_events", &[("model", "test"), ("kind", "popped")]),
            1
        );
        let json = r.to_json();
        assert!(json.contains("engine_jump_cycles"));
        assert!(!json.contains("null"), "engine metrics leaked null: {json}");
    }

    #[test]
    fn breakdown_always_sums_to_now() {
        let mut e = Engine::new(Watchdog::default_budget());
        for (i, class) in StallClass::ALL.iter().enumerate() {
            e.advance(i as u64, *class, "test").unwrap();
        }
        assert_eq!(e.breakdown().total(), e.now());
        e.breakdown().debug_assert_accounts_for(e.now(), "engine");
    }
}
