//! Cycle-attributed event tracing and the shared stall taxonomy.
//!
//! The paper's evaluation (Figures 15–19) rests on *explaining* cycle
//! counts — which cycles went to compute, pipeline fill/drain, DMA
//! latency, or load imbalance. Every simulation model in this crate
//! classifies each elapsed cycle into one [`StallClass`] of a shared
//! taxonomy, accumulated in a [`CycleBreakdown`] carried on
//! [`crate::SimStats`]; in debug builds the categories are asserted to sum
//! exactly to the reported cycle count.
//!
//! An optional [`Tracer`] additionally records per-PE / per-lane spans in
//! a bounded ring buffer and exports them as Chrome `trace_event` JSON
//! (loadable in Perfetto or `chrome://tracing`) or a flat CSV. Tracing is
//! zero-cost when disabled: a disabled tracer's [`Tracer::span`] is a
//! single branch on a bool and allocates nothing.

// The observability layer must not itself panic in release builds.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::fmt;

/// Where one simulated cycle went — the shared stall taxonomy.
///
/// Every model maps its cycles onto these classes (the per-model mapping
/// is documented in `DESIGN.md` § Observability):
///
/// * `Compute` — useful arithmetic progressing at full issue.
/// * `Fill` — pipeline fill: weight preload, skew-in, merge startup.
/// * `Drain` — pipeline drain: skew-out, result write-back windows.
/// * `DmaLatency` — cycles exposed to the DRAM round-trip latency.
/// * `DmaBandwidth` — cycles bound by DRAM streaming bandwidth.
/// * `BankConflict` — cycles stalled on scratchpad/SRAM port bandwidth.
/// * `LoadImbalance` — some lanes busy, others idle with no stealable work.
/// * `MergeStall` — merger-specific overhead (row switches, ragged pops).
/// * `FaultRecovery` — timeout/backoff/retry cycles of lost DMA responses.
/// * `Idle` — accounted control overhead and truly dead cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallClass {
    /// Useful arithmetic at full issue.
    Compute,
    /// Pipeline fill (preload, skew-in, startup).
    Fill,
    /// Pipeline drain (skew-out, write-back).
    Drain,
    /// Exposed DRAM round-trip latency.
    DmaLatency,
    /// DRAM streaming-bandwidth bound.
    DmaBandwidth,
    /// Scratchpad/SRAM port-bandwidth stalls.
    BankConflict,
    /// Lanes idle behind imbalanced work.
    LoadImbalance,
    /// Merger row-switch / ragged-pop overhead.
    MergeStall,
    /// DMA response-loss recovery (timeouts, backoff, retries).
    FaultRecovery,
    /// Control overhead and dead cycles.
    Idle,
}

impl StallClass {
    /// Every class, in the canonical (serialization) order.
    pub const ALL: [StallClass; 10] = [
        StallClass::Compute,
        StallClass::Fill,
        StallClass::Drain,
        StallClass::DmaLatency,
        StallClass::DmaBandwidth,
        StallClass::BankConflict,
        StallClass::LoadImbalance,
        StallClass::MergeStall,
        StallClass::FaultRecovery,
        StallClass::Idle,
    ];

    /// The stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::Compute => "compute",
            StallClass::Fill => "fill",
            StallClass::Drain => "drain",
            StallClass::DmaLatency => "dma_latency",
            StallClass::DmaBandwidth => "dma_bandwidth",
            StallClass::BankConflict => "bank_conflict",
            StallClass::LoadImbalance => "load_imbalance",
            StallClass::MergeStall => "merge_stall",
            StallClass::FaultRecovery => "fault_recovery",
            StallClass::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        match self {
            StallClass::Compute => 0,
            StallClass::Fill => 1,
            StallClass::Drain => 2,
            StallClass::DmaLatency => 3,
            StallClass::DmaBandwidth => 4,
            StallClass::BankConflict => 5,
            StallClass::LoadImbalance => 6,
            StallClass::MergeStall => 7,
            StallClass::FaultRecovery => 8,
            StallClass::Idle => 9,
        }
    }
}

impl fmt::Display for StallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycles attributed to each [`StallClass`] — the per-run cycle account.
///
/// The invariant every model maintains is `total() == stats.cycles`;
/// [`CycleBreakdown::debug_assert_accounts_for`] checks it in debug
/// builds at every `simulate_*` exit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CycleBreakdown {
    cycles: [u64; 10],
}

impl CycleBreakdown {
    /// An empty breakdown (all classes zero).
    pub fn new() -> CycleBreakdown {
        CycleBreakdown::default()
    }

    /// Attributes `cycles` more cycles to `class` (saturating).
    #[inline]
    pub fn add(&mut self, class: StallClass, cycles: u64) {
        let c = &mut self.cycles[class.index()];
        *c = c.saturating_add(cycles);
    }

    /// Builder form of [`CycleBreakdown::add`].
    pub fn with(mut self, class: StallClass, cycles: u64) -> CycleBreakdown {
        self.add(class, cycles);
        self
    }

    /// Cycles attributed to `class`.
    pub fn get(&self, class: StallClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Sum over all classes (saturating).
    pub fn total(&self) -> u64 {
        self.cycles.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// The class with the most cycles, or `None` when empty.
    pub fn dominant(&self) -> Option<StallClass> {
        StallClass::ALL
            .into_iter()
            .filter(|&c| self.get(c) > 0)
            .max_by_key(|&c| self.get(c))
    }

    /// The fraction of `self.total()` attributed to `class` (0 when empty).
    ///
    /// Structurally bounded to `[0, 1]` with no clamp needed: the
    /// denominator is the saturating sum over all classes, which can
    /// never fall below any single class's count — unlike
    /// [`Utilization::fraction`](crate::stats::Utilization::fraction),
    /// whose `busy`/`total` come from independent counters and must be
    /// clamped.
    pub fn fraction(&self, class: StallClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    /// Merges two breakdowns class-wise (saturating) — the breakdown
    /// analogue of [`crate::SimStats::then`].
    pub fn merge(self, o: CycleBreakdown) -> CycleBreakdown {
        let mut out = self;
        for class in StallClass::ALL {
            out.add(class, o.get(class));
        }
        out
    }

    /// Debug-build check that the categories sum exactly to `cycles` — the
    /// invariant every `simulate_*` entry point maintains.
    #[inline]
    pub fn debug_assert_accounts_for(&self, cycles: u64, what: &str) {
        debug_assert_eq!(
            self.total(),
            cycles,
            "{what}: cycle breakdown {self:?} does not sum to {cycles} cycles"
        );
    }

    /// Serializes as a stable JSON object, classes in canonical order,
    /// zero classes included (schema stability over compactness).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (n, class) in StallClass::ALL.into_iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", class.name(), self.get(class)));
        }
        s.push('}');
        s
    }
}

/// One traced span: `[start, start + dur)` cycles on a track (a PE, lane,
/// or engine), attributed to a stall class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The track (PE row, lane index, engine id) the span belongs to.
    pub track: u32,
    /// A short static label ("stream", "row", "preload", …).
    pub name: &'static str,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles (0-length instants are allowed).
    pub dur: u64,
    /// The stall class of the span.
    pub class: StallClass,
}

/// A bounded, ring-buffer-backed span recorder.
///
/// Memory is bounded by the capacity chosen at construction: once full,
/// the oldest span is overwritten and counted in [`Tracer::dropped`].
/// A tracer built with [`Tracer::disabled`] records nothing and allocates
/// nothing — the per-span cost is one branch.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    /// Ring storage; `head` is the index of the oldest event once full.
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
}

/// The default ring capacity: enough for every experiment in the suite
/// while bounding memory to a few MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl Tracer {
    /// A disabled tracer: every record is a no-op, nothing allocates.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            capacity: 0,
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// An enabled tracer with the default ring capacity.
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer bounded to `capacity` spans (min 1).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            capacity: capacity.max(1),
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one span. No-op (one branch) when disabled; overwrites the
    /// oldest span when the ring is full.
    #[inline]
    pub fn span(
        &mut self,
        track: u32,
        name: &'static str,
        start: u64,
        dur: u64,
        class: StallClass,
    ) {
        if !self.enabled {
            return;
        }
        let ev = TraceEvent {
            track,
            name,
            start,
            dur,
            class,
        };
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records a zero-length instant event.
    #[inline]
    pub fn instant(&mut self, track: u32, name: &'static str, cycle: u64, class: StallClass) {
        self.span(track, name, cycle, 0, class);
    }

    /// Appends every span of `other`, oldest first — the deterministic
    /// merge used when independent simulations trace into private
    /// per-run tracers that are then folded into one report in a fixed
    /// order (spans are cycle-stamped, so recording order is the only
    /// thing the merge has to preserve). No-op when `self` is disabled.
    pub fn absorb(&mut self, other: &Tracer) {
        if !self.enabled {
            return;
        }
        for ev in other.events() {
            let ev = *ev;
            self.span(ev.track, ev.name, ev.start, ev.dur, ev.class);
        }
    }

    /// Spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held spans in recording order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, start) = self.events.split_at(self.head.min(self.events.len()));
        start.iter().chain(wrapped.iter())
    }

    /// Exports the Chrome `trace_event` JSON format (complete "X" events),
    /// loadable in Perfetto or `chrome://tracing`. One simulated cycle is
    /// reported as one microsecond (`ts`/`dur` are in µs in the format).
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (n, ev) in self.events().enumerate() {
            if n > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"class\":\"{}\"}}}}",
                ev.name,
                ev.class.name(),
                ev.start,
                ev.dur.max(1),
                ev.track,
                ev.class.name(),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Exports a flat CSV (`track,name,start,dur,class`), oldest first.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("track,name,start,dur,class\n");
        for ev in self.events() {
            s.push_str(&format!(
                "{},{},{},{},{}\n",
                ev.track,
                ev.name,
                ev.start,
                ev.dur,
                ev.class.name()
            ));
        }
        s
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

/// Classifies a scheduled IR run (the per-time-step busy profile the
/// `stellar-core` executor reports) into a [`CycleBreakdown`]: full steps
/// are `Compute`, partial steps before the first full step are `Fill`,
/// partial steps after the last full step are `Drain`, partial steps in
/// between are `LoadImbalance`, and empty steps are `Idle`.
pub fn breakdown_of_schedule(busy_per_step: &[u64]) -> CycleBreakdown {
    let peak = busy_per_step.iter().copied().max().unwrap_or(0);
    let first_full = busy_per_step.iter().position(|&b| b == peak);
    let last_full = busy_per_step.iter().rposition(|&b| b == peak);
    let mut out = CycleBreakdown::new();
    for (n, &busy) in busy_per_step.iter().enumerate() {
        let class = if busy == 0 {
            StallClass::Idle
        } else if busy == peak {
            StallClass::Compute
        } else if first_full.is_some_and(|f| n < f) {
            StallClass::Fill
        } else if last_full.is_some_and(|l| n > l) {
            StallClass::Drain
        } else {
            StallClass::LoadImbalance
        };
        out.add(class, 1);
    }
    out.debug_assert_accounts_for(busy_per_step.len() as u64, "schedule profile");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_sums() {
        let mut b = CycleBreakdown::new();
        b.add(StallClass::Compute, 10);
        b.add(StallClass::Fill, 3);
        b.add(StallClass::Compute, 5);
        assert_eq!(b.get(StallClass::Compute), 15);
        assert_eq!(b.total(), 18);
        b.debug_assert_accounts_for(18, "test");
        assert_eq!(b.dominant(), Some(StallClass::Compute));
    }

    #[test]
    fn breakdown_merge_is_classwise() {
        let a = CycleBreakdown::new().with(StallClass::Compute, 4);
        let b = CycleBreakdown::new()
            .with(StallClass::Compute, 1)
            .with(StallClass::Idle, 2);
        let m = a.merge(b);
        assert_eq!(m.get(StallClass::Compute), 5);
        assert_eq!(m.get(StallClass::Idle), 2);
        assert_eq!(m.total(), 7);
    }

    #[test]
    fn breakdown_saturates() {
        let mut b = CycleBreakdown::new();
        b.add(StallClass::Compute, u64::MAX);
        b.add(StallClass::Compute, 10);
        assert_eq!(b.get(StallClass::Compute), u64::MAX);
        let m = b.merge(b);
        assert_eq!(m.get(StallClass::Compute), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "does not sum")]
    #[cfg(debug_assertions)]
    fn debug_assert_catches_leaks() {
        let b = CycleBreakdown::new().with(StallClass::Compute, 3);
        b.debug_assert_accounts_for(4, "leaky model");
    }

    #[test]
    fn json_has_every_class_in_order() {
        let b = CycleBreakdown::new().with(StallClass::DmaLatency, 7);
        let j = b.to_json();
        assert!(j.starts_with("{\"compute\":0,"));
        assert!(j.contains("\"dma_latency\":7"));
        assert!(j.ends_with("\"idle\":0}"));
        // All 10 classes present.
        assert_eq!(j.matches(':').count(), 10);
    }

    #[test]
    fn fractions() {
        let b = CycleBreakdown::new()
            .with(StallClass::Compute, 3)
            .with(StallClass::Idle, 1);
        assert!((b.fraction(StallClass::Compute) - 0.75).abs() < 1e-12);
        assert_eq!(CycleBreakdown::new().fraction(StallClass::Compute), 0.0);
    }

    #[test]
    fn fraction_is_structurally_bounded() {
        // Even at saturating extremes, no class's share can exceed 1.0 —
        // the denominator includes every class's own count.
        let b = CycleBreakdown::new()
            .with(StallClass::Compute, u64::MAX)
            .with(StallClass::Idle, u64::MAX);
        for class in StallClass::ALL {
            let f = b.fraction(class);
            assert!((0.0..=1.0).contains(&f), "{class:?}: {f}");
        }
        let solo = CycleBreakdown::new().with(StallClass::Fill, 42);
        assert_eq!(solo.fraction(StallClass::Fill), 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.span(0, "x", 0, 5, StallClass::Compute);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(
            t.to_chrome_json(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn ring_buffer_bounds_memory() {
        let mut t = Tracer::with_capacity(4);
        for n in 0..10u64 {
            t.span(0, "s", n, 1, StallClass::Compute);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        // Oldest-first iteration yields the last 4 spans.
        let starts: Vec<u64> = t.events().map(|e| e.start).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn absorb_appends_in_recording_order() {
        let mut a = Tracer::with_capacity(8);
        a.span(0, "x", 0, 2, StallClass::Compute);
        let mut b = Tracer::with_capacity(8);
        b.span(1, "y", 1, 3, StallClass::Fill);
        b.span(2, "z", 4, 1, StallClass::Drain);
        a.absorb(&b);
        let starts: Vec<u64> = a.events().map(|e| e.start).collect();
        assert_eq!(starts, vec![0, 1, 4]);
        // A disabled target stays empty (and allocation-free).
        let mut off = Tracer::disabled();
        off.absorb(&b);
        assert!(off.is_empty());
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Tracer::with_capacity(8);
        t.span(1, "row", 3, 4, StallClass::LoadImbalance);
        t.instant(2, "fault", 9, StallClass::FaultRecovery);
        let j = t.to_chrome_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"tid\":1"));
        assert!(j.contains("\"cat\":\"load_imbalance\""));
        // Instants get a minimum visible duration of 1.
        assert!(j.contains("\"ts\":9,\"dur\":1"));
        assert_eq!(j.matches("{\"name\"").count(), 2);
    }

    #[test]
    fn csv_export() {
        let mut t = Tracer::with_capacity(8);
        t.span(0, "preload", 0, 4, StallClass::Fill);
        let csv = t.to_csv();
        assert_eq!(csv, "track,name,start,dur,class\n0,preload,0,4,fill\n");
    }

    #[test]
    fn schedule_profile_classification() {
        // fill, fill, full, full, partial-mid, full, drain, idle
        let b = breakdown_of_schedule(&[1, 2, 4, 4, 3, 4, 2, 0]);
        assert_eq!(b.get(StallClass::Fill), 2);
        assert_eq!(b.get(StallClass::Compute), 3);
        assert_eq!(b.get(StallClass::LoadImbalance), 1);
        assert_eq!(b.get(StallClass::Drain), 1);
        assert_eq!(b.get(StallClass::Idle), 1);
        assert_eq!(b.total(), 8);
        assert_eq!(breakdown_of_schedule(&[]).total(), 0);
    }

    #[test]
    fn class_names_are_stable() {
        for c in StallClass::ALL {
            assert!(!c.name().is_empty());
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!(StallClass::ALL.len(), 10);
    }
}
