//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as a Chrome trace when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! identifier of the request it belongs to. A layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans of one name kept for the trace file; later ones are still measured
/// (their times reach the metrics) but are counted as dropped from the file.
pub const TRACE_FILE_SPANS_PER_NAME: usize = 4_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a window of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between iterations, so one run can
    /// measure the same work both ways.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span. The closure receives the tracer so callees
    /// can open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_named_by(request, |tr| (name, f(tr)))
    }

    /// [`Tracer::span`] for a call whose outcome decides the span's name
    /// (a cache lookup that turns out a hit or a miss).
    pub fn span_named_by<T>(
        &mut self,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> (&'static str, T),
    ) -> T {
        if !self.enabled {
            return f(self).1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: "",
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let (name, out) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        (span.name, span.end_ns) = (name, end_ns);
        out
    }

    /// Records a span measured elsewhere (a child process's request).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// A position to pass to [`Tracer::totals_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self and total time per span name over the spans recorded since
    /// `mark`, which must have been taken outside any span.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self_times_from(&self.spans, mark);
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans[mark..].iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.self_ns += self_ns;
            t.total_ns += span.duration_ns();
        }
        out
    }

    /// Chrome `trace_event` JSON of the first [`TRACE_FILE_SPANS_PER_NAME`]
    /// spans of every name.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut kept_of: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut events = String::new();
        let mut kept = 0usize;
        for (n, sp) in self.spans.iter().enumerate() {
            let of_name = kept_of.entry(sp.name).or_default();
            if *of_name == TRACE_FILE_SPANS_PER_NAME {
                continue;
            }
            *of_name += 1;
            if kept > 0 {
                events.push(',');
            }
            kept += 1;
            events.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{n},\"parent\":{},\"request\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.duration_ns() as f64 / 1e3,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.request
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\"spans\":{},\
             \"dropped_from_file\":{}}},\"traceEvents\":[{events}]}}",
            self.spans.len(),
            self.spans.len() - kept
        )
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (one thread records them in order), so their durations add.
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    self_times_from(spans, 0)
}

/// [`self_times`] of `spans[from..]`, whose parents all lie in that range.
fn self_times_from(spans: &[Span], from: usize) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len() - from];
    for sp in &spans[from..] {
        if let Some(p) = sp.parent {
            let parent = &spans[p as usize];
            let start = sp.start_ns.max(parent.start_ns);
            let end = sp.end_ns.min(parent.end_ns);
            covered[p as usize - from] += end.saturating_sub(start);
        }
    }
    spans[from..]
        .iter()
        .zip(covered)
        .map(|(sp, c)| sp.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 holds a (10..40) and b (50..90); a holds c (20..30).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("c", 20, 30, Some(1)),
            sp("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let spans = vec![sp("p", 0, 10, None), sp("late", 5, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn recorded_spans_nest_share_request_and_total_by_name() {
        let mut tr = Tracer::new(true);
        tr.span("outer", 3, |tr| {
            tr.span("inner", 3, |_| std::hint::black_box(1 + 1));
            tr.span("inner", 3, |_| std::hint::black_box(2 + 2));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        let totals = tr.totals_since(0);
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].total_ns,
            totals["outer"].total_ns
        );
        assert_eq!(tr.totals_since(tr.mark()).len(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_work() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |_| 41 + 1), 42);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_json_names_every_span_and_counts_dropped() {
        let mut tr = Tracer::new(true);
        tr.span("a.b", 1, |_| ());
        let json = tr.chrome_json("w");
        assert!(json.contains("\"name\":\"a.b\""));
        assert!(json.contains("\"dropped_from_file\":0"));
        assert!(crate::json::parse(&json).is_ok());
    }
}
