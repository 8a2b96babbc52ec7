//! The benchmark's span recorder.
//!
//! Spans wrap calls into the program's public functions from the
//! benchmark's own code; nothing inside the program is instrumented.  Each
//! span accumulates its **self time** (its duration minus the time covered
//! by spans opened inside it), so the self times of all spans partition the
//! covered part of the wall clock and `coverage = Σ self / wall`.  The
//! recorder is single-threaded: it serves the serial traced replays.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SpanTotals {
    calls: u64,
    self_ns: u128,
}

#[derive(Default)]
struct State {
    spans: BTreeMap<&'static str, SpanTotals>,
    counters: BTreeMap<&'static str, u64>,
    /// Open spans: name, start, time covered by already-closed children.
    stack: Vec<(&'static str, Instant, u128)>,
}

/// Records spans and counters; see the module docs.
#[derive(Default)]
pub struct Tracer {
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` inside a span called `name`.  Spans nest: the time `f`
    /// spends inside inner spans is charged to those, not to `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.state.borrow_mut().stack.push((name, Instant::now(), 0));
        let out = f();
        let end = Instant::now();
        let mut state = self.state.borrow_mut();
        let (open, start, children) = state.stack.pop().expect("span stack underflow");
        assert_eq!(open, name, "spans must close in the order they were opened");
        let total = end.duration_since(start).as_nanos();
        let entry = state.spans.entry(name).or_default();
        entry.calls += 1;
        entry.self_ns += total.saturating_sub(children);
        if let Some(parent) = state.stack.last_mut() {
            parent.2 += total;
        }
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.state.borrow_mut().counters.entry(name).or_default() += n;
    }

    /// Self time of one span name in seconds (0 if it never ran).
    pub fn seconds(&self, name: &str) -> f64 {
        self.state.borrow().spans.get(name).map_or(0.0, |s| s.self_ns as f64 * 1e-9)
    }

    /// Calls recorded for one span name.
    pub fn calls(&self, name: &str) -> u64 {
        self.state.borrow().spans.get(name).map_or(0, |s| s.calls)
    }

    /// Value of one counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.state.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Summed self time of every span, in seconds.
    pub fn covered_seconds(&self) -> f64 {
        self.state.borrow().spans.values().map(|s| s.self_ns as f64 * 1e-9).sum()
    }

    /// Every span's self time in seconds, by name.
    pub fn span_seconds(&self) -> Vec<(&'static str, f64)> {
        self.state.borrow().spans.iter().map(|(&name, s)| (name, s.self_ns as f64 * 1e-9)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < ms as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn nested_spans_partition_the_outer_duration() {
        let tracer = Tracer::new();
        let start = Instant::now();
        tracer.span("outer", || {
            busy(2);
            tracer.span("inner", || busy(20));
        });
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(tracer.calls("inner"), 1);
        assert!(tracer.seconds("inner") >= 0.020);
        // the inner 20 ms are charged to the inner span only
        assert!(tracer.seconds("outer") >= 0.002 && tracer.seconds("outer") < 0.015);
        let covered = tracer.covered_seconds();
        assert!(covered <= wall && covered > 0.95 * wall, "covered {covered} of {wall}");
    }

    #[test]
    fn counters_accumulate() {
        let tracer = Tracer::new();
        tracer.count("n", 2);
        tracer.count("n", 3);
        assert_eq!(tracer.counter("n"), 5);
        assert_eq!(tracer.counter("missing"), 0);
    }
}
