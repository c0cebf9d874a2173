//! Layer spans recorded from the benchmark's own side of each call into
//! the program. An untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One span name's accumulated calls.
#[derive(Debug, Default, Clone)]
pub struct Span {
    /// Calls recorded.
    pub calls: u64,
    /// Host nanoseconds inside the calls.
    pub busy_ns: u64,
    /// Per-call durations, kept only for spans that report percentiles.
    pub samples: Vec<f64>,
}

/// Span and count registry. `Tracer::off()` records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, Span>,
    counts: BTreeMap<&'static str, f64>,
}

/// Spans whose per-call durations are kept for percentiles.
const SAMPLED: [&str; 1] = ["serve.engine.tick"];

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, charging its host time to `name` when tracing.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.record(name, ns);
        out
    }

    /// Charge an externally measured call of `ns` nanoseconds to `name`.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        self.record_calls(name, 1, ns);
    }

    /// Charge `calls` calls timed together as `ns` nanoseconds to `name`
    /// (for calls too short to time one by one).
    pub fn record_calls(&mut self, name: &'static str, calls: u64, ns: u64) {
        if !self.on {
            return;
        }
        let span = self.spans.entry(name).or_default();
        span.calls += calls;
        span.busy_ns += ns;
        if SAMPLED.contains(&name) {
            span.samples.push(ns as f64);
        }
    }

    /// Add `n` to the count `name` when tracing.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// The span `name` (empty if never recorded).
    pub fn span(&self, name: &str) -> Span {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// The count `name` (0 if never recorded).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_accumulates() {
        let mut off = Tracer::off();
        assert_eq!(off.time("a", || 7), 7);
        off.count("c", 1.0);
        assert_eq!(off.span("a").calls, 0);
        assert_eq!(off.counted("c"), 0.0);

        let mut on = Tracer::on();
        on.record("a", 5);
        on.record("a", 7);
        on.record("serve.engine.tick", 3);
        on.record_calls("b", 4, 10);
        assert_eq!((on.span("b").calls, on.span("b").busy_ns), (4, 10));
        on.count("c", 2.0);
        assert_eq!((on.span("a").calls, on.span("a").busy_ns), (2, 12));
        assert!(on.span("a").samples.is_empty());
        assert_eq!(on.span("serve.engine.tick").samples, vec![3.0]);
        assert_eq!(on.counted("c"), 2.0);
    }
}
