//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the library's `ACCLTL_TRACE` spans are inclusive and write JSONL while
//! they run, which perturbs what they measure).  Spans stay in memory until
//! the run ends; a span's *self* time is its duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The name of the root span every traced op runs under.
pub const OP: &str = "op";

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// A stack of open spans plus every closed one.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end = Instant::now();
        value
    }

    /// Self time per span name, summed over every recorded span.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut totals: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *totals.entry(span.name).or_default() +=
                (span.end - span.start).saturating_sub(children);
        }
        totals
    }

    /// Total duration of the root op spans.
    pub fn op_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|span| span.parent.is_none())
            .map(|span| span.end - span.start)
            .sum()
    }
}
