//! In-memory spans and counters recorded by the benchmark around each call
//! it makes into a layer.
//!
//! A [`Tracer`] belongs to one client thread. With tracing off every method
//! is a plain pass-through (no clock reads, no allocation), so the untraced
//! run executes the same code as the traced one. Spans nest: the span open
//! when another begins is its parent, and spans of one client request share
//! a trace id. Self time is a span's duration minus the time its children
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified span name, e.g. `http.post`.
    pub name: &'static str,
    /// Request identifier shared by all spans of one client operation.
    pub trace: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and counter recorder for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }
}

/// Read-only view over the tracers of every client thread of one run.
pub struct Trace {
    tracers: Vec<Tracer>,
}

impl Trace {
    /// Collect the tracers of a finished run.
    pub fn new(tracers: Vec<Tracer>) -> Trace {
        Trace { tracers }
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.tracers
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration (seconds) of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed counter across threads (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.tracers
            .iter()
            .filter_map(|t| t.counters.get(name))
            .sum()
    }

    /// Per span name: (count, total seconds, self seconds), by name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for t in &self.tracers {
            let mut child = vec![0.0f64; t.spans.len()];
            for s in &t.spans {
                if let Some(p) = s.parent {
                    child[p] += s.secs();
                }
            }
            for (s, c) in t.spans.iter().zip(child) {
                let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
                e.0 += 1;
                e.1 += s.secs();
                e.2 += s.secs() - c;
            }
        }
        out
    }

    /// Distinct request ids among the spans called `name`.
    pub fn requests(&self, name: &str) -> usize {
        let mut ids: Vec<u64> = self
            .tracers
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.trace)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Write the span summary as a table to standard error.
    pub fn write_summary(&self, workload: &str) {
        eprintln!("trace summary ({workload}): span, count, requests, total_s, self_s");
        for (name, (count, total, own)) in self.summary() {
            let requests = self.requests(name);
            eprintln!("  {name:<24} {count:>9} {requests:>9} {total:>12.6} {own:>12.6}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 1, |t| t.span("b", 1, |_| 7));
        t.count("c", 1.0);
        assert_eq!(v, 7);
        let trace = Trace::new(vec![t]);
        assert!(trace.summary().is_empty());
        assert_eq!(trace.counter("c"), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let trace = Trace::new(vec![t]);
        let s = trace.summary();
        let (_, outer_total, outer_self) = s["outer"];
        let (_, inner_total, _) = s["inner"];
        assert!(inner_total >= 0.005);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        assert_eq!(trace.tracers[0].spans[1].parent, Some(0));
    }
}
