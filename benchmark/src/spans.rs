//! In-memory spans recorded by the benchmark around each call into a
//! layer: name, start, end, parent and the request or point id. Each
//! thread records into its own [`ThreadTrace`]; [`Trace::merge`] joins
//! them when the traced pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `sim.build`.
    pub name: &'static str,
    /// Request, point or item id the span belongs to.
    pub id: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span (same thread), if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread, with the stack of open spans.
#[derive(Debug)]
pub struct ThreadTrace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl ThreadTrace {
    /// Start recording against a shared epoch.
    pub fn new(epoch: Instant) -> Self {
        ThreadTrace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (and any span left open inside it).
    pub fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name, id);
        let out = f();
        self.exit(s);
        out
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child spans), ns.
    pub self_ns: u64,
}

/// All spans of a traced pass.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans of every thread; parents index into this vector.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append one thread's spans, re-basing their parent indices.
    pub fn merge(&mut self, t: ThreadTrace) {
        let base = self.spans.len();
        self.spans.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Sum of root-span durations, ns: the thread time the trace covers.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// One line per span name: count, total and self time.
    pub fn table(&self) -> Vec<String> {
        self.totals()
            .into_iter()
            .map(|(name, t)| {
                format!(
                    "  span {name:<20} n={:<6} total={:>10.3} ms  self={:>10.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let epoch = Instant::now();
        let mut tt = ThreadTrace::new(epoch);
        let outer = tt.enter("outer", 1);
        tt.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tt.exit(outer);
        let mut trace = Trace::default();
        trace.merge(tt);
        let totals = trace.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(trace.root_ns(), outer.total_ns);
    }
}
