//! In-memory spans recorded around calls into each layer.
//!
//! A span carries a name, start, end, parent and optional work count
//! (FLOPs). A layer's self time is its span's duration minus the time
//! its child spans cover; the root's self time and that of structural
//! spans (`step`, `microbatch`, `block`, ...) is what no layer claims,
//! reported as `unattributed`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub flops: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Names of spans that only give structure; their self time is
/// unattributed.
pub const STRUCTURAL: &[&str] = &["step", "microbatch", "block", "moe", "batch"];

/// A stack-based span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            flops: 0.0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) -> u64 {
        self.end_flops(open, 0.0)
    }

    /// Closes a span, crediting it with `flops` of work. Returns its
    /// duration in nanoseconds.
    pub fn end_flops(&mut self, open: Open, flops: f64) -> u64 {
        let top = self.stack.pop().expect("span stack underflow");
        assert_eq!(top, open.0, "spans must close in LIFO order");
        let end = self.now();
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        span.flops = flops;
        span.dur_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of self time (ns), inclusive time and FLOPs.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
            t.total_ns += s.dur_ns();
            t.flops += s.flops;
            t.calls += 1;
        }
        out
    }
}

/// Aggregated figures for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub self_ns: u64,
    pub total_ns: u64,
    pub flops: f64,
    pub calls: u64,
}

impl Totals {
    /// Achieved GFLOP/s over the span's inclusive time.
    pub fn gflops(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.flops / self.total_ns as f64
        }
    }
}

/// Sum of self time over spans whose name is not structural.
pub fn attributed_ns(totals: &BTreeMap<&'static str, Totals>) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| !STRUCTURAL.contains(name))
        .map(|(_, t)| t.self_ns)
        .sum()
}
