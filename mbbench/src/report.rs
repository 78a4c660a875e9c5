//! Metric names, units, per-layer tables and the printed result.

use std::collections::BTreeMap;

use megablocks_exec::WorkspaceStats;

use crate::replica::MoeCounts;
use crate::spans::{attributed_ns, Tracer, STRUCTURAL};

/// End-to-end metrics (untraced runs), as named in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s_per_mtok", "s/Mtok"),
    ("success_frac", "frac"),
    ("tokens_per_s", "tok/s"),
    ("step_ms.p90", "ms"),
    ("loss_final", "nats"),
    ("kept_frac", "frac"),
    ("latency_ms.p50", "ms"),
    ("goodput_rps", "1/s"),
    ("capacity_rps", "1/s"),
];

/// Spans timed per layer; each gives `<name>.ms` and, where listed
/// here with `true`, `<name>.gflops`.
const TIMED: &[(&str, bool)] = &[
    ("sparse.sdd", true),
    ("sparse.dsd", true),
    ("sparse.sdd_t", true),
    ("sparse.dst_d", true),
    ("sparse.dsd_t", true),
    ("sparse.ddt_s", true),
    ("sparse.topology", false),
    ("core.router", false),
    ("core.permute", false),
    ("core.gelu", false),
    ("core.dropping", true),
    ("transformer.embed", false),
    ("transformer.norm", false),
    ("transformer.attention", true),
    ("transformer.head", true),
    ("transformer.optimizer", false),
    ("data.sample", false),
];

/// Per-layer metrics (traced runs) that are not span times.
const COUNTED: &[(&str, &str)] = &[
    ("core.permute.padding_frac", "frac"),
    ("core.dropping.slot_util", "frac"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.batch_size.mean", "requests"),
    ("serve.submit_us.p50", "us"),
    ("serve.gen_late_ms.max", "ms"),
    ("exec.workspace.hit_frac", "frac"),
    ("exec.workspace.held_mb", "MB"),
    ("unattributed_frac", "frac"),
    ("trace.e2e_ms", "ms"),
    ("trace.untraced_e2e_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for &(span, gflops) in TIMED {
        out.push((format!("{span}.ms"), "ms"));
        if gflops {
            out.push((format!("{span}.gflops"), "GFLOP/s"));
        }
    }
    out.extend(COUNTED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Per-layer figures of one traced run, plus its printable table.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    table: Vec<String>,
}

impl Layers {
    /// Layer times per `unit` (optimizer step or served batch) from the
    /// tracer's spans; every root span counts toward the end-to-end time.
    pub fn from_tracer(tracer: &Tracer, per: f64) -> Self {
        let totals = tracer.totals();
        let e2e_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum();
        let mut layers = Layers::default();
        for &(span, gflops) in TIMED {
            let t = totals.get(span).copied().unwrap_or_default();
            layers.set(&format!("{span}.ms"), t.self_ns as f64 / per.max(1.0) / 1e6);
            if gflops {
                layers.set(&format!("{span}.gflops"), t.gflops());
            }
        }
        let unattributed = e2e_ns.saturating_sub(attributed_ns(&totals));
        layers.set(
            "unattributed_frac",
            unattributed as f64 / e2e_ns.max(1) as f64,
        );

        let share = |ns: u64| 100.0 * ns as f64 / e2e_ns.max(1) as f64;
        layers.table.push(format!(
            "{:<24} {:>10} {:>7} {:>9} {:>8}",
            "layer", "ms/unit", "share", "GFLOP/s", "calls"
        ));
        let mut rows: Vec<_> = totals
            .iter()
            .filter(|(n, _)| !STRUCTURAL.contains(n))
            .collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in rows {
            layers.table.push(format!(
                "{:<24} {:>10.4} {:>6.1}% {:>9.3} {:>8}",
                name,
                t.self_ns as f64 / per.max(1.0) / 1e6,
                share(t.self_ns),
                t.gflops(),
                t.calls
            ));
        }
        layers.table.push(format!(
            "{:<24} {:>10.4} {:>6.1}%",
            "unattributed",
            unattributed as f64 / per.max(1.0) / 1e6,
            share(unattributed)
        ));
        layers.table.push(format!(
            "{:<24} {:>10.4} {:>6.1}%",
            "total (traced)",
            e2e_ns as f64 / per.max(1.0) / 1e6,
            100.0
        ));
        layers
    }

    /// Sets a per-layer metric; the name must be one `BENCHMARK.json`
    /// lists.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Padding share of the dMoE's padded rows, or slot use of the
    /// dropping MoE's capacity buffers.
    pub fn padding_and_slots(&mut self, dropless: bool, moe: &MoeCounts) {
        let slots = moe.slot_rows.max(1) as f64;
        if dropless {
            self.set("core.permute.padding_frac", moe.padding_rows as f64 / slots);
        } else {
            self.set(
                "core.dropping.slot_util",
                (moe.slot_rows - moe.padding_rows) as f64 / slots,
            );
        }
    }

    /// Workspace-arena reuse of this thread over the traced phase.
    pub fn workspace(&mut self, before: WorkspaceStats, after: WorkspaceStats) {
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        self.set(
            "exec.workspace.hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        self.set(
            "exec.workspace.held_mb",
            after.held_floats as f64 * 4.0 / 1e6,
        );
    }

    /// The traced end-to-end figure next to the untraced one.
    pub fn e2e(&mut self, traced_ms: f64, untraced_ms: f64, what: &str) {
        self.set("trace.e2e_ms", traced_ms);
        self.set("trace.untraced_e2e_ms", untraced_ms);
        self.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
        self.table.push(format!(
            "{what} p50: traced {traced_ms:.4} ms, untraced {untraced_ms:.4} ms (overhead {:+.1}%)",
            100.0 * (traced_ms / untraced_ms - 1.0)
        ));
    }

    pub fn table(&self) -> &[String] {
        &self.table
    }

    /// Every per-layer metric; layers a workload does not run read 0.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = self.values.get(&n).copied().unwrap_or(0.0);
                (n, v, u)
            })
            .collect()
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (steps, requests, output checks) attempted and failed.
    pub attempted: usize,
    pub failed: usize,
    checks_failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
    pub layers: Option<Layers>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    /// Records an output check; a failed one counts as a failed
    /// operation and fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.checks_failed += 1;
        }
        self.lines.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Whether every output check passed. A shed or failed request
    /// counts against `success_frac` but is no wrong output.
    pub fn correct(&self) -> bool {
        self.checks_failed == 0
    }

    pub fn success_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Records an end-to-end metric; name and unit must match the table.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        let &(n, u) = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        assert_eq!(u, unit, "unit of {name}");
        self.metrics.push((n.to_string(), value, u));
    }

    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The metrics this run reports: end-to-end when untraced, per-layer
    /// when traced.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        match &self.layers {
            Some(layers) => layers.metrics(),
            None => {
                for (name, _) in END_TO_END {
                    assert!(
                        self.metrics.iter().any(|(n, _, _)| n == name),
                        "end-to-end metric {name} was not measured"
                    );
                }
                self.metrics.clone()
            }
        }
    }
}
