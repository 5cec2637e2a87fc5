//! Per-layer metrics read from an mc-trace [`Trace`].
//!
//! Every name in [`LAYER_METRICS`] is emitted by every traced run, so a
//! layer a workload does not reach reads 0. Span totals are busy time
//! summed over threads; counters are the program's own.

use std::collections::BTreeMap;

use mc_trace::Trace;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("explore.self_ms", "ms"),
    ("explore.warm_self_ms", "ms"),
    ("explore.flow_evals", "count"),
    ("explore.dedup_served", "count"),
    ("explore.cache.disk_hits", "count"),
    ("explore.cache.disk_puts", "count"),
    ("pareto.frontier", "count"),
    ("pareto.pruned", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("flow.runs", "count"),
    ("flow.cache.hit_ratio", "ratio"),
    ("partition.busy_ms", "ms"),
    ("alloc.busy_ms", "ms"),
    ("alloc.calls", "count"),
    ("sim.busy_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.instructions", "count"),
    ("sim.toggles", "count"),
    ("sim.lanes.padded", "count"),
    ("sim.bitslice.plane_ops", "count"),
    ("power.busy_ms", "ms"),
    ("power.calls", "count"),
    ("power.us_per_seed", "us"),
    ("rewrite.verify_ms", "ms"),
    ("retrofit.import_ms", "ms"),
    ("retrofit.partition_ms", "ms"),
    ("retrofit.emit_ms", "ms"),
    ("retrofit.verify_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.api_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.cache.hit", "count"),
    ("serve.cache.miss", "count"),
    ("serve.coalesced", "count"),
    ("serve.flow_runs", "count"),
    ("trace.overhead_pct", "%"),
];

/// Counters whose totals depend only on the workload's inputs: two traced
/// runs with the same seed must report them identically. `alloc.calls`
/// is not one: concurrent evaluations of one flow can both miss its
/// artifact cache and allocate the same datapath.
pub const DETERMINISTIC: &[&str] = &[
    "explore.dedup_served",
    "pareto.frontier",
    "pareto.pruned",
    "pool.tasks",
    "power.calls",
    "sim.runs",
    "sim.instructions",
    "sim.toggles",
    "sim.lanes.padded",
    "sim.bitslice.plane_ops",
];

/// Per-layer values of one traced run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// All metrics at 0.
    pub fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "undeclared layer metric {name}");
        self.0.insert(name, value);
    }

    /// Fills every metric a trace of the flow pipeline carries.
    /// `seeds_per_pricing` is the Monte-Carlo depth of each power pass.
    pub fn read_trace(&mut self, t: &Trace, seeds_per_pricing: usize) {
        let spans = t.span_counts();
        let n = |name: &str| spans.get(name).copied().unwrap_or(0) as f64;
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
        let r = |name: &str| t.runtime_counters.get(name).copied().unwrap_or(0) as f64;

        self.set("explore.self_ms", self_ms(t, "explore.run"));
        self.set("explore.flow_evals", r("explore.flow_evals"));
        self.set("explore.dedup_served", c("explore.dedup_served"));
        self.set("explore.cache.disk_hits", r("explore.cache.disk_hits"));
        self.set("explore.cache.disk_puts", r("explore.cache.disk_puts"));
        self.set("pareto.frontier", c("pareto.frontier"));
        self.set("pareto.pruned", c("pareto.pruned"));
        self.set("pool.tasks", c("pool.tasks"));
        self.set("pool.steals", r("pool.steals"));
        self.set("flow.runs", r("flow.runs"));
        let (hits, misses) = (r("flow.cache.hits"), r("flow.cache.misses"));
        if hits + misses > 0.0 {
            self.set("flow.cache.hit_ratio", hits / (hits + misses));
        }
        self.set("partition.busy_ms", busy_ms(t, "partition"));
        self.set("alloc.busy_ms", busy_ms(t, "allocate"));
        self.set("alloc.calls", n("allocate"));
        self.set("sim.busy_ms", busy_ms(t, "simulate"));
        for name in [
            "sim.runs",
            "sim.instructions",
            "sim.toggles",
            "sim.lanes.padded",
            "sim.bitslice.plane_ops",
        ] {
            self.set(name, c(name));
        }
        let power_ms = busy_ms(t, "power");
        self.set("power.busy_ms", power_ms);
        self.set("power.calls", n("power"));
        if n("power") > 0.0 {
            self.set(
                "power.us_per_seed",
                power_ms * 1e3 / (n("power") * seeds_per_pricing as f64),
            );
        }
        self.set("rewrite.verify_ms", busy_ms(t, "rewrite.verify"));
        self.set("retrofit.import_ms", busy_ms(t, "retrofit.import"));
        self.set("retrofit.partition_ms", busy_ms(t, "retrofit.partition"));
        self.set("retrofit.emit_ms", busy_ms(t, "retrofit.emit"));
        self.set("retrofit.verify_ms", busy_ms(t, "retrofit.verify"));
        self.set("serve.cache.hit", r("serve.cache.hit"));
        self.set("serve.cache.miss", r("serve.cache.miss"));
        self.set("serve.coalesced", r("serve.coalesced"));
    }
}

/// Busy time of every span called `name`, summed over threads (ms).
pub fn busy_ms(t: &Trace, name: &str) -> f64 {
    spans(t)
        .filter(|(n, _, _)| *n == name)
        .map(|(_, _, d)| d as f64 / 1e3)
        .fold(0.0, |a, b| a + b)
}

/// Spans whose name starts with `prefix`: (count, busy ms).
pub fn prefixed(t: &Trace, prefix: &str) -> (usize, f64) {
    spans(t)
        .filter(|(n, _, _)| n.starts_with(prefix))
        .fold((0, 0.0), |(k, ms), (_, _, d)| (k + 1, ms + d as f64 / 1e3))
}

/// Self time of the spans called `root`: their duration minus the part
/// of it that any other span, on any thread, covers. For the explorer
/// this is the wall time in which no flow evaluation, pool task or
/// rewrite check was running: its own dedup, cache, frontier and
/// bookkeeping work on the critical path.
pub fn self_ms(t: &Trace, root: &str) -> f64 {
    let mut others: Vec<(u64, u64)> = spans(t)
        .filter(|(n, _, _)| *n != root)
        .map(|(_, s, d)| (s, s + d))
        .collect();
    others.sort_unstable();
    spans(t)
        .filter(|(n, _, _)| *n == root)
        .map(|(_, s, d)| {
            let (lo, hi) = (s, s + d);
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in &others {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (d - covered.min(d)) as f64 / 1e3
        })
        .fold(0.0, |a, b| a + b)
}

fn spans(t: &Trace) -> impl Iterator<Item = (&str, u64, u64)> {
    t.threads
        .iter()
        .flat_map(|th| &th.spans)
        .map(|s| (s.name.as_ref(), s.start_us, s.dur_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_trace::{SpanRecord, ThreadTrace};

    fn span(name: &'static str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            start_us,
            dur_us,
            parent: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals_across_threads() {
        let t = Trace {
            threads: vec![
                ThreadTrace {
                    id: 0,
                    spans: vec![
                        span("explore.run", 0, 10_000),
                        span("pool.task", 1_000, 2_000),
                    ],
                },
                ThreadTrace {
                    id: 1,
                    // Overlaps the first task by 1 ms and runs past the root.
                    spans: vec![
                        span("pool.task", 2_000, 3_000),
                        span("pool.task", 9_000, 4_000),
                    ],
                },
            ],
            ..Trace::default()
        };
        // Covered: [1, 5) ms and [9, 10) ms = 5 ms of the 10 ms root.
        assert!((self_ms(&t, "explore.run") - 5.0).abs() < 1e-9);
        assert!((busy_ms(&t, "pool.task") - 9.0).abs() < 1e-9);
        assert_eq!(prefixed(&t, "pool.").0, 3);
    }

    #[test]
    fn every_metric_is_declared_once() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for d in DETERMINISTIC {
            assert!(names.contains(d), "{d}");
        }
    }
}
