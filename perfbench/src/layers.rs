//! Per-layer accounting for traced runs: wall-clock of every call into a
//! library layer, made from the benchmark's own code, plus work counters.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{median, secs};

/// Every per-layer metric a traced run reports, with its unit. Each
/// workload reports all of them; a layer the workload never calls reads 0.
pub const METRICS: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("analyzer.build_ms", "ms"),
    ("analyzer.faults", "count"),
    ("sigprob.aig_ms", "ms"),
    ("sigprob.build_ms", "ms"),
    ("sigprob.sweep_ms", "ms"),
    ("sigprob.and_nodes", "count"),
    ("observe.compute_ms", "ms"),
    ("detect.faults_ms", "ms"),
    ("partition.run_ms", "ms"),
    ("partition.count", "count"),
    ("partition.classes", "count"),
    ("testlen.solve_ms", "ms"),
    ("testlen.calls", "count"),
    ("tpi.rank_ms", "ms"),
    ("tpi.advise_ms", "ms"),
    ("tpi.candidates", "count"),
    ("tpi.steps", "count"),
    ("optimize.climb_ms", "ms"),
    ("optimize.evaluations", "count"),
    ("session.build_ms", "ms"),
    ("session.and_evals", "count"),
    ("session.fault_evals", "count"),
    ("session.obs_node_evals", "count"),
    ("check.ms", "ms"),
    ("check.bdd_calls", "count"),
    ("check.budget_exceeded", "count"),
    ("check.unproven", "count"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.checkout_us_p50", "us"),
    ("serve.compute_us_p50", "us"),
    ("serve.compute_us_p99", "us"),
    ("serve.io_us_p50", "us"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.cold_clones", "count"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer times and counters of a traced run.
///
/// Times accumulate per job; a layer's reported time is the median over
/// traced jobs of the time each job spent in it. Counters are taken from
/// the first traced job, whose inputs depend only on the seed, so they
/// repeat exactly for a given seed. Values set with [`Layers::set`]
/// (percentiles, ratios) are reported as given.
#[derive(Default)]
pub struct Layers {
    current: BTreeMap<&'static str, f64>,
    current_counts: BTreeMap<&'static str, f64>,
    jobs: Vec<BTreeMap<&'static str, f64>>,
    job_wall_ms: Vec<f64>,
    counts: Option<BTreeMap<&'static str, f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Times one call into `layer` (a `*_ms` metric name) and adds it to
    /// the current job. Calls must not nest.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(METRICS.iter().any(|&(n, _)| n == layer), "{layer}");
        let start = Instant::now();
        let value = f();
        *self.current.entry(layer).or_default() += secs(start) * 1e3;
        value
    }

    /// Adds to a work counter of the current job.
    pub fn count(&mut self, name: &'static str, n: f64) {
        debug_assert!(METRICS.iter().any(|&(m, _)| m == name), "{name}");
        *self.current_counts.entry(name).or_default() += n;
    }

    /// Closes the current traced job, whose whole wall-clock was `wall_ms`.
    pub fn end_job(&mut self, wall_ms: f64) {
        self.jobs.push(std::mem::take(&mut self.current));
        self.job_wall_ms.push(wall_ms);
        let counts = std::mem::take(&mut self.current_counts);
        self.counts.get_or_insert(counts);
    }

    /// Sets a metric directly.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|&(m, _)| m == name), "{name}");
        self.values.insert(name, value);
    }

    /// Share of the traced jobs' wall-clock that no named layer covers.
    pub fn unattributed_ratio(&self) -> f64 {
        let wall: f64 = self.job_wall_ms.iter().sum();
        let named: f64 = self.jobs.iter().flat_map(|j| j.values()).sum();
        if wall > 0.0 {
            (wall - named) / wall
        } else {
            0.0
        }
    }

    /// Every metric of [`METRICS`], in order.
    pub fn metrics(&self) -> Vec<(String, (f64, &'static str))> {
        METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(&v) = self.values.get(name) {
                    v
                } else if name == "trace.unattributed_ratio" {
                    self.unattributed_ratio()
                } else if let Some(&c) = self.counts.as_ref().and_then(|c| c.get(name)) {
                    c
                } else if self.jobs.iter().any(|j| j.contains_key(name)) {
                    let per_job: Vec<f64> = self
                        .jobs
                        .iter()
                        .map(|j| j.get(name).copied().unwrap_or(0.0))
                        .collect();
                    median(&per_job)
                } else {
                    0.0
                };
                (name.to_string(), (value, unit))
            })
            .collect()
    }
}
