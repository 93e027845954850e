//! Per-layer attribution for the traced run.
//!
//! The figures come from outside the program: span and counter totals
//! that `ams_trace` already records, a timing wrapper around the
//! `PerfModel` the benchmark passes in, and timings of public calls the
//! benchmark makes itself. A figure is a mean per traced op unless its
//! unit is `ratio`; a layer a workload does not use reads 0.

use std::collections::BTreeMap;

use ams_trace::Snapshot;

/// One printed metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Per-layer sums keyed by metric name. Keys starting with `_` are
/// bookkeeping that only feeds ratios and coverage.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Layers) {
        for (&key, &value) in &other.0 {
            self.add(key, value);
        }
    }
}

/// Span leaf name → the figure its total time feeds, in seconds. A span
/// counts on every path that ends in its leaf.
const SPAN_SECONDS: [(&str, &str); 10] = [
    ("flow.topology_select", "topology.select_s"),
    ("flow.sizing", "sizing.anneal_s"),
    ("flow.erc", "lint.erc_s"),
    ("flow.layout", "_flow.layout_s"),
    ("flow.layout_relaxed", "_flow.layout_relaxed_s"),
    ("flow.extract_verify", "core.verify_s"),
    ("layout.place", "layout.place_s"),
    ("layout.route", "layout.route_s"),
    ("sizing.ga", "sizing.ga_s"),
    ("sim.dc_op", "sim.dc_s"),
];

/// Counter → the figure it feeds; several counters may feed one figure.
const COUNTERS: [(&str, &str); 20] = [
    ("sizing.anneal_evals", "sizing.anneal_evals"),
    ("exec.cache.hit", "exec.cache_hits"),
    ("exec.cache.miss", "exec.cache_misses"),
    ("exec.tasks", "exec.tasks"),
    ("exec.cache.disk_loaded", "exec.cache_disk_loaded"),
    ("layout.place_moves_translate", "layout.place_moves"),
    ("layout.place_moves_orient", "layout.place_moves"),
    ("layout.place_moves_swap", "layout.place_moves"),
    ("layout.route_expansions", "layout.route_expansions"),
    ("flow.redesign_iterations", "core.redesign_iterations"),
    ("flow.router_relaxed", "_flow.relaxed"),
    ("sim.dc_solves", "sim.dc_solves"),
    ("sim.newton_iters", "sim.newton_iters"),
    ("sim.lu_factors", "sim.lu_factors"),
    ("sim.batch.bind", "sim.batch_binds"),
    ("sim.sparse.symbolic", "sim.sparse_symbolic"),
    ("sim.sparse.refactor", "sim.sparse_refactors"),
    ("sim.sparse.fill_in", "sim.sparse_fill_in"),
    ("sim.tran_steps_accepted", "sim.tran_steps"),
    ("lint.structural.predicted_fill", "lint.predicted_fill"),
];

/// Adds one traced op's span, counter and histogram totals to `op`.
pub fn fold_snapshot(snap: &Snapshot, op: &mut Layers) {
    for (path, stat) in &snap.spans {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        for (name, key) in SPAN_SECONDS {
            if leaf == name {
                op.add(key, stat.total_us * 1e-6);
            }
        }
        if leaf == "flow.layout" {
            op.add("_flow.layouts", stat.count as f64);
        }
    }
    for (name, key) in COUNTERS {
        if let Some(&value) = snap.counters.get(name) {
            op.add(key, value as f64);
        }
    }
    // Every file commit, of the GA journal and of the disk eval cache
    // alike, records one latency sample.
    if let Some(h) = snap.histograms.get("ckpt.write_us") {
        op.add("ckpt.write_s", h.mean * h.count as f64 * 1e-6);
        op.add("ckpt.commits", h.count as f64);
    }
}

/// How the traced totals reduce to a metric.
enum Agg {
    /// Mean per op of the total under the metric's own name.
    Mean,
    /// Ratio of two totals (0 when the denominator is 0).
    Ratio(&'static str, &'static str),
    /// Mean over the ops of one size class, whose count is the named total.
    PerClass(&'static str),
    /// Computed from several totals; see [`derived`].
    Derived,
}

use Agg::{Derived, Mean, PerClass, Ratio};

/// Every per-layer metric, in print order. `BENCHMARK.json` lists the
/// same names and units.
const PER_LAYER: &[(&str, &str, Agg)] = &[
    (
        "bench.coverage",
        "ratio",
        Ratio("bench.attributed_s", "bench.op_s"),
    ),
    ("bench.trace_overhead_ratio", "ratio", Derived),
    // opamp_flow
    ("topology.select_s", "s", Mean),
    ("sizing.anneal_s", "s", Mean),
    ("sizing.anneal_evals", "count", Mean),
    ("exec.cache_hit_ratio", "ratio", Derived),
    ("exec.cache_hits", "count", Mean),
    ("exec.cache_misses", "count", Mean),
    ("lint.erc_s", "s", Mean),
    ("layout.place_s", "s", Mean),
    ("layout.place_moves", "count", Mean),
    ("layout.route_s", "s", Mean),
    ("layout.route_expansions", "count", Mean),
    (
        "layout.reroute_ratio",
        "ratio",
        Ratio("_flow.relaxed", "_flow.layouts"),
    ),
    ("core.verify_s", "s", Mean),
    ("core.redesign_iterations", "count", Mean),
    ("core.degraded_ratio", "ratio", Mean),
    // table1_sim
    ("sizing.ga_s", "s", Mean),
    ("sizing.model_eval_s", "s", Mean),
    ("sizing.model_evals", "count", Mean),
    ("sizing.ga_other_s", "s", Derived),
    ("exec.tasks", "count", Mean),
    ("sim.dc_s", "s", Mean),
    ("sim.dc_solves", "count", Mean),
    ("sim.newton_iters", "count", Mean),
    ("sim.lu_factors", "count", Mean),
    ("sim.ac_s", "s", Derived),
    ("sim.batch_binds", "count", Mean),
    // grid_eval
    ("rail.build_s.small", "s", PerClass("_grid.ops.small")),
    ("rail.build_s.large", "s", PerClass("_grid.ops.large")),
    ("lint.structural_s.small", "s", PerClass("_grid.ops.small")),
    ("lint.structural_s.large", "s", PerClass("_grid.ops.large")),
    ("sim.dc_s.small", "s", PerClass("_grid.ops.small")),
    ("sim.dc_s.large", "s", PerClass("_grid.ops.large")),
    ("sim.tran_s.small", "s", PerClass("_grid.ops.small")),
    ("sim.tran_s.large", "s", PerClass("_grid.ops.large")),
    ("awe.impedance_s.small", "s", PerClass("_grid.ops.small")),
    ("awe.impedance_s.large", "s", PerClass("_grid.ops.large")),
    ("sim.sparse_symbolic", "count", Mean),
    ("sim.sparse_refactors", "count", Mean),
    ("sim.sparse_fill_in", "count", Mean),
    ("sim.tran_steps", "count", Mean),
    ("lint.predicted_fill", "count", Mean),
    // ga_ckpt
    ("ckpt.write_s", "s", Mean),
    ("ckpt.commits", "count", Mean),
    ("ckpt.bytes_written", "B", Mean),
    ("ckpt.open_s", "s", Mean),
    ("exec.cache_file_bytes", "B", Mean),
    ("exec.cache_disk_loaded", "count", Mean),
];

/// The per-layer metrics of a traced pass of `ops` ops whose sums are
/// `totals`; `overhead` is traced over untraced op time, minus one.
pub fn per_layer(totals: &Layers, ops: usize, overhead: f64) -> Vec<Metric> {
    let n = ops.max(1) as f64;
    let ratio = |a: &str, b: &str| {
        let den = totals.get(b);
        if den > 0.0 {
            totals.get(a) / den
        } else {
            0.0
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, ref agg)| {
            let value = match *agg {
                Mean => totals.get(name) / n,
                Ratio(a, b) => ratio(a, b),
                PerClass(count) => ratio(name, count),
                Derived => derived(totals, name, n, overhead),
            };
            (name, unit, value)
        })
        .collect()
}

fn derived(t: &Layers, name: &str, n: f64, overhead: f64) -> f64 {
    match name {
        "bench.trace_overhead_ratio" => overhead,
        "exec.cache_hit_ratio" => {
            let (hits, misses) = (t.get("exec.cache_hits"), t.get("exec.cache_misses"));
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        }
        // GA time spent neither in the model nor in file commits:
        // selection, breeding, cache probes, pool dispatch and eval-cache
        // file reads.
        "sizing.ga_other_s" if t.get("sizing.ga_s") > 0.0 => {
            (t.get("sizing.ga_s") - t.get("sizing.model_eval_s") - t.get("ckpt.write_s")) / n
        }
        // A simulation-backed model's time outside its DC solves:
        // linearization and the AC sweep.
        "sim.ac_s" if t.get("sim.batch_binds") > 0.0 && t.get("sizing.model_evals") > 0.0 => {
            (t.get("sizing.model_eval_s") - t.get("sim.dc_s")) / n
        }
        _ => 0.0,
    }
}
