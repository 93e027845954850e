//! Specification → scalar cost compilation (the ASTRX step).
//!
//! "ASTRX compiles the initial synthesis specification into an executable
//! cost function whose minimum represents a good solution" (§2.2). The
//! [`CostCompiler`] turns an [`ams_topology::Spec`] into a weighted sum of
//! normalized constraint violations plus scalarized objectives, evaluated
//! on performance vectors.
//!
//! The optimizer loops compile one step further. [`CostCompiler::resolve`]
//! looks every bound and the objective up in a model's metric list
//! ([`PerfModel::metrics`]) once per (model, spec), and the resulting
//! [`SlotCost`] reads each evaluation's slot vector by index
//! ([`PerfModel::evaluate_into`]): no name is hashed and no map is built
//! per evaluation. It sums in the spec's order with the same arithmetic as
//! [`CostCompiler::cost`], so both give the same bits. A model with no
//! metric list is costed by name through [`PerfModel::evaluate`].

use crate::eqopt::PerfModel;
use ams_topology::{Bound, Spec};
// det-lint: allow(hash-collection): Perf is keyed storage; cost sums iterate the BTreeMap-backed Spec bounds
use std::collections::HashMap;

/// Performance vector: metric name → measured value.
pub type Perf = HashMap<String, f64>;

/// Derives the canonical [`ams_exec::CacheKey`] tag for one evaluator
/// working against one specification.
///
/// Every optimizer loop (GA, anneal, simulation-based, polish) must build
/// its cache tags through this one function so that identical work hashes
/// identically — and, just as important, so that *different* work never
/// collides: the tag folds in the evaluator's full
/// [`cache_identity`](crate::PerfModel::cache_identity) (model name plus
/// every configuration knob that shapes the cost surface) and the complete
/// `Debug` rendering of the spec. A persistent cache entry is only
/// reusable when both match.
pub fn eval_tag(identity: &str, spec: &Spec) -> u64 {
    ams_exec::cache_tag(&format!("{identity}|{spec:?}"))
}

/// Per-metric report produced by [`CostCompiler::report`].
#[derive(Debug, Clone)]
pub struct MetricReport {
    /// Metric name.
    pub metric: String,
    /// Measured value.
    pub value: f64,
    /// The bound, if one applies.
    pub bound: Option<Bound>,
    /// Whether the bound is met (true when no bound applies).
    pub satisfied: bool,
}

/// Compiled cost function over performance vectors.
#[derive(Debug, Clone)]
pub struct CostCompiler {
    spec: Spec,
    /// Weight applied to each unit of normalized constraint violation.
    pub constraint_weight: f64,
    /// Weight applied to the (normalized) minimization objective.
    pub objective_weight: f64,
}

impl CostCompiler {
    /// Compiles a specification with default weights.
    pub fn new(spec: Spec) -> Self {
        CostCompiler {
            spec,
            constraint_weight: 100.0,
            objective_weight: 1.0,
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Normalized violation of one bound at a value (0 when satisfied).
    pub fn violation(bound: &Bound, value: f64) -> f64 {
        match *bound {
            Bound::AtLeast(v) => {
                if value >= v {
                    0.0
                } else {
                    (v - value) / v.abs().max(1e-12)
                }
            }
            Bound::AtMost(v) => {
                if value <= v {
                    0.0
                } else {
                    (value - v) / v.abs().max(1e-12)
                }
            }
            Bound::Range(lo, hi) => {
                if value < lo {
                    (lo - value) / lo.abs().max(1e-12)
                } else if value > hi {
                    (value - hi) / hi.abs().max(1e-12)
                } else {
                    0.0
                }
            }
        }
    }

    /// Scalar cost of a performance vector. Missing and non-finite metrics
    /// are treated as hard violations (cost contribution 10) so incomplete
    /// evaluations cannot look attractive.
    pub fn cost(&self, perf: &Perf) -> f64 {
        let mut total = 0.0;
        for (metric, bound) in self.spec.bounds() {
            total += self.bound_charge(bound, perf.get(metric).copied());
        }
        if let Some(obj) = &self.spec.minimize {
            total += self.objective_charge(perf.get(obj).copied());
        }
        total
    }

    /// The cost term of one bound at its metric's value (`None`: missing).
    fn bound_charge(&self, bound: &Bound, value: Option<f64>) -> f64 {
        match value {
            Some(v) if v.is_finite() => {
                let viol = Self::violation(bound, v);
                self.constraint_weight * viol * (1.0 + viol)
            }
            _ => self.constraint_weight * 10.0,
        }
    }

    /// The cost term of the objective at its metric's value.
    fn objective_charge(&self, value: Option<f64>) -> f64 {
        match value {
            // log-scaled so decades of improvement matter equally.
            Some(v) if v.is_finite() && v > 0.0 => self.objective_weight * v.ln(),
            Some(v) if v.is_finite() => self.objective_weight * v,
            _ => self.constraint_weight * 10.0,
        }
    }

    /// Compiles this cost against `model`'s metric list: every bound and
    /// the objective resolve to a slot (or to the missing-metric charge)
    /// here, once, instead of by name at each evaluation.
    pub fn resolve<'a, M: PerfModel + ?Sized>(&'a self, model: &'a M) -> SlotCost<'a, M> {
        let metrics = model.metrics();
        let slot = |name: &str| metrics.iter().position(|m| *m == name);
        SlotCost {
            compiler: self,
            model,
            width: metrics.len(),
            bounds: self.spec.bounds().map(|(m, b)| (slot(m), *b)).collect(),
            objective: self.spec.minimize.as_deref().map(slot),
        }
    }

    /// Whether every bound is satisfied.
    pub fn feasible(&self, perf: &Perf) -> bool {
        self.spec.satisfied_by(perf)
    }

    /// Per-metric pass/fail report for result tables.
    pub fn report(&self, perf: &Perf) -> Vec<MetricReport> {
        let mut out: Vec<MetricReport> = Vec::new();
        for (metric, bound) in self.spec.bounds() {
            let value = perf.get(metric).copied().unwrap_or(f64::NAN);
            out.push(MetricReport {
                metric: metric.to_string(),
                value,
                bound: Some(*bound),
                satisfied: value.is_finite() && Self::violation(bound, value) == 0.0,
            });
        }
        out.sort_by(|a, b| a.metric.cmp(&b.metric));
        out
    }
}

/// The widest slot vector a [`SlotCost`] reads; it lives on the stack.
/// A wider model is costed by name.
const INLINE_SLOTS: usize = 16;

/// A [`CostCompiler`] resolved against one model by
/// [`CostCompiler::resolve`]. [`cost`](Self::cost) equals
/// `compiler.cost(&model.evaluate(x))` bit for bit.
#[derive(Debug)]
pub struct SlotCost<'a, M: ?Sized> {
    compiler: &'a CostCompiler,
    model: &'a M,
    /// Length of the model's metric list; 0, or more than
    /// [`INLINE_SLOTS`], costs by name.
    width: usize,
    /// Each spec bound with its metric's slot, in the spec's order.
    bounds: Vec<(Option<usize>, Bound)>,
    /// The objective's slot, when the spec has an objective.
    objective: Option<Option<usize>>,
}

impl<M: PerfModel + ?Sized> SlotCost<'_, M> {
    /// Scalar cost of the model at parameter point `x`.
    pub fn cost(&self, x: &[f64]) -> f64 {
        if self.width == 0 || self.width > INLINE_SLOTS {
            return self.compiler.cost(&self.model.evaluate(x));
        }
        let mut slots = [0.0; INLINE_SLOTS];
        let values = &mut slots[..self.width];
        self.model.evaluate_into(x, values);
        let at = |slot: Option<usize>| slot.map(|s| values[s]);
        let mut total = 0.0;
        for (slot, bound) in &self.bounds {
            total += self.compiler.bound_charge(bound, at(*slot));
        }
        if let Some(slot) = self.objective {
            total += self.compiler.objective_charge(at(slot));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(pairs: &[(&str, f64)]) -> Perf {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn satisfied_bounds_cost_only_objective() {
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let cc = CostCompiler::new(spec);
        let a = cc.cost(&perf(&[("gain_db", 70.0), ("power_w", 1e-3)]));
        let b = cc.cost(&perf(&[("gain_db", 70.0), ("power_w", 1e-4)]));
        assert!(b < a, "lower power must cost less: {b} vs {a}");
        assert!(cc.feasible(&perf(&[("gain_db", 70.0), ("power_w", 1e-3)])));
    }

    #[test]
    fn violations_dominate_objective() {
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .minimizing("power_w");
        let cc = CostCompiler::new(spec);
        // Violating gain with tiny power must cost more than meeting gain
        // with large power.
        let violating = cc.cost(&perf(&[("gain_db", 30.0), ("power_w", 1e-9)]));
        let meeting = cc.cost(&perf(&[("gain_db", 65.0), ("power_w", 1e-1)]));
        assert!(violating > meeting);
    }

    #[test]
    fn missing_metric_is_heavily_penalized() {
        let spec = Spec::new().require("gain_db", Bound::AtLeast(60.0));
        let cc = CostCompiler::new(spec);
        assert!(cc.cost(&perf(&[])) >= 100.0 * 10.0);
        assert!(!cc.feasible(&perf(&[])));
    }

    #[test]
    fn violation_math() {
        assert_eq!(CostCompiler::violation(&Bound::AtLeast(10.0), 12.0), 0.0);
        assert!((CostCompiler::violation(&Bound::AtLeast(10.0), 5.0) - 0.5).abs() < 1e-12);
        assert_eq!(CostCompiler::violation(&Bound::AtMost(1.0), 0.5), 0.0);
        assert!((CostCompiler::violation(&Bound::AtMost(1.0), 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(CostCompiler::violation(&Bound::Range(1.0, 2.0), 1.5), 0.0);
        assert!(CostCompiler::violation(&Bound::Range(1.0, 2.0), 0.5) > 0.0);
    }

    #[test]
    fn report_lists_every_bound() {
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("power_w", Bound::AtMost(1e-3));
        let cc = CostCompiler::new(spec);
        let rep = cc.report(&perf(&[("gain_db", 55.0), ("power_w", 5e-4)]));
        assert_eq!(rep.len(), 2);
        let gain = rep.iter().find(|r| r.metric == "gain_db").unwrap();
        assert!(!gain.satisfied);
        let power = rep.iter().find(|r| r.metric == "power_w").unwrap();
        assert!(power.satisfied);
    }
}
