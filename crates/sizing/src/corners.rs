//! Manufacturability-aware sizing over worst-case process corners.
//!
//! "Industrial design practice not only cares for a fully optimized nominal
//! design solution, but also expects high robustness and yield in the light
//! of varying operating conditions … and statistical process tolerances.
//! The ASTRX/OBLX tool has been extended with these manufacturability
//! considerations … The approach has been successful in several test cases
//! but does increase the CPU time required (e.g., by roughly 4X-10X)"
//! (§2.2, citing \[31\]). Experiment E5 reproduces that CPU-factor claim.

use crate::anneal::{anneal, AnnealConfig};
use crate::cost::{CostCompiler, Perf};
use crate::eqopt::{PerfModel, SizingResult};
use ams_netlist::{Corner, Technology};
use ams_topology::Spec;
// det-lint: allow(hash-collection): Perf/param maps read by key; ordered walks go through Spec bounds
use std::collections::HashMap;

/// A performance model that can be re-targeted to a process corner.
pub trait CornerAware: PerfModel {
    /// Returns a copy of the model evaluated under `corner` conditions.
    fn at_corner(&self, corner: &Corner) -> Box<dyn PerfModel>;
}

impl CornerAware for crate::eqopt::TwoStageModel {
    fn at_corner(&self, corner: &Corner) -> Box<dyn PerfModel> {
        let mut tech = self.tech.clone();
        tech.nmos = corner.nmos.clone();
        tech.pmos = corner.pmos.clone();
        tech.vdd = corner.vdd;
        tech.temp_k = corner.temp_k;
        Box::new(crate::eqopt::TwoStageModel::new(tech, self.cl))
    }
}

impl CornerAware for crate::eqopt::SymmetricalOtaModel {
    fn at_corner(&self, corner: &Corner) -> Box<dyn PerfModel> {
        let mut tech = self.tech.clone();
        tech.nmos = corner.nmos.clone();
        tech.pmos = corner.pmos.clone();
        tech.vdd = corner.vdd;
        tech.temp_k = corner.temp_k;
        Box::new(crate::eqopt::SymmetricalOtaModel::new(tech, self.cl))
    }
}

/// Result of a corner-aware sizing run.
#[derive(Debug, Clone)]
pub struct CornerResult {
    /// The sizing, with `perf` holding the *worst-case* metric values.
    pub sizing: SizingResult,
    /// Per-corner performance at the chosen sizing, keyed by corner label.
    pub per_corner: HashMap<String, Perf>,
    /// Corner evaluations per cost-function call (the CPU multiplier).
    pub corners_evaluated: usize,
}

/// Merges per-corner performance into the worst case per metric, honoring
/// the direction each spec bound cares about. Metrics without a bound take
/// the nominal (first corner) value.
pub fn worst_case(spec: &Spec, per_corner: &[Perf]) -> Perf {
    let mut out: Perf = per_corner.first().cloned().unwrap_or_default();
    for (metric, bound) in spec.bounds() {
        let values: Vec<f64> = per_corner
            .iter()
            .filter_map(|p| p.get(metric).copied())
            .collect();
        if values.is_empty() {
            continue;
        }
        let worst = match bound {
            ams_topology::Bound::AtLeast(_) => values.iter().cloned().fold(f64::INFINITY, f64::min),
            ams_topology::Bound::AtMost(_) => {
                values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            }
            ams_topology::Bound::Range(..) => {
                // Worst = farthest from the range midpoint.
                let mid = match bound {
                    ams_topology::Bound::Range(lo, hi) => 0.5 * (lo + hi),
                    _ => unreachable!(),
                };
                values
                    .iter()
                    .cloned()
                    .max_by(|a, b| {
                        (a - mid)
                            .abs()
                            .partial_cmp(&(b - mid).abs())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(f64::NAN)
            }
        };
        out.insert(metric.to_string(), worst);
    }
    // The minimization objective is also taken pessimistically (largest).
    if let Some(obj) = &spec.minimize {
        if let Some(max) = per_corner
            .iter()
            .filter_map(|p| p.get(obj).copied())
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        {
            out.insert(obj.clone(), max);
        }
    }
    out
}

/// Sizes a corner-aware model so the spec holds at **every** corner of the
/// technology (nonlinear worst-case formulation of \[31\]: the cost at a
/// point is the cost of its worst corner).
pub fn optimize_worst_case<M: CornerAware>(
    model: &M,
    tech: &Technology,
    spec: &Spec,
    config: &AnnealConfig,
) -> CornerResult {
    let corners = tech.corners();
    let corner_models: Vec<Box<dyn PerfModel>> =
        corners.iter().map(|c| model.at_corner(c)).collect();
    let params = model.params();
    let compiler = CostCompiler::new(spec.clone());

    let result = anneal(&params, config, None, |x| {
        let per: Vec<Perf> = corner_models.iter().map(|m| m.evaluate(x)).collect();
        compiler.cost(&worst_case(compiler.spec(), &per))
    });

    let per: Vec<Perf> = corner_models
        .iter()
        .map(|m| m.evaluate(&result.x))
        .collect();
    let wc = worst_case(compiler.spec(), &per);
    let per_corner: HashMap<String, Perf> = corners
        .iter()
        .zip(per)
        .map(|(c, p)| (c.kind.label().to_string(), p))
        .collect();

    CornerResult {
        sizing: SizingResult {
            params: params
                .iter()
                .zip(&result.x)
                .map(|(p, &v)| (p.name.clone(), v))
                .collect(),
            feasible: compiler.feasible(&wc),
            perf: wc,
            cost: result.cost,
            evaluations: result.evaluations,
        },
        per_corner,
        corners_evaluated: corners.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqopt::{optimize, TwoStageModel};
    use ams_topology::Bound;

    fn setup() -> (TwoStageModel, Technology, Spec) {
        let tech = Technology::generic_1p2um();
        let model = TwoStageModel::new(tech.clone(), 5e-12);
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(65.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .minimizing("power_w");
        (model, tech, spec)
    }

    #[test]
    fn worst_case_merge_respects_bound_direction() {
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("power_w", Bound::AtMost(1e-3));
        let a: Perf = [("gain_db".to_string(), 70.0), ("power_w".to_string(), 5e-4)]
            .into_iter()
            .collect();
        let b: Perf = [("gain_db".to_string(), 62.0), ("power_w".to_string(), 9e-4)]
            .into_iter()
            .collect();
        let wc = worst_case(&spec, &[a, b]);
        assert_eq!(wc["gain_db"], 62.0); // min for AtLeast
        assert_eq!(wc["power_w"], 9e-4); // max for AtMost
    }

    #[test]
    fn corner_sizing_holds_at_every_corner() {
        let (model, tech, spec) = setup();
        let r = optimize_worst_case(&model, &tech, &spec, &AnnealConfig::default());
        assert!(r.sizing.feasible, "worst case perf: {:?}", r.sizing.perf);
        assert_eq!(r.corners_evaluated, 5);
        // Explicitly check the spec at every corner.
        for (label, perf) in &r.per_corner {
            assert!(
                perf["gain_db"] >= 65.0 - 1e-9,
                "corner {label}: gain {}",
                perf["gain_db"]
            );
            assert!(perf["ugf_hz"] >= 5e6 * (1.0 - 1e-12), "corner {label}");
        }
    }

    #[test]
    fn nominal_design_may_fail_corners() {
        // Size at nominal only with a slim margin, then check corners: the
        // slow corner must degrade performance (this is *why* [31] exists).
        let (model, tech, spec) = setup();
        let nominal = optimize(&model, &spec, &AnnealConfig::default());
        assert!(nominal.feasible);
        let x: Vec<f64> = model
            .params()
            .iter()
            .map(|p| nominal.params[&p.name])
            .collect();
        let ss = model.at_corner(&tech.corner(ams_netlist::CornerKind::SlowSlow));
        let ss_perf = ss.evaluate(&x);
        // The slow corner is strictly worse on speed than nominal.
        assert!(ss_perf["ugf_hz"] < nominal.perf["ugf_hz"] * 1.001);
    }

    #[test]
    fn corner_run_costs_multiple_of_nominal() {
        // Same annealing budget → corner mode does 5× the model
        // evaluations, the root of the paper's 4X–10X CPU claim.
        let (model, tech, spec) = setup();
        let cfg = AnnealConfig::quick();
        let nominal = optimize(&model, &spec, &cfg);
        let corner = optimize_worst_case(&model, &tech, &spec, &cfg);
        assert_eq!(nominal.evaluations, corner.sizing.evaluations);
        assert_eq!(corner.corners_evaluated, 5);
    }
}
