//! OAC-style redesign from a database of previous solutions.
//!
//! "Other simulation-based approaches can be found in tools such as OAC,
//! which is based on redesign starting from a previous design solution
//! stored in the system's database" (§2.2). A [`DesignDatabase`] stores
//! finished sizings keyed by their specs; [`redesign`] retrieves the
//! nearest previous solution and warm-starts a short annealing run from it
//! instead of exploring from scratch.

use crate::anneal::{AnnealConfig, ParamDef};
use crate::cost::CostCompiler;
use crate::eqopt::{PerfModel, SizingResult};
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_topology::{Bound, Spec};
// det-lint: allow(hash-collection): Perf/param maps read by key; ordered walks go through Spec bounds
use std::collections::HashMap;

/// One stored design: the spec it was sized for and the parameter vector.
#[derive(Debug, Clone)]
pub struct StoredDesign {
    /// Metric targets the design was sized against.
    pub targets: HashMap<String, f64>,
    /// Parameter values keyed by name.
    pub params: HashMap<String, f64>,
}

/// A database of previous design solutions for one topology.
#[derive(Debug, Clone, Default)]
pub struct DesignDatabase {
    designs: Vec<StoredDesign>,
}

fn spec_targets(spec: &Spec) -> HashMap<String, f64> {
    spec.bounds()
        .map(|(metric, bound)| {
            let v = match *bound {
                Bound::AtLeast(v) | Bound::AtMost(v) => v,
                Bound::Range(lo, hi) => 0.5 * (lo + hi),
            };
            (metric.to_string(), v)
        })
        .collect()
}

impl DesignDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a finished sizing under its spec.
    pub fn store(&mut self, spec: &Spec, result: &SizingResult) {
        self.designs.push(StoredDesign {
            targets: spec_targets(spec),
            params: result.params.clone(),
        });
    }

    /// Number of stored designs.
    pub fn len(&self) -> usize {
        self.designs.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.designs.is_empty()
    }

    /// The stored design whose spec is closest (log-space distance over
    /// shared metrics) to `spec`.
    pub fn nearest(&self, spec: &Spec) -> Option<&StoredDesign> {
        let targets = spec_targets(spec);
        self.designs.iter().min_by(|a, b| {
            let da = Self::distance(&targets, &a.targets);
            let db = Self::distance(&targets, &b.targets);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    fn distance(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
        let mut d = 0.0;
        let mut shared = 0;
        for (k, &va) in a {
            if let Some(&vb) = b.get(k) {
                if va > 0.0 && vb > 0.0 {
                    let r = (va / vb).ln();
                    d += r * r;
                    shared += 1;
                }
            }
        }
        if shared == 0 {
            f64::INFINITY
        } else {
            d / shared as f64
        }
    }
}

/// Redesigns: warm-starts a short local search from the nearest stored
/// solution. Returns the result and whether a database hit was used
/// (no hit → falls back to full-budget annealing from scratch).
pub fn redesign<M: PerfModel>(
    model: &M,
    spec: &Spec,
    db: &DesignDatabase,
    config: &AnnealConfig,
) -> (SizingResult, bool) {
    let _span = ams_trace::span("sizing.redesign");
    let params = model.params();
    let compiler = CostCompiler::new(spec.clone());
    let cost = compiler.resolve(model);
    let Some(hit) = db.nearest(spec) else {
        ams_trace::counter_add("sizing.redesign_db_misses", 1);
        return (crate::eqopt::optimize(model, spec, config), false);
    };
    ams_trace::counter_add("sizing.redesign_db_hits", 1);
    // Warm start: local perturbation search around the stored solution
    // with a tiny budget (OAC's "redesign" rather than "design").
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let start: Vec<f64> = params
        .iter()
        .map(|p| {
            hit.params
                .get(&p.name)
                .copied()
                .unwrap_or(0.5 * (p.lo + p.hi))
                .clamp(p.lo, p.hi)
        })
        .collect();
    let mut best = start.clone();
    let mut best_cost = cost.cost(&best);
    let mut evaluations = 1;
    let local_budget = (config.moves_per_stage * config.stages) / 10;
    for _ in 0..local_budget.max(50) {
        let mut cand = best.clone();
        let k = rng.gen_range(0..params.len());
        cand[k] = perturb_local(&params[k], cand[k], &mut rng);
        let c = cost.cost(&cand);
        evaluations += 1;
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    let perf = model.evaluate(&best);
    ams_trace::counter_add("sizing.redesign_evals", evaluations as u64);
    (
        SizingResult {
            params: params
                .iter()
                .zip(&best)
                .map(|(p, &v)| (p.name.clone(), v))
                .collect(),
            feasible: compiler.feasible(&perf),
            perf,
            cost: best_cost,
            evaluations,
        },
        true,
    )
}

fn perturb_local(def: &ParamDef, v: f64, rng: &mut SmallRng) -> f64 {
    let scale = 0.08;
    if def.log {
        let span = (def.hi / def.lo).ln();
        (v.max(def.lo).ln() + span * scale * (rng.gen::<f64>() - 0.5))
            .exp()
            .clamp(def.lo, def.hi)
    } else {
        (v + (def.hi - def.lo) * scale * (rng.gen::<f64>() - 0.5)).clamp(def.lo, def.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqopt::{optimize, TwoStageModel};
    use ams_netlist::Technology;

    fn model() -> TwoStageModel {
        TwoStageModel::new(Technology::generic_1p2um(), 5e-12)
    }

    fn spec(ugf: f64) -> Spec {
        Spec::new()
            .require("gain_db", Bound::AtLeast(65.0))
            .require("ugf_hz", Bound::AtLeast(ugf))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .minimizing("power_w")
    }

    #[test]
    fn redesign_reuses_nearby_solution_cheaply() {
        let m = model();
        let mut db = DesignDatabase::new();
        // Populate the database with two designs.
        for ugf in [2e6, 2e7] {
            let s = spec(ugf);
            let r = optimize(&m, &s, &AnnealConfig::default());
            assert!(r.feasible);
            db.store(&s, &r);
        }
        assert_eq!(db.len(), 2);
        // A nearby spec (10% harder than the first) redesigns from the hit.
        let s = spec(2.2e6);
        let (r, hit) = redesign(&m, &s, &db, &AnnealConfig::default());
        assert!(hit);
        assert!(r.feasible, "{:?}", r.perf);
        // Redesign spends an order of magnitude fewer evaluations than a
        // fresh optimization run would.
        let fresh = optimize(&m, &s, &AnnealConfig::default());
        assert!(
            r.evaluations * 5 < fresh.evaluations,
            "redesign {} vs fresh {}",
            r.evaluations,
            fresh.evaluations
        );
    }

    #[test]
    fn nearest_picks_the_right_neighbor() {
        let m = model();
        let mut db = DesignDatabase::new();
        let slow = spec(1e6);
        let fast = spec(5e7);
        let r_slow = optimize(&m, &slow, &AnnealConfig::quick());
        let r_fast = optimize(&m, &fast, &AnnealConfig::quick());
        db.store(&slow, &r_slow);
        db.store(&fast, &r_fast);
        let near_fast = db.nearest(&spec(4e7)).unwrap();
        assert_eq!(near_fast.targets["ugf_hz"], 5e7);
        let near_slow = db.nearest(&spec(1.2e6)).unwrap();
        assert_eq!(near_slow.targets["ugf_hz"], 1e6);
    }

    #[test]
    fn empty_database_falls_back_to_full_synthesis() {
        let m = model();
        let db = DesignDatabase::new();
        let (r, hit) = redesign(&m, &spec(5e6), &db, &AnnealConfig::default());
        assert!(!hit);
        assert!(r.feasible);
    }
}
