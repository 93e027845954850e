//! Generic simulated annealing over bounded parameter vectors.
//!
//! Annealing is the workhorse of the optimization-based synthesis tools the
//! tutorial surveys — OPTIMAN ("a global simulated annealing algorithm"),
//! FRIDGE ("calls the SPICE simulator throughout a simulated annealing
//! optimization loop") and OBLX ("numerically searches for a good minimum
//! of this function via annealing") all share this engine shape.

use ams_exec::{CacheKey, EvalCache};
use ams_prng::{Rng, SeedableRng, SmallRng};

/// One optimization parameter: bounds and scale.
#[derive(Debug, Clone)]
pub struct ParamDef {
    /// Parameter name (e.g. `"w_m1"`).
    pub name: String,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Explore in log space (appropriate for W/L, currents, capacitors).
    pub log: bool,
}

impl ParamDef {
    /// Linear-scale parameter.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn linear(name: &str, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "bad bounds for {name}");
        ParamDef {
            name: name.to_string(),
            lo,
            hi,
            log: false,
        }
    }

    /// Log-scale parameter (both bounds must be positive).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi`.
    pub fn log(name: &str, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && lo < hi, "bad log bounds for {name}");
        ParamDef {
            name: name.to_string(),
            lo,
            hi,
            log: true,
        }
    }

    fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.lo, self.hi)
    }

    fn perturb(&self, v: f64, scale: f64, rng: &mut SmallRng) -> f64 {
        if self.log {
            let span = (self.hi / self.lo).ln();
            let step = span * scale * (rng.gen::<f64>() - 0.5);
            self.clamp((v.max(self.lo).ln() + step).exp())
        } else {
            let span = self.hi - self.lo;
            self.clamp(v + span * scale * (rng.gen::<f64>() - 0.5))
        }
    }

    /// A uniform random sample within bounds.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        if self.log {
            let u = rng.gen::<f64>();
            (self.lo.ln() + u * (self.hi / self.lo).ln()).exp()
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }
}

/// Annealing schedule and budget.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Moves attempted per temperature stage.
    pub moves_per_stage: usize,
    /// Number of temperature stages.
    pub stages: usize,
    /// Initial temperature as a multiple of the initial cost spread.
    pub t_initial_factor: f64,
    /// Geometric cooling rate per stage (0 < α < 1).
    pub cooling: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            moves_per_stage: 200,
            stages: 60,
            t_initial_factor: 1.0,
            cooling: 0.85,
            seed: 1,
        }
    }
}

impl AnnealConfig {
    /// A reduced-budget configuration for fast unit tests.
    pub fn quick() -> Self {
        AnnealConfig {
            moves_per_stage: 60,
            stages: 30,
            ..Self::default()
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Cost of the best vector.
    pub cost: f64,
    /// Total cost-function evaluations performed.
    pub evaluations: usize,
    /// Number of accepted moves.
    pub accepted: usize,
}

/// Number of random samples in the multi-start initialization (the first
/// sample plus [`MULTI_START_EXTRA`] more, evaluated as one batch).
const MULTI_START_EXTRA: usize = 20;

/// Minimizes `cost` over the box defined by `params` with simulated
/// annealing (Metropolis acceptance, geometric cooling, shrinking moves).
///
/// The cost function receives the full parameter vector in the order of
/// `params`. Lower cost is better; `f64::INFINITY` marks invalid points.
/// It must be `Sync`: the multi-start initialization evaluates its random
/// samples as one parallel `ams-exec` batch (the Metropolis chain itself
/// is inherently sequential and stays serial). Results are identical at
/// any thread count — samples are drawn serially and reduced in index
/// order.
///
/// With `memo = Some((tag, cache))` every candidate is memoized under
/// `CacheKey::for_candidate(tag, x)` — derive `tag` with
/// [`crate::cost::eval_tag`] so keys are canonical across all optimizer
/// loops. The multi-start batch probes the cache serially before fanning
/// the misses out in parallel, and the Metropolis chain memoizes each move
/// through [`EvalCache::eval_with`]. Cached costs are the exact bits a
/// fresh evaluation would have produced, so the trajectory and the result
/// are the same with no memo, a disabled cache, a cold one or a warm one.
/// Budget metering moves with the cache: the init batch charges only its
/// computed misses (hits are free), while chain moves are charged per
/// move either way.
///
/// # Panics
///
/// Panics if `params` is empty.
pub fn anneal<F>(
    params: &[ParamDef],
    config: &AnnealConfig,
    memo: Option<(u64, &EvalCache)>,
    cost: F,
) -> AnnealResult
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    assert!(!params.is_empty(), "no parameters to optimize");
    let _span = ams_trace::span("sizing.anneal");
    record_start("anneal", config.seed);

    // Every candidate evaluation is panic-isolated: a poisoned candidate
    // scores infeasible (infinite cost) instead of killing the run.
    let eval = |v: &[f64]| ams_guard::guarded_eval(|| cost(v));

    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Multi-start initialization: best of a handful of random samples,
    // drawn serially and evaluated as one parallel batch. Each sample is
    // metered; the batch runs to completion even if the budget is crossed
    // inside it (bounded overrun), and exhaustion is then observed at the
    // batch boundary so the stages below stop deterministically.
    let starts: Vec<Vec<f64>> = (0..1 + MULTI_START_EXTRA)
        .map(|_| params.iter().map(|p| p.sample(&mut rng)).collect())
        .collect();
    let start_costs = match memo {
        // Memoized path: the cache probes serially, charges the computed
        // misses to the budget itself, and fans only the misses out in
        // parallel.
        Some((tag, cache)) => {
            cache.eval_batch_keyed(&starts, |v| CacheKey::for_candidate(tag, v), |_, v| eval(v))
        }
        None => ams_exec::par_map_indexed(&starts, |_, v| {
            let _ = ams_guard::budget::charge_evals(1);
            eval(v)
        }),
    };
    let mut evaluations = starts.len();
    // Reduce in index order: running best plus the cost spread against
    // the running best, exactly as the serial loop computed it.
    let mut x = starts[0].clone();
    let mut c = start_costs[0];
    let mut spread = 0.0f64;
    for (cand, &cc) in starts.iter().zip(&start_costs).skip(1) {
        if cc.is_finite() && c.is_finite() {
            spread = spread.max((cc - c).abs());
        }
        if cc < c {
            x = cand.clone();
            c = cc;
        }
    }
    let mut t = (spread.max(c.abs()).max(1e-9)) * config.t_initial_factor;
    let (mut best_x, mut best_c) = (x.clone(), c);
    let (mut accepted, mut moves_attempted) = (0usize, 0u64);
    let stages = if ams_guard::budget::check_in() {
        config.stages
    } else {
        0
    };

    'stages: for stage in 0..stages {
        // Move scale shrinks from coarse to fine over the schedule.
        let progress = stage as f64 / config.stages.max(1) as f64;
        let scale = 0.5 * (1.0 - progress) + 0.02;
        let stage_accepted_before = accepted;
        for _ in 0..config.moves_per_stage {
            if !ams_guard::budget::charge_evals(1) {
                break 'stages;
            }
            moves_attempted += 1;
            let k = rng.gen_range(0..params.len());
            let mut cand = x.clone();
            cand[k] = params[k].perturb(cand[k], scale, &mut rng);
            let cc = match memo {
                Some((tag, cache)) => {
                    cache.eval_with(CacheKey::for_candidate(tag, &cand), || eval(&cand))
                }
                None => eval(&cand),
            };
            evaluations += 1;
            let accept = cc < c || {
                let d = cc - c;
                d.is_finite() && rng.gen::<f64>() < (-d / t.max(1e-300)).exp()
            };
            if accept {
                x = cand;
                c = cc;
                accepted += 1;
                if c < best_c {
                    best_c = c;
                    best_x = x.clone();
                }
            }
        }
        t *= config.cooling;
        // Per-temperature acceptance ratio, for cooling-schedule tuning.
        if config.moves_per_stage > 0 {
            ams_trace::record(
                "sizing.anneal_stage_accept_ratio",
                (accepted - stage_accepted_before) as f64 / config.moves_per_stage as f64,
            );
        }
        record_generation("anneal", stage, evaluations as u64, best_c);
    }

    ams_trace::counter_add("sizing.anneal_runs", 1);
    ams_trace::counter_add("sizing.anneal_moves", moves_attempted);
    ams_trace::counter_add("sizing.anneal_accepted", accepted as u64);
    ams_trace::counter_add("sizing.anneal_evals", evaluations as u64);
    AnnealResult {
        x: best_x,
        cost: best_c,
        evaluations,
        accepted,
    }
}

/// Opens an optimizer's best-cost curve with an `OptimizerStart` event
/// carrying its seed; [`record_generation`] adds the points.
pub(crate) fn record_start(algorithm: &str, seed: u64) {
    if ams_trace::enabled() {
        ams_trace::emit(ams_trace::TelemetryEvent::OptimizerStart {
            algorithm: algorithm.to_string(),
            seed,
        });
    }
}

/// Records one optimizer boundary (an anneal stage, a GA generation) as
/// an `OptimizerGeneration` event: one point on the best-cost curve.
pub(crate) fn record_generation(algorithm: &str, generation: usize, evals: u64, best_cost: f64) {
    if ams_trace::enabled() {
        ams_trace::emit(ams_trace::TelemetryEvent::OptimizerGeneration {
            algorithm: algorithm.to_string(),
            generation: generation as u64,
            evals,
            best_cost,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let params = vec![
            ParamDef::linear("x", -10.0, 10.0),
            ParamDef::linear("y", -10.0, 10.0),
        ];
        let r = anneal(&params, &AnnealConfig::default(), None, |v| {
            (v[0] - 3.0).powi(2) + (v[1] + 2.0).powi(2)
        });
        assert!(r.cost < 1e-2, "cost = {}", r.cost);
        assert!((r.x[0] - 3.0).abs() < 0.2);
        assert!((r.x[1] + 2.0).abs() < 0.2);
    }

    #[test]
    fn escapes_local_minima_of_rastrigin() {
        // 2-D Rastrigin: many local minima, global at origin.
        let params = vec![
            ParamDef::linear("x", -5.12, 5.12),
            ParamDef::linear("y", -5.12, 5.12),
        ];
        let r = anneal(
            &params,
            &AnnealConfig {
                moves_per_stage: 400,
                stages: 80,
                ..Default::default()
            },
            None,
            |v| {
                20.0 + v
                    .iter()
                    .map(|&x| x * x - 10.0 * (2.0 * std::f64::consts::PI * x).cos())
                    .sum::<f64>()
            },
        );
        // Accept any of the deepest few basins (global is 0).
        assert!(r.cost < 2.0, "cost = {}", r.cost);
    }

    #[test]
    fn log_parameters_stay_in_bounds() {
        let params = vec![ParamDef::log("w", 1e-6, 1e-3)];
        let r = anneal(&params, &AnnealConfig::quick(), None, |v| {
            (v[0].ln() + 10.0).abs()
        });
        assert!(r.x[0] >= 1e-6 && r.x[0] <= 1e-3);
        // Optimum at w = e^-10 ≈ 4.5e-5.
        assert!((r.x[0].ln() + 10.0).abs() < 0.5, "w = {}", r.x[0]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let params = vec![ParamDef::linear("x", 0.0, 1.0)];
        let cfg = AnnealConfig::quick();
        let a = anneal(&params, &cfg, None, |v| (v[0] - 0.5).abs());
        let b = anneal(&params, &cfg, None, |v| (v[0] - 0.5).abs());
        assert_eq!(a.x, b.x);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn infinite_cost_points_are_avoided() {
        let params = vec![ParamDef::linear("x", -1.0, 1.0)];
        let r = anneal(&params, &AnnealConfig::quick(), None, |v| {
            if v[0] < 0.0 {
                f64::INFINITY
            } else {
                v[0]
            }
        });
        assert!(r.x[0] >= 0.0);
        assert!(r.cost < 0.1);
    }

    #[test]
    fn panicking_cost_is_scored_infeasible() {
        // A candidate that panics must be isolated and treated exactly like
        // an infinite-cost point, not abort the whole run.
        let params = vec![ParamDef::linear("x", -1.0, 1.0)];
        let r = anneal(&params, &AnnealConfig::quick(), None, |v| {
            if v[0] < 0.0 {
                panic!("poisoned candidate");
            }
            v[0]
        });
        assert!(r.x[0] >= 0.0);
        assert!(r.cost.is_finite());
    }

    #[test]
    fn evaluation_count_matches_budget() {
        let params = vec![ParamDef::linear("x", 0.0, 1.0)];
        let cfg = AnnealConfig {
            moves_per_stage: 10,
            stages: 5,
            ..Default::default()
        };
        let r = anneal(&params, &cfg, None, |v| v[0]);
        assert_eq!(r.evaluations, 21 + 50);
    }

    #[test]
    #[should_panic(expected = "bad bounds")]
    fn bad_bounds_panic() {
        ParamDef::linear("x", 1.0, 0.0);
    }

    fn bowl(v: &[f64]) -> f64 {
        (v[0] - 3.0).powi(2) + (v[1] + 2.0).powi(2)
    }

    fn bowl_params() -> Vec<ParamDef> {
        vec![
            ParamDef::linear("x", -10.0, 10.0),
            ParamDef::linear("y", -10.0, 10.0),
        ]
    }

    #[test]
    fn memo_never_moves_the_trajectory() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cfg = AnnealConfig::quick();
        let tag = ams_exec::cache_tag("bowl");
        let calls = AtomicUsize::new(0);
        let counted = |v: &[f64]| {
            calls.fetch_add(1, Ordering::Relaxed);
            bowl(v)
        };
        let plain = anneal(&bowl_params(), &cfg, None, counted);
        let disabled = EvalCache::disabled();
        let off = anneal(&bowl_params(), &cfg, Some((tag, &disabled)), counted);
        let cache = EvalCache::new();
        let cold = anneal(&bowl_params(), &cfg, Some((tag, &cache)), counted);
        let before_warm = calls.load(Ordering::Relaxed);
        let warm = anneal(&bowl_params(), &cfg, Some((tag, &cache)), counted);
        // The warm run revisits exactly the cold run's candidates, so the
        // memo answers every one of them.
        assert_eq!(calls.load(Ordering::Relaxed), before_warm);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, r) in [("disabled", &off), ("cold", &cold), ("warm", &warm)] {
            assert_eq!(bits(&plain.x), bits(&r.x), "{name}");
            assert_eq!(plain.cost.to_bits(), r.cost.to_bits(), "{name}");
            assert_eq!(plain.evaluations, r.evaluations, "{name}");
            assert_eq!(plain.accepted, r.accepted, "{name}");
        }
    }
}
