//! Equation-based performance models and OPTIMAN-style optimization.
//!
//! In the equation-based subcategory of §2.2 (OPASYN, OPTIMAN, CADICS),
//! "(simplified) analytic design equations are used to describe the circuit
//! performance" and the degrees of freedom are "resolved implicitly by
//! optimization". A [`PerfModel`] is such an equation set; [`optimize`]
//! couples it to the shared annealing engine.

use crate::anneal::{anneal, AnnealConfig, ParamDef};
use crate::cost::{eval_tag, CostCompiler, Perf};
use ams_exec::{EvalCacheHandle, EvalCachePolicy};
use ams_netlist::Technology;
use ams_topology::Spec;
// det-lint: allow(hash-collection): Perf/param maps read by key; ordered walks go through Spec bounds
use std::collections::HashMap;

/// An analytic performance model: design equations evaluated in closed form.
///
/// `Sync` is a supertrait: models are shared by reference across the
/// `ams-exec` workers that evaluate candidate batches in parallel.
pub trait PerfModel: Sync {
    /// Human-readable model name.
    fn name(&self) -> &str;
    /// The design parameters (independent variables).
    fn params(&self) -> Vec<ParamDef>;
    /// Evaluates all performance metrics at a parameter point.
    fn evaluate(&self, x: &[f64]) -> Perf;
    /// Full evaluator identity for cache keys.
    ///
    /// This string, folded with the spec through
    /// [`crate::cost::eval_tag`], namespaces every cached cost — including
    /// entries persisted on disk across processes. It must therefore cover
    /// **every** configuration input that shapes [`evaluate`](Self::evaluate):
    /// the default (the bare [`name`](Self::name)) is only sound for
    /// models with no knobs, and any model carrying a technology, load
    /// capacitance, or similar state must override it, or two differently
    /// configured instances will poison each other's cache entries.
    fn cache_identity(&self) -> String {
        self.name().to_string()
    }
}

/// Result of an equation-based sizing run.
#[derive(Debug, Clone)]
pub struct SizingResult {
    /// Best parameter values keyed by parameter name.
    pub params: HashMap<String, f64>,
    /// Performance at the best point.
    pub perf: Perf,
    /// Whether every spec bound is met.
    pub feasible: bool,
    /// Final scalar cost.
    pub cost: f64,
    /// Cost-function evaluations spent.
    pub evaluations: usize,
}

/// Sizes a model against a spec by simulated annealing over its equations.
///
/// Evaluations are memoized through the process eval cache under the
/// canonical `(cache_identity, spec)` tag, with persistence governed by
/// the `AMS_EVAL_CACHE` environment variable (`off`, `memory` — the
/// default — or `disk`). In disk mode the accumulated entries are
/// committed when the run completes, so a repeated run warm-starts.
pub fn optimize<M: PerfModel>(model: &M, spec: &Spec, config: &AnnealConfig) -> SizingResult {
    size_by_annealing(model.params(), config, &model.cache_identity(), spec, |x| {
        Some(model.evaluate(x))
    })
}

/// The annealing loop behind [`optimize`] and [`crate::synthesize`]:
/// anneals `params` against `spec` through the eval cache that
/// `AMS_EVAL_CACHE` selects, keyed by `(identity, spec)`, and commits the
/// cache when the run completes. `perf_at` returns `None` for a point it
/// cannot measure, which scores infinite cost.
pub(crate) fn size_by_annealing<P>(
    params: Vec<ParamDef>,
    config: &AnnealConfig,
    identity: &str,
    spec: &Spec,
    perf_at: P,
) -> SizingResult
where
    P: Fn(&[f64]) -> Option<Perf> + Sync,
{
    let compiler = CostCompiler::new(spec.clone());
    let spec_repr = format!("{spec:?}");
    let handle = EvalCacheHandle::open(
        &EvalCachePolicy::FromEnv,
        ams_exec::workload_fingerprint(&[identity, spec_repr.as_str()]),
    );
    let result = anneal(
        &params,
        config,
        Some((eval_tag(identity, spec), handle.cache())),
        |x| perf_at(x).map_or(f64::INFINITY, |perf| compiler.cost(&perf)),
    );
    handle.commit();
    let perf = perf_at(&result.x).unwrap_or_default();
    SizingResult {
        params: params
            .iter()
            .zip(&result.x)
            .map(|(p, &v)| (p.name.clone(), v))
            .collect(),
        feasible: compiler.feasible(&perf),
        perf,
        cost: result.cost,
        evaluations: result.evaluations,
    }
}

/// Analytic model of the classical two-stage Miller-compensated CMOS opamp
/// (NMOS input pair, PMOS mirror load, PMOS second stage).
///
/// Parameters (7 degrees of freedom):
/// `itail`, `i2` (stage currents), `vov1`, `vov3`, `vov6` (overdrives),
/// `cc` (Miller cap), `l` (shared channel length).
///
/// Metrics produced: `gain_db`, `ugf_hz`, `phase_margin_deg`,
/// `slew_v_per_s`, `power_w`, `area_m2`, `swing_v`, `noise_v_rms`
/// (input-referred thermal, integrated to the UGF).
#[derive(Debug, Clone)]
pub struct TwoStageModel {
    /// Process technology (supplies the MOS model cards and the supply).
    pub tech: Technology,
    /// Load capacitance in farads.
    pub cl: f64,
}

impl TwoStageModel {
    /// Creates the model for a technology and load.
    pub fn new(tech: Technology, cl: f64) -> Self {
        TwoStageModel { tech, cl }
    }
}

impl PerfModel for TwoStageModel {
    fn name(&self) -> &str {
        "two_stage_miller"
    }

    fn cache_identity(&self) -> String {
        format!("{}|tech={:?}|cl={}", self.name(), self.tech, self.cl)
    }

    fn params(&self) -> Vec<ParamDef> {
        let lmin = self.tech.lmin;
        vec![
            ParamDef::log("itail", 1e-6, 2e-3),
            ParamDef::log("i2", 2e-6, 5e-3),
            ParamDef::linear("vov1", 0.08, 0.5),
            ParamDef::linear("vov3", 0.1, 0.8),
            ParamDef::linear("vov6", 0.1, 0.8),
            ParamDef::log("cc", 0.2e-12, 20e-12),
            ParamDef::linear("l", lmin, 8.0 * lmin),
        ]
    }

    fn evaluate(&self, x: &[f64]) -> Perf {
        let (itail, i2, vov1, vov3, vov6, cc, l) = (x[0], x[1], x[2], x[3], x[4], x[5], x[6]);
        let n = &self.tech.nmos;
        let p = &self.tech.pmos;
        let vdd = self.tech.vdd;

        // First stage: NMOS diff pair (Id = itail/2), PMOS mirror load.
        let id1 = itail / 2.0;
        let gm1 = 2.0 * id1 / vov1;
        let gds1 = n.lambda * id1;
        let gds3 = p.lambda * id1;
        let av1 = gm1 / (gds1 + gds3);

        // Second stage: PMOS common source with NMOS current-sink load.
        let gm6 = 2.0 * i2 / vov6;
        let gds6 = p.lambda * i2;
        let gds7 = n.lambda * i2;
        let av2 = gm6 / (gds6 + gds7);

        let gain = av1 * av2;
        let gain_db = 20.0 * gain.max(1e-12).log10();

        // Miller compensation: UGF = gm1/(2π·Cc); non-dominant pole at
        // ≈ gm6/(2π·CL); RHP zero ignored (nulling resistor assumed).
        let ugf = gm1 / (2.0 * std::f64::consts::PI * cc);
        let p2 = gm6 / (2.0 * std::f64::consts::PI * self.cl);
        let phase_margin = 90.0 - (ugf / p2).atan().to_degrees();

        let slew = itail / cc;
        let ibias = 10e-6; // fixed bias branch
        let power = (itail + i2 + ibias) * vdd;

        // Device widths back-computed for area and swing.
        let w1 = n.width_for(id1, l, vov1);
        let w3 = p.width_for(id1, l, vov3);
        let w6 = p.width_for(i2, l, vov6);
        let w7 = n.width_for(i2, l, vov6);
        let w5 = n.width_for(itail, l, vov3);
        // Active area with wiring overhead factor 3, plus the Miller cap at
        // 1 fF/µm² ≈ 1e-3 F/m².
        let gate_area = 2.0 * w1 * l + 2.0 * w3 * l + w5 * l + w6 * l + w7 * l;
        let area = 3.0 * gate_area + cc / 1e-3;

        // Output swing: rail-to-rail minus the two stage-2 overdrives.
        let swing = (vdd - vov6 - vov3).max(0.0);

        // Input-referred thermal noise density of the first stage,
        // integrated over the closed-loop bandwidth (≈ π/2 · UGF).
        let four_kt = 4.0 * ams_netlist::units::BOLTZMANN * self.tech.temp_k;
        let gm3 = 2.0 * id1 / vov3;
        let sn_in = 2.0 * four_kt * (2.0 / 3.0) / gm1 * (1.0 + gm3 / gm1);
        let noise_rms = (sn_in * std::f64::consts::FRAC_PI_2 * ugf).sqrt();

        let mut perf: Perf = HashMap::new();
        perf.insert("gain_db".into(), gain_db);
        perf.insert("ugf_hz".into(), ugf);
        perf.insert("phase_margin_deg".into(), phase_margin);
        perf.insert("slew_v_per_s".into(), slew);
        perf.insert("power_w".into(), power);
        perf.insert("area_m2".into(), area);
        perf.insert("swing_v".into(), swing);
        perf.insert("noise_v_rms".into(), noise_rms);
        // Expose derived sizes for plan comparison and netlisting.
        perf.insert("w1_m".into(), w1);
        perf.insert("w3_m".into(), w3);
        perf.insert("w5_m".into(), w5);
        perf.insert("w6_m".into(), w6);
        perf.insert("w7_m".into(), w7);
        perf
    }
}

/// Analytic model of a single-stage symmetrical OTA (current-mirror OTA):
/// lower gain than the two-stage but inherently stable into capacitive
/// loads, cheaper in power — the complementary candidate for integrated
/// topology selection (experiment E12).
///
/// Parameters: `itail`, `vov1`, `vov3`, `mirror_b` (output mirror ratio),
/// `l`. Metrics mirror [`TwoStageModel`].
#[derive(Debug, Clone)]
pub struct SymmetricalOtaModel {
    /// Process technology.
    pub tech: Technology,
    /// Load capacitance in farads.
    pub cl: f64,
}

impl SymmetricalOtaModel {
    /// Creates the model for a technology and load.
    pub fn new(tech: Technology, cl: f64) -> Self {
        SymmetricalOtaModel { tech, cl }
    }
}

impl PerfModel for SymmetricalOtaModel {
    fn name(&self) -> &str {
        "symmetrical_ota"
    }

    fn cache_identity(&self) -> String {
        format!("{}|tech={:?}|cl={}", self.name(), self.tech, self.cl)
    }

    fn params(&self) -> Vec<ParamDef> {
        vec![
            ParamDef::log("itail", 1e-6, 2e-3),
            ParamDef::linear("vov1", 0.08, 0.5),
            ParamDef::linear("vov3", 0.1, 0.8),
            ParamDef::linear("mirror_b", 1.0, 8.0),
            ParamDef::linear("l", self.tech.lmin, 8.0 * self.tech.lmin),
        ]
    }

    fn evaluate(&self, x: &[f64]) -> Perf {
        let (itail, vov1, vov3, b, l) = (x[0], x[1], x[2], x[3], x[4]);
        let n = &self.tech.nmos;
        let p = &self.tech.pmos;
        let vdd = self.tech.vdd;
        let id1 = itail / 2.0;
        let gm1 = 2.0 * id1 / vov1;
        // Output branch carries b·id1; gain = b·gm1/(gds_out).
        let iout = b * id1;
        let gds_out = (n.lambda + p.lambda) * iout;
        let gain = b * gm1 / gds_out;
        let ugf = b * gm1 / (2.0 * std::f64::consts::PI * self.cl);
        // Single-stage: non-dominant pole at the mirror node, far out.
        let phase_margin = 90.0 - (ugf / (10.0 * ugf + 1.0)).atan().to_degrees();
        let slew = iout / self.cl;
        let power = (itail * (1.0 + b) + 10e-6) * vdd;
        let w1 = n.width_for(id1, l, vov1);
        let w3 = p.width_for(id1, l, vov3);
        let gate_area = 2.0 * w1 * l + (2.0 + 2.0 * b) * w3 * l;
        let area = 3.0 * gate_area;
        let swing = (vdd - 2.0 * vov3).max(0.0);
        let four_kt = 4.0 * ams_netlist::units::BOLTZMANN * self.tech.temp_k;
        let sn_in = 2.0 * four_kt * (2.0 / 3.0) / gm1 * 2.0;
        let noise_rms = (sn_in * std::f64::consts::FRAC_PI_2 * ugf).sqrt();

        let mut perf: Perf = HashMap::new();
        perf.insert("gain_db".into(), 20.0 * gain.max(1e-12).log10());
        perf.insert("ugf_hz".into(), ugf);
        perf.insert("phase_margin_deg".into(), phase_margin);
        perf.insert("slew_v_per_s".into(), slew);
        perf.insert("power_w".into(), power);
        perf.insert("area_m2".into(), area);
        perf.insert("swing_v".into(), swing);
        perf.insert("noise_v_rms".into(), noise_rms);
        perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_topology::Bound;

    fn model() -> TwoStageModel {
        TwoStageModel::new(Technology::generic_1p2um(), 5e-12)
    }

    #[test]
    fn equations_follow_first_order_trends() {
        let m = model();
        let base = [100e-6, 200e-6, 0.2, 0.3, 0.3, 2e-12, 2e-6];
        let perf = m.evaluate(&base);
        // Doubling tail current doubles slew and raises UGF.
        let mut fast = base;
        fast[0] *= 2.0;
        let perf2 = m.evaluate(&fast);
        assert!(perf2["slew_v_per_s"] > 1.9 * perf["slew_v_per_s"]);
        assert!(perf2["ugf_hz"] > perf["ugf_hz"]);
        assert!(perf2["power_w"] > perf["power_w"]);
        // Longer channel increases gain (lower λ effect is folded into the
        // area/width computation; gain itself is length-independent in this
        // first-order model) — check area instead.
        let mut long = base;
        long[6] *= 2.0;
        assert!(m.evaluate(&long)["area_m2"] > perf["area_m2"]);
    }

    #[test]
    fn gain_is_in_plausible_two_stage_range() {
        let m = model();
        let perf = m.evaluate(&[100e-6, 200e-6, 0.2, 0.3, 0.3, 2e-12, 2e-6]);
        let g = perf["gain_db"];
        assert!(g > 55.0 && g < 100.0, "gain = {g} dB");
    }

    #[test]
    fn optimizer_meets_moderate_spec() {
        let m = model();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(65.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .require("slew_v_per_s", Bound::AtLeast(5e6))
            .minimizing("power_w");
        let r = optimize(&m, &spec, &AnnealConfig::default());
        assert!(r.feasible, "infeasible: {:?}", r.perf);
        // Power should come out well under the parameter-space maximum.
        assert!(r.perf["power_w"] < 5e-3, "power = {}", r.perf["power_w"]);
    }

    #[test]
    fn optimizer_reports_infeasible_for_impossible_spec() {
        let m = model();
        // 1 GHz UGF with 1 µW power is impossible in this space.
        let spec = Spec::new()
            .require("ugf_hz", Bound::AtLeast(1e9))
            .require("power_w", Bound::AtMost(1e-6));
        let r = optimize(&m, &spec, &AnnealConfig::quick());
        assert!(!r.feasible);
    }

    #[test]
    fn tighter_spec_costs_more_power() {
        let m = model();
        let loose = Spec::new()
            .require("ugf_hz", Bound::AtLeast(1e6))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .minimizing("power_w");
        let tight = Spec::new()
            .require("ugf_hz", Bound::AtLeast(5e7))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .minimizing("power_w");
        let cfg = AnnealConfig::default();
        let a = optimize(&m, &loose, &cfg);
        let b = optimize(&m, &tight, &cfg);
        assert!(a.feasible && b.feasible);
        assert!(
            b.perf["power_w"] > a.perf["power_w"],
            "tight {} vs loose {}",
            b.perf["power_w"],
            a.perf["power_w"]
        );
    }

    #[test]
    fn ota_model_trades_gain_for_simplicity() {
        let two = model();
        let ota = SymmetricalOtaModel::new(Technology::generic_1p2um(), 5e-12);
        let two_perf = two.evaluate(&[100e-6, 200e-6, 0.2, 0.3, 0.3, 2e-12, 2e-6]);
        let ota_perf = ota.evaluate(&[100e-6, 0.2, 0.3, 2.0, 2e-6]);
        // Single stage has less gain than two cascaded stages.
        assert!(ota_perf["gain_db"] < two_perf["gain_db"]);
        assert!(ota_perf["phase_margin_deg"] > 80.0);
    }

    #[test]
    fn result_exposes_named_parameters() {
        let m = model();
        let spec = Spec::new().require("gain_db", Bound::AtLeast(60.0));
        let r = optimize(&m, &spec, &AnnealConfig::quick());
        for key in ["itail", "i2", "vov1", "cc", "l"] {
            assert!(r.params.contains_key(key), "missing {key}");
        }
    }
}
