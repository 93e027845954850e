//! Pins the slot-vector cost path to the name-keyed one, bit for bit.
//!
//! Every model writes its metrics into a slot vector
//! (`PerfModel::evaluate_into`) that the optimizer loops cost through a
//! `SlotCost`; results and reports still read `PerfModel::evaluate`'s
//! map. These tests hold the two paths to the same bits: slot values
//! against the map, the slot cost against `CostCompiler::cost` (missing
//! metrics, no objective, NaN, ±inf and non-positive objectives
//! included), a model with no metric list against the bare model in every
//! loop, and `optimize` results against digests recorded before the slot
//! path existed.

use ams_exec::EvalCachePolicy;
use ams_netlist::Technology;
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_sizing::{
    evolve, optimize, redesign, AnnealConfig, CostCompiler, DesignDatabase, GaConfig, GaResult,
    ParamDef, Perf, PerfModel, SizingResult, SymmetricalOtaModel, TwoStageModel,
};
use ams_topology::{Bound, Spec};
use std::sync::atomic::{AtomicUsize, Ordering};

fn two_stage() -> TwoStageModel {
    TwoStageModel::new(Technology::generic_1p2um(), 5e-12)
}

fn ota() -> SymmetricalOtaModel {
    SymmetricalOtaModel::new(Technology::generic_1p2um(), 5e-12)
}

/// `n` points drawn uniformly within the model's parameter box.
fn seeded_points(params: &[ParamDef], n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| params.iter().map(|p| p.sample(&mut rng)).collect())
        .collect()
}

fn slots(model: &dyn PerfModel, x: &[f64]) -> Vec<f64> {
    let mut out = vec![f64::NAN; model.metrics().len()];
    model.evaluate_into(x, &mut out);
    out
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over a name-keyed map in name order.
fn fnv_map(h: &mut u64, map: &Perf) {
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    for k in keys {
        fnv(h, k.as_bytes());
        fnv(h, &map[k].to_bits().to_le_bytes());
    }
}

/// Digest of every reported field of a sizing result.
fn sizing_digest(r: &SizingResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv_map(&mut h, &r.params);
    fnv_map(&mut h, &r.perf);
    fnv(&mut h, &r.cost.to_bits().to_le_bytes());
    fnv(&mut h, &[u8::from(r.feasible)]);
    fnv(&mut h, &(r.evaluations as u64).to_le_bytes());
    h
}

fn opamp_spec(ugf_hz: f64) -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(ugf_hz))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(5e6))
        .minimizing("power_w")
}

#[test]
fn slot_values_equal_the_map_bitwise() {
    let models: [&dyn PerfModel; 2] = [&two_stage(), &ota()];
    for model in models {
        let names = model.metrics();
        assert!(!names.is_empty(), "{} has no metric list", model.name());
        for x in seeded_points(&model.params(), 256, 0x5107) {
            let map = model.evaluate(&x);
            let values = slots(model, &x);
            assert_eq!(map.len(), names.len(), "{}: key set", model.name());
            for (name, v) in names.iter().zip(&values) {
                let m = map
                    .get(*name)
                    .unwrap_or_else(|| panic!("{name} not in map"));
                assert_eq!(m.to_bits(), v.to_bits(), "{} {name} at {x:?}", model.name());
            }
        }
    }
}

/// A seeded spec over `names` plus a metric no model has: a random subset
/// of bounds of every kind around `reference`'s values, and an objective
/// that is absent, a model metric or the missing one.
fn seeded_spec(names: &[&str], reference: &[f64], rng: &mut SmallRng) -> Spec {
    let mut spec = Spec::new();
    for (name, &v) in names.iter().zip(reference) {
        let t = if v.is_finite() && v != 0.0 {
            v * rng.gen_range(0.5..1.5)
        } else {
            rng.gen_range(-1.0..1.0)
        };
        spec = match rng.gen_range(0..4) {
            0 => spec.require(name, Bound::AtLeast(t)),
            1 => spec.require(name, Bound::AtMost(t)),
            2 => spec.require(name, Bound::Range(t.min(v), t.max(v) + 1.0)),
            _ => spec,
        };
    }
    if rng.gen_bool(0.5) {
        spec = spec.require("missing_metric", Bound::AtLeast(1.0));
    }
    match rng.gen_range(0..3) {
        0 => spec,
        1 => spec.minimizing(names[rng.gen_range(0..names.len())]),
        _ => spec.minimizing("missing_metric"),
    }
}

fn assert_slot_cost_matches(model: &dyn PerfModel, spec: &Spec, points: &[Vec<f64>]) {
    let compiler = CostCompiler::new(spec.clone());
    let resolved = compiler.resolve(model);
    for x in points {
        let by_name = compiler.cost(&model.evaluate(x));
        let by_slot = resolved.cost(x);
        assert_eq!(
            by_slot.to_bits(),
            by_name.to_bits(),
            "{}: {by_slot} vs {by_name} at {x:?} under {spec:?}",
            model.name()
        );
    }
}

#[test]
fn slot_cost_equals_named_cost_on_seeded_specs() {
    let models: [&dyn PerfModel; 2] = [&two_stage(), &ota()];
    let mut rng = SmallRng::seed_from_u64(0xc057);
    for model in models {
        let points = seeded_points(&model.params(), 256, 0xc0de);
        for _ in 0..16 {
            let spec = seeded_spec(model.metrics(), &slots(model, &points[0]), &mut rng);
            assert_slot_cost_matches(model, &spec, &points);
        }
    }
}

static NAMES: [&str; 20] = [
    "m00", "m01", "m02", "m03", "m04", "m05", "m06", "m07", "m08", "m09", "m10", "m11", "m12",
    "m13", "m14", "m15", "m16", "m17", "m18", "m19",
];

/// A model whose metrics are its parameters: slot `i` is `x[i]`. Wider
/// than the inline slot buffer when `width > 16`, so costed by name.
struct Echo {
    width: usize,
}

impl PerfModel for Echo {
    fn name(&self) -> &str {
        "echo"
    }

    fn params(&self) -> Vec<ParamDef> {
        NAMES[..self.width]
            .iter()
            .map(|n| ParamDef::linear(n, -1.0, 1.0))
            .collect()
    }

    fn metrics(&self) -> &'static [&'static str] {
        &NAMES[..self.width]
    }

    fn evaluate_into(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
    }
}

#[test]
fn slot_cost_charges_non_finite_and_non_positive_values_like_the_map() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -2.5,
        1e-300,
        3.0,
    ];
    for width in [3, NAMES.len()] {
        let model = Echo { width };
        let mut rng = SmallRng::seed_from_u64(0xec40 + width as u64);
        let points: Vec<Vec<f64>> = (0..256)
            .map(|_| {
                (0..width)
                    .map(|_| specials[rng.gen_range(0..specials.len())])
                    .collect()
            })
            .collect();
        let names = &NAMES[..width];
        let fixed = [
            Spec::new().require("m00", Bound::AtLeast(1.0)),
            Spec::new()
                .require("m01", Bound::Range(-1.0, 1.0))
                .minimizing("m02"),
            Spec::new()
                .require("m00", Bound::AtMost(-1.0))
                .require("missing_metric", Bound::AtLeast(1.0))
                .minimizing("missing_metric"),
            Spec::new().minimizing(names[width - 1]),
        ];
        for spec in &fixed {
            assert_slot_cost_matches(&model, spec, &points);
        }
        for _ in 0..16 {
            let spec = seeded_spec(names, &points[0], &mut rng);
            assert_slot_cost_matches(&model, &spec, &points);
        }
    }
}

/// Shaped like an external timing wrapper: only the four required
/// methods, so it has no metric list and is costed by name.
struct Named<'m> {
    inner: &'m dyn PerfModel,
    calls: AtomicUsize,
}

impl<'m> Named<'m> {
    fn new(inner: &'m dyn PerfModel) -> Self {
        Named {
            inner,
            calls: AtomicUsize::new(0),
        }
    }
}

impl PerfModel for Named<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn params(&self) -> Vec<ParamDef> {
        self.inner.params()
    }

    fn evaluate(&self, x: &[f64]) -> Perf {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(x)
    }

    fn cache_identity(&self) -> String {
        self.inner.cache_identity()
    }
}

fn same_sizing(a: &SizingResult, b: &SizingResult) -> bool {
    sizing_digest(a) == sizing_digest(b)
}

fn same_ga(a: &GaResult, b: &GaResult) -> bool {
    a.topology == b.topology
        && a.consensus.to_bits() == b.consensus.to_bits()
        && same_sizing(&a.sizing, &b.sizing)
}

#[test]
fn a_model_without_a_metric_list_gives_the_same_results() {
    let (two, ota) = (two_stage(), ota());
    let spec = opamp_spec(5e6);
    let config = AnnealConfig::quick();

    let named = Named::new(&two);
    assert!(named.metrics().is_empty());
    let bare = optimize(&two, &spec, &config);
    assert!(same_sizing(&bare, &optimize(&named, &spec, &config)));
    assert!(named.calls.load(Ordering::Relaxed) > 0);

    // No eval cache, so every GA candidate is costed, by name for the
    // wrapper, whatever `AMS_EVAL_CACHE` says.
    let ga = GaConfig {
        population: 16,
        generations: 8,
        seed: 5,
        eval_cache: EvalCachePolicy::Off,
        ..GaConfig::default()
    };
    let (named_two, named_ota) = (Named::new(&two), Named::new(&ota));
    let bare = evolve(&[&two, &ota], &spec, &ga);
    let by_name = evolve(&[&named_two, &named_ota], &spec, &ga);
    assert!(same_ga(&bare, &by_name));
    assert!(named_ota.calls.load(Ordering::Relaxed) > 0);

    let mut db = DesignDatabase::new();
    db.store(&opamp_spec(2e6), &optimize(&two, &opamp_spec(2e6), &config));
    let named = Named::new(&two);
    let (bare, hit) = redesign(&two, &opamp_spec(2.2e6), &db, &config);
    let (by_name, named_hit) = redesign(&named, &opamp_spec(2.2e6), &db, &config);
    assert!(hit && named_hit);
    assert!(same_sizing(&bare, &by_name));
    assert_eq!(named.calls.load(Ordering::Relaxed), by_name.evaluations + 1);
}

/// Digests of `optimize` against the opamp spec at seeds 1 and 7.
fn optimize_digests<M: PerfModel>(model: &M) -> [u64; 2] {
    [1, 7].map(|seed| {
        let config = AnnealConfig {
            seed,
            ..AnnealConfig::default()
        };
        sizing_digest(&optimize(model, &opamp_spec(5e6), &config))
    })
}

/// `optimize` digests at fixed seeds, recorded before the slot path
/// replaced the name-keyed one.
#[test]
fn optimize_results_keep_their_digests() {
    let got = [optimize_digests(&two_stage()), optimize_digests(&ota())];
    let want = [
        [0xf819_87ef_c977_764f, 0x90d3_b1b4_00a7_59b9],
        [0xe0eb_dcbf_d02b_816d, 0x1583_74f1_b26e_3628],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
