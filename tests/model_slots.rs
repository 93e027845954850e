//! The ams-core performance models on the slot-vector cost path: each
//! model's slot values equal its `evaluate` map bit for bit, the slot cost
//! equals the name-keyed `CostCompiler::cost`, and `optimize` results of
//! the two equation models keep the digests recorded before the slot path
//! replaced the name-keyed one. The ams-sizing models have the same
//! checks in `crates/sizing/tests/slot_cost.rs`.

use ams::core::{
    rf_spec, table1_spec, PulseDetectorModel, RfFrontEndModel, SimulatedPulseDetectorModel,
};
use ams::netlist::Technology;
use ams::sizing::{optimize, AnnealConfig, CostCompiler, Perf, PerfModel, SizingResult};
use ams::topology::{Bound, Spec};
use ams_prng::{SeedableRng, SmallRng};

fn points(model: &dyn PerfModel, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let params = model.params();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| params.iter().map(|p| p.sample(&mut rng)).collect())
        .collect()
}

/// The models with the spec each is sized against.
fn models() -> Vec<(Box<dyn PerfModel>, Spec)> {
    let tech = Technology::generic_1p2um();
    vec![
        (
            Box::new(PulseDetectorModel::new(tech.clone())),
            table1_spec(),
        ),
        (
            Box::new(SimulatedPulseDetectorModel::new(tech)),
            table1_spec(),
        ),
        (Box::new(RfFrontEndModel::gsm_scenario()), rf_spec(9.0)),
    ]
}

#[test]
fn slot_values_equal_the_map_bitwise() {
    for (model, _) in models() {
        let names = model.metrics();
        assert!(!names.is_empty(), "{} has no metric list", model.name());
        for x in points(model.as_ref(), 256, 0x5107) {
            let map = model.evaluate(&x);
            let mut values = vec![f64::NAN; names.len()];
            model.evaluate_into(&x, &mut values);
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

/// The model's own spec, then the same bounds with a metric the model
/// lacks, without the objective, and with a missing objective.
fn variants(spec: &Spec) -> Vec<Spec> {
    let mut no_objective = spec.clone();
    no_objective.minimize = None;
    let mut missing_objective = spec.clone();
    missing_objective.minimize = Some("missing_metric".into());
    vec![
        spec.clone(),
        spec.clone().require("missing_metric", Bound::AtMost(1.0)),
        no_objective,
        missing_objective,
    ]
}

#[test]
fn slot_cost_equals_named_cost() {
    for (model, spec) in models() {
        let xs = points(model.as_ref(), 64, 0xc0de);
        for spec in variants(&spec) {
            let compiler = CostCompiler::new(spec.clone());
            let resolved = compiler.resolve(model.as_ref());
            for x in &xs {
                let by_name = compiler.cost(&model.evaluate(x));
                assert_eq!(
                    resolved.cost(x).to_bits(),
                    by_name.to_bits(),
                    "{} at {x:?} under {spec:?}",
                    model.name()
                );
            }
        }
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

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
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

/// Digests of `optimize` at seeds 1 and 7.
fn optimize_digests<M: PerfModel>(model: &M, spec: &Spec) -> [u64; 2] {
    [1, 7].map(|seed| {
        let config = AnnealConfig {
            seed,
            ..AnnealConfig::default()
        };
        sizing_digest(&optimize(model, spec, &config))
    })
}

#[test]
fn optimize_results_keep_their_digests() {
    let tech = Technology::generic_1p2um();
    let got = [
        optimize_digests(&PulseDetectorModel::new(tech), &table1_spec()),
        optimize_digests(&RfFrontEndModel::gsm_scenario(), &rf_spec(9.0)),
    ];
    let want = [
        [0x8e3f_c5a5_f0cb_b20e, 0x0a26_3bac_c6dd_eaed],
        [0xd843_a24f_6c7f_a13c, 0xd236_5c84_77d7_ac4e],
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
