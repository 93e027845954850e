//! The `ams-exec` determinism contract, end to end: the same seeded
//! sizing problem run at 1, 2, and 8 workers must produce byte-identical
//! results — champion, cost, evaluation counts, and trace counters —
//! with two deliberate exceptions:
//!
//! * `exec.steals` is scheduling-dependent (how often a thief finds work
//!   depends on OS timing) and is filtered before comparison;
//! * wall-clock/timing values are not counters here and never compared.
//!
//! The contract holds because randomness is consumed serially (breeding
//! and move generation happen before each batch), evaluation is the only
//! parallel part, and reductions run in index order.
//!
//! `ams_exec::set_threads` is process-global, so every test in this file
//! serializes on one mutex.

use ams::prelude::*;
use ams_core::table1_spec;
use ams_sizing::{evolve, optimize, SizingResult, TwoStageCircuit};
use std::collections::BTreeMap;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Sorted `(name, bits)` view of a `String → f64` map: HashMap iteration
/// order is randomized per process, so byte-identity must be asserted on
/// a canonical ordering, and on bit patterns rather than float compares.
fn canonical_bits(map: &std::collections::HashMap<String, f64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = map.iter().map(|(k, x)| (k.clone(), x.to_bits())).collect();
    v.sort();
    v
}

/// Trace counters accumulated by `f`, with the scheduling-dependent
/// `exec.steals` removed.
fn counters_of(f: impl FnOnce()) -> BTreeMap<String, u64> {
    let before = ams::trace::snapshot().counters;
    f();
    let after = ams::trace::snapshot().counters;
    let mut delta: BTreeMap<String, u64> = ams::trace::counters_delta(&before, &after)
        .into_iter()
        .collect();
    delta.remove("exec.steals");
    delta
}

/// Everything we demand byte-identity on for one sizing run.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    params: Vec<(String, u64)>,
    perf: Vec<(String, u64)>,
    cost_bits: u64,
    feasible: bool,
    evaluations: usize,
    counters: BTreeMap<String, u64>,
}

fn fingerprint(result: &SizingResult, counters: BTreeMap<String, u64>) -> Fingerprint {
    Fingerprint {
        params: canonical_bits(&result.params),
        perf: canonical_bits(&result.perf),
        cost_bits: result.cost.to_bits(),
        feasible: result.feasible,
        evaluations: result.evaluations,
        counters,
    }
}

/// GA topology selection + per-species sizing polish: the heaviest user
/// of the exec pool (population batches + elitism polish batches).
#[test]
fn ga_run_is_identical_at_1_2_and_8_threads() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let model = PulseDetectorModel::new(Technology::generic_1p2um());
    let models: [&dyn PerfModel; 1] = [&model];
    let config = ams_sizing::GaConfig {
        population: 24,
        generations: 8,
        seed: 7,
        ..Default::default()
    };
    let run = |threads: usize| {
        ams::exec::set_threads(Some(threads));
        let mut out = None;
        let counters = counters_of(|| out = Some(evolve(&models, &table1_spec(), &config)));
        ams::exec::set_threads(None);
        let r = out.unwrap();
        (
            r.topology.clone(),
            r.consensus.to_bits(),
            fingerprint(&r.sizing, counters),
        )
    };
    let serial = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(serial, two, "GA run differs between 1 and 2 workers");
    assert_eq!(serial, eight, "GA run differs between 1 and 8 workers");
    // The run must actually have exercised the parallel batch path and
    // the memoizing cache, or this test proves nothing.
    assert!(serial.2.counters.get("exec.tasks").copied().unwrap_or(0) > 0);
    assert!(
        serial
            .2
            .counters
            .get("exec.cache.hit")
            .copied()
            .unwrap_or(0)
            + serial
                .2
                .counters
                .get("exec.cache.miss")
                .copied()
                .unwrap_or(0)
            > 0
    );
}

/// Multi-start simulated annealing (the 21-sample initial batch plus the
/// serial walk) through `optimize`.
#[test]
fn anneal_run_is_identical_at_1_2_and_8_threads() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let model = PulseDetectorModel::new(Technology::generic_1p2um());
    let config = AnnealConfig {
        seed: 13,
        ..AnnealConfig::quick()
    };
    let run = |threads: usize| {
        ams::exec::set_threads(Some(threads));
        let mut out = None;
        let counters = counters_of(|| out = Some(optimize(&model, &table1_spec(), &config)));
        ams::exec::set_threads(None);
        fingerprint(&out.unwrap(), counters)
    };
    let serial = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(serial, two, "anneal run differs between 1 and 2 workers");
    assert_eq!(serial, eight, "anneal run differs between 1 and 8 workers");
}

/// Simulation-in-the-loop annealing through `synthesize`: the memoized
/// multi-start batch and chain over a simulated opamp.
#[test]
fn synthesize_run_is_identical_at_1_2_and_8_threads() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let spec = Spec::new()
        .require("gain_db", Bound::AtLeast(55.0))
        .require("ugf_hz", Bound::AtLeast(2e6))
        .require("phase_margin_deg", Bound::AtLeast(45.0))
        .minimizing("power_w");
    let config = AnnealConfig {
        moves_per_stage: 10,
        stages: 8,
        seed: 7,
        ..Default::default()
    };
    let run = |threads: usize| {
        ams::exec::set_threads(Some(threads));
        // A fresh template per run: each instance captures its
        // `BatchSession` once, which the `sim.batch.*` counters see.
        let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
        let mut out = None;
        let counters = counters_of(|| {
            out = Some(synthesize(
                &template,
                &spec,
                AcEvaluator::Awe { order: 3 },
                &config,
            ))
        });
        ams::exec::set_threads(None);
        fingerprint(&out.unwrap(), counters)
    };
    let serial = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(serial, two, "synthesize differs between 1 and 2 workers");
    assert_eq!(serial, eight, "synthesize differs between 1 and 8 workers");
    if ams::exec::mode_from_env() == ams::exec::EvalCacheMode::Off {
        assert_eq!(
            serial.counters.get("exec.cache.hit").copied().unwrap_or(0),
            0,
            "AMS_EVAL_CACHE=off must memoize nothing"
        );
    }
}

/// An evaluation budget shared across workers: exhaustion mid-run must be
/// *classified* (run returns early, `budget::exhausted()` reports the
/// crossing) rather than panicking a worker, and — because charges are
/// counted per evaluation, not per thread — the spend and the early
/// champion must not depend on the worker count.
#[test]
fn budget_exhaustion_is_classified_not_panicking_under_parallel_eval() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let model = PulseDetectorModel::new(Technology::generic_1p2um());
    let models: [&dyn PerfModel; 1] = [&model];
    let config = ams_sizing::GaConfig {
        population: 24,
        generations: 50,
        seed: 7,
        ..Default::default()
    };
    let run = |threads: usize| {
        ams::exec::set_threads(Some(threads));
        ams::guard::budget::install(Budget::unlimited().evals(100));
        let mut out = None;
        let counters = counters_of(|| out = Some(evolve(&models, &table1_spec(), &config)));
        let exhausted = ams::guard::budget::exhausted();
        let spent = ams::guard::budget::spent_evals();
        ams::guard::budget::clear();
        ams::exec::set_threads(None);
        let r = out.unwrap();
        (
            exhausted.map(|e| e.resource),
            spent,
            r.topology.clone(),
            fingerprint(&r.sizing, counters),
        )
    };
    let serial = run(1);
    let eight = run(8);
    // Classified: the run completed normally and the guard recorded the
    // crossing on the evals resource.
    assert_eq!(
        serial.0,
        Some(ams::guard::budget::Resource::Evals),
        "budget crossing must be recorded"
    );
    assert_eq!(
        serial, eight,
        "budget-capped run differs between 1 and 8 workers"
    );
}
