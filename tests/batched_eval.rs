//! The batched-evaluation and persistent-cache contracts, end to end:
//!
//! * **Batched ≡ sequential.** Evaluating a candidate set through one
//!   [`BatchSession`] (shared symbolic analysis, parallel fan-out) must
//!   produce byte-identical solutions — and identical trace counters —
//!   to fresh per-candidate sessions, at 1, 2, and 8 workers.
//! * **Warm ≡ cold.** An optimizer run warm-started from a persisted
//!   on-disk eval cache must reproduce the cold run bit-exactly; only
//!   the hit/miss split may move (that is the point of the cache).
//! * **Corruption degrades, never panics.** A damaged cache file is a
//!   structured load defect and a cold start, not a crash; the next
//!   commit repairs the file.
//!
//! `ams_exec::set_threads` is process-global, so the tests serialize on
//! one mutex.

use ams::prelude::*;
use ams_core::{table1_spec, PulseDetectorModel};
use ams_exec::{EvalCacheHandle, EvalCachePolicy};
use ams_sizing::{evolve, GaConfig, SimulatedTemplate, TwoStageCircuit};
use std::collections::BTreeMap;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// A candidate set for the two-stage opamp template: mild, convergent
/// variations around a known-good sizing, all sharing one MNA pattern.
fn candidates() -> Vec<Circuit> {
    let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
    let good = [60e-6, 30e-6, 150e-6, 50e-6, 150e-6, 2e-12, 2.4e-6];
    (0..12)
        .map(|i| {
            let x: Vec<f64> = good
                .iter()
                .enumerate()
                .map(|(j, &v)| v * (1.0 + 0.03 * ((i + j) % 5) as f64))
                .collect();
            template.build(&x)
        })
        .collect()
}

/// Trace counters accumulated by `f`, minus the scheduling-dependent
/// `exec.steals`.
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

/// Solution bit patterns of one DC solve.
fn op_bits(ses: &ams::sim::SimSession<'_>) -> Vec<u64> {
    ses.op()
        .expect("candidate DC solve")
        .x
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn batched_parallel_eval_matches_fresh_sequential_bitwise() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let cands = candidates();

    // Reference: a fresh analysis per candidate, strictly serial.
    let fresh: Vec<Vec<u64>> = cands
        .iter()
        .map(|c| op_bits(&ams::sim::SimSession::new(c)))
        .collect();

    let batched_run = |threads: usize| {
        ams::exec::set_threads(Some(threads));
        let mut out = Vec::new();
        let counters = counters_of(|| {
            let batch = BatchSession::capture(&cands[0]);
            out = ams::exec::par_map_indexed(&cands, |_, c| {
                op_bits(&batch.bind(c).expect("same pattern"))
            });
        });
        ams::exec::set_threads(None);
        (out, counters)
    };

    let serial = batched_run(1);
    let two = batched_run(2);
    let eight = batched_run(8);
    assert_eq!(serial.0, fresh, "batched must match fresh bitwise");
    assert_eq!(serial, two, "batched run differs between 1 and 2 workers");
    assert_eq!(serial, eight, "batched run differs between 1 and 8 workers");
    // The run must actually have shared the captured analysis.
    assert_eq!(
        serial.1.get("sim.batch.bind").copied().unwrap_or(0),
        cands.len() as u64
    );
}

/// Champion fingerprint: topology, cost bits, sorted param-name/bit pairs.
type Champion = (String, u64, Vec<(String, u64)>);

/// One seeded GA run under an explicit cache policy; returns the champion
/// fingerprint and the (hit, miss) counter delta.
fn ga_run(policy: EvalCachePolicy) -> (Champion, (u64, u64)) {
    let model = PulseDetectorModel::new(Technology::generic_1p2um());
    let models: [&dyn PerfModel; 1] = [&model];
    let config = GaConfig {
        population: 16,
        generations: 4,
        seed: 9,
        eval_cache: policy,
        ..Default::default()
    };
    let mut out = None;
    let counters = counters_of(|| out = Some(evolve(&models, &table1_spec(), &config)));
    let r = out.unwrap();
    let mut params: Vec<(String, u64)> = r
        .sizing
        .params
        .iter()
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect();
    params.sort();
    (
        (r.topology, r.sizing.cost.to_bits(), params),
        (
            counters.get("exec.cache.hit").copied().unwrap_or(0),
            counters.get("exec.cache.miss").copied().unwrap_or(0),
        ),
    )
}

#[test]
fn persistent_warm_start_reproduces_the_cold_run_bit_exactly() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let path =
        std::env::temp_dir().join(format!("ams_test_warm_start_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (off, _) = ga_run(EvalCachePolicy::Off);
    let (cold, (cold_hits, cold_misses)) = ga_run(EvalCachePolicy::Disk(path.clone()));
    let (warm, (warm_hits, warm_misses)) = ga_run(EvalCachePolicy::Disk(path.clone()));
    let _ = std::fs::remove_file(&path);

    // Results are cache-warmth- and cache-mode-independent…
    assert_eq!(off, cold, "disk-cold must match the uncached run");
    assert_eq!(cold, warm, "warm start must reproduce the cold run");
    // …while the hit/miss split shows the persistence actually engaged:
    // the warm run answers (almost) everything from the file.
    assert!(cold_misses > 0, "cold run must compute something");
    assert!(
        warm_hits > cold_hits,
        "warm hits {warm_hits} must exceed cold hits {cold_hits}"
    );
    assert!(
        warm_misses < cold_misses / 4,
        "warm run should recompute almost nothing: {warm_misses} vs cold {cold_misses}"
    );
}

#[test]
fn corrupted_cache_file_degrades_to_a_cold_start() {
    let _guard = LOCK.lock().unwrap();
    ams::trace::set_enabled(true);
    let path = std::env::temp_dir().join(format!(
        "ams_test_corrupt_cache_{}.ckpt",
        std::process::id()
    ));
    std::fs::write(&path, b"this is not a checkpoint journal").unwrap();

    // Structured error from the raw reader — never a panic.
    assert!(ams_exec::read_entries(&path).is_err());

    // The handle classifies the defect and opens cold.
    let handle = EvalCacheHandle::open(&EvalCachePolicy::Disk(path.clone()), 0xDEAD_BEEF);
    assert!(handle.load_defect().is_some(), "defect must be recorded");
    assert_eq!(handle.loaded_entries(), 0);

    // A full optimizer run over the damaged file still succeeds and
    // matches the uncached result; its commits repair the file.
    let (off, _) = ga_run(EvalCachePolicy::Off);
    std::fs::write(&path, b"this is not a checkpoint journal").unwrap();
    let (repaired, _) = ga_run(EvalCachePolicy::Disk(path.clone()));
    assert_eq!(off, repaired, "corrupt-cache run must match uncached");
    let entries = ams_exec::read_entries(&path).expect("journal repaired by commit");
    assert!(!entries.is_empty(), "repaired cache must hold entries");
    let _ = std::fs::remove_file(&path);
}
