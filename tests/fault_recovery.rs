//! Fault-injection recovery matrix for the whole synthesis flow.
//!
//! For every [`FaultKind`] × seed cell, the flow plus a device-level
//! verification workload must (a) never let a panic escape, (b) end in a
//! classified state — nominal report, degraded report, or structured
//! error — and (c) be byte-identical across same-seed runs (counters
//! included). Wall-clock quantities (span timings) are the only
//! exemptions from the determinism contract.
//!
//! The guard's fault and budget state is process-global, so every test in
//! this file serializes on one lock.

use ams::guard::{budget, fault};
use ams::prelude::*;
use ams_core::{DegradeReason, FlowError, FlowReport};
use ams_sizing::{SimulatedTemplate, TwoStageCircuit};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

static GUARD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GUARD_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn quick_config() -> FlowConfig {
    let mut c = FlowConfig {
        sizing: AnnealConfig {
            moves_per_stage: 150,
            stages: 40,
            seed: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    c.layout.placer.moves_per_stage = 80;
    c.layout.placer.stages = 25;
    c
}

fn opamp_spec() -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(4e6))
        .require("swing_v", Bound::AtLeast(2.0))
        .minimizing("power_w")
}

/// Canonical, order-independent rendering of a report. `FlowReport` holds
/// `HashMap`s whose iteration (and `Debug`) order is randomized per
/// process, so entries are sorted before printing and floats rendered
/// bit-exactly.
fn canon(report: &FlowReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "topology={}", report.topology);
    let mut params: Vec<_> = report.params.iter().collect();
    params.sort_by(|a, b| a.0.cmp(b.0));
    for (k, v) in params {
        let _ = writeln!(s, "param {k}={:016x}", v.to_bits());
    }
    for (label, perf) in [
        ("pre", &report.pre_layout_perf),
        ("post", &report.post_layout_perf),
    ] {
        let mut entries: Vec<_> = perf.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (k, v) in entries {
            let _ = writeln!(s, "{label} {k}={:016x}", v.to_bits());
        }
    }
    let _ = writeln!(s, "iterations={}", report.iterations);
    let _ = writeln!(s, "area={:016x}", report.layout.area_um2.to_bits());
    let _ = writeln!(s, "complete={}", report.layout.is_complete());
    for e in &report.events {
        let _ = writeln!(s, "event {}", e.kind());
    }
    let _ = writeln!(s, "outcome={:?}", report.outcome);
    s
}

fn two_stage_circuit() -> ams::netlist::Circuit {
    let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
    let x: Vec<f64> = template
        .params()
        .iter()
        .map(|pd| (pd.lo * pd.hi).sqrt())
        .collect();
    template.build(&x)
}

/// Runs the full workload — synthesis flow, restarted device-level DC solve,
/// and a transient — under an armed seeded fault plan, returning a
/// canonical transcript plus the counter snapshot. Panics (fails the
/// calling test) if any panic escapes the workload.
fn run_faulted(kind: FaultKind, seed: u64) -> (String, BTreeMap<String, u64>) {
    ams::trace::reset();
    ams::trace::set_enabled(true);
    fault::arm(FaultPlan::seeded(seed, kind, 8, 64));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut out = String::new();
        match synthesize_opamp(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
        ) {
            Ok(r) => {
                out.push_str("flow ok\n");
                out.push_str(&canon(&r));
            }
            Err(e) => out.push_str(&format!("flow err {e}\n")),
        }
        let ckt = two_stage_circuit();
        match SimSession::new(&ckt).op() {
            Ok(op) => out.push_str(&format!(
                "dc ok strategy={:?} iters={}\n",
                op.strategy, op.iterations
            )),
            Err(e) => out.push_str(&format!("dc err {e}\n")),
        }
        let rc = parse_deck(
            "V1 in 0 PULSE(0 1 0 1n 1n 1 2)
             R1 in out 1k
             C1 out 0 1u",
        )
        .expect("rc deck parses");
        match SimSession::new(&rc).tran(2e-3, 20e-6) {
            Ok(res) => out.push_str(&format!("tran ok points={}\n", res.times.len())),
            Err(e) => out.push_str(&format!("tran err {e}\n")),
        }
        out
    }));
    fault::disarm();
    ams::trace::set_enabled(false);
    let counters = ams::trace::snapshot().counters;
    match result {
        Ok(s) => (s, counters),
        Err(_) => panic!("a panic escaped the guarded workload under {kind} seed {seed}"),
    }
}

/// The same workload as [`run_faulted`], but the flow is checkpointed,
/// interrupted right after the first sizing stage commits, and resumed —
/// with the trace state reset and a *fresh* identical fault plan re-armed
/// in between, exactly as a process that died and restarted would see.
///
/// Topology selection and the equation-based sizing stage make zero
/// faultable simulator calls, so interrupting at `sizing.0.0` leaves the
/// resumed process's fault-trigger call sequence aligned with an
/// uninterrupted run's.
fn run_faulted_resumed(kind: FaultKind, seed: u64) -> (String, BTreeMap<String, u64>) {
    // First life: run checkpointed until the sizing boundary is durable.
    ams::trace::reset();
    ams::trace::set_enabled(true);
    fault::arm(FaultPlan::seeded(seed, kind, 8, 64));
    let mut store = CkptStore::in_memory();
    let first = catch_unwind(AssertUnwindSafe(|| {
        synthesize_opamp_resumable(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
            FlowCkpt::interrupting_after(&mut store, "sizing.0.0"),
        )
    }));
    fault::disarm();
    match first {
        Ok(Err(FlowError::Interrupted { ref stage })) if stage == "sizing.0.0" => {}
        Ok(other) => panic!("expected interruption at sizing.0.0, got {other:?}"),
        Err(_) => panic!("a panic escaped the interrupted first half: {kind} seed {seed}"),
    }

    // Process death: all volatile state is gone. Only the journal survives.
    ams::trace::reset();
    ams::trace::set_enabled(true);
    fault::arm(FaultPlan::seeded(seed, kind, 8, 64));

    // Second life: identical workload, resuming against the journal.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut out = String::new();
        match synthesize_opamp_resumable(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
            FlowCkpt::new(&mut store),
        ) {
            Ok(r) => {
                out.push_str("flow ok\n");
                out.push_str(&canon(&r));
            }
            Err(e) => out.push_str(&format!("flow err {e}\n")),
        }
        let ckt = two_stage_circuit();
        match SimSession::new(&ckt).op() {
            Ok(op) => out.push_str(&format!(
                "dc ok strategy={:?} iters={}\n",
                op.strategy, op.iterations
            )),
            Err(e) => out.push_str(&format!("dc err {e}\n")),
        }
        let rc = parse_deck(
            "V1 in 0 PULSE(0 1 0 1n 1n 1 2)
             R1 in out 1k
             C1 out 0 1u",
        )
        .expect("rc deck parses");
        match SimSession::new(&rc).tran(2e-3, 20e-6) {
            Ok(res) => out.push_str(&format!("tran ok points={}\n", res.times.len())),
            Err(e) => out.push_str(&format!("tran err {e}\n")),
        }
        out
    }));
    fault::disarm();
    ams::trace::set_enabled(false);
    let counters = ams::trace::snapshot().counters;
    match result {
        Ok(s) => (s, counters),
        Err(_) => panic!("a panic escaped the resumed workload under {kind} seed {seed}"),
    }
}

/// `exec.steals` is scheduling-dependent and the journal's restored delta
/// reflects the first life's schedule, not the second's — it is the one
/// counter exempt from byte-comparison repo-wide.
fn drop_steals(mut c: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    c.remove("exec.steals");
    c
}

#[test]
fn interrupted_resumed_fault_runs_match_uninterrupted() {
    let _l = lock();
    for kind in FaultKind::ALL {
        for seed in [11u64, 33] {
            let (plain, counters_plain) = run_faulted(kind, seed);
            let (resumed, counters_resumed) = run_faulted_resumed(kind, seed);
            assert_eq!(
                resumed, plain,
                "interrupted+resumed transcript diverged: {kind} seed {seed}"
            );
            assert_eq!(
                drop_steals(counters_resumed),
                drop_steals(counters_plain),
                "interrupted+resumed counters diverged: {kind} seed {seed}"
            );
        }
    }
}

/// The LU fault sites live in the Newton loop (`ams_sim::dc`), above the
/// solver: with the sparse backend forced process-wide, so the Newton loop
/// runs on the CSC kernel, `lu_pivot` and `nan_residual` must fire, and
/// same-seed runs must stay byte-identical, counters included.
#[test]
fn lu_faults_fire_identically_on_the_csc_kernel() {
    let _l = lock();
    std::env::set_var("AMS_SIM_BACKEND", "sparse");
    for kind in [FaultKind::LuPivot, FaultKind::NanResidual] {
        for seed in [11u64, 33] {
            let (a, counters_a) = run_faulted(kind, seed);
            let (b, counters_b) = run_faulted(kind, seed);
            assert_eq!(a, b, "same-seed CSC run diverged: {kind} seed {seed}");
            assert_eq!(
                counters_a, counters_b,
                "CSC counters diverged: {kind} seed {seed}"
            );
            let key = format!("guard.fault.{kind}");
            assert!(
                counters_a.get(&key).copied().unwrap_or(0) > 0,
                "{kind} never fired on csc"
            );
        }
    }
    std::env::remove_var("AMS_SIM_BACKEND");
}

/// The interrupted+resumed contract holds on the sparse backend too: for
/// both LU fault kinds, a checkpointed run killed after the first sizing
/// stage and resumed in a fresh "process" reproduces the uninterrupted
/// transcript byte-for-byte — the resume fingerprint accepts the CSC
/// factorization path.
#[test]
fn interrupted_resumed_lu_faults_match_on_the_csc_kernel() {
    let _l = lock();
    std::env::set_var("AMS_SIM_BACKEND", "sparse");
    for kind in [FaultKind::LuPivot, FaultKind::NanResidual] {
        let seed = 11u64;
        let (plain, counters_plain) = run_faulted(kind, seed);
        let (resumed, counters_resumed) = run_faulted_resumed(kind, seed);
        assert_eq!(
            resumed, plain,
            "interrupted+resumed CSC transcript diverged: {kind} seed {seed}"
        );
        assert_eq!(
            drop_steals(counters_resumed),
            drop_steals(counters_plain),
            "interrupted+resumed CSC counters diverged: {kind} seed {seed}"
        );
    }
    std::env::remove_var("AMS_SIM_BACKEND");
}

#[test]
fn fault_matrix_never_panics_and_is_deterministic() {
    let _l = lock();
    for kind in FaultKind::ALL {
        for seed in [11u64, 22, 33] {
            let (a, counters_a) = run_faulted(kind, seed);
            let (b, counters_b) = run_faulted(kind, seed);
            assert_eq!(a, b, "same-seed faulted run diverged: {kind} seed {seed}");
            assert_eq!(
                counters_a, counters_b,
                "counters diverged: {kind} seed {seed}"
            );
        }
    }
}

fn run_clean(arm_empty_plan: bool) -> String {
    if arm_empty_plan {
        fault::arm(FaultPlan::new());
    } else {
        fault::disarm();
    }
    let report = synthesize_opamp(
        &opamp_spec(),
        &Technology::generic_1p2um(),
        5e-12,
        &quick_config(),
    )
    .expect("clean flow succeeds");
    fault::disarm();
    canon(&report)
}

#[test]
fn clean_run_is_identical_with_guard_armed_or_disarmed() {
    let _l = lock();
    let disarmed = run_clean(false);
    let armed_empty = run_clean(true);
    assert_eq!(
        disarmed, armed_empty,
        "an armed-but-empty guard must not perturb a clean run"
    );
    assert!(disarmed.contains("outcome=Nominal"));
}

#[test]
fn eval_budget_exhaustion_degrades_by_default() {
    let _l = lock();
    // Far too few evaluations to size anything: the anneal stops at the
    // checkpoint, sizing comes back infeasible, and the flow hands over
    // the best point it saw, labelled with the budget rung.
    budget::install(Budget::default().evals(40));
    let result = synthesize_opamp(
        &opamp_spec(),
        &Technology::generic_1p2um(),
        5e-12,
        &quick_config(),
    );
    budget::clear();
    let report = result.expect("budget exhaustion must degrade, not error");
    let ams_core::FlowOutcome::Degraded { reasons } = &report.outcome else {
        panic!("expected degraded outcome, got {:?}", report.outcome);
    };
    assert!(
        reasons
            .iter()
            .any(|r| matches!(r, DegradeReason::BudgetExhausted { .. })),
        "reasons: {reasons:?}"
    );
}

#[test]
fn exhausted_budget_is_an_error_under_strict_policy() {
    let _l = lock();
    budget::install(Budget::default().evals(1));
    let _ = budget::charge_evals(2);
    assert!(budget::exhausted().is_some());
    let mut config = quick_config();
    config.recovery = RecoveryPolicy::strict();
    let result = synthesize_opamp(&opamp_spec(), &Technology::generic_1p2um(), 5e-12, &config);
    budget::clear();
    assert!(
        matches!(result, Err(FlowError::Budget(_))),
        "got {result:?}"
    );
}

/// A degraded flow explains itself: its report carries forensics whose
/// context names every recovery rung taken and whose events, the tail of
/// the flight ring, include each rung's `degraded` event in seq order.
#[test]
fn degraded_flow_report_carries_forensics() {
    let _l = lock();
    let _ = ams::trace::take_last_failure();
    ams::trace::reset();
    ams::trace::set_enabled(true);
    // Every first-attempt route fails: the relaxed router re-routes and
    // the flow accepts the incomplete result.
    fault::arm(FaultPlan::new().fault(FaultKind::RouterRipup, Trigger::Always));
    let result = synthesize_opamp(
        &opamp_spec(),
        &Technology::generic_1p2um(),
        5e-12,
        &quick_config(),
    );
    fault::disarm();
    ams::trace::set_enabled(false);
    let report = result.expect("router faults degrade the flow, not fail it");
    let FlowOutcome::Degraded { reasons } = &report.outcome else {
        panic!("expected a degraded outcome, got {:?}", report.outcome);
    };
    assert!(!reasons.is_empty());
    let forensics = report
        .forensics
        .as_ref()
        .expect("a degraded report carries forensics");
    let seqs: Vec<u64> = forensics
        .recent_events
        .iter()
        .map(|(seq, _)| *seq)
        .collect();
    assert!(!seqs.is_empty(), "forensics must carry events");
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs: {seqs:?}");
    for reason in reasons {
        let reason = reason.to_string();
        assert!(
            forensics.context.contains(&reason),
            "context {:?} does not name {reason:?}",
            forensics.context
        );
        assert!(
            forensics.recent_events.iter().any(|(_, e)| matches!(
                e,
                ams::trace::TelemetryEvent::Degraded { reason: r } if *r == reason
            )),
            "no degraded event for {reason:?}"
        );
    }
}

/// The layout stage tag carries the policy bit. A run interrupted right
/// after its strict layout stage and resumed on the same journal under the
/// default policy must recompute that layout, relaxing the router, rather
/// than replay the strict one: the resumed report equals an uninterrupted
/// default run byte for byte.
#[test]
fn resume_under_the_other_policy_recomputes_the_layout() {
    let _l = lock();
    // Every first-attempt route fails, so only the default policy's
    // relaxed router changes the layout.
    let plan = || FaultPlan::new().fault(FaultKind::RouterRipup, Trigger::Always);
    let tech = Technology::generic_1p2um();

    fault::arm(plan());
    let uninterrupted = synthesize_opamp(&opamp_spec(), &tech, 5e-12, &quick_config());
    fault::disarm();
    let uninterrupted = uninterrupted.expect("router faults degrade the flow, not fail it");
    let FlowOutcome::Degraded { reasons } = &uninterrupted.outcome else {
        panic!(
            "expected a degraded outcome, got {:?}",
            uninterrupted.outcome
        );
    };
    assert!(
        reasons.contains(&DegradeReason::RouterRelaxed),
        "{reasons:?}"
    );

    let mut store = CkptStore::in_memory();
    let mut strict = quick_config();
    strict.recovery = RecoveryPolicy::strict();
    fault::arm(plan());
    let first = synthesize_opamp_resumable(
        &opamp_spec(),
        &tech,
        5e-12,
        &strict,
        FlowCkpt::interrupting_after(&mut store, "layout.0.0.rx0"),
    );
    fault::disarm();
    assert_eq!(
        first.unwrap_err(),
        FlowError::Interrupted {
            stage: "layout.0.0.rx0".into()
        }
    );

    fault::arm(plan());
    let resumed = synthesize_opamp_resumable(
        &opamp_spec(),
        &tech,
        5e-12,
        &quick_config(),
        FlowCkpt::new(&mut store),
    );
    fault::disarm();
    let resumed = resumed.expect("the resumed default run degrades, not fails");
    assert_eq!(canon(&resumed), canon(&uninterrupted));
}

#[test]
fn dc_retry_recovers_from_injected_divergence() {
    let _l = lock();
    ams::trace::reset();
    ams::trace::set_enabled(true);
    // A fully failing pass of the DC ladder makes exactly three newton()
    // calls (plain, first gmin rung, first source rung); injecting
    // divergence into calls 0..=2 fails the whole first pass, so the
    // ladder's first perturbed restart must recover.
    fault::arm(FaultPlan::new().fault(FaultKind::NewtonDiverge, Trigger::At(vec![0, 1, 2])));
    let ckt = two_stage_circuit();
    let op = SimSession::new(&ckt).op();
    fault::disarm();
    ams::trace::set_enabled(false);
    let counters = ams::trace::snapshot().counters;
    let op = op.expect("a restart must recover once injection stops");
    assert!(op.iterations > 0);
    assert_eq!(counters.get("sim.dc_retries").copied(), Some(1));
    assert_eq!(counters.get("guard.fault.newton_diverge").copied(), Some(3));
}
