//! Crash-safe, resumable execution of the §2.1 flow.
//!
//! [`synthesize_opamp_resumable`] runs the same loop as
//! [`synthesize_opamp`](crate::synthesize_opamp) but commits a journal
//! record at every phase boundary — topology selection, each sizing pass,
//! each layout (placement + routing) pass, and the bias-fallback
//! verification — to a caller-supplied [`CkptStore`]. A run resumed from
//! that journal replays completed stages from their committed payloads
//! (result value, trace-counter delta, and budget-meter delta) and
//! recomputes nothing, so its final report **and** its final trace
//! counters are byte-identical to an uninterrupted same-seed run (modulo
//! `exec.steals`, which is scheduling-dependent and exempted repo-wide).
//!
//! Stage memoization is keyed by tag. Tags that depend on the active
//! [`RecoveryPolicy`](crate::RecoveryPolicy) — the layout stages, whose
//! compute changes with `relax_router` — append the policy bit, so a
//! supervised retry that escalates the policy recomputes exactly the
//! stages the new policy changes and replays the rest.
//!
//! [`supervised_synthesize`] stacks the ams-guard [`Supervisor`] on top:
//! bounded, eval-denominated retry-with-backoff, each retry resuming from
//! the same journal under an escalated recovery policy
//! ([`RecoveryPolicy::escalated`](crate::RecoveryPolicy::escalated)), with
//! quarantine for keys that keep failing.

// det-lint: allow(hash-collection): every map is sorted before encoding
use std::collections::HashMap;

use ams_ckpt::codec::{Dec, DecodeError, Enc};
use ams_ckpt::CkptStore;
use ams_guard::{budget, SupervisionReport, Supervisor};
use ams_layout::{CellLayout, DeviceLayout, Layer, Rect};
use ams_netlist::Technology;
use ams_sizing::SizingResult;
use ams_topology::Spec;

use crate::flow::{
    self, DegradeReason, FlowConfig, FlowError, FlowOutcome, FlowReport, RecoveryPolicy,
};
use ams_trace::TelemetryEvent;

/// Journal record holding the symbolic-factorization pattern fingerprint
/// captured when the bias ladder first bound a [`ams_sim::SimSession`];
/// resume re-captures and verifies it (see [`FlowError::Checkpoint`]).
pub const SIM_PATTERN_TAG: &str = "sim.pattern";

/// Checkpointing context threaded through a resumable flow run.
#[derive(Debug)]
pub struct FlowCkpt<'a> {
    /// Journal the run resumes from and commits to.
    pub store: &'a mut CkptStore,
    /// If set, return [`FlowError::Interrupted`] right after committing
    /// the stage with this tag — the deterministic crash hook the
    /// kill/resume tests layer real `SIGKILL` on top of.
    pub interrupt_after: Option<String>,
}

impl<'a> FlowCkpt<'a> {
    /// A run that checkpoints every phase boundary and never self-halts.
    pub fn new(store: &'a mut CkptStore) -> Self {
        FlowCkpt {
            store,
            interrupt_after: None,
        }
    }

    /// A run that halts right after committing the stage tagged `tag`
    /// (crash simulation; resume by running again with the same store).
    pub fn interrupting_after(store: &'a mut CkptStore, tag: &str) -> Self {
        FlowCkpt {
            store,
            interrupt_after: Some(tag.to_string()),
        }
    }
}

/// Runs the full flow with phase-boundary checkpointing against `store`.
///
/// An empty store behaves exactly like [`crate::synthesize_opamp`]; a
/// store left behind by an interrupted run resumes it. See the module
/// docs for the byte-identity contract.
///
/// # Errors
///
/// Everything [`crate::synthesize_opamp`] returns, plus
/// [`FlowError::Checkpoint`] (journal i/o or corruption, or a resume
/// whose re-captured simulation pattern disagrees with the journal) and
/// [`FlowError::Interrupted`] (the deterministic crash hook fired).
pub fn synthesize_opamp_resumable(
    spec: &Spec,
    tech: &Technology,
    load_f: f64,
    config: &FlowConfig,
    mut ck: FlowCkpt<'_>,
) -> Result<FlowReport, FlowError> {
    let mut opt = Some(&mut ck);
    flow::synthesize_opamp_inner(spec, tech, load_f, config, &mut opt)
}

/// Runs [`synthesize_opamp_resumable`] under an ams-guard [`Supervisor`]:
/// every failed retryable attempt backs off (eval-denominated, charged to
/// the global budget) and retries *resuming from the same journal* with
/// the recovery policy escalated one rung
/// ([`RecoveryPolicy::escalated`](crate::RecoveryPolicy::escalated)).
/// Success after at least one retry is honestly labelled with
/// [`DegradeReason::SupervisedRetry`] in the report's outcome.
///
/// The supervisor's verdict mirrors [`Supervisor::run`]: `None` when the
/// flow key is quarantined, otherwise the final attempt's result.
pub fn supervised_synthesize(
    spec: &Spec,
    tech: &Technology,
    load_f: f64,
    config: &FlowConfig,
    store: &mut CkptStore,
    supervisor: &mut Supervisor,
) -> (Option<Result<FlowReport, FlowError>>, SupervisionReport) {
    let base = config.recovery;
    let (result, report) = supervisor.run(
        "flow.synthesize_opamp",
        |e: &FlowError| {
            // The crash hook is always worth resuming; other failures are
            // retried only when the full recovery ladder could plausibly
            // absorb them (structural failures never are).
            matches!(e, FlowError::Interrupted { .. }) || RecoveryPolicy::default().is_retryable(e)
        },
        |attempt| {
            let mut cfg = config.clone();
            cfg.recovery = base.escalated(attempt);
            synthesize_opamp_resumable(spec, tech, load_f, &cfg, FlowCkpt::new(&mut *store))
        },
    );
    let result = result.map(|r| {
        r.map(|mut rep| {
            if report.retries > 0 {
                let reason = DegradeReason::SupervisedRetry {
                    attempts: report.attempts.len(),
                };
                flow::emit(
                    &mut rep.events,
                    TelemetryEvent::Degraded {
                        reason: reason.to_string(),
                    },
                );
                rep.outcome = match rep.outcome {
                    FlowOutcome::Nominal => FlowOutcome::Degraded {
                        reasons: vec![reason],
                    },
                    FlowOutcome::Degraded { mut reasons } => {
                        reasons.push(reason);
                        FlowOutcome::Degraded { reasons }
                    }
                };
            }
            rep
        })
    });
    (result, report)
}

/// Emits the `stage_replayed` event for a journal hit.
fn stage_replayed(tag: &str) {
    if ams_trace::enabled() {
        ams_trace::emit(TelemetryEvent::StageReplayed {
            tag: tag.to_string(),
        });
    }
}

fn ck_decode(tag: &str, e: DecodeError) -> FlowError {
    FlowError::Checkpoint(format!("record `{tag}`: {e}"))
}

/// Memoizes one flow stage against the journal.
///
/// Without a checkpoint context this is just `compute()`. With one:
/// a journal hit decodes the committed value, re-applies the stage's
/// trace-counter and budget-meter deltas, and skips the compute; a miss
/// runs `compute` inside a delta window, commits `(deltas, value)` under
/// `tag`, and honors the interrupt hook. Either way the caller observes
/// identical counters and budget state afterwards.
pub(crate) fn stage<T>(
    ck: &mut Option<&mut FlowCkpt<'_>>,
    tag: &str,
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, DecodeError>,
    encode: impl FnOnce(&mut Enc, &T),
    compute: impl FnOnce() -> Result<T, FlowError>,
) -> Result<T, FlowError> {
    let Some(ck) = ck.as_deref_mut() else {
        return compute();
    };
    if let Some(payload) = ck.store.find(tag) {
        let mut d = Dec::new(payload);
        let delta = d.counter_delta().map_err(|e| ck_decode(tag, e))?;
        let evals = d.u64().map_err(|e| ck_decode(tag, e))?;
        let newton = d.u64().map_err(|e| ck_decode(tag, e))?;
        let v = decode(&mut d).map_err(|e| ck_decode(tag, e))?;
        d.finish().map_err(|e| ck_decode(tag, e))?;
        ams_ckpt::restore_delta(&delta);
        if evals > 0 {
            budget::charge_evals(evals);
        }
        if newton > 0 {
            budget::charge_newton(newton);
        }
        stage_replayed(tag);
        return Ok(v);
    }
    let counters_before = ams_ckpt::counters_now();
    let evals_before = budget::spent_evals();
    let newton_before = budget::spent_newton_iters();
    let v = compute()?;
    let delta = ams_ckpt::delta_since(&counters_before);
    let mut enc = Enc::new();
    enc.counter_delta(&delta);
    enc.u64(budget::spent_evals().saturating_sub(evals_before));
    enc.u64(budget::spent_newton_iters().saturating_sub(newton_before));
    encode(&mut enc, &v);
    ck.store
        .commit(tag, enc.finish())
        .map_err(|e| FlowError::Checkpoint(e.to_string()))?;
    if ck.interrupt_after.as_deref() == Some(tag) {
        return Err(FlowError::Interrupted {
            stage: tag.to_string(),
        });
    }
    Ok(v)
}

/// The bias-fallback stage, with symbolic-pattern re-capture on resume.
///
/// Compute binds a fresh [`ams_sim::SimSession`], records its structural
/// [`pattern_fingerprint`](ams_sim::SimSession::pattern_fingerprint) in a
/// dedicated [`SIM_PATTERN_TAG`] journal record, then runs the bias
/// ladder. A journal hit re-binds a session over the identically rebuilt
/// circuit and verifies the re-captured fingerprint against the record —
/// a mismatch means the journal belongs to a different design point and
/// resuming would silently verify the wrong circuit, so it is a
/// [`FlowError::Checkpoint`]. Verification is counter-free by
/// construction (session binding touches no trace counters).
pub(crate) fn bias_stage(
    ck: &mut Option<&mut FlowCkpt<'_>>,
    tech: &Technology,
    load_f: f64,
    // det-lint: allow(hash-collection): sizing param map, read by key only
    params: &HashMap<String, f64>,
) -> Result<bool, FlowError> {
    const TAG: &str = "bias.fallback";
    let Some(ck) = ck.as_deref_mut() else {
        return Ok(flow::assumed_bias_check(tech, load_f, params));
    };
    if let Some(payload) = ck.store.find(TAG) {
        let mut d = Dec::new(payload);
        let delta = d.counter_delta().map_err(|e| ck_decode(TAG, e))?;
        let evals = d.u64().map_err(|e| ck_decode(TAG, e))?;
        let newton = d.u64().map_err(|e| ck_decode(TAG, e))?;
        let assumed = d.bool().map_err(|e| ck_decode(TAG, e))?;
        let stored_fp = d.u64().map_err(|e| ck_decode(TAG, e))?;
        d.finish().map_err(|e| ck_decode(TAG, e))?;
        let recaptured = flow::bias_pattern_fingerprint(tech, load_f, params);
        if recaptured != stored_fp {
            return Err(FlowError::Checkpoint(format!(
                "resumed simulation pattern {recaptured:#018x} disagrees with \
                 checkpointed pattern {stored_fp:#018x}"
            )));
        }
        ams_ckpt::restore_delta(&delta);
        if evals > 0 {
            budget::charge_evals(evals);
        }
        if newton > 0 {
            budget::charge_newton(newton);
        }
        stage_replayed(TAG);
        return Ok(assumed);
    }
    let counters_before = ams_ckpt::counters_now();
    let evals_before = budget::spent_evals();
    let newton_before = budget::spent_newton_iters();
    let fp = flow::bias_pattern_fingerprint(tech, load_f, params);
    let assumed = flow::assumed_bias_check(tech, load_f, params);
    let delta = ams_ckpt::delta_since(&counters_before);
    let mut enc = Enc::new();
    enc.counter_delta(&delta);
    enc.u64(budget::spent_evals().saturating_sub(evals_before));
    enc.u64(budget::spent_newton_iters().saturating_sub(newton_before));
    enc.bool(assumed);
    enc.u64(fp);
    let mut fp_enc = Enc::new();
    fp_enc.u64(fp);
    ck.store
        .commit(SIM_PATTERN_TAG, fp_enc.finish())
        .and_then(|()| ck.store.commit(TAG, enc.finish()))
        .map_err(|e| FlowError::Checkpoint(e.to_string()))?;
    if ck.interrupt_after.as_deref() == Some(TAG) {
        return Err(FlowError::Interrupted {
            stage: TAG.to_string(),
        });
    }
    Ok(assumed)
}

// ---------------------------------------------------------------------
// Payload codecs. Maps are encoded sorted-by-key so payloads are
// byte-stable across HashMap iteration orders.
// ---------------------------------------------------------------------

// det-lint: allow(hash-collection): encoded sorted-by-key below
fn enc_f64_map(e: &mut Enc, m: &HashMap<String, f64>) {
    let mut keys: Vec<&String> = m.keys().collect();
    keys.sort();
    e.usize(keys.len());
    for k in keys {
        e.str(k);
        e.f64(m[k]);
    }
}

// det-lint: allow(hash-collection): decode target, read by key only
fn dec_f64_map(d: &mut Dec<'_>) -> Result<HashMap<String, f64>, DecodeError> {
    let len = d.len_prefix(16)?;
    let mut m = HashMap::with_capacity(len);
    for _ in 0..len {
        let k = d.str()?;
        let v = d.f64()?;
        m.insert(k, v);
    }
    Ok(m)
}

pub(crate) fn enc_ranked(e: &mut Enc, ranked: &Vec<String>) {
    e.usize(ranked.len());
    for t in ranked {
        e.str(t);
    }
}

pub(crate) fn dec_ranked(d: &mut Dec<'_>) -> Result<Vec<String>, DecodeError> {
    let len = d.len_prefix(8)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(d.str()?);
    }
    Ok(out)
}

pub(crate) fn enc_sizing(e: &mut Enc, s: &SizingResult) {
    enc_f64_map(e, &s.params);
    enc_f64_map(e, &s.perf);
    e.bool(s.feasible);
    e.f64(s.cost);
    e.usize(s.evaluations);
}

pub(crate) fn dec_sizing(d: &mut Dec<'_>) -> Result<SizingResult, DecodeError> {
    Ok(SizingResult {
        params: dec_f64_map(d)?,
        perf: dec_f64_map(d)?,
        feasible: d.bool()?,
        cost: d.f64()?,
        evaluations: d.usize()?,
    })
}

fn layer_code(l: Layer) -> u8 {
    Layer::ALL
        .iter()
        .position(|&x| x == l)
        .expect("Layer::ALL covers every variant") as u8
}

fn layer_from(code: u8) -> Result<Layer, DecodeError> {
    Layer::ALL
        .get(code as usize)
        .copied()
        .ok_or(DecodeError::BadDiscriminant(code))
}

fn enc_rect(e: &mut Enc, r: &Rect) {
    e.i64(r.x0);
    e.i64(r.y0);
    e.i64(r.x1);
    e.i64(r.y1);
}

fn dec_rect(d: &mut Dec<'_>) -> Result<Rect, DecodeError> {
    Ok(Rect {
        x0: d.i64()?,
        y0: d.i64()?,
        x1: d.i64()?,
        y1: d.i64()?,
    })
}

fn enc_cell_layout(e: &mut Enc, l: &CellLayout) {
    e.usize(l.devices.len());
    for dv in &l.devices {
        e.str(&dv.name);
        e.usize(dv.shapes.len());
        for (layer, r) in &dv.shapes {
            e.u8(layer_code(*layer));
            enc_rect(e, r);
        }
        let mut ports: Vec<&String> = dv.ports.keys().collect();
        ports.sort();
        e.usize(ports.len());
        for p in ports {
            e.str(p);
            enc_rect(e, &dv.ports[p]);
        }
    }
    enc_rect(e, &l.bbox);
    e.f64(l.area_um2);
    e.f64(l.wirelength_um);
    e.usize(l.vias);
    e.usize(l.merges);
    e.usize(l.failed_nets.len());
    for n in &l.failed_nets {
        e.str(n);
    }
    enc_f64_map(e, &l.net_caps);
    e.usize(l.crosstalk_adjacencies);
}

fn dec_cell_layout(d: &mut Dec<'_>) -> Result<CellLayout, DecodeError> {
    let n_dev = d.len_prefix(8)?;
    let mut devices = Vec::with_capacity(n_dev);
    for _ in 0..n_dev {
        let name = d.str()?;
        let n_shapes = d.len_prefix(33)?;
        let mut shapes = Vec::with_capacity(n_shapes);
        for _ in 0..n_shapes {
            let layer = layer_from(d.u8()?)?;
            shapes.push((layer, dec_rect(d)?));
        }
        let n_ports = d.len_prefix(40)?;
        // det-lint: allow(hash-collection): decode target, read by key only
        let mut ports = HashMap::with_capacity(n_ports);
        for _ in 0..n_ports {
            let p = d.str()?;
            ports.insert(p, dec_rect(d)?);
        }
        devices.push(DeviceLayout {
            name,
            shapes,
            ports,
        });
    }
    let bbox = dec_rect(d)?;
    let area_um2 = d.f64()?;
    let wirelength_um = d.f64()?;
    let vias = d.usize()?;
    let merges = d.usize()?;
    let n_failed = d.len_prefix(8)?;
    let mut failed_nets = Vec::with_capacity(n_failed);
    for _ in 0..n_failed {
        failed_nets.push(d.str()?);
    }
    let net_caps = dec_f64_map(d)?;
    let crosstalk_adjacencies = d.usize()?;
    Ok(CellLayout {
        devices,
        bbox,
        area_um2,
        wirelength_um,
        vias,
        merges,
        failed_nets,
        net_caps,
        crosstalk_adjacencies,
    })
}

/// Layout-stage payload: the cell plus whether the router was relaxed.
pub(crate) fn enc_layout_stage(e: &mut Enc, v: &(CellLayout, bool)) {
    enc_cell_layout(e, &v.0);
    e.bool(v.1);
}

pub(crate) fn dec_layout_stage(d: &mut Dec<'_>) -> Result<(CellLayout, bool), DecodeError> {
    let layout = dec_cell_layout(d)?;
    let relaxed = d.bool()?;
    Ok((layout, relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_opamp, FlowConfig};
    use ams_guard::SuperviseConfig;
    use ams_sizing::AnnealConfig;
    use ams_topology::Bound;

    fn opamp_spec() -> Spec {
        Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .require("slew_v_per_s", Bound::AtLeast(4e6))
            .require("swing_v", Bound::AtLeast(2.0))
            .minimizing("power_w")
    }

    fn unreachable_spec() -> Spec {
        Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("ugf_hz", Bound::AtLeast(4.9e7))
            .require("power_w", Bound::AtMost(6e-5))
            .minimizing("power_w")
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

    /// Byte-exact canonical rendering of everything a report carries
    /// (floats as IEEE-754 bit patterns, maps sorted by key).
    fn canon(r: &FlowReport) -> String {
        let map_canon = |m: &HashMap<String, f64>| {
            let mut keys: Vec<&String> = m.keys().collect();
            keys.sort();
            keys.iter()
                .map(|k| format!("{k}={:016x}", m[k.as_str()].to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "topo={} params=[{}] pre=[{}] post=[{}] iters={} area={:016x} wl={:016x} \
             vias={} merges={} failed={:?} caps=[{}] xtalk={} events={:?} outcome={:?}",
            r.topology,
            map_canon(&r.params),
            map_canon(&r.pre_layout_perf),
            map_canon(&r.post_layout_perf),
            r.iterations,
            r.layout.area_um2.to_bits(),
            r.layout.wirelength_um.to_bits(),
            r.layout.vias,
            r.layout.merges,
            r.layout.failed_nets,
            map_canon(&r.layout.net_caps),
            r.layout.crosstalk_adjacencies,
            r.events,
            r.outcome,
        )
    }

    #[test]
    fn resumable_fresh_run_matches_plain_flow() {
        let spec = opamp_spec();
        let tech = Technology::generic_1p2um();
        let cfg = quick_config();
        let plain = synthesize_opamp(&spec, &tech, 5e-12, &cfg).unwrap();
        let mut store = CkptStore::in_memory();
        let ckpt = synthesize_opamp_resumable(&spec, &tech, 5e-12, &cfg, FlowCkpt::new(&mut store))
            .unwrap();
        assert_eq!(canon(&ckpt), canon(&plain));
        // The journal holds at least topology + sizing + layout records.
        assert!(store.len() >= 3, "journal has {} records", store.len());
    }

    #[test]
    fn interrupted_and_resumed_matches_uninterrupted() {
        let spec = opamp_spec();
        let tech = Technology::generic_1p2um();
        let cfg = quick_config();
        let baseline = canon(&synthesize_opamp(&spec, &tech, 5e-12, &cfg).unwrap());
        for tag in ["topology", "sizing.0.0", "layout.0.0.rx1"] {
            let mut store = CkptStore::in_memory();
            let err = synthesize_opamp_resumable(
                &spec,
                &tech,
                5e-12,
                &cfg,
                FlowCkpt::interrupting_after(&mut store, tag),
            )
            .unwrap_err();
            assert_eq!(
                err,
                FlowError::Interrupted {
                    stage: tag.to_string()
                }
            );
            let resumed =
                synthesize_opamp_resumable(&spec, &tech, 5e-12, &cfg, FlowCkpt::new(&mut store))
                    .unwrap();
            assert_eq!(canon(&resumed), baseline, "resume after `{tag}` diverged");
        }
    }

    #[test]
    fn completed_journal_replays_to_the_same_report() {
        let spec = opamp_spec();
        let tech = Technology::generic_1p2um();
        let cfg = quick_config();
        let mut store = CkptStore::in_memory();
        let first =
            synthesize_opamp_resumable(&spec, &tech, 5e-12, &cfg, FlowCkpt::new(&mut store))
                .unwrap();
        let records = store.len();
        let again =
            synthesize_opamp_resumable(&spec, &tech, 5e-12, &cfg, FlowCkpt::new(&mut store))
                .unwrap();
        assert_eq!(canon(&again), canon(&first));
        assert_eq!(
            store.len(),
            records,
            "pure replay must not grow the journal"
        );
    }

    #[test]
    fn corrupt_sizing_record_is_a_checkpoint_error_not_a_panic() {
        let spec = opamp_spec();
        let tech = Technology::generic_1p2um();
        let cfg = quick_config();
        let mut store = CkptStore::in_memory();
        // Commit garbage under the tag the flow will try to replay.
        store.commit("sizing.0.0", vec![0xFF; 7]).unwrap();
        let err = synthesize_opamp_resumable(&spec, &tech, 5e-12, &cfg, FlowCkpt::new(&mut store))
            .unwrap_err();
        assert!(
            matches!(err, FlowError::Checkpoint(_)),
            "expected Checkpoint error, got {err:?}"
        );
    }

    #[test]
    fn resumed_pattern_mismatch_is_a_checkpoint_error() {
        let tech = Technology::generic_1p2um();
        // det-lint: allow(hash-collection): empty sizing param map in a test
        let params = HashMap::new();
        let mut store = CkptStore::in_memory();
        // Forge a bias record whose fingerprint cannot match the rebuilt
        // session (the real FNV fold never returns 0 for this circuit).
        let mut enc = Enc::new();
        enc.counter_delta(&[]);
        enc.u64(0);
        enc.u64(0);
        enc.bool(false);
        enc.u64(0xDEAD_BEEF);
        store.commit("bias.fallback", enc.finish()).unwrap();
        let mut ck = FlowCkpt::new(&mut store);
        let mut opt = Some(&mut ck);
        let err = bias_stage(&mut opt, &tech, 5e-12, &params).unwrap_err();
        let FlowError::Checkpoint(msg) = err else {
            panic!("expected Checkpoint error, got {err:?}");
        };
        assert!(msg.contains("disagrees"), "{msg}");
    }

    #[test]
    fn bias_stage_recaptures_pattern_on_resume() {
        let tech = Technology::generic_1p2um();
        // det-lint: allow(hash-collection): empty sizing param map in a test
        let params = HashMap::new();
        let mut store = CkptStore::in_memory();
        let first = {
            let mut ck = FlowCkpt::new(&mut store);
            let mut opt = Some(&mut ck);
            bias_stage(&mut opt, &tech, 5e-12, &params).unwrap()
        };
        assert!(store.find(SIM_PATTERN_TAG).is_some());
        let again = {
            let mut ck = FlowCkpt::new(&mut store);
            let mut opt = Some(&mut ck);
            bias_stage(&mut opt, &tech, 5e-12, &params).unwrap()
        };
        assert_eq!(first, again);
    }

    #[test]
    fn supervised_retry_escalates_policy_and_labels_outcome() {
        // Start strict on a spec no topology can size: attempts 0–2 fail
        // (escalation stops short of accept-degraded), attempt 3 runs the
        // full default ladder and hands back a degraded-but-real design.
        let spec = unreachable_spec();
        let tech = Technology::generic_1p2um();
        let mut cfg = quick_config();
        cfg.recovery = crate::RecoveryPolicy::strict();
        let mut store = CkptStore::in_memory();
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let (result, report) =
            supervised_synthesize(&spec, &tech, 5e-12, &cfg, &mut store, &mut sup);
        let rep = result
            .expect("not quarantined")
            .expect("final attempt succeeds");
        assert_eq!(report.retries, 3, "{report}");
        assert!(report.backoff_evals > 0);
        let FlowOutcome::Degraded { reasons } = &rep.outcome else {
            panic!("expected degraded outcome, got {:?}", rep.outcome);
        };
        assert!(
            reasons
                .iter()
                .any(|r| matches!(r, DegradeReason::SupervisedRetry { attempts: 4 })),
            "reasons: {reasons:?}"
        );
        assert!(rep.layout.area_um2 > 0.0);
    }

    #[test]
    fn interrupted_run_resumes_under_supervision() {
        // A journal left by a crashed run: supervision's first attempt
        // resumes it to completion with zero retries and no degradation
        // label.
        let spec = opamp_spec();
        let tech = Technology::generic_1p2um();
        let cfg = quick_config();
        let baseline = canon(&synthesize_opamp(&spec, &tech, 5e-12, &cfg).unwrap());
        let mut store = CkptStore::in_memory();
        let _ = synthesize_opamp_resumable(
            &spec,
            &tech,
            5e-12,
            &cfg,
            FlowCkpt::interrupting_after(&mut store, "sizing.0.0"),
        )
        .unwrap_err();
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let (result, report) =
            supervised_synthesize(&spec, &tech, 5e-12, &cfg, &mut store, &mut sup);
        let rep = result.expect("not quarantined").expect("resume succeeds");
        assert_eq!(report.retries, 0, "{report}");
        assert_eq!(canon(&rep), baseline);
    }
}
