//! The one event model: typed [`TelemetryEvent`]s in the flight ring.
//!
//! Every layer of the workspace can [`emit`] a typed [`TelemetryEvent`]
//! (flow phase, checkpoint replay, Newton solve, transient step, optimizer
//! start and generation, route commit, budget exhaustion). While the
//! collector is on ([`set_enabled`](crate::set_enabled)), `emit` assigns
//! the next sequence number and pushes the event into the same flight ring
//! as closed spans, both under the collector's one lock, so ring order is
//! sequence order. The ring has three renderings: Chrome trace instants
//! ([`Snapshot::to_chrome_json`](crate::Snapshot::to_chrome_json)), JSON
//! Lines ([`Snapshot::to_jsonl`](crate::Snapshot::to_jsonl)) and the last
//! [`FORENSICS_EVENTS`](crate::FORENSICS_EVENTS) events of a
//! [`forensics`](crate::forensics) snapshot.
//!
//! # Determinism contract
//!
//! Events carry **no wall-clock fields**: every payload is a pure function
//! of the seeded computation, so two same-seed runs produce byte-identical
//! JSONL. Events emitted inside `ams_exec::par_map_indexed` workers are
//! buffered per item via [`capture`] and [`replay`]ed on the calling
//! thread in item-index order, so the stream is also byte-identical at any
//! worker count.
//!
//! # Cost model
//!
//! While the collector is off — the default — [`emit`] is one relaxed
//! atomic load, like every other collector call.

use std::fmt::Write as _;

use crate::json;

/// Declares [`TelemetryEvent`] from one table of variants, each with its
/// JSONL `type` tag and its fields. The enum, [`TelemetryEvent::kind`],
/// the JSONL writer and the JSONL reader are all generated from that
/// table, so a field is named once.
macro_rules! telemetry_events {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $kind:literal {
            $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// One structured event of a run.
        ///
        /// The variants cover the §2.1 flow phases and the solver
        /// milestones under them. All fields are deterministic under the
        /// seeded-run contract: counts, names, residuals, never wall-clock
        /// times.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {
            $(
                $(#[doc = $doc])*
                $variant {
                    $($(#[doc = $fdoc])* $field: $ty,)*
                },
            )*
        }

        impl TelemetryEvent {
            /// Stable snake_case tag used as the JSONL `type` field.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TelemetryEvent::$variant { .. } => $kind,)*
                }
            }

            /// Serializes the event as one JSON object (no trailing
            /// newline).
            ///
            /// `seq` is the sequence number [`emit`] assigned; floats use
            /// Rust's shortest round-trip formatting so `parse ∘ render` is
            /// lossless.
            pub fn to_json_line(&self, seq: u64) -> String {
                let mut s = format!("{{\"seq\":{seq},\"type\":\"{}\"", self.kind());
                match self {
                    $(TelemetryEvent::$variant { $($field,)* } => {
                        $(
                            s.push_str(concat!(",\"", stringify!($field), "\":"));
                            Field::write($field, &mut s);
                        )*
                    })*
                }
                s.push('}');
                s
            }

            /// Parses one JSONL line back into `(seq, event)`.
            ///
            /// # Errors
            ///
            /// Malformed JSON, an unknown `type`, or a missing or mistyped
            /// field. An integer field must be a plain non-negative integer
            /// literal that fits in `u64`; it is read exactly, never through
            /// `f64`.
            pub fn parse_json_line(line: &str) -> Result<(u64, TelemetryEvent), String> {
                let members = json::members(line.trim())?;
                let seq = read(&members, "seq")?;
                let ev = match read::<String>(&members, "type")?.as_str() {
                    $($kind => TelemetryEvent::$variant {
                        $($field: read(&members, stringify!($field))?,)*
                    },)*
                    other => return Err(format!("unknown event type {other:?}")),
                };
                Ok((seq, ev))
            }
        }
    };
}

telemetry_events! {
    /// Topology selection finished.
    TopologySelected = "topology_selected" {
        /// Winning topology name.
        name: String,
        /// Candidates that survived screening.
        candidates: u64,
    }
    /// A sizing pass finished.
    Sized = "sized" {
        /// Redesign iteration number (0 = first pass).
        iteration: u64,
        /// Whether the pre-layout spec was met.
        feasible: bool,
        /// Power of the sized design, watts.
        power_w: f64,
    }
    /// The static electrical-rule check ran over the sized device-level
    /// circuit before any simulation or layout was attempted.
    LintChecked = "lint_checked" {
        /// Error-severity ERC diagnostics (0 for a clean gate).
        errors: u64,
        /// Warning-severity ERC diagnostics.
        warnings: u64,
        /// Whether the structural analyzer proved the MNA pattern
        /// nonsingular (maximum-transversal perfect matching).
        structurally_sound: bool,
    }
    /// Layout was generated.
    LayoutDone = "layout_done" {
        /// Cell area in µm².
        area_um2: f64,
        /// Whether every net routed.
        complete: bool,
    }
    /// Post-extraction verification verdict.
    PostLayoutVerified = "post_layout_verified" {
        /// Whether the spec still holds with parasitics.
        passed: bool,
        /// UGF degradation fraction caused by parasitics.
        ugf_degradation: f64,
    }
    /// A recovery policy accepted a degradation instead of failing.
    Degraded = "degraded" {
        /// The rendered degradation reason.
        reason: String,
    }
    /// The flow gave up.
    Failed = "failed" {
        /// Why the flow stopped.
        reason: String,
    }
    /// A resumed flow replayed a checkpointed stage instead of computing it.
    StageReplayed = "stage_replayed" {
        /// Journal tag of the replayed stage.
        tag: String,
    }
    /// A DC Newton solve is starting.
    NewtonStart = "newton_start" {
        /// System size (MNA unknowns).
        unknowns: u64,
    }
    /// A DC Newton solve finished.
    NewtonEnd = "newton_end" {
        /// Iterations consumed.
        iterations: u64,
        /// Whether the solve converged.
        converged: bool,
        /// Final max-norm residual (the damped delta-x norm).
        residual: f64,
    }
    /// A transient integration step was accepted or rejected.
    TranStep = "tran_step" {
        /// Step end time, seconds.
        time_s: f64,
        /// Step size attempted, seconds.
        dt_s: f64,
        /// Whether the step was accepted.
        accepted: bool,
        /// Newton iterations spent on the step.
        newton_iters: u64,
    }
    /// An optimizer started a search; its best-cost curve follows as
    /// `OptimizerGeneration` events.
    OptimizerStart = "optimizer_start" {
        /// Algorithm name (`ga`, `anneal`).
        algorithm: String,
        /// Seed driving the search.
        seed: u64,
    }
    /// An optimizer finished one generation / stage.
    OptimizerGeneration = "optimizer_generation" {
        /// Algorithm name (`ga`, `anneal`).
        algorithm: String,
        /// Generation (GA) or stage (anneal) index, 0-based.
        generation: u64,
        /// Cumulative candidate evaluations so far in this run.
        evals: u64,
        /// Best cost seen so far (lower is better).
        best_cost: f64,
    }
    /// A net was committed (or abandoned) by the router.
    RouteNet = "route_net" {
        /// Net name.
        net: String,
        /// Whether a path was committed.
        routed: bool,
        /// Maze expansions spent on this net.
        expansions: u64,
    }
    /// A cooperative budget was exhausted.
    Budget = "budget" {
        /// Resource name (`evals`, `newton_iters`, `wall_clock`).
        resource: String,
        /// Configured limit.
        limit: u64,
        /// Amount spent at the crossing.
        spent: u64,
    }
}

/// How one event field is written to, and read back from, its JSONL text.
trait Field: Sized {
    fn write(&self, out: &mut String);
    /// Decodes a member's raw JSON text; `None` when it is not a `Self`.
    fn decode(raw: &str) -> Option<Self>;
}

/// Decodes the member `key` of a JSONL line split by [`json::members`].
fn read<T: Field>(members: &[(String, &str)], key: &str) -> Result<T, String> {
    let raw = members
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, raw)| *raw)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    T::decode(raw).ok_or_else(|| format!("field {key:?}: unexpected value {raw}"))
}

impl Field for String {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", json::escape_str(self));
    }
    fn decode(raw: &str) -> Option<Self> {
        json::parse(raw).ok()?.as_str().map(str::to_string)
    }
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    /// Exact: a negative, fractional or exponent literal is an error, not
    /// a cast.
    fn decode(raw: &str) -> Option<Self> {
        raw.parse().ok()
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        out.push_str(&fmt_f64(*self));
    }
    fn decode(raw: &str) -> Option<Self> {
        if raw == "null" {
            return Some(f64::NAN);
        }
        raw.parse().ok()
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(raw: &str) -> Option<Self> {
        raw.parse().ok()
    }
}

/// Formats an `f64` so that `str::parse::<f64>` round-trips it exactly,
/// staying valid JSON (no `inf`/`NaN` — clamped to large sentinels).
fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        return "null".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "1e308" } else { "-1e308" }.to_string();
    }
    let s = format!("{x}");
    // `{}` never prints an exponent-free integer with a dot; keep the
    // value a JSON number that parses back to the same bits.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

thread_local! {
    /// Per-thread capture buffer stack; non-empty while inside [`capture`].
    static CAPTURE: std::cell::RefCell<Vec<Vec<TelemetryEvent>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Emits one event.
///
/// Off: a single relaxed atomic load. On: the event is either appended to
/// the calling thread's [`capture`] buffer (inside a parallel worker) or
/// given the next sequence number and pushed into the flight ring.
#[inline]
pub fn emit(ev: TelemetryEvent) {
    if !crate::enabled() {
        return;
    }
    emit_armed(ev);
}

#[cold]
fn emit_armed(ev: TelemetryEvent) {
    let ev = CAPTURE.with(|c| match c.borrow_mut().last_mut() {
        Some(buf) => {
            buf.push(ev);
            None
        }
        None => Some(ev),
    });
    if let Some(ev) = ev {
        crate::collector().push_event(ev);
    }
}

/// Runs `f` with this thread's emissions redirected into a local buffer,
/// returning the result and the buffered events.
///
/// This is the worker-side half of the thread-count determinism contract:
/// `ams_exec::par_map_indexed` captures per item and [`replay`]s the
/// buffers on the calling thread in item-index order. Off, this is one
/// atomic load plus a direct call.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<TelemetryEvent>) {
    if !crate::enabled() {
        return (f(), Vec::new());
    }
    CAPTURE.with(|c| c.borrow_mut().push(Vec::new()));
    let out = f();
    let events = CAPTURE.with(|c| c.borrow_mut().pop().unwrap_or_default());
    (out, events)
}

/// Emits previously [`capture`]d events, in order, on this thread.
pub fn replay(events: Vec<TelemetryEvent>) {
    if events.is_empty() || !crate::enabled() {
        return;
    }
    // If the calling thread is itself inside a capture (nested parallel
    // sections), this forwards into the outer buffer.
    for ev in events {
        emit_armed(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reset, set_enabled, snapshot, test_lock};

    fn sample_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::TopologySelected {
                name: "two_stage \"miller\"".into(),
                candidates: 3,
            },
            TelemetryEvent::NewtonStart { unknowns: 7 },
            TelemetryEvent::NewtonEnd {
                iterations: 12,
                converged: true,
                residual: 3.0517578125e-10,
            },
            TelemetryEvent::TranStep {
                time_s: 1.25e-6,
                dt_s: 2.5e-8,
                accepted: false,
                newton_iters: 60,
            },
            TelemetryEvent::OptimizerGeneration {
                algorithm: "ga".into(),
                generation: 3,
                evals: 144,
                best_cost: 0.015625,
            },
            TelemetryEvent::OptimizerStart {
                algorithm: "anneal".into(),
                seed: u64::MAX,
            },
            TelemetryEvent::RouteNet {
                net: "net\\7".into(),
                routed: true,
                expansions: 991,
            },
            TelemetryEvent::Degraded {
                reason: "router_relaxed".into(),
            },
            TelemetryEvent::Budget {
                resource: "evals".into(),
                limit: 100,
                spent: 100,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        for (i, ev) in sample_events().into_iter().enumerate() {
            let line = ev.to_json_line(i as u64);
            let (seq, back) = TelemetryEvent::parse_json_line(&line).expect("parse");
            assert_eq!(seq, i as u64);
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn integer_fields_reject_what_u64_cannot_hold() {
        for bad in ["-1", "1.5", "1e3", "18446744073709551616", "\"7\"", "null"] {
            let line = format!("{{\"seq\":0,\"type\":\"newton_start\",\"unknowns\":{bad}}}");
            let err = TelemetryEvent::parse_json_line(&line).expect_err(bad);
            assert!(err.contains("unknowns"), "{bad}: {err}");
        }
        let missing = TelemetryEvent::parse_json_line("{\"seq\":0,\"type\":\"newton_start\"}");
        assert!(missing.is_err());
    }

    #[test]
    fn f64_formatting_round_trips() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -3.5,
            1e-300,
            2.2250738585072014e-308,
            0.1 + 0.2,
            f64::MAX,
        ] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().expect("parse");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
        assert_eq!(fmt_f64(f64::INFINITY), "1e308");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn disarmed_emit_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        emit(TelemetryEvent::Degraded { reason: "x".into() });
        assert!(snapshot().flight.is_empty());
    }

    #[test]
    fn capture_defers_and_replay_delivers_in_order() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let ((), buffered) = capture(|| {
            emit(TelemetryEvent::NewtonStart { unknowns: 3 });
            emit(TelemetryEvent::NewtonEnd {
                iterations: 4,
                converged: true,
                residual: 1e-12,
            });
        });
        // Nothing reaches the ring while captured.
        assert_eq!(snapshot().events().count(), 0);
        assert_eq!(buffered.len(), 2);
        replay(buffered);
        let snap = snapshot();
        let kinds: Vec<_> = snap.events().map(|(seq, e)| (seq, e.kind())).collect();
        assert_eq!(kinds, [(0, "newton_start"), (1, "newton_end")]);
        set_enabled(false);
        reset();
    }
}
