//! The telemetry event stream, end to end:
//!
//! * every event variant survives a JSONL round-trip to identical bytes
//!   and re-parses with the in-tree `ams::trace::json` parser, with
//!   `u64` fields exact up to `u64::MAX`;
//! * the same seeded GA run renders a byte-identical `to_jsonl()` at 1, 2
//!   and 8 exec workers (worker-side events are captured per item and
//!   replayed in item-index order);
//! * with the collector off, `emit` stays a single atomic load —
//!   smoke-checked like the collector's disabled path;
//! * failure forensics snapshots capture and clear through the
//!   last-failure slot.
//!
//! The collector and the exec worker count are process-global, so every
//! test serializes on one mutex.

use ams::core::{table1_spec, SimulatedPulseDetectorModel};
use ams::prelude::*;
use ams::trace::TelemetryEvent;
use ams_sizing::{evolve, GaConfig};
use std::sync::Mutex;
use std::time::Instant;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn every_variant() -> Vec<TelemetryEvent> {
    let mut events = vec![
        TelemetryEvent::TopologySelected {
            name: "two_stage".into(),
            candidates: 3,
        },
        TelemetryEvent::Sized {
            iteration: 1,
            feasible: false,
            power_w: 1.5e-4,
        },
        TelemetryEvent::LintChecked {
            errors: 0,
            warnings: 2,
            structurally_sound: true,
        },
        TelemetryEvent::LayoutDone {
            area_um2: 12_345.5,
            complete: false,
        },
        TelemetryEvent::PostLayoutVerified {
            passed: true,
            ugf_degradation: 0.0625,
        },
        TelemetryEvent::Degraded {
            reason: "router configuration relaxed".into(),
        },
        TelemetryEvent::Failed {
            reason: "[E001] node \"out\" floats".into(),
        },
        TelemetryEvent::StageReplayed {
            tag: "layout.0.0.rx1".into(),
        },
        TelemetryEvent::NewtonStart { unknowns: 17 },
        TelemetryEvent::NewtonEnd {
            iterations: 9,
            converged: true,
            residual: 3.25e-13,
        },
        TelemetryEvent::TranStep {
            time_s: 1.25e-6,
            dt_s: 2.5e-9,
            accepted: false,
            newton_iters: 4,
        },
        TelemetryEvent::OptimizerGeneration {
            algorithm: "anneal".into(),
            generation: 12,
            evals: 2400,
            best_cost: -7.25,
        },
        TelemetryEvent::RouteNet {
            net: "\"vdd\"\n".into(),
            routed: true,
            expansions: 4096,
        },
        TelemetryEvent::Budget {
            resource: "evaluations".into(),
            limit: 1000,
            spent: 1001,
        },
    ];
    // Seeds drawn with `next_u64()` use the whole range; f64 holds
    // integers exactly only up to 2^53.
    for seed in [99, (1 << 53) + 1, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
        events.push(TelemetryEvent::OptimizerStart {
            algorithm: "ga".into(),
            seed,
        });
    }
    events
}

#[test]
fn jsonl_round_trip_through_json_parser() {
    for (seq, ev) in every_variant().into_iter().enumerate() {
        let line = ev.to_json_line(seq as u64);
        // The line is valid JSON for the in-tree parser and carries the
        // schema envelope.
        let v = ams::trace::json::parse(&line).expect("event line must be valid JSON");
        assert_eq!(
            v.get("seq").and_then(|s| s.as_f64()),
            Some(seq as f64),
            "{line}"
        );
        assert_eq!(
            v.get("type").and_then(|t| t.as_str()),
            Some(ev.kind()),
            "{line}"
        );
        // And it round-trips to the identical event and identical bytes.
        let (back_seq, back) =
            TelemetryEvent::parse_json_line(&line).expect("line must parse back");
        assert_eq!(back_seq, seq as u64);
        assert_eq!(back, ev);
        assert_eq!(back.to_json_line(back_seq), line);
    }
}

/// The JSONL rendering of one seeded GA run, asserting the ring dropped
/// nothing while it ran.
fn streamed_ga_run(threads: usize) -> String {
    ams_exec::set_threads(Some(threads));
    ams::trace::set_enabled(true);
    ams::trace::reset();

    let model = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
    let models: [&dyn PerfModel; 1] = [&model];
    let ga = GaConfig {
        population: 12,
        generations: 2,
        seed: 7,
        ..Default::default()
    };
    let r = evolve(&models, &table1_spec(), &ga);
    assert!(r.sizing.cost.is_finite());

    ams::trace::set_enabled(false);
    ams_exec::set_threads(None);
    let snap = ams::trace::snapshot();
    assert_eq!(snap.dropped_events, 0, "the ring must not drop in this run");
    snap.to_jsonl()
}

#[test]
fn event_stream_byte_identical_across_worker_counts() {
    let _guard = lock();
    let one = streamed_ga_run(1);
    let two = streamed_ga_run(2);
    let eight = streamed_ga_run(8);
    assert!(one.lines().count() > 2, "stream must carry events:\n{one}");
    assert_eq!(one, two, "1-thread vs 2-thread event streams differ");
    assert_eq!(one, eight, "1-thread vs 8-thread event streams differ");
    // The documented JSONL schema end to end: consecutive seqs from 0,
    // and each line is exactly its event re-rendered, so it carries no
    // field (such as a timestamp) beyond the event's own.
    for (i, line) in one.lines().enumerate() {
        let (seq, ev) = TelemetryEvent::parse_json_line(line).expect("schema line");
        assert_eq!(seq, i as u64, "{line}");
        assert_eq!(ev.to_json_line(seq), line);
        for key in ["ts", "ts_us", "dur", "tid"] {
            assert!(!line.contains(&format!("\"{key}\":")), "{line}");
        }
    }
    assert!(one.starts_with("{\"seq\":0,\"type\":\"optimizer_start\""));
}

#[test]
fn disarmed_emit_is_cheap() {
    let _guard = lock();
    ams::trace::set_enabled(false);
    ams::trace::reset();

    let start = Instant::now();
    for i in 0..1_000_000u64 {
        // The call-site pattern: gate on enabled() before building an
        // event that allocates, and emit allocation-free events directly.
        // Both must stay on the atomic-load fast path.
        if ams::trace::enabled() {
            ams::trace::emit(TelemetryEvent::Degraded {
                reason: "never built".into(),
            });
        }
        ams::trace::emit(TelemetryEvent::NewtonStart { unknowns: i });
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "disarmed emit too slow: {elapsed:?} for 1M checks"
    );
    assert_eq!(ams::trace::snapshot().events().count(), 0);
}

#[test]
fn forensics_capture_and_clear() {
    let _guard = lock();
    ams::trace::set_enabled(true);
    ams::trace::reset();
    ams::trace::emit(TelemetryEvent::Degraded {
        reason: "unit".into(),
    });
    ams::trace::record_failure("SimError: test singular matrix");
    let snap = ams::trace::take_last_failure().expect("failure recorded");
    assert!(snap.context.contains("singular"));
    assert!(
        snap.recent_events
            .iter()
            .any(|(_, e)| e.kind() == "degraded"),
        "ring must hold the degraded event"
    );
    assert!(
        ams::trace::take_last_failure().is_none(),
        "slot is take-once"
    );
    ams::trace::set_enabled(false);
}
