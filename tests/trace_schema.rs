//! Golden schema test for the Chrome trace-event exporter, plus a smoke
//! test that the disabled fast path stays cheap. The two tests toggle the
//! global collector, so they serialize on a local mutex.

use ams::trace::json::Value;
use ams::trace::TelemetryEvent;
use std::sync::Mutex;
use std::time::Instant;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn chrome_trace_export_matches_schema() {
    let _guard = lock();
    ams::trace::set_enabled(true);
    ams::trace::reset();

    // Known activity: 3 span records (2 distinct paths), 2 events,
    // 2 counters, 1 histogram.
    for i in 0..2 {
        let _outer = ams::trace::span("schema.outer");
        ams::trace::counter_add("schema.widgets", 3);
        ams::trace::record("schema.latency", 1.5 * (i + 1) as f64);
        if i == 0 {
            let _inner = ams::trace::span("schema.inner");
            ams::trace::counter_add("schema.gadgets", 1);
            ams::trace::emit(TelemetryEvent::StageReplayed {
                tag: "schema.milestone".into(),
            });
        }
    }
    ams::trace::emit(TelemetryEvent::Degraded {
        reason: "schema.done".into(),
    });

    let snap = ams::trace::snapshot();
    let text = snap.to_chrome_json();
    ams::trace::set_enabled(false);

    // The exporter's own validator accepts its output...
    let stats = ams::trace::validate_chrome_trace(&text).expect("export must validate");
    assert_eq!(stats.complete_events, 3, "2 outer spans + 1 inner span");
    assert_eq!(stats.instant_events, 2, "one instant per event");
    assert_eq!(stats.counter_events, 2, "one C event per counter");
    assert!(stats.total_events >= 3 + 2 + 2, "plus metadata");

    // ...and the golden shape holds field by field.
    let root = ams::trace::json::parse(&text).expect("well-formed JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let ph = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_string);
    assert_eq!(
        ph(&events[0]).as_deref(),
        Some("M"),
        "leading process_name metadata event"
    );
    for e in events {
        let phase = ph(e).expect("every event has ph");
        assert!(e.get("name").and_then(Value::as_str).is_some());
        assert!(e.get("pid").and_then(Value::as_f64).is_some());
        match phase.as_str() {
            "X" => {
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                assert!(e
                    .get("dur")
                    .and_then(Value::as_f64)
                    .is_some_and(|d| d >= 0.0));
                assert!(
                    e.get("args")
                        .and_then(|a| a.get("path"))
                        .and_then(Value::as_str)
                        .is_some(),
                    "span events carry their full path"
                );
            }
            "i" => {
                assert_eq!(e.get("s").and_then(Value::as_str), Some("t"));
                assert!(e.get("ts").and_then(Value::as_f64).is_some());
                // An event instant is named by its kind and carries its
                // JSONL object, sequence number included, as args.
                let args = e.get("args").expect("event instants carry args");
                assert_eq!(
                    args.get("type").and_then(Value::as_str),
                    e.get("name").and_then(Value::as_str)
                );
                assert!(args.get("seq").and_then(Value::as_f64).is_some());
            }
            "C" => {
                let v = e
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .expect("counter events carry args.value");
                assert!(v > 0.0);
            }
            "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // Nested span path joined with '/' shows up.
    let has_inner_path = events.iter().any(|e| {
        e.get("args")
            .and_then(|a| a.get("path"))
            .and_then(Value::as_str)
            == Some("schema.outer/schema.inner")
    });
    assert!(has_inner_path, "nested span path missing from export");

    // Events keep their fields and their emission order.
    let instants: Vec<_> = events
        .iter()
        .filter(|e| ph(e).as_deref() == Some("i"))
        .map(|e| {
            let args = e.get("args").expect("args");
            let field = args.get("tag").or(args.get("reason"));
            (
                args.get("seq").and_then(Value::as_f64),
                field.and_then(Value::as_str).map(str::to_string),
            )
        })
        .collect();
    assert_eq!(
        instants,
        [
            (Some(0.0), Some("schema.milestone".to_string())),
            (Some(1.0), Some("schema.done".to_string())),
        ]
    );
}

#[test]
fn disabled_path_is_cheap() {
    let _guard = lock();
    ams::trace::set_enabled(false);

    let start = Instant::now();
    for i in 0..1_000_000u64 {
        ams::trace::counter_add("smoke.counter", i & 1);
        let _s = ams::trace::span("smoke.span");
        ams::trace::record("smoke.hist", 1.0);
    }
    let elapsed = start.elapsed();

    // 3M disabled calls are a handful of milliseconds even in debug builds;
    // the bound is deliberately generous for loaded CI machines.
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "disabled instrumentation too slow: {elapsed:?} for 3M calls"
    );

    // And none of it was recorded.
    let snap = ams::trace::snapshot();
    assert!(!snap.counters.contains_key("smoke.counter"));
    assert!(!snap.spans.contains_key("smoke.span"));
}
