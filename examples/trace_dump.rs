//! Observability demo: run the full opamp synthesis flow with the
//! `ams-trace` collector enabled, print the human-readable summary tree,
//! and write the flight ring's two file renderings: a Chrome trace-event
//! file and the JSON Lines event stream.
//!
//! Run with: `cargo run --release --example trace_dump`
//!
//! Then open `trace.json` in `chrome://tracing` (or https://ui.perfetto.dev)
//! to see the span timeline, the flow's events as instants, and counter
//! tracks; `events.jsonl` holds the same events, one JSON object a line.

use ams::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    ams::trace::set_enabled(true);
    ams::trace::reset();

    let spec = Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(4e6))
        .require("swing_v", Bound::AtLeast(2.0))
        .minimizing("power_w");

    let report = synthesize_opamp(
        &spec,
        &Technology::generic_1p2um(),
        5e-12,
        &FlowConfig::default(),
    )?;
    println!(
        "flow finished: topology {}, {:.0} um2, fully routed: {}\n",
        report.topology,
        report.layout.area_um2,
        report.layout.is_complete()
    );

    let snap = ams::trace::snapshot();
    println!("{}", snap.render_summary());

    let json = snap.to_chrome_json();
    let stats = ams::trace::validate_chrome_trace(&json)
        .map_err(|e| format!("invalid trace export: {e}"))?;
    std::fs::write("trace.json", &json)?;
    println!(
        "wrote trace.json ({} events: {} spans, {} instants, {} counters)",
        stats.total_events, stats.complete_events, stats.instant_events, stats.counter_events
    );
    let jsonl = snap.to_jsonl();
    std::fs::write("events.jsonl", &jsonl)?;
    println!("wrote events.jsonl ({} events)", jsonl.lines().count());
    println!("open it in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
