//! The full §2.1 hierarchical flow: topology selection → sizing →
//! verification → layout → extraction → post-layout verification, with the
//! redesign loop visible in the event log.
//!
//! Run with: `cargo run --release --example opamp_flow`

use ams::prelude::*;
use ams::trace::TelemetryEvent;
use ams_netlist::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
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

    println!("== performance-driven flow (DAC'96 §2.1) ==");
    for event in &report.events {
        match event {
            TelemetryEvent::TopologySelected { name, candidates } => {
                println!("[top-down] topology selection: {name} ({candidates} candidates survived screening)");
            }
            TelemetryEvent::Sized {
                iteration,
                feasible,
                power_w,
            } => {
                println!(
                    "[top-down] sizing pass {iteration}: feasible={feasible}, power={}",
                    format_eng(*power_w, "W")
                );
            }
            TelemetryEvent::LintChecked {
                errors,
                warnings,
                structurally_sound,
            } => {
                println!(
                    "[top-down] ERC lint on sized circuit: {errors} errors, {warnings} warnings, \
                     structurally nonsingular: {structurally_sound}"
                );
            }
            TelemetryEvent::LayoutDone { area_um2, complete } => {
                println!("[bottom-up] layout: {area_um2:.0} um2, fully routed: {complete}");
            }
            TelemetryEvent::PostLayoutVerified {
                passed,
                ugf_degradation,
            } => {
                println!(
                    "[bottom-up] post-extraction verification: passed={passed}, UGF degraded {:.2}% by parasitics",
                    ugf_degradation * 100.0
                );
            }
            TelemetryEvent::Degraded { reason } => println!("[recovery] degraded: {reason}"),
            TelemetryEvent::Failed { reason } => println!("[flow] FAILED: {reason}"),
            other => println!("[{}]", other.kind()),
        }
    }

    println!("\n== result ==");
    println!("topology:   {}", report.topology);
    println!("iterations: {}", report.iterations);
    println!(
        "pre-layout:  gain {:.1} dB, UGF {}, power {}",
        report.pre_layout_perf["gain_db"],
        format_eng(report.pre_layout_perf["ugf_hz"], "Hz"),
        format_eng(report.pre_layout_perf["power_w"], "W"),
    );
    println!(
        "post-layout: gain {:.1} dB, UGF {}",
        report.post_layout_perf["gain_db"],
        format_eng(report.post_layout_perf["ugf_hz"], "Hz"),
    );
    println!(
        "layout: {:.0} um2, {:.0} um wire, {} vias, {} diffusion merges",
        report.layout.area_um2,
        report.layout.wirelength_um,
        report.layout.vias,
        report.layout.merges
    );
    assert!(report.meets(&spec));
    Ok(())
}
