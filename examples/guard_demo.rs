//! Fault injection and graceful degradation: a singular-pivot fault is
//! injected into every DC solve and a rip-up fault into the router, then
//! the full flow runs anyway — the DC ladder's perturbed restarts, the
//! relaxed-router rung, and the accept-degraded last resort turn what would
//! be a crash or an opaque error into an honestly-labelled `Degraded`
//! report.
//!
//! Run with: `cargo run --release --example guard_demo`

use ams::guard::fault;
use ams::prelude::*;
use ams::trace::TelemetryEvent;
use ams_core::FlowOutcome;
use ams_sizing::{SimulatedTemplate, TwoStageCircuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One switch arms spans, counters and events: the flight ring the
    // events enter is what the forensics snapshot below replays.
    ams::trace::set_enabled(true);

    let spec = Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(4e6))
        .require("swing_v", Bound::AtLeast(2.0))
        .minimizing("power_w");

    // Every 3rd LU factorization reports a singular pivot mid-flow, and
    // every 4th routed net fails its first rip-up attempt. Both plans are
    // plain data: same plan, same seeds, same run — byte for byte.
    let plan = FaultPlan::new()
        .fault(
            FaultKind::LuPivot,
            Trigger::Every {
                period: 3,
                offset: 1,
            },
        )
        .fault(
            FaultKind::RouterRipup,
            Trigger::Every {
                period: 4,
                offset: 0,
            },
        );
    println!("== arming fault plan ==");
    println!("  lu_pivot:     every 3rd factorization (from call 1)");
    println!("  router_ripup: every 4th first-attempt route");
    fault::arm(plan);

    let report = synthesize_opamp(
        &spec,
        &Technology::generic_1p2um(),
        5e-12,
        &FlowConfig::default(),
    )?;

    println!("\n== flow events under fault injection ==");
    for event in &report.events {
        match event {
            TelemetryEvent::Degraded { reason } => println!("  [recovery] {reason}"),
            TelemetryEvent::Failed { reason } => println!("  [flow] failed: {reason}"),
            other => println!("  [{}]", other.kind()),
        }
    }

    println!("\n== outcome ==");
    match &report.outcome {
        FlowOutcome::Nominal => println!("  nominal (faults absorbed without degradation)"),
        FlowOutcome::Degraded { reasons } => {
            println!("  DEGRADED — {} recovery rung(s) taken:", reasons.len());
            for r in reasons {
                println!("    - {r}");
            }
        }
    }
    println!(
        "  layout: {:.0} um2, fully routed: {}",
        report.layout.area_um2,
        report.layout.is_complete()
    );

    println!("\n== failure forensics (flight-recorder snapshot) ==");
    match &report.forensics {
        Some(f) => print!("{}", f.render()),
        None => println!("  (nominal run: no forensics attached)"),
    }

    // Device-level verification under the same plan: the DC ladder and its
    // perturbed restarts keep absorbing the injected singular pivots.
    let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
    let x: Vec<f64> = template
        .params()
        .iter()
        .map(|pd| (pd.lo * pd.hi).sqrt())
        .collect();
    let ckt = template.build(&x);
    println!("\n== device-level DC under injected singular pivots ==");
    match SimSession::new(&ckt).op() {
        Ok(op) => println!(
            "  recovered: strategy {:?}, {} Newton iterations",
            op.strategy, op.iterations
        ),
        Err(e) => {
            println!("  still failing after restarts: {e}");
            // The very last rung: linearize at an assumed operating point
            // (ASTRX/OBLX-style dc-free biasing) so downstream small-signal
            // tools still get a model.
            let dim = ams::sim::MnaLayout::new(&ckt).dim();
            let op = ams::sim::assumed_op(&ckt, &vec![0.0; dim])?;
            println!(
                "  last resort: linearized at an assumed bias point ({:?})",
                op.strategy
            );
        }
    }

    fault::disarm();

    println!("\n== recovery counters ==");
    let counters = ams::trace::snapshot().counters;
    for key in [
        "guard.faults_injected",
        "guard.fault.lu_pivot",
        "guard.fault.router_ripup",
        "guard.isolated_panics",
        "sim.dc_retries",
        "sim.dc_converged_assumed",
        "flow.topology_fallbacks",
        "flow.router_relaxed",
        "flow.degraded_accepts",
        "layout.route_budget_stops",
    ] {
        println!("  {key:32} {}", counters.get(key).copied().unwrap_or(0));
    }
    Ok(())
}
