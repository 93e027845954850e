//! The hierarchical performance-driven design flow of §2.1.
//!
//! "Most experimental analog CAD systems presented today use a
//! performance-driven design strategy, that consists of the alternation of
//! the following steps in between two levels of the design hierarchy:
//! **top-down path**: topology selection, specification translation
//! (circuit sizing), design verification; **bottom-up path**: layout
//! generation, detailed design verification (after extraction). …
//! Redesign iterations are needed when the design fails to meet the
//! specifications at some point in the design flow."
//!
//! [`synthesize_opamp`] runs that exact loop for an opamp cell: select a
//! topology (boundary checking), size it (equation-based annealing),
//! verify (independent circuit simulation for the two-stage), lay it out
//! (KOAN/ANAGRAM-style macrocell flow), extract parasitics, re-verify with
//! them, and — when layout parasitics break the spec — iterate with
//! tightened sizing margins ("closing the loop" between layout and
//! synthesis, the open problem §3.1 highlights).

use ams_guard::{budget, BudgetExhausted, Resource};
use ams_layout::{
    layout_cell, two_stage_opamp_cell, CellDevice, CellLayout, CellOptions, DesignRules,
};
use ams_netlist::{Circuit, Technology};
use ams_sizing::{
    optimize, AnnealConfig, Perf, PerfModel, SizingResult, SymmetricalOtaModel, TwoStageModel,
};
use ams_topology::{select, BlockClass, Bound, Spec, TopologyLibrary};
use ams_trace::TelemetryEvent;
use std::fmt;

/// Builds the forensics snapshot attached to a degraded report: prefers
/// the deepest failure stashed by the sim layer (via
/// `ams_trace::record_failure`), falling back to a fresh capture at the
/// accept site. `None` while tracing is off.
fn degraded_forensics(reasons: &[DegradeReason]) -> Option<ams_trace::ForensicsSnapshot> {
    if !ams_trace::enabled() {
        return None;
    }
    let ctx = format!(
        "degraded: {}",
        reasons
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
    Some(match ams_trace::take_last_failure() {
        Some(mut f) => {
            f.context = format!("{ctx} [{}]", f.context);
            f
        }
        None => ams_trace::forensics(&ctx),
    })
}

/// Stashes a terminal flow error in the global forensics slot so callers
/// that only see the `Err` can still pull the flight recorder.
fn note_flow_failure(e: &FlowError) -> FlowError {
    if ams_trace::enabled() {
        ams_trace::record_failure(&format!("FlowError: {e}"));
    }
    e.clone()
}

/// A run's story so far: the flow events it emitted and the recovery
/// rungs it took, both in order.
#[derive(Default)]
struct RunLog {
    events: Vec<TelemetryEvent>,
    reasons: Vec<DegradeReason>,
}

impl RunLog {
    /// Appends `event` to the flow log and emits it into the trace ring,
    /// so `FlowReport.events`, the JSONL stream and forensics tell one
    /// story.
    fn emit(&mut self, event: TelemetryEvent) {
        if ams_trace::enabled() {
            ams_trace::emit(event.clone());
        }
        self.events.push(event);
    }

    /// Takes one rung of the degradation ladder: its `degraded` event,
    /// then its reason.
    fn degrade(&mut self, reason: DegradeReason) {
        self.emit(TelemetryEvent::Degraded {
            reason: reason.to_string(),
        });
        self.reasons.push(reason);
    }

    /// Records why the run is about to return an error.
    fn fail(&mut self, reason: impl Into<String>) {
        self.emit(TelemetryEvent::Failed {
            reason: reason.into(),
        });
    }

    /// Hands `design` over: nominal when no rung was taken, otherwise
    /// degraded, with the rungs and a forensics snapshot. Every report the
    /// flow returns is built here.
    fn report(self, design: Design, iterations: usize) -> FlowReport {
        let (outcome, forensics) = if self.reasons.is_empty() {
            (FlowOutcome::Nominal, None)
        } else {
            let forensics = degraded_forensics(&self.reasons);
            let reasons = self.reasons;
            (FlowOutcome::Degraded { reasons }, forensics)
        };
        FlowReport {
            topology: design.topology,
            params: design.sizing.params,
            pre_layout_perf: design.sizing.perf,
            layout: design.layout,
            post_layout_perf: design.post_layout_perf,
            iterations,
            events: self.events,
            outcome,
            forensics,
        }
    }

    /// The accept-degraded rung for a complete design that failed
    /// verification: labels exactly what is wrong with it — unrouted nets,
    /// then a missed spec — and hands it over instead of discarding the
    /// work.
    fn accept_degraded(mut self, spec: &Spec, design: Design, iterations: usize) -> FlowReport {
        if !design.layout.is_complete() {
            self.degrade(DegradeReason::RoutingIncomplete {
                failed_nets: design.layout.failed_nets.len(),
            });
        }
        if !spec.satisfied_by(&design.post_layout_perf) {
            self.degrade(DegradeReason::SpecMissedPostLayout);
        }
        ams_trace::counter_add("flow.degraded_accepts", 1);
        self.report(design, iterations)
    }
}

/// A sized, laid-out and re-verified design: what a report hands back.
struct Design {
    topology: String,
    sizing: SizingResult,
    layout: CellLayout,
    post_layout_perf: Perf,
}

/// Errors terminating the flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// No library topology can meet the spec.
    NoFeasibleTopology,
    /// Sizing failed to find a feasible point after all redesign budgets.
    SizingInfeasible {
        /// Iterations attempted.
        iterations: usize,
    },
    /// Layout failed structurally.
    Layout(String),
    /// The sized circuit failed the static electrical-rule check; the
    /// message carries the first error diagnostic (rule code included).
    Erc(String),
    /// A [`Budget`](ams_guard::Budget) limit was crossed and the recovery
    /// policy forbids accepting a partial result.
    Budget(BudgetExhausted),
    /// The checkpoint journal failed (i/o, corruption) or disagrees with
    /// the live run (re-captured simulation pattern mismatch on resume).
    Checkpoint(String),
    /// A resumable run interrupted itself right after committing `stage`
    /// — the deterministic crash hook
    /// ([`FlowCkpt::interrupting_after`](crate::FlowCkpt::interrupting_after));
    /// resume by running again with the same store.
    Interrupted {
        /// Stage tag committed before the interrupt.
        stage: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::NoFeasibleTopology => write!(f, "no feasible topology in the library"),
            FlowError::SizingInfeasible { iterations } => {
                write!(
                    f,
                    "sizing infeasible after {iterations} redesign iterations"
                )
            }
            FlowError::Layout(m) => write!(f, "layout failed: {m}"),
            FlowError::Erc(m) => write!(f, "electrical rule check failed: {m}"),
            FlowError::Budget(e) => write!(f, "evaluation budget exhausted: {e}"),
            FlowError::Checkpoint(m) => write!(f, "checkpoint failure: {m}"),
            FlowError::Interrupted { stage } => {
                write!(f, "interrupted after checkpointing stage `{stage}`")
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// What the flow is allowed to do when a stage fails, instead of aborting:
/// one choice between two policies.
///
/// The default policy walks the whole graceful-degradation ladder (§2.1's
/// "redesign iterations", extended downward): fall back to the next-best
/// topology when sizing is infeasible, relax the router when nets fail to
/// route, and as a last resort accept a degraded design — reported
/// honestly via [`FlowOutcome::Degraded`] — rather than return
/// empty-handed. [`RecoveryPolicy::strict`] takes none of these rungs and
/// fails fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    recover: bool,
}

impl Default for RecoveryPolicy {
    /// The full degradation ladder.
    fn default() -> Self {
        RecoveryPolicy { recover: true }
    }
}

impl RecoveryPolicy {
    /// Fail-fast policy: no recovery rung is taken.
    pub fn strict() -> Self {
        RecoveryPolicy { recover: false }
    }
}

/// One rung of the degradation ladder that the flow had to take.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeReason {
    /// Sizing was infeasible on one topology; the flow moved to the next.
    TopologyFallback {
        /// Topology whose sizing failed.
        from: String,
        /// Topology tried next.
        to: String,
    },
    /// No topology sized feasibly; the best infeasible point was kept.
    SizingInfeasible {
        /// Topology of the best infeasible sizing.
        topology: String,
    },
    /// The router configuration was relaxed to complete routing.
    RouterRelaxed,
    /// Routing stayed incomplete even after relaxation.
    RoutingIncomplete {
        /// Nets left unrouted.
        failed_nets: usize,
    },
    /// The post-layout performance misses the spec.
    SpecMissedPostLayout,
    /// Device-level bias verification fell back to an assumed operating
    /// point (DC-free linearization) after the whole DC ladder, perturbed
    /// restarts included, failed.
    AssumedBias,
    /// An evaluation budget ran out; remaining work was skipped.
    BudgetExhausted {
        /// Which budgeted resource was exhausted.
        resource: Resource,
    },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::TopologyFallback { from, to } => {
                write!(f, "sizing infeasible on `{from}`, falling back to `{to}`")
            }
            DegradeReason::SizingInfeasible { topology } => {
                write!(
                    f,
                    "no feasible sizing; kept best infeasible point on `{topology}`"
                )
            }
            DegradeReason::RouterRelaxed => write!(f, "router configuration relaxed"),
            DegradeReason::RoutingIncomplete { failed_nets } => {
                write!(f, "{failed_nets} net(s) unrouted after relaxation")
            }
            DegradeReason::SpecMissedPostLayout => {
                write!(f, "post-layout performance misses the spec")
            }
            DegradeReason::AssumedBias => {
                write!(f, "bias point assumed (DC solve failed after retries)")
            }
            DegradeReason::BudgetExhausted { resource } => {
                write!(f, "evaluation budget exhausted ({resource})")
            }
        }
    }
}

/// Whether a successful flow run is fully nominal or degraded.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FlowOutcome {
    /// Every stage succeeded as specified.
    #[default]
    Nominal,
    /// The run completed only by taking recovery rungs; the reasons list
    /// records each one, in the order taken.
    Degraded {
        /// Degradations accepted, in order.
        reasons: Vec<DegradeReason>,
    },
}

impl FlowOutcome {
    /// True for [`FlowOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, FlowOutcome::Degraded { .. })
    }
}

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Maximum redesign (sizing→layout→verify) iterations.
    pub max_redesign: usize,
    /// Sizing annealing budget.
    pub sizing: AnnealConfig,
    /// Layout options.
    pub layout: CellOptions,
    /// Design rules.
    pub rules: DesignRules,
    /// What the flow may do to recover from stage failures.
    pub recovery: RecoveryPolicy,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            max_redesign: 3,
            sizing: AnnealConfig::default(),
            layout: CellOptions {
                symmetry_pairs: vec![
                    ("M1".to_string(), "M2".to_string()),
                    ("M3".to_string(), "M4".to_string()),
                ],
                ..Default::default()
            },
            rules: DesignRules::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// The complete output of a flow run.
#[derive(Debug)]
pub struct FlowReport {
    /// Selected topology name.
    pub topology: String,
    /// Final sized parameters.
    // det-lint: allow(hash-collection): mirrors ams-sizing's param map; read by key only
    pub params: std::collections::HashMap<String, f64>,
    /// Pre-layout performance.
    pub pre_layout_perf: Perf,
    /// The cell layout.
    pub layout: CellLayout,
    /// Post-extraction performance.
    pub post_layout_perf: Perf,
    /// Redesign iterations consumed.
    pub iterations: usize,
    /// The flow-phase events this run emitted, in order; the same events
    /// enter the trace ring when tracing is on.
    pub events: Vec<TelemetryEvent>,
    /// Nominal or degraded, with the recovery rungs taken.
    pub outcome: FlowOutcome,
    /// Flight-recorder snapshot attached when the outcome is degraded
    /// (and tracing is on): the deepest recorded failure context, the
    /// ring's last events, span stack, and counter totals at capture
    /// time. `None` for nominal runs.
    pub forensics: Option<ams_trace::ForensicsSnapshot>,
}

impl FlowReport {
    /// Whether the final (post-layout) performance meets the spec.
    pub fn meets(&self, spec: &Spec) -> bool {
        spec.satisfied_by(&self.post_layout_perf)
    }
}

/// Runs the full §2.1 flow for an opamp specification.
///
/// With the default [`RecoveryPolicy`], stage failures walk a degradation
/// ladder (next-best topology, relaxed router, accept-and-report) and the
/// run returns `Ok` with [`FlowOutcome::Degraded`] whenever *any* layout
/// could be produced. Under [`RecoveryPolicy::strict`] the flow fails
/// fast, exactly as it did before the recovery layer existed.
///
/// # Errors
///
/// * [`FlowError::NoFeasibleTopology`] — boundary checking rejects
///   everything in the standard library (no ladder below an empty list).
/// * [`FlowError::SizingInfeasible`] — annealing cannot satisfy the spec
///   (strict policy, or no infeasible point was ever produced to keep).
/// * [`FlowError::Layout`] — the macrocell flow fails structurally
///   (always a hard error: there is nothing to hand back).
/// * [`FlowError::Erc`] — the sized circuit is structurally broken
///   (always a hard error: laying it out would be meaningless).
/// * [`FlowError::Budget`] — an [`ams_guard::Budget`] limit was crossed
///   under a strict policy.
pub fn synthesize_opamp(
    spec: &Spec,
    tech: &Technology,
    load_f: f64,
    config: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    synthesize_opamp_inner(spec, tech, load_f, config, &mut None)
}

/// The flow body shared by [`synthesize_opamp`] (no checkpointing) and
/// [`synthesize_opamp_resumable`](crate::synthesize_opamp_resumable)
/// (every phase boundary journaled through [`crate::ckpt::stage`]).
pub(crate) fn synthesize_opamp_inner(
    spec: &Spec,
    tech: &Technology,
    load_f: f64,
    config: &FlowConfig,
    ck: &mut Option<&mut crate::ckpt::FlowCkpt<'_>>,
) -> Result<FlowReport, FlowError> {
    let _flow_span = ams_trace::span("flow.synthesize_opamp");
    ams_trace::counter_add("flow.runs", 1);
    let mut log = RunLog::default();
    let recover = config.recovery.recover;

    // --- Top-down: topology selection (§2.1 step 1). ---------------------
    // Ranked candidates, best first. Under the default policy the
    // degradation ladder walks down this list when sizing turns out
    // infeasible on the leader.
    let ranked: Vec<String> = crate::ckpt::stage(
        ck,
        "topology",
        crate::ckpt::dec_ranked,
        crate::ckpt::enc_ranked,
        || {
            let lib = TopologyLibrary::standard();
            let _g = ams_trace::span("flow.topology_select");
            let selection = select(&lib, BlockClass::Opamp, spec);
            Ok(selection
                .candidates
                .iter()
                .map(|c| c.topology.name.clone())
                .collect())
        },
    )?;
    let Some(first) = ranked.first() else {
        return Err(FlowError::NoFeasibleTopology);
    };
    log.emit(TelemetryEvent::TopologySelected {
        name: first.clone(),
        candidates: ranked.len() as u64,
    });

    // Lowest-cost infeasible sizing seen anywhere: the accept-degraded
    // last resort lays this out if no topology ever sizes feasibly.
    let mut fallback: Option<(String, SizingResult)> = None;
    // The most recent fully-laid-out attempt (feasible sizing, layout,
    // post-layout perf): accepted as-is if the budget runs out mid-ladder.
    let mut last_attempt: Option<Design> = None;
    let mut iterations = 0;
    let topo_count = if recover { ranked.len() } else { 1 };

    'topologies: for (t_idx, topology) in ranked.iter().take(topo_count).enumerate() {
        if t_idx > 0 {
            log.degrade(DegradeReason::TopologyFallback {
                from: ranked[t_idx - 1].clone(),
                to: topology.clone(),
            });
            ams_trace::counter_add("flow.topology_fallbacks", 1);
        }
        // Models we can size (both map onto supported layouts; unsupported
        // library topologies fall back to the two-stage).
        let use_ota = topology == "symmetrical_ota";
        let mut working_spec = spec.clone();
        let mut redesigns = 0;
        loop {
            // Cooperative budget checkpoint: once a limit is crossed no new
            // sizing or layout work is started; what exists is kept.
            if let Some(e) = budget::exhausted() {
                budget::emit_exhaustion_event();
                if !recover {
                    log.fail(e.to_string());
                    return Err(note_flow_failure(&FlowError::Budget(e)));
                }
                log.degrade(DegradeReason::BudgetExhausted {
                    resource: e.resource,
                });
                // A previous redesign iteration already produced a full
                // (feasible-sizing) layout: hand that over rather than
                // discarding it for the weaker infeasible-point resort.
                if let Some(design) = last_attempt.take() {
                    return Ok(log.accept_degraded(spec, design, iterations));
                }
                break 'topologies;
            }

            // --- Top-down: specification translation / sizing. ----------------
            let sizing = crate::ckpt::stage(
                ck,
                &format!("sizing.{t_idx}.{redesigns}"),
                crate::ckpt::dec_sizing,
                crate::ckpt::enc_sizing,
                || {
                    let _g = ams_trace::span("flow.sizing");
                    Ok(if use_ota {
                        let model = SymmetricalOtaModel::new(tech.clone(), load_f);
                        optimize(&model, &working_spec, &config.sizing)
                    } else {
                        let model = TwoStageModel::new(tech.clone(), load_f);
                        optimize(&model, &working_spec, &config.sizing)
                    })
                },
            )?;
            log.emit(TelemetryEvent::Sized {
                iteration: iterations as u64,
                feasible: sizing.feasible,
                power_w: sizing.perf.get("power_w").copied().unwrap_or(f64::NAN),
            });
            if !sizing.feasible {
                if fallback.as_ref().is_none_or(|(_, s)| sizing.cost < s.cost) {
                    fallback = Some((topology.clone(), sizing));
                }
                if !recover {
                    log.fail("sizing infeasible");
                    return Err(FlowError::SizingInfeasible { iterations });
                }
                continue 'topologies;
            }

            // --- Top-down: design verification, static part (ERC). ------------
            // Before spending simulation or layout effort, the sized device-
            // level circuit passes through the ams-lint gate: a structurally
            // broken netlist (floating node, voltage loop, current cutset)
            // would otherwise surface much later as an opaque singular-matrix
            // failure inside verification. A broken netlist is never worth
            // laying out, so this stays a hard error under every policy.
            if !use_ota {
                let _g = ams_trace::span("flow.erc");
                let (report, structurally_sound) =
                    erc_check_two_stage(tech, load_f, &sizing.params);
                log.emit(TelemetryEvent::LintChecked {
                    errors: report.errors().count() as u64,
                    warnings: report.warnings().count() as u64,
                    structurally_sound,
                });
                let first_error = report
                    .errors()
                    .next()
                    .map(|diag| format!("[{}] {}", diag.code, diag.message));
                if let Some(msg) = first_error {
                    log.fail(msg.clone());
                    return Err(FlowError::Erc(msg));
                }
            }

            // --- Bottom-up: layout, extraction + detailed verification. -------
            let layout = lay_out(
                ck,
                &format!("{t_idx}.{redesigns}"),
                tech,
                &sizing,
                config,
                &mut log,
            )?;
            let (post_perf, degradation) = extract_verify(tech, load_f, use_ota, &sizing, &layout);
            let passed = spec.satisfied_by(&post_perf) && layout.is_complete();
            log.emit(TelemetryEvent::PostLayoutVerified {
                passed,
                ugf_degradation: degradation,
            });
            let design = Design {
                topology: topology.clone(),
                sizing,
                layout,
                post_layout_perf: post_perf,
            };
            if passed {
                return Ok(log.report(design, iterations));
            }

            iterations += 1;
            redesigns += 1;
            ams_trace::counter_add("flow.redesign_iterations", 1);
            if redesigns >= config.max_redesign {
                if recover {
                    // The redesign budget is spent and a complete design
                    // exists: hand it over, labelled.
                    return Ok(log.accept_degraded(spec, design, iterations));
                }
                log.fail("post-layout spec failure after redesign budget");
                return Err(note_flow_failure(&FlowError::SizingInfeasible {
                    iterations,
                }));
            }
            last_attempt = Some(design);
            // Redesign: tighten the speed-related bounds by the observed
            // degradation plus margin, so the next sizing absorbs the
            // parasitics (constraint pass-down, §2.1).
            let margin = 1.0 + 1.5 * degradation + 0.1;
            if let Some(Bound::AtLeast(v)) = spec.bound_for("ugf_hz").copied() {
                working_spec = working_spec.require("ugf_hz", Bound::AtLeast(v * margin));
            }
            if let Some(Bound::AtLeast(v)) = spec.bound_for("slew_v_per_s").copied() {
                working_spec = working_spec.require("slew_v_per_s", Bound::AtLeast(v * margin));
            }
        }
    }

    // --- Last resort: no topology sized feasibly (or the budget ran out
    // first). Lay out the best infeasible point so the designer gets a
    // concrete, honestly-labelled starting design instead of nothing.
    if recover {
        if let Some((topology, sizing)) = fallback {
            log.degrade(DegradeReason::SizingInfeasible {
                topology: topology.clone(),
            });
            ams_trace::counter_add("flow.degraded_accepts", 1);
            let use_ota = topology == "symmetrical_ota";
            let layout = lay_out(ck, "fallback", tech, &sizing, config, &mut log)?;
            if !layout.is_complete() {
                log.degrade(DegradeReason::RoutingIncomplete {
                    failed_nets: layout.failed_nets.len(),
                });
            }
            // Device-level bias sanity check. Under fault injection even
            // the restarted DC ladder can fail; its very last rung is the
            // ASTRX/OBLX-style assumed ("dc-free") operating point.
            if !use_ota && crate::ckpt::bias_stage(ck, tech, load_f, &sizing.params)? {
                log.degrade(DegradeReason::AssumedBias);
            }
            let (post_perf, degradation) = extract_verify(tech, load_f, use_ota, &sizing, &layout);
            log.emit(TelemetryEvent::PostLayoutVerified {
                passed: false,
                ugf_degradation: degradation,
            });
            let design = Design {
                topology,
                sizing,
                layout,
                post_layout_perf: post_perf,
            };
            return Ok(log.report(design, iterations));
        }
        // Budget exhausted before any sizing produced even an infeasible
        // point: there is nothing to degrade to.
        if let Some(e) = budget::exhausted() {
            budget::emit_exhaustion_event();
            log.fail(e.to_string());
            return Err(note_flow_failure(&FlowError::Budget(e)));
        }
    }
    log.fail("sizing infeasible");
    Err(note_flow_failure(&FlowError::SizingInfeasible {
        iterations,
    }))
}

/// The bottom-up layout rung, journaled as stage `layout.<stage>.rx<bit>`:
/// lays out the sized design and, under the default policy, re-routes an
/// incomplete result with the relaxed router. Logs the relaxation rung
/// (once per run) and the `layout_done` event.
fn lay_out(
    ck: &mut Option<&mut crate::ckpt::FlowCkpt<'_>>,
    stage: &str,
    tech: &Technology,
    sizing: &SizingResult,
    config: &FlowConfig,
    log: &mut RunLog,
) -> Result<CellLayout, FlowError> {
    let recover = config.recovery.recover;
    let devices = build_two_stage_devices(tech, sizing);
    // The stage tag carries the policy bit: only the default policy
    // relaxes the router, so a run resumed under the other policy must
    // recompute the layout instead of replaying this one.
    let (layout, relaxed) = crate::ckpt::stage(
        ck,
        &format!("layout.{stage}.rx{}", recover as u8),
        crate::ckpt::dec_layout_stage,
        crate::ckpt::enc_layout_stage,
        || {
            let layout = {
                let _g = ams_trace::span("flow.layout");
                layout_cell(&devices, &config.rules, &config.layout)
                    .map_err(|e| FlowError::Layout(e.to_string()))?
            };
            if !layout.is_complete() && recover {
                return Ok((relax_and_reroute(&devices, config, layout)?, true));
            }
            Ok((layout, false))
        },
    )?;
    if relaxed {
        ams_trace::counter_add("flow.router_relaxed", 1);
        if !log.reasons.contains(&DegradeReason::RouterRelaxed) {
            log.degrade(DegradeReason::RouterRelaxed);
        }
    }
    log.emit(TelemetryEvent::LayoutDone {
        area_um2: layout.area_um2,
        complete: layout.is_complete(),
    });
    Ok(layout)
}

/// Builds the macrocell device list for a sized design (the symmetrical
/// OTA maps onto the same transistor-pair template).
fn build_two_stage_devices(tech: &Technology, sizing: &SizingResult) -> Vec<CellDevice> {
    let p = &sizing.perf;
    let get = |k: &str| p.get(k).copied().unwrap_or(20e-6);
    let cc = sizing.params.get("cc").copied().unwrap_or(2e-12);
    let l = sizing.params.get("l").copied().unwrap_or(2.0 * tech.lmin);
    two_stage_opamp_cell(
        get("w1_m").max(tech.wmin),
        get("w3_m").max(tech.wmin),
        get("w5_m").max(tech.wmin),
        get("w6_m").max(tech.wmin),
        get("w7_m").max(tech.wmin),
        l,
        cc,
    )
}

/// Re-runs layout with [`relaxed`](ams_layout::RouterConfig::relaxed)
/// router settings after an incomplete route, keeping whichever result
/// routes more nets. Pure with respect to the flow log: the caller
/// records the [`DegradeReason::RouterRelaxed`] rung and counter, so a
/// checkpoint replay of the layout stage re-emits them identically.
fn relax_and_reroute(
    devices: &[CellDevice],
    config: &FlowConfig,
    layout: CellLayout,
) -> Result<CellLayout, FlowError> {
    let _g = ams_trace::span("flow.layout_relaxed");
    let mut opts = config.layout.clone();
    opts.router = opts.router.relaxed();
    let retry =
        layout_cell(devices, &config.rules, &opts).map_err(|e| FlowError::Layout(e.to_string()))?;
    Ok(if retry.failed_nets.len() < layout.failed_nets.len() {
        retry
    } else {
        layout
    })
}

/// Extraction + detailed verification: re-evaluates the sizing model with
/// the layout's parasitics folded into the loads (the output net cap adds
/// to CL, the d2 net cap adds to Cc's node). Returns the post-layout
/// performance and the relative UGF loss the redesign loop tightens by.
fn extract_verify(
    tech: &Technology,
    load_f: f64,
    use_ota: bool,
    sizing: &SizingResult,
    layout: &CellLayout,
) -> (Perf, f64) {
    let _g = ams_trace::span("flow.extract_verify");
    let c_out = layout.net_caps.get("out").copied().unwrap_or(0.0);
    let c_d2 = layout.net_caps.get("d2").copied().unwrap_or(0.0);
    let post_perf = if use_ota {
        let degraded = SymmetricalOtaModel::new(tech.clone(), load_f + c_out);
        let x: Vec<f64> = degraded
            .params()
            .iter()
            .map(|pd| sizing.params[&pd.name])
            .collect();
        degraded.evaluate(&x)
    } else {
        let degraded = TwoStageModel::new(tech.clone(), load_f + c_out);
        let mut x: Vec<f64> = degraded
            .params()
            .iter()
            .map(|pd| sizing.params[&pd.name])
            .collect();
        // Cc node parasitic adds to the compensation cap position.
        let cc_idx = degraded
            .params()
            .iter()
            .position(|pd| pd.name == "cc")
            .expect("cc param");
        x[cc_idx] += c_d2;
        degraded.evaluate(&x)
    };
    let ugf_pre = sizing.perf.get("ugf_hz").copied().unwrap_or(1.0);
    let ugf_post = post_perf.get("ugf_hz").copied().unwrap_or(0.0);
    let degradation = ((ugf_pre - ugf_post) / ugf_pre).max(0.0);
    (post_perf, degradation)
}

/// The two-stage device-level template at the sized parameter point.
/// Equation-model parameters that the circuit template also uses are
/// taken from the sizing result; anything missing falls back to the
/// geometric middle of its range.
fn two_stage_circuit(
    tech: &Technology,
    load_f: f64,
    // det-lint: allow(hash-collection): sizing param map, read by key only
    params: &std::collections::HashMap<String, f64>,
) -> Circuit {
    use ams_sizing::{SimulatedTemplate, TwoStageCircuit};
    let template = TwoStageCircuit::new(tech.clone(), load_f);
    let x: Vec<f64> = template
        .params()
        .iter()
        .map(|pd| {
            params
                .get(&pd.name)
                .copied()
                .unwrap_or_else(|| (pd.lo * pd.hi).sqrt())
        })
        .collect();
    template.build(&x)
}

/// Exercises the device-level bias ladder at the sized point: the DC
/// ladder first (restarts included), then — the flow's very last rung —
/// an assumed operating point (linearize without solving, as ASTRX/OBLX's
/// dc-free biasing formulation does). Returns `true` when the assumed
/// fallback was needed and succeeded.
pub(crate) fn assumed_bias_check(
    tech: &Technology,
    load_f: f64,
    // det-lint: allow(hash-collection): sizing param map, read by key only
    params: &std::collections::HashMap<String, f64>,
) -> bool {
    let ckt = two_stage_circuit(tech, load_f, params);
    if ams_sim::SimSession::new(&ckt).op().is_ok() {
        return false;
    }
    let dim = ams_sim::MnaLayout::new(&ckt).dim();
    ams_sim::assumed_op(&ckt, &vec![0.0; dim]).is_ok()
}

/// Binds a fresh [`ams_sim::SimSession`] over the same device-level
/// template the bias ladder solves and returns its structural
/// [`pattern_fingerprint`](ams_sim::SimSession::pattern_fingerprint).
/// Counter-free end to end, so a resumed flow can re-capture and verify
/// the symbolic pattern without perturbing byte-identical counter
/// comparisons.
pub(crate) fn bias_pattern_fingerprint(
    tech: &Technology,
    load_f: f64,
    // det-lint: allow(hash-collection): sizing param map, read by key only
    params: &std::collections::HashMap<String, f64>,
) -> u64 {
    let ckt = two_stage_circuit(tech, load_f, params);
    ams_sim::SimSession::new(&ckt).pattern_fingerprint()
}

/// Runs the full ERC rule set plus the structural MNA analyzer over the
/// sized two-stage circuit. Returns the merged report (heuristic E/W codes
/// together with any E008/W005/W006 from the pattern analysis) and whether
/// the maximum-transversal pass proved the pattern nonsingular.
fn erc_check_two_stage(
    tech: &Technology,
    load_f: f64,
    // det-lint: allow(hash-collection): sizing param map, read by key only
    params: &std::collections::HashMap<String, f64>,
) -> (ams_lint::Report, bool) {
    let ckt = two_stage_circuit(tech, load_f, params);
    let heuristic = ams_lint::lint_circuit(&ckt);
    let structural = ams_lint::analyze_circuit_structure(&ckt);
    let mut diags = heuristic.diagnostics().to_vec();
    diags.extend(structural.report().diagnostics().iter().cloned());
    (
        ams_lint::Report::new(diags),
        structural.is_structurally_nonsingular(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opamp_spec() -> Spec {
        Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .require("slew_v_per_s", Bound::AtLeast(4e6))
            .require("swing_v", Bound::AtLeast(2.0))
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

    #[test]
    fn full_flow_produces_verified_layout() {
        let report = synthesize_opamp(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
        )
        .unwrap();
        assert!(report.meets(&opamp_spec()), "{:?}", report.post_layout_perf);
        assert!(report.layout.is_complete());
        assert!(report.layout.area_um2 > 0.0);
        assert_eq!(report.outcome, FlowOutcome::Nominal);
        // The event log tells the §2.1 story in order.
        assert!(matches!(
            report.events[0],
            TelemetryEvent::TopologySelected { .. }
        ));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::LayoutDone { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::PostLayoutVerified { passed: true, .. })));
    }

    #[test]
    fn erc_gate_is_clean_on_sized_two_stage() {
        // Any parameter point inside the template's ranges must produce an
        // ERC-clean circuit: the template is structurally sound by
        // construction, so an error here would mean the gate misfires.
        let (report, structurally_sound) = erc_check_two_stage(
            &Technology::generic_1p2um(),
            5e-12,
            // det-lint: allow(hash-collection): empty map in a test
            &std::collections::HashMap::new(),
        );
        assert_eq!(report.errors().count(), 0, "{}", report.render_human());
        assert!(
            structurally_sound,
            "two-stage template must have a perfect MNA matching"
        );
    }

    #[test]
    fn flow_logs_lint_stage_for_two_stage_path() {
        let report = synthesize_opamp(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
        )
        .unwrap();
        if report.topology == "two_stage_miller" {
            assert!(
                report
                    .events
                    .iter()
                    .any(|e| matches!(e, TelemetryEvent::LintChecked { errors: 0, .. })),
                "events: {:?}",
                report.events
            );
        }
    }

    #[test]
    fn impossible_spec_fails_at_topology_selection() {
        let spec = Spec::new().require("gain_db", Bound::AtLeast(500.0));
        let err = synthesize_opamp(&spec, &Technology::generic_1p2um(), 5e-12, &quick_config())
            .unwrap_err();
        assert_eq!(err, FlowError::NoFeasibleTopology);
    }

    /// Feasible by library intervals but unreachable by the sizing model:
    /// giant UGF at tiny power.
    fn unreachable_spec() -> Spec {
        Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("ugf_hz", Bound::AtLeast(4.9e7))
            .require("power_w", Bound::AtMost(6e-5))
            .minimizing("power_w")
    }

    #[test]
    fn infeasible_sizing_is_reported_under_strict_policy() {
        let mut config = quick_config();
        config.recovery = RecoveryPolicy::strict();
        let err = synthesize_opamp(
            &unreachable_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &config,
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::SizingInfeasible { .. }));
    }

    #[test]
    fn infeasible_sizing_degrades_gracefully_by_default() {
        // The same unreachable spec under the default policy walks the
        // degradation ladder: every topology's sizing fails, so the best
        // infeasible point is laid out and handed back, honestly labelled.
        let report = synthesize_opamp(
            &unreachable_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
        )
        .unwrap();
        let FlowOutcome::Degraded { reasons } = &report.outcome else {
            panic!("expected a degraded outcome, got {:?}", report.outcome);
        };
        assert!(
            reasons
                .iter()
                .any(|r| matches!(r, DegradeReason::SizingInfeasible { .. })),
            "reasons: {reasons:?}"
        );
        assert!(report.layout.area_um2 > 0.0);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::Degraded { .. })));
        // The degraded report still went through post-layout verification.
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::PostLayoutVerified { passed: false, .. })));
    }

    #[test]
    fn small_devices_route_without_relaxing_the_router() {
        // These sizing seeds give narrow devices whose ports fall within one
        // routing pitch of each other. Each port gets a pin cell of its own,
        // so the nominal router completes and nothing degrades.
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .require("phase_margin_deg", Bound::AtLeast(55.0))
            .minimizing("power_w");
        for seed in [1, 9, 13] {
            let config = FlowConfig {
                sizing: AnnealConfig {
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            };
            let report =
                synthesize_opamp(&spec, &Technology::generic_1p2um(), 5e-12, &config).unwrap();
            assert_eq!(report.outcome, FlowOutcome::Nominal, "seed {seed}");
        }
    }

    #[test]
    fn post_layout_perf_reflects_parasitics() {
        let report = synthesize_opamp(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_config(),
        )
        .unwrap();
        let pre = report.pre_layout_perf["ugf_hz"];
        let post = report.post_layout_perf["ugf_hz"];
        assert!(
            post <= pre,
            "parasitics cannot speed the opamp up: pre {pre}, post {post}"
        );
    }
}
