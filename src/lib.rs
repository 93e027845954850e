//! `ams` — an analog and mixed-signal IC synthesis toolkit.
//!
//! This is the facade crate of the `ams-synth` workspace, a from-scratch
//! Rust implementation of the complete synthesis flow surveyed in the
//! DAC'96 tutorial *"Synthesis Tools for Mixed-Signal ICs: Progress on
//! Frontend and Backend Strategies"* (Carley, Gielen, Rutenbar, Sansen).
//!
//! # Architecture
//!
//! The **frontend** (specification → sized netlist):
//!
//! * [`topology`] — topology libraries and boundary-checking selection.
//! * [`sizing`] — every §2.2 sizing strategy: knowledge-based design
//!   plans, equation-based annealing, DONALD-style constraint ordering,
//!   simulation-based (FRIDGE) and AWE-accelerated (ASTRX/OBLX) loops,
//!   genetic topology selection, worst-case corner optimization.
//! * [`symbolic`] — ISAAC-style symbolic transfer functions.
//!
//! The **backend** (netlist → mask):
//!
//! * [`layout`] — device generation, stacking, KOAN placement,
//!   ANAGRAM II routing, compaction, sensitivity-driven constraints.
//! * [`system`] — floorplanning (ILAC/WRIGHT), WREN global routing,
//!   analog channel routing, substrate coupling.
//! * [`rail`] — RAIL power-grid synthesis with AWE evaluation.
//!
//! The **substrates** everything rests on:
//!
//! * [`netlist`] — circuits, level-1 MOS models, technologies, parsing.
//! * [`lint`] — static electrical-rule checks (ERC) with structured,
//!   deck-located diagnostics; gates every simulation.
//! * [`sim`] — MNA simulator (DC/AC/transient/noise).
//! * [`awe`] — asymptotic waveform evaluation.
//! * [`trace`] — zero-dependency structured tracing: spans, counters,
//!   histograms and typed events behind one switch, kept in one
//!   flight-recorder ring rendered as a Chrome trace, JSON Lines or a
//!   failure forensics snapshot.
//! * [`guard`] — robustness layer: deterministic fault injection,
//!   evaluation budgets and panic isolation, which make the recovery
//!   ladders testable and bounded (the DC ladder in [`sim`], the flow's
//!   graceful-degradation ladder in [`core`]).
//! * [`ckpt`] — zero-dependency journaled checkpoint store: atomic
//!   commits, per-record checksums, structured corruption errors; the
//!   durability substrate behind crash-safe synthesis.
//! * [`exec`] — deterministic parallel evaluation: a scoped
//!   work-stealing pool (`par_map_indexed`) and a memoizing eval cache
//!   keyed by quantized parameter vectors. Same seed ⇒ same result at
//!   any thread count.
//!
//! And the **flow** tying it together:
//!
//! * [`core`] — the §2.1 hierarchical performance-driven methodology,
//!   plus the Table 1 pulse detector and the RF front-end models.
//!
//! # Quickstart
//!
//! ```
//! use ams::prelude::*;
//!
//! // Size a two-stage opamp against a spec (Fig. 1b: optimization-based).
//! let model = TwoStageModel::new(Technology::generic_1p2um(), 5e-12);
//! let spec = Spec::new()
//!     .require("gain_db", Bound::AtLeast(65.0))
//!     .require("ugf_hz", Bound::AtLeast(5e6))
//!     .minimizing("power_w");
//! let sized = optimize(&model, &spec, &AnnealConfig::quick());
//! assert!(sized.feasible);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ams_awe as awe;
pub use ams_ckpt as ckpt;
pub use ams_core as core;
pub use ams_exec as exec;
pub use ams_guard as guard;
pub use ams_layout as layout;
pub use ams_lint as lint;
pub use ams_netlist as netlist;
pub use ams_rail as rail;
pub use ams_sim as sim;
pub use ams_sizing as sizing;
pub use ams_symbolic as symbolic;
pub use ams_system as system;
pub use ams_topology as topology;
pub use ams_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use ams_ckpt::{CkptError, CkptStore};
    pub use ams_core::{
        synthesize_opamp, synthesize_opamp_resumable, FlowCkpt, FlowConfig, FlowOutcome,
        PulseDetectorModel, RecoveryPolicy, RfFrontEndModel,
    };
    pub use ams_guard::{Budget, FaultKind, FaultPlan, Trigger};
    pub use ams_layout::{layout_cell, CellOptions, DesignRules};
    pub use ams_lint::{lint_circuit, lint_deck, Report, RuleCode, Severity};
    pub use ams_netlist::{parse_deck, parse_deck_full, Circuit, Device, Technology};
    pub use ams_sim::{linearize, log_frequencies, Backend, BatchSession, SimSession};
    pub use ams_sizing::{
        optimize, synthesize, AcEvaluator, AnnealConfig, PerfModel, TwoStageModel, TwoStagePlan,
    };
    pub use ams_topology::{select, BlockClass, Bound, Spec, TopologyLibrary};
}
