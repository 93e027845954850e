//! `ams-core`: the hierarchical performance-driven synthesis methodology of
//! the DAC'96 tutorial *"Synthesis Tools for Mixed-Signal ICs"* — the layer
//! that ties the frontend tools (`ams-topology`, `ams-sizing`,
//! `ams-symbolic`) to the backend tools (`ams-layout`, `ams-system`,
//! `ams-rail`) over the shared substrates (`ams-netlist`, `ams-sim`,
//! `ams-awe`).
//!
//! * [`synthesize_opamp`] — the §2.1 flow: topology selection →
//!   specification translation/sizing → verification → layout →
//!   extraction → detailed verification, with redesign iterations.
//! * [`synthesize_opamp_resumable`] / [`supervised_synthesize`] — the same
//!   flow with crash-safe phase-boundary checkpointing (`ams-ckpt`
//!   journal) and bounded supervised retry that resumes from the journal
//!   under an escalating [`RecoveryPolicy`] ladder.
//! * [`PulseDetectorModel`] / [`table1_spec`] — the Table 1 synthesis
//!   experiment (charge-sensitive amplifier + 4-stage pulse shaper).
//! * [`RfFrontEndModel`] — the high-level RF receiver front-end
//!   optimization of \[29\].
//!
//! # Example: reproduce the Table 1 experiment
//!
//! ```
//! use ams_core::{table1_spec, PulseDetectorModel};
//! use ams_sizing::{optimize, AnnealConfig, PerfModel};
//!
//! let model = PulseDetectorModel::new(ams_netlist::Technology::generic_1p2um());
//! let manual = model.evaluate(&model.manual_design());
//! let synth = optimize(&model, &table1_spec(), &AnnealConfig::quick());
//! // Both meet spec; synthesis burns much less power (Table 1's story).
//! assert!(manual["power_w"] > synth.perf["power_w"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod flow;
mod pulse_detector;
mod rf;

pub use ckpt::{supervised_synthesize, synthesize_opamp_resumable, FlowCkpt, SIM_PATTERN_TAG};
pub use flow::{
    synthesize_opamp, DegradeReason, FlowConfig, FlowError, FlowOutcome, FlowReport, RecoveryPolicy,
};
pub use pulse_detector::{table1_spec, PulseDetectorModel, SimulatedPulseDetectorModel};
pub use rf::{rf_spec, RfFrontEndModel};
