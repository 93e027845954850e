//! Analog circuit sizing: every frontend synthesis strategy surveyed in
//! §2.2 of the DAC'96 tutorial, implemented against the shared simulator
//! and specification vocabulary.
//!
//! | Paper tool | Module | Approach |
//! |---|---|---|
//! | IDAC, OASYS | [`plan`] ([`TwoStagePlan`], [`HierarchicalPlan`]) | knowledge-based design plans |
//! | OPASYN, OPTIMAN | [`eqopt`] ([`TwoStageModel`], [`optimize`]) | equation-based annealing |
//! | DONALD | [`donald`] ([`DeclarativeModel`]) | constraint-programming equation ordering |
//! | FRIDGE | [`simopt`] with [`AcEvaluator::FullSweep`] | full simulation per iteration |
//! | ASTRX/OBLX | [`simopt`] with [`AcEvaluator::Awe`], [`CostCompiler`], [`oblx`] | compiled cost + AWE macromodels + dc-free biasing relaxation |
//! | OAC | [`mod@redesign`] ([`DesignDatabase`]) | warm-start redesign from stored solutions |
//! | DARWIN, SEAS | [`genetic`] ([`evolve`]) | GA topology selection + sizing |
//! | Mukherjee et al. \[31\] | [`corners`] ([`optimize_worst_case`]) | worst-case manufacturability |
//!
//! # Example: equation-based sizing (Fig. 1b)
//!
//! ```
//! use ams_sizing::{optimize, AnnealConfig, TwoStageModel};
//! use ams_topology::{Bound, Spec};
//!
//! let model = TwoStageModel::new(ams_netlist::Technology::generic_1p2um(), 5e-12);
//! let spec = Spec::new()
//!     .require("gain_db", Bound::AtLeast(65.0))
//!     .require("ugf_hz", Bound::AtLeast(5e6))
//!     .minimizing("power_w");
//! let result = optimize(&model, &spec, &AnnealConfig::quick());
//! assert!(result.feasible);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod ckpt;
pub mod corners;
pub mod cost;
pub mod donald;
pub mod eqopt;
pub mod genetic;
pub mod oblx;
pub mod plan;
pub mod redesign;
pub mod simopt;

pub use anneal::{anneal, AnnealConfig, AnnealResult, ParamDef};
pub use ckpt::{CkptRun, SizingCkptError};
pub use corners::{optimize_worst_case, worst_case, CornerAware, CornerResult};
pub use cost::{eval_tag, CostCompiler, MetricReport, Perf};
pub use donald::{ComputationalPlan, DeclarativeModel, DonaldError, Equation};
pub use eqopt::{optimize, PerfModel, SizingResult, SymmetricalOtaModel, TwoStageModel};
pub use genetic::{evolve, evolve_ckpt, GaConfig, GaResult};
pub use oblx::{synthesize_dc_free, CommonSourceDcFree, DcFreeResult, DcFreeTemplate};
pub use plan::{DesignPlan, HierarchicalPlan, PlanError, PlanResult, TwoStagePlan};
pub use redesign::{redesign, DesignDatabase, StoredDesign};
pub use simopt::{synthesize, AcEvaluator, SimulatedTemplate, TwoStageCircuit};
