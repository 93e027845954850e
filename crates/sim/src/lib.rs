//! MNA circuit simulator for the `ams-synth` toolkit.
//!
//! "Circuit synthesis is the inverse operation of circuit analysis, where
//! the subblock parameters … are given and the resulting performance of the
//! overall block is calculated, as is done in SPICE" (§2.2 of the DAC'96
//! tutorial). This crate is that analysis engine: the simulation-based
//! sizing tools (FRIDGE-style annealing, ASTRX/OBLX-style cost functions)
//! call into it at every optimization iteration.
//!
//! # Analyses
//!
//! All analyses run through a [`SimSession`], which binds a circuit to one
//! unknown layout and one linear-solver [`Backend`] and caches everything
//! repeated analyses share (operating point, linearization, sparse symbolic
//! factorizations):
//!
//! * [`SimSession::op`] — Newton–Raphson DC with gmin and source
//!   stepping, then seeded perturbed restarts: one convergence ladder.
//! * [`SimSession::ac`] — small-signal frequency response by node name;
//!   [`SimSession::ac_scan`] solves its points lazily, in the caller's order.
//! * [`SimSession::tran`] — trapezoidal integration with step halving.
//! * [`SimSession::noise`] — output-referred noise PSD and integrated rms.
//!
//! One device stamp serves DC, transient and the small-signal network, and
//! every stamped [`Stamper`] system reaches its LU through one solve
//! dispatch: the dense partial-pivot LU in [`linalg`], generic over real
//! and complex [`Scalar`]s, or — from [`Backend::AUTO_SPARSE_DIM`]
//! unknowns, or as `AMS_SIM_BACKEND` or [`SimSession::with_backend`] says
//! — the KLU-style BTF∘AMD + CSC kernel in [`csc`] with the triplet
//! assembly and factor reuse in [`sparse`].
//!
//! # Example
//!
//! ```
//! use ams_sim::{log_frequencies, SimSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ckt = ams_netlist::parse_deck("
//!     Vin in 0 DC 0 AC 1
//!     R1 in out 1k
//!     C1 out 0 1n
//! ")?;
//! let ses = SimSession::new(&ckt);
//! let op = ses.op()?;
//! let sweep = ses.ac("out", &log_frequencies(1.0, 1e9, 61))?;
//! assert!(sweep.bandwidth_3db().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod amd;
mod backend;
mod batch;
pub mod csc;
mod dc;
mod error;
pub mod linalg;
mod mna;
mod noise;
mod scale;
mod session;
pub mod sparse;
mod tran;

pub use ac::{log_frequencies, solve_at, AcScan, AcSweep};
pub use backend::Backend;
pub use batch::{BatchBindError, BatchSession};
pub use csc::CscLu;
pub use dc::{assumed_op, linearize, linearize_at, DcStrategy, OpPoint};
pub use error::SimError;
pub use linalg::{Complex, Lu, Matrix, Scalar, SingularMatrix};
pub use mna::{output_index, LinearNet, MnaLayout, Stamper};
pub use noise::{noise_sources, NoiseKind, NoiseResult, NoiseSource};
pub use session::SimSession;
pub use sparse::{BlockStructure, RefactorError, Refresh, Triplets};
pub use tran::TranResult;
