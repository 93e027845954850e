//! RAIL-style mixed-signal power-grid synthesis.
//!
//! "Digital power grid layout schemes usually focus on connectivity,
//! pad-to-pin ohmic drop, and electromigration effects. But these are only
//! a small subset of the problems in high-performance mixed-signal chips
//! … The RAIL system from CMU addresses these concerns by casting
//! mixed-signal power grid synthesis as a routing problem that uses fast
//! AWE-based linear system evaluation to electrically model the entire
//! power grid, package and substrate during layout" (§3.2 of the DAC'96
//! tutorial).
//!
//! * [`GridSpec`] / [`PowerGrid`] — non-tree grid topology, supply pads
//!   behind package RL, digital spike loads and analog taps; compiles to
//!   an [`ams_netlist::Circuit`].
//! * [`evaluate`] — the dc / ac / transient constraint triple of Fig. 3,
//!   with the ac supply impedance computed from an AWE macromodel. One
//!   session solves DC once and linearizes the grid once; each analog
//!   tap is one more right-hand side against that linearization's one
//!   factor of `G`, so grid-scale AC costs a small multiple of the DC
//!   solve. [`supply_impedance`] runs the same per-tap routine on a grid
//!   of its own and returns the same bits.
//! * [`synthesize`] — iterative width "routing" until every constraint is
//!   met (experiment E4 regenerates the Fig. 3 redesign narrative).
//!
//! # Example
//!
//! ```no_run
//! use ams_rail::{evaluate, GridSpec, PowerGrid, RailConstraints};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = PowerGrid::uniform(GridSpec::data_channel_demo(), 10e-6);
//! let eval = evaluate(&grid, &RailConstraints::default())?;
//! println!("worst IR drop: {} V", eval.worst_dc_drop);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod synth;

pub use grid::{GridSpec, PowerGrid, Tap, TapKind};
pub use synth::{
    evaluate, supply_impedance, synthesize, GridEval, RailConstraints, RailResult, TapReport,
};
