//! Analog cell layout: the backend tools of §3.1 of the DAC'96 tutorial.
//!
//! | Paper tool / idea | Module |
//! |---|---|
//! | Procedural device generation \[32\] | [`devgen`] |
//! | Device stacking: exact \[43\] and O(n) \[45\] | [`stack`] |
//! | KOAN annealing placement (fold/merge/abut, symmetry) \[35\] | [`mod@place`] |
//! | ANAGRAM II maze routing (net classes, crosstalk, over-device, symmetric differential; A* that replays Dijkstra's paths exactly) \[35\] | [`route`] |
//! | Analog compaction with symmetry \[48,49\] | [`compact`] |
//! | Sensitivity-based parasitic constraint generation \[46\] | [`sensitivity`] |
//! | The integrated macrocell flow (Fig. 2 experiment) | [`cell`] |
//!
//! # Example: stack, place and route a differential pair
//!
//! ```
//! use ams_layout::{layout_cell, two_stage_opamp_cell, CellOptions, DesignRules};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let devices = two_stage_opamp_cell(60e-6, 30e-6, 40e-6, 150e-6, 60e-6, 2.4e-6, 2e-12);
//! let cell = layout_cell(&devices, &DesignRules::default(), &CellOptions::default())?;
//! assert!(cell.area_um2 > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod compact;
pub mod devgen;
pub mod geom;
pub mod place;
pub mod route;
pub mod rules;
pub mod sensitivity;
pub mod stack;

pub use cell::{layout_cell, two_stage_opamp_cell, CellDevice, CellError, CellLayout, CellOptions};
pub use compact::{compact_x, CompactSymmetry, CompactionResult};
pub use devgen::DeviceLayout;
pub use geom::{Layer, Orientation, Point, Rect};
pub use place::{place, AbutPair, PlaceItem, Placed, PlacementResult, PlacerConfig, SymmetryPair};
pub use route::{Cell, NetClass, RouteNet, RouteResult, RoutedNet, Router, RouterConfig};
pub use rules::DesignRules;
pub use sensitivity::{
    check_bounds, generate_bounds, net_weights, predicted_degradation, CapBounds, PerfSensitivity,
};
pub use stack::{DiffusionGraph, Stack, Stacking};
