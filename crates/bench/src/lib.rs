//! Experiment implementations shared by the `report` binary, the
//! `paper_claims` tests and `ams-report`. One function per experiment of
//! DESIGN.md §4; each returns a printable, assertable result structure.
//! [`table1_report`] is the instrumented Table 1 collector behind
//! `ams-report bench` and `quick-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table1_report;

pub use experiments::*;
