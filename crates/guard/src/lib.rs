//! `ams-guard` — the robustness layer of the synthesis flow.
//!
//! The §2.1 hierarchical methodology only works in practice because real
//! flows survive bad intermediate states — non-convergent Newton solves,
//! singular MNA matrices, infeasible sizing runs, router rip-up exhaustion
//! — by falling back and redesigning rather than dying (the ACACIA/AMGIE
//! style redesign loop of Fig. 3). This crate supplies the machinery that
//! makes those failure paths *testable* and *bounded*:
//!
//! * [`fault`] — a deterministic, seeded fault-injection harness. Solver
//!   hot spots call [`fault::trip`] at named [`FaultKind`] sites; a
//!   [`FaultPlan`] armed with [`fault::arm`] decides, by call index, when
//!   a site actually fails. Disarmed (the default), every site costs one
//!   relaxed atomic load — the same fast-path trick as `ams-trace`.
//! * [`budget`] — cooperative evaluation budgets. Optimizer inner loops
//!   charge the global meter per candidate evaluation
//!   ([`budget::charge_evals`]) and per Newton iteration
//!   ([`budget::charge_newton`]); when a limit is crossed the loops stop
//!   at the next checkpoint and callers observe a structured
//!   [`BudgetExhausted`] instead of a runaway run.
//! * [`isolate`] — panic isolation for candidate evaluations.
//!   [`isolate::guarded_eval`] wraps a cost evaluation in `catch_unwind`
//!   so one poisoned candidate scores as infeasible (`f64::INFINITY`,
//!   counted via `ams-trace`) instead of killing the whole synthesis run.
//!
//! The recovery ladders themselves live in the layers they recover, one
//! per layer: the DC ladder (Newton, gmin stepping, source stepping,
//! perturbed restarts) behind `ams-sim`'s `SimSession::op`, and the
//! flow's `RecoveryPolicy` ladder (next topology, relaxed router, accept
//! and label) in `ams-core`.
//!
//! Everything is process-global, default-off, and zero-overhead when off,
//! so the injection points stay compiled into release builds and the fault
//! matrix in `tests/fault_recovery.rs` exercises exactly the shipped code.
//!
//! # Example
//!
//! ```
//! use ams_guard::{budget, fault, Budget, FaultKind, FaultPlan, Trigger};
//!
//! // Fail the third LU factorization, then every 5th after it.
//! fault::arm(FaultPlan::new().fault(FaultKind::LuPivot, Trigger::Every { period: 5, offset: 2 }));
//! assert!(!fault::trip(FaultKind::LuPivot)); // call 0
//! assert!(!fault::trip(FaultKind::LuPivot)); // call 1
//! assert!(fault::trip(FaultKind::LuPivot)); // call 2: injected
//! fault::disarm();
//!
//! // Bound an optimization run to 1000 candidate evaluations.
//! budget::install(Budget::default().evals(1000));
//! assert!(budget::charge_evals(1));
//! budget::clear();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod fault;
pub mod isolate;

pub use budget::{Budget, BudgetExhausted, Resource};
pub use fault::{FaultKind, FaultPlan, Trigger};
pub use isolate::guarded_eval;

/// SplitMix64 finalizer: the shared bit mixer behind seeded fault plans and
/// the DC ladder's perturbed restarts (`ams-sim`). Kept here so both derive
/// decisions from the same, dependency-free primitive.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Single-bit input changes flip roughly half the output bits.
        let d = (mix64(7) ^ mix64(6)).count_ones();
        assert!(d > 10, "poor avalanche: {d} bits");
    }
}
