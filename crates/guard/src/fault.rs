//! Deterministic fault injection.
//!
//! Solver hot spots name themselves with a [`FaultKind`] and ask
//! [`trip`] whether this particular call should fail. A [`FaultPlan`]
//! armed via [`arm`] answers by *call index*: each kind keeps its own
//! monotonically increasing counter, and the plan's [`Trigger`] decides
//! which indices fault. Because the counters advance identically on
//! identical workloads, a seeded plan reproduces the exact same failure
//! pattern run after run — the determinism contract that lets
//! `tests/fault_recovery.rs` assert byte-identical faulted reports.
//!
//! Disarmed (the process default) a [`trip`] call is one relaxed atomic
//! load and no lock — safe to leave in release-build inner loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::mix64;

/// The injectable failure sites threaded through the synthesis flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Force an LU factorization in the DC Newton loop to report a
    /// singular pivot (`SingularMatrix`), exercising the gmin/source
    /// stepping escalation ladder.
    LuPivot,
    /// Poison the Newton iterate with a NaN so the solver's finite-value
    /// check rejects the solve.
    NanResidual,
    /// Make a whole `newton()` invocation report non-convergence after
    /// burning its full iteration budget.
    NewtonDiverge,
    /// Fail a transient Newton step so the integrator enters its
    /// step-halving recovery path.
    TranHalving,
    /// Make the detailed router fail a net outright, driving rip-up
    /// passes to exhaustion and leaving `failed_nets` behind.
    RouterRipup,
    /// Panic inside a sizing candidate evaluation, exercising the
    /// `catch_unwind` isolation in [`crate::isolate::guarded_eval`].
    EvalPanic,
}

impl FaultKind {
    /// Every fault kind, in declaration order. The fault matrix test
    /// iterates this so new kinds are covered automatically.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::LuPivot,
        FaultKind::NanResidual,
        FaultKind::NewtonDiverge,
        FaultKind::TranHalving,
        FaultKind::RouterRipup,
        FaultKind::EvalPanic,
    ];

    /// Stable snake-case name, used in trace counters and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::LuPivot => "lu_pivot",
            FaultKind::NanResidual => "nan_residual",
            FaultKind::NewtonDiverge => "newton_diverge",
            FaultKind::TranHalving => "tran_halving",
            FaultKind::RouterRipup => "router_ripup",
            FaultKind::EvalPanic => "eval_panic",
        }
    }

    /// Per-kind injection counter name in the `ams-trace` store.
    fn counter_name(self) -> &'static str {
        match self {
            FaultKind::LuPivot => "guard.fault.lu_pivot",
            FaultKind::NanResidual => "guard.fault.nan_residual",
            FaultKind::NewtonDiverge => "guard.fault.newton_diverge",
            FaultKind::TranHalving => "guard.fault.tran_halving",
            FaultKind::RouterRipup => "guard.fault.router_ripup",
            FaultKind::EvalPanic => "guard.fault.eval_panic",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::LuPivot => 0,
            FaultKind::NanResidual => 1,
            FaultKind::NewtonDiverge => 2,
            FaultKind::TranHalving => 3,
            FaultKind::RouterRipup => 4,
            FaultKind::EvalPanic => 5,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which call indices of a fault site should fail.
///
/// Indices are per-[`FaultKind`] and start at 0 when the plan is armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// Fail exactly the listed call indices.
    At(Vec<u64>),
    /// Fail calls where `index >= offset` and
    /// `(index - offset) % period == 0`.
    Every {
        /// Distance between injected failures; 1 means every call from
        /// `offset` onward. A period of 0 is treated as 1.
        period: u64,
        /// First call index that fails.
        offset: u64,
    },
    /// Fail every call.
    Always,
}

impl Trigger {
    fn fires(&self, index: u64) -> bool {
        match self {
            Trigger::At(list) => list.contains(&index),
            Trigger::Every { period, offset } => {
                index >= *offset && (index - offset).is_multiple_of((*period).max(1))
            }
            Trigger::Always => true,
        }
    }
}

/// A deterministic schedule of injected failures.
///
/// Build one with [`FaultPlan::new`] plus [`FaultPlan::fault`] calls, or
/// derive a pseudo-random-but-reproducible schedule from a seed with
/// [`FaultPlan::seeded`]. Arm it with [`arm`]; it stays active until
/// [`disarm`] or a subsequent [`arm`] replaces it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<(FaultKind, Trigger)>,
}

impl FaultPlan {
    /// An empty plan: arming it enables call counting but injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or extend) the schedule for one fault kind. Multiple triggers
    /// for the same kind are OR-ed together.
    #[must_use]
    pub fn fault(mut self, kind: FaultKind, trigger: Trigger) -> Self {
        self.entries.push((kind, trigger));
        self
    }

    /// Derive a reproducible plan from `seed` that injects `kind` at
    /// `count` pseudo-random call indices within `[0, horizon)`.
    ///
    /// The same `(seed, kind, count, horizon)` always yields the same
    /// plan — this is how the fault matrix varies injection sites across
    /// seeds without losing determinism.
    #[must_use]
    pub fn seeded(seed: u64, kind: FaultKind, count: usize, horizon: u64) -> Self {
        let horizon = horizon.max(1);
        let mut at: Vec<u64> = (0..count as u64)
            .map(|i| mix64(seed ^ mix64(kind.index() as u64 ^ i.wrapping_mul(0x9E37))) % horizon)
            .collect();
        at.sort_unstable();
        at.dedup();
        Self::new().fault(kind, Trigger::At(at))
    }

    /// True if the plan schedules no injections at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

struct FaultState {
    plan: FaultPlan,
    /// Per-kind call counters (indexed by `FaultKind::index`).
    calls: [u64; FaultKind::ALL.len()],
    /// Per-kind counts of injections actually delivered.
    injected: [u64; FaultKind::ALL.len()],
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<Mutex<FaultState>> = OnceLock::new();

fn state() -> MutexGuard<'static, FaultState> {
    STATE
        .get_or_init(|| {
            Mutex::new(FaultState {
                plan: FaultPlan::default(),
                calls: [0; FaultKind::ALL.len()],
                injected: [0; FaultKind::ALL.len()],
            })
        })
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arm `plan`, resetting all per-kind call and injection counters.
pub fn arm(plan: FaultPlan) {
    let mut s = state();
    s.plan = plan;
    s.calls = [0; FaultKind::ALL.len()];
    s.injected = [0; FaultKind::ALL.len()];
    drop(s);
    ARMED.store(true, Ordering::Release);
}

/// Disarm injection. Subsequent [`trip`] calls return to the one-atomic
/// fast path. Counters from the previous plan remain readable via
/// [`injected_count`] until the next [`arm`].
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// True if a plan is currently armed (even an empty one).
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Should this call of the `kind` site fail? Advances the site's call
/// counter when armed; costs one relaxed atomic load when disarmed.
pub fn trip(kind: FaultKind) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let mut s = state();
    let idx = kind.index();
    let call = s.calls[idx];
    s.calls[idx] += 1;
    let fire = s
        .plan
        .entries
        .iter()
        .any(|(k, t)| *k == kind && t.fires(call));
    if fire {
        s.injected[idx] += 1;
        drop(s);
        ams_trace::counter_add(kind.counter_name(), 1);
        ams_trace::counter_add("guard.faults_injected", 1);
    }
    fire
}

/// How many injections of `kind` the currently (or last) armed plan has
/// delivered.
pub fn injected_count(kind: FaultKind) -> u64 {
    state().injected[kind.index()]
}

/// Total injections delivered across all kinds since the last [`arm`].
pub fn total_injected() -> u64 {
    state().injected.iter().sum()
}

/// Serializes every unit test in this crate that arms or disarms the
/// process-global fault plan.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_trips() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disarm();
        for kind in FaultKind::ALL {
            assert!(!trip(kind));
        }
    }

    #[test]
    fn at_trigger_fires_on_exact_indices() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::new().fault(FaultKind::LuPivot, Trigger::At(vec![1, 3])));
        let hits: Vec<bool> = (0..5).map(|_| trip(FaultKind::LuPivot)).collect();
        assert_eq!(hits, vec![false, true, false, true, false]);
        assert_eq!(injected_count(FaultKind::LuPivot), 2);
        // Other kinds are unaffected.
        assert!(!trip(FaultKind::RouterRipup));
        disarm();
    }

    #[test]
    fn every_trigger_is_periodic() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::new().fault(
            FaultKind::EvalPanic,
            Trigger::Every {
                period: 3,
                offset: 1,
            },
        ));
        let hits: Vec<bool> = (0..8).map(|_| trip(FaultKind::EvalPanic)).collect();
        assert_eq!(
            hits,
            vec![false, true, false, false, true, false, false, true]
        );
        disarm();
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let a = FaultPlan::seeded(42, FaultKind::NanResidual, 4, 100);
        let b = FaultPlan::seeded(42, FaultKind::NanResidual, 4, 100);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, FaultKind::NanResidual, 4, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn rearming_resets_counters() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::new().fault(FaultKind::TranHalving, Trigger::Always));
        assert!(trip(FaultKind::TranHalving));
        assert_eq!(injected_count(FaultKind::TranHalving), 1);
        arm(FaultPlan::new());
        assert_eq!(injected_count(FaultKind::TranHalving), 0);
        assert!(!trip(FaultKind::TranHalving));
        disarm();
    }
}
