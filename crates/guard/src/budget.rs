//! Evaluation budgets and wall-clock deadlines.
//!
//! A [`Budget`] bounds how much work a synthesis run may spend: candidate
//! evaluations in the optimizers, Newton iterations in the solver, and
//! real time overall. Metering is *cooperative*: inner loops charge the
//! global meter ([`charge_evals`], [`charge_newton`]) and stop at their
//! next checkpoint when a charge reports exhaustion; nothing is
//! interrupted mid-evaluation. Callers then read the structured
//! [`BudgetExhausted`] record via [`exhausted`].
//!
//! Eval and Newton budgets are fully deterministic (counters only); the
//! wall-clock deadline is inherently not, and the determinism tests
//! therefore avoid it.
//!
//! # Cross-thread semantics
//!
//! Spend counters are shared atomics, so `ams-exec` workers charge the
//! same meter concurrently without locking. The charge that *crosses* a
//! limit is unique (its pre-add value is at or below the limit while its
//! post-add value is above), and only that charge records the
//! [`BudgetExhausted`] event — so with unit charges the recorded `spent`
//! is always `limit + 1` regardless of how many workers raced past the
//! limit. Exhaustion is sticky: once crossed, every subsequent charge
//! reports `false` without advancing the counters, and evaluation sites
//! check at batch boundaries so the set of *completed* work stays
//! thread-count independent (a batch already in flight runs to
//! completion — bounded overrun, nothing interrupted mid-evaluation).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
// det-lint: allow(wall-clock): wall-clock CPU budgets are this module's contract
use std::time::{Duration, Instant};

/// Which budgeted resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Candidate cost evaluations (anneal/GA/simopt inner loops).
    Evals,
    /// Newton-Raphson iterations across all solves.
    NewtonIters,
    /// The wall-clock deadline passed.
    WallClock,
}

impl Resource {
    /// Stable snake-case name for reports and trace counters.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::Evals => "evals",
            Resource::NewtonIters => "newton_iters",
            Resource::WallClock => "wall_clock",
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Structured record of a crossed budget limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The resource that ran out first.
    pub resource: Resource,
    /// The configured limit (milliseconds for [`Resource::WallClock`]).
    pub limit: u64,
    /// What had been spent when exhaustion was detected (milliseconds for
    /// [`Resource::WallClock`]).
    pub spent: u64,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unit = if self.resource == Resource::WallClock {
            " ms"
        } else {
            ""
        };
        write!(
            f,
            "budget exhausted: {} limit {}{} reached (spent {}{})",
            self.resource, self.limit, unit, self.spent, unit
        )
    }
}

impl std::error::Error for BudgetExhausted {}

/// Limits on how much work a run may spend. All limits are optional;
/// `Budget::default()` is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum candidate cost evaluations.
    pub max_evals: Option<u64>,
    /// Maximum Newton iterations summed over all solves.
    pub max_newton_iters: Option<u64>,
    /// Wall-clock deadline measured from [`install`].
    pub deadline: Option<Duration>,
}

impl Budget {
    /// Unlimited budget (same as `Default`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Cap candidate evaluations.
    #[must_use]
    pub fn evals(mut self, max: u64) -> Self {
        self.max_evals = Some(max);
        self
    }

    /// Cap total Newton iterations.
    #[must_use]
    pub fn newton_iters(mut self, max: u64) -> Self {
        self.max_newton_iters = Some(max);
        self
    }

    /// Set a wall-clock deadline relative to [`install`].
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// True if no limit is set at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_evals.is_none() && self.max_newton_iters.is_none() && self.deadline.is_none()
    }
}

struct Meter {
    budget: Budget,
    started: Instant,
    exhausted: Option<BudgetExhausted>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Sticky exhaustion flag: the lock-free fast path for "already over".
static EXHAUSTED: AtomicBool = AtomicBool::new(false);
/// Spend counters, charged concurrently by `ams-exec` workers.
static EVALS: AtomicU64 = AtomicU64::new(0);
static NEWTON: AtomicU64 = AtomicU64::new(0);
/// Limits mirrored out of the budget so charges never take the mutex
/// (`u64::MAX` = unlimited).
static LIMIT_EVALS: AtomicU64 = AtomicU64::new(u64::MAX);
static LIMIT_NEWTON: AtomicU64 = AtomicU64::new(u64::MAX);
/// True when a wall-clock deadline is set; only then do charges pay for
/// the mutex-guarded `Instant` comparison.
static HAS_DEADLINE: AtomicBool = AtomicBool::new(false);
static METER: OnceLock<Mutex<Meter>> = OnceLock::new();

fn meter() -> MutexGuard<'static, Meter> {
    METER
        .get_or_init(|| {
            Mutex::new(Meter {
                budget: Budget::default(),
                // det-lint: allow(wall-clock): budget epoch, never feeds a result
                started: Instant::now(),
                exhausted: None,
            })
        })
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Install `budget` as the process-global meter, resetting all spend
/// counters and starting the deadline clock. An unlimited budget still
/// counts spend (readable via [`spent_evals`]/[`spent_newton_iters`]).
pub fn install(budget: Budget) {
    let mut m = meter();
    m.budget = budget;
    // det-lint: allow(wall-clock): budget epoch reset, never feeds a result
    m.started = Instant::now();
    m.exhausted = None;
    EVALS.store(0, Ordering::Relaxed);
    NEWTON.store(0, Ordering::Relaxed);
    LIMIT_EVALS.store(budget.max_evals.unwrap_or(u64::MAX), Ordering::Relaxed);
    LIMIT_NEWTON.store(
        budget.max_newton_iters.unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
    HAS_DEADLINE.store(budget.deadline.is_some(), Ordering::Relaxed);
    EXHAUSTED.store(false, Ordering::Release);
    drop(m);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the global budget. Charges return to the one-atomic fast path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    let mut m = meter();
    m.budget = Budget::default();
    m.exhausted = None;
    EXHAUSTED.store(false, Ordering::Release);
    LIMIT_EVALS.store(u64::MAX, Ordering::Relaxed);
    LIMIT_NEWTON.store(u64::MAX, Ordering::Relaxed);
    HAS_DEADLINE.store(false, Ordering::Relaxed);
}

/// True if a budget is installed (even an unlimited one).
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Records the first exhaustion event (later racers are ignored) and
/// raises the sticky flag.
fn note_exhausted(e: BudgetExhausted) {
    let mut m = meter();
    if m.exhausted.is_none() {
        m.exhausted = Some(e);
        ams_trace::counter_add("guard.budget_exhausted", 1);
    }
    EXHAUSTED.store(true, Ordering::Release);
}

/// Mutex-guarded deadline check; only reached when a deadline is set.
fn deadline_ok() -> bool {
    let m = meter();
    if let Some(deadline) = m.budget.deadline {
        let elapsed = m.started.elapsed();
        if elapsed > deadline {
            let e = BudgetExhausted {
                resource: Resource::WallClock,
                limit: deadline.as_millis() as u64,
                spent: elapsed.as_millis() as u64,
            };
            drop(m);
            note_exhausted(e);
            return false;
        }
    }
    true
}

/// Adds `n` to `counter` and tests it against `limit`. Exactly one
/// charge crosses the limit (pre ≤ limit < pre + n); that charge records
/// the exhaustion event, and later charges are refused *without
/// incrementing*, so both the recorded `spent` and the final counter are
/// deterministic under concurrent unit charges. The refusal must be part
/// of the increment itself (a compare-exchange loop, not a fetch-add):
/// the `EXHAUSTED` flag is published after the crossing, so racing
/// threads can slip past it while the crossing charge is still recording.
fn charge(counter: &AtomicU64, limit: &AtomicU64, resource: Resource, n: u64) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return true;
    }
    if EXHAUSTED.load(Ordering::Acquire) {
        return false;
    }
    let max = limit.load(Ordering::Relaxed);
    let mut pre = counter.load(Ordering::Relaxed);
    loop {
        if pre > max {
            return false; // another charge already crossed; add nothing
        }
        match counter.compare_exchange_weak(
            pre,
            pre.saturating_add(n),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(cur) => pre = cur,
        }
    }
    let spent = pre.saturating_add(n);
    if spent > max {
        note_exhausted(BudgetExhausted {
            resource,
            limit: max,
            spent,
        });
        return false;
    }
    if HAS_DEADLINE.load(Ordering::Relaxed) {
        return deadline_ok();
    }
    true
}

/// Charge `n` candidate evaluations. Returns `false` once *any* budgeted
/// resource (including the deadline) is exhausted — the caller should
/// stop at its next safe checkpoint.
pub fn charge_evals(n: u64) -> bool {
    charge(&EVALS, &LIMIT_EVALS, Resource::Evals, n)
}

/// Charge `n` Newton iterations. Same contract as [`charge_evals`].
pub fn charge_newton(n: u64) -> bool {
    charge(&NEWTON, &LIMIT_NEWTON, Resource::NewtonIters, n)
}

/// Re-check the budget without charging anything (used by loops whose
/// unit of work isn't an eval or a Newton iteration, e.g. the router
/// checking the deadline per net, or a parallel batch boundary). Returns
/// `false` when exhausted.
pub fn check_in() -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return true;
    }
    if EXHAUSTED.load(Ordering::Acquire) {
        return false;
    }
    if HAS_DEADLINE.load(Ordering::Relaxed) {
        return deadline_ok();
    }
    true
}

/// Emits the structured `budget` telemetry event for the current
/// exhaustion, if any.
///
/// Deliberately *not* emitted from the crossing charge: that runs on
/// whichever worker thread happens to cross, so its stream position would
/// depend on scheduling. Call this from a serial checkpoint (the flow's
/// budget observation sites) instead — one relaxed atomic load when
/// tracing is off.
pub fn emit_exhaustion_event() {
    if !ams_trace::enabled() {
        return;
    }
    if let Some(e) = exhausted() {
        ams_trace::emit(ams_trace::TelemetryEvent::Budget {
            resource: e.resource.as_str().to_string(),
            limit: e.limit,
            spent: e.spent,
        });
    }
}

/// The first exhaustion event of the currently installed budget, if any.
pub fn exhausted() -> Option<BudgetExhausted> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    meter().exhausted.clone()
}

/// Candidate evaluations charged since [`install`].
pub fn spent_evals() -> u64 {
    EVALS.load(Ordering::Relaxed)
}

/// Newton iterations charged since [`install`].
pub fn spent_newton_iters() -> u64 {
    NEWTON.load(Ordering::Relaxed)
}

/// Serializes every unit test in this crate that installs or clears the
/// process-global budget.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_never_exhausts() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        clear();
        assert!(charge_evals(1_000_000));
        assert!(charge_newton(1_000_000));
        assert!(exhausted().is_none());
    }

    #[test]
    fn eval_budget_exhausts_at_limit() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(Budget::default().evals(3));
        assert!(charge_evals(1));
        assert!(charge_evals(1));
        assert!(charge_evals(1)); // spent == limit: still fine
        assert!(!charge_evals(1)); // crossed
        let e = exhausted().expect("exhaustion recorded");
        assert_eq!(e.resource, Resource::Evals);
        assert_eq!(e.limit, 3);
        assert_eq!(e.spent, 4);
        // Sticky: further charges keep failing.
        assert!(!charge_evals(1));
        assert!(!check_in());
        clear();
    }

    #[test]
    fn newton_budget_is_independent_of_evals() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(Budget::default().newton_iters(10));
        assert!(charge_evals(1_000));
        assert!(charge_newton(10));
        assert!(!charge_newton(1));
        assert_eq!(exhausted().map(|e| e.resource), Some(Resource::NewtonIters));
        clear();
    }

    #[test]
    fn deadline_exhausts() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(Budget::default().deadline(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(!check_in());
        assert_eq!(exhausted().map(|e| e.resource), Some(Resource::WallClock));
        clear();
    }

    #[test]
    fn concurrent_unit_charges_record_deterministic_crossing() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(Budget::default().evals(100));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _ = charge_evals(1);
                    }
                });
            }
        });
        let e = exhausted().expect("limit crossed");
        assert_eq!(e.resource, Resource::Evals);
        assert_eq!(e.limit, 100);
        // Only the unique crossing charge records, so the recorded spend
        // is limit + 1 no matter how the workers interleaved.
        assert_eq!(e.spent, 101);
        clear();
    }

    #[test]
    fn clear_resets_state() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        install(Budget::default().evals(0));
        assert!(!charge_evals(1));
        clear();
        assert!(exhausted().is_none());
        assert!(charge_evals(5));
    }
}
