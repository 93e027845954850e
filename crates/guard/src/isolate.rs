//! Panic isolation for candidate evaluations.
//!
//! Sizing optimizers evaluate thousands of candidate design points; a
//! single evaluator bug (or an injected [`FaultKind::EvalPanic`]) must
//! not kill the whole synthesis run. [`guarded_eval`] wraps one cost
//! evaluation in `catch_unwind`, scores a panicking candidate as
//! infeasible (`f64::INFINITY` — the same sentinel the optimizers already
//! use for out-of-domain points), and counts the event via `ams-trace`
//! (`guard.isolated_panics`).
//!
//! While a guarded evaluation is in flight a thread-local flag suppresses
//! the default panic-hook backtrace spam; panics from anywhere else still
//! reach the previously installed hook untouched.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::fault::{trip, FaultKind};

thread_local! {
    static ISOLATING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !ISOLATING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Run one candidate cost evaluation with panic isolation.
///
/// Returns the closure's value, or `f64::INFINITY` if it panicked (the
/// panic is caught, counted under the `guard.isolated_panics` trace
/// counter, and its default backtrace output suppressed). When a
/// [`FaultPlan`](crate::FaultPlan) arming [`FaultKind::EvalPanic`] is
/// active, the injected panic fires *inside* the guarded region, so the
/// isolation path itself is what gets exercised.
pub fn guarded_eval<F: FnOnce() -> f64>(f: F) -> f64 {
    install_hook();
    let was = ISOLATING.with(|c| c.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        if trip(FaultKind::EvalPanic) {
            panic!("ams-guard: injected evaluator panic");
        }
        f()
    }));
    ISOLATING.with(|c| c.set(was));
    match result {
        Ok(v) => v,
        Err(_) => {
            ams_trace::counter_add("guard.isolated_panics", 1);
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{arm, disarm, FaultPlan, Trigger, TEST_LOCK};

    #[test]
    fn clean_eval_passes_through() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disarm();
        assert_eq!(guarded_eval(|| 3.5), 3.5);
    }

    #[test]
    fn panicking_eval_scores_infinite() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disarm();
        let v = guarded_eval(|| panic!("boom"));
        assert!(v.is_infinite() && v > 0.0);
        // Isolation flag is restored: a second clean eval still works.
        assert_eq!(guarded_eval(|| 1.0), 1.0);
    }

    #[test]
    fn injected_eval_panic_is_isolated() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        arm(FaultPlan::new().fault(FaultKind::EvalPanic, Trigger::At(vec![1])));
        assert_eq!(guarded_eval(|| 2.0), 2.0); // call 0: clean
        assert!(guarded_eval(|| 2.0).is_infinite()); // call 1: injected
        assert_eq!(guarded_eval(|| 2.0), 2.0); // call 2: clean again
        disarm();
    }
}
