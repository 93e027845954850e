//! Deterministic supervision: bounded retry-with-backoff from checkpoints.
//!
//! A [`Supervisor`] runs a resumable job (typically a checkpointed synthesis
//! flow) under the global [`budget`](crate::budget) meter. When an attempt
//! fails with a *retryable* error, the supervisor burns a deterministic
//! backoff — measured in **candidate evaluations charged to the budget, not
//! wall-clock time**, so supervised transcripts are byte-reproducible — and
//! retries. Because the job resumes from its last checkpoint, a retry pays
//! only for the stages after the crash point. Keys that keep failing past
//! a threshold are quarantined: the supervisor refuses to schedule them
//! again and reports them, which is what keeps one poisoned candidate from
//! starving a whole synthesis-service queue.
//!
//! The supervisor is deliberately policy-free about *what* changes between
//! attempts: callers receive the attempt index and typically escalate a
//! `RecoveryPolicy` ladder with it (see `ams-core`'s supervised flow).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::budget;

/// Deterministic backoff schedule, measured in evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Evals burned before the first retry.
    pub base_evals: u64,
    /// Multiplier applied per subsequent retry (exponential backoff).
    pub factor: u64,
    /// Cap on a single backoff burn.
    pub max_evals: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_evals: 64,
            factor: 2,
            max_evals: 4096,
        }
    }
}

impl BackoffPolicy {
    /// Evals burned before retry number `retry` (0-based).
    pub fn evals_for(&self, retry: u32) -> u64 {
        let mut v = self.base_evals;
        for _ in 0..retry {
            v = v.saturating_mul(self.factor);
            if v >= self.max_evals {
                return self.max_evals;
            }
        }
        v.min(self.max_evals)
    }
}

/// Supervisor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Maximum retries per [`Supervisor::run`] call (attempts = retries+1).
    pub max_retries: u32,
    /// Backoff schedule between attempts.
    pub backoff: BackoffPolicy,
    /// Cumulative failed-attempt count (across runs of the same key) after
    /// which the key is quarantined.
    pub quarantine_after: u32,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_retries: 3,
            backoff: BackoffPolicy::default(),
            quarantine_after: 6,
        }
    }
}

/// What happened on one supervised attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt returned `Ok`.
    Succeeded,
    /// The attempt failed retryably; a backoff was burned and the job was
    /// re-dispatched from its last checkpoint.
    Retried {
        /// Display form of the error.
        error: String,
        /// Evals burned as backoff before the next attempt.
        backoff_evals: u64,
    },
    /// The attempt failed terminally (non-retryable error, retry budget
    /// exhausted, or the eval budget died during backoff).
    Failed {
        /// Display form of the error.
        error: String,
    },
}

/// One row of a supervision transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// 0-based attempt index.
    pub attempt: u32,
    /// Outcome of this attempt.
    pub outcome: AttemptOutcome,
}

/// Deterministic transcript of one [`Supervisor::run`] call — the
/// "classified in the degradation report" artifact the tests assert on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Job key being supervised.
    pub key: String,
    /// Per-attempt outcomes, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Retries performed (attempts - 1 when any attempt ran).
    pub retries: u32,
    /// Total evals burned as backoff.
    pub backoff_evals: u64,
    /// True when the key is quarantined as of the end of this run.
    pub quarantined: bool,
}

impl fmt::Display for SupervisionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "supervise '{}': {} attempt(s), {} retr{}, {} backoff evals{}",
            self.key,
            self.attempts.len(),
            self.retries,
            if self.retries == 1 { "y" } else { "ies" },
            self.backoff_evals,
            if self.quarantined {
                ", QUARANTINED"
            } else {
                ""
            }
        )
    }
}

/// Supervises resumable jobs: bounded retry, eval-denominated backoff,
/// repeat-failure quarantine. Process-local and single-threaded by design
/// (one supervisor owns one job queue); all state is in ordered maps so
/// reports are deterministic.
#[derive(Debug, Default)]
pub struct Supervisor {
    cfg: SuperviseConfig,
    /// Cumulative failed attempts per key, across `run` calls.
    failures: BTreeMap<String, u32>,
    quarantined: BTreeSet<String>,
}

impl Supervisor {
    /// A supervisor with the given policy.
    pub fn new(cfg: SuperviseConfig) -> Self {
        Supervisor {
            cfg,
            failures: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> &SuperviseConfig {
        &self.cfg
    }

    /// Whether `key` has been quarantined by repeated failures.
    pub fn is_quarantined(&self, key: &str) -> bool {
        self.quarantined.contains(key)
    }

    /// All quarantined keys, sorted.
    pub fn quarantined_keys(&self) -> Vec<&str> {
        self.quarantined.iter().map(|s| s.as_str()).collect()
    }

    /// Cumulative failed-attempt count recorded for `key`.
    pub fn failure_count(&self, key: &str) -> u32 {
        self.failures.get(key).copied().unwrap_or(0)
    }

    /// Runs `attempt` under supervision.
    ///
    /// `attempt(i)` performs attempt `i`; on a resumable job it should
    /// restart *from the last checkpoint* (the whole point of pairing the
    /// supervisor with `ams-ckpt`). `retryable` classifies errors; a
    /// non-retryable error ends the run immediately. Returns `None` for
    /// the result when `key` was already quarantined — the job was never
    /// dispatched.
    pub fn run<T, E, R, F>(
        &mut self,
        key: &str,
        retryable: R,
        mut attempt: F,
    ) -> (Option<Result<T, E>>, SupervisionReport)
    where
        E: fmt::Display,
        R: Fn(&E) -> bool,
        F: FnMut(u32) -> Result<T, E>,
    {
        let mut report = SupervisionReport {
            key: key.to_string(),
            attempts: Vec::new(),
            retries: 0,
            backoff_evals: 0,
            quarantined: self.is_quarantined(key),
        };
        if report.quarantined {
            return (None, report);
        }
        let mut retry: u32 = 0;
        loop {
            ams_trace::counter_add("guard.supervise.attempts", 1);
            let result = attempt(retry);
            match result {
                Ok(v) => {
                    report.attempts.push(AttemptRecord {
                        attempt: retry,
                        outcome: AttemptOutcome::Succeeded,
                    });
                    return (Some(Ok(v)), report);
                }
                Err(e) => {
                    self.record_failure(key);
                    report.quarantined = self.is_quarantined(key);
                    let can_retry = retry < self.cfg.max_retries
                        && retryable(&e)
                        && !report.quarantined
                        && budget::exhausted().is_none();
                    if !can_retry {
                        report.attempts.push(AttemptRecord {
                            attempt: retry,
                            outcome: AttemptOutcome::Failed {
                                error: e.to_string(),
                            },
                        });
                        return (Some(Err(e)), report);
                    }
                    let burn = self.cfg.backoff.evals_for(retry);
                    // Backoff is denominated in evals and charged to the
                    // global budget: deterministic, and a deadline-limited
                    // job pays for its retries out of the same meter as
                    // real work. A budget death mid-backoff ends the run.
                    let survived = budget::charge_evals(burn);
                    report.backoff_evals += burn;
                    ams_trace::counter_add("guard.supervise.retries", 1);
                    ams_trace::counter_add("guard.supervise.backoff_evals", burn);
                    report.attempts.push(AttemptRecord {
                        attempt: retry,
                        outcome: AttemptOutcome::Retried {
                            error: e.to_string(),
                            backoff_evals: burn,
                        },
                    });
                    if !survived {
                        report.attempts.push(AttemptRecord {
                            attempt: retry + 1,
                            outcome: AttemptOutcome::Failed {
                                error: "eval budget exhausted during backoff".to_string(),
                            },
                        });
                        return (Some(Err(e)), report);
                    }
                    report.retries += 1;
                    retry += 1;
                }
            }
        }
    }

    fn record_failure(&mut self, key: &str) {
        let n = self.failures.entry(key.to_string()).or_insert(0);
        *n += 1;
        if *n >= self.cfg.quarantine_after && self.quarantined.insert(key.to_string()) {
            ams_trace::counter_add("guard.supervise.quarantined", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{self, Budget, TEST_LOCK};

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let b = BackoffPolicy {
            base_evals: 10,
            factor: 3,
            max_evals: 100,
        };
        assert_eq!(b.evals_for(0), 10);
        assert_eq!(b.evals_for(1), 30);
        assert_eq!(b.evals_for(2), 90);
        assert_eq!(b.evals_for(3), 100);
        assert_eq!(b.evals_for(30), 100);
    }

    #[test]
    fn succeeds_first_try() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let (res, report) = sup.run("job", |_e: &String| true, |_| Ok::<_, String>(42));
        assert_eq!(res, Some(Ok(42)));
        assert_eq!(report.retries, 0);
        assert_eq!(report.attempts.len(), 1);
        assert!(matches!(
            report.attempts[0].outcome,
            AttemptOutcome::Succeeded
        ));
    }

    #[test]
    fn retries_then_succeeds_with_bounded_attempts() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let (res, report) = sup.run(
            "flaky",
            |_e: &String| true,
            |attempt| {
                if attempt < 2 {
                    Err("transient".to_string())
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(res, Some(Ok(7)));
        assert_eq!(report.retries, 2);
        assert_eq!(report.attempts.len(), 3);
        assert_eq!(report.backoff_evals, 64 + 128);
        assert!(!report.quarantined);
    }

    #[test]
    fn non_retryable_fails_immediately() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let (res, report) = sup.run(
            "fatal",
            |_e: &String| false,
            |_| Err::<(), _>("hard".to_string()),
        );
        assert!(matches!(res, Some(Err(_))));
        assert_eq!(report.retries, 0);
        assert_eq!(report.attempts.len(), 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = SuperviseConfig {
            max_retries: 2,
            ..SuperviseConfig::default()
        };
        let mut sup = Supervisor::new(cfg);
        let mut calls = 0u32;
        let (res, report) = sup.run(
            "always-fails",
            |_e: &String| true,
            |_| {
                calls += 1;
                Err::<(), _>("nope".to_string())
            },
        );
        assert!(matches!(res, Some(Err(_))));
        assert_eq!(calls, 3); // 1 attempt + 2 retries
        assert_eq!(report.retries, 2);
    }

    #[test]
    fn repeat_failures_quarantine_the_key() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = SuperviseConfig {
            max_retries: 1,
            quarantine_after: 3,
            ..SuperviseConfig::default()
        };
        let mut sup = Supervisor::new(cfg);
        // First run: 2 failed attempts recorded.
        let (_, r1) = sup.run("bad", |_e: &String| true, |_| Err::<(), _>("x".to_string()));
        assert!(!r1.quarantined);
        // Second run: third failure crosses the threshold mid-run.
        let (_, r2) = sup.run("bad", |_e: &String| true, |_| Err::<(), _>("x".to_string()));
        assert!(r2.quarantined);
        assert!(sup.is_quarantined("bad"));
        // Third run: never dispatched.
        let mut dispatched = false;
        let (res, r3) = sup.run(
            "bad",
            |_e: &String| true,
            |_| {
                dispatched = true;
                Ok::<_, String>(())
            },
        );
        assert!(res.is_none());
        assert!(!dispatched);
        assert!(r3.quarantined);
        assert_eq!(sup.quarantined_keys(), vec!["bad"]);
        // Other keys are unaffected.
        let (ok, _) = sup.run("good", |_e: &String| true, |_| Ok::<_, String>(1));
        assert_eq!(ok, Some(Ok(1)));
    }

    #[test]
    fn backoff_burns_the_installed_budget() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        budget::clear();
        budget::install(Budget::default().evals(100));
        let cfg = SuperviseConfig {
            max_retries: 5,
            backoff: BackoffPolicy {
                base_evals: 60,
                factor: 2,
                max_evals: 1000,
            },
            ..SuperviseConfig::default()
        };
        let mut sup = Supervisor::new(cfg);
        let (res, report) = sup.run(
            "budgeted",
            |_e: &String| true,
            |_| Err::<(), _>("transient".to_string()),
        );
        budget::clear();
        assert!(matches!(res, Some(Err(_))));
        // First backoff (60) survives, second (120) kills the budget: the
        // run ends early even though max_retries would allow more.
        assert!(report.retries <= 2, "report: {report:?}");
        assert!(report.attempts.iter().any(
            |a| matches!(&a.outcome, AttemptOutcome::Failed { error } if error.contains("budget"))
        ));
    }
}
