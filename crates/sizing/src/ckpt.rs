//! Shared vocabulary for checkpointed optimizer runs.
//!
//! The GA checkpoints at generation and polish-round boundaries
//! ([`evolve_ckpt`](crate::genetic::evolve_ckpt)). An anneal is not
//! checkpointed on its own; `ams-core`'s resumable flow journals the
//! sized cell it produces as one phase. The contract:
//!
//! * Every boundary appends one record to the caller's [`CkptStore`]: the
//!   complete optimizer state — population, per-species elites, loop
//!   counters, the serialized xoshiro256++ RNG state, and the
//!   trace-counter delta accrued since the run began — plus the eval-cache
//!   entries first inserted since the previous boundary (a fresh run's
//!   first record carries every entry the cache held, warm-loaded ones
//!   included). A record therefore stays about the same size however long
//!   the run.
//! * A resumed run imports the cache entries of every record in journal
//!   order, restores the last record's state, re-applies its counter
//!   delta, and continues the exact RNG stream, so its final result
//!   **and** its final trace counters are byte-identical to an
//!   uninterrupted same-seed run (modulo `exec.steals`, which is
//!   scheduling-dependent and exempted repo-wide). A journal whose records
//!   each carry the whole cache reads the same way.
//! * A run started with a checkpoint store but no prior records behaves
//!   exactly like the plain [`evolve`](crate::genetic::evolve).
//!
//! [`CkptRun::halt_after`] is the deterministic in-process crash hook: the
//! run commits boundary `n` and then returns
//! [`SizingCkptError::Halted`] instead of continuing, simulating a process
//! death at the worst moment (state committed, successor work lost). The
//! kill/resume harness layers real `SIGKILL`/`SIGABRT` on top of this.

use std::fmt;

use ams_ckpt::{CkptError, CkptStore};

/// Checkpointing options threaded through a resumable optimizer run.
#[derive(Debug)]
pub struct CkptRun<'a> {
    /// Journal to resume from and commit to.
    pub store: &'a mut CkptStore,
    /// If set, halt (deterministically) right after committing this
    /// generation boundary of the GA.
    pub halt_after: Option<usize>,
}

impl<'a> CkptRun<'a> {
    /// A run that checkpoints every boundary and never self-halts.
    pub fn new(store: &'a mut CkptStore) -> Self {
        CkptRun {
            store,
            halt_after: None,
        }
    }

    /// A run that halts after committing boundary `n` (crash simulation).
    pub fn halting_after(store: &'a mut CkptStore, n: usize) -> Self {
        CkptRun {
            store,
            halt_after: Some(n),
        }
    }
}

/// Why a checkpointed optimizer run did not return a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SizingCkptError {
    /// The checkpoint store failed (i/o or corruption).
    Store(CkptError),
    /// The run halted after committing the requested boundary
    /// ([`CkptRun::halt_after`]); resume by calling again with the same
    /// store.
    Halted {
        /// Boundary index that was committed before halting.
        boundary: usize,
    },
    /// The journal's state record decodes but does not fit this run: it
    /// was written by a run with other models or another population.
    Mismatch {
        /// The state field that differs: `"species"`, `"population"`,
        /// `"topology"` or `"genes"`.
        field: &'static str,
    },
}

impl fmt::Display for SizingCkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizingCkptError::Store(e) => write!(f, "checkpoint store: {e}"),
            SizingCkptError::Halted { boundary } => {
                write!(f, "halted after committing boundary {boundary}")
            }
            SizingCkptError::Mismatch { field } => {
                write!(
                    f,
                    "checkpoint state does not fit this run: its {field} differs"
                )
            }
        }
    }
}

impl std::error::Error for SizingCkptError {}

impl From<CkptError> for SizingCkptError {
    fn from(e: CkptError) -> Self {
        SizingCkptError::Store(e)
    }
}
