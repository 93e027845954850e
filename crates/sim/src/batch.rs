//! `BatchSession`: one symbolic analysis amortized over a candidate set.
//!
//! Optimizer loops evaluate thousands of same-topology candidates — a GA
//! population, an anneal chain — and every candidate historically
//! paid the full `SimSession::new` analysis cost: the structural MNA pass
//! (maximum-transversal nonsingularity proof, BTF decomposition, AMD fill
//! forecast) ran again for a pattern that never changes, because only the
//! device *values* differ between candidates.
//!
//! [`BatchSession`] captures that pattern-level work once, from a
//! prototype circuit, and [`BatchSession::bind`] stamps it into a fresh
//! [`SimSession`] for each candidate after proving (via
//! [`SimSession::pattern_fingerprint`]) that the candidate really shares
//! the prototype's pattern. The bound session's first sparse DC factor
//! consumes the shared BTF hint exactly as an unbatched session consumes
//! its own freshly computed one, and every later Newton iteration reuses
//! its symbolic structure — so batched evaluation is **bit-identical**
//! to the unbatched path while skipping the per-candidate analysis.
//!
//! What is deliberately *not* shared: numeric LU factors. The sparse
//! kernels choose pivots by relative-magnitude threshold, which depends
//! on matrix values; replaying a prototype's pivot order onto a
//! different candidate's values could diverge bitwise from that
//! candidate's own fresh factorization. Sharing only value-independent
//! pattern analysis keeps the byte-identity contract trivially true.
//!
//! ```
//! use ams_sim::BatchSession;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let proto = ams_netlist::parse_deck("
//!     Vin in 0 DC 1
//!     R1 in out 1k
//!     R2 out 0 1k
//! ")?;
//! let batch = BatchSession::capture(&proto);
//! // A candidate with different values but the same pattern binds…
//! let cand = ams_netlist::parse_deck("
//!     Vin in 0 DC 1
//!     R1 in out 2k
//!     R2 out 0 3k
//! ")?;
//! let ses = batch.bind(&cand)?;
//! assert!(ses.op()?.voltage(&cand, "out")? > 0.0);
//! // …a structurally different circuit is rejected.
//! let other = ams_netlist::parse_deck("Vin in 0 DC 1\nR1 in 0 1k")?;
//! assert!(batch.bind(&other).is_err());
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;

use ams_lint::StructuralAnalysis;
use ams_netlist::Circuit;

use crate::backend::Backend;
use crate::session::SimSession;

/// A candidate circuit handed to [`BatchSession::bind`] does not share
/// the captured prototype's factorization pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchBindError {
    /// Fingerprint disagreement between prototype and candidate.
    PatternMismatch {
        /// The prototype's pattern fingerprint.
        expected: u64,
        /// The candidate's pattern fingerprint.
        found: u64,
    },
}

impl fmt::Display for BatchBindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchBindError::PatternMismatch { expected, found } => write!(
                f,
                "candidate circuit pattern {found:#018x} does not match the captured \
                 prototype pattern {expected:#018x}; capture a new BatchSession for \
                 this topology"
            ),
        }
    }
}

impl std::error::Error for BatchBindError {}

/// Pattern-level analysis captured once per topology and shared by every
/// candidate evaluation in a batch. Cheap to clone (the analysis is
/// behind an `Arc`); safe to share across worker threads.
#[derive(Debug, Clone)]
pub struct BatchSession {
    fingerprint: u64,
    backend: Backend,
    structural: Arc<StructuralAnalysis>,
}

impl BatchSession {
    /// Captures the symbolic pattern of `prototype` with the backend
    /// chosen by [`Backend::auto_for`]: runs the structural analysis
    /// (transversal proof + BTF + fill forecast) once and records the
    /// pattern fingerprint that every later [`bind`](Self::bind) must
    /// match.
    pub fn capture(prototype: &Circuit) -> Self {
        let ses = SimSession::new(prototype);
        Self::from_session(&ses)
    }

    /// Captures with an explicit backend, bypassing auto-selection.
    pub fn capture_with_backend(prototype: &Circuit, backend: Backend) -> Self {
        let ses = SimSession::with_backend(prototype, backend);
        Self::from_session(&ses)
    }

    fn from_session(ses: &SimSession<'_>) -> Self {
        let batch = BatchSession {
            fingerprint: ses.pattern_fingerprint(),
            backend: ses.backend(),
            structural: ses.structural(),
        };
        ams_trace::counter_add("sim.batch.capture", 1);
        batch
    }

    /// The captured pattern fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The backend every bound session uses.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The shared structural verdict (pattern-only, value-independent).
    pub fn structural(&self) -> &Arc<StructuralAnalysis> {
        &self.structural
    }

    /// Binds a candidate circuit to a fresh [`SimSession`] that reuses
    /// the captured analysis instead of recomputing it.
    ///
    /// # Errors
    ///
    /// [`BatchBindError::PatternMismatch`] when the candidate's
    /// fingerprint differs from the prototype's — sharing pattern
    /// analysis across differing patterns would be unsound, so the
    /// caller must fall back to [`SimSession::new`] (or capture a new
    /// batch) for such circuits.
    pub fn bind<'c>(&self, ckt: &'c Circuit) -> Result<SimSession<'c>, BatchBindError> {
        let ses = SimSession::with_backend(ckt, self.backend);
        let found = ses.pattern_fingerprint();
        if found != self.fingerprint {
            return Err(BatchBindError::PatternMismatch {
                expected: self.fingerprint,
                found,
            });
        }
        ses.seed_structural(Arc::clone(&self.structural));
        ams_trace::counter_add("sim.batch.bind", 1);
        Ok(ses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::parse_deck;

    fn divider(r1: &str, r2: &str) -> Circuit {
        parse_deck(&format!(
            "V1 in 0 DC 10
             R1 in out {r1}
             R2 out 0 {r2}"
        ))
        .unwrap()
    }

    #[test]
    fn bound_session_shares_the_captured_analysis() {
        let proto = divider("9k", "1k");
        let batch = BatchSession::capture_with_backend(&proto, Backend::Sparse);
        let cand = divider("4k", "6k");
        let ses = batch.bind(&cand).expect("same pattern");
        assert!(std::sync::Arc::ptr_eq(
            &ses.structural(),
            batch.structural()
        ));
        assert_eq!(ses.backend(), Backend::Sparse);
    }

    #[test]
    fn bind_is_bit_identical_to_a_fresh_session() {
        let proto = divider("9k", "1k");
        for backend in [Backend::Dense, Backend::Sparse] {
            let batch = BatchSession::capture_with_backend(&proto, backend);
            // Candidate values differ from the prototype's.
            let cand = divider("2.7k", "3.3k");
            let batched = batch.bind(&cand).expect("same pattern");
            let fresh = SimSession::with_backend(&cand, backend);
            let a = batched.op().unwrap();
            let b = fresh.op().unwrap();
            assert_eq!(a.x.len(), b.x.len());
            for (x, y) in a.x.iter().zip(b.x.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "op must match bitwise");
            }
            let freqs = crate::ac::log_frequencies(1.0, 1e6, 21);
            let sa = batched.ac("out", &freqs).unwrap();
            let sb = fresh.ac("out", &freqs).unwrap();
            for (x, y) in sa.values.iter().zip(sb.values.iter()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "ac re must match bitwise");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "ac im must match bitwise");
            }
        }
    }

    #[test]
    fn pattern_mismatch_is_a_structured_error() {
        let proto = divider("9k", "1k");
        let batch = BatchSession::capture(&proto);
        let other = parse_deck("V1 in 0 DC 1\nR1 in 0 1k").unwrap();
        let err = batch.bind(&other).expect_err("different pattern");
        let BatchBindError::PatternMismatch { expected, found } = &err;
        assert_eq!(*expected, batch.fingerprint());
        assert_ne!(expected, found);
        assert!(err.to_string().contains("does not match"));
    }
}
