//! Linear-solver backend selection for MNA analyses.

use std::fmt;

/// Which linear-algebra engine an analysis uses for its MNA solves.
///
/// [`Backend::Dense`] is the partial-pivot LU in [`crate::linalg`] — ideal
/// for the 10–100 device cells of §3.1. [`Backend::Sparse`] is the
/// BTF∘AMD-ordered CSC LU in [`crate::csc`] with symbolic-factorization
/// reuse — the only viable choice for grid-scale RAIL networks (§3.2).
/// Both backends produce the same solutions to solver tolerance; the sparse
/// path additionally guarantees bit-identical results between its
/// factor and refactor code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Dense partial-pivot LU, O(n³); lowest constant factors.
    Dense,
    /// Triplet-assembled CSC sparse LU with pattern reuse.
    Sparse,
}

impl Backend {
    /// Unknown count at and above which [`Backend::auto_for`] picks the
    /// sparse backend.
    pub const AUTO_SPARSE_DIM: usize = 128;

    /// Selects a backend for a system of `dim` unknowns: sparse at
    /// [`Backend::AUTO_SPARSE_DIM`] and above, dense below.
    ///
    /// The `AMS_SIM_BACKEND` environment variable overrides the choice:
    /// `dense` or `sparse` (case-insensitive) force that backend for every
    /// auto-selected session — the CI matrix leg uses this to run the whole
    /// test suite under both engines. Any other value falls back to the
    /// size rule.
    pub fn auto_for(dim: usize) -> Backend {
        match std::env::var("AMS_SIM_BACKEND") {
            Ok(v) if v.trim().eq_ignore_ascii_case("dense") => Backend::Dense,
            Ok(v) if v.trim().eq_ignore_ascii_case("sparse") => Backend::Sparse,
            _ => {
                if dim >= Self::AUTO_SPARSE_DIM {
                    Backend::Sparse
                } else {
                    Backend::Dense
                }
            }
        }
    }

    /// Short lowercase name, e.g. for logs and trace events.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Sparse => "sparse",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rule_splits_at_threshold() {
        // The env override is process-global, so only exercise the size rule
        // when the matrix leg has not forced a backend.
        if std::env::var("AMS_SIM_BACKEND").is_err() {
            assert_eq!(Backend::auto_for(10), Backend::Dense);
            assert_eq!(Backend::auto_for(Backend::AUTO_SPARSE_DIM), Backend::Sparse);
            assert_eq!(Backend::auto_for(10_000), Backend::Sparse);
        }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(Backend::Dense.as_str(), "dense");
        assert_eq!(Backend::Sparse.to_string(), "sparse");
    }
}
