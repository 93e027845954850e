//! Sparse linear algebra: triplet assembly and the factor-or-refactor
//! solve every sparse analysis funnels through.
//!
//! MNA matrices from grid-scale RAIL analysis (§3.2 of the tutorial) have a
//! few nonzeros per row, so the dense O(n³) LU in [`crate::linalg`] is
//! hopeless beyond a few hundred unknowns. The sparse backend follows the
//! classic SPICE fast path on one kernel, [`CscLu`]:
//!
//! 1. **First factorization** — symbolic analysis (BTF∘AMD column order,
//!    equilibration) and numeric elimination, recording the pivot rows and
//!    the full fill pattern.
//! 2. **Numeric refactorization** — while the stamped triplet sequence is
//!    unchanged (Newton iterations, transient timesteps, AC frequency
//!    points), only the numeric elimination repeats over the frozen
//!    pattern; no symbolic analysis.
//! 3. **Factor reuse** — when the re-stamped values are also bit-identical
//!    to the ones the factors came from (a linear circuit's DC Newton
//!    iterations), the elimination would replay the same arithmetic on the
//!    same inputs, so it is skipped and the cached factors serve the
//!    solve. A linear transient does not re-stamp at all while its step
//!    size holds: it stamps only the right-hand side and solves against
//!    the factor it keeps.
//!
//! The kernel is generic over [`Scalar`] so one implementation serves the
//! real analyses (DC, transient) and the complex ones (AC, noise), where
//! the pattern of `G + jωC` is constant across the whole sweep. The
//! refactorization replays the exact arithmetic sequence of the first
//! factorization, so a refactored solve is bit-identical to a freshly
//! factored one.

use std::sync::Arc;

use crate::csc::CscLu;
use crate::linalg::{Scalar, SingularMatrix};

/// Triplet (coordinate-format) builder for a square sparse matrix.
///
/// Duplicate `(row, col)` entries are allowed and sum during assembly —
/// exactly the semantics MNA stamping needs. The *sequence* of pushed
/// coordinates is the pattern key for [`CscLu::refactor`]: re-stamping
/// the same circuit at a different operating point produces the same
/// sequence, so only numbers change.
#[derive(Debug, Clone)]
pub struct Triplets<T> {
    dim: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> Triplets<T> {
    /// Empty builder for a `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        assert!(dim < u32::MAX as usize, "dimension too large");
        Triplets {
            dim,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of pushed entries (duplicates not merged).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no entry has been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Removes every entry, keeping the storage for the next stamp.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Adds `v` at `(i, j)`. Zero values are kept: they hold a place in the
    /// pattern so re-stamps with a nonzero there still refactor cleanly.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.dim && j < self.dim, "triplet out of bounds");
        self.rows.push(i as u32);
        self.cols.push(j as u32);
        self.vals.push(v);
    }

    /// Raw `(rows, cols, vals)` views for the CSC kernel.
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[T]) {
        (&self.rows, &self.cols, &self.vals)
    }

    /// The pushed `(row, col, value)` entries in push order, duplicates
    /// not merged.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&i, &j), &v)| (i as usize, j as usize, v))
    }

    /// The assembled matrix in row-major order: one `(row, col, value)`
    /// per distinct coordinate, its duplicates summed in push order
    /// starting from zero — exactly the value a dense matrix accumulating
    /// the same pushes holds. Coordinates whose sum is zero are kept.
    pub(crate) fn row_major(&self) -> Vec<(usize, usize, T)> {
        let mut order: Vec<u32> = (0..self.vals.len() as u32).collect();
        // Stable, so duplicates stay in push order.
        order.sort_by_key(|&k| (self.rows[k as usize], self.cols[k as usize]));
        let mut out: Vec<(usize, usize, T)> = Vec::with_capacity(order.len());
        for k in order {
            let (i, j, v) = (
                self.rows[k as usize] as usize,
                self.cols[k as usize] as usize,
                self.vals[k as usize],
            );
            match out.last_mut() {
                Some(last) if (last.0, last.1) == (i, j) => last.2 = last.2.add(v),
                _ => out.push((i, j, T::ZERO.add(v))),
            }
        }
        out
    }

    /// Dense `A·x` for residual checks and tests.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        let mut y = vec![T::ZERO; self.dim];
        for k in 0..self.vals.len() {
            let (i, j) = (self.rows[k] as usize, self.cols[k] as usize);
            y[i] = y[i].add(self.vals[k].mul(x[j]));
        }
        y
    }
}

/// How a successful [`CscLu::refactor`] brought its factors up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refresh {
    /// The values were bit-identical to the ones the factors were computed
    /// from, so the factors were kept as they are.
    Reused,
    /// A numeric refactorization ran over the frozen pattern.
    Numeric,
}

/// Why a numeric refactorization could not reuse the frozen pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorError {
    /// The triplet sequence no longer matches the symbolic pattern (e.g. a
    /// MOS device changed orientation between Newton iterations).
    PatternChanged,
    /// A pivot on the frozen order underflowed or decayed; the caller must
    /// run a fresh full factorization to re-pivot.
    Unstable {
        /// Elimination step at which the pivot failed.
        step: usize,
    },
}

impl std::fmt::Display for RefactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorError::PatternChanged => write!(f, "matrix pattern changed"),
            RefactorError::Unstable { step } => {
                write!(f, "pivot order went unstable at step {step}")
            }
        }
    }
}

/// Block-triangular structure of a matrix pattern, as computed by the
/// structural analyzer (`ams_lint::structural`): unknowns listed block by
/// block in a dependencies-first (block lower triangular) order. Handed to
/// [`CscLu::factor`] by the session, which nests its AMD column order in
/// the block partition and keeps the structure for downstream consumers —
/// block-wise solves, partitioned refactorization — so they can exploit it
/// without re-running the decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStructure {
    /// Column permutation, blocks concatenated in topological order.
    pub perm: Vec<u32>,
    /// `perm[block_ptr[b] as usize..block_ptr[b + 1] as usize]` is block
    /// `b`.
    pub block_ptr: Vec<u32>,
}

impl BlockStructure {
    /// Number of irreducible diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_ptr.len().saturating_sub(1)
    }
}

/// Factor-or-refactor solve against a cached factorization slot: tries
/// [`CscLu::refactor`] on `*lu` first (which keeps the factors when the
/// values are bit-identical and refactors numerically otherwise) and falls
/// back to a fresh symbolic+numeric factorization (updating the cache)
/// when the pattern changed or the refactorization went unstable. `btf`
/// yields the structural analyzer's block partition, asked only when the
/// slot is empty, to seed the first factorization's column ordering.
/// Bumps the trace counters accordingly: `sim.sparse.symbolic` and
/// `sim.sparse.fill_in` per fresh factorization, `sim.sparse.symbolic_reuse`
/// per solve that skipped it, split into `sim.sparse.refactor` (a numeric
/// refactor ran) and `sim.sparse.reuse` (served from unchanged factors).
/// Every sparse stamp the crate solves funnels through here, via the
/// stamper's one solve dispatch or a transient's re-stamp, so the counters
/// stay consistent; a transient's solve against its held factor counts as
/// a kept one (see [`count_refresh`]).
pub(crate) fn solve_cached<T: Scalar>(
    lu: &mut Option<CscLu<T>>,
    t: &Triplets<T>,
    b: &[T],
    btf: impl FnOnce() -> Option<Arc<BlockStructure>>,
) -> Result<Vec<T>, SingularMatrix> {
    let hint = match lu.as_mut() {
        Some(f) => {
            if let Ok(refresh) = f.refactor(t) {
                count_refresh(refresh);
                return Ok(f.solve_refined(t, b));
            }
            // Pattern changed or the replayed pivots decayed: discard and
            // redo the symbolic analysis from scratch.
            *lu = None;
            None
        }
        None => btf(),
    };
    let f = factor_counted(t, hint)?;
    let x = f.solve_refined(t, b);
    *lu = Some(f);
    Ok(x)
}

/// Counts a solve that skipped symbolic analysis under
/// `sim.sparse.symbolic_reuse`, and under `sim.sparse.reuse` or
/// `sim.sparse.refactor` by how its factors were brought up to date.
pub(crate) fn count_refresh(refresh: Refresh) {
    ams_trace::counter_add("sim.sparse.symbolic_reuse", 1);
    ams_trace::counter_add(
        match refresh {
            Refresh::Reused => "sim.sparse.reuse",
            Refresh::Numeric => "sim.sparse.refactor",
        },
        1,
    );
}

/// A fresh symbolic + numeric [`CscLu::factor`], counted under
/// `sim.sparse.symbolic` and `sim.sparse.fill_in`: the one place the crate
/// starts a sparse factorization.
pub(crate) fn factor_counted<T: Scalar>(
    t: &Triplets<T>,
    btf: Option<Arc<BlockStructure>>,
) -> Result<CscLu<T>, SingularMatrix> {
    let f = CscLu::factor(t, btf)?;
    ams_trace::counter_add("sim.sparse.symbolic", 1);
    ams_trace::counter_add("sim.sparse.fill_in", f.fill_in());
    Ok(f)
}
