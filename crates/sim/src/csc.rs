//! Compressed-sparse-column LU: KLU-style analyze / factor / refactor —
//! the one sparse kernel behind [`crate::Backend::Sparse`].
//!
//! The work splits KLU-style, so the fill-reducing order is fixed before
//! any numeric elimination runs:
//!
//! 1. **Analyze** — assemble the unique compressed-column pattern, compute
//!    an exact power-of-two row/column equilibration ([`crate::scale`]),
//!    and pick a fill-reducing column order: AMD on the symmetrized
//!    pattern, nested inside the analyzer's BTF block partition when the
//!    session provides one ([`crate::amd`]).
//! 2. **Factor** — left-looking Gilbert–Peierls elimination in the ordered
//!    column sequence: a depth-first reach over the partially built `L`
//!    discovers each column's update steps and fill pattern, then one
//!    dense-scatter pass computes the column and picks a pivot row by
//!    threshold preference — the structural mirror row when it is within
//!    [`PIVOT_THRESHOLD`] of the column maximum, else the largest
//!    magnitude, ties to the lowest row index.
//! 3. **Refactor** — while the stamped triplet sequence is unchanged
//!    (Newton iterations, transient steps, AC points), replay the frozen
//!    symbolic structure through the *same* numeric routine. The
//!    arithmetic sequence is identical to a fresh factorization of the
//!    same values, so refactored solves are bit-identical — the contract
//!    `solve_cached` and the checkpoint/resume machinery rely on. The
//!    same argument lets a refactor whose values are bit-identical to the
//!    ones the factors came from skip equilibration and elimination
//!    altogether and keep the factors.
//!
//! Everything is computed serially from ordered containers: results are
//! byte-deterministic for a given input at any `AMS_EXEC_THREADS`.

use std::sync::Arc;

use crate::amd::fill_reducing_order;
use crate::linalg::{Scalar, SingularMatrix};
use crate::scale::equilibrate;
use crate::sparse::{BlockStructure, RefactorError, Refresh, Triplets};

/// Relative magnitude threshold for pivot acceptance: a candidate must be
/// at least this fraction of the largest magnitude in its column.
const PIVOT_THRESHOLD: f64 = 1e-3;
/// Absolute pivot underflow guard, matching the dense LU.
const PIVOT_MIN: f64 = 1e-300;
/// A refactorization pivot that has decayed below this fraction of its
/// column's largest entry signals that the frozen pivot order went
/// numerically stale.
const REFACTOR_DECAY: f64 = 1e-12;

/// Sparse LU `R·A·C = P·L·U` over a fill-reducing column order, with a
/// frozen symbolic structure for bit-identical numeric refactorization.
#[derive(Debug, Clone)]
pub struct CscLu<T> {
    n: usize,
    /// `(row, col)` sequence of the triplets this pattern was built from.
    pattern: Vec<(u32, u32)>,
    /// Unique CSC pattern of the assembled matrix.
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    /// Triplet index → slot in `avals` (duplicates share a slot).
    slot_of: Vec<u32>,
    /// Assembled, equilibrated values, aligned with `row_idx`.
    avals: Vec<T>,
    /// Row / column equilibration (exact powers of two).
    rs: Vec<f64>,
    cs: Vec<f64>,
    /// Elimination step → original column (the BTF∘AMD order).
    q: Vec<u32>,
    /// Elimination step → chosen pivot row; `pinv` is its inverse.
    prow: Vec<u32>,
    pinv: Vec<u32>,
    /// Per step, in one contiguous CSC-style span (`u_ptr[k]..u_ptr[k+1]`):
    /// earlier steps whose L column updates this one, ascending — a valid
    /// replay order, since L dependencies only point backwards. Flat
    /// storage keeps the refactor/solve inner loops on contiguous memory;
    /// per-column `Vec`s cost a pointer chase and a cache miss per column.
    u_ptr: Vec<u32>,
    u_steps: Vec<u32>,
    /// `U(u_steps[s], k)`, aligned with `u_steps`.
    u_vals: Vec<T>,
    /// Per step (`l_ptr[k]..l_ptr[k+1]`): below-pivot original rows,
    /// ascending, and the multipliers.
    l_ptr: Vec<u32>,
    l_rows: Vec<u32>,
    l_vals: Vec<T>,
    pivots: Vec<T>,
    /// Raw triplet values, in push order, that the current factors were
    /// computed from: the reuse key of [`CscLu::refactor`]. Emptied while
    /// a numeric refactor overwrites the factors, so a failed one leaves
    /// no key to match.
    factored_vals: Vec<T>,
    fill_in: u64,
    btf: Option<Arc<BlockStructure>>,
}

impl<T: Scalar> CscLu<T> {
    /// Full analyze + factor of the assembled triplets. A BTF hint (from
    /// the structural analyzer, via the session) nests the AMD order inside
    /// the block partition; without one, plain AMD is used.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] naming the original column at which no
    /// acceptable pivot exists.
    pub fn factor(
        t: &Triplets<T>,
        btf: Option<Arc<BlockStructure>>,
    ) -> Result<Self, SingularMatrix> {
        let n = t.dim();
        let (trows, tcols, tvals) = t.parts();

        // Unique CSC pattern + triplet→slot map (duplicates sum).
        let mut uniq: Vec<(u32, u32)> = tcols.iter().copied().zip(trows.iter().copied()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        let mut col_ptr = vec![0u32; n + 1];
        for &(c, _) in &uniq {
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let row_idx: Vec<u32> = uniq.iter().map(|&(_, r)| r).collect();
        let slot_of: Vec<u32> = (0..tvals.len())
            .map(|k| {
                let key = (tcols[k], trows[k]);
                uniq.binary_search(&key).expect("own entry") as u32
            })
            .collect();

        let mut lu = CscLu {
            n,
            pattern: trows.iter().copied().zip(tcols.iter().copied()).collect(),
            col_ptr,
            row_idx,
            slot_of,
            avals: Vec::new(),
            rs: Vec::new(),
            cs: Vec::new(),
            q: Vec::new(),
            prow: vec![0; n],
            pinv: vec![u32::MAX; n],
            u_ptr: vec![0; 1],
            u_steps: Vec::new(),
            u_vals: Vec::new(),
            l_ptr: vec![0; 1],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            pivots: vec![T::ZERO; n],
            factored_vals: tvals.to_vec(),
            fill_in: 0,
            btf: btf.clone(),
        };
        lu.assemble(t);
        lu.q = fill_reducing_order(n, &lu.col_ptr, &lu.row_idx, btf.as_deref());

        // Left-looking factorization in the ordered column sequence. The
        // symbolic scratch (`steps`, `cand`, marks, DFS stack) is reused
        // across columns: clearing beats 2n fresh allocations per matrix.
        let mut w = vec![T::ZERO; n];
        let mut smark = vec![u32::MAX; n]; // visited steps, stamped per column
        let mut rmark = vec![u32::MAX; n]; // candidate rows, stamped per column
        let mut stack: Vec<(u32, u32)> = Vec::new();
        let mut steps: Vec<u32> = Vec::new();
        let mut cand: Vec<u32> = Vec::new();
        for k in 0..n {
            let ok = lu.q[k] as usize;
            let stamp = k as u32;

            // Symbolic: reach over L from the column's stamped pattern.
            steps.clear();
            cand.clear();
            for s in lu.col_ptr[ok] as usize..lu.col_ptr[ok + 1] as usize {
                let r = lu.row_idx[s];
                let j = lu.pinv[r as usize];
                if j == u32::MAX {
                    if rmark[r as usize] != stamp {
                        rmark[r as usize] = stamp;
                        cand.push(r);
                    }
                } else if smark[j as usize] != stamp {
                    smark[j as usize] = stamp;
                    stack.push((j, 0));
                    while let Some(&mut (jj, ref mut ci)) = stack.last_mut() {
                        let span =
                            lu.l_ptr[jj as usize] as usize..lu.l_ptr[jj as usize + 1] as usize;
                        if (*ci as usize) < span.len() {
                            let r2 = lu.l_rows[span.start + *ci as usize];
                            *ci += 1;
                            let j2 = lu.pinv[r2 as usize];
                            if j2 == u32::MAX {
                                if rmark[r2 as usize] != stamp {
                                    rmark[r2 as usize] = stamp;
                                    cand.push(r2);
                                }
                            } else if smark[j2 as usize] != stamp {
                                smark[j2 as usize] = stamp;
                                stack.push((j2, 0));
                            }
                        } else {
                            steps.push(jj);
                            stack.pop();
                        }
                    }
                }
            }
            steps.sort_unstable();
            cand.sort_unstable();

            // Numeric: scatter, apply updates, read the U column.
            scatter_column(
                &lu.col_ptr,
                &lu.row_idx,
                &lu.avals,
                &lu.prow,
                &lu.l_ptr,
                &lu.l_rows,
                &lu.l_vals,
                ok,
                &steps,
                &mut w,
            );
            lu.u_vals
                .extend(steps.iter().map(|&j| w[lu.prow[j as usize] as usize]));

            // Pivot: prefer the structural mirror row within threshold.
            let mut col_max = 0.0f64;
            for &r in &cand {
                col_max = col_max.max(w[r as usize].mag());
            }
            if !(col_max.is_finite() && col_max >= PIVOT_MIN) {
                return Err(SingularMatrix { pivot: ok });
            }
            let mut piv_row = u32::MAX;
            for &r in &cand {
                if r as usize == ok && w[r as usize].mag() >= PIVOT_THRESHOLD * col_max {
                    piv_row = r;
                    break;
                }
                if piv_row == u32::MAX && w[r as usize].mag() == col_max {
                    piv_row = r;
                }
            }
            let pivot = w[piv_row as usize];

            for &r in &cand {
                if r != piv_row {
                    lu.l_rows.push(r);
                    lu.l_vals.push(w[r as usize].div(pivot));
                }
            }

            // Gather done: clear the touched workspace entries.
            for &r in &cand {
                w[r as usize] = T::ZERO;
            }
            for &j in &steps {
                w[lu.prow[j as usize] as usize] = T::ZERO;
            }

            lu.fill_in += (steps.len() + cand.len()) as u64;
            lu.prow[k] = piv_row;
            lu.pinv[piv_row as usize] = stamp;
            lu.pivots[k] = pivot;
            lu.u_steps.extend_from_slice(&steps);
            lu.u_ptr.push(lu.u_steps.len() as u32);
            lu.l_ptr.push(lu.l_rows.len() as u32);
        }
        lu.fill_in = lu.fill_in.saturating_sub(lu.row_idx.len() as u64);
        Ok(lu)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entries created by elimination beyond the assembled pattern:
    /// `nnz(L+U) − nnz(A)`.
    pub fn fill_in(&self) -> u64 {
        self.fill_in
    }

    /// The block-triangular structure the column order was nested in, if
    /// the caller provided one at factor time.
    pub fn block_structure(&self) -> Option<&Arc<BlockStructure>> {
        self.btf.as_ref()
    }

    /// Sum duplicates in triplet push order, then equilibrate — both steps
    /// identical between factor and refactor, keeping replay bit-exact.
    fn assemble(&mut self, t: &Triplets<T>) {
        let (_, _, tvals) = t.parts();
        self.avals.clear();
        self.avals.resize(self.row_idx.len(), T::ZERO);
        for (k, &v) in tvals.iter().enumerate() {
            let s = self.slot_of[k] as usize;
            self.avals[s] = self.avals[s].add(v);
        }
        let (rs, cs) = equilibrate(self.n, &self.col_ptr, &self.row_idx, &self.avals);
        for (j, &cj) in cs.iter().enumerate() {
            for s in self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize {
                self.avals[s] = self.avals[s].scale(rs[self.row_idx[s] as usize] * cj);
            }
        }
        self.rs = rs;
        self.cs = cs;
    }

    /// Numeric refactorization over the frozen pattern, order, and pivot
    /// rows. Replays the exact arithmetic sequence of [`CscLu::factor`].
    ///
    /// When every value is bit-identical ([`Scalar::same_bits`]) to the
    /// ones the current factors were computed from, the replay would
    /// reproduce them bit for bit, so it is skipped and
    /// [`Refresh::Reused`] is returned; otherwise the elimination runs and
    /// the result is [`Refresh::Numeric`].
    ///
    /// # Errors
    ///
    /// [`RefactorError::PatternChanged`] when the triplet sequence differs
    /// from the one this factorization was built from, and
    /// [`RefactorError::Unstable`] when a frozen pivot underflows or decays
    /// below [`REFACTOR_DECAY`] of its column maximum. After `Unstable` the
    /// factorization is left partially overwritten and no later call
    /// reuses it: discard and re-factor.
    pub fn refactor(&mut self, t: &Triplets<T>) -> Result<Refresh, RefactorError> {
        if !self.same_pattern(t) {
            return Err(RefactorError::PatternChanged);
        }
        if self.same_values(t) {
            return Ok(Refresh::Reused);
        }
        self.factored_vals.clear();
        self.assemble(t);
        let mut w = vec![T::ZERO; self.n];
        for k in 0..self.n {
            let ok = self.q[k] as usize;
            let steps = &self.u_steps[self.u_ptr[k] as usize..self.u_ptr[k + 1] as usize];
            scatter_column(
                &self.col_ptr,
                &self.row_idx,
                &self.avals,
                &self.prow,
                &self.l_ptr,
                &self.l_rows,
                &self.l_vals,
                ok,
                steps,
                &mut w,
            );
            for (s, &j) in (self.u_ptr[k] as usize..).zip(steps) {
                self.u_vals[s] = w[self.prow[j as usize] as usize];
            }
            let piv_row = self.prow[k] as usize;
            let pivot = w[piv_row];
            let lspan = self.l_ptr[k] as usize..self.l_ptr[k + 1] as usize;
            let mut col_max = pivot.mag();
            for &r in &self.l_rows[lspan.clone()] {
                col_max = col_max.max(w[r as usize].mag());
            }
            if !pivot.finite() || pivot.mag() < PIVOT_MIN || pivot.mag() < REFACTOR_DECAY * col_max
            {
                return Err(RefactorError::Unstable { step: k });
            }
            self.pivots[k] = pivot;
            for s in lspan.clone() {
                self.l_vals[s] = w[self.l_rows[s] as usize].div(pivot);
            }
            for &r in &self.l_rows[lspan] {
                w[r as usize] = T::ZERO;
            }
            w[piv_row] = T::ZERO;
            for &j in steps {
                w[self.prow[j as usize] as usize] = T::ZERO;
            }
        }
        self.factored_vals.extend_from_slice(t.parts().2);
        Ok(Refresh::Numeric)
    }

    /// Whether the current factors are those of `t`: the triplet sequence
    /// this factorization was built for, with the values the factors were
    /// computed from, bit for bit — the case in which
    /// [`CscLu::refactor`] keeps them.
    pub fn holds(&self, t: &Triplets<T>) -> bool {
        self.same_pattern(t) && self.same_values(t)
    }

    fn same_pattern(&self, t: &Triplets<T>) -> bool {
        let (trows, tcols, _) = t.parts();
        t.dim() == self.n
            && trows.len() == self.pattern.len()
            && self
                .pattern
                .iter()
                .zip(trows.iter().zip(tcols))
                .all(|(&(r, c), (&tr, &tc))| (r, c) == (tr, tc))
    }

    fn same_values(&self, t: &Triplets<T>) -> bool {
        let (_, _, tvals) = t.parts();
        // The length test is what keeps a cleared key from matching: `zip`
        // over an empty key is vacuously all-equal.
        self.factored_vals.len() == tvals.len()
            && self
                .factored_vals
                .iter()
                .zip(tvals)
                .all(|(&a, &b)| a.same_bits(b))
    }

    /// Solves `A·x = b` using the stored factors (scaling applied and
    /// removed internally).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let mut w: Vec<T> = b.iter().zip(&self.rs).map(|(&v, &r)| v.scale(r)).collect();
        for k in 0..self.n {
            let yk = w[self.prow[k] as usize];
            let span = self.l_ptr[k] as usize..self.l_ptr[k + 1] as usize;
            for (&r, &v) in self.l_rows[span.clone()].iter().zip(&self.l_vals[span]) {
                let r = r as usize;
                w[r] = w[r].sub(v.mul(yk));
            }
        }
        let mut x = vec![T::ZERO; self.n];
        for k in (0..self.n).rev() {
            let xk = w[self.prow[k] as usize].div(self.pivots[k]);
            x[self.q[k] as usize] = xk;
            let span = self.u_ptr[k] as usize..self.u_ptr[k + 1] as usize;
            for (&j, &v) in self.u_steps[span.clone()].iter().zip(&self.u_vals[span]) {
                let pr = self.prow[j as usize] as usize;
                w[pr] = w[pr].sub(v.mul(xk));
            }
        }
        for (xj, &cj) in x.iter_mut().zip(&self.cs) {
            *xj = xj.scale(cj);
        }
        x
    }

    /// Solves `A·x = b` with two fixed steps of iterative refinement
    /// against the raw (unscaled) triplets.
    ///
    /// Threshold pivoting accepts pivots down to `PIVOT_THRESHOLD` (1e-3)
    /// of their column maximum to preserve sparsity, so element growth can
    /// cost the raw triangular solve several digits on grid-scale systems.
    /// Each refinement step computes the residual `r = b − A·x` and
    /// back-substitutes the correction, restoring the digits at the price
    /// of two extra `O(nnz)` passes. The step count is fixed (not
    /// residual-gated) so the arithmetic sequence — and hence cross-thread
    /// byte determinism — never depends on intermediate values.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or the triplet dimension does not match.
    pub fn solve_refined(&self, t: &Triplets<T>, b: &[T]) -> Vec<T> {
        assert_eq!(t.dim(), self.n, "triplet dimension mismatch");
        let (trows, tcols, tvals) = t.parts();
        let mut x = self.solve(b);
        for _ in 0..2 {
            let mut r = b.to_vec();
            for k in 0..tvals.len() {
                let i = trows[k] as usize;
                r[i] = r[i].sub(tvals[k].mul(x[tcols[k] as usize]));
            }
            let dx = self.solve(&r);
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi = xi.add(*di);
            }
        }
        x
    }
}

/// Shared numeric core: scatter assembled column `ok` into `w` and apply
/// the updates of `steps` in ascending order. Used verbatim by both factor
/// and refactor so their arithmetic sequences coincide. A free function
/// over the individual field slices so `refactor` can keep its borrow of
/// the frozen `u_steps` spans across the call.
#[allow(clippy::too_many_arguments)]
fn scatter_column<T: Scalar>(
    col_ptr: &[u32],
    row_idx: &[u32],
    avals: &[T],
    prow: &[u32],
    l_ptr: &[u32],
    l_rows: &[u32],
    l_vals: &[T],
    ok: usize,
    steps: &[u32],
    w: &mut [T],
) {
    for s in col_ptr[ok] as usize..col_ptr[ok + 1] as usize {
        w[row_idx[s] as usize] = avals[s];
    }
    for &j in steps {
        let j = j as usize;
        let ujk = w[prow[j] as usize];
        let span = l_ptr[j] as usize..l_ptr[j + 1] as usize;
        for (&r, &v) in l_rows[span.clone()].iter().zip(&l_vals[span]) {
            let r = r as usize;
            w[r] = w[r].sub(v.mul(ujk));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{Complex, Matrix};

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64) / (1u64 << 31) as f64 - 0.5
    }

    fn random_system(n: usize, seed: u64) -> (Triplets<f64>, Matrix, Vec<f64>) {
        let mut s = seed;
        let mut t = Triplets::new(n);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let d = 4.0 + lcg(&mut s).abs();
            t.push(i, i, d);
            dense[(i, i)] += d;
            for _ in 0..3 {
                let j = ((lcg(&mut s).abs() * 10.0 * n as f64) as usize) % n;
                let v = lcg(&mut s);
                t.push(i, j, v);
                dense[(i, j)] += v;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| lcg(&mut s) + i as f64 * 0.01).collect();
        (t, dense, b)
    }

    #[test]
    fn matches_dense_lu_on_random_systems() {
        for seed in 1..8u64 {
            let (t, dense, b) = random_system(40, seed);
            let lu = CscLu::factor(&t, None).unwrap();
            let xs = lu.solve_refined(&t, &b);
            let xd = dense.clone().lu().unwrap().solve(&b);
            for (a, d) in xs.iter().zip(&xd) {
                assert!((a - d).abs() < 1e-9, "seed {seed}: {a} vs {d}");
            }
        }
    }

    #[test]
    fn refactor_is_bit_identical_to_fresh_factor() {
        let (t0, _, b) = random_system(30, 7);
        let mut lu = CscLu::factor(&t0, None).unwrap();
        let mut t1 = Triplets::new(t0.dim());
        let (rows, cols, vals) = t0.parts();
        for k in 0..vals.len() {
            let (i, j) = (rows[k] as usize, cols[k] as usize);
            t1.push(i, j, vals[k] * 1.25 + if i == j { 0.5 } else { 0.0 });
        }
        lu.refactor(&t1).unwrap();
        let x_re = lu.solve_refined(&t1, &b);
        let x_fresh = CscLu::factor(&t1, None).unwrap().solve_refined(&t1, &b);
        for (a, f) in x_re.iter().zip(&x_fresh) {
            assert_eq!(a.to_bits(), f.to_bits(), "refactor must replay exactly");
        }
    }

    /// A copy of `t` with the value at push index `k` replaced by `v`.
    fn with_value(t: &Triplets<f64>, k: usize, v: f64) -> Triplets<f64> {
        let (rows, cols, vals) = t.parts();
        let mut out = Triplets::new(t.dim());
        for i in 0..vals.len() {
            let val = if i == k { v } else { vals[i] };
            out.push(rows[i] as usize, cols[i] as usize, val);
        }
        out
    }

    #[test]
    fn bit_identical_restamp_reuses_factors() {
        let (t0, _, b) = random_system(30, 11);
        let mut lu = CscLu::factor(&t0, None).unwrap();
        assert_eq!(lu.refactor(&t0.clone()), Ok(Refresh::Reused));
        let fresh = |t: &Triplets<f64>| CscLu::factor(t, None).unwrap().solve_refined(t, &b);
        let same_bits =
            |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(a, c)| a.to_bits() == c.to_bits());
        assert!(same_bits(&lu.solve_refined(&t0, &b), &fresh(&t0)));

        // A changed value refactors; re-stamping it again reuses that.
        let (_, _, vals) = t0.parts();
        let t1 = with_value(&t0, 0, vals[0] * 1.25);
        assert_eq!(lu.refactor(&t1), Ok(Refresh::Numeric));
        assert_eq!(lu.refactor(&t1.clone()), Ok(Refresh::Reused));
        assert!(same_bits(&lu.solve_refined(&t1, &b), &fresh(&t1)));
    }

    #[test]
    fn signed_zero_and_nan_never_reuse() {
        // Diagonal plus one off-diagonal entry that is zero or NaN: the
        // NaN lands in a factor entry no pivot depends on, so refactoring
        // with it succeeds and would leave a NaN key behind.
        let mut t = Triplets::new(4);
        for i in 0..4 {
            t.push(i, i, 2.0 + i as f64);
        }
        t.push(1, 2, 0.0);
        let k = t.len() - 1;
        let mut lu = CscLu::factor(&t, None).unwrap();
        let neg = with_value(&t, k, -0.0);
        assert_eq!(lu.refactor(&neg), Ok(Refresh::Numeric), "-0 is not +0");
        assert_eq!(lu.refactor(&neg), Ok(Refresh::Reused));
        assert_eq!(lu.refactor(&t), Ok(Refresh::Numeric), "+0 is not -0");

        let nan = with_value(&t, k, f64::NAN);
        assert_eq!(lu.refactor(&nan), Ok(Refresh::Numeric));
        assert_eq!(lu.refactor(&nan), Ok(Refresh::Numeric), "NaN never matches");
        let mut from_nan = CscLu::factor(&nan, None).unwrap();
        assert_eq!(from_nan.refactor(&nan), Ok(Refresh::Numeric));
    }

    #[test]
    fn failed_refactor_leaves_no_reusable_key() {
        let mut good = Triplets::new(2);
        good.push(0, 0, 1.0);
        good.push(0, 1, 0.0);
        good.push(1, 0, 0.0);
        good.push(1, 1, 1.0);
        let mut lu = CscLu::factor(&good, None).unwrap();
        let bad = with_value(&with_value(&good, 1, 1.0), 3, 0.0);
        assert!(matches!(
            lu.refactor(&bad),
            Err(RefactorError::Unstable { .. })
        ));
        // The factors are half overwritten: the last good values must
        // refactor, not match a key the failed call left behind.
        assert_eq!(lu.refactor(&good), Ok(Refresh::Numeric));
        let b = [3.0, 7.0];
        let fresh = CscLu::factor(&good, None).unwrap().solve_refined(&good, &b);
        for (a, f) in lu.solve_refined(&good, &b).iter().zip(&fresh) {
            assert_eq!(a.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn pattern_change_is_detected() {
        let (t0, _, _) = random_system(10, 3);
        let mut lu = CscLu::factor(&t0, None).unwrap();
        let mut t1 = Triplets::new(10);
        t1.push(0, 0, 1.0);
        assert_eq!(lu.refactor(&t1), Err(RefactorError::PatternChanged));
    }

    #[test]
    fn zero_diagonal_needs_off_diagonal_pivot() {
        // Voltage-source style: [[0, 1], [1, 0]] — structurally zero
        // diagonal, solvable only with off-diagonal pivots.
        let mut t = Triplets::new(2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let lu = CscLu::factor(&t, None).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pivot_columns_are_singular() {
        let mut t = Triplets::new(3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 0.0);
        let err = CscLu::factor(&t, None).unwrap_err();
        assert_eq!(err.pivot, 2);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = Triplets::new(1);
        t.push(0, 0, 1.5);
        t.push(0, 0, 2.5);
        let lu = CscLu::factor(&t, None).unwrap();
        let x = lu.solve(&[8.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn badly_scaled_system_survives_threshold_pivoting() {
        // Rows spanning 12 decades: without equilibration the threshold
        // test compares magnitudes across scales and picks poorly.
        let n = 6;
        let mut t = Triplets::new(n);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let s = 10f64.powi(2 * i as i32 - 6);
            let d = 3.0 * s;
            t.push(i, i, d);
            dense[(i, i)] += d;
            let j = (i + 1) % n;
            t.push(i, j, s);
            dense[(i, j)] += s;
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let lu = CscLu::factor(&t, None).unwrap();
        let x = lu.solve_refined(&t, &b);
        let xd = dense.lu().unwrap().solve(&b);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() <= 1e-9 * d.abs().max(1.0), "{a} vs {d}");
        }
    }

    #[test]
    fn arrow_matrix_stays_fill_free() {
        // Dense first row/col + diagonal: AMD must defer the hub to last.
        let n = 20;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, 5.0);
        }
        for i in 1..n {
            t.push(0, i, 1.0);
            t.push(i, 0, 1.0);
        }
        let lu = CscLu::factor(&t, None).unwrap();
        assert_eq!(lu.fill_in(), 0, "AMD keeps the arrow fill-free");
        let b = vec![1.0; n];
        let x = lu.solve_refined(&t, &b);
        let back = t.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_solve_round_trips() {
        let n = 12;
        let mut s = 99u64;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, Complex::new(3.0 + lcg(&mut s).abs(), 1.0));
            let j = (i + 3) % n;
            t.push(i, j, Complex::new(lcg(&mut s), lcg(&mut s)));
        }
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64 * 0.3 - 1.0, 0.5))
            .collect();
        let lu = CscLu::factor(&t, None).unwrap();
        let x = lu.solve_refined(&t, &b);
        let back = t.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-10);
        }
    }

    #[test]
    fn unstable_refactor_reports_error() {
        let mut t = Triplets::new(2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 0.0);
        t.push(1, 0, 0.0);
        t.push(1, 1, 1.0);
        let mut lu = CscLu::factor(&t, None).unwrap();
        let mut t2 = Triplets::new(2);
        t2.push(0, 0, 1.0);
        t2.push(0, 1, 1.0);
        t2.push(1, 0, 0.0);
        t2.push(1, 1, 0.0);
        assert!(matches!(
            lu.refactor(&t2),
            Err(RefactorError::Unstable { .. })
        ));
    }

    #[test]
    fn missing_column_is_singular() {
        let mut t = Triplets::new(3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 0, 1.0); // column 2 never referenced
        assert!(CscLu::factor(&t, None).is_err());
    }
}
