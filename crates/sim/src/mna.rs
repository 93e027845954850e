//! Modified nodal analysis: unknown layout and matrix stamping.
//!
//! The layout assigns one unknown per non-ground node plus one auxiliary
//! branch-current unknown per voltage-defined element (independent voltage
//! source, inductor, VCVS). The same layout is shared by DC, AC, transient,
//! noise and AWE so results can be cross-referenced by index.

use ams_netlist::{Circuit, NodeId};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::backend::Backend;
use crate::csc::CscLu;
use crate::error::SimError;
use crate::linalg::{Lu, Matrix, Scalar, SingularMatrix};
use crate::sparse::{
    count_refresh, factor_counted, solve_cached, BlockStructure, Refresh, Triplets,
};

/// Maps circuit nodes and voltage-defined branches to MNA unknown indices.
#[derive(Debug, Clone)]
pub struct MnaLayout {
    /// `node_index[node.index()]` = unknown index, `None` for ground.
    node_index: Vec<Option<usize>>,
    /// Device list index → branch-current unknown index.
    branch_index: BTreeMap<usize, usize>,
    n_signal_nodes: usize,
    dim: usize,
}

impl MnaLayout {
    /// Builds the layout for a circuit.
    pub fn new(ckt: &Circuit) -> Self {
        let n_nodes = ckt.num_nodes();
        let mut node_index = vec![None; n_nodes];
        for (i, slot) in node_index.iter_mut().enumerate().skip(1) {
            *slot = Some(i - 1);
        }
        let n_signal = n_nodes - 1;
        let mut branch_index = BTreeMap::new();
        let mut next = n_signal;
        for (i, (_, dev)) in ckt.devices().enumerate() {
            if dev.needs_branch_current() {
                branch_index.insert(i, next);
                next += 1;
            }
        }
        MnaLayout {
            node_index,
            branch_index,
            n_signal_nodes: n_signal,
            dim: next,
        }
    }

    /// Total number of unknowns.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of non-ground nodes (the first `n` unknowns are node voltages).
    pub fn n_signal_nodes(&self) -> usize {
        self.n_signal_nodes
    }

    /// Unknown index of a node, `None` for ground.
    pub fn node(&self, id: NodeId) -> Option<usize> {
        self.node_index[id.index()]
    }

    /// Branch-current unknown of the `i`-th device, if it has one.
    pub fn branch(&self, device_list_index: usize) -> Option<usize> {
        self.branch_index.get(&device_list_index).copied()
    }
}

/// Backend-specific matrix storage of a [`Stamper`].
#[derive(Debug, Clone)]
pub(crate) enum StamperMatrix<T> {
    /// Dense storage for small systems.
    Dense(Matrix<T>),
    /// Triplet list for the sparse backend; the push *sequence* is the
    /// pattern key that lets [`CscLu::refactor`] skip symbolic analysis.
    Sparse(Triplets<T>),
    /// No matrix: matrix stamps are dropped, and only the right-hand side
    /// is built, for a solve against a [`HeldFactor`].
    RhsOnly,
}

/// An MNA system under construction: `A·x = z`, real for DC and transient,
/// [`Complex`](crate::Complex) for AC and noise.
///
/// The matrix half is backend-polymorphic: device stamps go through
/// [`Stamper::add`], which either accumulates into a dense matrix or
/// appends a triplet. Stamping the same circuit twice therefore produces
/// the same triplet sequence, which is what makes sparse numeric
/// refactorization possible across Newton iterations and timesteps. One
/// solve dispatch sends a stamped system to the dense or the sparse LU.
#[derive(Debug, Clone)]
pub struct Stamper<T = f64> {
    pub(crate) a: StamperMatrix<T>,
    /// Right-hand side.
    pub z: Vec<T>,
}

impl<T: Scalar> Stamper<T> {
    /// A zeroed matrix on `backend` over the right-hand side `z`.
    pub(crate) fn over(z: Vec<T>, backend: Backend) -> Self {
        let dim = z.len();
        let a = match backend {
            Backend::Dense => StamperMatrix::Dense(Matrix::zeros(dim, dim)),
            Backend::Sparse => StamperMatrix::Sparse(Triplets::new(dim)),
        };
        Stamper { a, z }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.z.len()
    }

    /// Adds `v` to matrix entry `(i, j)` — the primitive every stamp is
    /// built from.
    pub fn add(&mut self, i: usize, j: usize, v: T) {
        match &mut self.a {
            StamperMatrix::Dense(m) => m[(i, j)] = m[(i, j)].add(v),
            StamperMatrix::Sparse(t) => t.push(i, j, v),
            StamperMatrix::RhsOnly => {}
        }
    }

    /// Solves `A·x = z`: dense elimination, or the sparse kernel against
    /// the factor `slot` (refactored or reused while the triplet pattern
    /// holds, see `solve_cached`). `btf` supplies the structural block
    /// partition when a fresh sparse factorization needs one.
    pub(crate) fn solve_in(
        mut self,
        slot: &mut Option<CscLu<T>>,
        btf: impl FnOnce() -> Option<Arc<BlockStructure>>,
    ) -> Result<Vec<T>, SingularMatrix> {
        self.solve_in_place(slot, btf)?;
        Ok(self.z)
    }

    /// [`Stamper::solve_in`] without giving the storage up: `z` holds the
    /// solution on success. A dense matrix is eliminated where it stands,
    /// so it holds factors, not the stamped values, until the next
    /// [`Stamper::clear`].
    pub(crate) fn solve_in_place(
        &mut self,
        slot: &mut Option<CscLu<T>>,
        btf: impl FnOnce() -> Option<Arc<BlockStructure>>,
    ) -> Result<(), SingularMatrix> {
        match &mut self.a {
            StamperMatrix::Dense(m) => m.solve_in_place(&mut self.z),
            StamperMatrix::Sparse(t) => {
                self.z = solve_cached(slot, t, &self.z, btf)?;
                Ok(())
            }
            StamperMatrix::RhsOnly => panic!("solve of a stamper that holds no matrix"),
        }
    }

    /// Zeroes the matrix and the right-hand side for the next stamp,
    /// keeping their storage: a dense matrix is filled with zeros and the
    /// sparse triplets are emptied, as a fresh stamper of the same
    /// backend would start.
    pub(crate) fn clear(&mut self) {
        match &mut self.a {
            StamperMatrix::Dense(m) => m.fill_zero(),
            StamperMatrix::Sparse(t) => t.clear(),
            StamperMatrix::RhsOnly => {}
        }
        self.z.fill(T::ZERO);
    }

    /// Factors `A` on this stamper's backend and keeps the factor for any
    /// number of right-hand sides: the factor-and-keep twin of
    /// [`Stamper::solve_in`]. The right-hand side `z` is dropped.
    pub(crate) fn factor(self) -> Result<Factored<T>, SingularMatrix> {
        match self.a {
            StamperMatrix::Dense(m) => Ok(Factored::Dense(m.lu()?)),
            StamperMatrix::Sparse(t) => {
                let lu = factor_counted(&t, None)?;
                Ok(Factored::Sparse(t, Box::new(lu)))
            }
            StamperMatrix::RhsOnly => panic!("factor of a stamper that holds no matrix"),
        }
    }

    /// One-shot factor-and-solve of `A·x = z` on whichever backend this
    /// stamper was built for, without keeping the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when elimination fails.
    pub fn solve(self) -> Result<Vec<T>, SingularMatrix> {
        self.solve_in(&mut None, || None)
    }
}

/// A stamped matrix factored on its stamper's backend (see
/// [`Stamper::factor`]). The sparse factor keeps its triplets, since its
/// solves refine against them exactly as [`Stamper::solve_in`]'s do.
#[derive(Debug, Clone)]
pub(crate) enum Factored<T> {
    /// Dense partial-pivot LU.
    Dense(Lu<T>),
    /// CSC LU of the triplets.
    Sparse(Triplets<T>, Box<CscLu<T>>),
}

impl<T: Scalar> Factored<T> {
    /// Solves `A·x = b` against the kept factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the dimension.
    pub(crate) fn solve(&self, b: &[T]) -> Vec<T> {
        match self {
            Factored::Dense(lu) => lu.solve(b),
            Factored::Sparse(t, lu) => lu.solve_refined(t, b),
        }
    }
}

/// A real system held across right-hand sides until its matrix is
/// stamped again: the transient's system at one step size. Its solves give
/// the bits a fresh stamp of the same matrix would. A dense re-stamp keeps
/// an [`Lu`], whose solves agree with the one-shot elimination bit for
/// bit. A sparse re-stamp keeps its triplets and refactors the held
/// [`CscLu`] over its pivots while the pattern holds, as a factor slot does
/// (see `solve_cached`), so a run factors afresh only at its first stamp.
#[derive(Debug, Default)]
pub(crate) struct HeldFactor(Option<Factored<f64>>);

impl HeldFactor {
    /// Stamps a new `dim × dim` system with `stamp` in place of the held
    /// one, factors it on `backend` and solves its right-hand side. The
    /// held matrix is released before the new one is stamped, and sparse
    /// triplets are refilled in their own storage, so a re-stamp never
    /// holds two matrices. After an error nothing is held.
    pub(crate) fn restamp(
        &mut self,
        dim: usize,
        backend: Backend,
        stamp: &dyn Fn(&mut Stamper),
    ) -> Result<Vec<f64>, SingularMatrix> {
        let mut slot = None;
        let mut st = match self.0.take() {
            Some(Factored::Sparse(mut t, lu)) => {
                t.clear();
                slot = Some(*lu);
                Stamper::over_triplets(t)
            }
            _ => Stamper::with_backend(dim, backend),
        };
        stamp(&mut st);
        match st.a {
            StamperMatrix::Dense(m) => {
                let lu = m.lu()?;
                let x = lu.solve(&st.z);
                self.0 = Some(Factored::Dense(lu));
                Ok(x)
            }
            StamperMatrix::Sparse(t) => {
                let x = solve_cached(&mut slot, &t, &st.z, || None)?;
                self.0 = slot.map(|lu| Factored::Sparse(t, Box::new(lu)));
                Ok(x)
            }
            StamperMatrix::RhsOnly => unreachable!("a re-stamp always stamps a matrix"),
        }
    }

    /// Stamps only a right-hand side with `stamp` and solves the held
    /// matrix against it. A sparse solve counts as a kept factorization
    /// (`sim.sparse.symbolic_reuse`, `sim.sparse.reuse`), as a re-stamp of
    /// the same values would.
    ///
    /// # Panics
    ///
    /// Panics if nothing is held.
    pub(crate) fn solve(&self, dim: usize, stamp: &dyn Fn(&mut Stamper)) -> Vec<f64> {
        let held = self
            .0
            .as_ref()
            .expect("a held solve follows a successful re-stamp");
        let mut rhs = Stamper::rhs_only(dim);
        stamp(&mut rhs);
        if matches!(held, Factored::Sparse(..)) {
            count_refresh(Refresh::Reused);
        }
        held.solve(&rhs.z)
    }
}

impl Stamper {
    /// Fresh zeroed dense system of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Stamper::with_backend(dim, Backend::Dense)
    }

    /// Fresh zeroed system of dimension `dim` on the given backend.
    pub fn with_backend(dim: usize, backend: Backend) -> Self {
        Stamper::over(vec![0.0; dim], backend)
    }

    /// A zeroed right-hand side of dimension `dim` with no matrix: the
    /// same stamps build the same `z` bit for bit, for a solve against a
    /// [`HeldFactor`].
    fn rhs_only(dim: usize) -> Self {
        Stamper {
            a: StamperMatrix::RhsOnly,
            z: vec![0.0; dim],
        }
    }

    /// A sparse system stamped into the empty triplet list `t`.
    fn over_triplets(t: Triplets<f64>) -> Self {
        debug_assert!(t.is_empty(), "stamping over pushed triplets");
        Stamper {
            z: vec![0.0; t.dim()],
            a: StamperMatrix::Sparse(t),
        }
    }

    /// Stamps a conductance `g` between unknowns `i` and `j`
    /// (either may be `None` = ground).
    pub fn conductance(&mut self, i: Option<usize>, j: Option<usize>, g: f64) {
        if let Some(i) = i {
            self.add(i, i, g);
        }
        if let Some(j) = j {
            self.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (i, j) {
            self.add(i, j, -g);
            self.add(j, i, -g);
        }
    }

    /// Stamps a transconductance: current `gm·(V(cp)−V(cm))` flowing out of
    /// `p` and into `m`.
    pub fn transconductance(
        &mut self,
        p: Option<usize>,
        m: Option<usize>,
        cp: Option<usize>,
        cm: Option<usize>,
        gm: f64,
    ) {
        for (out, sign_out) in [(p, 1.0), (m, -1.0)] {
            let Some(row) = out else { continue };
            for (ctrl, sign_c) in [(cp, 1.0), (cm, -1.0)] {
                if let Some(col) = ctrl {
                    self.add(row, col, sign_out * sign_c * gm);
                }
            }
        }
    }

    /// Stamps a current `i_amps` injected into unknown `n`.
    pub fn current_into(&mut self, n: Option<usize>, i_amps: f64) {
        if let Some(n) = n {
            self.z[n] += i_amps;
        }
    }

    /// Stamps the incidence of a voltage-defined branch `br` across `(p, m)`:
    /// KCL columns and the KVL row, with the branch voltage forced to
    /// `volts` (callers add controlled-source terms separately).
    pub fn voltage_branch(&mut self, br: usize, p: Option<usize>, m: Option<usize>, volts: f64) {
        if let Some(p) = p {
            self.add(p, br, 1.0);
            self.add(br, p, 1.0);
        }
        if let Some(m) = m {
            self.add(m, br, -1.0);
            self.add(br, m, -1.0);
        }
        self.z[br] += volts;
    }

    /// Matrix-vector product `A·x`, used for residual checks.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the dimension.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        match &self.a {
            StamperMatrix::Dense(m) => m.mul_vec(x),
            StamperMatrix::Sparse(t) => t.mul_vec(x),
            StamperMatrix::RhsOnly => panic!("mul_vec of a stamper that holds no matrix"),
        }
    }

    /// Consumes a *dense* stamper into its matrix and right-hand side.
    ///
    /// # Panics
    ///
    /// Panics when called on a stamper without a dense matrix.
    #[cfg(test)]
    fn into_dense(self) -> (Matrix, Vec<f64>) {
        match self.a {
            StamperMatrix::Dense(m) => (m, self.z),
            _ => panic!("into_dense on a non-dense stamper"),
        }
    }

    /// Consumes a *sparse* stamper into its triplets and right-hand side —
    /// the path [`crate::SimSession::dc_system`] uses.
    ///
    /// # Panics
    ///
    /// Panics when called on a stamper without triplets.
    pub(crate) fn into_triplets(self) -> (Triplets<f64>, Vec<f64>) {
        match self.a {
            StamperMatrix::Sparse(t) => (t, self.z),
            _ => panic!("into_triplets on a non-sparse stamper"),
        }
    }
}

/// Linear(ized) time-invariant network in `(G + sC)·x = b` form.
///
/// This is the common currency between AC analysis, noise analysis and
/// [AWE](https://en.wikipedia.org/wiki/Asymptotic_waveform_evaluation):
/// `G` holds conductances and incidences, `C` holds capacitances and
/// (negated) inductances in branch rows, and `b` is the small-signal
/// excitation vector.
///
/// `G` and `C` are kept as triplets and their union is assembled once, so
/// a linearization costs memory in proportion to the nonzeros on either
/// backend and a grid-sized network never holds an `n × n` matrix. The
/// net remembers the [`Backend`] it was linearized for: every complex
/// system stamped from it and the one factorization of `G`
/// ([`LinearNet::solve_g`]) go through that backend's side of the one
/// solve dispatch.
#[derive(Debug, Clone)]
pub struct LinearNet {
    g: Triplets<f64>,
    c: Triplets<f64>,
    /// Excitation vector (AC source magnitudes).
    pub b: Vec<f64>,
    /// Shared unknown layout.
    pub layout: MnaLayout,
    backend: Backend,
    pattern: Vec<Entry>,
    g_factor: OnceLock<Result<Factored<f64>, SingularMatrix>>,
}

/// One entry of the assembled `G + sC` pattern.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) row: usize,
    pub(crate) col: usize,
    /// Assembled `G` value.
    pub(crate) g: f64,
    /// Assembled `C` value.
    pub(crate) c: f64,
}

impl LinearNet {
    /// Wraps the stamped `G` and `C` triplets and assembles their pattern:
    /// every coordinate whose assembled `G` or `C` value is nonzero, in
    /// row-major order — the triplet *sequence* every complex system of
    /// this net stamps, so a sparse sweep runs symbolic analysis once.
    pub(crate) fn new(
        g: Triplets<f64>,
        c: Triplets<f64>,
        b: Vec<f64>,
        layout: MnaLayout,
        backend: Backend,
    ) -> Self {
        let (g_rows, c_rows) = (g.row_major(), c.row_major());
        let mut pattern = Vec::with_capacity(g_rows.len().max(c_rows.len()));
        let (mut gi, mut ci) = (g_rows.into_iter().peekable(), c_rows.into_iter().peekable());
        loop {
            let (row, col) = match (gi.peek(), ci.peek()) {
                (Some(&(i, j, _)), Some(&(k, l, _))) => (i, j).min((k, l)),
                (Some(&(i, j, _)), None) | (None, Some(&(i, j, _))) => (i, j),
                (None, None) => break,
            };
            let g = gi
                .next_if(|e| (e.0, e.1) == (row, col))
                .map_or(0.0, |e| e.2);
            let c = ci
                .next_if(|e| (e.0, e.1) == (row, col))
                .map_or(0.0, |e| e.2);
            if g != 0.0 || c != 0.0 {
                pattern.push(Entry { row, col, g, c });
            }
        }
        LinearNet {
            g,
            c,
            b,
            layout,
            backend,
            pattern,
            g_factor: OnceLock::new(),
        }
    }

    /// Takes `lu` as this net's factor of `G` when it holds exactly `G`'s
    /// values (see [`CscLu::holds`]) — as the sparse DC factor of a linear
    /// circuit does at its operating point, since every Newton iteration
    /// stamped the same matrix — so no second factorization runs.
    pub(crate) fn adopt_g_factor(&self, lu: &CscLu<f64>) {
        if lu.holds(&self.g) {
            let _ = self
                .g_factor
                .set(Ok(Factored::Sparse(self.g.clone(), Box::new(lu.clone()))));
        }
    }

    /// Dimension of the system.
    pub fn dim(&self) -> usize {
        self.layout.dim()
    }

    /// Conductance/incidence matrix: the DC Newton matrix at the operating
    /// point, the triplet sequence [`crate::SimSession::dc_system`] stamps.
    pub fn g(&self) -> &Triplets<f64> {
        &self.g
    }

    /// Susceptance (capacitance / inductance) matrix multiplying `s`.
    pub fn c(&self) -> &Triplets<f64> {
        &self.c
    }

    /// The backend this net's solves dispatch to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The assembled `G + sC` pattern, row-major.
    pub(crate) fn pattern(&self) -> &[Entry] {
        &self.pattern
    }

    /// `C·x`, each row summed over its assembled entries in column order,
    /// as a dense row-by-vector product sums it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the dimension.
    pub fn c_mul(&self, x: &[f64]) -> Vec<f64> {
        self.mul_assembled(x, |e| e.c)
    }

    /// `G·x`, summed like [`LinearNet::c_mul`].
    pub(crate) fn g_mul(&self, x: &[f64]) -> Vec<f64> {
        self.mul_assembled(x, |e| e.g)
    }

    fn mul_assembled(&self, x: &[f64], value: impl Fn(&Entry) -> f64) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "dimension mismatch");
        let mut y = vec![0.0; self.dim()];
        for e in &self.pattern {
            let v = value(e);
            if v != 0.0 {
                y[e.row] += v * x[e.col];
            }
        }
        y
    }

    /// Solves `G·x = rhs` — the real system every AWE moment solves.
    ///
    /// `G` is factored once per linearization, on the first call, and
    /// every later call of any caller reuses that factor: the moments of
    /// every order and of every excitation share one LU. A sparse session
    /// hands a linear circuit's DC factor over instead, so there no
    /// factorization runs at all. Each factorization is counted under
    /// `sim.g_factors`.
    ///
    /// # Errors
    ///
    /// * [`SimError::Singular`] when `G` cannot be factored (the network
    ///   has no DC path somewhere).
    /// * [`SimError::BadParameter`] when `rhs` does not have one entry per
    ///   unknown.
    pub fn solve_g(&self, rhs: &[f64]) -> Result<Vec<f64>, SimError> {
        if rhs.len() != self.dim() {
            return Err(SimError::BadParameter(format!(
                "right-hand side has {} entries but the network has {} unknowns",
                rhs.len(),
                self.dim()
            )));
        }
        let factor = self.g_factor.get_or_init(|| {
            ams_trace::counter_add("sim.g_factors", 1);
            let mut st = Stamper::with_backend(self.dim(), self.backend);
            for (i, j, v) in self.g.iter() {
                st.add(i, j, v);
            }
            st.factor()
        });
        match factor {
            Ok(f) => Ok(f.solve(rhs)),
            Err(e) => Err(SimError::Singular(*e)),
        }
    }
}

/// Resolves a circuit and an output node name into the unknown index.
///
/// # Errors
///
/// Returns `None` when the node does not exist or is ground.
pub fn output_index(ckt: &Circuit, layout: &MnaLayout, node: &str) -> Option<usize> {
    ckt.find_node(node).and_then(|n| layout.node(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::{Circuit, Device};

    #[test]
    fn layout_counts_unknowns() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add("V1", Device::vdc(a, Circuit::GROUND, 1.0));
        ckt.add("R1", Device::resistor(a, b, 1.0));
        ckt.add("L1", Device::inductor(b, Circuit::GROUND, 1e-9));
        let layout = MnaLayout::new(&ckt);
        // 2 nodes + V branch + L branch.
        assert_eq!(layout.dim(), 4);
        assert_eq!(layout.n_signal_nodes(), 2);
        assert_eq!(layout.node(Circuit::GROUND), None);
        assert!(layout.branch(0).is_some()); // V1
        assert!(layout.branch(1).is_none()); // R1
        assert!(layout.branch(2).is_some()); // L1
    }

    #[test]
    fn conductance_stamp_is_symmetric() {
        let mut st = Stamper::new(2);
        st.conductance(Some(0), Some(1), 0.5);
        let (a, _) = st.into_dense();
        assert_eq!(a[(0, 0)], 0.5);
        assert_eq!(a[(1, 1)], 0.5);
        assert_eq!(a[(0, 1)], -0.5);
        assert_eq!(a[(1, 0)], -0.5);
    }

    #[test]
    fn grounded_conductance_stamps_diagonal_only() {
        let mut st = Stamper::new(2);
        st.conductance(Some(1), None, 2.0);
        let (a, _) = st.into_dense();
        assert_eq!(a[(1, 1)], 2.0);
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn held_factor_solves_match_slot_solves_bitwise() {
        // A divider with a branch, stamped into the held factor twice with
        // different values; every re-stamp, and every right-hand side
        // solved against the held matrix, must give the bits that stamping
        // the full system and solving it through a factor slot gives.
        let stamp = |g: f64| {
            move |st: &mut Stamper| {
                st.conductance(Some(0), Some(1), 1.0 / 3.0);
                st.conductance(Some(1), None, g);
                st.voltage_branch(2, Some(0), None, 1.5);
            }
        };
        let bits = |x: Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for backend in [Backend::Dense, Backend::Sparse] {
            let mut slot = None;
            let mut slot_solve = |f: &dyn Fn(&mut Stamper)| {
                let mut st = Stamper::with_backend(3, backend);
                f(&mut st);
                bits(st.solve_in(&mut slot, || None).unwrap())
            };
            let mut held = HeldFactor::default();
            for g in [0.7, 0.2] {
                let x = held.restamp(3, backend, &stamp(g)).unwrap();
                assert_eq!(bits(x), slot_solve(&stamp(g)), "{backend:?}: re-stamp");
                for i in [-2e-3, 5e-3] {
                    let rhs = |st: &mut Stamper| {
                        stamp(g)(st);
                        st.current_into(Some(1), i);
                    };
                    assert_eq!(
                        bits(held.solve(3, &rhs)),
                        slot_solve(&rhs),
                        "{backend:?}: held solve at g = {g}, i = {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn voltage_branch_solves_divider_on_both_backends() {
        // V(1V) — R(1Ω) — R(1Ω) — gnd; middle node must sit at 0.5 V.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.add("V1", Device::vdc(top, Circuit::GROUND, 1.0));
        ckt.add("R1", Device::resistor(top, mid, 1.0));
        ckt.add("R2", Device::resistor(mid, Circuit::GROUND, 1.0));
        let layout = MnaLayout::new(&ckt);
        for backend in [Backend::Dense, Backend::Sparse] {
            let mut st = Stamper::with_backend(layout.dim(), backend);
            st.conductance(layout.node(top), layout.node(mid), 1.0);
            st.conductance(layout.node(mid), None, 1.0);
            st.voltage_branch(layout.branch(0).unwrap(), layout.node(top), None, 1.0);
            let x = st.solve().unwrap();
            assert!((x[layout.node(mid).unwrap()] - 0.5).abs() < 1e-12);
            assert!((x[layout.node(top).unwrap()] - 1.0).abs() < 1e-12);
        }
    }
}
