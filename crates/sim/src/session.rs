//! `SimSession`: the single entry point for all circuit analyses.
//!
//! A session binds a circuit to one [`MnaLayout`] and one [`Backend`]
//! choice, and carries every cache that makes repeated analyses cheap: the
//! DC operating point, the linearized small-signal network, and the DC and
//! transient factor slots its solves go through. On the sparse backend a
//! slot turns each Newton iteration or timestep into a numeric
//! refactorization instead of a full factorization, or into no
//! factorization at all when the re-stamped values did not change.
//!
//! ```
//! use ams_sim::SimSession;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ckt = ams_netlist::parse_deck("
//!     Vin in 0 DC 0 AC 1
//!     R1 in out 1k
//!     C1 out 0 1n
//! ")?;
//! let ses = SimSession::new(&ckt);
//! let op = ses.op()?;
//! assert!((op.voltage(&ckt, "out")? - 0.0).abs() < 1e-9);
//! let sweep = ses.ac("out", &ams_sim::log_frequencies(1.0, 1e9, 61))?;
//! assert!(sweep.bandwidth_3db().is_some());
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, Mutex};

use ams_lint::StructuralAnalysis;
use ams_netlist::Circuit;

use crate::ac::{sweep_net, AcSweep};
use crate::backend::Backend;
use crate::csc::CscLu;
use crate::dc::{self, OpPoint};
use crate::error::SimError;
use crate::linalg::SingularMatrix;
use crate::mna::{output_index, LinearNet, MnaLayout, Stamper};
use crate::noise::{self, NoiseResult};
use crate::sparse::{BlockStructure, Triplets};
use crate::tran::{self, TranResult};

/// Which cached real factorization slot a solve belongs to. DC and
/// transient stamps have different patterns (companion models add entries),
/// so they reuse symbolic analyses independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RealSlot {
    /// DC Newton iterations (all homotopy rungs share one pattern).
    Dc,
    /// Transient companion-model solves.
    Tran,
}

/// One circuit bound to a layout, a solver backend, and analysis caches.
///
/// Create with [`SimSession::new`] (backend auto-selected by unknown count,
/// overridable via `AMS_SIM_BACKEND`) or [`SimSession::with_backend`], then
/// call [`op`](SimSession::op), [`ac`](SimSession::ac),
/// [`tran`](SimSession::tran) and [`noise`](SimSession::noise). Analyses
/// share state: `ac` reuses the operating point `op` computed, and on the
/// sparse backend every repeated solve against an unchanged matrix pattern
/// skips symbolic analysis.
#[derive(Debug)]
pub struct SimSession<'c> {
    ckt: &'c Circuit,
    layout: MnaLayout,
    backend: Backend,
    op_cache: Mutex<Option<OpPoint>>,
    net_cache: Mutex<Option<Arc<LinearNet>>>,
    dc_lu: Mutex<Option<CscLu<f64>>>,
    tran_lu: Mutex<Option<CscLu<f64>>>,
    structural: Mutex<Option<Arc<StructuralAnalysis>>>,
}

impl<'c> SimSession<'c> {
    /// Binds a session to `ckt` with the backend chosen by
    /// [`Backend::auto_for`] from the MNA unknown count.
    pub fn new(ckt: &'c Circuit) -> Self {
        let layout = MnaLayout::new(ckt);
        let backend = Backend::auto_for(layout.dim());
        Self::build(ckt, layout, backend)
    }

    /// Binds a session with an explicit backend, bypassing auto-selection.
    pub fn with_backend(ckt: &'c Circuit, backend: Backend) -> Self {
        let layout = MnaLayout::new(ckt);
        Self::build(ckt, layout, backend)
    }

    fn build(ckt: &'c Circuit, layout: MnaLayout, backend: Backend) -> Self {
        SimSession {
            ckt,
            layout,
            backend,
            op_cache: Mutex::new(None),
            net_cache: Mutex::new(None),
            dc_lu: Mutex::new(None),
            tran_lu: Mutex::new(None),
            structural: Mutex::new(None),
        }
    }

    /// The circuit this session analyzes.
    pub fn circuit(&self) -> &'c Circuit {
        self.ckt
    }

    /// The shared unknown layout.
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// The linear-solver backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Structural fingerprint of the session's factorization pattern: the
    /// MNA dimension, the signal-node count, and every device's name,
    /// terminal unknown indices, and branch index, folded through FNV-1a.
    /// Two sessions bound to structurally identical circuits agree, so a
    /// resumed flow can prove its freshly re-captured symbolic pattern
    /// matches the one an interrupted run checkpointed. Deliberately
    /// counter-free: reading it never touches the trace sink, so a
    /// resume-side verification cannot perturb byte-identical counter
    /// comparisons between interrupted and uninterrupted runs.
    pub fn pattern_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(PRIME);
        };
        mix(&mut h, self.layout.dim() as u64);
        mix(&mut h, self.layout.n_signal_nodes() as u64);
        for (idx, (name, dev)) in self.ckt.devices().enumerate() {
            for &b in name.as_bytes() {
                mix(&mut h, u64::from(b));
            }
            // Branch and node unknowns are offset so "absent" (ground /
            // no branch) hashes differently from unknown index 0.
            mix(
                &mut h,
                match self.layout.branch(idx) {
                    Some(b) => b as u64 + 2,
                    None => 1,
                },
            );
            for nid in dev.nodes() {
                mix(
                    &mut h,
                    match self.layout.node(nid) {
                        Some(u) => u as u64 + 2,
                        None => 1,
                    },
                );
            }
            mix(&mut h, u64::MAX);
        }
        h
    }

    /// Unknown index of a named node, `None` for ground or unknown names.
    pub fn output_index(&self, node: &str) -> Option<usize> {
        output_index(self.ckt, &self.layout, node)
    }

    /// The structural verdict for this circuit's DC MNA pattern — computed
    /// once per session, cached thereafter. Covers the maximum-transversal
    /// nonsingularity proof, the BTF decomposition, and the fill forecast.
    pub fn structural(&self) -> Arc<StructuralAnalysis> {
        let mut guard = self.structural.lock().unwrap();
        if let Some(a) = guard.as_ref() {
            return Arc::clone(a);
        }
        let analysis = Arc::new(ams_lint::analyze_circuit_structure(self.ckt));
        *guard = Some(Arc::clone(&analysis));
        analysis
    }

    /// Pre-seeds the structural-analysis cache with a verdict computed
    /// from a pattern-identical prototype (see `BatchSession::bind`). The
    /// analysis is value-independent, so a seeded session behaves — bit
    /// for bit — like one that computed the verdict itself; it just skips
    /// the per-candidate analysis cost.
    pub(crate) fn seed_structural(&self, analysis: Arc<StructuralAnalysis>) {
        *self.structural.lock().unwrap() = Some(analysis);
    }

    /// Fails fast with [`SimError::StructurallySingular`] when the static
    /// analyzer proves the pattern singular — instead of letting Newton
    /// discover a zero pivot mid-iteration. Runs after the heuristic ERC
    /// gate, so heuristically recognizable defects keep their specific
    /// `E00x` codes and this catches whatever pattern-level deficiency
    /// remains.
    pub(crate) fn structural_gate(&self) -> Result<(), SimError> {
        let analysis = self.structural();
        let Some(witness) = &analysis.singular else {
            return Ok(());
        };
        let message = analysis
            .report()
            .errors()
            .next()
            .map(|d| d.message.clone())
            .unwrap_or_else(|| "MNA system is structurally singular".to_string());
        Err(SimError::StructurallySingular {
            equation: witness
                .equations
                .first()
                .cloned()
                .unwrap_or_else(|| "unknown equation".to_string()),
            message,
        })
    }

    /// DC operating point (cached: repeated calls return the first result).
    ///
    /// Runs the one convergence ladder: plain Newton, gmin stepping and
    /// source stepping, then — when all three fail — up to two restarts
    /// of the same rungs from seeded ±0.1 V perturbed starts, counted
    /// under the `sim.dc_retries` trace counter.
    ///
    /// # Errors
    ///
    /// Same as the DC ladder: [`SimError::Erc`], [`SimError::Singular`] /
    /// [`SimError::SingularNode`], or [`SimError::NoConvergence`]; after
    /// restarts, the error is the last attempt's.
    pub fn op(&self) -> Result<OpPoint, SimError> {
        if let Some(op) = self.op_cache.lock().unwrap().as_ref() {
            return Ok(op.clone());
        }
        let op = note_failure(dc::dc_op(self))?;
        *self.op_cache.lock().unwrap() = Some(op.clone());
        Ok(op)
    }

    /// Drops the cached operating point while keeping the factorization
    /// caches, so the next [`op`](SimSession::op) re-runs the Newton
    /// ladder on the frozen symbolic structure: `sim.sparse.symbolic`
    /// does not bump. Each iteration whose stamp differs from the last one
    /// in any value bit refactors numerically (`sim.sparse.refactor`);
    /// one that re-stamps bit-identical values, as every iteration of a
    /// linear circuit does, keeps the cached factors (`sim.sparse.reuse`).
    pub fn invalidate_op(&self) {
        *self.op_cache.lock().unwrap() = None;
        *self.net_cache.lock().unwrap() = None;
    }

    /// The DC Newton system `A·x = z` linearized at `x`, with gmin off and
    /// sources at full value, stamped as sparse triplets in the push order
    /// every sparse DC solve of this session uses: the pattern
    /// [`CscLu::refactor`] checks. Independent of the session's backend
    /// and caches.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the MNA dimension.
    pub fn dc_system(&self, x: &[f64]) -> (Triplets<f64>, Vec<f64>) {
        dc::dc_triplets(self.ckt, &self.layout, x)
    }

    /// Linearized small-signal network at the DC operating point (cached),
    /// on this session's backend. `G` is [`dc_system`](SimSession::dc_system)
    /// at the operating point and `C` is stamped as triplets too, so a
    /// grid linearizes in memory proportional to its nonzeros. AC, noise
    /// and every AWE moment of every excitation share the cached net, and
    /// with it one factorization of `G` — on a linear circuit the sparse
    /// DC factor itself, which already holds `G`.
    ///
    /// # Errors
    ///
    /// Any error from [`op`](SimSession::op).
    pub fn linearize(&self) -> Result<Arc<LinearNet>, SimError> {
        if let Some(net) = self.net_cache.lock().unwrap().as_ref() {
            return Ok(Arc::clone(net));
        }
        let op = self.op()?;
        let (net, _) = dc::linearized(self.ckt, self.layout.clone(), &op.x, self.backend);
        if let Some(lu) = self.dc_lu.lock().unwrap().as_ref() {
            net.adopt_g_factor(lu);
        }
        let net = Arc::new(net);
        *self.net_cache.lock().unwrap() = Some(Arc::clone(&net));
        Ok(net)
    }

    /// AC sweep of the named output node over `freqs`. On the sparse
    /// backend the `G + jωC` pattern is factored symbolically once and
    /// refactored numerically at each subsequent frequency point.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownNode`] — `out` does not name a non-ground node.
    /// * [`SimError::BadParameter`] — empty frequency list.
    /// * Any error from [`op`](SimSession::op), or
    ///   [`SimError::Singular`] at a frequency point.
    pub fn ac(&self, out: &str, freqs: &[f64]) -> Result<AcSweep, SimError> {
        let net = self.linearize()?;
        let idx = self
            .output_index(out)
            .ok_or_else(|| SimError::UnknownNode(out.to_string()))?;
        note_failure(sweep_net(&net, idx, freqs))
    }

    /// Transient analysis from the (cached) DC operating point: trapezoidal
    /// integration with a backward-Euler start-up step and local step
    /// halving, exactly as the standalone analysis ran it.
    ///
    /// # Errors
    ///
    /// * [`SimError::BadParameter`] for non-positive `tstop`/`dt`.
    /// * Any DC error from the initial operating point.
    /// * [`SimError::NoConvergence`] when a step fails at the minimum step.
    pub fn tran(&self, tstop: f64, dt: f64) -> Result<TranResult, SimError> {
        note_failure(tran::run(self, tstop, dt))
    }

    /// Noise analysis at the named output node: output PSD and integrated
    /// rms over `freqs` at temperature `temp_k`, via the adjoint method.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownNode`] — `out` does not name a non-ground node.
    /// * [`SimError::BadParameter`] — fewer than two frequencies.
    /// * Any error from [`op`](SimSession::op), or
    ///   [`SimError::Singular`] at a frequency point.
    pub fn noise(&self, out: &str, freqs: &[f64], temp_k: f64) -> Result<NoiseResult, SimError> {
        let op = self.op()?;
        let net = self.linearize()?;
        let idx = self
            .output_index(out)
            .ok_or_else(|| SimError::UnknownNode(out.to_string()))?;
        note_failure(noise::analyze(self.ckt, &op, &net, idx, freqs, temp_k))
    }

    /// Solves the stamped system `A·x = z` against the slot's cached
    /// factorization (used only on the sparse backend).
    pub(crate) fn solve_stamped(
        &self,
        st: Stamper,
        slot: RealSlot,
    ) -> Result<Vec<f64>, SingularMatrix> {
        let cache = match slot {
            RealSlot::Dc => &self.dc_lu,
            RealSlot::Tran => &self.tran_lu,
        };
        // A fresh DC factorization gets the analyzer's BTF permutation:
        // the kernel nests its AMD order inside the block partition and
        // carries it as metadata. Cloned only when no factorization is
        // cached yet, and only when the structural pass already ran (the
        // DC gate runs it before the first solve). The analyzer models the
        // DC pattern, so the transient slot gets no hint.
        st.solve_in(&mut cache.lock().unwrap(), || {
            if slot != RealSlot::Dc {
                return None;
            }
            let structural = self.structural.lock().unwrap();
            structural.as_ref().and_then(|a| a.btf.as_ref()).map(|b| {
                Arc::new(BlockStructure {
                    perm: b.perm.clone(),
                    block_ptr: b.block_ptr.clone(),
                })
            })
        })
    }
}

/// Stamps a failing analysis into the global forensics slot so flow-level
/// reports can attach the flight recorder. No cost on the Ok path; no-op
/// while the collector is off.
fn note_failure<T>(r: Result<T, SimError>) -> Result<T, SimError> {
    if let Err(e) = &r {
        if ams_trace::enabled() {
            ams_trace::record_failure(&format!("SimError: {e}"));
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::parse_deck;

    #[test]
    fn session_caches_operating_point() {
        let ckt = parse_deck(
            "V1 in 0 DC 10
             R1 in out 9k
             R2 out 0 1k",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let op1 = ses.op().unwrap();
        let op2 = ses.op().unwrap();
        assert_eq!(op1.x, op2.x);
        assert!((op1.voltage(&ckt, "out").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ac_takes_node_names() {
        let ckt = parse_deck(
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 159.154943n",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let sweep = ses
            .ac("out", &crate::ac::log_frequencies(1.0, 1e6, 121))
            .unwrap();
        assert!((sweep.dc_gain() - 1.0).abs() < 1e-6);
        let bw = sweep.bandwidth_3db().unwrap();
        assert!((bw - 1000.0).abs() / 1000.0 < 0.02, "bw = {bw}");
        assert!(matches!(
            ses.ac("no_such_node", &[1.0]),
            Err(SimError::UnknownNode(_))
        ));
    }

    #[test]
    fn forced_backends_agree() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vg  g   0 DC 1.0
             RD  vdd d 10k
             M1  d g 0 0 nch W=20u L=2u",
        )
        .unwrap();
        let dense = SimSession::with_backend(&ckt, Backend::Dense);
        let sparse = SimSession::with_backend(&ckt, Backend::Sparse);
        let xd = dense.op().unwrap().x;
        let xs = sparse.op().unwrap().x;
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-9, "dense {a} vs sparse {b}");
        }
    }

    #[test]
    fn sparse_session_reuses_symbolic_factorization() {
        // A linear divider re-stamps bit-identical values at every Newton
        // iteration; the MOS deck's conductances move between iterations.
        let divider = parse_deck(
            "V1 in 0 DC 10
             R1 in out 9k
             R2 out 0 1k",
        )
        .unwrap();
        let mos = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vg  g   0 DC 1.0
             RD  vdd d 10k
             M1  d g 0 0 nch W=20u L=2u",
        )
        .unwrap();
        ams_trace::set_enabled(true);
        let counters = |ckt: &Circuit| {
            let before = ams_trace::snapshot().counters;
            SimSession::with_backend(ckt, Backend::Sparse).op().unwrap();
            let after = ams_trace::snapshot().counters;
            move |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)
        };
        let on_divider = counters(&divider);
        let on_mos = counters(&mos);
        ams_trace::set_enabled(false);
        // Counters are process-global, so stay robust to concurrently
        // running tests: at least one symbolic analysis ran, and later
        // Newton iterations reused it instead of re-analyzing.
        assert!(
            on_divider("sim.sparse.symbolic") >= 1,
            "symbolic analysis ran"
        );
        assert!(
            on_divider("sim.sparse.symbolic_reuse") >= 1,
            "later Newton iterations must reuse the pattern"
        );
        assert!(
            on_divider("sim.sparse.reuse") >= 1,
            "unchanged values must reuse the factors"
        );
        assert!(on_mos("sim.sparse.refactor") >= 1, "numeric refactor ran");
    }

    #[test]
    fn structural_verdict_is_cached_and_btf_lands_on_the_factorization() {
        let ckt = parse_deck(
            "V1 in 0 DC 10
             R1 in out 9k
             R2 out 0 1k",
        )
        .unwrap();
        let ses = SimSession::with_backend(&ckt, Backend::Sparse);
        let a1 = ses.structural();
        let a2 = ses.structural();
        assert!(Arc::ptr_eq(&a1, &a2), "second call must serve the cache");
        assert!(a1.is_structurally_nonsingular());
        assert_eq!(a1.dim, 3);
        // The DC gate runs the analyzer before the first solve, so the
        // cached factorization carries the BTF permutation afterwards.
        ses.op().unwrap();
        let guard = ses.dc_lu.lock().unwrap();
        let lu = guard.as_ref().expect("sparse DC factorization cached");
        let btf = lu.block_structure().expect("BTF attached");
        assert_eq!(btf.perm.len(), 3);
        assert_eq!(
            btf.num_blocks(),
            a1.btf.as_ref().unwrap().num_blocks(),
            "solver and analyzer must agree on the block count"
        );
    }

    #[test]
    fn structurally_singular_deck_fails_fast_without_newton() {
        // Current-source cutset: the heuristic rules report E004; the
        // structural gate is exercised directly on the analyzer verdict
        // here, bypassing the heuristic gate.
        let ckt = parse_deck("I1 0 x DC 1u\nC1 x 0 1p").unwrap();
        let ses = SimSession::new(&ckt);
        let err = ses.structural_gate().expect_err("proven singular");
        match err {
            SimError::StructurallySingular { equation, message } => {
                assert!(equation.contains("`x`"), "{equation}");
                assert!(message.contains("structurally singular"), "{message}");
            }
            other => panic!("expected StructurallySingular, got {other}"),
        }
        // The full op() path still reports the specific heuristic code.
        assert!(matches!(ses.op(), Err(SimError::Erc { .. })));
    }

    #[test]
    fn session_noise_matches_kt_over_c() {
        let ckt = parse_deck(
            "V1 in 0 DC 0
             R1 in out 1k
             C1 out 0 1p",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let freqs = crate::ac::log_frequencies(1.0, 1e12, 600);
        let res = ses.noise("out", &freqs, 300.0).unwrap();
        let expected = (ams_netlist::units::BOLTZMANN * 300.0 / 1e-12f64).sqrt();
        assert!(
            (res.output_rms - expected).abs() / expected < 0.02,
            "rms {} vs kT/C {expected}",
            res.output_rms
        );
    }
}
