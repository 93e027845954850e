//! DC operating-point analysis: Newton–Raphson with homotopy fallbacks,
//! and the device stamps every analysis shares.
//!
//! The solver first tries plain Newton from a zero start, then gmin
//! stepping, then source stepping — the classic SPICE convergence ladder —
//! and, when all three fail, restarts the ladder from seeded perturbed
//! starts.
//! [`stamp_device`] is the one device table: the DC Newton loop stamps it
//! at each iterate, the transient adds its integrator companions, and
//! [`linearize`] reads the small-signal `G` off it at the operating point.
//! [`MosBias::at`] is the one place a MOS is oriented and evaluated.

use ams_guard::fault::{self, FaultKind};
use ams_guard::{budget, mix64};
use ams_netlist::{Circuit, Device, MosInstance, MosOp, SourceWaveform};
// det-lint: allow(hash-collection): public OpPoint API; per-device operating points are read by instance name
use std::collections::HashMap;

use crate::backend::Backend;
use crate::error::SimError;
use crate::linalg::SingularMatrix;
use crate::mna::{LinearNet, MnaLayout, Stamper};
use crate::session::{RealSlot, SimSession};
use crate::sparse::Triplets;

/// Maximum Newton iterations per homotopy stage.
const MAX_ITER: usize = 150;
/// Absolute voltage tolerance (volts).
const VNTOL: f64 = 1e-9;
/// Relative tolerance.
const RELTOL: f64 = 1e-6;
/// Per-iteration clamp on any voltage update (volts), for damping.
const MAX_STEP: f64 = 0.5;
/// Perturbed restarts of the whole ladder after its first pass fails.
const RESTARTS: u32 = 2;
/// Largest initial-condition jitter of a restart (volts): enough to step
/// out of a locally bad basin without masking real failures.
const RESTART_JITTER: f64 = 0.1;
/// Seed of the restart jitter stream.
const RESTART_SEED: u64 = 0xA5A5_5A5A;

/// Which rung of the convergence ladder produced a DC solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DcStrategy {
    /// Plain Newton–Raphson from a zero start.
    Newton,
    /// The gmin-stepping homotopy (1e-2 → 1e-12, then gmin removed).
    GminStepping,
    /// Source stepping (all independent sources ramped 10% → 100%).
    SourceStepping,
    /// Not solved at all: linearized at an assumed solution vector
    /// (see [`linearize_at`]).
    Assumed,
}

impl DcStrategy {
    /// Short lowercase name, e.g. for logs and trace events.
    pub fn as_str(&self) -> &'static str {
        match self {
            DcStrategy::Newton => "newton",
            DcStrategy::GminStepping => "gmin-stepping",
            DcStrategy::SourceStepping => "source-stepping",
            DcStrategy::Assumed => "assumed",
        }
    }
}

/// Converged DC operating point.
#[derive(Debug, Clone)]
pub struct OpPoint {
    /// Solution vector (node voltages then branch currents).
    pub x: Vec<f64>,
    /// Per-MOS operating data, keyed by instance name.
    pub mos_ops: HashMap<String, MosOp>,
    /// Total Newton iterations spent reaching this solution, summed over
    /// every homotopy rung that ran (previously only reported on failure).
    pub iterations: usize,
    /// Which convergence strategy finally succeeded.
    pub strategy: DcStrategy,
    layout: MnaLayout,
}

impl OpPoint {
    /// The MNA layout this solution uses.
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// Voltage of a named node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] when the name is not in the circuit.
    pub fn voltage(&self, ckt: &Circuit, node: &str) -> Result<f64, SimError> {
        let id = ckt
            .find_node(node)
            .ok_or_else(|| SimError::UnknownNode(node.to_string()))?;
        Ok(match self.layout.node(id) {
            Some(i) => self.x[i],
            None => 0.0,
        })
    }

    /// Branch current through the `i`-th device (voltage sources and
    /// inductors), if it has a branch unknown.
    pub fn branch_current(&self, device_list_index: usize) -> Option<f64> {
        self.layout.branch(device_list_index).map(|i| self.x[i])
    }

    /// Total current drawn from a supply device named `name`
    /// (positive = current flowing out of its positive terminal into the
    /// circuit). Returns `None` for devices without a branch current.
    pub fn supply_current(&self, ckt: &Circuit, name: &str) -> Option<f64> {
        let r = ckt.device_named(name)?;
        self.branch_current(r.index()).map(|i| -i)
    }
}

/// The convergence ladder behind [`SimSession::op`]: plain Newton, gmin
/// stepping and source stepping from a zero start, then up to
/// [`RESTARTS`] passes of the same three rungs from seeded perturbed
/// starts, each counted under `sim.dc_retries`. Only a failure a restart
/// can plausibly fix (non-convergence, numeric singularity) restarts; the
/// error is the last attempt's.
pub(crate) fn dc_op(ses: &SimSession<'_>) -> Result<OpPoint, SimError> {
    let mut last = match dc_op_from(ses, None) {
        Ok(op) => return Ok(op),
        Err(e) => e,
    };
    if !retryable(&last) {
        return Err(last);
    }
    let dim = ses.layout().dim();
    for attempt in 1..=RESTARTS {
        ams_trace::counter_add("sim.dc_retries", 1);
        let x0: Vec<f64> = (0..dim).map(|i| restart_jitter(attempt, i)).collect();
        match dc_op_from(ses, Some(&x0)) {
            Ok(op) => return Ok(op),
            Err(e) if retryable(&e) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Deterministic jitter in `[-RESTART_JITTER, +RESTART_JITTER)` for
/// unknown `i` on restart `attempt` (1 is the first restart).
fn restart_jitter(attempt: u32, i: usize) -> f64 {
    let bits = mix64(
        RESTART_SEED ^ mix64(u64::from(attempt)) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    // Map to [-1, 1) using the top 53 bits for a clean f64 mantissa.
    let unit = (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    unit * RESTART_JITTER
}

/// True for failures that a perturbed restart can plausibly fix.
fn retryable(e: &SimError) -> bool {
    matches!(
        e,
        SimError::NoConvergence { .. } | SimError::Singular(_) | SimError::SingularNode { .. }
    )
}

/// Builds an [`OpPoint`] from an *assumed* solution vector without solving
/// anything — the `DcStrategy::Assumed` last resort of the degradation
/// ladder (and the ASTRX/OBLX "dc-free biasing" primitive). MOS operating
/// data is evaluated at the given voltages; `strategy` is
/// [`DcStrategy::Assumed`] and `iterations` is 0.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] when `x.len()` does not match the
/// circuit's MNA dimension.
pub fn assumed_op(ckt: &Circuit, x: &[f64]) -> Result<OpPoint, SimError> {
    let layout = MnaLayout::new(ckt);
    if x.len() != layout.dim() {
        return Err(SimError::BadParameter(format!(
            "assumed solution has {} entries but the MNA system has {}",
            x.len(),
            layout.dim()
        )));
    }
    ams_trace::counter_add("sim.dc_converged_assumed", 1);
    Ok(finish(ckt, layout, x.to_vec(), 0, DcStrategy::Assumed))
}

/// One pass of the ladder, optionally starting from a caller-provided
/// iterate (a perturbed restart).
fn dc_op_from(ses: &SimSession<'_>, x0: Option<&[f64]>) -> Result<OpPoint, SimError> {
    let _span = ams_trace::span("sim.dc_op");
    let mut iters = 0usize;
    let result = dc_solve(ses, x0, &mut iters);
    ams_trace::counter_add("sim.dc_solves", 1);
    ams_trace::counter_add("sim.newton_iters", iters as u64);
    // `sim.lu_factors` counts Newton linear solves: one per iteration,
    // whether the sparse kernel factored, refactored or kept its factors
    // (the `sim.sparse.*` counters split those).
    ams_trace::counter_add("sim.lu_factors", iters as u64);
    ams_trace::counter_add("sim.lu_solves", iters as u64);
    match &result {
        Ok(op) => ams_trace::counter_add(
            match op.strategy {
                DcStrategy::Newton => "sim.dc_converged_newton",
                DcStrategy::GminStepping => "sim.dc_converged_gmin",
                DcStrategy::SourceStepping => "sim.dc_converged_source",
                DcStrategy::Assumed => "sim.dc_converged_assumed",
            },
            1,
        ),
        Err(_) => ams_trace::counter_add("sim.dc_failures", 1),
    }
    result
}

fn dc_solve(
    ses: &SimSession<'_>,
    x0: Option<&[f64]>,
    iters: &mut usize,
) -> Result<OpPoint, SimError> {
    let ckt = ses.circuit();
    erc_gate(ckt)?;
    // Heuristics first (specific codes for known causes), then the
    // pattern-level proof: anything the rules missed that still admits no
    // perfect matching fails here instead of as a mid-Newton zero pivot.
    ses.structural_gate()?;
    let layout = ses.layout().clone();
    // Every ladder rung starts from the pass's initial point (zeros on the
    // first pass, the seeded jitter on a restart).
    let start = |layout: &MnaLayout| -> Vec<f64> {
        match x0 {
            Some(v) if v.len() == layout.dim() => v.to_vec(),
            _ => vec![0.0; layout.dim()],
        }
    };
    let mut x = start(&layout);

    // Plain Newton, then gmin ladder, then source stepping.
    if newton(ses, &mut x, 0.0, 1.0, iters).is_ok() {
        return Ok(finish(ckt, layout, x, *iters, DcStrategy::Newton));
    }
    // gmin stepping: 1e-2 → 1e-12, warm-started.
    let mut gx = start(&layout);
    let mut ok = true;
    let mut gmin_stages = 0u64;
    for k in 2..=12 {
        let gmin = 10f64.powi(-k);
        if newton(ses, &mut gx, gmin, 1.0, iters).is_err() {
            ok = false;
            break;
        }
        gmin_stages += 1;
    }
    ams_trace::counter_add("sim.dc_gmin_stages", gmin_stages);
    if ok && newton(ses, &mut gx, 0.0, 1.0, iters).is_ok() {
        return Ok(finish(ckt, layout, gx, *iters, DcStrategy::GminStepping));
    }

    // Source stepping: ramp all independent sources from 10% to 100%.
    let mut sx = start(&layout);
    let mut ok = true;
    let mut source_steps = 0u64;
    for k in 1..=10 {
        let alpha = k as f64 / 10.0;
        if newton(ses, &mut sx, 1e-9, alpha, iters).is_err() {
            ok = false;
            break;
        }
        source_steps += 1;
    }
    ams_trace::counter_add("sim.dc_source_steps", source_steps);
    if ok && newton(ses, &mut sx, 0.0, 1.0, iters).is_ok() {
        return Ok(finish(ckt, layout, sx, *iters, DcStrategy::SourceStepping));
    }

    Err(SimError::NoConvergence {
        analysis: "dc",
        iterations: MAX_ITER,
    })
}

/// Runs the singularity-predicting ERC subset and converts the first error
/// into a [`SimError::Erc`].
fn erc_gate(ckt: &Circuit) -> Result<(), SimError> {
    let report = ams_lint::lint_structural(ckt);
    if let Some(diag) = report.errors().next() {
        return Err(SimError::Erc {
            code: diag.code.as_str().to_string(),
            message: diag.message.clone(),
        });
    }
    Ok(())
}

/// Upgrades a bare [`SingularMatrix`](crate::linalg::SingularMatrix) into a
/// node-named error when the failing pivot belongs to a signal node row.
fn resolve_singular(
    ckt: &Circuit,
    layout: &MnaLayout,
    e: crate::linalg::SingularMatrix,
) -> SimError {
    if e.pivot < layout.n_signal_nodes() {
        // Signal-node unknowns are ordered by node id, skipping ground.
        let node = ams_netlist::NodeId::from_index(e.pivot + 1);
        SimError::SingularNode {
            pivot: e.pivot,
            node: ckt.node_name(node).to_string(),
        }
    } else {
        SimError::Singular(e)
    }
}

fn finish(
    ckt: &Circuit,
    layout: MnaLayout,
    x: Vec<f64>,
    iterations: usize,
    strategy: DcStrategy,
) -> OpPoint {
    let mos_ops = evaluate_mos_ops(ckt, &layout, &x);
    OpPoint {
        x,
        mos_ops,
        iterations,
        strategy,
        layout,
    }
}

fn evaluate_mos_ops(ckt: &Circuit, layout: &MnaLayout, x: &[f64]) -> HashMap<String, MosOp> {
    let mut map = HashMap::new();
    for (name, dev) in ckt.devices() {
        if let Device::Mos(m) = dev {
            let bias = MosBias::at(m, layout, x);
            let mut op = bias.op;
            if bias.flipped {
                op.ids = -op.ids;
            }
            map.insert(name.to_string(), op);
        }
    }
    map
}

/// A MOS linearized at a solution vector and oriented so the model sees a
/// forward-biased channel: when the netlist's drain sits below its source
/// (above, for PMOS) the two swap roles.
pub(crate) struct MosBias {
    /// Unknowns of the effective drain and source, the gate and the bulk.
    pub(crate) d: Option<usize>,
    pub(crate) s: Option<usize>,
    pub(crate) g: Option<usize>,
    pub(crate) b: Option<usize>,
    /// True when the effective drain is the netlist's source.
    pub(crate) flipped: bool,
    /// The model's operating point in the oriented frame (`ids` signed
    /// for polarity, not for the flip).
    pub(crate) op: MosOp,
    /// Newton companion current out of the effective drain.
    pub(crate) ieq: f64,
}

impl MosBias {
    /// Orients `m` at `x` and evaluates its model: the crate's one call of
    /// [`MosModel::evaluate`](ams_netlist::MosModel::evaluate).
    pub(crate) fn at(m: &MosInstance, layout: &MnaLayout, x: &[f64]) -> MosBias {
        let v = |idx: Option<usize>| idx.map_or(0.0, |i| x[i]);
        let sign = m.model.polarity.sign();
        let (drain, source) = (layout.node(m.drain), layout.node(m.source));
        let (vd, vs) = (v(drain), v(source));
        let (d, s, vdx, vsx, flipped) = if sign * (vd - vs) >= 0.0 {
            (drain, source, vd, vs, false)
        } else {
            (source, drain, vs, vd, true)
        };
        let (g, b) = (layout.node(m.gate), layout.node(m.bulk));
        let vgs = v(g) - vsx;
        let vds = vdx - vsx;
        let vbs = v(b) - vsx;
        let op = m.model.evaluate(vgs, vds, vbs, m.w * m.m as f64, m.l);
        // The nonlinear residue: I_lin(v) = ids + gm·Δvgs + gds·Δvds +
        // gmbs·Δvbs, so the constant term to inject is
        // ids − (gm·vgs + gds·vds + gmbs·vbs) in the NMOS frame; map back
        // with `sign` for PMOS.
        let vgs_n = sign * vgs;
        let vds_n = sign * vds;
        let vbs_n = sign * vbs;
        let ieq_n = sign * op.ids - (op.gm * vgs_n + op.gds * vds_n + op.gmbs * vbs_n);
        MosBias {
            d,
            s,
            g,
            b,
            flipped,
            op,
            ieq: sign * ieq_n,
        }
    }

    /// The four charge pairs on the oriented terminals with their
    /// capacitances: gate–source, gate–drain, drain–bulk, source–bulk.
    pub(crate) fn charges(&self) -> [(Option<usize>, Option<usize>, f64); 4] {
        let (d, s, g, b, op) = (self.d, self.s, self.g, self.b, &self.op);
        [
            (g, s, op.cgs),
            (g, d, op.cgd),
            (d, b, op.cdb),
            (s, b, op.csb),
        ]
    }
}

/// One Newton solve at a fixed (gmin, source-scale) homotopy point.
/// `iters` accumulates the iterations spent across calls.
fn newton(
    ses: &SimSession<'_>,
    x: &mut [f64],
    gmin: f64,
    source_scale: f64,
    iters: &mut usize,
) -> Result<(), SimError> {
    let ckt = ses.circuit();
    let layout = ses.layout();
    ams_trace::emit(ams_trace::TelemetryEvent::NewtonStart {
        unknowns: layout.dim() as u64,
    });
    // Injection site: force this whole solve to report non-convergence, as
    // if it burned its full iteration budget without settling.
    if fault::trip(FaultKind::NewtonDiverge) {
        *iters += MAX_ITER;
        let _ = budget::charge_newton(MAX_ITER as u64);
        newton_end(MAX_ITER, false, f64::INFINITY);
        return Err(SimError::NoConvergence {
            analysis: "dc",
            iterations: MAX_ITER,
        });
    }
    let mut solve_iters = 0usize;
    for _iter in 0..MAX_ITER {
        solve_iters += 1;
        *iters += 1;
        // Cooperative metering only: the optimizer loops observe exhaustion
        // at their next checkpoint; an in-flight solve runs to completion.
        let _ = budget::charge_newton(1);
        let mut st = Stamper::with_backend(layout.dim(), ses.backend());
        stamp_dc(ckt, layout, x, gmin, source_scale, &mut st);
        // Injection site: pretend LU elimination hit a zero pivot.
        let solved = if fault::trip(FaultKind::LuPivot) {
            Err(SingularMatrix { pivot: 0 })
        } else {
            ses.solve_stamped(st, RealSlot::Dc)
        };
        let new_x = match solved.map_err(|e| resolve_singular(ckt, layout, e)) {
            Ok(v) => v,
            Err(e) => {
                newton_end(solve_iters, false, f64::INFINITY);
                return Err(e);
            }
        };
        let (converged, max_dx) =
            damped_update(x, &new_x, layout.n_signal_nodes(), MAX_STEP, VNTOL, RELTOL);
        // Injection site: poison the iterate so the finite-value check
        // below rejects the solve exactly as a real NaN residual would.
        if fault::trip(FaultKind::NanResidual) {
            if let Some(v) = x.first_mut() {
                *v = f64::NAN;
            }
        }
        if x.iter().any(|v| !v.is_finite()) {
            newton_end(solve_iters, false, f64::NAN);
            return Err(SimError::NoConvergence {
                analysis: "dc",
                iterations: MAX_ITER,
            });
        }
        if converged {
            newton_end(solve_iters, true, max_dx);
            return Ok(());
        }
    }
    newton_end(MAX_ITER, false, f64::INFINITY);
    Err(SimError::NoConvergence {
        analysis: "dc",
        iterations: MAX_ITER,
    })
}

/// The damped Newton update the DC and transient loops share: moves `x`
/// to `new_x` with every node-voltage step clamped to `±max_step` (branch
/// currents move freely). Returns whether every step was within
/// `vntol + reltol·max(|x|, |new_x|)`, and the largest step taken.
pub(crate) fn damped_update(
    x: &mut [f64],
    new_x: &[f64],
    n_signal: usize,
    max_step: f64,
    vntol: f64,
    reltol: f64,
) -> (bool, f64) {
    let mut converged = true;
    let mut max_dx = 0.0_f64;
    for (i, (xi, &ni)) in x.iter_mut().zip(new_x).enumerate() {
        let mut dx = ni - *xi;
        if i < n_signal {
            dx = dx.clamp(-max_step, max_step);
        }
        max_dx = max_dx.max(dx.abs());
        if dx.abs() > vntol + reltol * xi.abs().max(ni.abs()) {
            converged = false;
        }
        *xi += dx;
    }
    (converged, max_dx)
}

/// Emits the `newton_end` event (one atomic load when tracing is off).
fn newton_end(iterations: usize, converged: bool, residual: f64) {
    ams_trace::emit(ams_trace::TelemetryEvent::NewtonEnd {
        iterations: iterations as u64,
        converged,
        residual,
    });
}

/// Stamps a DC Newton iteration linearized at `x`: gmin to ground on every
/// signal node, then every device with its sources at `source_scale` of
/// their DC value.
fn stamp_dc(
    ckt: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
    gmin: f64,
    source_scale: f64,
    st: &mut Stamper,
) {
    // Stamped unconditionally (as 0.0 when off) so every homotopy rung
    // produces the same triplet sequence and the sparse backend can
    // refactor instead of re-analyzing.
    for i in 0..layout.n_signal_nodes() {
        st.conductance(Some(i), None, gmin);
    }
    for (k, (_, dev)) in ckt.devices().enumerate() {
        stamp_device(layout, k, dev, x, |w| w.dc_value() * source_scale, st);
    }
}

/// Stamps device `k` linearized at `x`: the resistor, the branch
/// incidences of L, V and E, the independent sources valued by `source`,
/// the controlled sources, and the MOS channel with its Newton companion
/// current. Capacitors stay open and inductors shorted; the transient adds
/// their integrator companions right after this call, so every device
/// keeps one push order in every analysis.
pub(crate) fn stamp_device(
    layout: &MnaLayout,
    k: usize,
    dev: &Device,
    x: &[f64],
    source: impl Fn(&SourceWaveform) -> f64,
    st: &mut Stamper,
) {
    match dev {
        Device::Resistor { a, b, ohms } => {
            st.conductance(layout.node(*a), layout.node(*b), 1.0 / ohms);
        }
        Device::Capacitor { .. } => {}
        Device::Inductor { a, b, .. } => {
            // Short: branch row forces V(a)-V(b) = 0.
            let br = layout.branch(k).expect("inductor branch");
            st.voltage_branch(br, layout.node(*a), layout.node(*b), 0.0);
        }
        Device::Vsource {
            plus,
            minus,
            waveform,
            ..
        } => {
            let br = layout.branch(k).expect("vsource branch");
            st.voltage_branch(
                br,
                layout.node(*plus),
                layout.node(*minus),
                source(waveform),
            );
        }
        Device::Isource {
            plus,
            minus,
            waveform,
            ..
        } => {
            let i = source(waveform);
            st.current_into(layout.node(*plus), -i);
            st.current_into(layout.node(*minus), i);
        }
        Device::Vcvs {
            plus,
            minus,
            ctrl_plus,
            ctrl_minus,
            gain,
        } => {
            let br = layout.branch(k).expect("vcvs branch");
            st.voltage_branch(br, layout.node(*plus), layout.node(*minus), 0.0);
            // KVL row gains: V(p)−V(m) − gain·(V(cp)−V(cm)) = 0.
            if let Some(cp) = layout.node(*ctrl_plus) {
                st.add(br, cp, -gain);
            }
            if let Some(cm) = layout.node(*ctrl_minus) {
                st.add(br, cm, *gain);
            }
        }
        Device::Vccs {
            plus,
            minus,
            ctrl_plus,
            ctrl_minus,
            gm,
        } => {
            st.transconductance(
                layout.node(*plus),
                layout.node(*minus),
                layout.node(*ctrl_plus),
                layout.node(*ctrl_minus),
                *gm,
            );
        }
        Device::Mos(m) => {
            let bias = MosBias::at(m, layout, x);
            let (d, s, op) = (bias.d, bias.s, &bias.op);
            // Conductances (same stamps for both polarities: gm etc. are
            // derivatives in the NMOS frame; under polarity folding both
            // voltage and current flip so the conductance stays positive).
            st.conductance(d, s, op.gds);
            st.transconductance(d, s, bias.g, s, op.gm);
            st.transconductance(d, s, bias.b, s, op.gmbs);
            st.current_into(d, -bias.ieq);
            st.current_into(s, bias.ieq);
        }
    }
}

/// The DC Newton system at `x` with gmin off and sources at full value,
/// stamped as sparse triplets: [`SimSession::dc_system`], and the `G` of
/// every linearization.
pub(crate) fn dc_triplets(
    ckt: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
) -> (Triplets<f64>, Vec<f64>) {
    assert_eq!(x.len(), layout.dim(), "solution vector dimension mismatch");
    let mut st = Stamper::with_backend(layout.dim(), Backend::Sparse);
    stamp_dc(ckt, layout, x, 0.0, 1.0, &mut st);
    st.into_triplets()
}

/// Linearizes at an *assumed* (not necessarily converged) solution vector,
/// returning the linear net together with the DC KCL residual norm — the
/// primitive behind the "dc-free biasing formulation" of ASTRX/OBLX, where
/// bias voltages are optimization variables and the dc constraints are
/// "solved by relaxation throughout the optimization run".
///
/// # Panics
///
/// Panics if `x.len()` does not match the circuit's MNA dimension.
pub fn linearize_at(ckt: &Circuit, x: &[f64]) -> (LinearNet, f64) {
    let layout = MnaLayout::new(ckt);
    let backend = Backend::auto_for(layout.dim());
    let (net, z) = linearized(ckt, layout, x, backend);
    // Residual of the nonlinear KCL at x: `G` is the DC Newton matrix at
    // x, so the residual is G·x − z.
    let residual = net
        .g_mul(x)
        .iter()
        .zip(&z)
        .map(|(a, z)| (a - z) * (a - z))
        .sum::<f64>()
        .sqrt();
    (net, residual)
}

/// Linearizes a circuit at an operating point into `(G + sC)x = b` form for
/// AC, noise and AWE analyses, on the backend [`Backend::auto_for`] picks.
/// `G` is the DC Newton matrix at `op.x`; `C` collects the capacitors, the
/// inductors' branch terms and the MOS charge pairs; the excitation `b`
/// collects every source's `ac_mag`.
pub fn linearize(ckt: &Circuit, op: &OpPoint) -> LinearNet {
    let layout = MnaLayout::new(ckt);
    let backend = Backend::auto_for(layout.dim());
    linearized(ckt, layout, &op.x, backend).0
}

/// [`linearize`] at `x` on `backend`, also returning the right-hand side
/// `z` of the DC Newton system whose matrix is `G`. Allocates nothing of
/// size n²: `G`, `C` and `b` are triplets and a vector.
pub(crate) fn linearized(
    ckt: &Circuit,
    layout: MnaLayout,
    x: &[f64],
    backend: Backend,
) -> (LinearNet, Vec<f64>) {
    let dim = layout.dim();
    let (g, z) = dc_triplets(ckt, &layout, x);
    let mut c = Triplets::new(dim);
    let mut b = vec![0.0; dim];
    for (k, (_, dev)) in ckt.devices().enumerate() {
        match dev {
            Device::Capacitor { a, b: n, farads } => {
                stamp_cap(&mut c, layout.node(*a), layout.node(*n), *farads);
            }
            Device::Inductor { henries, .. } => {
                // KVL row: V(a) − V(b) − s·L·I = 0 → C[br][br] = −L.
                let br = layout.branch(k).expect("inductor branch");
                c.push(br, br, -henries);
            }
            Device::Vsource { ac_mag, .. } => {
                b[layout.branch(k).expect("vsource branch")] += ac_mag;
            }
            Device::Isource {
                plus,
                minus,
                ac_mag,
                ..
            } => {
                if let Some(p) = layout.node(*plus) {
                    b[p] -= ac_mag;
                }
                if let Some(m) = layout.node(*minus) {
                    b[m] += ac_mag;
                }
            }
            Device::Mos(m) => {
                for (i, j, farads) in MosBias::at(m, &layout, x).charges() {
                    stamp_cap(&mut c, i, j, farads);
                }
            }
            _ => {}
        }
    }
    (LinearNet::new(g, c, b, layout, backend), z)
}

fn stamp_cap(c: &mut Triplets<f64>, i: Option<usize>, j: Option<usize>, farads: f64) {
    if let Some(i) = i {
        c.push(i, i, farads);
    }
    if let Some(j) = j {
        c.push(j, j, farads);
    }
    if let (Some(i), Some(j)) = (i, j) {
        c.push(i, j, -farads);
        c.push(j, i, -farads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::parse_deck;

    #[test]
    fn resistive_divider() {
        let ckt = parse_deck(
            "V1 in 0 DC 10
             R1 in out 9k
             R2 out 0 1k",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        assert!((op.voltage(&ckt, "out").unwrap() - 1.0).abs() < 1e-9);
        // Supply current = 10 V / 10 kΩ = 1 mA out of the + terminal.
        let i = op.supply_current(&ckt, "V1").unwrap();
        assert!((i - 1e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn success_path_reports_iterations_and_strategy() {
        let ckt = parse_deck(
            "V1 in 0 DC 10
             R1 in out 9k
             R2 out 0 1k",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        assert!(op.iterations >= 1, "iterations = {}", op.iterations);
        assert!(op.iterations < MAX_ITER);
        assert_eq!(op.strategy, DcStrategy::Newton);
        assert_eq!(op.strategy.as_str(), "newton");
    }

    #[test]
    fn restart_jitter_is_deterministic_and_bounded() {
        for attempt in 1..=RESTARTS + 1 {
            for i in 0..20 {
                let p = restart_jitter(attempt, i);
                assert_eq!(p, restart_jitter(attempt, i));
                assert!(p.abs() <= RESTART_JITTER, "out of range: {p}");
            }
        }
        // Different restarts move different directions somewhere.
        assert_ne!(restart_jitter(1, 0), restart_jitter(2, 0));
        // The stream is pinned bit for bit: a restart that converges must
        // land on the same operating point in every release.
        for (attempt, i, bits) in [
            (1, 0, 0x3f88_3b1f_1be3_960d_u64),
            (1, 7, 0xbfa2_da22_47ef_b823),
            (2, 0, 0x3f90_4695_f674_d09a),
            (2, 41, 0xbf98_dd9a_d17c_987a),
        ] {
            assert_eq!(restart_jitter(attempt, i).to_bits(), bits);
        }
    }

    #[test]
    fn structural_singularity_is_not_retryable() {
        // A proven-singular pattern can't be fixed by a perturbed restart:
        // the ladder must not burn restarts on it.
        let e = SimError::StructurallySingular {
            equation: "KCL at node `x`".to_string(),
            message: "MNA system is structurally singular".to_string(),
        };
        assert!(!retryable(&e));
        assert!(e.to_string().contains("KCL at node `x`"), "{e}");
    }

    #[test]
    fn current_source_into_resistor() {
        let ckt = parse_deck(
            "I1 0 out 1m
             R1 out 0 1k",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        // 1 mA into 1 kΩ = 1 V.
        assert!((op.voltage(&ckt, "out").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_dc_short() {
        let ckt = parse_deck(
            "V1 in 0 DC 2
             R1 in mid 1k
             L1 mid out 1u
             R2 out 0 1k",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let vm = op.voltage(&ckt, "mid").unwrap();
        let vo = op.voltage(&ckt, "out").unwrap();
        assert!((vm - vo).abs() < 1e-9);
        assert!((vo - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let ckt = parse_deck(
            "V1 in 0 DC 5
             R1 in out 1k
             C1 out 0 1p",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        assert!((op.voltage(&ckt, "out").unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let ckt = parse_deck(
            "V1 a 0 DC 0.1
             R0 a 0 1k
             E1 out 0 a 0 10
             RL out 0 1k",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        assert!((op.voltage(&ckt, "out").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_injects_current() {
        let ckt = parse_deck(
            "V1 a 0 DC 1
             R0 a 0 1k
             G1 0 out a 0 1m
             RL out 0 2k",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        // 1 mS × 1 V into 2 kΩ = 2 V.
        assert!((op.voltage(&ckt, "out").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Diode-connected NMOS pulled up through a resistor: V(d) settles
        // above Vt and below supply.
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u
             Vdd vdd 0 DC 5
             R1 vdd d 100k
             M1 d d 0 0 nch W=10u L=1u",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let vd = op.voltage(&ckt, "d").unwrap();
        assert!(vd > 0.7 && vd < 1.5, "vd = {vd}");
        let m_op = &op.mos_ops["M1"];
        assert!(m_op.ids > 0.0);
        // KCL: resistor current equals drain current.
        let ir = (5.0 - vd) / 100e3;
        assert!((ir - m_op.ids).abs() / ir < 1e-4, "ir={ir} id={}", m_op.ids);
    }

    #[test]
    fn common_source_amplifier_bias() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vg  g   0 DC 1.0
             RD  vdd d 10k
             M1  d g 0 0 nch W=20u L=2u",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let vd = op.voltage(&ckt, "d").unwrap();
        // Id ≈ 0.5·110µ·10·0.09 ≈ 49.5 µA → Vd ≈ 5 − 0.495 ≈ 4.5 V.
        assert!(vd > 4.0 && vd < 4.8, "vd = {vd}");
        assert_eq!(op.mos_ops["M1"].region, ams_netlist::MosRegion::Saturation);
    }

    #[test]
    fn pmos_source_follower_bias() {
        let ckt = parse_deck(
            ".model pch pmos vt0=0.9 kp=38u
             Vdd vdd 0 DC 5
             Vg  g   0 DC 2.5
             I1  0 out 50u
             M1  0 g out vdd pch W=50u L=2u",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let vout = op.voltage(&ckt, "out").unwrap();
        // Source sits roughly |Vtp| + Vov above the gate.
        assert!(vout > 3.2 && vout < 4.5, "vout = {vout}");
    }

    #[test]
    fn cmos_inverter_transfer_endpoints() {
        let deck = |vin: f64| {
            format!(
                ".model nch nmos vt0=0.7 kp=110u
                 .model pch pmos vt0=0.9 kp=38u
                 Vdd vdd 0 DC 5
                 Vin in 0 DC {vin}
                 M1 out in 0 0 nch W=10u L=1u
                 M2 out in vdd vdd pch W=30u L=1u",
            )
        };
        let low = parse_deck(&deck(0.0)).unwrap();
        let op = SimSession::new(&low).op().unwrap();
        assert!(op.voltage(&low, "out").unwrap() > 4.9);
        let high = parse_deck(&deck(5.0)).unwrap();
        let op = SimSession::new(&high).op().unwrap();
        assert!(op.voltage(&high, "out").unwrap() < 0.1);
    }

    #[test]
    fn reversed_mos_conducts_backwards() {
        // Source at higher potential than drain for an NMOS: the device
        // must conduct with the terminals logically swapped.
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u
             Vdd s 0 DC 3
             Vg  g 0 DC 3
             R1  d 0 10k
             M1  d g s 0 nch W=10u L=1u",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let vd = op.voltage(&ckt, "d").unwrap();
        assert!(vd > 0.5, "follower output should rise, vd = {vd}");
    }

    #[test]
    fn floating_node_reports_erc_not_pivot() {
        // `x` hangs off a capacitor only: the ERC gate must name it
        // instead of letting LU fail with a bare pivot index.
        let ckt = parse_deck(
            "V1 in 0 DC 5
             R1 in out 1k
             C1 out x 1p",
        )
        .unwrap();
        let err = SimSession::new(&ckt).op().unwrap_err();
        match err {
            SimError::Erc {
                ref code,
                ref message,
            } => {
                assert_eq!(code, "E002");
                assert!(message.contains("`x`"), "message: {message}");
            }
            other => panic!("expected Erc, got {other:?}"),
        }
    }

    #[test]
    fn voltage_loop_reports_erc() {
        let ckt = parse_deck(
            "V1 a 0 DC 1
             V2 a 0 DC 2
             R1 a 0 1k",
        )
        .unwrap();
        let err = SimSession::new(&ckt).op().unwrap_err();
        match err {
            SimError::Erc {
                ref code,
                ref message,
            } => {
                assert_eq!(code, "E003");
                assert!(message.contains("V2"), "message: {message}");
            }
            other => panic!("expected Erc, got {other:?}"),
        }
    }

    #[test]
    fn current_cutset_reports_erc() {
        let ckt = parse_deck(
            "I1 0 x 1u
             C1 x 0 1p",
        )
        .unwrap();
        let err = SimSession::new(&ckt).op().unwrap_err();
        assert!(
            matches!(err, SimError::Erc { ref code, .. } if code == "E004"),
            "got {err:?}"
        );
    }

    #[test]
    fn linearize_produces_consistent_dims() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u
             Vdd vdd 0 DC 5
             Vin in 0 DC 1 AC 1
             RD vdd out 10k
             M1 out in 0 0 nch W=20u L=2u
             CL out 0 1p",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let net = linearize(&ckt, &op);
        assert_eq!(net.g().dim(), net.dim());
        assert_eq!(net.c().dim(), net.dim());
        assert_eq!(net.b.len(), net.dim());
        // The AC source magnitude must appear in b.
        assert!(net.b.iter().any(|&v| v != 0.0));
    }
}
