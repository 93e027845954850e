//! Transient analysis with companion models and Newton at each timestep.
//!
//! Integration is trapezoidal with a backward-Euler start-up step, the
//! classic SPICE combination: A-stable, second-order accurate, and free of
//! the artificial damping pure BE would add to ringing power-grid
//! waveforms (experiment E4 relies on this). The step is fixed; a point
//! where Newton fails is retried as two half steps. A stamp is the DC
//! device table ([`stamp_device`]) plus only the integrator companions of
//! the capacitors, the inductors and the MOS charge pairs.
//!
//! The run holds the factor of the last matrix it stamped. A MOS is the
//! one device whose stamp and charges read the iterate, so a circuit with
//! one re-stamps the full matrix at every Newton iteration. Any other
//! circuit's matrix depends only on the step size and the integrator: it
//! is stamped and refactored only when one of them changes (the first
//! trapezoidal step, a halving, the shortened last step), and every other
//! step stamps only its right-hand side and solves it against the held
//! factor. That system does not read the iterate either, so each step
//! solves it once and repeats only the damped update.

use ams_guard::budget;
use ams_guard::fault::{self, FaultKind};
use ams_netlist::{Circuit, Device};

use crate::dc::{damped_update, stamp_device, MosBias};
use crate::error::SimError;
use crate::linalg::SingularMatrix;
use crate::mna::{HeldFactor, MnaLayout, Stamper};
use crate::session::SimSession;

const MAX_ITER: usize = 60;
const VNTOL: f64 = 1e-6;
const RELTOL: f64 = 1e-4;
/// Per-iteration clamp on any node-voltage update (volts), for damping.
const MAX_STEP: f64 = 1.0;
/// Maximum recursive step halvings when Newton fails at a point.
const MAX_HALVINGS: usize = 8;

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TranResult {
    /// Time points in seconds.
    pub times: Vec<f64>,
    /// Full MNA solution at each time point.
    pub solutions: Vec<Vec<f64>>,
    layout: MnaLayout,
}

impl TranResult {
    /// Waveform of a named node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for unknown names.
    pub fn voltage(&self, ckt: &Circuit, node: &str) -> Result<Vec<f64>, SimError> {
        let id = ckt
            .find_node(node)
            .ok_or_else(|| SimError::UnknownNode(node.to_string()))?;
        let idx = self.layout.node(id);
        Ok(self
            .solutions
            .iter()
            .map(|x| idx.map_or(0.0, |i| x[i]))
            .collect())
    }

    /// Peak (maximum) value of a node waveform.
    pub fn peak(&self, ckt: &Circuit, node: &str) -> Result<f64, SimError> {
        Ok(self
            .voltage(ckt, node)?
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Time at which a node waveform reaches its maximum.
    pub fn peak_time(&self, ckt: &Circuit, node: &str) -> Result<f64, SimError> {
        let wave = self.voltage(ckt, node)?;
        let (idx, _) = wave
            .iter()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            });
        Ok(self.times[idx])
    }

    /// First time the waveform crosses `level` going upward, by linear
    /// interpolation; `None` if it never does.
    pub fn rising_crossing(&self, ckt: &Circuit, node: &str, level: f64) -> Option<f64> {
        let wave = self.voltage(ckt, node).ok()?;
        for i in 1..wave.len() {
            if wave[i - 1] < level && wave[i] >= level {
                let t = (level - wave[i - 1]) / (wave[i] - wave[i - 1]);
                return Some(self.times[i - 1] + t * (self.times[i] - self.times[i - 1]));
            }
        }
        None
    }
}

/// Tallies accumulated over one transient run, flushed to `ams-trace`
/// counters when the analysis returns.
#[derive(Debug, Clone, Copy, Default)]
struct TranStats {
    /// Committed (accepted) integration steps, including halved sub-steps.
    accepted: u64,
    /// Step halvings forced by a Newton failure (the step is otherwise
    /// fixed: there is no local-truncation-error control).
    halvings: u64,
    /// Newton iterations summed over every attempted step.
    newton_iters: u64,
    /// Newton solves that failed and triggered a retry.
    rejected: u64,
    /// Linear solves that ran, against a fresh or a held factor.
    solves: u64,
}

/// A capacitance held constant over a step, with its integration state.
#[derive(Debug, Clone, Copy, Default)]
struct Charge {
    /// Terminal unknowns (`None` = ground).
    a: Option<usize>,
    b: Option<usize>,
    farads: f64,
    /// Voltage across it at t_n.
    v: f64,
    /// Current through it at t_n.
    i: f64,
}

impl Charge {
    /// A charge at rest at solution `x`.
    fn new(a: Option<usize>, b: Option<usize>, farads: f64, x: &[f64]) -> Self {
        let at = |n: Option<usize>| n.map_or(0.0, |k| x[k]);
        Charge {
            a,
            b,
            farads,
            v: at(a) - at(b),
            i: 0.0,
        }
    }

    /// Stamps the companion: `geq` in parallel with a current `ieq`.
    fn stamp(&self, h: f64, use_be: bool, st: &mut Stamper) {
        let (geq, ieq) = if use_be {
            let geq = self.farads / h;
            (geq, geq * self.v)
        } else {
            let geq = 2.0 * self.farads / h;
            (geq, geq * self.v + self.i)
        };
        st.conductance(self.a, self.b, geq);
        st.current_into(self.a, ieq);
        st.current_into(self.b, -ieq);
    }

    /// Moves the state to the accepted solution `x` at t_n + h.
    fn commit(&mut self, x: &[f64], h: f64, use_be: bool) {
        let v_new = Charge::new(self.a, self.b, self.farads, x).v;
        self.i = if use_be {
            self.farads * (v_new - self.v) / h
        } else {
            2.0 * self.farads * (v_new - self.v) / h - self.i
        };
        self.v = v_new;
    }
}

/// Reactive state of one device.
#[derive(Debug)]
enum Reactive {
    /// No charge or flux.
    None,
    /// A linear capacitor.
    Cap(Charge),
    /// An inductor on branch unknown `br`: its current `i` and voltage
    /// `v` at t_n.
    Ind {
        br: usize,
        henries: f64,
        i: f64,
        v: f64,
    },
    /// A MOS's four charge pairs in netlist terminal order — (g, s),
    /// (g, d), (d, b), (s, b) — revalued at every step boundary.
    Mos([Charge; 4]),
}

impl Reactive {
    /// Stamps the integrator companion for a step of `h`.
    fn stamp(&self, h: f64, use_be: bool, st: &mut Stamper) {
        match self {
            Reactive::None => {}
            Reactive::Cap(c) => c.stamp(h, use_be, st),
            Reactive::Ind { br, henries, i, v } => {
                // Branch row: V(a)−V(b) − req·I = veq.
                let (req, veq) = if use_be {
                    (henries / h, -(henries / h) * i)
                } else {
                    (2.0 * henries / h, -(2.0 * henries / h) * i - v)
                };
                st.add(*br, *br, -req);
                st.z[*br] += veq;
            }
            Reactive::Mos(charges) => charges.iter().for_each(|c| c.stamp(h, use_be, st)),
        }
    }

    /// Moves the state to the accepted solution `x` at t_n + h.
    fn commit(&mut self, x: &[f64], h: f64, use_be: bool) {
        match self {
            Reactive::None => {}
            Reactive::Cap(c) => c.commit(x, h, use_be),
            Reactive::Ind { br, henries, i, v } => {
                let i_new = x[*br];
                *v = if use_be {
                    *henries * (i_new - *i) / h
                } else {
                    2.0 * *henries * (i_new - *i) / h - *v
                };
                *i = i_new;
            }
            Reactive::Mos(charges) => charges.iter_mut().for_each(|c| c.commit(x, h, use_be)),
        }
    }
}

/// The transient state at t_n: the solution and, by device position, each
/// device's reactive state.
struct State {
    x: Vec<f64>,
    react: Vec<Reactive>,
}

impl State {
    /// Reactive elements at rest at the DC solution `x`.
    fn new(ckt: &Circuit, layout: &MnaLayout, x: Vec<f64>) -> Self {
        let react = ckt
            .devices()
            .enumerate()
            .map(|(k, (_, dev))| match dev {
                Device::Capacitor { a, b, farads } => {
                    Reactive::Cap(Charge::new(layout.node(*a), layout.node(*b), *farads, &x))
                }
                Device::Inductor { henries, .. } => {
                    let br = layout.branch(k).expect("inductor branch");
                    Reactive::Ind {
                        br,
                        henries: *henries,
                        i: x[br],
                        v: 0.0,
                    }
                }
                Device::Mos(_) => Reactive::Mos([Charge::default(); 4]),
                _ => Reactive::None,
            })
            .collect();
        State { x, react }
    }

    /// Revalues every MOS charge pair at the step boundary: capacitances
    /// and oriented terminals from [`MosBias::at`], voltages from `x`, and
    /// the current each pair carries kept. A reversed device's gate–source
    /// pair is the netlist's gate–drain pair (slot `k ^ 1`), so a pair's
    /// current stays with its terminals when drain and source swap roles.
    fn refresh(&mut self, ckt: &Circuit, layout: &MnaLayout) {
        for ((_, dev), r) in ckt.devices().zip(&mut self.react) {
            if let (Device::Mos(m), Reactive::Mos(charges)) = (dev, r) {
                let bias = MosBias::at(m, layout, &self.x);
                for (k, (a, b, farads)) in bias.charges().into_iter().enumerate() {
                    let slot = &mut charges[k ^ usize::from(bias.flipped)];
                    *slot = Charge {
                        i: slot.i,
                        ..Charge::new(a, b, farads, &self.x)
                    };
                }
            }
        }
    }

    /// Accepts `x` as the solution at t_n + h.
    fn commit(&mut self, x: Vec<f64>, h: f64, use_be: bool) {
        for r in &mut self.react {
            r.commit(&x, h, use_be);
        }
        self.x = x;
    }
}

/// The transient engine behind [`SimSession::tran`].
pub(crate) fn run(ses: &SimSession<'_>, tstop: f64, dt: f64) -> Result<TranResult, SimError> {
    if tstop <= 0.0 || dt <= 0.0 || dt > tstop {
        return Err(SimError::BadParameter(
            "tstop and dt must be positive with dt <= tstop".into(),
        ));
    }
    let _span = ams_trace::span("sim.transient");
    let op = ses.op()?;
    let layout = ses.layout().clone();
    let mut run = Run {
        ses,
        state: State::new(ses.circuit(), &layout, op.x),
        held: HeldFactor::default(),
        held_step: None,
        nonlinear: ses
            .circuit()
            .devices()
            .any(|(_, dev)| matches!(dev, Device::Mos(_))),
        stats: TranStats::default(),
    };

    let mut times = vec![0.0];
    let mut solutions = vec![run.state.x.clone()];
    let mut t = 0.0;
    let mut first_step = true;

    while t < tstop - 1e-15 {
        let step = dt.min(tstop - t);
        t = match run.advance(t, step, first_step, 0) {
            Ok(t_next) => t_next,
            Err(e) => {
                flush_stats(&run.stats);
                return Err(e);
            }
        };
        first_step = false;
        times.push(t);
        solutions.push(run.state.x.clone());
    }

    flush_stats(&run.stats);
    Ok(TranResult {
        times,
        solutions,
        layout,
    })
}

fn flush_stats(stats: &TranStats) {
    ams_trace::counter_add("sim.tran_steps_accepted", stats.accepted);
    ams_trace::counter_add("sim.tran_step_halvings", stats.halvings);
    ams_trace::counter_add("sim.tran_newton_iters", stats.newton_iters);
    ams_trace::counter_add("sim.tran_newton_rejects", stats.rejected);
    // `sim.lu_factors` counts linear solves, as in DC: one per Newton
    // iteration of a circuit with a MOS, one per step attempt of a linear
    // one, whether the held factor was refactored or kept (the
    // `sim.sparse.*` counters split those).
    ams_trace::counter_add("sim.lu_factors", stats.solves);
    ams_trace::counter_add("sim.lu_solves", stats.solves);
}

/// One transient run: the state at t_n, the factor the run holds, and
/// its tallies.
struct Run<'r, 'c> {
    ses: &'r SimSession<'c>,
    state: State,
    /// Factor of the last matrix stamped.
    held: HeldFactor,
    /// Step size (bits) and integrator the held matrix was stamped for;
    /// `None` before the first stamp and after a failed one.
    held_step: Option<(u64, bool)>,
    /// Whether the circuit has a MOS, the one device whose stamp and
    /// charges read the iterate: then every Newton iteration re-stamps.
    nonlinear: bool,
    stats: TranStats,
}

impl Run<'_, '_> {
    /// Advances the state by one (possibly recursively halved) timestep
    /// and returns the new time. A failure aborts the whole run, so a
    /// rejected step needs no rollback: only accepted steps commit.
    fn advance(&mut self, t: f64, h: f64, use_be: bool, depth: usize) -> Result<f64, SimError> {
        let t_new = t + h;
        if self.nonlinear {
            self.state.refresh(self.ses.circuit(), self.ses.layout());
        }
        let iters_before = self.stats.newton_iters;
        match self.newton_step(t_new, h, use_be) {
            Ok(new_x) => {
                self.stats.accepted += 1;
                tran_step_event(t_new, h, true, self.stats.newton_iters - iters_before);
                self.state.commit(new_x, h, use_be);
                Ok(t_new)
            }
            Err(_) if depth < MAX_HALVINGS => {
                self.stats.rejected += 1;
                self.stats.halvings += 1;
                tran_step_event(t_new, h, false, self.stats.newton_iters - iters_before);
                // Halve: two sub-steps, BE on the first half for damping.
                let t1 = self.advance(t, h / 2.0, true, depth + 1)?;
                self.advance(t1, h / 2.0, false, depth + 1)
            }
            Err(e) => {
                self.stats.rejected += 1;
                tran_step_event(t_new, h, false, self.stats.newton_iters - iters_before);
                Err(e)
            }
        }
    }

    /// Newton solve at one time point. A linear step's system does not
    /// read the iterate, so it is solved once and the later iterations
    /// repeat only the damped update against that solution.
    fn newton_step(&mut self, t_new: f64, h: f64, use_be: bool) -> Result<Vec<f64>, SimError> {
        // Injection site: fail this step's Newton solve so the caller
        // enters its step-halving recovery path (and, past MAX_HALVINGS,
        // its error path) exactly as a genuinely stiff point would.
        if fault::trip(FaultKind::TranHalving) {
            return Err(SimError::NoConvergence {
                analysis: "tran",
                iterations: MAX_ITER,
            });
        }
        let n_signal = self.ses.layout().n_signal_nodes();
        let mut x = self.state.x.clone();
        let mut new_x = Vec::new();
        for iter in 0..MAX_ITER {
            self.stats.newton_iters += 1;
            let _ = budget::charge_newton(1);
            if iter == 0 || self.nonlinear {
                new_x = self
                    .solve(&x, t_new, h, use_be)
                    .map_err(SimError::Singular)?;
            }
            let (converged, _) = damped_update(&mut x, &new_x, n_signal, MAX_STEP, VNTOL, RELTOL);
            if x.iter().any(|v| !v.is_finite()) {
                break;
            }
            if converged {
                return Ok(x);
            }
        }
        Err(SimError::NoConvergence {
            analysis: "tran",
            iterations: MAX_ITER,
        })
    }

    /// Solves the system at iterate `x`: the DC device stamps plus the
    /// integrator companions. The matrix is stamped and factored only when
    /// the circuit has a MOS or the step differs from the held one;
    /// otherwise only the right-hand side is stamped and solved against
    /// the held factor, which gives the same bits.
    fn solve(
        &mut self,
        x: &[f64],
        t_new: f64,
        h: f64,
        use_be: bool,
    ) -> Result<Vec<f64>, SingularMatrix> {
        let (ckt, layout) = (self.ses.circuit(), self.ses.layout());
        let react = &self.state.react;
        let stamp = |st: &mut Stamper| {
            for (k, ((_, dev), r)) in ckt.devices().zip(react).enumerate() {
                stamp_device(layout, k, dev, x, |w| w.value_at(t_new), st);
                r.stamp(h, use_be, st);
            }
        };
        self.stats.solves += 1;
        let step = Some((h.to_bits(), use_be));
        if !self.nonlinear && self.held_step == step {
            return Ok(self.held.solve(layout.dim(), &stamp));
        }
        self.held_step = None;
        let new_x = self
            .held
            .restamp(layout.dim(), self.ses.backend(), &stamp)?;
        self.held_step = step;
        Ok(new_x)
    }
}

/// Emits the `tran_step` event (one atomic load when tracing is off).
fn tran_step_event(time_s: f64, dt_s: f64, accepted: bool, newton_iters: u64) {
    ams_trace::emit(ams_trace::TelemetryEvent::TranStep {
        time_s,
        dt_s,
        accepted,
        newton_iters,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::parse_deck;

    #[test]
    fn rc_step_response_follows_exponential() {
        let ckt = parse_deck(
            "V1 in 0 PULSE(0 1 0 1n 1n 1 2)
             R1 in out 1k
             C1 out 0 1u",
        )
        .unwrap();
        // τ = 1 ms; simulate 5 ms.
        let res = SimSession::new(&ckt).tran(5e-3, 20e-6).unwrap();
        let out = res.voltage(&ckt, "out").unwrap();
        // Compare a mid-trace point to the analytic exponential.
        let idx = res.times.iter().position(|&t| t >= 1e-3).unwrap();
        let expected = 1.0 - (-res.times[idx] / 1e-3_f64).exp();
        assert!(
            (out[idx] - expected).abs() < 0.02,
            "got {} expected {expected}",
            out[idx]
        );
        assert!(out.last().unwrap() > &0.99);
    }

    #[test]
    fn lc_tank_oscillates_without_decay() {
        // Ideal LC tank excited by an initial current through the inductor
        // branch; trapezoidal integration must not damp the oscillation.
        let ckt = parse_deck(
            "I1 0 out PWL(0 1m 1u 0)
             L1 out 0 1m
             C1 out 0 1n",
        )
        .unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-9).sqrt());
        let period = 1.0 / f0;
        let res = SimSession::new(&ckt)
            .tran(10.0 * period, period / 200.0)
            .unwrap();
        let out = res.voltage(&ckt, "out").unwrap();
        // Peak in the final 2 periods should be close to the early peak.
        let n = out.len();
        let early: f64 = out[..n / 5].iter().cloned().fold(0.0, f64::max);
        let late: f64 = out[4 * n / 5..].iter().cloned().fold(0.0, f64::max);
        assert!(early > 0.0);
        assert!(
            (late / early) > 0.8,
            "tank decayed too much: early {early}, late {late}"
        );
    }

    #[test]
    fn sine_source_passes_through() {
        let ckt = parse_deck(
            "V1 in 0 SIN(0 1 1k)
             R1 in out 1
             R2 out 0 1meg",
        )
        .unwrap();
        let res = SimSession::new(&ckt).tran(1e-3, 1e-6).unwrap();
        let out = res.voltage(&ckt, "out").unwrap();
        let max = out.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = out.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 1.0).abs() < 0.01, "max = {max}");
        assert!((min + 1.0).abs() < 0.01, "min = {min}");
    }

    #[test]
    fn inverter_switches_dynamically() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u
             .model pch pmos vt0=0.9 kp=38u
             Vdd vdd 0 DC 5
             Vin in 0 PULSE(0 5 10n 1n 1n 50n 120n)
             M1 out in 0 0 nch W=10u L=1u
             M2 out in vdd vdd pch W=30u L=1u
             CL out 0 50f",
        )
        .unwrap();
        let res = SimSession::new(&ckt).tran(100e-9, 0.25e-9).unwrap();
        let out = res.voltage(&ckt, "out").unwrap();
        // Output starts high, dips low during the input pulse.
        assert!(out[0] > 4.9);
        let min = out.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < 0.2, "inverter never pulled low: min = {min}");
    }

    #[test]
    fn bad_parameters_rejected() {
        let ckt = parse_deck("R1 a 0 1k\nV1 a 0 DC 1").unwrap();
        assert!(SimSession::new(&ckt).tran(-1.0, 1e-9).is_err());
        assert!(SimSession::new(&ckt).tran(1e-9, 1e-6).is_err());
    }

    #[test]
    fn peak_helpers() {
        let ckt = parse_deck(
            "V1 in 0 SIN(0 1 1k)
             R1 in out 1
             R2 out 0 1meg",
        )
        .unwrap();
        let res = SimSession::new(&ckt).tran(1e-3, 1e-6).unwrap();
        let pk = res.peak(&ckt, "out").unwrap();
        assert!((pk - 1.0).abs() < 0.01);
        let tp = res.peak_time(&ckt, "out").unwrap();
        assert!((tp - 0.25e-3).abs() < 0.02e-3, "tp = {tp}");
        let cross = res.rising_crossing(&ckt, "out", 0.5).unwrap();
        // sin crosses 0.5 at t = period/12 ≈ 83.3 µs.
        assert!((cross - 83.3e-6).abs() < 3e-6, "cross = {cross}");
    }

    /// A saturated common-source stage whose gate moves through a resistor,
    /// with the MOS written drain-first (`M1 d g 0 0`) or reversed
    /// (`M1 0 g d 0`).
    fn moving_gate_stage(mos: &str) -> ams_netlist::Circuit {
        parse_deck(&format!(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vin in 0 SIN(1.2 0.1 20meg)
             Rg in g 50k
             RD vdd d 10k
             {mos}
             CL d 0 50f"
        ))
        .unwrap()
    }

    #[test]
    fn reversed_mos_charges_follow_the_channel() {
        // The charges sit on the oriented terminals, so writing drain and
        // source in either order gives one transient. Placed as written, a
        // reversed device would put 2/3·Cox·W·L from its gate to its
        // effective drain and multiply it by the stage gain.
        let fwd = moving_gate_stage("M1 d g 0 0 nch W=20u L=2u");
        let rev = moving_gate_stage("M1 0 g d 0 nch W=20u L=2u");
        let ses = SimSession::new(&fwd);
        let op = ses.op().unwrap();
        assert_eq!(op.mos_ops["M1"].region, ams_netlist::MosRegion::Saturation);
        let a = ses.tran(100e-9, 0.5e-9).unwrap();
        let b = SimSession::new(&rev).tran(100e-9, 0.5e-9).unwrap();
        assert_eq!(a.times, b.times);
        for node in ["g", "d"] {
            let (wa, wb) = (
                a.voltage(&fwd, node).unwrap(),
                b.voltage(&rev, node).unwrap(),
            );
            for (k, (va, vb)) in wa.iter().zip(&wb).enumerate() {
                let tol = VNTOL + RELTOL * va.abs().max(vb.abs());
                assert!(
                    (va - vb).abs() <= tol,
                    "{node} at t = {:e}: in order {va} vs reversed {vb}",
                    a.times[k]
                );
            }
        }
    }

    #[test]
    fn gate_step_charges_cgs_plus_cgd_through_the_resistor() {
        // Drain on a supply: no Miller gain, so the gate is a plain RC
        // with C = cgs + cgd at the operating point. Trapezoidal steps
        // must carry the previous charging current, or the response
        // slows to a time constant of 2RC.
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vin in 0 PULSE(1 1.02 0 1p 1p 1 2)
             Rg in g 100k
             M1 vdd g 0 0 nch W=20u L=2u",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let m1 = ses.op().unwrap().mos_ops["M1"];
        assert_eq!(m1.region, ams_netlist::MosRegion::Saturation);
        let tau = 100e3 * (m1.cgs + m1.cgd);
        let res = ses.tran(5.0 * tau, tau / 50.0).unwrap();
        let g = res.voltage(&ckt, "g").unwrap();
        for (t, v) in res.times.iter().zip(&g).skip(1) {
            let step = (v - 1.0) / 0.02;
            let expected = 1.0 - (-t / tau).exp();
            assert!(
                (step - expected).abs() <= 0.02,
                "t = {t:e}: normalized gate {step} vs 1 - exp(-t/RC) = {expected}"
            );
        }
    }
}
