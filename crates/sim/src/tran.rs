//! Transient analysis with companion models and Newton at each timestep.
//!
//! Integration is trapezoidal with a backward-Euler start-up step, the
//! classic SPICE combination: A-stable, second-order accurate, and free of
//! the artificial damping pure BE would add to ringing power-grid
//! waveforms (experiment E4 relies on this).

use ams_guard::budget;
use ams_guard::fault::{self, FaultKind};
use ams_netlist::{Circuit, Device, NodeId};
// det-lint: allow(hash-collection): reactive state keyed by device list index; stamping order comes from the device Vec
use std::collections::HashMap;

use crate::error::SimError;
use crate::mna::{indexed_devices, MnaLayout, Stamper};
use crate::session::{RealSlot, SimSession};

const MAX_ITER: usize = 60;
const VNTOL: f64 = 1e-6;
const RELTOL: f64 = 1e-4;
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
    /// Step halvings forced by a Newton failure (LTE-style retries).
    halvings: u64,
    /// Newton iterations summed over every attempted step.
    newton_iters: u64,
    /// Newton solves that failed and triggered a retry.
    rejected: u64,
}

/// Per-reactive-element integration state.
#[derive(Debug, Clone, Copy, Default)]
struct ReactState {
    /// Voltage across the element (or current for inductors) at t_n.
    v: f64,
    /// Element current (or voltage for inductors) at t_n.
    i: f64,
}

/// The transient engine behind [`SimSession::tran`].
pub(crate) fn run(ses: &SimSession<'_>, tstop: f64, dt: f64) -> Result<TranResult, SimError> {
    if tstop <= 0.0 || dt <= 0.0 || dt > tstop {
        return Err(SimError::BadParameter(
            "tstop and dt must be positive with dt <= tstop".into(),
        ));
    }
    let _span = ams_trace::span("sim.transient");
    let mut stats = TranStats::default();
    let ckt = ses.circuit();
    let op = ses.op()?;
    let layout = ses.layout().clone();
    let devices = indexed_devices(ckt);

    let mut x = op.x.clone();
    let mut states: HashMap<usize, ReactState> = HashMap::new();
    let mut mos_caps: HashMap<usize, [(f64, f64); 4]> = HashMap::new(); // (cap value, v_old)

    // Initialize reactive states from the DC solution.
    let xv = |x: &[f64], id: NodeId| layout.node(id).map_or(0.0, |i| x[i]);
    for (li, _name, dev) in &devices {
        match dev {
            Device::Capacitor { a, b, .. } => {
                states.insert(
                    *li,
                    ReactState {
                        v: xv(&x, *a) - xv(&x, *b),
                        i: 0.0,
                    },
                );
            }
            Device::Inductor { .. } => {
                let br = layout.branch(*li).expect("inductor branch");
                states.insert(*li, ReactState { v: x[br], i: 0.0 });
            }
            Device::Mos(_) => {
                mos_caps.insert(*li, [(0.0, 0.0); 4]);
            }
            _ => {}
        }
    }

    let mut times = vec![0.0];
    let mut solutions = vec![x.clone()];
    let mut t = 0.0;
    let mut first_step = true;

    while t < tstop - 1e-15 {
        let step = dt.min(tstop - t);
        let (new_x, new_states, new_mos_caps, t_next) = match advance(
            ses, &layout, &devices, &x, &states, &mos_caps, t, step, first_step, 0, &mut stats,
        ) {
            Ok(v) => v,
            Err(e) => {
                flush_stats(&stats);
                return Err(e);
            }
        };
        x = new_x;
        states = new_states;
        mos_caps = new_mos_caps;
        t = t_next;
        first_step = false;
        times.push(t);
        solutions.push(x.clone());
    }

    flush_stats(&stats);
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
    // `sim.lu_factors` counts Newton linear solves: one per transient
    // iteration, whether the sparse kernel factored, refactored or kept
    // its factors (the `sim.sparse.*` counters split those).
    ams_trace::counter_add("sim.lu_factors", stats.newton_iters);
    ams_trace::counter_add("sim.lu_solves", stats.newton_iters);
}

/// Advances one (possibly recursively halved) timestep.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn advance(
    ses: &SimSession<'_>,
    layout: &MnaLayout,
    devices: &[(usize, String, Device)],
    x: &[f64],
    states: &HashMap<usize, ReactState>,
    mos_caps: &HashMap<usize, [(f64, f64); 4]>,
    t: f64,
    h: f64,
    use_be: bool,
    depth: usize,
    stats: &mut TranStats,
) -> Result<
    (
        Vec<f64>,
        HashMap<usize, ReactState>,
        HashMap<usize, [(f64, f64); 4]>,
        f64,
    ),
    SimError,
> {
    let t_new = t + h;
    // Refresh MOS cap values from the current solution.
    let mut caps_now = mos_caps.clone();
    let xv = |x: &[f64], id: NodeId| layout.node(id).map_or(0.0, |i| x[i]);
    for (li, name, dev) in devices {
        if let Device::Mos(m) = dev {
            let op = mos_op_at(m, layout, x);
            let pairs = mos_cap_pairs(m);
            let mut entry = [(0.0, 0.0); 4];
            let caps = [op.cgs, op.cgd, op.cdb, op.csb];
            for (k, ((a, b), c)) in pairs.iter().zip(caps).enumerate() {
                entry[k] = (c, xv(x, *a) - xv(x, *b));
            }
            caps_now.insert(*li, entry);
            let _ = name;
        }
    }

    let iters_before = stats.newton_iters;
    match newton_step(
        ses,
        layout,
        devices,
        x,
        states,
        &caps_now,
        t_new,
        h,
        use_be,
        &mut stats.newton_iters,
    ) {
        Ok(new_x) => {
            stats.accepted += 1;
            tran_step_event(t_new, h, true, stats.newton_iters - iters_before);
            // Commit: update reactive states from the accepted solution.
            let mut new_states = states.clone();
            for (li, _name, dev) in devices {
                match dev {
                    Device::Capacitor { a, b, farads } => {
                        let v_new = xv(&new_x, *a) - xv(&new_x, *b);
                        let st = states[li];
                        let i_new = if use_be {
                            farads * (v_new - st.v) / h
                        } else {
                            2.0 * farads * (v_new - st.v) / h - st.i
                        };
                        new_states.insert(*li, ReactState { v: v_new, i: i_new });
                    }
                    Device::Inductor { henries, .. } => {
                        let br = layout.branch(*li).expect("inductor branch");
                        let i_new = new_x[br];
                        let st = states[li];
                        let v_new = if use_be {
                            henries * (i_new - st.v) / h
                        } else {
                            2.0 * henries * (i_new - st.v) / h - st.i
                        };
                        // For inductors `v` holds current, `i` holds voltage.
                        new_states.insert(*li, ReactState { v: i_new, i: v_new });
                    }
                    _ => {}
                }
            }
            Ok((new_x, new_states, caps_now, t_new))
        }
        Err(_) if depth < MAX_HALVINGS => {
            stats.rejected += 1;
            stats.halvings += 1;
            tran_step_event(t_new, h, false, stats.newton_iters - iters_before);
            // Halve: two sub-steps, BE on the first half for damping.
            let (x1, s1, c1, t1) = advance(
                ses,
                layout,
                devices,
                x,
                states,
                mos_caps,
                t,
                h / 2.0,
                true,
                depth + 1,
                stats,
            )?;
            advance(
                ses,
                layout,
                devices,
                &x1,
                &s1,
                &c1,
                t1,
                h / 2.0,
                false,
                depth + 1,
                stats,
            )
        }
        Err(e) => {
            stats.rejected += 1;
            tran_step_event(t_new, h, false, stats.newton_iters - iters_before);
            Err(e)
        }
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

fn mos_op_at(m: &ams_netlist::MosInstance, layout: &MnaLayout, x: &[f64]) -> ams_netlist::MosOp {
    let xv = |id: NodeId| layout.node(id).map_or(0.0, |i| x[i]);
    let (vd, vs) = (xv(m.drain), xv(m.source));
    let sign = m.model.polarity.sign();
    let (vd, vs, _fl) = if sign * (vd - vs) >= 0.0 {
        (vd, vs, false)
    } else {
        (vs, vd, true)
    };
    let vgs = xv(m.gate) - vs;
    let vds = vd - vs;
    let vbs = xv(m.bulk) - vs;
    m.model.evaluate(vgs, vds, vbs, m.w * m.m as f64, m.l)
}

fn mos_cap_pairs(m: &ams_netlist::MosInstance) -> [(NodeId, NodeId); 4] {
    [
        (m.gate, m.source),
        (m.gate, m.drain),
        (m.drain, m.bulk),
        (m.source, m.bulk),
    ]
}

/// Newton solve at one time point with companion models.
#[allow(clippy::too_many_arguments)]
fn newton_step(
    ses: &SimSession<'_>,
    layout: &MnaLayout,
    devices: &[(usize, String, Device)],
    x0: &[f64],
    states: &HashMap<usize, ReactState>,
    mos_caps: &HashMap<usize, [(f64, f64); 4]>,
    t_new: f64,
    h: f64,
    use_be: bool,
    iters: &mut u64,
) -> Result<Vec<f64>, SimError> {
    // Injection site: fail this step's Newton solve so the caller enters
    // its step-halving recovery path (and, past MAX_HALVINGS, its error
    // path) exactly as a genuinely stiff point would.
    if fault::trip(FaultKind::TranHalving) {
        return Err(SimError::NoConvergence {
            analysis: "tran",
            iterations: MAX_ITER,
        });
    }
    let mut x = x0.to_vec();
    for _ in 0..MAX_ITER {
        *iters += 1;
        let _ = budget::charge_newton(1);
        let mut st = Stamper::with_backend(layout.dim(), ses.backend());
        stamp_tran(
            layout, devices, &x, states, mos_caps, t_new, h, use_be, &mut st,
        );
        let new_x = ses
            .solve_stamped(st, RealSlot::Tran)
            .map_err(SimError::Singular)?;
        let mut converged = true;
        for i in 0..x.len() {
            let mut dx = new_x[i] - x[i];
            if i < layout.n_signal_nodes() {
                dx = dx.clamp(-1.0, 1.0);
            }
            if dx.abs() > VNTOL + RELTOL * x[i].abs().max(new_x[i].abs()) {
                converged = false;
            }
            x[i] += dx;
        }
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

#[allow(clippy::too_many_arguments)]
fn stamp_tran(
    layout: &MnaLayout,
    devices: &[(usize, String, Device)],
    x: &[f64],
    states: &HashMap<usize, ReactState>,
    mos_caps: &HashMap<usize, [(f64, f64); 4]>,
    t_new: f64,
    h: f64,
    use_be: bool,
    st: &mut Stamper,
) {
    let v = |idx: Option<usize>| idx.map_or(0.0, |i| x[i]);
    for (li, _name, dev) in devices {
        match dev {
            Device::Resistor { a, b, ohms } => {
                st.conductance(layout.node(*a), layout.node(*b), 1.0 / ohms);
            }
            Device::Capacitor { a, b, farads } => {
                let s = states[li];
                let (geq, ieq) = companion_cap(*farads, h, use_be, s);
                st.conductance(layout.node(*a), layout.node(*b), geq);
                st.current_into(layout.node(*a), ieq);
                st.current_into(layout.node(*b), -ieq);
            }
            Device::Inductor { a, b, henries } => {
                let br = layout.branch(*li).expect("inductor branch");
                let s = states[li];
                // Branch row: V(a)−V(b) − req·I = veq.
                st.voltage_branch(br, layout.node(*a), layout.node(*b), 0.0);
                let (req, veq) = if use_be {
                    (henries / h, -(henries / h) * s.v)
                } else {
                    (2.0 * henries / h, -(2.0 * henries / h) * s.v - s.i)
                };
                st.add(br, br, -req);
                st.z[br] += veq;
            }
            Device::Vsource {
                plus,
                minus,
                waveform,
                ..
            } => {
                let br = layout.branch(*li).expect("vsource branch");
                st.voltage_branch(
                    br,
                    layout.node(*plus),
                    layout.node(*minus),
                    waveform.value_at(t_new),
                );
            }
            Device::Isource {
                plus,
                minus,
                waveform,
                ..
            } => {
                let i = waveform.value_at(t_new);
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
                let br = layout.branch(*li).expect("vcvs branch");
                st.voltage_branch(br, layout.node(*plus), layout.node(*minus), 0.0);
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
                // Nonlinear conductive part, identical to the DC stamp.
                let vd = v(layout.node(m.drain));
                let vs = v(layout.node(m.source));
                let sign = m.model.polarity.sign();
                let (dnode, snode, vdx, vsx) = if sign * (vd - vs) >= 0.0 {
                    (m.drain, m.source, vd, vs)
                } else {
                    (m.source, m.drain, vs, vd)
                };
                let vg = v(layout.node(m.gate));
                let vb = v(layout.node(m.bulk));
                let vgs = vg - vsx;
                let vds = vdx - vsx;
                let vbs = vb - vsx;
                let op = m.model.evaluate(vgs, vds, vbs, m.w * m.m as f64, m.l);
                let d = layout.node(dnode);
                let s = layout.node(snode);
                let g = layout.node(m.gate);
                let b = layout.node(m.bulk);
                st.conductance(d, s, op.gds);
                st.transconductance(d, s, g, s, op.gm);
                st.transconductance(d, s, b, s, op.gmbs);
                let vgs_n = sign * vgs;
                let vds_n = sign * vds;
                let vbs_n = sign * vbs;
                let ieq_n = sign * op.ids - (op.gm * vgs_n + op.gds * vds_n + op.gmbs * vbs_n);
                let ieq = sign * ieq_n;
                st.current_into(d, -ieq);
                st.current_into(s, ieq);
                // Linearized charge part: four pair caps held constant over
                // the step (values refreshed at the step boundary).
                let caps = mos_caps[li];
                let pairs = mos_cap_pairs(m);
                for ((a, bnode), (cval, v_old)) in pairs.iter().zip(caps) {
                    if cval <= 0.0 {
                        continue;
                    }
                    let geq = if use_be { cval / h } else { 2.0 * cval / h };
                    let ieq = geq * v_old; // BE form; trap handled via i≈0 approx
                    st.conductance(layout.node(*a), layout.node(*bnode), geq);
                    st.current_into(layout.node(*a), ieq);
                    st.current_into(layout.node(*bnode), -ieq);
                }
            }
        }
    }
}

fn companion_cap(farads: f64, h: f64, use_be: bool, s: ReactState) -> (f64, f64) {
    if use_be {
        let geq = farads / h;
        (geq, geq * s.v)
    } else {
        let geq = 2.0 * farads / h;
        (geq, geq * s.v + s.i)
    }
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
}
