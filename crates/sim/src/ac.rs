//! Small-signal AC analysis.
//!
//! Solves `(G + jωC)·x = b` at each requested frequency, where the linear
//! network comes from [`linearize`](crate::linearize) at a DC operating
//! point. This is the "full simulation" reference that the AWE macromodel
//! in `ams-awe` is benchmarked against (experiment E7).
//!
//! Every sweep is an [`AcScan`]: an iterator that solves one frequency
//! each time it is asked, in the order the caller gives, in one system
//! buffer it restamps at every point. [`SimSession::ac`] collects a scan
//! over an ascending list; a reading that needs only some points (the
//! highest frequency above a line, say) walks the scan and drops it once
//! it has its answer, and the points it never asked for cost nothing.
//!
//! [`SimSession::ac`]: crate::SimSession::ac

use std::sync::Arc;

use crate::csc::CscLu;
use crate::error::SimError;
use crate::linalg::Complex;
use crate::mna::{LinearNet, Stamper};
use crate::session::note_failure;

/// Result of an AC sweep at one output unknown.
#[derive(Debug, Clone)]
pub struct AcSweep {
    /// Frequencies in hertz.
    pub freqs: Vec<f64>,
    /// Complex output value at each frequency.
    pub values: Vec<Complex>,
}

impl AcSweep {
    /// Magnitudes in dB (20·log₁₀|H|).
    pub fn magnitude_db(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| 20.0 * v.abs().max(1e-300).log10())
            .collect()
    }

    /// Phases in degrees.
    pub fn phase_deg(&self) -> Vec<f64> {
        self.values.iter().map(|v| v.arg().to_degrees()).collect()
    }

    /// DC (lowest-frequency) gain magnitude.
    pub fn dc_gain(&self) -> f64 {
        self.values.first().map_or(0.0, |v| v.abs())
    }

    /// The −3 dB bandwidth relative to the first point's magnitude, found by
    /// log-linear interpolation between sweep points. `None` when the
    /// response never drops 3 dB within the sweep.
    pub fn bandwidth_3db(&self) -> Option<f64> {
        let reference = self.values.first()?.abs();
        let target = reference / 2f64.sqrt();
        for i in 1..self.values.len() {
            let m0 = self.values[i - 1].abs();
            let m1 = self.values[i].abs();
            if m0 >= target && m1 < target {
                let f0 = self.freqs[i - 1].ln();
                let f1 = self.freqs[i].ln();
                let t = (m0 - target) / (m0 - m1).max(1e-300);
                return Some((f0 + t * (f1 - f0)).exp());
            }
        }
        None
    }

    /// Unity-gain frequency (|H| = 1) by log interpolation, or `None`.
    pub fn unity_gain_freq(&self) -> Option<f64> {
        for i in 1..self.values.len() {
            let m0 = self.values[i - 1].abs();
            let m1 = self.values[i].abs();
            if m0 >= 1.0 && m1 < 1.0 {
                let f0 = self.freqs[i - 1].ln();
                let f1 = self.freqs[i].ln();
                let t = (m0 - 1.0) / (m0 - m1).max(1e-300);
                return Some((f0 + t * (f1 - f0)).exp());
            }
        }
        None
    }

    /// Phase margin in degrees: 180° + phase at the unity-gain frequency.
    /// `None` when gain never crosses unity inside the sweep.
    pub fn phase_margin_deg(&self) -> Option<f64> {
        let fu = self.unity_gain_freq()?;
        // Interpolate phase at fu.
        for i in 1..self.freqs.len() {
            if self.freqs[i] >= fu {
                let p0 = self.values[i - 1].arg().to_degrees();
                let p1 = self.values[i].arg().to_degrees();
                let t = (fu.ln() - self.freqs[i - 1].ln())
                    / (self.freqs[i].ln() - self.freqs[i - 1].ln()).max(1e-300);
                let mut ph = p0 + t * (p1 - p0);
                // Unwrap into (−360, 0] so the margin formula is stable.
                while ph > 0.0 {
                    ph -= 360.0;
                }
                return Some(180.0 + ph);
            }
        }
        None
    }
}

/// Generates `n` logarithmically spaced frequencies between `f_start` and
/// `f_stop` (inclusive).
///
/// # Panics
///
/// Panics if the bounds are non-positive or `n < 2`.
pub fn log_frequencies(f_start: f64, f_stop: f64, n: usize) -> Vec<f64> {
    assert!(f_start > 0.0 && f_stop > f_start && n >= 2, "bad sweep");
    let l0 = f_start.ln();
    let l1 = f_stop.ln();
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Stamps `G + sC` over the net's assembled pattern with right-hand side
/// `rhs`, on the net's backend. Entries outside the pattern are zero on
/// both backends, and every call pushes the same triplet sequence, so a
/// sparse sweep refactors instead of re-analyzing. When `transposed`,
/// entry `(i, j)` lands at `(j, i)` — the adjoint-system form noise
/// analysis solves.
pub(crate) fn complex_system(
    net: &LinearNet,
    s: Complex,
    transposed: bool,
    rhs: Vec<Complex>,
) -> Stamper<Complex> {
    let mut st = Stamper::over(rhs, net.backend());
    stamp_pattern(net, s, transposed, &mut st);
    st
}

/// Adds `G + sC` over the net's assembled pattern into `st`'s matrix, in
/// the pattern's row-major order.
fn stamp_pattern(net: &LinearNet, s: Complex, transposed: bool, st: &mut Stamper<Complex>) {
    for e in net.pattern() {
        let v = Complex::real(e.g) + s * e.c;
        if transposed {
            st.add(e.col, e.row, v);
        } else {
            st.add(e.row, e.col, v);
        }
    }
}

/// A real excitation vector as a complex right-hand side.
fn complex_rhs(b: &[f64]) -> Vec<Complex> {
    b.iter().map(|&v| Complex::real(v)).collect()
}

/// Solves `(G + sC)·x = excitation` at a single complex frequency `s`, on
/// the net's backend. Pass `&net.b` for the network's own AC sources.
///
/// # Errors
///
/// * [`SimError::BadParameter`] when `excitation` does not have one entry
///   per unknown.
/// * [`SimError::Singular`] if the system is singular at `s`.
pub fn solve_at(net: &LinearNet, s: Complex, excitation: &[f64]) -> Result<Vec<Complex>, SimError> {
    if excitation.len() != net.dim() {
        return Err(SimError::BadParameter(format!(
            "excitation has {} entries but the network has {} unknowns",
            excitation.len(),
            net.dim()
        )));
    }
    Ok(complex_system(net, s, false, complex_rhs(excitation)).solve()?)
}

/// A lazy AC sweep of one output unknown: each [`Iterator::next`] solves
/// `(G + jωC)·x = b` at the next frequency the caller's list gives and
/// yields that frequency with the output's complex value. Made by
/// [`SimSession::ac_scan`](crate::SimSession::ac_scan).
///
/// The scan keeps one system buffer for all its points. On the dense
/// backend that is one matrix, zeroed, stamped and eliminated in place at
/// every point, so each value has the bits a fresh solve at that
/// frequency gives, whatever the order. On the sparse backend the
/// triplets are refilled in their own storage and solved against the
/// scan's factor slot: the first point is factored symbolically and every
/// later one refactored numerically over its pivot order, so values
/// depend on the order in the last bits. Each point it stamps and solves
/// bumps the `sim.ac_points` counter; a failed solve yields
/// [`SimError::Singular`], recorded in the forensics slot, and the scan
/// can go on to the next point.
#[derive(Debug)]
pub struct AcScan<I> {
    net: Arc<LinearNet>,
    out: usize,
    freqs: I,
    system: Stamper<Complex>,
    lu: Option<CscLu<Complex>>,
}

impl<I: Iterator<Item = f64>> AcScan<I> {
    /// A scan of unknown `out` of `net` over `freqs`.
    pub(crate) fn new(net: Arc<LinearNet>, out: usize, freqs: I) -> Self {
        let system = Stamper::over(vec![Complex::ZERO; net.dim()], net.backend());
        AcScan {
            net,
            out,
            freqs,
            system,
            lu: None,
        }
    }
}

impl<I: Iterator<Item = f64>> Iterator for AcScan<I> {
    type Item = Result<(f64, Complex), SimError>;

    fn next(&mut self) -> Option<Self::Item> {
        let f = self.freqs.next()?;
        ams_trace::counter_add("sim.ac_points", 1);
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        let st = &mut self.system;
        st.clear();
        stamp_pattern(&self.net, s, false, st);
        for (z, &b) in st.z.iter_mut().zip(&self.net.b) {
            *z = Complex::real(b);
        }
        let solved = st.solve_in_place(&mut self.lu, || None);
        Some(note_failure(
            solved
                .map(|()| (f, st.z[self.out]))
                .map_err(SimError::Singular),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::session::SimSession;
    use ams_netlist::parse_deck;

    fn rc_lowpass() -> ams_netlist::Circuit {
        parse_deck(
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 159.154943n",
        )
        .unwrap()
    }

    #[test]
    fn rc_pole_at_1khz() {
        let ckt = rc_lowpass();
        let freqs = log_frequencies(1.0, 1e6, 121);
        let sweep = SimSession::new(&ckt).ac("out", &freqs).unwrap();
        assert!((sweep.dc_gain() - 1.0).abs() < 1e-6);
        let bw = sweep.bandwidth_3db().unwrap();
        assert!((bw - 1000.0).abs() / 1000.0 < 0.02, "bw = {bw}");
    }

    #[test]
    fn rc_phase_approaches_minus_90() {
        let ckt = rc_lowpass();
        let sweep = SimSession::new(&ckt).ac("out", &[1e6]).unwrap();
        let ph = sweep.phase_deg()[0];
        assert!(ph < -89.0, "phase = {ph}");
    }

    #[test]
    fn log_frequencies_are_monotonic() {
        let f = log_frequencies(1.0, 1e6, 61);
        assert_eq!(f.len(), 61);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[60] - 1e6).abs() / 1e6 < 1e-12);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn common_source_gain_matches_hand_analysis() {
        let ckt = parse_deck(
            ".model nch nmos vt0=0.7 kp=110u lambda=0.04
             Vdd vdd 0 DC 5
             Vin in 0 DC 1.0 AC 1
             RD vdd out 10k
             M1 out in 0 0 nch W=20u L=2u
             CL out 0 1p",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let mop = ses.op().unwrap().mos_ops["M1"];
        let sweep = ses.ac("out", &[10.0]).unwrap();
        // |A| = gm·(RD ∥ ro)
        let ro = 1.0 / mop.gds;
        let expected = mop.gm * (10e3 * ro) / (10e3 + ro);
        let got = sweep.dc_gain();
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn rlc_resonance_peaks() {
        // Series RLC driven at the capacitor: resonance at 1/(2π√(LC)).
        let ckt = parse_deck(
            "Vin in 0 DC 0 AC 1
             R1 in a 1
             L1 a out 1m
             C1 out 0 1u",
        )
        .unwrap();
        let ses = SimSession::new(&ckt);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-6).sqrt());
        let sweep = ses.ac("out", &[f0 / 10.0, f0, f0 * 10.0]).unwrap();
        let mags = sweep.magnitude_db();
        assert!(mags[1] > mags[0] + 10.0, "resonance should peak: {mags:?}");
        assert!(mags[1] > mags[2] + 10.0);
    }

    #[test]
    fn empty_sweep_is_error() {
        let ckt = rc_lowpass();
        assert!(matches!(
            SimSession::new(&ckt).ac("out", &[]),
            Err(SimError::BadParameter(_))
        ));
    }

    #[test]
    fn sweep_backends_agree_on_rc_response() {
        let ckt = rc_lowpass();
        let freqs = log_frequencies(1.0, 1e6, 31);
        let [d, s] = [Backend::Dense, Backend::Sparse].map(|backend| {
            let ses = SimSession::with_backend(&ckt, backend);
            assert_eq!(ses.linearize().unwrap().backend(), backend);
            ses.ac("out", &freqs).unwrap()
        });
        for (a, b) in d.values.iter().zip(&s.values) {
            assert!((*a - *b).abs() < 1e-9, "dense {a:?} vs sparse {b:?}");
        }
    }
}
