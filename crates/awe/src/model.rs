//! Padé approximation and pole/residue macromodels.
//!
//! Given `2q` scalar moments of a transfer function, AWE fits a `q`-pole
//! reduced-order model. The implementation follows the classical recipe:
//! moment Hankel system → characteristic polynomial → poles (inverted
//! roots) → residues from a Vandermonde solve — with frequency scaling for
//! conditioning and right-half-plane pole discarding for stability, the two
//! standard production fixes. A fit left with no stable pole is an error,
//! so a fallback ladder moves on to a lower order.
//!
//! With tracing on, `awe.models` counts the models built and
//! `awe.poles_dropped` the right-half-plane poles they discarded.

use ams_sim::{Complex, LinearNet, Matrix, SimError};
use std::fmt;

use crate::moments::Moments;

/// Errors specific to AWE model construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AweError {
    /// Moment computation or linear solve failed.
    Sim(SimError),
    /// The Hankel system was singular: the response has fewer distinct
    /// poles than the requested order — retry with a smaller `order`.
    DegenerateMoments {
        /// The order that failed.
        order: usize,
    },
    /// The requested order needs more moments than supplied.
    NotEnoughMoments {
        /// Moments required (2·order).
        needed: usize,
        /// Moments available.
        got: usize,
    },
    /// Every pole of the fit lies in the right half plane (or at
    /// infinity), so stabilization would leave no model — retry with a
    /// smaller `order`.
    Unstable {
        /// The order that failed.
        order: usize,
    },
}

impl fmt::Display for AweError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AweError::Sim(e) => write!(f, "simulation error: {e}"),
            AweError::DegenerateMoments { order } => {
                write!(f, "moment matrix singular at order {order}")
            }
            AweError::NotEnoughMoments { needed, got } => {
                write!(f, "need {needed} moments, got {got}")
            }
            AweError::Unstable { order } => {
                write!(f, "no stable pole in the order-{order} fit")
            }
        }
    }
}

impl std::error::Error for AweError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AweError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for AweError {
    fn from(e: SimError) -> Self {
        AweError::Sim(e)
    }
}

/// A reduced-order pole/residue macromodel `H(s) ≈ Σ rⱼ/(s − pⱼ)`.
#[derive(Debug, Clone)]
pub struct AweModel {
    /// Poles in rad/s (left half plane after stabilization).
    pub poles: Vec<Complex>,
    /// Residues matching [`AweModel::poles`] element-wise.
    pub residues: Vec<Complex>,
    /// Zeroth moment (exact DC value of the underlying response).
    pub dc_value: f64,
}

impl AweModel {
    /// Builds a `q`-pole model of output `out_index` of a linear network
    /// driven by its own AC sources (`net.b`).
    ///
    /// # Errors
    ///
    /// * [`AweError::Sim`] — the network's `G` matrix is singular.
    /// * [`AweError::DegenerateMoments`] or [`AweError::Unstable`] — order
    ///   too high for this response; retry with a smaller `order` (the
    ///   response has few distinct poles).
    pub fn from_net(net: &LinearNet, out_index: usize, order: usize) -> Result<Self, AweError> {
        Self::first_of(net, &net.b, out_index, &[order])
    }

    /// The fallback ladder: the model of the first order in `orders` that
    /// builds, for output `out_index` under `excitation`. The moments of
    /// the highest order are computed once, against the net's one factor
    /// of `G`, and every order reads its prefix of them, so `[4, 3, 2, 1]`
    /// costs one moment set.
    ///
    /// # Errors
    ///
    /// [`AweError::Sim`] when the moments cannot be computed, else the
    /// error of the last order tried.
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty or `out_index` is out of range.
    pub fn first_of(
        net: &LinearNet,
        excitation: &[f64],
        out_index: usize,
        orders: &[usize],
    ) -> Result<Self, AweError> {
        let highest = orders.iter().copied().max().expect("at least one order");
        let m = Moments::compute(net, excitation, 2 * highest)?.of_output(out_index);
        let mut last = None;
        for &order in orders {
            match Self::from_moments(&m[..2 * order], order) {
                Ok(model) => return Ok(model),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one order"))
    }

    /// Builds a model directly from `2·order` scalar moments.
    ///
    /// # Errors
    ///
    /// See [`AweModel::from_net`]; additionally
    /// [`AweError::NotEnoughMoments`] when the slice is too short.
    /// [`AweError::Unstable`] when no pole of the fit is stable: a model
    /// is never returned without one.
    pub fn from_moments(m: &[f64], order: usize) -> Result<Self, AweError> {
        let q = order;
        if m.len() < 2 * q {
            return Err(AweError::NotEnoughMoments {
                needed: 2 * q,
                got: m.len(),
            });
        }
        // Frequency scaling for conditioning: work with m'_k = m_k·ω₀ᵏ so
        // the scaled moments are O(1).
        let omega0 = if m[0].abs() > 0.0 && m[1].abs() > 0.0 {
            (m[0] / m[1]).abs()
        } else {
            1.0
        };
        let ms: Vec<f64> = m
            .iter()
            .enumerate()
            .map(|(k, &mk)| mk * omega0.powi(k as i32))
            .collect();

        // Hankel solve: Σᵢ bᵢ·m'_{k+i} = −m'_{k+q}, k = 0…q−1.
        let mut h = Matrix::zeros(q, q);
        let mut rhs = vec![0.0; q];
        for k in 0..q {
            for i in 0..q {
                h[(k, i)] = ms[k + i];
            }
            rhs[k] = -ms[k + q];
        }
        let b = h
            .lu()
            .map_err(|_| AweError::DegenerateMoments { order: q })?
            .solve(&rhs);

        // Characteristic polynomial λ^q + b_{q−1}λ^{q−1} + … + b₀ whose
        // roots are the reciprocal (scaled) poles λⱼ = ω₀/pⱼ.
        let mut coeffs: Vec<Complex> = b.iter().map(|&v| Complex::real(v)).collect();
        coeffs.push(Complex::ONE);
        let lambdas = crate::roots::polynomial_roots(&coeffs);

        // Residues from the Vandermonde system Σⱼ rⱼ'·λⱼ^{k+1} = −m'_k.
        let nq = lambdas.len();
        let mut v = Matrix::zeros(nq, nq);
        let mut vr = vec![Complex::ZERO; nq];
        for k in 0..nq {
            for (j, &lam) in lambdas.iter().enumerate() {
                // λ^{k+1}
                let mut p = lam;
                for _ in 0..k {
                    p = p * lam;
                }
                v[(k, j)] = p;
            }
            vr[k] = Complex::real(-ms[k]);
        }
        let r_scaled = v
            .solve(&vr)
            .map_err(|_| AweError::DegenerateMoments { order: q })?;

        // Unscale: p = ω₀/λ', and r' = r/ω₀ ⇒ r = r'·ω₀.
        let mut poles = Vec::with_capacity(nq);
        let mut residues = Vec::with_capacity(nq);
        for (lam, r_s) in lambdas.iter().zip(r_scaled) {
            if lam.abs() < 1e-14 {
                continue; // pole at infinity — drop
            }
            let p = Complex::real(omega0) / *lam;
            poles.push(p);
            residues.push(r_s * omega0);
        }

        // Stability: discard right-half-plane poles (the classical AWE
        // fix for Padé instability), then restore the exact DC value by
        // rescaling the surviving residues. With nothing left there is no
        // model to rescale.
        let keep: Vec<usize> = (0..poles.len()).filter(|&j| poles[j].re < 0.0).collect();
        if keep.is_empty() {
            return Err(AweError::Unstable { order: q });
        }
        ams_trace::counter_add("awe.models", 1);
        if keep.len() < poles.len() {
            ams_trace::counter_add("awe.poles_dropped", (poles.len() - keep.len()) as u64);
            let poles2: Vec<Complex> = keep.iter().map(|&j| poles[j]).collect();
            let residues2: Vec<Complex> = keep.iter().map(|&j| residues[j]).collect();
            let dc_now: Complex = poles2
                .iter()
                .zip(&residues2)
                .map(|(p, r)| -(*r) / *p)
                .fold(Complex::ZERO, |a, b| a + b);
            let scale = if dc_now.abs() > 1e-300 {
                Complex::real(m[0]) / dc_now
            } else {
                Complex::ONE
            };
            poles = poles2;
            residues = residues2.into_iter().map(|r| r * scale).collect();
        }

        Ok(AweModel {
            poles,
            residues,
            dc_value: m[0],
        })
    }

    /// Model order actually realized (after degenerate-pole dropping).
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// Frequency response at `f` hertz.
    pub fn response_at(&self, f: f64) -> Complex {
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(p, r)| *r / (s - *p))
            .fold(Complex::ZERO, |a, b| a + b)
    }

    /// Frequency response over a grid, mirroring
    /// [`ams_sim::SimSession::ac`] output for comparison benches.
    pub fn frequency_response(&self, freqs: &[f64]) -> Vec<Complex> {
        freqs.iter().map(|&f| self.response_at(f)).collect()
    }

    /// Impulse response `h(t) = Σ rⱼ·e^{pⱼt}` (real part).
    pub fn impulse_response(&self, t: f64) -> f64 {
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(p, r)| {
                let e = (p.re * t).exp();
                let (s, c) = (p.im * t).sin_cos();
                // Re{ r·e^{pt} }
                e * (r.re * c - r.im * s)
            })
            .sum()
    }

    /// Unit-step response `Σ rⱼ/pⱼ·(e^{pⱼt} − 1)` (real part).
    pub fn step_response(&self, t: f64) -> f64 {
        self.poles
            .iter()
            .zip(&self.residues)
            .map(|(p, r)| {
                let rp = *r / *p;
                let e = (p.re * t).exp();
                let (s, c) = (p.im * t).sin_cos();
                let ept = Complex::new(e * c, e * s);
                (rp * (ept - Complex::ONE)).re
            })
            .sum()
    }

    /// The dominant (slowest, i.e. smallest `|Re p|`) stable pole.
    pub fn dominant_pole(&self) -> Option<Complex> {
        self.poles
            .iter()
            .filter(|p| p.re < 0.0)
            .min_by(|a, b| {
                a.re.abs()
                    .partial_cmp(&b.re.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
    }

    /// 50% step-response delay estimate from the dominant pole.
    pub fn delay_50(&self) -> Option<f64> {
        self.dominant_pole().map(|p| 0.693 / p.re.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::parse_deck;
    use ams_sim::{linearize, log_frequencies, output_index, SimSession};

    fn make_net(deck: &str, out: &str) -> (LinearNet, usize) {
        let ckt = parse_deck(deck).unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let net = linearize(&ckt, &op);
        let idx = output_index(&ckt, &net.layout, out).unwrap();
        (net, idx)
    }

    #[test]
    fn single_pole_rc_is_exact() {
        let (net, out) = make_net(
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 1n",
            "out",
        );
        let model = AweModel::from_net(&net, out, 1).unwrap();
        assert_eq!(model.order(), 1);
        let p = model.poles[0];
        let expected = -1.0 / (1e3 * 1e-9);
        assert!((p.re - expected).abs() / expected.abs() < 1e-9, "p = {p}");
        assert!(p.im.abs() < 1.0);
        // DC gain 1.
        assert!((model.response_at(0.001).abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_pole_ladder_matches_ac_sweep() {
        let (net, out) = make_net(
            "Vin in 0 DC 0 AC 1
             R1 in a 1k
             C1 a 0 10p
             R2 a out 10k
             C2 out 0 1p",
            "out",
        );
        let model = AweModel::from_net(&net, out, 2).unwrap();
        let freqs = log_frequencies(1e3, 1e9, 61);
        let exact: Vec<_> = freqs
            .iter()
            .map(|&f| {
                let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
                ams_sim::solve_at(&net, s, &net.b).unwrap()[out]
            })
            .collect();
        let approx = model.frequency_response(&freqs);
        for (e, a) in exact.iter().zip(&approx) {
            let err = (*e - *a).abs() / e.abs().max(1e-12);
            assert!(err < 0.01, "mismatch: exact {e}, awe {a}");
        }
    }

    #[test]
    fn step_response_settles_to_dc_gain() {
        let (net, out) = make_net(
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 1n",
            "out",
        );
        let model = AweModel::from_net(&net, out, 1).unwrap();
        let v = model.step_response(20.0 * 1e3 * 1e-9);
        assert!((v - 1.0).abs() < 1e-6, "v = {v}");
        assert!(model.step_response(0.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_pole_of_two_pole_system() {
        let (net, out) = make_net(
            "Vin in 0 DC 0 AC 1
             R1 in a 1k
             C1 a 0 1n
             R2 a out 100
             C2 out 0 1p",
            "out",
        );
        let model = AweModel::from_net(&net, out, 2).unwrap();
        let dom = model.dominant_pole().unwrap();
        // Dominant time constant ≈ R1·(C1+C2) ≈ 1 µs → pole ≈ −1e6 rad/s.
        assert!(
            dom.re.abs() > 5e5 && dom.re.abs() < 2e6,
            "dominant pole = {dom}"
        );
    }

    #[test]
    fn order_too_high_degrades_gracefully() {
        // A 1-pole circuit asked for a 4-pole model: either an error or a
        // stable reduced model is acceptable — never a panic or an unstable
        // result.
        let (net, out) = make_net(
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 1n",
            "out",
        );
        match AweModel::from_net(&net, out, 4) {
            Ok(model) => {
                for p in &model.poles {
                    assert!(p.re < 0.0, "unstable pole {p}");
                }
            }
            Err(AweError::DegenerateMoments { .. } | AweError::Unstable { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn fits_with_no_stable_pole_are_errors() {
        // One pole at +1e9 rad/s.
        assert_eq!(
            AweModel::from_moments(&[1.0, 1e-9], 1).unwrap_err(),
            AweError::Unstable { order: 1 }
        );
        // Two right-half-plane poles.
        assert_eq!(
            AweModel::from_moments(&[1.0, 3e-9, 7e-18, 1.5e-26], 2).unwrap_err(),
            AweError::Unstable { order: 2 }
        );
    }

    #[test]
    fn ladder_matches_per_order_recomputation() {
        // One moment set for the whole ladder gives the bits of building
        // each order from its own, shorter moment set.
        for deck in [
            "Vin in 0 DC 0 AC 1
             R1 in out 1k
             C1 out 0 1n",
            "Vin in 0 DC 0 AC 1
             R1 in a 1k
             C1 a 0 10p
             R2 a out 10k
             C2 out 0 1p",
        ] {
            let (net, out) = make_net(deck, "out");
            let ladder = AweModel::first_of(&net, &net.b, out, &[4, 3, 2, 1]).unwrap();
            let per_order = [4, 3, 2, 1]
                .into_iter()
                .find_map(|q| AweModel::from_net(&net, out, q).ok())
                .unwrap();
            let bits = |m: &AweModel| {
                m.poles
                    .iter()
                    .chain(&m.residues)
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&ladder), bits(&per_order));
        }
    }

    #[test]
    fn insufficient_moments_error() {
        let err = AweModel::from_moments(&[1.0, -1e-6], 2).unwrap_err();
        assert!(matches!(
            err,
            AweError::NotEnoughMoments { needed: 4, got: 2 }
        ));
    }

    #[test]
    fn elmore_consistency_with_dominant_pole() {
        // For a 1-pole system Elmore delay = 1/|p|.
        let (net, out) = make_net(
            "Vin in 0 DC 0 AC 1
             R1 in out 5k
             C1 out 0 2n",
            "out",
        );
        let model = AweModel::from_net(&net, out, 1).unwrap();
        let tau = 5e3 * 2e-9;
        assert!((1.0 / model.poles[0].re.abs() - tau).abs() / tau < 1e-9);
    }
}
