//! Moment generation from a linearized MNA network.
//!
//! For `(G + sC)·x(s) = b`, the Taylor expansion `x(s) = Σ mₖ sᵏ` satisfies
//! `G·m₀ = b` and `G·mₖ = −C·mₖ₋₁`: one LU factorization of `G`, then one
//! forward/back substitution per moment. This is the entire cost of an AWE
//! macromodel — the source of the speedup the ASTRX/OBLX synthesis tool
//! exploits (§2.2 of the tutorial).
//!
//! The factorization belongs to the [`LinearNet`]: `G` is factored once
//! per linearization, on the net's backend, so every moment of every
//! excitation — each order an AWE ladder tries, each tap of a power grid —
//! is one more right-hand side against the same LU.

use ams_sim::{LinearNet, SimError};

/// The first `n` moments of every MNA unknown under one excitation.
#[derive(Debug, Clone)]
pub struct Moments {
    /// `vectors[k][i]` = k-th moment of unknown `i`.
    pub vectors: Vec<Vec<f64>>,
}

impl Moments {
    /// Computes `n` moment vectors of the network driven by `excitation`
    /// (`&net.b` for the network's own AC sources), solving against the
    /// net's one factorization of `G` ([`LinearNet::solve_g`]).
    ///
    /// # Errors
    ///
    /// * [`SimError::Singular`] when `G` cannot be factored (the network
    ///   has no DC path somewhere).
    /// * [`SimError::BadParameter`] when `excitation` does not have one
    ///   entry per unknown.
    pub fn compute(net: &LinearNet, excitation: &[f64], n: usize) -> Result<Self, SimError> {
        let mut vectors = Vec::with_capacity(n);
        let mut current = net.solve_g(excitation)?;
        vectors.push(current.clone());
        for _ in 1..n {
            let rhs: Vec<f64> = net.c_mul(&current).iter().map(|v| -v).collect();
            current = net.solve_g(&rhs)?;
            vectors.push(current.clone());
        }
        Ok(Moments { vectors })
    }

    /// Scalar moments of one output unknown.
    pub fn of_output(&self, out_index: usize) -> Vec<f64> {
        self.vectors.iter().map(|m| m[out_index]).collect()
    }

    /// Number of computed moments.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether no moments were computed.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }
}

/// Elmore delay of an output: `−m₁/m₀`, the classic first-moment delay
/// metric used by the RAIL power-grid tool for quick estimates.
pub fn elmore_delay(scalar_moments: &[f64]) -> Option<f64> {
    if scalar_moments.len() < 2 || scalar_moments[0] == 0.0 {
        return None;
    }
    Some(-scalar_moments[1] / scalar_moments[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_netlist::parse_deck;
    use ams_sim::{linearize, output_index, SimSession};

    fn rc_net(r: f64, c: f64) -> (ams_netlist::Circuit, LinearNet, usize) {
        let deck = format!(
            "Vin in 0 DC 0 AC 1
             R1 in out {r}
             C1 out 0 {c}"
        );
        let ckt = parse_deck(&deck).unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let net = linearize(&ckt, &op);
        let out = output_index(&ckt, &net.layout, "out").unwrap();
        (ckt, net, out)
    }

    #[test]
    fn rc_moments_match_series_expansion() {
        // H(s) = 1/(1+sRC) = 1 − (RC)s + (RC)²s² − …
        let (_ckt, net, out) = rc_net(1e3, 1e-9);
        let rc = 1e3 * 1e-9;
        let m = Moments::compute(&net, &net.b, 4).unwrap().of_output(out);
        assert!((m[0] - 1.0).abs() < 1e-9);
        assert!((m[1] + rc).abs() / rc < 1e-9);
        assert!((m[2] - rc * rc).abs() / (rc * rc) < 1e-9);
        assert!((m[3] + rc * rc * rc).abs() / (rc * rc * rc) < 1e-9);
    }

    #[test]
    fn elmore_delay_of_rc_is_rc() {
        let (_ckt, net, out) = rc_net(2e3, 3e-12);
        let m = Moments::compute(&net, &net.b, 2).unwrap().of_output(out);
        let d = elmore_delay(&m).unwrap();
        let rc = 2e3 * 3e-12;
        assert!((d - rc).abs() / rc < 1e-9);
    }

    #[test]
    fn rc_ladder_elmore_sums_downstream_capacitance() {
        // Two-stage ladder: Elmore at far node = R1(C1+C2) + R2·C2.
        let ckt = parse_deck(
            "Vin in 0 DC 0 AC 1
             R1 in a 1k
             C1 a 0 1p
             R2 a out 1k
             C2 out 0 1p",
        )
        .unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        let net = linearize(&ckt, &op);
        let out = output_index(&ckt, &net.layout, "out").unwrap();
        let m = Moments::compute(&net, &net.b, 2).unwrap().of_output(out);
        let expected = 1e3 * (1e-12 + 1e-12) + 1e3 * 1e-12;
        let d = elmore_delay(&m).unwrap();
        assert!((d - expected).abs() / expected < 1e-9, "d = {d}");
    }

    #[test]
    fn moment_count_is_respected() {
        let (_ckt, net, _) = rc_net(1e3, 1e-9);
        let m = Moments::compute(&net, &net.b, 8).unwrap();
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
    }

    #[test]
    fn elmore_requires_two_moments() {
        assert_eq!(elmore_delay(&[1.0]), None);
        assert_eq!(elmore_delay(&[]), None);
        assert_eq!(elmore_delay(&[0.0, 1.0]), None);
    }
}
