//! Simulation-based sizing: FRIDGE-style full simulation in the annealing
//! loop, and the ASTRX/OBLX acceleration via AWE macromodels.
//!
//! "The FRIDGE tool calls the SPICE simulator throughout a simulated
//! annealing optimization loop … the drawback are the long run times."
//! "An in-between solution was therefore explored in the ASTRX/OBLX tool,
//! where the linear small-signal characteristics are simulated efficiently
//! using AWE" (§2.2). [`AcEvaluator`] selects between the two evaluation
//! strategies inside the same loop, so experiment E2/E7 can quantify the
//! trade-off directly.

use crate::anneal::{AnnealConfig, ParamDef};
use crate::cost::Perf;
use crate::eqopt::{size_by_annealing, SizingResult};
use ams_awe::AweModel;
use ams_netlist::{Circuit, Technology};
use ams_sim::{log_frequencies, BatchSession, SimError, SimSession};
use ams_topology::Spec;
// det-lint: allow(hash-collection): Perf/param maps read by key; ordered walks go through Spec bounds
use std::collections::HashMap;
use std::sync::OnceLock;

/// How the AC characteristics are evaluated at each optimization iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcEvaluator {
    /// Full frequency sweep (FRIDGE: complete simulation per iteration).
    FullSweep {
        /// Points in the log sweep.
        points: usize,
    },
    /// AWE macromodel of the given order (ASTRX/OBLX acceleration).
    Awe {
        /// Padé order (number of poles).
        order: usize,
    },
}

/// A parameterized circuit whose performance is measured by simulation.
///
/// `Sync` is a supertrait: templates are shared by reference across the
/// `ams-exec` workers evaluating candidates in parallel.
pub trait SimulatedTemplate: Sync {
    /// Template name.
    fn name(&self) -> &str;
    /// Optimization parameters.
    fn params(&self) -> Vec<ParamDef>;
    /// Instantiates the netlist at a parameter point.
    fn build(&self, x: &[f64]) -> Circuit;
    /// Measures performance by running analyses on the instantiated
    /// circuit.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (non-convergence, singular systems).
    fn measure(&self, ckt: &Circuit, ac: AcEvaluator) -> Result<Perf, SimError>;
    /// Full evaluator identity for cache keys (see
    /// [`crate::PerfModel::cache_identity`]): must cover every
    /// configuration input that shapes [`measure`](Self::measure). The
    /// bare-name default is only sound for templates with no knobs.
    fn cache_identity(&self) -> String {
        self.name().to_string()
    }
}

/// Sizes a simulated template against a spec by annealing, calling the
/// simulator at every iteration (the Fig. 1b loop with a simulator in the
/// "evaluate performance" box). A candidate the simulator cannot measure
/// scores infeasible. Evaluations are memoized as in [`crate::optimize`].
pub fn synthesize<T: SimulatedTemplate>(
    template: &T,
    spec: &Spec,
    ac: AcEvaluator,
    config: &AnnealConfig,
) -> SizingResult {
    // The AC evaluator changes what `measure` reports, so it is part of
    // the evaluator identity alongside the template's own knobs.
    let identity = format!("{}|ac={:?}", template.cache_identity(), ac);
    size_by_annealing(template.params(), config, &identity, spec, |x| {
        template.measure(&template.build(x), ac).ok()
    })
}

/// Two-stage Miller opamp as a simulated template: the netlist is rebuilt
/// and re-simulated at every optimization step (no analytic equations).
///
/// Parameters: `w1` (input pair), `w3` (mirror load), `w6` (second stage),
/// `itail`, `i2` (stage currents), `cc` (Miller cap), `l` (length).
#[derive(Debug, Clone)]
pub struct TwoStageCircuit {
    /// Process technology.
    pub tech: Technology,
    /// Load capacitance in farads.
    pub cl: f64,
    /// Symbolic analysis captured from the first measured candidate and
    /// shared by every later one — all candidates of this template have
    /// the same MNA pattern, only their device values differ.
    batch: OnceLock<BatchSession>,
}

impl TwoStageCircuit {
    /// Creates the template.
    pub fn new(tech: Technology, cl: f64) -> Self {
        TwoStageCircuit {
            tech,
            cl,
            batch: OnceLock::new(),
        }
    }

    /// Binds `ckt` against the captured batch analysis, falling back to a
    /// fresh session when the pattern ever disagrees (it never should for
    /// circuits built by this template, but a bind error must degrade to
    /// the unbatched path, not fail the candidate).
    fn session<'c>(&self, ckt: &'c Circuit) -> SimSession<'c> {
        let batch = self.batch.get_or_init(|| BatchSession::capture(ckt));
        match batch.bind(ckt) {
            Ok(ses) => ses,
            Err(_) => SimSession::new(ckt),
        }
    }
}

impl SimulatedTemplate for TwoStageCircuit {
    fn name(&self) -> &str {
        "two_stage_miller_circuit"
    }

    fn cache_identity(&self) -> String {
        format!("{}|tech={:?}|cl={}", self.name(), self.tech, self.cl)
    }

    fn params(&self) -> Vec<ParamDef> {
        let wmin = self.tech.wmin;
        vec![
            ParamDef::log("w1", wmin, 2e-3),
            ParamDef::log("w3", wmin, 2e-3),
            ParamDef::log("w6", wmin, 5e-3),
            ParamDef::log("itail", 1e-6, 2e-3),
            ParamDef::log("i2", 2e-6, 5e-3),
            ParamDef::log("cc", 0.2e-12, 20e-12),
            ParamDef::linear("l", self.tech.lmin, 8.0 * self.tech.lmin),
        ]
    }

    fn build(&self, x: &[f64]) -> Circuit {
        let (w1, w3, w6, itail, i2, cc, l) = (x[0], x[1], x[2], x[3], x[4], x[5], x[6]);
        let vdd = self.tech.vdd;
        let vcm = vdd * 0.45;
        let mut ckt = Circuit::new();
        let nvdd = ckt.node("vdd");
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let tail = ckt.node("tail");
        let d1 = ckt.node("d1"); // mirror diode side
        let d2 = ckt.node("d2"); // stage-1 output
        let out = ckt.node("out");
        let gnd = Circuit::GROUND;
        use ams_netlist::Device;
        ckt.add("Vdd", Device::vdc(nvdd, gnd, vdd));
        ckt.add(
            "Vinp",
            Device::Vsource {
                plus: inp,
                minus: gnd,
                waveform: ams_netlist::SourceWaveform::Dc(vcm),
                ac_mag: 1.0,
            },
        );
        ckt.add("Vinn", Device::vdc(inn, gnd, vcm));
        // NMOS input pair.
        ckt.add(
            "M1",
            Device::mos(d1, inp, tail, gnd, self.tech.nmos.clone(), w1, l),
        );
        ckt.add(
            "M2",
            Device::mos(d2, inn, tail, gnd, self.tech.nmos.clone(), w1, l),
        );
        // PMOS mirror load (diode on d1).
        ckt.add(
            "M3",
            Device::mos(d1, d1, nvdd, nvdd, self.tech.pmos.clone(), w3, l),
        );
        ckt.add(
            "M4",
            Device::mos(d2, d1, nvdd, nvdd, self.tech.pmos.clone(), w3, l),
        );
        // Ideal tail sink and second-stage sink (bias branches).
        ckt.add("Itail", Device::idc(tail, gnd, itail));
        // Second stage: PMOS common source driven by d2.
        ckt.add(
            "M6",
            Device::mos(out, d2, nvdd, nvdd, self.tech.pmos.clone(), w6, l),
        );
        ckt.add("I2", Device::idc(out, gnd, i2));
        // Compensation and load.
        ckt.add("Cc", Device::capacitor(d2, out, cc));
        ckt.add("CL", Device::capacitor(out, gnd, self.cl));
        ckt
    }

    fn measure(&self, ckt: &Circuit, ac: AcEvaluator) -> Result<Perf, SimError> {
        // The DC ladder restarts a failed bias solve from perturbed
        // initial conditions before the candidate scores infeasible: a
        // marginal operating point that Newton misses from a zero start is
        // often perfectly solvable, and discarding it would waste the
        // candidate.
        let ses = self.session(ckt);
        let op = ses.op()?;
        let net = ses.linearize()?;
        let out = ses
            .output_index("out")
            .ok_or_else(|| SimError::UnknownNode("out".into()))?;
        let mut perf: Perf = HashMap::new();

        // Static power from the supply branch.
        let idd = op.supply_current(ckt, "Vdd").unwrap_or(0.0).abs();
        perf.insert("power_w".into(), idd * self.tech.vdd);

        // Slew rate limited by the tail current into Cc. `measure` accepts
        // arbitrary circuits, so a missing bias element is a caller error,
        // not an invariant violation.
        let itail_dev = ckt.device_named("Itail").ok_or_else(|| {
            SimError::BadParameter("circuit is missing the `Itail` tail current source".into())
        })?;
        let itail = match ckt.device(itail_dev) {
            ams_netlist::Device::Isource { waveform, .. } => waveform.dc_value(),
            _ => 0.0,
        };
        let cc_dev = ckt.device_named("Cc").ok_or_else(|| {
            SimError::BadParameter("circuit is missing the `Cc` compensation capacitor".into())
        })?;
        let cc = match ckt.device(cc_dev) {
            ams_netlist::Device::Capacitor { farads, .. } => *farads,
            _ => 1e-12,
        };
        perf.insert("slew_v_per_s".into(), itail / cc);

        // AC characteristics via the selected evaluator.
        let freqs = log_frequencies(10.0, 1e10, 181);
        let (gain, ugf, pm) = match ac {
            AcEvaluator::FullSweep { points } => {
                let freqs = log_frequencies(10.0, 1e10, points.max(16));
                let sweep = ses.ac("out", &freqs)?;
                (
                    sweep.dc_gain(),
                    sweep.unity_gain_freq().unwrap_or(0.0),
                    sweep.phase_margin_deg().unwrap_or(0.0),
                )
            }
            AcEvaluator::Awe { order } => {
                let ladder = [order, order.saturating_sub(1).max(1)];
                match AweModel::first_of(&net, &net.b, out, &ladder) {
                    Ok(model) => {
                        let values = model.frequency_response(&freqs);
                        let sweep = ams_sim::AcSweep {
                            freqs: freqs.clone(),
                            values,
                        };
                        (
                            sweep.dc_gain(),
                            sweep.unity_gain_freq().unwrap_or(0.0),
                            sweep.phase_margin_deg().unwrap_or(0.0),
                        )
                    }
                    Err(_) => (0.0, 0.0, 0.0),
                }
            }
        };
        perf.insert("gain_db".into(), 20.0 * gain.max(1e-12).log10());
        perf.insert("ugf_hz".into(), ugf);
        perf.insert("phase_margin_deg".into(), pm);

        // Active area estimate from drawn gates.
        let mut area = cc / 1e-3;
        for (_, dev) in ckt.devices() {
            if let ams_netlist::Device::Mos(m) = dev {
                area += 3.0 * m.w * m.l * m.m as f64;
            }
        }
        perf.insert("area_m2".into(), area);
        Ok(perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_topology::Bound;

    fn template() -> TwoStageCircuit {
        TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12)
    }

    /// A hand-picked reasonable sizing used by several tests.
    fn good_point() -> Vec<f64> {
        // w1, w3, w6, itail, i2, cc, l
        vec![60e-6, 30e-6, 150e-6, 50e-6, 150e-6, 2e-12, 2.4e-6]
    }

    #[test]
    fn built_circuit_is_valid_and_biases() {
        let t = template();
        let ckt = t.build(&good_point());
        ckt.validate().unwrap();
        let op = SimSession::new(&ckt).op().unwrap();
        // Diff pair must be in saturation at this sizing.
        assert_eq!(op.mos_ops["M1"].region, ams_netlist::MosRegion::Saturation);
        assert_eq!(op.mos_ops["M2"].region, ams_netlist::MosRegion::Saturation);
    }

    #[test]
    fn measured_gain_is_opamp_like() {
        let t = template();
        let ckt = t.build(&good_point());
        let perf = t
            .measure(&ckt, AcEvaluator::FullSweep { points: 121 })
            .unwrap();
        assert!(
            perf["gain_db"] > 40.0,
            "gain = {} dB (biasing off?)",
            perf["gain_db"]
        );
        assert!(perf["ugf_hz"] > 1e5);
        assert!(perf["power_w"] > 0.0);
    }

    #[test]
    fn awe_and_full_sweep_agree_on_gain_and_ugf() {
        let t = template();
        let ckt = t.build(&good_point());
        let full = t
            .measure(&ckt, AcEvaluator::FullSweep { points: 181 })
            .unwrap();
        let awe = t.measure(&ckt, AcEvaluator::Awe { order: 3 }).unwrap();
        let gain_err = (full["gain_db"] - awe["gain_db"]).abs();
        assert!(gain_err < 1.0, "gain mismatch {gain_err} dB");
        let ugf_err = (full["ugf_hz"] - awe["ugf_hz"]).abs() / full["ugf_hz"];
        assert!(ugf_err < 0.1, "ugf mismatch {ugf_err}");
    }

    #[test]
    fn synthesis_improves_over_random_start() {
        let t = template();
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(55.0))
            .require("ugf_hz", Bound::AtLeast(2e6))
            .require("phase_margin_deg", Bound::AtLeast(45.0))
            .minimizing("power_w");
        let cfg = AnnealConfig {
            moves_per_stage: 40,
            stages: 25,
            seed: 7,
            ..Default::default()
        };
        let r = synthesize(&t, &spec, AcEvaluator::Awe { order: 3 }, &cfg);
        // The loop must find a feasible design in this generous space.
        assert!(r.feasible, "perf: {:?}", r.perf);
        assert!(r.evaluations > 500);
    }
}
