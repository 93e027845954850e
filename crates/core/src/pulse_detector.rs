//! The pulse-detector frontend of Table 1: charge-sensitive amplifier plus
//! a 4-stage semi-Gaussian pulse-shaping amplifier.
//!
//! This is the synthesis experiment of the paper (§2.2, Table 1): the
//! AMGIE system sized this frontend automatically and "a reduction of the
//! power consumption with a factor of 6 was achieved by the synthesis
//! system compared to the solution generated by an expert designer".
//!
//! The performance model is the classical CSA + CR–RC⁴ shaper analysis:
//!
//! * **gain** `\[V/fC\]` — charge gain `1/Cf` times the shaper's peak gain;
//! * **peaking time** — `n·τ` of the semi-Gaussian shaper (n = 4);
//! * **counting rate** — pulses resolvable without pile-up, `1/(4.5·τ_p)`;
//! * **noise (ENC)** — series channel noise `∝ C_tot²/(g_m·τ)`, parallel
//!   shot noise `∝ I_leak·τ`, in rms electrons;
//! * **output range** — supply minus shaper headroom;
//! * **power / area** — from the bias currents and device sizes.

use ams_netlist::{units, Circuit, Device, Technology};
use ams_sim::{log_frequencies, BatchSession, SimError, SimSession};
use ams_sizing::{ParamDef, PerfModel};
use std::sync::OnceLock;

/// Semi-Gaussian shaper order (number of integrators).
const SHAPER_ORDER: f64 = 4.0;
/// Series-noise form factor for a CR–RC⁴ shaper.
const FORM_SERIES: f64 = 0.45;
/// Parallel-noise form factor for a CR–RC⁴ shaper.
const FORM_PARALLEL: f64 = 0.84;
/// Peak gain of a normalized CR–RC⁴ shaper (nⁿe⁻ⁿ/n!).
const SHAPER_PEAK: f64 = 0.195;

/// The metric list both pulse-detector models write, in slot order.
const METRICS: &[&str] = &[
    "csa_bw_hz",
    "peaking_time_s",
    "counting_rate_hz",
    "noise_rms_e",
    "gain_v_per_fc",
    "output_range_v",
    "power_w",
    "area_m2",
];

/// The pulse-detector performance model (equation-based, AMGIE-style).
#[derive(Debug, Clone)]
pub struct PulseDetectorModel {
    /// Process technology.
    pub tech: Technology,
    /// Detector capacitance at the CSA input, farads.
    pub detector_cap: f64,
    /// Detector leakage current, amperes.
    pub leakage: f64,
}

impl PulseDetectorModel {
    /// Model with the radiation-detector context of the paper's experiment
    /// (10 pF detector, 1 nA leakage).
    pub fn new(tech: Technology) -> Self {
        PulseDetectorModel {
            tech,
            detector_cap: 10e-12,
            leakage: 1e-9,
        }
    }

    /// The expert designer's reference solution ("manual" column of
    /// Table 1): a conservative design with generous bias currents.
    ///
    /// Returns the parameter vector in [`PerfModel::params`] order.
    pub fn manual_design(&self) -> Vec<f64> {
        vec![
            1.2e-3,   // id1: CSA input branch current
            0.15,     // vov1
            0.25e-12, // cf: 0.25 pF feedback
            0.275e-6, // tau: 0.275 µs → 1.1 µs peaking
            1.4e-3,   // i_shaper per stage
            25641.0,  // total shaper+post voltage gain
        ]
    }
}

impl PerfModel for PulseDetectorModel {
    fn name(&self) -> &str {
        "pulse_detector_frontend"
    }

    fn cache_identity(&self) -> String {
        format!(
            "{}|tech={:?}|cdet={}|ileak={}",
            self.name(),
            self.tech,
            self.detector_cap,
            self.leakage
        )
    }

    fn params(&self) -> Vec<ParamDef> {
        vec![
            ParamDef::log("id1", 20e-6, 5e-3),
            ParamDef::linear("vov1", 0.08, 0.5),
            ParamDef::log("cf", 0.2e-12, 5e-12),
            ParamDef::log("tau", 0.05e-6, 0.4e-6),
            ParamDef::log("i_shaper", 10e-6, 3e-3),
            ParamDef::log("post_gain", 1e2, 1e5),
        ]
    }

    fn metrics(&self) -> &'static [&'static str] {
        METRICS
    }

    fn evaluate_into(&self, x: &[f64], out: &mut [f64]) {
        let (id1, vov1, cf, tau, i_shaper, post_gain) = (x[0], x[1], x[2], x[3], x[4], x[5]);
        let n = &self.tech.nmos;
        let vdd = self.tech.vdd;
        let temp = self.tech.temp_k;

        // CSA input device.
        let gm1 = 2.0 * id1 / vov1;
        let l = 2.0 * self.tech.lmin;
        let w1 = n.width_for(id1, l, vov1);
        let cgs1 = 2.0 / 3.0 * n.cox * w1 * l;
        let c_tot = self.detector_cap + cf + cgs1;

        // Timing.
        let peaking_time = SHAPER_ORDER * tau;
        let counting_rate = 1.0 / (4.5 * peaking_time);

        // Charge gain in V/C at the shaper output.
        let gain_v_per_c = (1.0 / cf) * SHAPER_PEAK * post_gain;
        let gain_v_per_fc = gain_v_per_c * 1e-15;

        // ENC in rms electrons.
        let four_kt = 4.0 * units::BOLTZMANN * temp;
        let q = units::ELEMENTARY_CHARGE;
        let enc2_series = FORM_SERIES * c_tot * c_tot * four_kt * (2.0 / 3.0) / gm1 / tau / (q * q);
        let enc2_parallel = FORM_PARALLEL * 2.0 * q * self.leakage * tau / (q * q);
        let noise_rms_e = (enc2_series + enc2_parallel).sqrt();

        // Output range: post amp keeps headroom of one overdrive per rail.
        let output_range = (vdd / 2.0 - 0.7).max(0.0);

        // Power: CSA branch (2 devices deep) + 4 shaper stages + post amp.
        let power = (2.0 * id1 + SHAPER_ORDER * i_shaper + 0.3 * i_shaper + 20e-6) * vdd;

        // Area: devices + feedback/shaper capacitors + resistors. Shaper
        // caps scale with τ (τ = R·C with R capped at 200 kΩ).
        let r_shaper: f64 = 200e3;
        let c_shaper = tau / r_shaper;
        // Shaper: ~40 devices whose size tracks their bias current
        // (100 µm² per 100 µA of branch current).
        let gate_area = 6.0 * w1 * l + 40.0 * (i_shaper / 1e-4) * 1e-10;
        let cap_area = (cf + SHAPER_ORDER * c_shaper) / 1e-3;
        let area = 4.0 * gate_area + cap_area + 0.1e-6;

        // CSA closed-loop bandwidth: the charge pulse must be collected
        // much faster than the shaping time, so the loop GBW
        // gm1/(2π·C_tot) is a spec in its own right.
        let csa_bw = gm1 / (2.0 * std::f64::consts::PI * c_tot);

        out.copy_from_slice(&[
            csa_bw,
            peaking_time,
            counting_rate,
            noise_rms_e,
            gain_v_per_fc,
            output_range,
            power,
            area,
        ]);
    }
}

/// Simulation-backed variant of [`PulseDetectorModel`]: the CSA front end
/// is measured by device-level simulation instead of hand equations.
///
/// Each evaluation builds the CSA netlist (input transistor sized for the
/// requested bias, resistive/capacitive feedback, detector and load
/// capacitance), solves the DC operating point by Newton iteration,
/// linearizes, and reads the charge-collection bandwidth off the
/// closed-loop transimpedance: the highest point of a log frequency grid
/// where it is still within 3 dB of the ideal integrator. The reading
/// walks the grid from the top through [`SimSession::ac_scan`] and stops
/// at the first point at or above that line, so only the points above the
/// crossing are solved. The input device's `gm` and `Cgs` for the ENC
/// estimate come from the solved operating point. Shaper metrics stay
/// analytic (the shaper is the same CR–RC⁴ abstraction in both models).
///
/// Parameters, spec vocabulary, and units match [`PulseDetectorModel`],
/// so [`table1_spec`] applies unchanged. An evaluation whose bias solve
/// or one of its AC points fails scores as infeasible (zero bandwidth,
/// huge noise and power) rather than panicking. A point below the
/// crossing is never solved, so a singular one there does not fail the
/// candidate. The genuine per-candidate simulation cost is what makes
/// this model the workload of the `parallel_speedup` bench phase.
#[derive(Debug, Clone)]
pub struct SimulatedPulseDetectorModel {
    /// Process technology.
    pub tech: Technology,
    /// Detector capacitance at the CSA input, farads.
    pub detector_cap: f64,
    /// Detector leakage current, amperes.
    pub leakage: f64,
    /// Points in the log frequency grid (10 kHz to 10 GHz) the bandwidth
    /// reading walks down from the top. A finer grid reads the bandwidth
    /// more finely; only the points above the crossing are solved.
    pub sweep_points: usize,
    /// Symbolic analysis captured from the first simulated candidate:
    /// every CSA this model builds has the same MNA pattern (only the
    /// device values vary with the parameter point), so the structural
    /// pass runs once per model instead of once per evaluation.
    batch: OnceLock<BatchSession>,
}

impl SimulatedPulseDetectorModel {
    /// Simulation-backed model with the same detector context as
    /// [`PulseDetectorModel::new`].
    pub fn new(tech: Technology) -> Self {
        SimulatedPulseDetectorModel {
            tech,
            detector_cap: 10e-12,
            leakage: 1e-9,
            sweep_points: 241,
            batch: OnceLock::new(),
        }
    }

    /// The device-level CSA: cascoded common-source input stage with an
    /// ideal current-source load, self-biased through the feedback
    /// resistor, with feedback, detector, and next-stage load capacitors.
    /// The cascode keeps the input device's `Cgd` off the feedback path
    /// (without it, the Miller capacitance of the mm-wide input device
    /// swamps `Cf` and the charge gain collapses). The detector is the AC
    /// current source driving the `in` node.
    fn build_csa(&self, id1: f64, vov1: f64, cf: f64) -> Circuit {
        let l = 2.0 * self.tech.lmin;
        let w1 = self.tech.nmos.width_for(id1, l, vov1);
        // Cascode gate bias: one Vgs above the input device's saturation
        // edge, leaving ~Vov + 50 mV of drain headroom for M1.
        let vbias = self.tech.nmos.vt0 + 2.0 * vov1 + 0.05;
        let mut ckt = Circuit::new();
        let nvdd = ckt.node("vdd");
        let nin = ckt.node("in");
        let nmid = ckt.node("mid");
        let nout = ckt.node("out");
        let nb = ckt.node("bias");
        let gnd = Circuit::GROUND;
        ckt.add("Vdd", Device::vdc(nvdd, gnd, self.tech.vdd));
        ckt.add("Vb", Device::vdc(nb, gnd, vbias));
        ckt.add(
            "Idet",
            Device::Isource {
                plus: gnd,
                minus: nin,
                waveform: ams_netlist::SourceWaveform::Dc(self.leakage),
                ac_mag: 1.0,
            },
        );
        ckt.add("Rf", Device::resistor(nout, nin, CSA_FEEDBACK_OHMS));
        ckt.add("Cf", Device::capacitor(nout, nin, cf));
        ckt.add("Cdet", Device::capacitor(nin, gnd, self.detector_cap));
        ckt.add(
            "M1",
            Device::mos(nmid, nin, gnd, gnd, self.tech.nmos.clone(), w1, l),
        );
        ckt.add(
            "M2",
            Device::mos(nout, nb, nmid, gnd, self.tech.nmos.clone(), w1, l),
        );
        ckt.add("Iload", Device::idc(nvdd, nout, id1));
        ckt.add("Cl", Device::capacitor(nout, gnd, CSA_LOAD_FARADS));
        ckt
    }

    /// Simulates the CSA: DC bias, linearization, and a top-down AC scan
    /// of the transimpedance `V(out)/I(det)`. Returns the closed-loop
    /// charge-collection bandwidth together with the input device's
    /// operating point (`gm`, `Cgs`) and the supply current.
    fn simulate_csa(&self, ckt: &Circuit, cf: f64) -> Result<CsaOperating, SimError> {
        // Reuse the batch-captured structural analysis; a pattern mismatch
        // (impossible for circuits built by `build_csa`) degrades to the
        // unbatched path rather than failing the candidate.
        let batch = self.batch.get_or_init(|| BatchSession::capture(ckt));
        let ses = match batch.bind(ckt) {
            Ok(ses) => ses,
            Err(_) => SimSession::new(ckt),
        };
        let op = ses.op()?;
        let m1 = op
            .mos_ops
            .get("M1")
            .ok_or_else(|| SimError::UnknownNode("M1".into()))?;
        let (gm1, cgs1) = (m1.gm, m1.cgs);
        let idd = op.supply_current(ckt, "Vdd").unwrap_or(0.0).abs();
        let freqs = log_frequencies(1e4, 1e10, self.sweep_points.max(16));
        // The ideal CSA is the integrator `|Z| = 1/(ω·Cf)`. The charge
        // collection bandwidth is where the simulated transimpedance
        // drops 3 dB below that asymptote — scanned from the top of the
        // grid so the low-frequency `Rf·Cf` corner is ignored.
        let mut csa_bw = 0.0;
        for point in ses.ac_scan("out", freqs.iter().rev().copied())? {
            let (f, v) = point?;
            let w = 2.0 * std::f64::consts::PI * f;
            let ratio = v.abs() * w * cf;
            if ratio >= std::f64::consts::FRAC_1_SQRT_2 {
                csa_bw = f;
                break;
            }
        }
        Ok(CsaOperating {
            csa_bw,
            gm1,
            cgs1,
            idd,
        })
    }
}

/// CSA feedback (bias) resistor: large enough that its noise and the
/// `Rf·Cf` corner stay far below the shaping frequencies.
const CSA_FEEDBACK_OHMS: f64 = 20e6;
/// Next-stage input load on the CSA output.
const CSA_LOAD_FARADS: f64 = 0.3e-12;

/// Simulated CSA operating characteristics.
struct CsaOperating {
    csa_bw: f64,
    gm1: f64,
    cgs1: f64,
    idd: f64,
}

impl PerfModel for SimulatedPulseDetectorModel {
    fn name(&self) -> &str {
        "pulse_detector_frontend_sim"
    }

    fn cache_identity(&self) -> String {
        format!(
            "{}|tech={:?}|cdet={}|ileak={}|sweep={}",
            self.name(),
            self.tech,
            self.detector_cap,
            self.leakage,
            self.sweep_points
        )
    }

    fn params(&self) -> Vec<ParamDef> {
        PulseDetectorModel::new(self.tech.clone()).params()
    }

    fn metrics(&self) -> &'static [&'static str] {
        METRICS
    }

    fn evaluate_into(&self, x: &[f64], out: &mut [f64]) {
        let ckt = self.build_csa(x[0], x[1], x[2]);
        self.score(x, self.simulate_csa(&ckt, x[2]), out);
    }
}

impl SimulatedPulseDetectorModel {
    /// Writes the performance of parameter point `x` given its simulated
    /// CSA (`Err` scores as infeasible) into `out`, in [`METRICS`] order.
    fn score(&self, x: &[f64], sim: Result<CsaOperating, SimError>, out: &mut [f64]) {
        let (id1, vov1, cf, tau, i_shaper, post_gain) = (x[0], x[1], x[2], x[3], x[4], x[5]);
        let vdd = self.tech.vdd;
        let temp = self.tech.temp_k;

        // Shaper metrics: same CR–RC⁴ equations as the analytic model.
        let peaking_time = SHAPER_ORDER * tau;
        let counting_rate = 1.0 / (4.5 * peaking_time);
        let gain_v_per_fc = (1.0 / cf) * SHAPER_PEAK * post_gain * 1e-15;
        let output_range = (vdd / 2.0 - 0.7).max(0.0);

        let (csa_bw, noise_rms_e, power) = match sim {
            Ok(csa) => {
                let c_tot = self.detector_cap + cf + csa.cgs1;
                let four_kt = 4.0 * units::BOLTZMANN * temp;
                let q = units::ELEMENTARY_CHARGE;
                let enc2_series =
                    FORM_SERIES * c_tot * c_tot * four_kt * (2.0 / 3.0) / csa.gm1 / tau / (q * q);
                let enc2_parallel = FORM_PARALLEL * 2.0 * q * self.leakage * tau / (q * q);
                (
                    csa.csa_bw,
                    (enc2_series + enc2_parallel).sqrt(),
                    (2.0 * csa.idd + SHAPER_ORDER * i_shaper + 0.3 * i_shaper + 20e-6) * vdd,
                )
            }
            // Bias or AC failure: infeasible, not a panic.
            Err(_) => (0.0, 1e12, 1e3),
        };
        let l = 2.0 * self.tech.lmin;
        let w1 = self.tech.nmos.width_for(id1, l, vov1);
        let r_shaper: f64 = 200e3;
        let c_shaper = tau / r_shaper;
        let gate_area = 6.0 * w1 * l + 40.0 * (i_shaper / 1e-4) * 1e-10;
        let cap_area = (cf + SHAPER_ORDER * c_shaper) / 1e-3;
        out.copy_from_slice(&[
            csa_bw,
            peaking_time,
            counting_rate,
            noise_rms_e,
            gain_v_per_fc,
            output_range,
            power,
            4.0 * gate_area + cap_area + 0.1e-6,
        ]);
    }
}

/// The Table 1 specification.
pub fn table1_spec() -> ams_topology::Spec {
    use ams_topology::{Bound, Spec};
    Spec::new()
        .require("csa_bw_hz", Bound::AtLeast(30e6))
        .require("peaking_time_s", Bound::AtMost(1.5e-6))
        .require("counting_rate_hz", Bound::AtLeast(200e3))
        .require("noise_rms_e", Bound::AtMost(1000.0))
        .require("gain_v_per_fc", Bound::Range(19.0, 21.5))
        .require("output_range_v", Bound::AtLeast(1.0))
        .minimizing("power_w")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_sim::Backend;
    use ams_sizing::{optimize, AnnealConfig};

    fn model() -> PulseDetectorModel {
        PulseDetectorModel::new(Technology::generic_1p2um())
    }

    #[test]
    fn manual_design_meets_table1_specs() {
        let m = model();
        let perf = m.evaluate(&m.manual_design());
        let spec = table1_spec();
        assert!(
            spec.satisfied_by(&perf),
            "expert design must be feasible: {perf:?}"
        );
        // The expert design burns tens of milliwatts (Table 1: 40 mW).
        assert!(
            perf["power_w"] > 20e-3 && perf["power_w"] < 60e-3,
            "manual power {}",
            perf["power_w"]
        );
        // Peaking near 1.1 µs like the paper.
        assert!((perf["peaking_time_s"] - 1.1e-6).abs() < 0.1e-6);
    }

    #[test]
    fn noise_tradeoffs_follow_physics() {
        let m = model();
        let base = m.manual_design();
        let perf = m.evaluate(&base);
        // Starving the input device raises series noise (gm drops faster
        // than its own Cgs contribution).
        let mut cold = base.clone();
        cold[0] /= 4.0;
        let cold_perf = m.evaluate(&cold);
        assert!(cold_perf["noise_rms_e"] > perf["noise_rms_e"]);
        // Longer shaping lowers series noise contribution (series-dominated
        // regime).
        let mut slow = base.clone();
        slow[3] *= 1.3;
        let slow_perf = m.evaluate(&slow);
        assert!(slow_perf["noise_rms_e"] < perf["noise_rms_e"]);
        // But slows the counting rate.
        assert!(slow_perf["counting_rate_hz"] < perf["counting_rate_hz"]);
    }

    #[test]
    fn synthesis_cuts_power_by_large_factor() {
        // The headline Table 1 result: synthesis ≈ 6× lower power than the
        // expert design, both meeting spec. Accept anything ≥ 3×.
        let m = model();
        let spec = table1_spec();
        let manual_power = m.evaluate(&m.manual_design())["power_w"];
        let result = optimize(&m, &spec, &AnnealConfig::default());
        assert!(result.feasible, "synthesis infeasible: {:?}", result.perf);
        let ratio = manual_power / result.perf["power_w"];
        assert!(
            ratio >= 3.0,
            "power reduction only {ratio:.1}× (manual {manual_power}, synth {})",
            result.perf["power_w"]
        );
    }

    #[test]
    fn simulated_model_agrees_with_analytic_at_manual_design() {
        let analytic = model();
        let sim = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
        let x = analytic.manual_design();
        let pa = analytic.evaluate(&x);
        let ps = sim.evaluate(&x);
        // The simulated charge-collection bandwidth is in the MHz range
        // but sits well below the gm/(2πC) hand estimate: the drain
        // junction capacitance of the mm-wide input/cascode devices —
        // which the analytic model ignores — dominates the output node.
        // That gap is exactly what a simulation-backed model is for.
        assert!(ps["csa_bw_hz"] > 1e6, "simulated bw {}", ps["csa_bw_hz"]);
        let ratio = ps["csa_bw_hz"] / pa["csa_bw_hz"];
        assert!(ratio > 0.005 && ratio < 1.0, "bw ratio {ratio}");
        // Power tracks the analytic model: same formula, supply current
        // measured at the solved operating point instead of assumed.
        let perr = (ps["power_w"] / pa["power_w"] - 1.0).abs();
        assert!(perr < 0.2, "power mismatch {perr}");
        // Shaper-side metrics are shared equations — identical.
        assert_eq!(ps["peaking_time_s"], pa["peaking_time_s"]);
        assert_eq!(ps["gain_v_per_fc"], pa["gain_v_per_fc"]);
    }

    #[test]
    fn simulated_model_scores_extreme_points_without_panicking() {
        let sim = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
        // Every parameter at a bound (starved bias, minimum caps).
        for x in [
            vec![20e-6, 0.5, 0.2e-12, 0.05e-6, 10e-6, 1e2],
            vec![5e-3, 0.08, 5e-12, 0.4e-6, 3e-3, 1e5],
        ] {
            let p = sim.evaluate(&x);
            for (k, v) in &p {
                assert!(v.is_finite(), "{k} not finite at {x:?}");
            }
        }
    }

    /// Slot of the bandwidth reading in [`METRICS`].
    const BW: usize = 0;

    /// The slot vector of `x`.
    fn slots(m: &SimulatedPulseDetectorModel, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; METRICS.len()];
        m.evaluate_into(x, &mut out);
        out
    }

    /// The reference reading the top-down scan must reproduce: the full
    /// ascending sweep over the model's grid, scanned from the top.
    fn full_sweep_reading(m: &SimulatedPulseDetectorModel, x: &[f64]) -> Vec<f64> {
        let cf = x[2];
        let ckt = m.build_csa(x[0], x[1], cf);
        let ses = SimSession::new(&ckt);
        let sim = ses.op().and_then(|op| {
            let m1 = op.mos_ops["M1"];
            let idd = op.supply_current(&ckt, "Vdd").unwrap_or(0.0).abs();
            let freqs = log_frequencies(1e4, 1e10, m.sweep_points.max(16));
            let sweep = ses.ac("out", &freqs)?;
            let mut csa_bw = 0.0;
            for (i, v) in sweep.values.iter().enumerate().rev() {
                let w = 2.0 * std::f64::consts::PI * freqs[i];
                let ratio = v.abs() * w * cf;
                if ratio >= std::f64::consts::FRAC_1_SQRT_2 {
                    csa_bw = freqs[i];
                    break;
                }
            }
            Ok(CsaOperating {
                csa_bw,
                gm1: m1.gm,
                cgs1: m1.cgs,
                idd,
            })
        });
        let mut out = vec![0.0; METRICS.len()];
        m.score(x, sim, &mut out);
        out
    }

    /// On 64 seeded candidates across the parameter bounds and the manual
    /// design, the top-down scan reads what the full sweep read. Under
    /// `AMS_SIM_BACKEND=sparse` the scan's first factor is at the top of
    /// the grid instead of the bottom, so AC values agree only to
    /// roundoff; the reading is a grid frequency and must still be equal.
    #[test]
    fn lazy_bandwidth_reading_matches_the_full_sweep() {
        use ams_prng::{Rng, SeedableRng, SmallRng};
        let sim = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
        let params = sim.params();
        let mut rng = SmallRng::seed_from_u64(0x7ab1e1);
        let mut candidates = vec![model().manual_design()];
        for _ in 0..64 {
            let x = params
                .iter()
                .map(|p| {
                    let u = rng.next_f64();
                    if p.log {
                        p.lo * (p.hi / p.lo).powf(u)
                    } else {
                        p.lo + (p.hi - p.lo) * u
                    }
                })
                .collect();
            candidates.push(x);
        }
        let x0 = &candidates[0];
        let dense =
            SimSession::new(&sim.build_csa(x0[0], x0[1], x0[2])).backend() == Backend::Dense;
        let mut no_crossing = 0;
        assert_eq!(METRICS[BW], "csa_bw_hz");
        for x in &candidates {
            let lazy = slots(&sim, x);
            let full = full_sweep_reading(&sim, x);
            assert_eq!(
                lazy[BW].to_bits(),
                full[BW].to_bits(),
                "bandwidth reading at {x:?}"
            );
            if dense {
                for (k, name) in METRICS.iter().enumerate() {
                    assert_eq!(lazy[k].to_bits(), full[k].to_bits(), "{name} at {x:?}");
                }
            }
            no_crossing += usize::from(full[BW] == 0.0);
        }
        println!(
            "{no_crossing} of {} candidates read no crossing (0.0)",
            candidates.len()
        );
    }

    #[test]
    fn gain_is_set_by_feedback_cap_and_post_gain() {
        let m = model();
        let mut x = m.manual_design();
        let g0 = m.evaluate(&x)["gain_v_per_fc"];
        x[2] *= 2.0; // double Cf → half gain
        let g1 = m.evaluate(&x)["gain_v_per_fc"];
        assert!((g1 - g0 / 2.0).abs() / g0 < 1e-9);
    }
}
