//! High-level RF receiver front-end optimization (experiment E10).
//!
//! "A dedicated RF front-end simulator was developed and used to calculate
//! the ratio of the wanted signal to all kinds of unwanted signals (noise,
//! distortion, aliasing…) in the frequency band of interest. An
//! optimization loop then determines the optimal specifications for the
//! receiver subblocks such that the desired signal quality for the given
//! application is obtained at the lowest possible power consumption"
//! (§2.2, citing Crols et al. \[29\]).
//!
//! The behavioral chain is LNA → mixer → baseband filter → ADC. Signal
//! quality is computed with the standard cascade formulas (Friis noise
//! figure, IIP3 cascade, quantization noise) and the optimizer distributes
//! gain/noise/linearity across the blocks for minimum power.

use ams_sizing::{ParamDef, PerfModel};

/// Behavioral receiver chain model.
///
/// Parameters: `lna_gain_db`, `lna_nf_db`, `mixer_gain_db`, `mixer_nf_db`,
/// `filter_noise_uv` (integrated filter noise), `adc_bits`.
///
/// Metrics: `sndr_db` (signal to noise-and-distortion at the detector),
/// `power_w`, plus per-source budget entries.
#[derive(Debug, Clone)]
pub struct RfFrontEndModel {
    /// Antenna-referred input signal, dBm.
    pub signal_dbm: f64,
    /// In-band interferer level driving IM3, dBm.
    pub interferer_dbm: f64,
    /// Channel bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// ADC sample rate, Hz.
    pub sample_rate_hz: f64,
}

impl RfFrontEndModel {
    /// A GSM-era receive scenario: −85 dBm wanted signal, −40 dBm
    /// interferers, 200 kHz channel.
    pub fn gsm_scenario() -> Self {
        RfFrontEndModel {
            signal_dbm: -85.0,
            interferer_dbm: -40.0,
            bandwidth_hz: 200e3,
            sample_rate_hz: 13e6 / 24.0,
        }
    }
}

const KT_DBM_HZ: f64 = -174.0; // thermal noise floor, dBm/Hz

impl PerfModel for RfFrontEndModel {
    fn name(&self) -> &str {
        "rf_receiver_front_end"
    }

    fn params(&self) -> Vec<ParamDef> {
        vec![
            ParamDef::linear("lna_gain_db", 8.0, 25.0),
            ParamDef::linear("lna_nf_db", 1.2, 8.0),
            ParamDef::linear("mixer_gain_db", 0.0, 15.0),
            ParamDef::linear("mixer_nf_db", 6.0, 20.0),
            ParamDef::linear("lna_iip3_dbm", -15.0, 10.0),
            ParamDef::linear("adc_bits", 6.0, 14.0),
        ]
    }

    fn metrics(&self) -> &'static [&'static str] {
        &[
            "sndr_db",
            "nf_db",
            "iip3_dbm",
            "noise_dbm",
            "im3_dbm",
            "quant_dbm",
            "power_w",
        ]
    }

    fn evaluate_into(&self, x: &[f64], out: &mut [f64]) {
        let (lna_g, lna_nf, mix_g, mix_nf, lna_iip3, adc_bits) =
            (x[0], x[1], x[2], x[3], x[4], x[5]);

        let db = |v: f64| 10f64.powf(v / 10.0);
        // Friis cascade NF (linear) with the filter+ADC as a fixed 25 dB
        // third stage noise figure.
        let back_nf = 25.0;
        let f_total = db(lna_nf)
            + (db(mix_nf) - 1.0) / db(lna_g)
            + (db(back_nf) - 1.0) / (db(lna_g) * db(mix_g));
        let nf_db = 10.0 * f_total.log10();

        // Noise power in-channel at the antenna reference.
        let noise_dbm = KT_DBM_HZ + 10.0 * self.bandwidth_hz.log10() + nf_db;

        // IM3 from the interferers, referred to the antenna: cascade IIP3
        // of LNA and mixer (mixer IIP3 tied to its NF: low-noise mixers are
        // less linear here: iip3_mix = 20 − nf_mix).
        let mix_iip3 = 20.0 - mix_nf;
        let inv_iip3 = db(-lna_iip3) + db(lna_g) * db(-(mix_iip3 - 0.0));
        let iip3_dbm = -10.0 * inv_iip3.log10();
        let im3_dbm = 3.0 * self.interferer_dbm - 2.0 * iip3_dbm;

        // ADC quantization noise referred to the antenna: full scale maps
        // to the interferer level plus margin; SQNR = 6.02·bits + 1.76.
        let total_gain = lna_g + mix_g;
        let adc_fullscale_dbm = self.interferer_dbm + 6.0;
        let sqnr = 6.02 * adc_bits + 1.76;
        let quant_dbm = adc_fullscale_dbm - sqnr - total_gain;

        // Total SNDR.
        let total_unwanted_dbm = 10.0 * (db(noise_dbm) + db(im3_dbm) + db(quant_dbm)).log10();
        let sndr_db = self.signal_dbm - total_unwanted_dbm;

        // Power models: the standard analog scaling laws — LNA power rises
        // with gain and drops with NF headroom and linearity demands; ADC
        // power doubles per bit.
        let lna_power = 2e-3 * db(lna_g) / 10.0
            * (4.0 / (db(lna_nf) - 1.0).max(0.1))
            * db(lna_iip3).max(0.05).powf(0.5);
        let mixer_power = 1.5e-3 * db(mix_g).max(1.0) / (db(mix_nf) - 1.0).max(0.3);
        let adc_power = 0.3e-12 * 2f64.powf(adc_bits) * self.sample_rate_hz.max(1.0);
        let filter_power = 0.8e-3;
        let power = lna_power + mixer_power + adc_power + filter_power;

        out.copy_from_slice(&[
            sndr_db, nf_db, iip3_dbm, noise_dbm, im3_dbm, quant_dbm, power,
        ]);
    }
}

/// Specification for the GSM-like scenario: ≥ 9 dB SNDR at minimum power.
pub fn rf_spec(min_sndr_db: f64) -> ams_topology::Spec {
    use ams_topology::{Bound, Spec};
    Spec::new()
        .require("sndr_db", Bound::AtLeast(min_sndr_db))
        .minimizing("power_w")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_sizing::{optimize, AnnealConfig};

    fn model() -> RfFrontEndModel {
        RfFrontEndModel::gsm_scenario()
    }

    fn nominal() -> Vec<f64> {
        vec![18.0, 2.5, 8.0, 10.0, -5.0, 10.0]
    }

    #[test]
    fn friis_behaviour_lna_gain_suppresses_mixer_noise() {
        let m = model();
        let mut low_gain = nominal();
        low_gain[0] = 8.0;
        let mut high_gain = nominal();
        high_gain[0] = 25.0;
        let nf_low = m.evaluate(&low_gain)["nf_db"];
        let nf_high = m.evaluate(&high_gain)["nf_db"];
        assert!(nf_high < nf_low, "more LNA gain must improve cascade NF");
    }

    #[test]
    fn linearity_fights_gain() {
        // More front-end gain worsens IM3 (interferers grow before the
        // mixer), so SNDR is not monotonic in gain — the crux of the [29]
        // optimization.
        let m = model();
        let mut x = nominal();
        let mut last_sndr = f64::NEG_INFINITY;
        let mut peaked = false;
        for g in [8.0, 14.0, 20.0, 25.0] {
            x[0] = g;
            let sndr = m.evaluate(&x)["sndr_db"];
            if sndr < last_sndr {
                peaked = true;
            }
            last_sndr = sndr;
        }
        assert!(peaked, "SNDR should peak at moderate gain");
    }

    #[test]
    fn more_bits_cost_power_but_help_quantization() {
        let m = model();
        let mut few = nominal();
        few[5] = 7.0;
        let mut many = nominal();
        many[5] = 13.0;
        let pf = m.evaluate(&few);
        let pm = m.evaluate(&many);
        assert!(pm["power_w"] > pf["power_w"]);
        assert!(pm["quant_dbm"] < pf["quant_dbm"]);
    }

    #[test]
    fn optimization_meets_sndr_at_minimum_power() {
        let m = model();
        let spec = rf_spec(9.0);
        let r = optimize(&m, &spec, &AnnealConfig::default());
        assert!(r.feasible, "perf {:?}", r.perf);
        // Tighter quality costs more power.
        let tight = optimize(&m, &rf_spec(20.0), &AnnealConfig::default());
        assert!(tight.feasible, "perf {:?}", tight.perf);
        assert!(
            tight.perf["power_w"] > r.perf["power_w"],
            "20 dB {} vs 9 dB {}",
            tight.perf["power_w"],
            r.perf["power_w"]
        );
    }
}
