//! The four workloads: how each op's input follows from the seed, what
//! the op runs, how its output is checked, and what the traced run
//! attributes to each layer.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ams_ckpt::CkptStore;
use ams_core::{
    synthesize_opamp, table1_spec, FlowConfig, FlowOutcome, FlowReport, SimulatedPulseDetectorModel,
};
use ams_exec::EvalCachePolicy;
use ams_netlist::Technology;
use ams_prng::{splitmix64, Rng, SeedableRng, SmallRng};
use ams_rail::{
    supply_impedance, GridEval, GridSpec, PowerGrid, RailConstraints, Tap, TapKind, TapReport,
};
use ams_sim::{SimError, SimSession};
use ams_sizing::{
    evolve, evolve_ckpt, AnnealConfig, CkptRun, GaConfig, GaResult, ParamDef, Perf, PerfModel,
    SizingCkptError, TwoStageModel,
};
use ams_topology::{Bound, Spec};

use crate::calib::{Calibration, Kernel};
use crate::layers::Layers;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Everything one op needs, built outside the timed region.
    type Input;
    /// What one op returns.
    type Output;
    /// Where the traced op time that the layers do not account for goes.
    const REMAINDER: &'static str;
    /// How this workload's op time follows the host's speed.
    const CALIBRATION: Calibration;

    /// Builds the workload's shared state for `seed`.
    fn new(seed: u64) -> Result<Self, String>;
    /// A fixed input, the same for every seed, for the warm-up op.
    fn nominal(&self) -> Self::Input;
    /// The input of op `index`: a function of the seed and the index alone.
    fn input(&self, index: usize) -> Self::Input;
    /// One op.
    fn run(&self, input: &Self::Input) -> Result<Self::Output, String>;
    /// One op that also adds its per-layer figures to `op`; returns what
    /// [`Workload::run`] returns.
    fn run_traced(&self, input: &Self::Input, op: &mut Layers) -> Result<Self::Output, String>;
    /// Checks one op's output, outside the timed region.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Result<(), String>;
    /// Digest over every bit of an output that its check rests on.
    fn digest(out: &Self::Output) -> u64;
    /// Seconds of one traced op that its layer figures account for.
    fn attributed(op: &Layers) -> f64;
}

/// Length of the cycle of inputs every op sequence walks through.
pub const CYCLE: usize = 32;

/// Seeded input draws. Op `index` takes entry `(index + offset) mod
/// CYCLE` of a fixed cycle of inputs, where the seed picks the offset.
/// Within the cycle, continuous parameters follow a Kronecker sequence,
/// so any run of consecutive entries covers each range evenly, and
/// discrete choices (optimizer seeds, tap placement) come from a
/// generator seeded per entry. Every seed thus runs the same mix of
/// inputs from a different starting point: op costs are heavy-tailed,
/// and a mix that moved with the seed would move the quantiles with it.
struct Draw {
    offset: usize,
}

impl Draw {
    fn new(seed: u64) -> Self {
        let mut state = seed;
        Draw {
            offset: (splitmix64(&mut state) % CYCLE as u64) as usize,
        }
    }

    fn entry(&self, index: usize) -> usize {
        (index + self.offset) % CYCLE
    }

    /// Coordinate `dim` (below 4) of op `index`, in `[0, 1)`.
    fn unit(&self, index: usize, dim: usize) -> f64 {
        // Fractional parts of √2, √3, √5 and √7: independent over the
        // rationals, so the coordinates do not move in lockstep.
        const STEP: [f64; 4] = [
            0.414_213_562_373_095_1,
            0.732_050_807_568_877_2,
            0.236_067_977_499_789_7,
            0.645_751_311_064_590_6,
        ];
        (0.5 + self.entry(index) as f64 * STEP[dim]).fract()
    }

    fn within(&self, index: usize, dim: usize, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit(index, dim)
    }

    /// An integer in `lo..=hi` from coordinate `dim` of op `index`.
    fn pick(&self, index: usize, dim: usize, (lo, hi): (usize, usize)) -> usize {
        (lo + (self.unit(index, dim) * (hi - lo + 1) as f64) as usize).min(hi)
    }

    fn rng(&self, index: usize) -> SmallRng {
        SmallRng::seed_from_u64(0xD1B5_4A32_D192_ED03 ^ self.entry(index) as u64)
    }
}

/// FNV-1a over the bits of op outputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A name → value map, in name order.
    fn map(&mut self, map: &HashMap<String, f64>) {
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (name, &value) in entries {
            self.str(name);
            self.f64(value);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Whether two maps hold the same names with bit-identical values.
fn same_bits(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, v)| b.get(k).is_some_and(|w| w.to_bits() == v.to_bits()))
}

/// Forwards to a `PerfModel` and adds up the time and calls spent in
/// `evaluate`. Name, parameters and cache identity are the wrapped
/// model's, so cache keys and results are those of the bare model.
struct Timed<'m> {
    inner: &'m dyn PerfModel,
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl<'m> Timed<'m> {
    fn new(inner: &'m dyn PerfModel) -> Self {
        Timed {
            inner,
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn record(&self, op: &mut Layers) {
        op.add(
            "sizing.model_eval_s",
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        op.add(
            "sizing.model_evals",
            self.calls.load(Ordering::Relaxed) as f64,
        );
    }
}

impl PerfModel for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn params(&self) -> Vec<ParamDef> {
        self.inner.params()
    }

    fn evaluate(&self, x: &[f64]) -> Perf {
        let t0 = Instant::now();
        let perf = self.inner.evaluate(x);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        perf
    }

    fn cache_identity(&self) -> String {
        self.inner.cache_identity()
    }
}

/// A GA champion is sound when its cost is finite, every parameter lies
/// within its bounds, its performance reproduces bit for bit at those
/// parameters, and its feasibility flag agrees with the spec.
fn check_champion(model: &dyn PerfModel, spec: &Spec, out: &GaResult) -> Result<(), String> {
    if !out.sizing.cost.is_finite() {
        return Err(format!("champion cost {} is not finite", out.sizing.cost));
    }
    let mut x = Vec::new();
    for def in model.params() {
        let v = *out
            .sizing
            .params
            .get(&def.name)
            .ok_or_else(|| format!("champion lacks parameter {}", def.name))?;
        if !(def.lo..=def.hi).contains(&v) {
            return Err(format!(
                "parameter {} = {v} outside [{}, {}]",
                def.name, def.lo, def.hi
            ));
        }
        x.push(v);
    }
    if !same_bits(&model.evaluate(&x), &out.sizing.perf) {
        return Err("champion performance does not reproduce".to_string());
    }
    if out.sizing.feasible != spec.satisfied_by(&out.sizing.perf) {
        return Err("champion feasibility flag disagrees with the spec".to_string());
    }
    Ok(())
}

fn champion_digest(out: &GaResult) -> u64 {
    let mut d = Digest::default();
    d.str(&out.topology);
    d.f64(out.sizing.cost);
    d.map(&out.sizing.params);
    d.map(&out.sizing.perf);
    d.f64(out.consensus);
    d.finish()
}

fn same_champion(a: &GaResult, b: &GaResult) -> bool {
    a.topology == b.topology
        && a.sizing.cost.to_bits() == b.sizing.cost.to_bits()
        && same_bits(&a.sizing.params, &b.sizing.params)
}

// ---------------------------------------------------------------------------
// opamp_flow
// ---------------------------------------------------------------------------

/// The §2.1 flow, one `synthesize_opamp` per op.
pub struct OpampFlow {
    draw: Draw,
    tech: Technology,
}

pub struct OpampInput {
    spec: Spec,
    load_f: f64,
    anneal_seed: u64,
}

fn opamp_spec(gain_db: f64, ugf_hz: f64, phase_margin_deg: f64) -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(gain_db))
        .require("ugf_hz", Bound::AtLeast(ugf_hz))
        .require("phase_margin_deg", Bound::AtLeast(phase_margin_deg))
        .minimizing("power_w")
}

impl Workload for OpampFlow {
    type Input = OpampInput;
    type Output = FlowReport;
    const REMAINDER: &'static str =
        "flow glue outside the stage spans: device-list build, event log, redesign bookkeeping";
    const CALIBRATION: Calibration = Calibration {
        kernel: Kernel::Mixed,
        cpu_share: 1.0,
    };

    fn new(seed: u64) -> Result<Self, String> {
        Ok(OpampFlow {
            draw: Draw::new(seed),
            tech: Technology::generic_1p2um(),
        })
    }

    fn nominal(&self) -> OpampInput {
        OpampInput {
            spec: opamp_spec(60.0, 5e6, 55.0),
            load_f: 5e-12,
            anneal_seed: 1,
        }
    }

    fn input(&self, index: usize) -> OpampInput {
        let d = &self.draw;
        OpampInput {
            spec: opamp_spec(
                d.within(index, 0, 55.0, 68.0),
                d.within(index, 1, 3e6, 7e6),
                d.within(index, 2, 50.0, 60.0),
            ),
            load_f: d.within(index, 3, 2e-12, 8e-12),
            anneal_seed: d.rng(index).next_u64(),
        }
    }

    fn run(&self, input: &OpampInput) -> Result<FlowReport, String> {
        let config = FlowConfig {
            sizing: AnnealConfig {
                seed: input.anneal_seed,
                ..AnnealConfig::default()
            },
            ..FlowConfig::default()
        };
        synthesize_opamp(&input.spec, &self.tech, input.load_f, &config).map_err(|e| e.to_string())
    }

    fn run_traced(&self, input: &OpampInput, op: &mut Layers) -> Result<FlowReport, String> {
        let out = self.run(input)?;
        if out.outcome.is_degraded() {
            op.add("core.degraded_ratio", 1.0);
        }
        Ok(out)
    }

    fn check(&self, input: &OpampInput, out: &FlowReport) -> Result<(), String> {
        match &out.outcome {
            FlowOutcome::Nominal if !out.meets(&input.spec) => {
                Err("nominal outcome misses its spec post-layout".to_string())
            }
            FlowOutcome::Nominal if !out.layout.is_complete() => {
                Err("nominal outcome has unrouted nets".to_string())
            }
            FlowOutcome::Degraded { reasons } if reasons.is_empty() => {
                Err("degraded outcome names no reason".to_string())
            }
            _ => Ok(()),
        }
    }

    fn digest(out: &FlowReport) -> u64 {
        let mut d = Digest::default();
        d.str(&out.topology);
        d.u64(out.iterations as u64);
        d.map(&out.params);
        d.map(&out.post_layout_perf);
        d.f64(out.layout.area_um2);
        d.u64(u64::from(out.outcome.is_degraded()));
        d.finish()
    }

    fn attributed(op: &Layers) -> f64 {
        [
            "topology.select_s",
            "sizing.anneal_s",
            "lint.erc_s",
            "_flow.layout_s",
            "_flow.layout_relaxed_s",
            "core.verify_s",
        ]
        .iter()
        .map(|k| op.get(k))
        .sum()
    }
}

// ---------------------------------------------------------------------------
// table1_sim
// ---------------------------------------------------------------------------

/// GA budget of one `table1_sim` op.
const TABLE1_POPULATION: usize = 16;
const TABLE1_GENERATIONS: usize = 6;

/// The Table 1 experiment, one GA on the simulated pulse detector per op.
pub struct Table1Sim {
    draw: Draw,
    tech: Technology,
}

pub struct Table1Input {
    detector_cap: f64,
    ga_seed: u64,
}

impl Table1Sim {
    fn model(&self, input: &Table1Input) -> SimulatedPulseDetectorModel {
        let mut model = SimulatedPulseDetectorModel::new(self.tech.clone());
        model.detector_cap = input.detector_cap;
        model
    }

    fn evolve(&self, input: &Table1Input, op: Option<&mut Layers>) -> GaResult {
        let model = self.model(input);
        let timed = Timed::new(&model);
        let chosen: &dyn PerfModel = if op.is_some() { &timed } else { &model };
        let config = GaConfig {
            population: TABLE1_POPULATION,
            generations: TABLE1_GENERATIONS,
            seed: input.ga_seed,
            eval_cache: EvalCachePolicy::Memory,
            ..GaConfig::default()
        };
        let out = evolve(&[chosen], &table1_spec(), &config);
        if let Some(op) = op {
            timed.record(op);
        }
        out
    }
}

impl Workload for Table1Sim {
    type Input = Table1Input;
    type Output = GaResult;
    const REMAINDER: &'static str = "model construction and result assembly around evolve";
    const CALIBRATION: Calibration = Calibration {
        kernel: Kernel::Dense,
        cpu_share: 1.0,
    };

    fn new(seed: u64) -> Result<Self, String> {
        Ok(Table1Sim {
            draw: Draw::new(seed),
            tech: Technology::generic_1p2um(),
        })
    }

    fn nominal(&self) -> Table1Input {
        Table1Input {
            detector_cap: 10e-12,
            ga_seed: 11,
        }
    }

    fn input(&self, index: usize) -> Table1Input {
        Table1Input {
            detector_cap: self.draw.within(index, 0, 6e-12, 14e-12),
            ga_seed: self.draw.rng(index).next_u64(),
        }
    }

    fn run(&self, input: &Table1Input) -> Result<GaResult, String> {
        Ok(self.evolve(input, None))
    }

    fn run_traced(&self, input: &Table1Input, op: &mut Layers) -> Result<GaResult, String> {
        Ok(self.evolve(input, Some(op)))
    }

    fn check(&self, input: &Table1Input, out: &GaResult) -> Result<(), String> {
        check_champion(&self.model(input), &table1_spec(), out)
    }

    fn digest(out: &GaResult) -> u64 {
        champion_digest(out)
    }

    fn attributed(op: &Layers) -> f64 {
        op.get("sizing.ga_s")
    }
}

// ---------------------------------------------------------------------------
// grid_eval
// ---------------------------------------------------------------------------

/// Side of a `grid_eval` grid, drawn from this inclusive range. An
/// `n × n` grid has `n² + 10` MNA unknowns, so sides 22 and 23 straddle
/// [`KERNEL_SWITCH_DIM`]. Grids are square: on non-square grids below the
/// switch the Markowitz kernel re-runs its symbolic analysis at most
/// transient steps, about five times slower, which made op cost
/// heavy-tailed.
const GRID_SIDES: (usize, usize) = (16, 26);

/// Unknown count at which `ams-sim` moves from the Markowitz kernel to
/// CSC; the replay's timings are split into `.small` and `.large` here.
const KERNEL_SWITCH_DIM: usize = 512;

/// `(small, large)` keys of each stage the replay times, in call order.
const GRID_STAGES: [(&str, &str); 5] = [
    ("rail.build_s.small", "rail.build_s.large"),
    ("lint.structural_s.small", "lint.structural_s.large"),
    ("sim.dc_s.small", "sim.dc_s.large"),
    ("sim.tran_s.small", "sim.tran_s.large"),
    ("awe.impedance_s.small", "awe.impedance_s.large"),
];

/// RAIL grid evaluation, one `ams_rail::evaluate` per op.
pub struct GridEvalWorkload {
    draw: Draw,
    constraints: RailConstraints,
}

/// An `nx × ny` grid with corner pads, two spiking digital taps, one
/// quiet analog tap, and seeded tap loads, spikes and segment widths.
fn seeded_grid(nx: usize, ny: usize, rng: &mut SmallRng) -> PowerGrid {
    let spot = |rng: &mut SmallRng| (rng.gen_range(1..nx - 1), rng.gen_range(1..ny - 1));
    let mut taps = Vec::new();
    for name in ["dsp", "clkgen"] {
        let (x, y) = spot(rng);
        let dc_amps = rng.gen_range(0.02..0.08);
        let spike = (
            rng.gen_range(0.1..0.3),
            rng.gen_range(0.3e-9..0.5e-9),
            rng.gen_range(1.0e-9..2.0e-9),
            rng.gen_range(5e-9..10e-9),
        );
        taps.push(Tap {
            name: name.to_string(),
            x,
            y,
            dc_amps,
            spike: Some(spike),
            kind: TapKind::Digital,
        });
    }
    let (x, y) = spot(rng);
    taps.push(Tap {
        name: "adc_frontend".to_string(),
        x,
        y,
        dc_amps: rng.gen_range(0.02..0.05),
        spike: None,
        kind: TapKind::Analog,
    });
    let (mx, my) = (nx - 1, ny - 1);
    let spec = GridSpec {
        nx,
        ny,
        pitch_m: 200e-6,
        vdd: 5.0,
        pads: vec![(0, 0), (mx, 0), (0, my), (mx, my)],
        pad_l: 2e-9,
        pad_r: 0.05,
        sheet_ohms: 0.04,
        cap_per_m2: 1e-4,
        node_decap: 2e-12,
        taps,
    };
    let mut grid = PowerGrid::uniform(spec, 10e-6);
    for w in &mut grid.widths {
        *w = rng.gen_range(5e-6..20e-6);
    }
    grid
}

fn class_key((small, large): (&'static str, &'static str), is_large: bool) -> &'static str {
    if is_large {
        large
    } else {
        small
    }
}

/// `ams_rail::evaluate`, call by call through the same public APIs, with
/// each call timed into its layer. It must stay in step with `evaluate`:
/// the traced run checks that both return the same `GridEval` bit for bit.
fn replay_evaluate(
    grid: &PowerGrid,
    c: &RailConstraints,
    op: &mut Layers,
) -> Result<GridEval, SimError> {
    let t = Instant::now();
    let ckt = grid.to_circuit();
    let ses = SimSession::new(&ckt);
    let build_s = t.elapsed().as_secs_f64();
    let large = ses.layout().dim() >= KERNEL_SWITCH_DIM;
    op.add(class_key(GRID_STAGES[0], large), build_s);
    op.add(
        class_key(("_grid.ops.small", "_grid.ops.large"), large),
        1.0,
    );

    // The structural verdict `op()` computes first, computed on its own;
    // the session caches it, so `op()` below reuses it unchanged.
    let t = Instant::now();
    let _ = ses.structural();
    op.add(class_key(GRID_STAGES[1], large), t.elapsed().as_secs_f64());

    let t = Instant::now();
    let op_point = ses.op()?;
    op.add(class_key(GRID_STAGES[2], large), t.elapsed().as_secs_f64());

    let vdd = grid.spec.vdd;
    let max_period = grid
        .spec
        .taps
        .iter()
        .filter_map(|t| t.spike.map(|s| s.3))
        .fold(0.0f64, f64::max);
    let t = Instant::now();
    let tran = if max_period > 0.0 {
        Some(ses.tran(2.0 * max_period + 2e-9, max_period / 150.0)?)
    } else {
        None
    };
    op.add(class_key(GRID_STAGES[3], large), t.elapsed().as_secs_f64());

    let mut awe_s = 0.0;
    let mut taps = Vec::new();
    for tap in &grid.spec.taps {
        let node = PowerGrid::node_name(tap.x, tap.y);
        let v_dc = op_point.voltage(&ckt, &node)?;
        let dc_drop = vdd - v_dc;
        let ac_impedance = if tap.kind == TapKind::Analog {
            let t = Instant::now();
            let z = supply_impedance(grid, tap.x, tap.y, c.ac_freq_hz)?;
            awe_s += t.elapsed().as_secs_f64();
            Some(z)
        } else {
            None
        };
        let droop = match &tran {
            Some(result) => {
                let wave = result.voltage(&ckt, &node)?;
                let min = wave.iter().cloned().fold(f64::INFINITY, f64::min);
                (v_dc - min).max(0.0)
            }
            None => 0.0,
        };
        taps.push(TapReport {
            name: tap.name.clone(),
            dc_drop,
            ac_impedance,
            droop,
        });
    }
    op.add(class_key(GRID_STAGES[4], large), awe_s);

    let worst_dc_drop = taps.iter().map(|t| t.dc_drop).fold(0.0, f64::max);
    let worst_ac_impedance = taps
        .iter()
        .filter_map(|t| t.ac_impedance)
        .fold(0.0, f64::max);
    let worst_droop = taps.iter().map(|t| t.droop).fold(0.0, f64::max);
    Ok(GridEval {
        taps,
        worst_dc_drop,
        worst_ac_impedance,
        worst_droop,
        metal_area: grid.metal_area(),
    })
}

impl Workload for GridEvalWorkload {
    type Input = PowerGrid;
    type Output = GridEval;
    const REMAINDER: &'static str =
        "per-tap voltage lookups and droop scans between the replayed calls";
    const CALIBRATION: Calibration = Calibration {
        kernel: Kernel::Mixed,
        cpu_share: 1.0,
    };

    fn new(seed: u64) -> Result<Self, String> {
        Ok(GridEvalWorkload {
            draw: Draw::new(seed),
            constraints: RailConstraints::default(),
        })
    }

    fn nominal(&self) -> PowerGrid {
        seeded_grid(22, 22, &mut SmallRng::seed_from_u64(0))
    }

    fn input(&self, index: usize) -> PowerGrid {
        let side = self.draw.pick(index, 0, GRID_SIDES);
        seeded_grid(side, side, &mut self.draw.rng(index))
    }

    fn run(&self, grid: &PowerGrid) -> Result<GridEval, String> {
        ams_rail::evaluate(grid, &self.constraints).map_err(|e| e.to_string())
    }

    fn run_traced(&self, grid: &PowerGrid, op: &mut Layers) -> Result<GridEval, String> {
        replay_evaluate(grid, &self.constraints, op).map_err(|e| e.to_string())
    }

    fn check(&self, grid: &PowerGrid, out: &GridEval) -> Result<(), String> {
        let vdd = grid.spec.vdd;
        if out.taps.len() != grid.spec.taps.len() {
            return Err(format!(
                "{} tap reports for {} taps",
                out.taps.len(),
                grid.spec.taps.len()
            ));
        }
        for (tap, r) in grid.spec.taps.iter().zip(&out.taps) {
            if r.name != tap.name {
                return Err(format!("tap report {} out of order", r.name));
            }
            let drop_ok = r.dc_drop > 0.0 && r.dc_drop < vdd;
            if !drop_ok {
                return Err(format!(
                    "tap {}: IR drop {} V outside (0, {vdd})",
                    r.name, r.dc_drop
                ));
            }
            if !(r.droop.is_finite() && r.droop >= 0.0) {
                return Err(format!("tap {}: droop {} V", r.name, r.droop));
            }
            let ac_ok = match (tap.kind, r.ac_impedance) {
                (TapKind::Analog, Some(z)) => z.is_finite() && z > 0.0,
                (TapKind::Digital, None) => true,
                _ => false,
            };
            if !ac_ok {
                return Err(format!("tap {}: impedance {:?}", r.name, r.ac_impedance));
            }
        }
        let worst = out.taps.iter().map(|t| t.dc_drop).fold(0.0, f64::max);
        if worst.to_bits() != out.worst_dc_drop.to_bits()
            || out.metal_area.to_bits() != grid.metal_area().to_bits()
        {
            return Err("summary fields disagree with the tap reports".to_string());
        }
        Ok(())
    }

    fn digest(out: &GridEval) -> u64 {
        let mut d = Digest::default();
        for t in &out.taps {
            d.str(&t.name);
            d.f64(t.dc_drop);
            d.u64(u64::from(t.ac_impedance.is_some()));
            d.f64(t.ac_impedance.unwrap_or(0.0));
            d.f64(t.droop);
        }
        d.f64(out.worst_dc_drop);
        d.f64(out.worst_ac_impedance);
        d.f64(out.worst_droop);
        d.f64(out.metal_area);
        d.finish()
    }

    fn attributed(op: &Layers) -> f64 {
        GRID_STAGES
            .iter()
            .map(|&(small, large)| op.get(small) + op.get(large))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// ga_ckpt
// ---------------------------------------------------------------------------

/// GA budget of one `ga_ckpt` op, and the generation it halts after.
const CKPT_POPULATION: usize = 16;
const CKPT_GENERATIONS: usize = 8;
const CKPT_HALT: usize = CKPT_GENERATIONS / 2;

/// Where `ga_ckpt` keeps its files, relative to the working directory.
const TMP_DIR: &str = ".perfbench_tmp";

/// This process's directory under [`TMP_DIR`]. Its name is new for
/// every process, so nothing a killed run left behind is ever read; it is
/// removed when the workload is dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<Self, String> {
        let stamp = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        fs::create_dir_all(TMP_DIR).map_err(|e| format!("creating {TMP_DIR}: {e}"))?;
        let path = Path::new(TMP_DIR).join(format!("run-{}-{stamp}", std::process::id()));
        fs::create_dir(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only when no other run's directory is left in it.
        let _ = fs::remove_dir(TMP_DIR);
    }
}

/// A fresh directory for one op, removed when the op ends, whether it
/// returns, fails or panics.
struct OpDir(PathBuf);

impl OpDir {
    fn create(root: &RunDir, seq: usize) -> Result<Self, String> {
        let path = root.0.join(format!("op-{seq}"));
        fs::create_dir(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(OpDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for OpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A checkpointed GA that halts at its midpoint and resumes, one per op.
pub struct GaCkpt {
    draw: Draw,
    tech: Technology,
    root: RunDir,
    ops: AtomicUsize,
}

pub struct GaCkptInput {
    load_f: f64,
    gain_db: f64,
    ugf_hz: f64,
    ga_seed: u64,
}

impl GaCkpt {
    fn spec(input: &GaCkptInput) -> Spec {
        Spec::new()
            .require("gain_db", Bound::AtLeast(input.gain_db))
            .require("ugf_hz", Bound::AtLeast(input.ugf_hz))
            .minimizing("power_w")
    }

    fn config(input: &GaCkptInput, eval_cache: EvalCachePolicy) -> GaConfig {
        GaConfig {
            population: CKPT_POPULATION,
            generations: CKPT_GENERATIONS,
            seed: input.ga_seed,
            eval_cache,
            ..GaConfig::default()
        }
    }

    /// Runs the GA until it halts after [`CKPT_HALT`], reopens the journal
    /// from disk as a restarted process would, and resumes to the end.
    fn halt_and_resume(
        &self,
        input: &GaCkptInput,
        op: Option<&mut Layers>,
    ) -> Result<GaResult, String> {
        let dir = OpDir::create(&self.root, self.ops.fetch_add(1, Ordering::Relaxed))?;
        let journal = dir.path().join("ga.ckpt");
        let cache_file = dir.path().join("evalcache.ckpt");
        let model = TwoStageModel::new(self.tech.clone(), input.load_f);
        let timed = Timed::new(&model);
        let chosen: &dyn PerfModel = if op.is_some() { &timed } else { &model };
        let models = [chosen];
        let spec = Self::spec(input);
        let config = Self::config(input, EvalCachePolicy::Disk(cache_file.clone()));

        let mut store = CkptStore::create(&journal);
        match evolve_ckpt(
            &models,
            &spec,
            &config,
            CkptRun::halting_after(&mut store, CKPT_HALT),
        ) {
            Err(SizingCkptError::Halted { boundary }) if boundary == CKPT_HALT => {}
            Err(e) => return Err(format!("halting leg: {e}")),
            Ok(_) => return Err("halting leg ran to completion".to_string()),
        }
        let halted_bytes = store.stats().bytes_written;
        drop(store);

        let t = Instant::now();
        let mut store =
            CkptStore::open(&journal).map_err(|e| format!("reopening the journal: {e}"))?;
        let open_s = t.elapsed().as_secs_f64();
        let out = evolve_ckpt(&models, &spec, &config, CkptRun::new(&mut store))
            .map_err(|e| format!("resumed leg: {e}"))?;
        if let Some(op) = op {
            timed.record(op);
            op.add("ckpt.open_s", open_s);
            op.add(
                "ckpt.bytes_written",
                (halted_bytes + store.stats().bytes_written) as f64,
            );
            op.add(
                "exec.cache_file_bytes",
                fs::metadata(&cache_file).map_or(0.0, |m| m.len() as f64),
            );
        }
        Ok(out)
    }
}

impl Workload for GaCkpt {
    type Input = GaCkptInput;
    type Output = GaResult;
    const REMAINDER: &'static str =
        "journal create and drop, per-op directory create and remove, eval-cache file stat";
    // File commits take about half of op time (see `crate::calib`).
    const CALIBRATION: Calibration = Calibration {
        kernel: Kernel::Mixed,
        cpu_share: 0.5,
    };

    fn new(seed: u64) -> Result<Self, String> {
        Ok(GaCkpt {
            draw: Draw::new(seed),
            tech: Technology::generic_1p2um(),
            root: RunDir::create()?,
            ops: AtomicUsize::new(0),
        })
    }

    fn nominal(&self) -> GaCkptInput {
        GaCkptInput {
            load_f: 5e-12,
            gain_db: 60.0,
            ugf_hz: 5e6,
            ga_seed: 5,
        }
    }

    fn input(&self, index: usize) -> GaCkptInput {
        let d = &self.draw;
        GaCkptInput {
            load_f: d.within(index, 0, 2e-12, 8e-12),
            gain_db: d.within(index, 1, 55.0, 65.0),
            ugf_hz: d.within(index, 2, 3e6, 7e6),
            ga_seed: d.rng(index).next_u64(),
        }
    }

    fn run(&self, input: &GaCkptInput) -> Result<GaResult, String> {
        self.halt_and_resume(input, None)
    }

    fn run_traced(&self, input: &GaCkptInput, op: &mut Layers) -> Result<GaResult, String> {
        self.halt_and_resume(input, Some(op))
    }

    /// The resumed champion must be bit-identical to an uninterrupted,
    /// uncheckpointed run of the same seed.
    fn check(&self, input: &GaCkptInput, out: &GaResult) -> Result<(), String> {
        let model = TwoStageModel::new(self.tech.clone(), input.load_f);
        let models: [&dyn PerfModel; 1] = [&model];
        let uninterrupted = evolve(
            &models,
            &Self::spec(input),
            &Self::config(input, EvalCachePolicy::Memory),
        );
        if !same_champion(&uninterrupted, out) {
            return Err(
                "resumed champion differs from the uninterrupted run of the same seed".to_string(),
            );
        }
        check_champion(&model, &Self::spec(input), out)
    }

    fn digest(out: &GaResult) -> u64 {
        champion_digest(out)
    }

    fn attributed(op: &Layers) -> f64 {
        op.get("sizing.ga_s") + op.get("ckpt.open_s")
    }
}
