//! The one instrumented Table 1 collector and its `BENCH_table1.json`
//! emitter, behind `ams-report bench` (the ledger, with its gates) and
//! `ams-report quick-bench` (the same phases at reduced sizes).
//!
//! The JSON schema is the regression-diff contract of `ams-report`:
//! counters and structural fields (fill-in, unknowns, BTF blocks) are
//! deterministic for a fixed seed and compared exactly; wall-clock fields
//! (`*_s`, `*_us`, `*per_sec*`, speedups) vary run to run and are treated
//! as informational by the diff.

use ams_ckpt::CkptStore;
use ams_core::{synthesize_opamp, table1_spec, FlowConfig, SimulatedPulseDetectorModel};
use ams_netlist::{Circuit, Technology};
use ams_rail::{GridSpec, PowerGrid};
use ams_sizing::{
    evolve, evolve_ckpt, AnnealConfig, CkptRun, GaConfig, PerfModel, SimulatedTemplate,
    SizingCkptError, TwoStageCircuit, TwoStageModel,
};
use ams_topology::{Bound, Spec};
use ams_trace::HistSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::{run_awe_vs_ac, run_table1};

/// The sizes one collection runs its phases at, and the gates its report
/// must pass. Every preset runs the same phases in the same order.
pub struct Preset {
    /// Anneal budget of the `table1_sizing` phase.
    sizing: AnnealConfig,
    /// GA of the `parallel_speedup` phase.
    speedup_ga: GaConfig,
    /// Checkpointed GA of the `crash_resume` phase.
    crash_ga: GaConfig,
    /// Grid sides of the `grid_scaling` phase, smallest first.
    grid_sizes: &'static [usize],
    /// Largest grid side the dense backend also solves.
    dense_max_n: usize,
    /// The gates the report must pass: one message per failed gate.
    gates: fn(&Table1Report) -> Vec<String>,
}

fn ga(population: usize, generations: usize, seed: u64) -> GaConfig {
    GaConfig {
        population,
        generations,
        seed,
        ..Default::default()
    }
}

impl Preset {
    /// Sizes that run in a few seconds, for the `quick-bench` self-diff:
    /// the quick anneal budget, small GAs, and grids up to 24×24 — from
    /// below the auto-sparse threshold to past it. No gates: the ledger's
    /// bounds are set for the ledger's sizes.
    pub fn quick() -> Self {
        Preset {
            sizing: AnnealConfig::quick(),
            speedup_ga: ga(16, 3, 11),
            crash_ga: ga(12, 4, 5),
            grid_sizes: &[8, 12, 16, 24],
            dense_max_n: 16,
            gates: |_| Vec::new(),
        }
    }

    /// The ledger's sizes: the default anneal budget, larger GAs, and
    /// grids to 256×256 (≈66k unknowns). Dense stops at 24×24, since its
    /// LU grows as the sixth power of the side; sparse continues through
    /// the BTF∘AMD + CSC kernel's range. The report must pass the
    /// ledger's gates.
    pub fn ledger() -> Self {
        Preset {
            sizing: AnnealConfig::default(),
            speedup_ga: ga(48, 6, 11),
            crash_ga: ga(24, 8, 5),
            grid_sizes: &[8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
            dense_max_n: 24,
            gates: ledger_gates,
        }
    }
}

/// One named phase of the trajectory: the counters it contributed.
pub struct Phase {
    /// Phase label as it appears in the `phases` JSON array.
    pub name: &'static str,
    /// Counter deltas attributed to this phase, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// Runs `f` and records the counter delta it produced as a named phase.
fn traced<T>(name: &'static str, phases: &mut Vec<Phase>, f: impl FnOnce() -> T) -> T {
    let before = ams_trace::snapshot().counters;
    let out = f();
    let after = ams_trace::snapshot().counters;
    phases.push(Phase {
        name,
        counters: ams_trace::counters_delta(&before, &after),
    });
    out
}

/// One grid size of the `grid_scaling` phase.
pub struct GridScalingRow {
    /// Grid side length (the mesh is `n × n` nodes).
    pub n: usize,
    /// MNA unknowns of the instantiated circuit.
    pub unknowns: usize,
    /// Dense-LU DC wall time; `None` above the dense size cutoff.
    pub dense_s: Option<f64>,
    /// Sparse-LU DC wall time for the first (symbolic + numeric) solve.
    pub sparse_s: f64,
    /// Mean wall time of one numeric `CscLu::refactor` + refined solve on
    /// the grid's frozen DC pattern, with values whose bits differ from the
    /// ones factored before, so the kernel cannot keep its factors: the
    /// per-linearization cost once the pattern is frozen and the values
    /// move.
    pub refactor_s: f64,
    /// *Full DC re-evaluations* of the unchanged grid per second on a warm
    /// session (one evaluation spans all Newton iterations of a replayed
    /// solve). The grid is linear, so every linearization re-stamps
    /// bit-identical values and is served from the cached factors.
    pub evals_per_sec: f64,
    /// Sparse fill-in (entries created beyond the stamped pattern).
    pub fill_in: u64,
    /// Symbolic BTF∘AMD fill forecast from the structural analyzer.
    pub predicted_fill: u64,
    /// Coarse BTF block count the analyzer found (1 = fully coupled).
    pub btf_blocks: usize,
    /// Wall time of one `ams_rail::supply_impedance` call at the grid
    /// centre at 200 MHz (its own DC solve, one linearization and the AWE
    /// ladder), measured by the `grid_impedance` phase.
    pub impedance_s: f64,
    /// Wall time of one transient of the grid with a spike train on its
    /// core tap, the run `ams_rail::evaluate` makes. Measured by the
    /// `grid_transient` phase up to [`GRID_TRANSIENT_MAX_N`]; `None` (and
    /// left out of the JSON) above it.
    pub tran_s: Option<f64>,
}

impl GridScalingRow {
    /// Actual-over-predicted fill: `fill_in / predicted_fill`. `None`
    /// when the forecast is zero (nothing to normalize against).
    pub fn fill_ratio(&self) -> Option<f64> {
        (self.predicted_fill > 0).then(|| self.fill_in as f64 / self.predicted_fill as f64)
    }
}

/// Dense-vs-sparse scaling of the power-grid DC solve.
pub struct GridScalingSample {
    /// One row per grid size, smallest first.
    pub rows: Vec<GridScalingRow>,
    /// `dense_s / sparse_s` at the largest grid both backends solved.
    pub speedup_common: f64,
    /// Side length of that common grid.
    pub common_n: usize,
}

impl GridScalingSample {
    /// Loud per-row warnings for fill forecasts off by more than the
    /// documented 2× band in either direction: a drifting forecast
    /// silently degrades the ordering pipeline that consumes it, so the
    /// miss is surfaced at every report emission, not just in a test.
    /// (The band was 4× in the minimum-degree-forecast era, and the 64×64
    /// grid still blew it at 24×; the BTF∘AMD forecast is exact for the
    /// order the CSC kernel factors every grid with.)
    pub fn fill_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rows {
            if let Some(ratio) = r.fill_ratio() {
                if !(0.5..=2.0).contains(&ratio) {
                    out.push(format!(
                        "WARNING: {0}x{0} grid fill forecast off {1:.2}x \
                         (actual {2}, predicted {3}) — outside the 2x band",
                        r.n, ratio, r.fill_in, r.predicted_fill
                    ));
                }
            }
        }
        out
    }
}

/// Wall times and cache behaviour of the `parallel_speedup` phase.
pub struct SpeedupSample {
    /// Cold serial (1-worker) GA wall time, microseconds.
    pub serial_us: u64,
    /// Cold 4-worker GA wall time, microseconds.
    pub par4_us: u64,
    /// Eval-cache hit rate of the cold serial run (within-run reuse only).
    pub cold_hit_rate: f64,
    /// Eval-cache hit rate of the warm leg, which reopens the serial run's
    /// persisted cache — the headline persistence number.
    pub cache_hit_rate: f64,
    /// Cost-function evaluations per wall-second of the cold serial run.
    pub serial_evals_per_sec: f64,
    /// Cost-function evaluations per wall-second of the cold 4-worker run.
    pub par4_evals_per_sec: f64,
    /// Hardware threads available on this host.
    pub hw_threads: usize,
}

/// Wall times and journal footprint of the `crash_resume` phase.
pub struct CrashResumeSample {
    /// Uninterrupted checkpointed GA wall time, microseconds.
    pub fresh_us: u64,
    /// Wall time of resuming the same run from a mid-run journal,
    /// microseconds. Replayed generations come from the journal, so this
    /// should be well under `fresh_us`.
    pub resume_us: u64,
    /// Journal bytes written by the uninterrupted run (whole-journal
    /// rewrites, cumulative). Wall-clock-free but schedule-sensitive via
    /// the committed counter deltas, so the diff treats it as
    /// informational.
    pub ckpt_bytes: u64,
    /// Boundary commits of the uninterrupted run. Deterministic for a
    /// fixed config; compared exactly by the diff.
    pub ckpt_commits: u64,
}

/// The `crash_resume` phase: run a checkpointed GA to completion (journal
/// footprint + overhead baseline), crash an identical run at the midpoint
/// boundary, and time the resume. The resumed champion must be bit-exact
/// against the uninterrupted one — this is the bench-side pin of the
/// crash-safety contract the `kill_resume` integration test proves with
/// real signals. The journals are real files so every commit's fsync-path
/// latency lands in the `ckpt.write_us` histogram.
fn measure_crash_resume(phases: &mut Vec<Phase>, ga: &GaConfig) -> CrashResumeSample {
    traced("crash_resume", phases, || {
        let two = TwoStageModel::new(Technology::generic_1p2um(), 5e-12);
        let models: [&dyn PerfModel; 1] = [&two];
        let spec = Spec::new()
            .require("gain_db", Bound::AtLeast(60.0))
            .require("ugf_hz", Bound::AtLeast(5e6))
            .minimizing("power_w");
        let tmp = |leg: &str| {
            std::env::temp_dir().join(format!("ams_bench_crash_{leg}_{}.ckpt", std::process::id()))
        };

        let fresh_path = tmp("fresh");
        let mut fresh_store = CkptStore::create(&fresh_path);
        let t0 = Instant::now();
        let fresh = evolve_ckpt(&models, &spec, ga, CkptRun::new(&mut fresh_store))
            .expect("fresh checkpointed GA");
        let fresh_us = t0.elapsed().as_micros() as u64;
        let stats = fresh_store.stats();
        let _ = std::fs::remove_file(&fresh_path);

        let crash_path = tmp("crash");
        let mut store = CkptStore::create(&crash_path);
        let crash_gen = (ga.generations / 2).max(1);
        match evolve_ckpt(
            &models,
            &spec,
            ga,
            CkptRun::halting_after(&mut store, crash_gen),
        ) {
            Err(SizingCkptError::Halted { .. }) => {}
            other => panic!("expected a mid-run halt, got {other:?}"),
        }
        // Re-open from disk, exactly as a restarted process would.
        drop(store);
        let mut store = CkptStore::open(&crash_path).expect("reopen journal after crash");
        let t1 = Instant::now();
        let resumed = evolve_ckpt(&models, &spec, ga, CkptRun::new(&mut store))
            .expect("resumed checkpointed GA");
        let resume_us = t1.elapsed().as_micros() as u64;
        let _ = std::fs::remove_file(&crash_path);

        assert_eq!(fresh.topology, resumed.topology);
        assert_eq!(fresh.sizing.cost.to_bits(), resumed.sizing.cost.to_bits());
        assert_eq!(fresh.sizing.params, resumed.sizing.params);

        ams_trace::counter_add("ckpt.commits", stats.commits);
        CrashResumeSample {
            fresh_us,
            resume_us,
            ckpt_bytes: stats.bytes_written,
            ckpt_commits: stats.commits,
        }
    })
}

/// The `grid_scaling` phase: DC-solve `n × n` synthetic power grids on
/// the forced-dense and forced-sparse backends and record the wall-time
/// crossover. Dense stops at `dense_max_n`; sparse continues through
/// every entry of `sizes`. Fill-in comes from the `sim.sparse.fill_in`
/// counter delta of each solve.
fn measure_grid_scaling(
    phases: &mut Vec<Phase>,
    sizes: &[usize],
    dense_max_n: usize,
) -> GridScalingSample {
    traced("grid_scaling", phases, || {
        let solve = |n: usize, backend: ams_sim::Backend| -> (usize, f64, u64, f64, f64) {
            let ckt = PowerGrid::uniform(GridSpec::synthetic(n), 10e-6).to_circuit();
            let ses = ams_sim::SimSession::with_backend(&ckt, backend);
            let before = ams_trace::snapshot().counters;
            let t0 = Instant::now();
            let op = ses.op().expect("grid DC solve");
            let secs = t0.elapsed().as_secs_f64();
            assert!(op.iterations > 0);
            let after = ams_trace::snapshot().counters;
            let fill = ams_trace::counters_delta(&before, &after)
                .iter()
                .find(|(k, _)| k == "sim.sparse.fill_in")
                .map_or(0, |&(_, v)| v);
            // Steady-state costs once the symbolic structure is frozen.
            // Dense has no refactor path, so both replays are sparse-only.
            let (refactor_s, evals_per_sec) = if matches!(backend, ams_sim::Backend::Sparse) {
                const REPLAY_EVALS: u32 = 3;
                // A numeric refactor per linearization: alternate the
                // grid's DC system with one from wider metal on the same
                // pattern, so every refactor sees changed value bits. The
                // factorization nests in the analyzer's BTF blocks, as the
                // session's does.
                let (a, z) = ses.dc_system(&op.x);
                let wide = PowerGrid::uniform(GridSpec::synthetic(n), 12e-6).to_circuit();
                let (a_wide, _) =
                    ams_sim::SimSession::with_backend(&wide, backend).dc_system(&op.x);
                let btf = ses.structural().btf.as_ref().map(|b| {
                    std::sync::Arc::new(ams_sim::BlockStructure {
                        perm: b.perm.clone(),
                        block_ptr: b.block_ptr.clone(),
                    })
                });
                let mut lu = ams_sim::CscLu::factor(&a, btf).expect("grid factor");
                let t1 = Instant::now();
                for t in [&a_wide, &a].repeat(REPLAY_EVALS as usize) {
                    let refresh = lu.refactor(t).expect("same pattern, stable pivots");
                    assert_eq!(refresh, ams_sim::Refresh::Numeric);
                    std::hint::black_box(lu.solve_refined(t, &z));
                }
                let refactor_s = t1.elapsed().as_secs_f64() / f64::from(2 * REPLAY_EVALS);
                let t2 = Instant::now();
                for _ in 0..REPLAY_EVALS {
                    ses.invalidate_op();
                    let replay = ses.op().expect("grid DC replay");
                    assert!(replay.iterations > 0);
                }
                let wall = t2.elapsed().as_secs_f64();
                (refactor_s, f64::from(REPLAY_EVALS) / wall.max(1e-12))
            } else {
                (secs / (op.iterations.max(1) as f64), 1.0 / secs.max(1e-12))
            };
            (ses.layout().dim(), secs, fill, refactor_s, evals_per_sec)
        };
        let mut rows = Vec::new();
        let (mut speedup_common, mut common_n) = (0.0, 0);
        for &n in sizes {
            let (unknowns, sparse_s, fill_in, refactor_s, evals_per_sec) =
                solve(n, ams_sim::Backend::Sparse);
            let dense_s = (n <= dense_max_n).then(|| solve(n, ams_sim::Backend::Dense).1);
            if let Some(d) = dense_s {
                speedup_common = d / sparse_s.max(1e-12);
                common_n = n;
            }
            // Static pattern analysis on the same grid: the forecast is
            // backend-independent, so one pass per size suffices.
            let ckt = PowerGrid::uniform(GridSpec::synthetic(n), 10e-6).to_circuit();
            let structural = ams_lint::analyze_circuit_structure(&ckt);
            assert!(
                structural.is_structurally_nonsingular(),
                "{n}×{n} power grid must have a perfect MNA matching"
            );
            rows.push(GridScalingRow {
                n,
                unknowns,
                dense_s,
                sparse_s,
                refactor_s,
                evals_per_sec,
                fill_in,
                predicted_fill: structural.predicted_fill,
                btf_blocks: structural.btf.as_ref().map_or(0, |b| b.num_blocks()),
                impedance_s: f64::NAN,
                tran_s: None,
            });
        }
        ams_trace::counter_add("bench.grid.largest_unknowns", {
            rows.last().map_or(0, |r| r.unknowns as u64)
        });
        GridScalingSample {
            rows,
            speedup_common,
            common_n,
        }
    })
}

/// The `grid_impedance` phase: times one `ams_rail::supply_impedance`
/// call at the centre of every grid of a `grid_scaling` sample, at
/// 200 MHz, into the row's `impedance_s`. The call builds its own session
/// and solves DC first, so its cost is a multiple of the row's
/// `sparse_s`: the AC side of a grid costs one linearization and one
/// moment set on top of the DC factor, not an `n × n` matrix.
fn measure_grid_impedance(phases: &mut Vec<Phase>, grid: &mut GridScalingSample) {
    traced("grid_impedance", phases, || {
        for row in &mut grid.rows {
            let g = PowerGrid::uniform(GridSpec::synthetic(row.n), 10e-6);
            let t0 = Instant::now();
            let z = ams_rail::supply_impedance(&g, row.n / 2, row.n / 2, 200e6)
                .expect("grid supply impedance");
            row.impedance_s = t0.elapsed().as_secs_f64();
            assert!(z.is_finite() && z > 0.0, "{0}×{0} impedance {z}", row.n);
        }
    })
}

/// Largest grid side the `grid_transient` phase simulates.
pub const GRID_TRANSIENT_MAX_N: usize = 64;

/// The `grid_transient` phase: one transient of every `grid_scaling` grid
/// up to [`GRID_TRANSIENT_MAX_N`], timed into the row's `tran_s`. Each
/// grid gets one fixed spike train on its core tap, and the run is the one
/// `ams_rail::evaluate` makes: two spike periods plus 2 ns at a 150th of
/// the period. The DC point is solved before the phase starts, so the
/// phase's counters are the transients' alone.
fn measure_grid_transient(phases: &mut Vec<Phase>, grid: &mut GridScalingSample) {
    const PERIOD: f64 = 5e-9;
    let rows: Vec<&mut GridScalingRow> = grid
        .rows
        .iter_mut()
        .filter(|r| r.n <= GRID_TRANSIENT_MAX_N)
        .collect();
    let circuits: Vec<_> = rows
        .iter()
        .map(|r| {
            let mut spec = GridSpec::synthetic(r.n);
            spec.taps[0].spike = Some((0.2, 0.2e-9, 0.5e-9, PERIOD));
            PowerGrid::uniform(spec, 10e-6).to_circuit()
        })
        .collect();
    let sessions: Vec<_> = circuits
        .iter()
        .map(|ckt| {
            let ses = ams_sim::SimSession::new(ckt);
            ses.op().expect("grid DC solve");
            ses
        })
        .collect();
    traced("grid_transient", phases, || {
        for (row, ses) in rows.into_iter().zip(&sessions) {
            let t0 = Instant::now();
            let res = ses
                .tran(2.0 * PERIOD + 2e-9, PERIOD / 150.0)
                .expect("grid transient");
            row.tran_s = Some(t0.elapsed().as_secs_f64());
            assert!(res.times.len() > 300, "{0}×{0} transient too short", row.n);
        }
    })
}

/// The `parallel_speedup` phase: the same seeded GA topology-selection
/// run on the simulation-backed Table 1 model, serial, at 4 workers, and
/// warm. The model's per-candidate cost is a genuine DC-Newton + AC-sweep
/// simulation, so the ratio of the two cold legs measures the exec pool's
/// scaling rather than closure overhead. `hw_threads` is recorded
/// alongside: on a box with fewer than 4 hardware threads the extra
/// workers time-slice one core and the measured ratio reflects that, not
/// the engine.
///
/// Every leg has an explicit `Disk` eval cache, so the measurement never
/// depends on the ambient `AMS_EVAL_CACHE`. The serial and 4-worker legs
/// each start cold on a fresh file of their own; the warm leg reopens the
/// file the serial leg persisted at its generation boundaries, and its hit
/// rate is the headline persistence number. Every leg's champion must be
/// bit-identical to the serial one: a cached cost is the exact bits the
/// same workload computes fresh.
fn measure_parallel_speedup(phases: &mut Vec<Phase>, ga: &GaConfig) -> SpeedupSample {
    traced("parallel_speedup", phases, || {
        let model = SimulatedPulseDetectorModel::new(Technology::generic_1p2um());
        let models: [&dyn PerfModel; 1] = [&model];
        let cache_path = |leg: &str| {
            std::env::temp_dir().join(format!(
                "ams_bench_speedup_{leg}_{}.ckpt",
                std::process::id()
            ))
        };
        let (serial_path, par4_path) = (cache_path("serial"), cache_path("par4"));
        // A stale file from a crashed previous run would make a "cold"
        // leg warm; start from guaranteed-absent files.
        for path in [&serial_path, &par4_path] {
            let _ = std::fs::remove_file(path);
        }
        let run = |threads: usize, path: &Path| {
            let ga = GaConfig {
                eval_cache: ams_exec::EvalCachePolicy::Disk(path.to_path_buf()),
                ..ga.clone()
            };
            ams_exec::set_threads(Some(threads));
            let hits0 = ams_trace::snapshot().counters;
            let t0 = Instant::now();
            let r = evolve(&models, &table1_spec(), &ga);
            let us = t0.elapsed().as_micros() as u64;
            let hits1 = ams_trace::snapshot().counters;
            let delta = ams_trace::counters_delta(&hits0, &hits1);
            let get = |k: &str| {
                delta
                    .iter()
                    .find(|(name, _)| name == k)
                    .map_or(0, |&(_, v)| v)
            };
            let (h, m) = (get("exec.cache.hit"), get("exec.cache.miss"));
            let hit_rate = h as f64 / (h + m).max(1) as f64;
            (us, hit_rate, r)
        };
        let (serial_us, cold_hit_rate, r1) = run(1, &serial_path);
        let (par4_us, _, r4) = run(4, &par4_path);
        let (_, warm_hit_rate, warm) = run(4, &serial_path);
        ams_exec::set_threads(None);
        for path in [&serial_path, &par4_path] {
            let _ = std::fs::remove_file(path);
        }
        // Determinism spot check: the champion must depend on neither the
        // worker count nor the cache warmth.
        for r in [&r4, &warm] {
            assert_eq!(r1.topology, r.topology);
            assert_eq!(r1.sizing.cost.to_bits(), r.sizing.cost.to_bits());
            assert_eq!(r1.sizing.params, r.sizing.params);
        }
        // The warm leg replays the serial leg's persisted work, so its hit
        // rate can only improve on the cold one.
        assert!(
            warm_hit_rate >= cold_hit_rate,
            "warm hit rate {warm_hit_rate} below cold {cold_hit_rate}"
        );
        ams_trace::counter_add("bench.parallel.serial_us", serial_us);
        ams_trace::counter_add("bench.parallel.par4_us", par4_us);
        SpeedupSample {
            serial_us,
            par4_us,
            cold_hit_rate,
            cache_hit_rate: warm_hit_rate,
            serial_evals_per_sec: r1.sizing.evaluations as f64 / (serial_us as f64 / 1e6).max(1e-9),
            par4_evals_per_sec: r4.sizing.evaluations as f64 / (par4_us as f64 / 1e6).max(1e-9),
            hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// Everything `BENCH_table1.json` is rendered from.
pub struct Table1Report {
    /// Wall time of the instrumented Table 1 sizing gate, seconds.
    pub wall_s: f64,
    /// Whether synthesis met every bound.
    pub feasible: bool,
    /// Power reduction factor (manual / synthesis).
    pub power_reduction: f64,
    /// Sizing evaluations performed by the Table 1 gate run.
    pub sizing_evals: u64,
    /// Headline throughput: sizing evaluations per second of the gate run.
    pub evals_per_sec: f64,
    /// Whether the `opamp_flow_place_route` phase routed every net.
    pub flow_complete: bool,
    /// Newton iterations of the `two_stage_dc_newton` solve.
    pub dc_iterations: usize,
    /// Parallel-speedup phase sample.
    pub speedup: SpeedupSample,
    /// Crash/resume phase sample.
    pub crash: CrashResumeSample,
    /// Grid-scaling phase sample.
    pub grid: GridScalingSample,
    /// Counter totals of the whole instrumented run.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries of the whole instrumented run
    /// (e.g. `exec.cache.hit_rate`, `sizing.anneal_stage_accept_ratio`).
    pub histograms: BTreeMap<String, HistSummary>,
    /// Per-phase counter deltas.
    pub phases: Vec<Phase>,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

impl Table1Report {
    /// Renders the `BENCH_table1.json` document. Panics if the emitter
    /// produced malformed JSON (checked by re-parsing).
    pub fn render_json(&self) -> String {
        let mut json = String::from("{\n  \"bench\": \"table1_pulse_detector_synthesis\",\n");
        let _ = writeln!(json, "  \"table1_sizing_wall_s\": {:.6},", self.wall_s);
        let _ = writeln!(json, "  \"feasible\": {},", self.feasible);
        let _ = writeln!(json, "  \"power_reduction\": {:.4},", self.power_reduction);
        let _ = writeln!(json, "  \"sizing_evals\": {},", self.sizing_evals);
        let _ = writeln!(
            json,
            "  \"evals_per_sec\": {},",
            json_f64(self.evals_per_sec)
        );
        let _ = writeln!(
            json,
            "  \"parallel_serial_us\": {},",
            self.speedup.serial_us
        );
        let _ = writeln!(
            json,
            "  \"parallel_4threads_us\": {},",
            self.speedup.par4_us
        );
        let _ = writeln!(
            json,
            "  \"parallel_speedup_4t\": {:.4},",
            self.speedup.serial_us as f64 / self.speedup.par4_us.max(1) as f64
        );
        let _ = writeln!(
            json,
            "  \"parallel_cold_hit_rate\": {:.4},",
            self.speedup.cold_hit_rate
        );
        let _ = writeln!(
            json,
            "  \"parallel_cache_hit_rate\": {:.4},",
            self.speedup.cache_hit_rate
        );
        let _ = writeln!(
            json,
            "  \"parallel_serial_evals_per_sec\": {},",
            json_f64(self.speedup.serial_evals_per_sec)
        );
        let _ = writeln!(
            json,
            "  \"parallel_par4_evals_per_sec\": {},",
            json_f64(self.speedup.par4_evals_per_sec)
        );
        let _ = writeln!(json, "  \"hw_threads\": {},", self.speedup.hw_threads);
        // Honest hardware reporting: a 4-worker "speedup" measured on a
        // single hardware thread is time-slicing, not scaling — flag it.
        let _ = writeln!(
            json,
            "  \"speedup_valid\": {},",
            self.speedup.hw_threads > 1
        );
        // Crash/resume: wall times informational (`_us`), `ckpt_bytes`
        // informational (schedule-sensitive via committed counter deltas),
        // `ckpt_commits` deterministic-exact.
        let _ = writeln!(
            json,
            "  \"crash_resume\": {{\"fresh_us\": {}, \"resume_us\": {}, \
             \"resume_speedup\": {}, \"ckpt_bytes\": {}, \"ckpt_commits\": {}}},",
            self.crash.fresh_us,
            self.crash.resume_us,
            json_f64(self.crash.fresh_us as f64 / self.crash.resume_us.max(1) as f64),
            self.crash.ckpt_bytes,
            self.crash.ckpt_commits
        );
        json.push_str("  \"grid_scaling\": [");
        for (i, r) in self.grid.rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n    {{\"n\": {}, \"unknowns\": {}, \"dense_s\": {}, \"sparse_s\": {:.6}, \
                 \"refactor_s\": {:.6}, \"evals_per_sec\": {:.2}, \
                 \"fill_in\": {}, \"predicted_fill\": {}, \"fill_ratio\": {}, \
                 \"btf_blocks\": {}, \"impedance_s\": {:.6}{}}}",
                r.n,
                r.unknowns,
                r.dense_s.map_or("null".to_string(), |d| format!("{d:.6}")),
                r.sparse_s,
                r.refactor_s,
                r.evals_per_sec,
                r.fill_in,
                r.predicted_fill,
                r.fill_ratio()
                    .map_or("null".to_string(), |f| format!("{f:.4}")),
                r.btf_blocks,
                r.impedance_s,
                r.tran_s
                    .map_or(String::new(), |t| format!(", \"tran_s\": {t:.6}"))
            );
        }
        json.push_str("\n  ],\n");
        let _ = writeln!(json, "  \"grid_common_n\": {},", self.grid.common_n);
        let _ = writeln!(
            json,
            "  \"grid_speedup_dense_over_sparse\": {:.4},",
            self.grid.speedup_common
        );
        json.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p95\": {}}}",
                ams_trace::json::escape_str(k),
                h.count,
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.mean),
                json_f64(h.p50),
                json_f64(h.p95)
            );
        }
        json.push_str("\n  },\n");
        json.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "\n    \"{}\": {v}", ams_trace::json::escape_str(k));
        }
        json.push_str("\n  },\n  \"phases\": [");
        for (pi, phase) in self.phases.iter().enumerate() {
            if pi > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n    {{\"name\": \"{}\", \"counters\": {{",
                phase.name
            );
            for (i, (k, v)) in phase.counters.iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                let _ = write!(json, "\"{}\": {v}", ams_trace::json::escape_str(k));
            }
            json.push_str("}}");
        }
        json.push_str("\n  ]\n}\n");
        // Fail loudly on a malformed emitter rather than shipping bad JSON.
        ams_trace::json::parse(&json).expect("BENCH_table1.json must be valid JSON");
        json
    }

    /// Renders and writes the report, printing fill-forecast warnings to
    /// stderr. Returns an error string on I/O failure.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        for w in self.grid.fill_warnings() {
            eprintln!("{w}");
        }
        std::fs::write(path, self.render_json())
            .map_err(|e| format!("could not write {}: {e}", path.display()))
    }
}

/// The two-stage opamp template at the geometric midpoint of every
/// parameter range: the circuit of the DC and fault-recovery phases.
fn two_stage_midpoint() -> Circuit {
    let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
    let x: Vec<f64> = template
        .params()
        .iter()
        .map(|pd| (pd.lo * pd.hi).sqrt())
        .collect();
    template.build(&x)
}

/// The `opamp_flow_place_route` phase's spec: a two-stage-class opamp at
/// minimum power.
fn opamp_spec() -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(4e6))
        .require("swing_v", Bound::AtLeast(2.0))
        .minimizing("power_w")
}

/// A reduced sizing and placer budget, so the flow phase costs well under
/// a second.
fn quick_flow_config() -> FlowConfig {
    let mut c = FlowConfig {
        sizing: AnnealConfig {
            moves_per_stage: 150,
            stages: 40,
            seed: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    c.layout.placer.moves_per_stage = 80;
    c.layout.placer.stages = 25;
    c
}

/// The `fault_recovery` phase: periodic singular pivots injected into the
/// retried DC ladder. Its counter delta records how much recovery
/// machinery engaged (`guard.fault.*`, `sim.dc_retries`,
/// `sim.dc_converged_assumed`).
fn fault_drill() {
    ams_guard::fault::arm(ams_guard::FaultPlan::new().fault(
        ams_guard::FaultKind::LuPivot,
        ams_guard::Trigger::Every {
            period: 7,
            offset: 3,
        },
    ));
    let ckt = two_stage_midpoint();
    if ams_sim::SimSession::new(&ckt).op().is_err() {
        // Even the restarted ladder lost to the injection storm: take the
        // assumed-bias last resort so the phase always completes.
        let dim = ams_sim::MnaLayout::new(&ckt).dim();
        let _ = ams_sim::assumed_op(&ckt, &vec![0.0; dim]);
    }
    ams_guard::fault::disarm();
}

/// Runs every phase at `preset`'s sizes with the trace collector armed,
/// then checks the preset's gates with the collector off. Returns the
/// report, or one message per failed gate.
///
/// The phases, in order: `table1_sizing`, `opamp_flow_place_route`,
/// `two_stage_dc_newton`, `fault_recovery`, `parallel_speedup`,
/// `crash_resume`, `grid_scaling`, `grid_impedance` and `grid_transient`.
/// Their counters are deterministic for a fixed build and preset, which is
/// what `ams-report diff` compares.
pub fn collect(preset: &Preset) -> Result<Table1Report, Vec<String>> {
    let trace_was_on = ams_trace::enabled();
    ams_trace::set_enabled(true);
    ams_trace::reset();
    let mut phases = Vec::new();

    let t0 = Instant::now();
    let t = traced("table1_sizing", &mut phases, || run_table1(&preset.sizing));
    let wall_s = t0.elapsed().as_secs_f64();
    let sizing_evals = phases
        .last()
        .and_then(|p| p.counters.iter().find(|(k, _)| k == "sizing.anneal_evals"))
        .map_or(0, |&(_, v)| v);
    let flow_complete = traced("opamp_flow_place_route", &mut phases, || {
        synthesize_opamp(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_flow_config(),
        )
        .expect("quick opamp flow")
        .layout
        .is_complete()
    });
    let dc_iterations = traced("two_stage_dc_newton", &mut phases, || {
        ams_sim::SimSession::new(&two_stage_midpoint())
            .op()
            .expect("two-stage DC")
            .iterations
    });
    traced("fault_recovery", &mut phases, fault_drill);
    let speedup = measure_parallel_speedup(&mut phases, &preset.speedup_ga);
    let crash = measure_crash_resume(&mut phases, &preset.crash_ga);
    let mut grid = measure_grid_scaling(&mut phases, preset.grid_sizes, preset.dense_max_n);
    measure_grid_impedance(&mut phases, &mut grid);
    measure_grid_transient(&mut phases, &mut grid);

    let snap = ams_trace::snapshot();
    ams_trace::set_enabled(false);
    let report = Table1Report {
        wall_s,
        feasible: t.feasible,
        power_reduction: t.power_reduction,
        sizing_evals,
        evals_per_sec: sizing_evals as f64 / wall_s.max(1e-9),
        flow_complete,
        dc_iterations,
        speedup,
        crash,
        grid,
        counters: snap.counters,
        histograms: snap.histograms,
        phases,
    };
    let failed = (preset.gates)(&report);
    ams_trace::set_enabled(trace_was_on);
    if failed.is_empty() {
        Ok(report)
    } else {
        Err(failed)
    }
}

/// Counters every ledger run must move: one per layer the phases drive.
const HEADLINE_COUNTERS: [&str; 6] = [
    "sim.newton_iters",
    "sizing.anneal_moves",
    "layout.route_expansions",
    "guard.faults_injected",
    "exec.tasks",
    "exec.cache.hit",
];

/// The ledger's gates: one message per gate `r` fails. It reads the
/// 64×64, 96×96 and 256×256 grid rows, so it needs the ledger's sizes.
/// Last, it times E7's AWE-vs-AC run, so `collect` calls it with the
/// trace collector off.
fn ledger_gates(r: &Table1Report) -> Vec<String> {
    let mut failed = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            failed.push(msg);
        }
    };
    check(r.feasible, "Table 1 synthesis must be feasible".into());
    check(
        r.power_reduction > 3.0,
        format!("power reduction {}", r.power_reduction),
    );
    check(
        r.flow_complete,
        "quick opamp flow left a net unrouted".into(),
    );
    check(
        r.dc_iterations > 0,
        "two-stage DC reports no Newton iteration".into(),
    );
    // The warm leg reopens the serial leg's persisted cache, so its hit
    // rate is the persistence acceptance gate.
    check(
        r.speedup.cache_hit_rate >= 0.25,
        format!(
            "warm eval-cache hit rate {:.3} below the 0.25 persistence gate",
            r.speedup.cache_hit_rate
        ),
    );
    // Wall-clock speedup is only meaningful with real parallel hardware:
    // on a single hardware thread 4 workers time-slice one core, so the
    // gate is skipped (and the report flags `speedup_valid: false`).
    if r.speedup.hw_threads > 1 {
        let ratio = r.speedup.serial_us as f64 / r.speedup.par4_us.max(1) as f64;
        check(
            ratio >= 0.6,
            format!(
                "cold 4-worker run {ratio:.2}× vs cold serial — it must not be \
                 drastically slower on {} hardware threads",
                r.speedup.hw_threads
            ),
        );
    }
    let grid = &r.grid;
    check(
        grid.speedup_common >= 10.0,
        format!(
            "sparse must beat dense ≥10× at the {0}×{0} grid, got {1:.1}×",
            grid.common_n, grid.speedup_common
        ),
    );
    let row = |n: usize| {
        grid.rows
            .iter()
            .find(|row| row.n == n)
            .unwrap_or_else(|| panic!("{n}×{n} row missing from grid scaling"))
    };
    // The ordering/CSC acceptance gates. The Markowitz-era record for the
    // 64×64 grid was 5.15 s; the CSC kernel must beat it by ≥10×.
    let (r64, r96, r256) = (row(64), row(96), row(256));
    check(
        r64.sparse_s < 0.515,
        format!(
            "64×64 DC took {:.3} s — the AMD+CSC path must be ≥10× under the \
             5.15 s Markowitz-era record",
            r64.sparse_s
        ),
    );
    check(
        r256.unknowns > 65_000,
        format!(
            "256×256 grid should stamp ≈66k unknowns, got {}",
            r256.unknowns
        ),
    );
    check(
        r256.sparse_s < 5.0,
        format!(
            "256×256 first DC solve (analyze + factor + damped-Newton \
             refactors) took {:.3} s (budget 5 s)",
            r256.sparse_s
        ),
    );
    check(
        r256.refactor_s < 1.0,
        format!(
            "256×256 cached-pattern refactor+solve took {:.3} s per \
             linearization (budget 1 s)",
            r256.refactor_s
        ),
    );
    // Grid-scale AC: a supply-impedance call solves DC, linearizes into
    // triplets and runs the AWE ladder against the DC factor, so it costs
    // a small multiple of the DC solve (it took 28.6 s at 64×64 when the
    // linearized network was dense) and finishes at 256×256.
    check(
        r64.impedance_s <= 4.0 * r64.sparse_s,
        format!(
            "64×64 supply impedance took {:.3} s, over 4× the {:.3} s DC solve",
            r64.impedance_s, r64.sparse_s
        ),
    );
    check(
        r256.impedance_s.is_finite(),
        "256×256 supply impedance has no finite time".into(),
    );
    // Fill must stay near-linear in unknowns across the CSC range: for a
    // 2-D mesh the AMD order's fill-per-unknown grows ~logarithmically,
    // so the 256×256 density may not even double the 96×96 one.
    let density = |row: &GridScalingRow| row.fill_in as f64 / row.unknowns as f64;
    check(
        density(r256) <= 2.0 * density(r96),
        format!(
            "fill density grew super-linearly: {:.1} per unknown at 256×256 \
             vs {:.1} at 96×96",
            density(r256),
            density(r96)
        ),
    );
    // The forecast band is a hard gate here, not just a report warning.
    let warnings = grid.fill_warnings();
    check(
        warnings.is_empty(),
        format!("fill forecast drifted: {warnings:?}"),
    );
    for key in HEADLINE_COUNTERS {
        check(
            r.counters.get(key).copied().unwrap_or(0) > 0,
            format!("headline counter {key} missing from instrumented run"),
        );
    }
    // E7: the AWE macromodel must beat the full 100-point AC sweep.
    let awe = run_awe_vs_ac();
    check(
        awe.speedup > 2.0,
        format!("AWE should beat the sweep: {:.1}x", awe.speedup),
    );
    failed
}
