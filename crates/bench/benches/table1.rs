//! E1 / Table 1: time one full pulse-detector synthesis run and assert the
//! headline result (feasible at a large power reduction vs the expert).
//!
//! Beyond wall time, this bench records an *iteration-cost trajectory*:
//! with the `ams-trace` collector enabled it runs the Table 1 sizing, a
//! quick two-stage opamp flow (placer + router), and a device-level DC
//! solve, then writes the headline counters (Newton iterations, anneal
//! moves, router expansions, …), histogram summaries and throughput
//! headline to `BENCH_table1.json` at the workspace root via the shared
//! `ams_bench::table1_report` emitter (also used by `ams-report
//! quick-bench`). The collector is disabled again before the timed loop,
//! so the timing numbers measure the uninstrumented fast path.

use ams_bench::run_table1;
use ams_bench::table1_report::{
    measure_crash_resume, measure_grid_impedance, measure_grid_scaling, measure_parallel_speedup,
    traced, Table1Report,
};
use ams_core::{synthesize_opamp, FlowConfig};
use ams_netlist::Technology;
use ams_sizing::{AnnealConfig, GaConfig, SimulatedTemplate, TwoStageCircuit};
use ams_topology::{Bound, Spec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::time::Instant;

fn opamp_spec() -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .require("slew_v_per_s", Bound::AtLeast(4e6))
        .require("swing_v", Bound::AtLeast(2.0))
        .minimizing("power_w")
}

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

fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}

fn bench(c: &mut Criterion) {
    let budget = AnnealConfig::quick();

    // Correctness gate + counter harvest, outside the timing loop: run the
    // instrumented stack once with the collector on.
    ams_trace::set_enabled(true);
    ams_trace::reset();
    let mut phases = Vec::new();

    let gate_start = Instant::now();
    let t = traced("table1_sizing", &mut phases, || {
        run_table1(&AnnealConfig::default())
    });
    let wall_s = gate_start.elapsed().as_secs_f64();
    assert!(t.feasible, "Table 1 synthesis must be feasible");
    assert!(
        t.power_reduction > 3.0,
        "power reduction {}",
        t.power_reduction
    );
    let sizing_evals = phases
        .last()
        .and_then(|p| p.counters.iter().find(|(k, _)| k == "sizing.anneal_evals"))
        .map_or(0, |&(_, v)| v);

    traced("opamp_flow_place_route", &mut phases, || {
        let report = synthesize_opamp(
            &opamp_spec(),
            &Technology::generic_1p2um(),
            5e-12,
            &quick_flow_config(),
        )
        .expect("quick opamp flow");
        assert!(report.layout.is_complete());
    });

    traced("two_stage_dc_newton", &mut phases, || {
        let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
        let x: Vec<f64> = template
            .params()
            .iter()
            .map(|pd| (pd.lo * pd.hi).sqrt())
            .collect();
        let ckt = template.build(&x);
        let op = ams_sim::SimSession::new(&ckt).op().expect("two-stage DC");
        assert!(op.iterations > 0);
    });

    traced("fault_recovery", &mut phases, || {
        // Recovery drill: periodic singular pivots injected into the
        // retried DC ladder. The counter delta for this phase records how
        // much recovery machinery engaged (guard.fault.*, sim.dc_retries,
        // sim.dc_converged_assumed).
        ams_guard::fault::arm(ams_guard::FaultPlan::new().fault(
            ams_guard::FaultKind::LuPivot,
            ams_guard::Trigger::Every {
                period: 7,
                offset: 3,
            },
        ));
        let template = TwoStageCircuit::new(Technology::generic_1p2um(), 5e-12);
        let x: Vec<f64> = template
            .params()
            .iter()
            .map(|pd| (pd.lo * pd.hi).sqrt())
            .collect();
        let ckt = template.build(&x);
        if ams_sim::SimSession::new(&ckt).op().is_err() {
            // Even the restarted ladder lost to the injection storm: take the
            // assumed-bias last resort so the phase always completes.
            let dim = ams_sim::MnaLayout::new(&ckt).dim();
            let _ = ams_sim::assumed_op(&ckt, &vec![0.0; dim]);
        }
        ams_guard::fault::disarm();
    });

    let ga = GaConfig {
        population: 48,
        generations: 6,
        seed: 11,
        ..Default::default()
    };
    let speedup = measure_parallel_speedup(&mut phases, &ga);
    // The warm 4-worker leg replays the serial leg's persisted cache, so
    // its hit rate is the persistence acceptance gate.
    assert!(
        speedup.cache_hit_rate >= 0.25,
        "warm eval-cache hit rate {:.3} below the 0.25 persistence gate",
        speedup.cache_hit_rate
    );
    // Wall-clock speedup is only meaningful with real parallel hardware:
    // on a single hardware thread 4 workers time-slice one core, so the
    // gate is skipped (and the report flags `speedup_valid: false`).
    if speedup.hw_threads > 1 {
        let ratio = speedup.serial_us as f64 / speedup.par4_us.max(1) as f64;
        assert!(
            ratio >= 0.6,
            "4-worker warm run {ratio:.2}× vs serial — even with cache hits \
             it must not be drastically slower on {} hardware threads",
            speedup.hw_threads
        );
    } else {
        eprintln!("skipping parallel speedup gate: only 1 hardware thread (speedup_valid=false)");
    }
    let crash = measure_crash_resume(
        &mut phases,
        &GaConfig {
            population: 24,
            generations: 8,
            seed: 5,
            ..Default::default()
        },
    );
    // Dense stops at 24×24 (an O(n⁶) dense LU already takes seconds
    // there); sparse continues through the BTF∘AMD + CSC kernel's range
    // to the 256×256 / ≈66k-unknown grid the RAIL-style analysis targets.
    let mut grid = measure_grid_scaling(
        &mut phases,
        &[8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
        24,
    );
    measure_grid_impedance(&mut phases, &mut grid);
    assert!(
        grid.speedup_common >= 10.0,
        "sparse must beat dense ≥10× at the {0}×{0} grid, got {1:.1}×",
        grid.common_n,
        grid.speedup_common
    );
    let row = |n: usize| {
        grid.rows
            .iter()
            .find(|r| r.n == n)
            .unwrap_or_else(|| panic!("{n}×{n} row missing from grid scaling"))
    };
    // The ordering/CSC acceptance gates. The Markowitz-era record for the
    // 64×64 grid was 5.15 s; the CSC kernel must beat it by ≥10×.
    let r64 = row(64);
    assert!(
        r64.sparse_s < 0.515,
        "64×64 DC took {:.3} s — the AMD+CSC path must be ≥10× under the \
         5.15 s Markowitz-era record",
        r64.sparse_s
    );
    let r256 = row(256);
    assert!(
        r256.unknowns > 65_000,
        "256×256 grid should stamp ≈66k unknowns, got {}",
        r256.unknowns
    );
    assert!(
        r256.sparse_s < 5.0,
        "256×256 first DC solve (analyze + factor + damped-Newton \
         refactors) took {:.3} s (budget 5 s)",
        r256.sparse_s
    );
    assert!(
        r256.refactor_s < 1.0,
        "256×256 cached-pattern refactor+solve took {:.3} s per \
         linearization (budget 1 s)",
        r256.refactor_s
    );
    // Grid-scale AC: a supply-impedance call solves DC, linearizes into
    // triplets and runs the AWE ladder against the DC factor, so it costs
    // a small multiple of the DC solve (it took 28.6 s at 64×64 when the
    // linearized network was dense) and finishes at 256×256.
    let impedance = |r: &ams_bench::table1_report::GridScalingRow| {
        r.impedance_s
            .unwrap_or_else(|| panic!("{0}×{0} row has no impedance_s", r.n))
    };
    assert!(
        impedance(r64) <= 4.0 * r64.sparse_s,
        "64×64 supply impedance took {:.3} s, over 4× the {:.3} s DC solve",
        impedance(r64),
        r64.sparse_s
    );
    assert!(
        impedance(r256).is_finite(),
        "256×256 supply impedance has no finite time"
    );
    // Fill must stay near-linear in unknowns across the CSC range: for a
    // 2-D mesh the AMD order's fill-per-unknown grows ~logarithmically,
    // so the 256×256 density may not even double the 96×96 one.
    let density =
        |r: &ams_bench::table1_report::GridScalingRow| r.fill_in as f64 / r.unknowns as f64;
    assert!(
        density(r256) <= 2.0 * density(row(96)),
        "fill density grew super-linearly: {:.1} per unknown at 256×256 \
         vs {:.1} at 96×96",
        density(r256),
        density(row(96))
    );
    // The forecast band is a hard gate here, not just a report warning.
    let warnings = grid.fill_warnings();
    assert!(warnings.is_empty(), "fill forecast drifted: {warnings:?}");

    let snap = ams_trace::snapshot();
    for key in [
        "sim.newton_iters",
        "sizing.anneal_moves",
        "layout.route_expansions",
        "guard.faults_injected",
        "exec.tasks",
        "exec.cache.hit",
    ] {
        assert!(
            snap.counters.get(key).copied().unwrap_or(0) > 0,
            "headline counter {key} missing from instrumented run"
        );
    }
    let report = Table1Report {
        wall_s,
        feasible: t.feasible,
        power_reduction: t.power_reduction,
        sizing_evals,
        evals_per_sec: sizing_evals as f64 / wall_s.max(1e-9),
        speedup,
        crash,
        grid,
        counters: snap.counters,
        histograms: snap.histograms,
        phases,
    };
    if let Err(e) = report.write(&workspace_root().join("BENCH_table1.json")) {
        eprintln!("warning: {e}");
    }

    // Timed loop runs with the collector off: the disabled fast path is the
    // configuration the ≤2% overhead acceptance bound is judged against.
    ams_trace::set_enabled(false);
    c.bench_function("table1_pulse_detector_synthesis", |b| {
        b.iter(|| std::hint::black_box(run_table1(&budget)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
