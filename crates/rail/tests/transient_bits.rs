//! Pins every bit of four transient runs: FNV-1a digests of the time
//! points and of every solution value, on a seeded RAIL grid, an RLC deck,
//! a MOS inverter, and the grid again with one injected step halving.
//! Any change to the transient's arithmetic, its step sequence or its
//! factor sequence moves a digest.
//!
//! Fault state and trace counters are process-global, so every test in
//! this file serializes on one lock. Every session names its backend, so
//! the pins hold whatever `AMS_SIM_BACKEND` says.

use ams_guard::{fault, FaultKind, FaultPlan, Trigger};
use ams_netlist::{parse_deck, Circuit};
use ams_prng::{Rng, SeedableRng, SmallRng};
use ams_rail::{GridSpec, PowerGrid, Tap, TapKind};
use ams_sim::{Backend, SimSession, TranResult};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// FNV-1a over the bits of every time point, then of every solution value
/// in time order.
fn digest(res: &TranResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let values = res.times.iter().chain(res.solutions.iter().flatten());
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The synthetic 20×20 grid (corner pads, a quiet core tap) with two
/// spiking digital taps and seeded tap loads, spikes and segment widths, with the transient span and step
/// `ams_rail::evaluate` gives it: two periods of the slowest spike train
/// plus 2 ns, at a 150th of that period.
fn seeded_grid() -> (Circuit, f64, f64) {
    let n = 20;
    let mut rng = SmallRng::seed_from_u64(0x7a11_b175);
    let mut spec = GridSpec::synthetic(n);
    for name in ["dsp", "clkgen"] {
        spec.taps.push(Tap {
            name: name.into(),
            x: rng.gen_range(1..n - 1),
            y: rng.gen_range(1..n - 1),
            dc_amps: rng.gen_range(0.02..0.08),
            spike: Some((
                rng.gen_range(0.1..0.3),
                rng.gen_range(0.3e-9..0.5e-9),
                rng.gen_range(1.0e-9..2.0e-9),
                rng.gen_range(5e-9..10e-9),
            )),
            kind: TapKind::Digital,
        });
    }
    let period = spec
        .taps
        .iter()
        .filter_map(|t| t.spike.map(|s| s.3))
        .fold(0.0f64, f64::max);
    let mut grid = PowerGrid::uniform(spec, 10e-6);
    for w in &mut grid.widths {
        *w = rng.gen_range(5e-6..20e-6);
    }
    (grid.to_circuit(), 2.0 * period + 2e-9, period / 150.0)
}

fn tran(ckt: &Circuit, backend: Backend, tstop: f64, dt: f64) -> TranResult {
    SimSession::with_backend(ckt, backend)
        .tran(tstop, dt)
        .unwrap_or_else(|e| panic!("{backend:?} transient failed: {e}"))
}

/// Counter deltas of `f`, read as `delta("name")`.
fn traced<T>(f: impl FnOnce() -> T) -> (T, impl Fn(&str) -> u64) {
    let before = ams_trace::snapshot().counters;
    let out = f();
    let after = ams_trace::snapshot().counters;
    let delta =
        move |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    (out, delta)
}

#[test]
fn seeded_grid_transient_is_pinned() {
    let _l = lock();
    let (ckt, tstop, dt) = seeded_grid();
    let ses = SimSession::with_backend(&ckt, Backend::Sparse);
    ses.op().expect("grid DC");
    ams_trace::set_enabled(true);
    let (res, delta) = traced(|| ses.tran(tstop, dt).expect("grid transient"));
    ams_trace::set_enabled(false);
    assert_eq!(
        digest(&res),
        0xd64d_c85b_f06e_1a82,
        "20×20 grid transient bits moved"
    );
    // A linear grid solves each accepted step once. Its factor is computed
    // at the backward-Euler step and refactored at the first trapezoidal
    // one and at the shortened last step, as before the factor was held.
    let steps = delta("sim.tran_steps_accepted");
    assert_eq!(steps as usize, res.times.len() - 1);
    assert_eq!(delta("sim.lu_solves"), steps, "linear solves per step");
    assert_eq!(delta("sim.lu_factors"), steps, "linear solves per step");
    assert_eq!(delta("sim.sparse.symbolic"), 1, "symbolic analyses");
    assert_eq!(delta("sim.sparse.refactor"), 2, "numeric refactors");
}

#[test]
fn rlc_transient_is_pinned_on_both_backends() {
    let _l = lock();
    let ckt = parse_deck(
        "V1 in 0 PULSE(0 1 2n 1n 1n 20n 60n)
         R1 in a 5
         L1 a out 100n
         C1 out 0 100p
         R2 out 0 1k",
    )
    .expect("RLC deck parses");
    for (backend, pin) in [
        (Backend::Dense, 0xfa74_be78_ec6d_e16e),
        (Backend::Sparse, 0x9552_0d38_a865_d354),
    ] {
        let res = tran(&ckt, backend, 120e-9, 0.2e-9);
        assert_eq!(digest(&res), pin, "{backend:?} RLC transient bits moved");
    }
}

#[test]
fn mos_transient_is_pinned_on_both_backends() {
    let _l = lock();
    let ckt = parse_deck(
        ".model nch nmos vt0=0.7 kp=110u
         .model pch pmos vt0=0.9 kp=38u
         Vdd vdd 0 DC 5
         Vin in 0 PULSE(0 5 10n 1n 1n 50n 120n)
         M1 out in 0 0 nch W=10u L=1u
         M2 out in vdd vdd pch W=30u L=1u
         CL out 0 50f",
    )
    .expect("inverter deck parses");
    for (backend, pin) in [
        (Backend::Dense, 0xa918_6c98_32f0_0aa0),
        (Backend::Sparse, 0xf23e_3d5e_4979_03ea),
    ] {
        let res = tran(&ckt, backend, 100e-9, 0.25e-9);
        assert_eq!(digest(&res), pin, "{backend:?} MOS transient bits moved");
    }
}

#[test]
fn halved_grid_transient_is_pinned() {
    let _l = lock();
    let (ckt, tstop, dt) = seeded_grid();
    // The 100th step's Newton solve fails, so it is retried as a
    // backward-Euler and a trapezoidal half step, and the run then goes
    // back to the full step: three re-stamps mid-run.
    fault::arm(FaultPlan::new().fault(FaultKind::TranHalving, Trigger::At(vec![100])));
    let res = SimSession::with_backend(&ckt, Backend::Sparse).tran(tstop, dt);
    let injected = fault::injected_count(FaultKind::TranHalving);
    fault::disarm();
    let res = res.expect("halved grid transient");
    assert_eq!(injected, 1, "one halving injected");
    assert_eq!(
        digest(&res),
        0x6ac2_5dc3_46af_dea2,
        "halved grid transient bits moved"
    );
}
