//! Counts what one traced `evaluate` does. Trace counters are
//! process-global, so this file holds a single test: nothing else in the
//! binary moves them between the snapshots.

use ams_rail::{evaluate, supply_impedance, GridSpec, PowerGrid, RailConstraints, Tap, TapKind};
use ams_sim::{Backend, SimSession};

fn grid(n: usize, analog_taps: usize) -> PowerGrid {
    let mut spec = GridSpec::synthetic(n);
    spec.taps.push(Tap {
        name: "clk".into(),
        x: 1,
        y: n - 2,
        dc_amps: 0.05,
        spike: Some((0.2, 0.2e-9, 0.5e-9, 5e-9)),
        kind: TapKind::Digital,
    });
    for k in 0..analog_taps {
        spec.taps.push(Tap {
            name: format!("analog{k}"),
            x: n - 2 - k,
            y: 1 + k,
            dc_amps: 0.02,
            spike: None,
            kind: TapKind::Analog,
        });
    }
    PowerGrid::uniform(spec, 10e-6)
}

/// Counter deltas of `f`, read as `delta("name")`.
fn traced(f: impl FnOnce()) -> impl Fn(&str) -> u64 {
    let before = ams_trace::snapshot().counters;
    f();
    let after = ams_trace::snapshot().counters;
    move |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)
}

/// One `evaluate` runs one DC solve and one factor of `G` serves every
/// analog tap, however many there are: on the sparse backend it is the DC
/// factor itself (a linear grid re-stamps the same matrix at every Newton
/// iteration), so the taps add no factorization at all; on the dense
/// backend it is one LU. `supply_impedance` runs one DC solve of its own
/// and reuses its factor the same way.
#[test]
fn evaluate_solves_dc_once_and_factors_g_once() {
    ams_trace::set_enabled(true);
    let c = RailConstraints::default();
    for n in [8, 12] {
        let mut symbolic = Vec::new();
        for analog in [0, 1, 3] {
            let grid = grid(n, analog);
            let ckt = grid.to_circuit();
            let sparse = SimSession::new(&ckt).backend() == Backend::Sparse;
            let delta = traced(|| {
                evaluate(&grid, &c).unwrap();
            });
            let what = format!("{n}×{n}, {analog} analog taps");
            assert_eq!(delta("sim.dc_solves"), 1, "{what}");
            assert_eq!(
                delta("sim.g_factors"),
                u64::from(analog > 0 && !sparse),
                "{what}"
            );
            symbolic.push(delta("sim.sparse.symbolic"));
        }
        assert!(
            symbolic.windows(2).all(|w| w[0] == w[1]),
            "{n}×{n}: {symbolic:?}"
        );
    }

    let grid = grid(12, 2);
    let ckt = grid.to_circuit();
    let sparse = SimSession::new(&ckt).backend() == Backend::Sparse;
    let delta = traced(|| {
        supply_impedance(&grid, 10, 1, c.ac_freq_hz).unwrap();
    });
    assert_eq!(delta("sim.dc_solves"), 1);
    assert_eq!(delta("sim.g_factors"), u64::from(!sparse));
    ams_trace::set_enabled(false);
}
