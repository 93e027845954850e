//! The `awe.models` and `awe.poles_dropped` counters. Trace counters are
//! process-global, so this file holds a single test: nothing else in the
//! binary moves them between the snapshots.

use ams_awe::{AweError, AweModel};

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
fn models_and_dropped_poles_are_counted() {
    ams_trace::set_enabled(true);

    // A clean single-pole fit: one model, nothing dropped.
    let (model, delta) = traced(|| AweModel::from_moments(&[1.0, -1e-6], 1));
    assert_eq!(model.unwrap().order(), 1);
    assert_eq!((delta("awe.models"), delta("awe.poles_dropped")), (1, 0));

    // H(s) = 1/(s + 1) + 0.5/(s − 2), mₖ = −Σ rⱼ/pⱼ^(k+1): the fit finds
    // both poles, keeps the stable one and rescales it to the exact DC
    // value.
    let m: Vec<f64> = (0..4)
        .map(|k| -(1.0 / (-1.0f64).powi(k + 1) + 0.5 / 2f64.powi(k + 1)))
        .collect();
    let (model, delta) = traced(|| AweModel::from_moments(&m, 2));
    let model = model.unwrap();
    assert_eq!(model.order(), 1);
    assert!((model.poles[0].re + 1.0).abs() < 1e-9, "{}", model.poles[0]);
    assert!((model.response_at(0.0).re - m[0]).abs() < 1e-12);
    assert_eq!((delta("awe.models"), delta("awe.poles_dropped")), (1, 1));

    // No stable pole: an error, and no model to count.
    for (moments, order) in [(&[1.0, 1e-9][..], 1), (&[1.0, 3e-9, 7e-18, 1.5e-26][..], 2)] {
        let (model, delta) = traced(|| AweModel::from_moments(moments, order));
        assert_eq!(model.unwrap_err(), AweError::Unstable { order });
        assert_eq!((delta("awe.models"), delta("awe.poles_dropped")), (0, 0));
    }

    ams_trace::set_enabled(false);
}
