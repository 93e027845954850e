//! The paper-shape claims of EXPERIMENTS.md that a deterministic run can
//! check, one test per claim, each against the figures the document
//! states. Claims stated as wall-clock time are gated by `ams-report
//! bench` instead.

use ams_bench::{
    run_awe_vs_ac, run_channels, run_fig2, run_fig3, run_floorplan, run_rf, run_stacking,
    run_symbolic, run_topo_select,
};
use ams_sizing::{AnnealConfig, GaConfig};

/// E3 / Fig. 2: "the automatic layouts compare favorably to the manual
/// ones". All six layouts of the opamp route completely, the best
/// automatic one is the smallest of the six (so also inside a 1.15× band
/// of the best manual one), and every row matches the E3 table.
#[test]
fn fig2_automatic_layout_is_the_smallest_of_six() {
    let rows = run_fig2();
    let table: Vec<(&str, i64, i64)> = rows
        .iter()
        .map(|r| {
            (
                r.label.as_str(),
                r.area_um2.round() as i64,
                r.wirelength_um.round() as i64,
            )
        })
        .collect();
    assert_eq!(
        table,
        [
            ("manual-A", 62_395, 1_908),
            ("manual-B", 266_617, 3_323),
            ("manual-C", 67_027, 2_225),
            ("manual-D", 31_822, 1_350),
            ("auto-1", 12_265, 1_076),
            ("auto-2", 15_110, 1_440),
        ],
        "label, area µm², wire µm"
    );
    for r in &rows {
        assert!(r.complete, "{} left nets unrouted", r.label);
    }
    let best = |prefix: &str| {
        rows.iter()
            .filter(|r| r.label.starts_with(prefix))
            .map(|r| r.area_um2)
            .fold(f64::INFINITY, f64::min)
    };
    let (manual, auto) = (best("manual"), best("auto"));
    assert!(auto < manual, "auto {auto} µm² vs manual {manual} µm²");
}

/// E4 / Fig. 3: "a demanding set of dc, ac and transient performance
/// constraints were met automatically". The redesigned grid meets every
/// constraint with a lower IR drop and a lower droop than the initial one.
/// The ac verdict here is the AWE one; ROADMAP item 1 makes it exact, and
/// this test must still pass under the exact verdict.
#[test]
fn fig3_rail_redesign_meets_every_constraint() {
    let f = run_fig3();
    assert!(f.met, "grid synthesis must meet the dc/ac/transient set");
    assert!(f.before.0 > f.after.0, "IR drop must improve");
    assert!(f.before.2 > f.after.2, "droop must improve");
}

/// E6: the linear one-solution stacking finds as many diffusion merges as
/// exact enumeration on every dense graph the exact side can finish.
#[test]
fn linear_stacking_matches_exact_merge_count() {
    for row in run_stacking(&[3, 4, 5]).rows {
        assert!(row.3, "merge counts diverged at n = {}", row.0);
    }
}

/// E7: the q = 3 AWE model of the sized opamp tracks the full AC sweep
/// in band. Its speed claim is an `ams-report bench` gate.
#[test]
fn awe_tracks_the_full_ac_sweep_in_band() {
    let r = run_awe_vs_ac();
    assert!(
        r.max_error < 0.25,
        "in-band error {:.1}%",
        r.max_error * 100.0
    );
}

/// E8: analog/digital coupling exists in a plain channel, and segregation
/// with shields removes all of it.
#[test]
fn segregated_shielded_channel_has_no_coupling() {
    let study = run_channels();
    let coupling = |label: &str| {
        study
            .rows
            .iter()
            .find(|r| r.0 == label)
            .map(|r| r.3)
            .expect("row")
    };
    assert!(coupling("plain") > 0);
    assert_eq!(coupling("segregated+shields"), 0);
}

/// E9: symbolic terms never fall as the circuit grows, and magnitude
/// pruning never keeps more terms at a higher threshold.
#[test]
fn symbolic_terms_grow_with_size_and_fall_with_pruning() {
    let study = run_symbolic();
    let terms: Vec<usize> = study.rows.iter().map(|r| r.2).collect();
    assert!(terms.windows(2).all(|w| w[1] >= w[0]), "{terms:?}");
    let counts: Vec<usize> = study.simplification.iter().map(|r| r.1).collect();
    assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
}

/// E10: every SNDR target is met, and the hardest (24 dB) costs more power
/// than the easiest (6 dB).
#[test]
fn rf_frontend_power_rises_with_the_sndr_target() {
    let study = run_rf(&AnnealConfig::default());
    assert!(study.rows.iter().all(|r| r.2), "all targets feasible");
    let first = study.rows.first().unwrap().1;
    let last = study.rows.last().unwrap().1;
    assert!(
        last > first,
        "24 dB {last} should cost more than 6 dB {first}"
    );
}

/// E11: the substrate-aware floorplan puts less noise on the sensitive
/// blocks than the substrate-blind one.
#[test]
fn substrate_aware_floorplan_lowers_noise() {
    let f = run_floorplan();
    assert!(
        f.aware_noise < f.blind_noise,
        "aware {} vs blind {}",
        f.aware_noise,
        f.blind_noise
    );
}

/// E12: at the extremes of the gain sweep the GA picks the unambiguous
/// topology: the single-stage OTA at 45 dB, the two-stage Miller at 80 dB.
#[test]
fn ga_topology_selection_tracks_the_gain_boundary() {
    let study = run_topo_select(&GaConfig::default());
    assert_eq!(study.rows.first().unwrap().2, "symmetrical_ota");
    assert_eq!(study.rows.last().unwrap().2, "two_stage_miller");
}
