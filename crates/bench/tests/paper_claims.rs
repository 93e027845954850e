//! The paper-shape claims of EXPERIMENTS.md that a deterministic run can
//! check, one test per claim, each against the figures the document
//! states.

use ams_bench::run_fig2;

/// E3 / Fig. 2: "the automatic layouts compare favorably to the manual
/// ones". All six layouts of the opamp route completely, the best
/// automatic one is the smallest of the six and inside the bench's 1.15×
/// band of the best manual one, and every row matches the E3 table.
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
    // Smaller than the best manual layout, so also inside the fig2
    // bench's band of 1.15× that layout's area.
    let (manual, auto) = (best("manual"), best("auto"));
    assert!(auto < manual, "auto {auto} µm² vs manual {manual} µm²");
}
