//! Smoke test of the benchmark: two ops of every workload, untraced and
//! traced. Every metric `BENCHMARK.json` names must be printed with its
//! unit, a traced run must reproduce the untraced output digest, and a
//! non-hermetic environment must be refused.
//!
//! The ops run at full size, so run it in release:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use ams_trace::json::{self, Value};

const WORKLOADS: [&str; 4] = ["opamp_flow", "table1_sim", "grid_eval", "ga_ckpt"];

const NON_HERMETIC_VARS: [&str; 5] = [
    "AMS_EXEC_THREADS",
    "AMS_EVAL_CACHE",
    "AMS_EVAL_CACHE_PATH",
    "AMS_SIM_BACKEND",
    "AMS_SPARSE_KERNEL",
];

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("metric has a name and a unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(workload: &str, trace: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--ops",
        "2",
    ]);
    for var in NON_HERMETIC_VARS {
        cmd.env_remove(var);
    }
    cmd
}

fn run(workload: &str, trace: &str) -> String {
    let out = bench(workload, trace).output().expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn result(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("stdout has a last line");
    json::parse(last).expect("the last line is JSON")
}

fn digest(stdout: &str) -> String {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .expect("a digest line");
    json::parse(line)
        .expect("the digest line is JSON")
        .get("digest")
        .and_then(Value::as_str)
        .expect("a digest field")
        .to_string()
}

#[test]
fn manifest_names_the_four_workloads() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_prints_its_metrics_and_traced_runs_reproduce_the_digest() {
    for workload in WORKLOADS {
        let plain = run(workload, "0");
        let traced = run(workload, "1");
        for (stdout, section) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
            let r = result(stdout);
            assert_eq!(
                r.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} {section}"
            );
            assert_eq!(
                r.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload} {section}"
            );
            let metrics = r.get("metrics").expect("a metrics object");
            let expected = declared(section);
            assert_eq!(
                metrics.as_object().map(<[_]>::len),
                Some(expected.len()),
                "{workload}: {section} metric count"
            );
            for (name, unit) in expected {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} is not printed"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{workload}: unit of {name}"
                );
                assert!(
                    m.get("value")
                        .and_then(Value::as_f64)
                        .is_some_and(f64::is_finite),
                    "{workload}: {name} has no finite value"
                );
            }
        }
        assert_eq!(
            digest(&plain),
            digest(&traced),
            "{workload}: tracing changed the output digest"
        );
    }
}

#[test]
fn a_non_hermetic_environment_is_refused() {
    for var in NON_HERMETIC_VARS {
        let out = bench("grid_eval", "0")
            .env(var, "1")
            .output()
            .expect("benchmark starts");
        assert!(!out.status.success(), "{var} was accepted");
        assert!(
            out.stdout.is_empty(),
            "{var}: the refused run printed a result"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(var),
            "{var} is not named in the refusal"
        );
    }
}
