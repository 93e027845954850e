//! `ams-report`: the Table 1 ledger run and regression reporting over
//! `BENCH_table1.json` documents.
//!
//! Subcommands:
//!
//! * `bench -o FILE` — run the ledger collection (about 20 s in a release
//!   build), check every ledger gate, and write the report JSON. On a
//!   failed gate it prints every failure, writes nothing and exits 1.
//! * `quick-bench -o FILE` — run the same phases at reduced sizes (a few
//!   seconds, no gates) and write the report JSON.
//! * `summary FILE` — print the headline metrics, grid-scaling table with
//!   fill ratios, histograms and top counters of a report.
//! * `diff BASELINE CANDIDATE [--tol key=rel]... [--default-tol rel]` —
//!   compare two reports. Deterministic metrics (counters, fill-in,
//!   feasibility) are checked against tolerances; wall-clock metrics are
//!   informational. Exits 1 when any checked metric regressed.
//! * `inject FILE -o FILE [--counter NAME]...` — write a copy of FILE
//!   with a synthetic counter regression, for exercising the diff gate.

use ams_bench::table1_report::{collect, Preset};
use ams_report::{diff, inject_regression, load, render_json, summary, DiffOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ams-report bench -o FILE\n\
         \x20      ams-report quick-bench -o FILE\n\
         \x20      ams-report summary FILE\n\
         \x20      ams-report diff BASELINE CANDIDATE [--tol key=rel]... [--default-tol rel]\n\
         \x20      ams-report inject FILE -o FILE [--counter NAME]..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => bench(&args[1..], &Preset::ledger()),
        Some("quick-bench") => bench(&args[1..], &Preset::quick()),
        Some("summary") => cmd_summary(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("inject") => cmd_inject(&args[1..]),
        _ => usage(),
    }
}

fn out_path(args: &[String]) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == "-o" || a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn bench(args: &[String], preset: &Preset) -> ExitCode {
    let Some(path) = out_path(args) else {
        return usage();
    };
    let report = match collect(preset) {
        Ok(report) => report,
        Err(failed) => {
            for f in &failed {
                eprintln!("gate failed: {f}");
            }
            eprintln!(
                "error: {} gate(s) failed; {} not written",
                failed.len(),
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    match report.write(&path) {
        Ok(()) => {
            println!(
                "wrote {} ({} counters, {:.0} evals/s)",
                path.display(),
                report.counters.len(),
                report.evals_per_sec
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_summary(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    match load(Path::new(path)) {
        Ok(v) => {
            print!("{}", summary(&v));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let positional: Vec<&String> = {
        // Skip flag values: "--tol X" and "--default-tol X" consume one.
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--tol" || a == "--default-tol" {
                it.next();
            } else if !a.starts_with("--") {
                out.push(a);
            }
        }
        out
    };
    let [a_path, b_path] = positional[..] else {
        return usage();
    };
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--default-tol" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    return usage();
                };
                opts.default_tol = v;
            }
            "--tol" => {
                let Some((key, v)) = it.next().and_then(|s| s.split_once('=')) else {
                    return usage();
                };
                let Ok(v) = v.parse::<f64>() else {
                    return usage();
                };
                opts.tolerances.insert(key.to_string(), v);
            }
            _ => {}
        }
    }
    let (a, b) = match (load(Path::new(a_path)), load(Path::new(b_path))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let d = diff(&a, &b, &opts);
    print!("{}", d.render());
    if d.regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_inject(args: &[String]) -> ExitCode {
    let Some(src) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let Some(dst) = out_path(args) else {
        return usage();
    };
    let targets: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--counter")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let mut v = match load(Path::new(src)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let hit = inject_regression(&mut v, &targets);
    if hit.is_empty() {
        eprintln!("error: no counters matched to perturb");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::write(&dst, render_json(&v)) {
        eprintln!("error: could not write {}: {e}", dst.display());
        return ExitCode::from(2);
    }
    println!(
        "injected regression into {}: {}",
        dst.display(),
        hit.join(", ")
    );
    ExitCode::SUCCESS
}
