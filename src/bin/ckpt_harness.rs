//! Kill/resume harness: a child process the crash-safety tests can
//! genuinely kill.
//!
//! Runs checkpointed genetic sizing ([`ams_sizing::evolve_ckpt`]) against
//! a file-backed journal, then prints a canonical transcript — the result
//! with floats as IEEE-754 bit patterns, plus every trace counter except
//! the scheduling-dependent `exec.steals` — so the integration test can
//! byte-compare an interrupted-and-resumed run against an uninterrupted
//! one.
//!
//! The journal opens through `CkptStore::open_or_create`, which drops a
//! torn or corrupt last record (a kill mid-append) and resumes from the
//! records before it.
//!
//! Crash hooks (both fire right after the named generation's boundary
//! commit, i.e. at the worst possible moment — state durable, successor
//! work lost):
//!
//! * `--abort-at-gen G`: `std::process::abort()` — dies by `SIGABRT`
//!   with no destructors, no flushes.
//! * `--park-at-gen G`: prints `PARKED`, flushes, then sleeps forever so
//!   the parent can deliver a real `SIGKILL` mid-run.
//!
//! Usage:
//!   ckpt_harness --ckpt PATH --seed N [--gens G] [--abort-at-gen G | --park-at-gen G]

use ams::prelude::*;
use ams::sizing::{evolve_ckpt, CkptRun, GaConfig, SizingCkptError, TwoStageModel};
use ams_sizing::SymmetricalOtaModel;
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: ckpt_harness --ckpt PATH --seed N [--gens G] [--abort-at-gen G | --park-at-gen G]"
    );
    std::process::exit(2);
}

struct Args {
    ckpt: String,
    seed: u64,
    gens: usize,
    abort_at: Option<usize>,
    park_at: Option<usize>,
}

fn parse_args() -> Args {
    let mut ckpt = None;
    let mut seed = 1u64;
    let mut gens = 12usize;
    let mut abort_at = None;
    let mut park_at = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--ckpt" => ckpt = Some(val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--gens" => gens = val().parse().unwrap_or_else(|_| usage()),
            "--abort-at-gen" => abort_at = Some(val().parse().unwrap_or_else(|_| usage())),
            "--park-at-gen" => park_at = Some(val().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let Some(ckpt) = ckpt else { usage() };
    Args {
        ckpt,
        seed,
        gens,
        abort_at,
        park_at,
    }
}

fn spec() -> Spec {
    Spec::new()
        .require("gain_db", Bound::AtLeast(60.0))
        .require("ugf_hz", Bound::AtLeast(5e6))
        .require("phase_margin_deg", Bound::AtLeast(55.0))
        .minimizing("power_w")
}

fn main() {
    let args = parse_args();
    ams::trace::set_enabled(true);

    let mut store = match CkptStore::open_or_create(&args.ckpt) {
        Ok((store, salvage)) => {
            // A kill mid-append leaves a torn last record; resume from the
            // records before it. Stderr only: stdout is the transcript.
            if let Some(defect) = salvage.defect {
                eprintln!(
                    "ckpt_harness: resuming from {} records, dropped {} bytes: {defect}",
                    salvage.recovered, salvage.dropped_bytes
                );
            }
            store
        }
        Err(e) => {
            eprintln!("ckpt_harness: cannot open journal: {e}");
            std::process::exit(3);
        }
    };

    let tech = Technology::generic_1p2um();
    let two = TwoStageModel::new(tech.clone(), 5e-12);
    let ota = SymmetricalOtaModel::new(tech, 5e-12);
    let cfg = GaConfig {
        population: 24,
        generations: args.gens,
        seed: args.seed,
        ..Default::default()
    };
    let halt_at = args.abort_at.or(args.park_at);
    let ck = match halt_at {
        Some(g) => CkptRun::halting_after(&mut store, g),
        None => CkptRun::new(&mut store),
    };

    match evolve_ckpt(&[&two, &ota], &spec(), &cfg, ck) {
        Ok(r) => {
            let mut out = String::new();
            out.push_str(&format!("topology={}\n", r.topology));
            let mut params: Vec<_> = r.sizing.params.iter().collect();
            params.sort_by(|a, b| a.0.cmp(b.0));
            for (k, v) in params {
                out.push_str(&format!("param {k}={:016x}\n", v.to_bits()));
            }
            out.push_str(&format!("cost={:016x}\n", r.sizing.cost.to_bits()));
            out.push_str(&format!("feasible={}\n", r.sizing.feasible));
            out.push_str(&format!("evals={}\n", r.sizing.evaluations));
            out.push_str(&format!("consensus={:016x}\n", r.consensus.to_bits()));
            for (name, v) in ams::trace::snapshot().counters {
                if name != "exec.steals" {
                    out.push_str(&format!("counter {name}={v}\n"));
                }
            }
            out.push_str("done\n");
            print!("{out}");
        }
        Err(SizingCkptError::Halted { boundary }) => {
            // The boundary is committed and durable; now die for real.
            if args.abort_at.is_some() {
                std::process::abort();
            }
            println!("PARKED {boundary}");
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(60));
            }
        }
        Err(e) => {
            eprintln!("ckpt_harness: {e}");
            std::process::exit(4);
        }
    }
}
