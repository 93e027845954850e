//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> [--trace <0|1>] [--ops <n>]
//! ```
//!
//! The build lands in `perfbench/target`, or under `$CARGO_TARGET_DIR`
//! when that is set; the root `.gitignore` lists `.bench_build` for a
//! target directory of that name at the root.
//!
//! Each workload is a closed loop with one caller and one op in flight,
//! because a synthesis caller waits for its result before it asks for the
//! next one. The op sequence is a function of `--seed` alone. A run
//! measures for `--seconds` seconds (or exactly `--ops` ops, the smoke-test
//! mode) and prints, as the last line of stdout, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! give the host context, a digest over every op's output and the share
//! of failed ops.
//!
//! # Workloads
//!
//! * `opamp_flow`: one `ams_core::synthesize_opamp` per op on a seeded spec
//!   and load. It is the paper's §2.1 spec-to-layout flow and the only
//!   workload where `layout` does most of the work: place and route take
//!   about three quarters of op time and annealing most of the rest. The
//!   simulator, sparse LU and `ckpt` are nearly idle.
//! * `table1_sim`: one `ams_sizing::evolve` per op on
//!   `SimulatedPulseDetectorModel` against `table1_spec()`, the paper's only
//!   synthesis experiment. Every candidate runs a dense real DC solve and a
//!   241-point complex AC sweep through `BatchSession`, the in-memory eval
//!   cache and the GA's bookkeeping. It uses no layout, sparse LU or disk.
//! * `grid_eval`: one `ams_rail::evaluate` per op on a seeded RAIL grid
//!   (Fig. 3). Grid sizes straddle the 512-unknown point where `ams-sim`
//!   moves from the Markowitz kernel to CSC. It is the only user of
//!   structural analysis and AMD ordering, sparse factor and refactor,
//!   transient and AWE; sizing, layout and `ckpt` are idle.
//! * `ga_ckpt`: one checkpointed GA per op (`evolve_ckpt` on
//!   `TwoStageModel` with a file journal and a disk eval cache in a fresh
//!   directory) that halts at its midpoint, reopens the journal and
//!   resumes. It is the only workload where checkpoint writes and
//!   eval-cache persistence dominate; the other three bypass them.
//!
//! # Metrics
//!
//! `--trace 0` prints the end-to-end metrics. Every time among them is in
//! reference seconds: wall time rescaled by the host's speed, measured by
//! a calibration kernel that runs right before each op (see [`calib`]).
//! `setup_s` is the median over several set-ups of building the workload
//! and running one warm-up op on a fixed nominal input; the first set-up
//! is timed from the start of `main`. Ops walk a fixed cycle of inputs
//! (see [`workloads::CYCLE`]), and the op figures rest on each input's
//! median time over the run, so every run measures the same mix whatever
//! its op count, and a burst of host noise moves a few samples, not the
//! figures: `ops_per_s` is the cycle's length over the sum of those
//! medians, `op_p50_s` and `op_p90_s` are their quantiles. `peak_rss_mb`
//! is `VmHWM`, and `ok_ratio` is the share of ops that returned `Ok`, did
//! not panic and passed their output check.
//! The lines before the result give the same op figures in wall seconds
//! and the host's speed, so a shift in either shows.
//!
//! `--trace 1` runs the op sequence untraced for half the time, then runs
//! the same ops again with `ams_trace` armed and prints the per-layer
//! metrics (see [`layers`]). Every traced op must reproduce the output
//! digest of its untraced run.
//!
//! # Hermetic runs
//!
//! The exec pool is pinned to one worker, every API that takes an
//! `EvalCachePolicy` gets an explicit one, and the run refuses to start
//! while a variable of [`host::NON_HERMETIC_VARS`] is set. `ga_ckpt` writes
//! only under `.perfbench_tmp/` in the working directory, in a directory
//! of its own that it removes.

#![forbid(unsafe_code)]

mod calib;
mod host;
mod layers;
mod workloads;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Calibration;
use layers::{Layers, Metric};
use workloads::{Digest, GaCkpt, GridEvalWorkload, OpampFlow, Table1Sim, Workload, CYCLE};

/// Set-ups per run; `setup_s` is their median. A run keeps setting up,
/// up to [`SETUP_MAX_REPS`] times, until [`SETUP_MIN_S`] have passed, so a
/// cheap set-up gets a median of many.
const SETUP_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 64;
const SETUP_MIN_S: f64 = 1.0;

/// Calibration runs after each set-up; their median rescales it.
const SETUP_CALIBRATIONS: usize = 5;

/// An op is rescaled by the median calibration of the ops up to this many
/// places before and after it, which smooths the kernel's own jitter but
/// still follows a change of host speed within a few ops.
const CALIBRATION_REACH: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Smoke-test mode: exactly this many ops per pass and one set-up.
    ops: Option<usize>,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut ops) = (None, None, None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number::<u64>(&flag, &value)?),
            "--seconds" => seconds = Some(number::<u64>(&flag, &value)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--ops" => ops = Some(number::<usize>(&flag, &value)?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        ops,
    })
}

fn main() -> ExitCode {
    let t_main = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <opamp_flow|table1_sim|grid_eval|ga_ckpt> \
                 --seed <n> --seconds <s> [--trace <0|1>] [--ops <n>]"
            );
            return ExitCode::from(2);
        }
    };
    let set = host::non_hermetic_vars_set();
    if !set.is_empty() {
        eprintln!("{}", host::refusal_json(&set));
        return ExitCode::from(3);
    }
    ams_exec::set_threads(Some(1));
    let result = match args.workload.as_str() {
        "opamp_flow" => run::<OpampFlow>(&args, t_main),
        "table1_sim" => run::<Table1Sim>(&args, t_main),
        "grid_eval" => run::<GridEvalWorkload>(&args, t_main),
        "ga_ckpt" => run::<GaCkpt>(&args, t_main),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// When a pass stops.
#[derive(Clone, Copy)]
enum Limit {
    Ops(usize),
    /// Ops start until this much time has passed; at least one op runs.
    Time(Duration),
}

/// What one pass over the op sequence produced.
struct Pass {
    /// Wall time of each op, seconds.
    times: Vec<f64>,
    /// How the workload's op time follows the host's speed.
    calibration: Calibration,
    /// Calibration kernel time right before each op, seconds.
    calibrations: Vec<f64>,
    /// Output digest of each op; `None` when the op failed.
    digests: Vec<Option<u64>>,
}

impl Pass {
    fn failed(&self) -> usize {
        self.digests.iter().filter(|d| d.is_none()).count()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for op in &self.digests {
            d.u64(op.unwrap_or(u64::MAX));
        }
        d.finish()
    }

    /// Each op's time in reference seconds.
    fn reference_times(&self) -> Vec<f64> {
        let n = self.calibrations.len();
        self.times
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let near = &self.calibrations
                    [i.saturating_sub(CALIBRATION_REACH)..(i + CALIBRATION_REACH + 1).min(n)];
                self.calibration.rescale(*t, quantile(near, 0.5))
            })
            .collect()
    }

    /// The host's median speed over the pass.
    fn speed(&self) -> f64 {
        self.calibration
            .kernel
            .speed(quantile(&self.calibrations, 0.5))
    }
}

/// What a run reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Digest over the outputs of the ops the metrics describe.
    digest: u64,
    ops: usize,
    /// The host's median speed, relative to the reference host.
    speed: f64,
}

fn run<W: Workload>(args: &Args, t_main: Instant) -> Result<String, String> {
    let host_start = host::Sample::now();
    let (w, setup_s) = set_up::<W>(args, t_main)?;
    let limit = match args.ops {
        Some(n) => Limit::Ops(n),
        None => Limit::Time(Duration::from_secs(args.seconds)),
    };
    let outcome = if args.trace {
        traced_run(&w, limit)
    } else {
        plain_run(&w, limit, setup_s)
    };
    drop(w);
    let Outcome {
        metrics,
        attempted,
        failed,
        digest,
        ops,
        speed,
    } = outcome;
    println!(
        "host {}",
        host::context_json(&host_start, &host::Sample::now(), speed)
    );
    println!(
        "digest {{\"workload\": \"{}\", \"seed\": {}, \"ops\": {ops}, \"digest\": \"{digest:016x}\"}}",
        args.workload, args.seed
    );
    println!("fail_ratio {}", failed as f64 / attempted as f64);
    Ok(result_json(failed == 0, attempted, failed, &metrics))
}

/// Builds the workload and runs its warm-up op, several times, and
/// returns the last build with the median set-up time in reference
/// seconds.
fn set_up<W: Workload>(args: &Args, t_main: Instant) -> Result<(W, f64), String> {
    let mut times = Vec::new();
    let mut built = None;
    let started = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        let enough = match args.ops {
            Some(_) => rep >= 1,
            None => rep >= SETUP_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S,
        };
        if enough {
            break;
        }
        drop(built.take());
        let t0 = if rep == 0 { t_main } else { Instant::now() };
        let w = W::new(args.seed)?;
        let nominal = w.nominal();
        let out = w.run(&nominal).map_err(|e| format!("warm-up op: {e}"))?;
        w.check(&nominal, &out)
            .map_err(|e| format!("warm-up op output: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        let calibrations: Vec<f64> = (0..SETUP_CALIBRATIONS)
            .map(|_| W::CALIBRATION.kernel.time())
            .collect();
        times.push(W::CALIBRATION.rescale(secs, quantile(&calibrations, 0.5)));
        built = Some(w);
    }
    let w = built.ok_or("no set-up ran")?;
    Ok((w, quantile(&times, 0.5)))
}

fn plain_run<W: Workload>(w: &W, limit: Limit, setup_s: f64) -> Outcome {
    let pass = run_pass(w, limit, None);
    let n = pass.times.len();
    let failed = pass.failed();
    let wall = per_input(&pass.times);
    println!(
        "wall {{\"ops_per_s\": {}, \"op_p50_s\": {}, \"op_p90_s\": {}}}",
        rate(&wall),
        quantile(&wall, 0.5),
        quantile(&wall, 0.9)
    );
    let reference = per_input(&pass.reference_times());
    Outcome {
        metrics: vec![
            ("setup_s", "s", setup_s),
            ("ops_per_s", "1/s", rate(&reference)),
            ("op_p50_s", "s", quantile(&reference, 0.5)),
            ("op_p90_s", "s", quantile(&reference, 0.9)),
            ("peak_rss_mb", "MiB", host::peak_rss_mb()),
            ("ok_ratio", "ratio", (n - failed) as f64 / n as f64),
        ],
        attempted: n,
        failed,
        digest: pass.digest(),
        ops: n,
        speed: pass.speed(),
    }
}

/// The traced run: the op sequence runs untraced for half the time, which
/// is the baseline of `bench.trace_overhead_ratio`, then the same ops run
/// again with `ams_trace` armed. A traced op whose output digest differs
/// from its untraced one counts as failed; for `grid_eval` that is the
/// proof that the call-by-call replay matches `ams_rail::evaluate` bit for
/// bit.
fn traced_run<W: Workload>(w: &W, limit: Limit) -> Outcome {
    let baseline_limit = match limit {
        Limit::Time(d) => Limit::Time(d / 2),
        ops => ops,
    };
    let baseline = run_pass(w, baseline_limit, None);
    let n = baseline.times.len();
    // The traced run reads span totals, never the flight ring; one slot
    // keeps each per-op snapshot from copying a full ring.
    ams_trace::set_ring_capacity(1);
    ams_trace::set_enabled(true);
    let mut totals = Layers::default();
    let traced = run_pass(w, Limit::Ops(n), Some(&mut totals));
    ams_trace::set_enabled(false);
    let mut mismatched = 0;
    for (i, pair) in baseline.digests.iter().zip(&traced.digests).enumerate() {
        if let (Some(a), Some(b)) = pair {
            if a != b {
                eprintln!("perfbench: traced op {i} does not reproduce its untraced output");
                mismatched += 1;
            }
        }
    }
    let total = |pass: &Pass| pass.reference_times().iter().sum::<f64>();
    let overhead = total(&traced) / total(&baseline) - 1.0;
    let unattributed = (totals.get("bench.op_s") - totals.get("bench.attributed_s")) / n as f64;
    println!(
        "coverage_remainder {{\"unattributed_s_per_op\": {unattributed}, \"where\": \"{}\"}}",
        W::REMAINDER
    );
    Outcome {
        metrics: layers::per_layer(&totals, n, overhead),
        attempted: 2 * n,
        failed: baseline.failed() + traced.failed() + mismatched,
        digest: traced.digest(),
        ops: n,
        speed: traced.speed(),
    }
}

/// Runs ops `0, 1, …` until `limit`. With `totals`, trace state is reset
/// before each op and its figures are added to `totals` after it.
fn run_pass<W: Workload>(w: &W, limit: Limit, mut totals: Option<&mut Layers>) -> Pass {
    let mut pass = Pass {
        times: Vec::new(),
        calibration: W::CALIBRATION,
        calibrations: Vec::new(),
        digests: Vec::new(),
    };
    let started = Instant::now();
    loop {
        let index = pass.times.len();
        let more = match limit {
            Limit::Ops(n) => index < n,
            Limit::Time(d) => index == 0 || started.elapsed() < d,
        };
        if !more {
            break;
        }
        let input = w.input(index);
        pass.calibrations.push(W::CALIBRATION.kernel.time());
        let traced = totals.is_some();
        let mut op = Layers::default();
        if traced {
            ams_trace::reset();
        }
        let t0 = Instant::now();
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            if traced {
                w.run_traced(&input, &mut op)
            } else {
                w.run(&input)
            }
        }));
        let secs = t0.elapsed().as_secs_f64();
        if let Some(totals) = totals.as_deref_mut() {
            layers::fold_snapshot(&ams_trace::snapshot(), &mut op);
            op.add("bench.op_s", secs);
            op.add("bench.attributed_s", W::attributed(&op));
            totals.merge(&op);
        }
        let verdict = match out {
            Ok(Ok(out)) => panic::catch_unwind(AssertUnwindSafe(|| {
                w.check(&input, &out).map(|()| W::digest(&out))
            }))
            .unwrap_or_else(|p| Err(format!("output check panicked: {}", panic_text(&*p)))),
            Ok(Err(e)) => Err(e),
            Err(p) => Err(format!("panicked: {}", panic_text(&*p))),
        };
        if let Err(e) = &verdict {
            eprintln!("perfbench: op {index} failed: {e}");
        }
        pass.times.push(secs);
        pass.digests.push(verdict.ok());
    }
    pass
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let Some(last) = s.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median time of each input of the cycle, from the times of ops
/// `0, 1, …` (op `i` ran input `i mod CYCLE`, up to the seed's offset);
/// the times themselves when the run did not complete one cycle.
fn per_input(times: &[f64]) -> Vec<f64> {
    if times.len() < CYCLE {
        return times.to_vec();
    }
    (0..CYCLE)
        .map(|e| {
            let same: Vec<f64> = times.iter().skip(e).step_by(CYCLE).copied().collect();
            quantile(&same, 0.5)
        })
        .collect()
}

/// Ops per second when each op takes one of `times`.
fn rate(times: &[f64]) -> f64 {
    times.len() as f64 / times.iter().sum::<f64>()
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, value)| {
            // A JSON number cannot be NaN or infinite.
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_samples() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn one_slow_op_does_not_move_the_per_input_figures() {
        let mut times: Vec<f64> = (0..3 * CYCLE + 5).map(|i| (i % CYCLE) as f64).collect();
        times[CYCLE + 2] = 1e3;
        let inputs = per_input(&times);
        assert_eq!(inputs, (0..CYCLE).map(|e| e as f64).collect::<Vec<_>>());
        assert!((rate(&[0.5, 0.25, 0.25]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn op_times_are_rescaled_by_nearby_calibrations() {
        let kernel = calib::Kernel::Mixed;
        // Speed 1 s⁻¹ of kernel time is its reference time in seconds; a
        // host at half speed takes twice that.
        let half_speed = 2.0 * kernel.speed(1.0);
        for (cpu_share, reference) in [(1.0, 0.1), (0.5, 0.2 / 1.5)] {
            let pass = Pass {
                times: vec![0.2; 20],
                calibration: Calibration { kernel, cpu_share },
                calibrations: vec![half_speed; 20],
                digests: vec![Some(0); 20],
            };
            for t in pass.reference_times() {
                assert!((t - reference).abs() < 1e-12, "{cpu_share}: {t}");
            }
        }
    }
}
