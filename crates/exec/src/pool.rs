//! Scoped thread pool with chunked work-stealing.
//!
//! [`par_map_indexed`] spawns a scope of workers per batch. The item
//! range is split evenly; each worker claims chunks from the front of its
//! own sub-range and, when empty, steals the back half of the largest
//! remaining sub-range. Results are written back by item index, so the
//! caller-observed output is independent of which worker computed what.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Runtime thread-count override (0 = none). Set by [`set_threads`];
/// lets one process (tests, the speedup bench) compare thread counts
/// without re-reading the environment.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Parsed `AMS_EXEC_THREADS`, read once per process.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Below this many items a batch runs inline on the calling thread. Kept
/// at 2 (only genuinely unsplittable batches stay inline): the GA's polish
/// rounds submit one trial per species champion, and with a
/// simulation-backed cost each trial is a full DC and AC solve, so even a
/// 2-item batch is worth the spawn cost.
const MIN_PARALLEL_ITEMS: usize = 2;

/// Overrides the worker count for subsequent [`par_map_indexed`] calls.
///
/// `Some(n)` forces `n` workers (clamped to ≥ 1); `None` restores the
/// default resolution order (`AMS_EXEC_THREADS`, then hardware
/// parallelism). Process-global — callers that flip it around a region
/// (the determinism tests, the speedup bench) must serialize with other
/// users.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Release);
}

/// The configured worker count: override, else `AMS_EXEC_THREADS`, else
/// [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    let ov = OVERRIDE.load(Ordering::Acquire);
    if ov > 0 {
        return ov;
    }
    let env = ENV_THREADS.get_or_init(|| {
        std::env::var("AMS_EXEC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    });
    if let Some(n) = *env {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count actually used right now. Drops to 1 while a fault
/// plan is armed: injected faults fire by global per-site call index, so
/// the evaluation order must match the serial order exactly for the
/// fault matrix to stay byte-reproducible.
pub fn effective_threads() -> usize {
    if ams_guard::fault::is_armed() {
        1
    } else {
        configured_threads()
    }
}

/// One worker's claimable sub-range of the item index space.
struct Range {
    lo: usize,
    hi: usize,
}

/// Applies `f` to every item and returns the results in item order.
///
/// `f(i, &items[i])` must be a pure function of its arguments (plus
/// shared read-only state): the pool guarantees each index is evaluated
/// exactly once and the output vector is assembled by index, but makes no
/// promise about *which* thread evaluates what. Panics inside `f`
/// propagate to the caller — evaluation sites that must survive poisoned
/// candidates wrap `f`'s body in [`ams_guard::guarded_eval`].
///
/// Emits `exec.tasks` (item count — deterministic) and `exec.steals`
/// (scheduling-dependent, excluded from the determinism contract).
///
/// Structured telemetry emitted inside `f` is captured per item on the
/// worker thread and replayed on the calling thread in item-index order,
/// so the event stream is byte-identical at any worker count (see
/// `ams_trace::telemetry`).
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    ams_trace::counter_add("exec.tasks", n as u64);
    let workers = effective_threads().min(n.max(1));
    if workers <= 1 || n < MIN_PARALLEL_ITEMS {
        // Serial path: events emit directly, already in item order.
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Even initial partition; stealing rebalances uneven item costs.
    let ranges: Vec<Mutex<Range>> = (0..workers)
        .map(|w| {
            let lo = n * w / workers;
            let hi = n * (w + 1) / workers;
            Mutex::new(Range { lo, hi })
        })
        .collect();
    // Owners claim several items per lock to keep contention off the hot
    // path; small enough that stealing still has something to take.
    let chunk = (n / (workers * 8)).clamp(1, 32);
    let steals = AtomicU64::new(0);

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut events: Vec<Vec<ams_trace::TelemetryEvent>> = (0..n).map(|_| Vec::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (ranges, steals, f) = (&ranges, &steals, &f);
                scope.spawn(move || {
                    let mut local: Vec<(usize, R, Vec<ams_trace::TelemetryEvent>)> = Vec::new();
                    loop {
                        // Claim a chunk from the front of our own range.
                        let claimed = {
                            let mut r = lock(&ranges[w]);
                            if r.lo < r.hi {
                                let lo = r.lo;
                                r.lo = (lo + chunk).min(r.hi);
                                Some((lo, r.lo))
                            } else {
                                None
                            }
                        };
                        if let Some((lo, hi)) = claimed {
                            for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
                                let (r, evs) = ams_trace::capture(|| f(i, item));
                                local.push((i, r, evs));
                            }
                            continue;
                        }
                        // Own range drained: steal the back half of the
                        // largest victim range, install it as our own.
                        let victim = (0..workers)
                            .filter(|&v| v != w)
                            .map(|v| {
                                let r = lock(&ranges[v]);
                                (r.hi - r.lo, v)
                            })
                            .max();
                        match victim {
                            Some((rem, v)) if rem > 0 => {
                                let mut r = lock(&ranges[v]);
                                // Re-check under the lock: the victim (or
                                // another thief) may have drained it since
                                // the scan.
                                let rem = r.hi - r.lo;
                                if rem == 0 {
                                    continue;
                                }
                                let take = rem.div_ceil(2);
                                let lo = r.hi - take;
                                let hi = r.hi;
                                r.hi = lo;
                                drop(r);
                                *lock(&ranges[w]) = Range { lo, hi };
                                steals.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => break, // nothing left anywhere
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            // A panic inside `f` surfaces here, on the calling thread.
            for (i, r, evs) in h.join().expect("exec worker panicked") {
                out[i] = Some(r);
                events[i] = evs;
            }
        }
    });
    // Deliver captured events in item-index order — the same order the
    // serial inline path would have emitted them in.
    for evs in events {
        ams_trace::replay(evs);
    }
    ams_trace::counter_add("exec.steals", steals.load(Ordering::Relaxed));
    out.into_iter()
        .map(|r| r.expect("every index evaluated exactly once"))
        .collect()
}

fn lock(m: &Mutex<Range>) -> std::sync::MutexGuard<'_, Range> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Thread-count override is process-global; tests serialize on it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn maps_in_index_order_at_any_thread_count() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            set_threads(Some(threads));
            let got = par_map_indexed(&items, |_, &x| x * x + 1);
            assert_eq!(got, serial, "threads = {threads}");
        }
        set_threads(None);
    }

    #[test]
    fn uneven_workloads_complete_via_stealing() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(Some(4));
        // Front-loaded cost: the first worker's range is far slower, so
        // the others must steal to finish.
        let items: Vec<usize> = (0..256).collect();
        let got = par_map_indexed(&items, |i, &x| {
            let spin = if i < 64 { 20_000 } else { 10 };
            let mut acc = x as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            // Result must not depend on the spin accumulator.
            let _ = acc;
            x * 2
        });
        assert_eq!(got, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        set_threads(None);
    }

    #[test]
    fn tiny_and_empty_batches_run_inline() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(Some(8));
        let one = [41.0f64];
        assert_eq!(par_map_indexed(&one, |_, &x| x + 1.0), vec![42.0]);
        let none: [f64; 0] = [];
        assert!(par_map_indexed(&none, |_, &x| x).is_empty());
        set_threads(None);
    }

    #[test]
    fn armed_fault_plan_forces_serial() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(Some(8));
        ams_guard::fault::arm(ams_guard::fault::FaultPlan::new());
        assert_eq!(effective_threads(), 1);
        ams_guard::fault::disarm();
        assert_eq!(effective_threads(), 8);
        set_threads(None);
    }
}
