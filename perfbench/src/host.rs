//! What a run needs from its host: the environment it refuses, and the
//! context it prints so that a noisy figure can be explained without a
//! rerun. The context is printed next to the result, not reported as a
//! metric.

/// Variables that change which program is measured: the exec worker
/// count, the eval-cache mode and its file, the solver backend and the
/// sparse kernel.
pub const NON_HERMETIC_VARS: [&str; 5] = [
    "AMS_EXEC_THREADS",
    "AMS_EVAL_CACHE",
    "AMS_EVAL_CACHE_PATH",
    "AMS_SIM_BACKEND",
    "AMS_SPARSE_KERNEL",
];

/// The variables of [`NON_HERMETIC_VARS`] that are set.
pub fn non_hermetic_vars_set() -> Vec<&'static str> {
    NON_HERMETIC_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// The structured error a refused run prints to stderr.
pub fn refusal_json(set: &[&str]) -> String {
    let names: Vec<String> = set.iter().map(|v| format!("\"{v}\"")).collect();
    format!(
        "{{\"error\": \"non_hermetic_environment\", \"variables\": [{}], \
         \"reason\": \"each variable changes which program is measured; unset it\"}}",
        names.join(", ")
    )
}

/// Host counters at one instant.
pub struct Sample {
    steal_ticks: Option<u64>,
    loadavg: Option<String>,
}

impl Sample {
    pub fn now() -> Self {
        // First line of /proc/stat: `cpu user nice system idle iowait irq
        // softirq steal ...`.
        let steal_ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        });
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "));
        Sample {
            steal_ticks,
            loadavg,
        }
    }
}

/// The host context of a run as one JSON object: hardware threads, the
/// pinned exec worker count, steal ticks over the run, the load average at
/// its start and end, and the host's `speed` relative to the reference
/// host.
pub fn context_json(start: &Sample, end: &Sample, speed: f64) -> String {
    let steal = match (start.steal_ticks, end.steal_ticks) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".to_string(),
    };
    let load = |s: &Sample| {
        s.loadavg
            .as_ref()
            .map_or("null".to_string(), |l| format!("\"{l}\""))
    };
    format!(
        "{{\"hw_threads\": {}, \"exec_threads\": {}, \"steal_ticks\": {steal}, \
         \"loadavg_start\": {}, \"loadavg_end\": {}, \"host_speed\": {speed}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ams_exec::configured_threads(),
        load(start),
        load(end)
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 when the
/// host does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
