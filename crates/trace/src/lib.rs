//! `ams-trace` — zero-dependency structured tracing for the synthesis flow.
//!
//! The DAC'96 methodology is a *performance-driven loop*, and its
//! credibility rests on quantitative cost evidence (Table 1's CPU-time and
//! iteration counts). This crate makes every solver in the workspace
//! answerable to the question "where did the time and the iterations go?"
//! without pulling in any external dependency, in the same hand-rolled
//! spirit as `ams-prng`.
//!
//! # What it records
//!
//! * **Spans** — hierarchical wall-clock regions opened with [`span`] and
//!   closed by RAII. Nesting is tracked per thread; a span's *path* is the
//!   `/`-joined chain of open span names (e.g. `flow.sizing/sizing.anneal`).
//! * **Counters** — named monotonic `u64` totals via [`counter_add`]. These
//!   are the seed-deterministic backbone: two runs with the same seeds must
//!   produce identical counter values.
//! * **Histograms** — named `f64` distributions via [`record`], summarized
//!   as count/min/max/mean and p50/p95 percentiles.
//! * **Events** — typed [`TelemetryEvent`]s via [`emit`] (see
//!   [`telemetry`]), each given the next sequence number.
//! * **Flight recorder** — one bounded ring of the most recent closed
//!   spans and events, in the order they were recorded. It has three
//!   renderings: Chrome trace-event JSON for `chrome://tracing` /
//!   Perfetto ([`Snapshot::to_chrome_json`]), JSON Lines of the events
//!   ([`Snapshot::to_jsonl`]), and the last [`FORENSICS_EVENTS`] events of
//!   a failure snapshot ([`forensics`]).
//!
//! # Cost model
//!
//! A single global collector store sits behind a `Mutex`, guarded by one
//! `AtomicBool` switch, [`set_enabled`]: when tracing is disabled (the
//! default) every API call is one relaxed atomic load and an immediate
//! return, so instrumented hot loops cost nothing measurable. Hot inner
//! loops should still aggregate locally and call [`counter_add`] once per
//! coarse operation rather than per iteration.
//!
//! # Example
//!
//! ```
//! ams_trace::set_enabled(true);
//! ams_trace::reset();
//! {
//!     let _outer = ams_trace::span("demo.outer");
//!     let _inner = ams_trace::span("demo.inner");
//!     ams_trace::counter_add("demo.iterations", 42);
//!     ams_trace::record("demo.residual", 1e-9);
//!     ams_trace::emit(ams_trace::TelemetryEvent::NewtonEnd {
//!         iterations: 42,
//!         converged: true,
//!         residual: 1e-9,
//!     });
//! }
//! let snap = ams_trace::snapshot();
//! assert_eq!(snap.counters["demo.iterations"], 42);
//! assert!(snap.spans.contains_key("demo.outer/demo.inner"));
//! assert!(snap.to_jsonl().starts_with("{\"seq\":0,\"type\":\"newton_end\""));
//! let json = snap.to_chrome_json();
//! let stats = ams_trace::validate_chrome_trace(&json).unwrap();
//! assert!(stats.complete_events >= 2);
//! assert_eq!(stats.instant_events, 1);
//! ams_trace::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod telemetry;

pub use telemetry::{capture, emit, replay, TelemetryEvent};

use std::cell::RefCell;
// det-lint: allow(hash-collection): hot-path aggregation keyed by name; snapshots sort into BTreeMaps
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Default capacity of the flight-recorder ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Cap on stored per-histogram samples (aggregates stay exact beyond it).
const HIST_SAMPLE_CAP: usize = 4_096;

/// Events a [`forensics`] snapshot copies from the end of the flight ring.
pub const FORENSICS_EVENTS: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> MutexGuard<'static, Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE
        .get_or_init(|| Mutex::new(Store::new(DEFAULT_RING_CAPACITY)))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Whether the global collector is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the global collector on or off: spans, counters, histograms and
/// events alike. Off (the default) makes every tracing call a single
/// atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears all counters, histograms, span statistics, and the flight ring,
/// restarts event sequence numbers at 0 and the trace clock. Does not
/// change the enabled flag.
pub fn reset() {
    let mut c = collector();
    let cap = c.ring_capacity;
    *c = Store::new(cap);
}

/// Resizes the flight-recorder ring buffer (oldest events drop first once
/// full). Takes effect immediately; excess queued events are discarded.
pub fn set_ring_capacity(capacity: usize) {
    let mut c = collector();
    c.ring_capacity = capacity.max(1);
    while c.ring.len() > c.ring_capacity {
        c.ring.pop_front();
        c.dropped += 1;
    }
}

/// Opens a hierarchical timing span; the returned guard closes it on drop.
///
/// When tracing is disabled this is one atomic load and a no-op guard.
#[must_use = "the span closes when the guard drops — bind it to a variable"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        open: Some(Instant::now()),
    }
}

/// RAII guard returned by [`span`]; records the span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.open.take() else {
            return;
        };
        let dur = start.elapsed();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut c = collector();
        let ts_us = us_since(c.origin, start);
        let tid = c.tid();
        c.close_span(path, ts_us, dur, tid);
    }
}

/// Adds `delta` to the named monotonic counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let mut c = collector();
    *c.counters.entry(name).or_insert(0) += delta;
}

/// Adds `delta` to a counter whose name is only known at run time.
///
/// Exists for checkpoint/resume: `ams-ckpt` journals the counter deltas a
/// completed stage produced, and a resumed process re-applies them here so
/// its final counter totals are byte-identical to an uninterrupted run.
/// First-seen names are interned once per process (a bounded, deliberate
/// leak — restored counter names are the same small set the live code
/// would have registered as `&'static str` literals anyway).
pub fn counter_restore(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let mut c = collector();
    if let Some(v) = c.counters.get_mut(name) {
        *v += delta;
        return;
    }
    let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
    c.counters.insert(interned, delta);
}

/// Records one sample into the named `f64` histogram.
#[inline]
pub fn record(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut c = collector();
    c.hists.entry(name).or_default().push(value);
}

/// The calling thread's currently-open span names, outermost first.
///
/// Used by failure forensics to record *where* in the flow an error
/// surfaced. Cheap (one thread-local borrow); empty when tracing is
/// disabled or no spans are open.
pub fn current_span_stack() -> Vec<String> {
    SPAN_STACK.with(|s| s.borrow().iter().map(|n| n.to_string()).collect())
}

/// Takes a consistent copy of everything recorded so far.
pub fn snapshot() -> Snapshot {
    let c = collector();
    Snapshot {
        counters: c
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        histograms: c
            .hists
            .iter()
            .map(|(&k, h)| (k.to_string(), h.summary()))
            .collect(),
        spans: c.spans.iter().map(|(k, a)| (k.clone(), a.stat())).collect(),
        flight: c.ring.iter().cloned().collect(),
        dropped_events: c.dropped,
    }
}

/// Per-counter difference `after - before` (counters are monotonic, so
/// counters absent from `before` count from zero). Sorted by name; zero
/// deltas are omitted.
pub fn counters_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(k, &v)| {
            let d = v - before.get(k).copied().unwrap_or(0).min(v);
            (d > 0).then(|| (k.clone(), d))
        })
        .collect()
}

fn us_since(origin: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(origin).as_secs_f64() * 1e6
}

/// One entry in the flight-recorder ring.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A closed span: full path, start timestamp, and duration.
    Span {
        /// `/`-joined chain of open span names.
        path: String,
        /// Start time in microseconds since collector reset.
        ts_us: f64,
        /// Duration in microseconds.
        dur_us: f64,
        /// Small per-thread integer id.
        tid: u32,
    },
    /// An emitted [`TelemetryEvent`].
    Event {
        /// Sequence number, counted from 0 at [`reset`].
        seq: u64,
        /// Time it entered the ring, microseconds since collector reset.
        ts_us: f64,
        /// Small per-thread integer id of the thread that pushed it.
        tid: u32,
        /// The event.
        event: TelemetryEvent,
    },
}

impl FlightEvent {
    /// The sequence number and event, if this entry is an event.
    fn event(&self) -> Option<(u64, &TelemetryEvent)> {
        match self {
            FlightEvent::Event { seq, event, .. } => Some((*seq, event)),
            FlightEvent::Span { .. } => None,
        }
    }
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanStat {
    /// How many times the span closed.
    pub count: u64,
    /// Total wall-clock microseconds across all closings.
    pub total_us: f64,
    /// Shortest single closing, microseconds.
    pub min_us: f64,
    /// Longest single closing, microseconds.
    pub max_us: f64,
}

/// Summary of one `f64` histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean (exact over all samples).
    pub mean: f64,
    /// Median, estimated from up to the first 4096 samples.
    pub p50: f64,
    /// 95th percentile, estimated from up to the first 4096 samples.
    pub p95: f64,
}

/// A consistent copy of the collector state, ready for export.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Span statistics by `/`-joined path.
    pub spans: BTreeMap<String, SpanStat>,
    /// The flight-recorder ring contents, oldest first.
    pub flight: Vec<FlightEvent>,
    /// Ring entries (spans and events) evicted because it was full.
    pub dropped_events: u64,
}

impl Snapshot {
    /// The telemetry events in the ring, oldest first, with their
    /// sequence numbers.
    pub fn events(&self) -> impl Iterator<Item = (u64, &TelemetryEvent)> {
        self.flight.iter().filter_map(FlightEvent::event)
    }

    /// Renders the ring's events as JSON Lines: one
    /// [`TelemetryEvent::to_json_line`] object per line, oldest first.
    /// No line carries a wall-clock field.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, event) in self.events() {
            out.push_str(&event.to_json_line(seq));
            out.push('\n');
        }
        out
    }

    /// Renders a human-readable summary: span tree (indented by nesting
    /// depth), counters, and histogram percentiles.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (path, s) in &self.spans {
                let depth = path.matches('/').count();
                let leaf = path.rsplit('/').next().unwrap_or(path);
                let _ = writeln!(
                    out,
                    "{:indent$}{leaf:<28} x{:<6} total {:>10}  mean {:>10}",
                    "",
                    s.count,
                    fmt_us(s.total_us),
                    fmt_us(s.total_us / s.count.max(1) as f64),
                    indent = 2 + 2 * depth,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<36} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<36} n={} min={:.4} p50={:.4} p95={:.4} max={:.4}",
                    h.count, h.min, h.p50, h.p95, h.max
                );
            }
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "(flight recorder dropped {} oldest events)",
                self.dropped_events
            );
        }
        out
    }

    /// Exports the snapshot as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto "JSON Object Format").
    ///
    /// Flight-recorder spans become `ph:"X"` complete events, telemetry
    /// events become `ph:"i"` instants named by their kind with their JSONL
    /// object (sequence number and fields) as `args`, and final counter
    /// values become one `ph:"C"` counter event each at the trailing
    /// timestamp.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&ev);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\
             \"args\":{\"name\":\"ams-synth\"}}"
                .to_string(),
        );
        let mut end_ts = 0.0_f64;
        for ev in &self.flight {
            match ev {
                FlightEvent::Span {
                    path,
                    ts_us,
                    dur_us,
                    tid,
                } => {
                    end_ts = end_ts.max(ts_us + dur_us);
                    let leaf = path.rsplit('/').next().unwrap_or(path);
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,\
                             \"tid\":{tid},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\
                             \"args\":{{\"path\":\"{}\"}}}}",
                            json::escape_str(leaf),
                            json::escape_str(path),
                        ),
                    );
                }
                FlightEvent::Event {
                    seq,
                    ts_us,
                    tid,
                    event,
                } => {
                    end_ts = end_ts.max(*ts_us);
                    push(
                        &mut out,
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                             \"pid\":0,\"tid\":{tid},\"ts\":{ts_us:.3},\"args\":{}}}",
                            event.kind(),
                            event.to_json_line(*seq),
                        ),
                    );
                }
            }
        }
        for (name, v) in &self.counters {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\
                     \"ts\":{end_ts:.3},\"args\":{{\"value\":{v}}}}}",
                    json::escape_str(name),
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.3}ms", us / 1e3)
    } else {
        format!("{us:.1}us")
    }
}

/// Counts of what [`validate_chrome_trace`] found in a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events in `traceEvents`.
    pub total_events: usize,
    /// `ph:"X"` complete (span) events.
    pub complete_events: usize,
    /// `ph:"i"` instant events.
    pub instant_events: usize,
    /// `ph:"C"` counter events.
    pub counter_events: usize,
}

/// Validates that `text` is Chrome trace-event JSON of the exact shape
/// this crate emits: a top-level object with a `traceEvents` array whose
/// every element has `name`/`ph`/`pid`/`tid`/`ts`, where `ph:"X"` events
/// carry a numeric `dur`, `ph:"i"` events a scope `s`, and `ph:"C"`
/// events a numeric `args.value`.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let root = json::parse(text)?;
    let obj = root.as_object().ok_or("top level is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut stats = TraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |k: &str| ev.iter().find(|(name, _)| name == k).map(|(_, v)| v);
        let ph = field("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for key in ["name", "pid", "tid", "ts"] {
            if field(key).is_none() {
                return Err(format!("event {i}: missing {key}"));
            }
        }
        if field("ts").and_then(json::Value::as_f64).is_none() {
            return Err(format!("event {i}: ts is not a number"));
        }
        stats.total_events += 1;
        match ph {
            "X" => {
                if field("dur").and_then(json::Value::as_f64).is_none() {
                    return Err(format!("event {i}: X event lacks numeric dur"));
                }
                stats.complete_events += 1;
            }
            "i" => {
                if field("s").and_then(json::Value::as_str).is_none() {
                    return Err(format!("event {i}: i event lacks scope s"));
                }
                stats.instant_events += 1;
            }
            "C" => {
                let value = field("args")
                    .and_then(json::Value::as_object)
                    .and_then(|args| {
                        args.iter()
                            .find(|(k, _)| k == "value")
                            .and_then(|(_, v)| v.as_f64())
                    });
                if value.is_none() {
                    return Err(format!("event {i}: C event lacks numeric args.value"));
                }
                stats.counter_events += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Failure forensics
// ---------------------------------------------------------------------------

/// A flight-recorder snapshot captured at a failure site: what failed,
/// where in the span tree the thread was, the counter totals at that
/// moment, and the last-K structured telemetry events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForensicsSnapshot {
    /// What failed — typically the rendered error or degrade reason.
    pub context: String,
    /// The failing thread's open span names, outermost first.
    pub span_stack: Vec<String>,
    /// Counter totals at capture time.
    pub counters: BTreeMap<String, u64>,
    /// The last [`FORENSICS_EVENTS`] telemetry events of the flight ring
    /// (oldest first), with their sequence numbers.
    pub recent_events: Vec<(u64, TelemetryEvent)>,
}

impl ForensicsSnapshot {
    /// Renders a human-readable forensics report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "forensics: {}", self.context);
        if self.span_stack.is_empty() {
            out.push_str("  span stack: (none open)\n");
        } else {
            let _ = writeln!(out, "  span stack: {}", self.span_stack.join(" / "));
        }
        if !self.recent_events.is_empty() {
            // Keep the rendering one-screen: the full ring stays in the
            // snapshot (and in to_json), only the display is capped.
            const RENDER_CAP: usize = 20;
            let skip = self.recent_events.len().saturating_sub(RENDER_CAP);
            let _ = writeln!(
                out,
                "  last {} of {} events:",
                self.recent_events.len() - skip,
                self.recent_events.len()
            );
            if skip > 0 {
                let _ = writeln!(out, "    … {skip} earlier events elided");
            }
            for (seq, ev) in self.recent_events.iter().skip(skip) {
                let _ = writeln!(out, "    {}", ev.to_json_line(*seq));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "    {name:<36} {v}");
            }
        }
        out
    }

    /// Serializes the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"context\":\"{}\"", json::escape_str(&self.context));
        out.push_str(",\"span_stack\":[");
        for (i, s) in self.span_stack.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json::escape_str(s));
        }
        out.push_str("],\"recent_events\":[");
        for (i, (seq, ev)) in self.recent_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json_line(*seq));
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json::escape_str(name));
        }
        out.push_str("}}");
        out
    }
}

fn last_failure_slot() -> MutexGuard<'static, Option<ForensicsSnapshot>> {
    static SLOT: OnceLock<Mutex<Option<ForensicsSnapshot>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Captures a forensics snapshot right now, tagged with `context`.
///
/// With the collector off it returns an empty snapshot carrying only
/// `context`.
pub fn forensics(context: &str) -> ForensicsSnapshot {
    let mut snap = ForensicsSnapshot {
        context: context.to_string(),
        span_stack: current_span_stack(),
        ..ForensicsSnapshot::default()
    };
    if enabled() {
        let c = collector();
        snap.counters = c
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let mut recent: Vec<_> = c
            .ring
            .iter()
            .rev()
            .filter_map(FlightEvent::event)
            .take(FORENSICS_EVENTS)
            .map(|(seq, event)| (seq, event.clone()))
            .collect();
        recent.reverse();
        snap.recent_events = recent;
    }
    snap
}

/// Captures a forensics snapshot and stashes it in the process-global
/// last-failure slot (overwriting any previous one), for callers — like
/// `FlowReport` assembly — that see the error only after it propagated.
///
/// No-op (one relaxed atomic load) when the collector is off.
pub fn record_failure(context: &str) {
    if !enabled() {
        return;
    }
    let snap = forensics(context);
    *last_failure_slot() = Some(snap);
}

/// Takes the most recent [`record_failure`] snapshot, clearing the slot.
pub fn take_last_failure() -> Option<ForensicsSnapshot> {
    last_failure_slot().take()
}

// ---------------------------------------------------------------------------
// Internal store
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Hist {
    fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if self.samples.len() < HIST_SAMPLE_CAP {
            self.samples.push(v);
        }
    }

    fn summary(&self) -> HistSummary {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        HistSummary {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            p50: pct(0.50),
            p95: pct(0.95),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total: Duration,
    min: Duration,
    max: Duration,
}

impl SpanAgg {
    fn stat(&self) -> SpanStat {
        SpanStat {
            count: self.count,
            total_us: self.total.as_secs_f64() * 1e6,
            min_us: self.min.as_secs_f64() * 1e6,
            max_us: self.max.as_secs_f64() * 1e6,
        }
    }
}

#[derive(Debug)]
struct Store {
    origin: Instant,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
    spans: HashMap<String, SpanAgg>,
    ring: VecDeque<FlightEvent>,
    ring_capacity: usize,
    dropped: u64,
    next_seq: u64,
    tids: HashMap<ThreadId, u32>,
}

impl Store {
    fn new(ring_capacity: usize) -> Self {
        Store {
            origin: Instant::now(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: HashMap::new(),
            ring: VecDeque::new(),
            ring_capacity,
            dropped: 0,
            next_seq: 0,
            tids: HashMap::new(),
        }
    }

    fn tid(&mut self) -> u32 {
        let next = self.tids.len() as u32;
        *self.tids.entry(std::thread::current().id()).or_insert(next)
    }

    fn push_ring(&mut self, ev: FlightEvent) {
        if self.ring.len() >= self.ring_capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Gives `event` the next sequence number and pushes it into the ring.
    fn push_event(&mut self, event: TelemetryEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ts_us = us_since(self.origin, Instant::now());
        let tid = self.tid();
        self.push_ring(FlightEvent::Event {
            seq,
            ts_us,
            tid,
            event,
        });
    }

    fn close_span(&mut self, path: String, ts_us: f64, dur: Duration, tid: u32) {
        let dur_us = dur.as_secs_f64() * 1e6;
        self.push_ring(FlightEvent::Span {
            path: path.clone(),
            ts_us,
            dur_us,
            tid,
        });
        self.spans
            .entry(path)
            .and_modify(|a| {
                a.count += 1;
                a.total += dur;
                a.min = a.min.min(dur);
                a.max = a.max.max(dur);
            })
            .or_insert(SpanAgg {
                count: 1,
                total: dur,
                min: dur,
                max: dur,
            });
    }
}

/// Serializes this crate's unit tests that toggle or reset the
/// process-global collector.
#[cfg(test)]
fn test_lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn degraded(reason: &str) -> TelemetryEvent {
        TelemetryEvent::Degraded {
            reason: reason.into(),
        }
    }

    #[test]
    fn disabled_calls_are_noops() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        counter_add("t.noop", 5);
        record("t.noop_hist", 1.0);
        emit(degraded("t.noop_event"));
        let _s = span("t.noop_span");
        drop(_s);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.flight.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset_clears() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        counter_add("t.iters", 3);
        counter_add("t.iters", 4);
        counter_add("t.zero", 0);
        let snap = snapshot();
        assert_eq!(snap.counters["t.iters"], 7);
        assert!(!snap.counters.contains_key("t.zero"));
        reset();
        assert!(snapshot().counters.is_empty());
        set_enabled(false);
    }

    #[test]
    fn spans_nest_into_paths() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _a = span("t.outer");
            for _ in 0..3 {
                let _b = span("t.inner");
            }
        }
        let snap = snapshot();
        assert_eq!(snap.spans["t.outer"].count, 1);
        assert_eq!(snap.spans["t.outer/t.inner"].count, 3);
        assert!(snap.spans["t.outer"].total_us >= snap.spans["t.outer/t.inner"].total_us);
        set_enabled(false);
    }

    #[test]
    fn histogram_percentiles() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        for i in 1..=100 {
            record("t.h", i as f64);
        }
        let h = snapshot().histograms["t.h"];
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert!((49.0..=52.0).contains(&h.p50), "p50 = {}", h.p50);
        assert!((94.0..=97.0).contains(&h.p95), "p95 = {}", h.p95);
        set_enabled(false);
    }

    #[test]
    fn flight_ring_is_bounded() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        set_ring_capacity(8);
        for i in 0..20 {
            emit(degraded(&format!("t.ev{i}")));
        }
        let snap = snapshot();
        assert_eq!(snap.flight.len(), 8);
        assert_eq!(snap.dropped_events, 12);
        // Oldest evicted first: the ring holds the 8 most recent events.
        let first = snap.events().next();
        assert_eq!(first, Some((12, &degraded("t.ev12"))));
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_enabled(false);
    }

    #[test]
    fn ring_order_is_seq_order_and_reset_restarts_seq() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        emit(degraded("a"));
        {
            let _s = span("t.between");
            emit(degraded("b"));
        }
        emit(degraded("c"));
        let snap = snapshot();
        // The span closes after `b` was pushed, so it sits between b and c.
        let order: Vec<_> = snap
            .flight
            .iter()
            .map(|entry| match entry {
                FlightEvent::Event { seq, .. } => format!("e{seq}"),
                FlightEvent::Span { path, .. } => path.clone(),
            })
            .collect();
        assert_eq!(order, ["e0", "e1", "t.between", "e2"]);
        assert_eq!(
            snap.to_jsonl(),
            "{\"seq\":0,\"type\":\"degraded\",\"reason\":\"a\"}\n\
             {\"seq\":1,\"type\":\"degraded\",\"reason\":\"b\"}\n\
             {\"seq\":2,\"type\":\"degraded\",\"reason\":\"c\"}\n"
        );
        reset();
        emit(degraded("d"));
        assert_eq!(snapshot().events().next().map(|(seq, _)| seq), Some(0));
        set_enabled(false);
        reset();
    }

    #[test]
    fn chrome_export_validates() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _a = span("t.phase \"quoted\"");
            counter_add("t.count", 11);
            emit(degraded("t.mark"));
        }
        let snap = snapshot();
        let json_text = snap.to_chrome_json();
        let stats = validate_chrome_trace(&json_text).expect("schema");
        assert_eq!(stats.complete_events, 1);
        assert_eq!(stats.instant_events, 1);
        assert_eq!(stats.counter_events, 1);
        let root = json::parse(&json_text).expect("well-formed");
        fn str_of<'a>(v: &'a json::Value, key: &str) -> Option<&'a str> {
            v.get(key).and_then(json::Value::as_str)
        }
        let instant = root
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .and_then(|evs| evs.iter().find(|e| str_of(e, "ph") == Some("i")))
            .expect("the event is an instant");
        assert_eq!(str_of(instant, "name"), Some("degraded"));
        let args = instant.get("args").expect("instant carries args");
        assert_eq!(str_of(args, "reason"), Some("t.mark"));
        assert_eq!(args.get("seq").and_then(json::Value::as_f64), Some(0.0));
        set_enabled(false);
    }

    #[test]
    fn summary_lists_all_sections() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _a = span("t.top");
            let _b = span("t.leaf");
            counter_add("t.n", 2);
            record("t.v", 0.5);
        }
        let text = snapshot().render_summary();
        assert!(text.contains("spans:"));
        assert!(text.contains("t.leaf"));
        assert!(text.contains("counters:"));
        assert!(text.contains("t.n"));
        assert!(text.contains("histograms:"));
        set_enabled(false);
    }

    #[test]
    fn forensics_snapshot_captures_context() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        counter_add("t.fail_iters", 9);
        emit(degraded("t_forensics"));
        let snap;
        {
            let _a = span("t.failing_phase");
            record_failure("SimError::NoConvergence after 150 iterations");
            snap = take_last_failure().expect("failure recorded");
        }
        assert!(snap.context.contains("NoConvergence"));
        assert_eq!(snap.span_stack, vec!["t.failing_phase".to_string()]);
        assert_eq!(snap.counters["t.fail_iters"], 9);
        assert!(snap.recent_events.iter().any(
            |(_, e)| matches!(e, TelemetryEvent::Degraded { reason } if reason == "t_forensics")
        ));
        assert!(take_last_failure().is_none());
        let rendered = snap.render();
        assert!(rendered.contains("span stack: t.failing_phase"));
        let parsed = json::parse(&snap.to_json()).expect("forensics json parses");
        assert_eq!(
            parsed.get("context").and_then(json::Value::as_str),
            Some("SimError::NoConvergence after 150 iterations")
        );
        set_enabled(false);
        reset();
    }

    #[test]
    fn forensics_copies_the_last_events_of_the_ring() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        for i in 0..(FORENSICS_EVENTS + 5) {
            let _s = span("t.noise");
            emit(degraded(&format!("e{i}")));
        }
        let recent = forensics("t").recent_events;
        assert_eq!(recent.len(), FORENSICS_EVENTS);
        assert_eq!(recent[0].0, 5);
        let last = FORENSICS_EVENTS + 4;
        assert_eq!(
            recent.last(),
            Some(&(last as u64, degraded(&format!("e{last}"))))
        );
        set_enabled(false);
        reset();
    }

    #[test]
    fn counters_delta_subtracts() {
        let mut before = BTreeMap::new();
        before.insert("a".to_string(), 5u64);
        let mut after = BTreeMap::new();
        after.insert("a".to_string(), 9u64);
        after.insert("b".to_string(), 2u64);
        after.insert("c".to_string(), 0u64);
        let d = counters_delta(&before, &after);
        assert_eq!(d, vec![("a".to_string(), 4u64), ("b".to_string(), 2u64)]);
    }
}
