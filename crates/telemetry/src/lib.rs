//! Dependency-free process-wide telemetry: counters, gauges, fixed-bucket
//! histograms, and lightweight spans.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-cost on the hot path.** Recording into a registered metric is
//!    a few relaxed atomic operations — no locks, no allocation, no
//!    formatting. The counting-allocator tests in `tests/train_zero_alloc.rs`
//!    and `crates/reram/tests/zero_alloc.rs` run with the gemm kernels
//!    instrumented and still assert zero steady-state allocations.
//!    Registration (the only allocating step) happens once per metric and
//!    is cached by call sites behind `OnceLock` statics — see the
//!    [`static_counter!`] / [`duration_histogram!`] macros.
//! 2. **No dependencies.** The image is offline; everything here is `std`.
//! 3. **One process-wide registry.** Metrics are identified by name (with
//!    optional hand-rolled `{label="value"}` suffixes) and live for the
//!    life of the process (`Box::leak`), so handles are `&'static` and
//!    freely shareable across threads. Counters are monotonic; consumers
//!    that want per-operation numbers take deltas.
//!
//! # Spans and tracing
//!
//! [`Timer`] is the histogram-only RAII timer for high-frequency sites
//! (kernels). [`Span`] additionally emits a Chrome-trace-event when a
//! trace sink is installed ([`install_trace`]); without a sink a span is
//! exactly a timer. Hierarchy is implicit: Chrome's trace viewer nests
//! `"ph": "X"` (complete) events by `ts`/`dur` per thread, so an
//! `engine.train` span inside a `campaign.scenario` span renders as a
//! child without either knowing about the other.
//!
//! The trace file is the Chrome **JSON array format**, one event object
//! per line: `chrome://tracing` / Perfetto load it directly, and each
//! event line is independently greppable. [`finish_trace`] terminates the
//! array with a metadata event so the whole file is also strict JSON.
//!
//! # Exposition
//!
//! [`render_prometheus`] snapshots every registered metric in the
//! Prometheus text exposition format (`# TYPE` comments, `_bucket{le=…}`
//! / `_sum` / `_count` histogram series). The `campaign metrics` CLI and
//! the daemon's `metrics` protocol verb are thin wrappers around it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotonic event counter. Prometheus convention: name it `*_total`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depths, in-flight jobs).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Move the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Cumulative fixed-bucket histogram.
///
/// Bucket upper bounds are a `&'static` slice fixed at registration; an
/// implicit `+Inf` bucket catches the tail. `observe` is a linear scan
/// over the (few) bounds plus three relaxed atomic updates — the sum is
/// an `f64` maintained with a compare-exchange loop on its bit pattern.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Decade buckets for durations in seconds: 1µs … 1000s, ×10 steps.
///
/// Every duration histogram in the workspace uses this scheme unless it
/// registers its own bounds, so dashboards can assume a common `le` set.
pub const DURATION_SECONDS_BUCKETS: &[f64] =
    &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing",
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let mut slot = self.bounds.len();
        for (i, b) in self.bounds.iter().enumerate() {
            if v <= *b {
                slot = i;
                break;
            }
        }
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Record a duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative count at each bound (Prometheus `le` semantics), ending
    /// with the `+Inf` total.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Look up or create the counter `name`. Allocates only on first
/// registration; cache the returned handle (see [`static_counter!`]).
///
/// Names may carry hand-written label suffixes (`jobs_total{state="done"}`);
/// the part before `{` is the metric family for `# TYPE` purposes.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
    {
        Metric::Counter(c) => c,
        other => panic!("telemetry: {name} already registered as a {}", other.kind()),
    }
}

/// Look up or create the gauge `name`. See [`counter`] for naming rules.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
    {
        Metric::Gauge(g) => g,
        other => panic!("telemetry: {name} already registered as a {}", other.kind()),
    }
}

/// Look up or create the histogram `name` with the given bucket bounds.
/// The bounds of the first registration win; later calls get the existing
/// histogram regardless of the bounds they pass.
///
/// # Panics
/// If `name` is already registered as a different metric kind, or if
/// `bounds` is not strictly increasing.
pub fn histogram(name: &str, bounds: &'static [f64]) -> &'static Histogram {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new(bounds)))))
    {
        Metric::Histogram(h) => h,
        other => panic!("telemetry: {name} already registered as a {}", other.kind()),
    }
}

/// Cache a `&'static Counter` behind a `OnceLock` so the hot path pays a
/// single atomic load after the first call.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// Cache a `&'static Gauge` behind a `OnceLock`.
#[macro_export]
macro_rules! static_gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Cache a `&'static Histogram` with [`DURATION_SECONDS_BUCKETS`] behind
/// a `OnceLock`.
#[macro_export]
macro_rules! duration_histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::Histogram> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram($name, $crate::DURATION_SECONDS_BUCKETS))
    }};
}

/// Histogram-only RAII timer for high-frequency sites (tensor kernels).
/// Never emits trace events, so instrumenting a kernel cannot explode a
/// trace file. Drop cost: one `Instant::now` plus [`Histogram::observe`].
#[must_use = "the timer records on drop; binding to _ drops immediately"]
pub struct Timer {
    hist: &'static Histogram,
    start: Instant,
}

impl Timer {
    /// Start timing into `hist`.
    #[inline]
    pub fn start(hist: &'static Histogram) -> Timer {
        Timer {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Timer {
    #[inline]
    fn drop(&mut self) {
        self.hist.observe_duration(self.start.elapsed());
    }
}

/// RAII span: records its duration into a histogram like [`Timer`], and —
/// only when a trace sink is installed — also emits one Chrome trace
/// event on drop. Without a sink, entering and dropping a span performs
/// no allocation and touches no locks.
#[must_use = "the span records on drop; binding to _ drops immediately"]
pub struct Span {
    name: &'static str,
    hist: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Enter a span named `name`, recording its duration into `hist`.
    #[inline]
    pub fn enter(name: &'static str, hist: &'static Histogram) -> Span {
        Span {
            name,
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.observe_duration(elapsed);
        if TRACE_ACTIVE.load(Ordering::Relaxed) {
            emit_trace_event(self.name, self.start, elapsed);
        }
    }
}

struct TraceSink {
    writer: BufWriter<File>,
    epoch: Instant,
}

// Ordering: `Relaxed` — the flag only gates best-effort span emission
// on the hot path; a stale read drops or admits at most one event, and
// the sink mutex orders everything that actually reaches the file.
static TRACE_ACTIVE: AtomicBool = AtomicBool::new(false);

fn trace_sink() -> &'static Mutex<Option<TraceSink>> {
    static SINK: OnceLock<Mutex<Option<TraceSink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn trace_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

fn emit_trace_event(name: &str, start: Instant, elapsed: std::time::Duration) {
    let tid = trace_tid();
    let mut guard = trace_sink().lock().unwrap();
    if let Some(sink) = guard.as_mut() {
        let ts = start
            .checked_duration_since(sink.epoch)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e6;
        let dur = elapsed.as_secs_f64() * 1e6;
        let _ = writeln!(
            sink.writer,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{tid}}},"
        );
    }
}

/// Install a Chrome-trace sink at `path`. Until [`finish_trace`] runs,
/// every dropped [`Span`] appends one trace event line. Installing a new
/// sink finishes any previous one.
pub fn install_trace(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writeln!(writer, "[")?;
    let mut guard = trace_sink().lock().unwrap();
    if let Some(old) = guard.take() {
        let _ = close_sink(old);
    }
    *guard = Some(TraceSink {
        writer,
        epoch: Instant::now(),
    });
    TRACE_ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

fn close_sink(mut sink: TraceSink) -> std::io::Result<()> {
    // A metadata event (no trailing comma) terminates the element list so
    // the file is strict JSON; Chrome treats it as process naming.
    writeln!(
        sink.writer,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"campaign\"}}}}"
    )?;
    writeln!(sink.writer, "]")?;
    sink.writer.flush()
}

/// Close the active trace sink, terminating the JSON array so the file
/// parses as strict JSON. No-op if no sink is installed.
pub fn finish_trace() -> std::io::Result<()> {
    let mut guard = trace_sink().lock().unwrap();
    TRACE_ACTIVE.store(false, Ordering::Relaxed);
    match guard.take() {
        Some(sink) => close_sink(sink),
        None => Ok(()),
    }
}

/// Format a bound the way Prometheus expects (`+Inf` for infinity).
fn fmt_bound(b: f64) -> String {
    if b.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{b}")
    }
}

/// The metric family (name before any `{label}` suffix).
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splice extra labels into a possibly-labelled metric name:
/// `x{a="1"}` + `le="2"` → `x{a="1",le="2"}`.
fn with_label(name: &str, label: &str) -> String {
    match name.strip_suffix('}') {
        Some(prefix) => format!("{prefix},{label}}}"),
        None => format!("{name}{{{label}}}"),
    }
}

/// Snapshot every registered metric in Prometheus text exposition format.
/// Families are sorted by name; `# TYPE` is emitted once per family.
pub fn render_prometheus() -> String {
    let reg = registry().lock().unwrap();
    let mut out = String::new();
    let mut last_family = String::new();
    for (name, metric) in reg.iter() {
        let fam = family(name);
        if fam != last_family {
            out.push_str(&format!("# TYPE {fam} {}\n", metric.kind()));
            last_family = fam.to_string();
        }
        match metric {
            Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
            Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
            Metric::Histogram(h) => {
                // Histogram series take the conventional `_bucket` /
                // `_sum` / `_count` suffixes on the family name.
                let bucket_name = match name.split_once('{') {
                    Some((base, labels)) => format!("{base}_bucket{{{labels}"),
                    None => format!("{name}_bucket"),
                };
                for (bound, cum) in h.cumulative_buckets() {
                    let series = with_label(&bucket_name, &format!("le=\"{}\"", fmt_bound(bound)));
                    out.push_str(&format!("{series} {cum}\n"));
                }
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("test_roundtrip_total");
        let base = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), base + 5);
        // Same name returns the same handle.
        assert!(std::ptr::eq(c, counter("test_roundtrip_total")));

        let g = gauge("test_level");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        static BOUNDS: &[f64] = &[1.0, 10.0];
        let h = histogram("test_hist", BOUNDS);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-9);
        let cum = h.cumulative_buckets();
        assert_eq!(cum, vec![(1.0, 1), (10.0, 2), (f64::INFINITY, 3)]);
    }

    #[test]
    fn timers_and_spans_record() {
        static BOUNDS: &[f64] = &[1.0];
        let h = histogram("test_span_seconds", BOUNDS);
        let before = h.count();
        {
            let _t = Timer::start(h);
        }
        {
            let _s = Span::enter("test.span", h);
        }
        assert_eq!(h.count(), before + 2);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        counter("render_a_total").add(2);
        counter("render_labeled_total{worker=\"0\"}").add(1);
        counter("render_labeled_total{worker=\"1\"}").add(3);
        gauge("render_depth").set(-2);
        static BOUNDS: &[f64] = &[0.5];
        let h = histogram("render_seconds", BOUNDS);
        h.observe(0.25);
        h.observe(2.0);

        let text = render_prometheus();
        assert!(text.contains("# TYPE render_a_total counter\n"));
        assert!(text.contains("render_a_total 2\n"));
        // One TYPE line for the labelled family, two series.
        assert_eq!(
            text.matches("# TYPE render_labeled_total counter").count(),
            1
        );
        assert!(text.contains("render_labeled_total{worker=\"0\"} 1\n"));
        assert!(text.contains("render_labeled_total{worker=\"1\"} 3\n"));
        assert!(text.contains("# TYPE render_depth gauge\n"));
        assert!(text.contains("render_depth -2\n"));
        assert!(text.contains("# TYPE render_seconds histogram\n"));
        assert!(text.contains("render_seconds_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("render_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("render_seconds_sum 2.25\n"));
        assert!(text.contains("render_seconds_count 2\n"));
    }

    #[test]
    fn trace_sink_writes_strict_json_array() {
        let path =
            std::env::temp_dir().join(format!("telemetry_trace_{}.json", std::process::id()));
        install_trace(&path).unwrap();
        static BOUNDS: &[f64] = &[1.0];
        let h = histogram("trace_test_seconds", BOUNDS);
        {
            let _outer = Span::enter("outer", h);
            let _inner = Span::enter("inner", h);
        }
        finish_trace().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"name\":\"outer\""));
        assert!(text.contains("\"name\":\"inner\""));
        // Every event line is a complete JSON object (strip the trailing
        // comma separator) with the Chrome complete-event shape.
        let events: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\""))
            .collect();
        assert_eq!(events.len(), 2);
        for line in events {
            let obj = line.trim_end_matches(',');
            assert!(obj.starts_with('{') && obj.ends_with('}'));
            assert!(obj.contains("\"ts\":") && obj.contains("\"dur\":"));
        }
    }

    #[test]
    fn label_splicing() {
        assert_eq!(with_label("x", "le=\"1\""), "x{le=\"1\"}");
        assert_eq!(
            with_label("x{worker=\"0\"}", "le=\"1\""),
            "x{worker=\"0\",le=\"1\"}"
        );
        assert_eq!(family("x{worker=\"0\"}"), "x");
        assert_eq!(family("x"), "x");
    }
}
