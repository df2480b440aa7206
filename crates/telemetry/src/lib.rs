//! # pgsd-telemetry — end-to-end observability for the diversifying toolchain
//!
//! A lightweight, dependency-free span/metrics layer threaded through the
//! whole pipeline: compile (lex → parse → IR passes → isel → regalloc →
//! frame), diversify (shift / subst / NOP passes), emit, validate, and
//! emulated execution. The paper's argument is quantitative — per-block
//! NOP probability driven by profile heat, overhead in cycles, security in
//! surviving gadgets — and this crate is where those quantities become
//! observable instead of being re-derived ad hoc by every benchmark
//! binary.
//!
//! Three layers:
//!
//! * **Spans** ([`span`]): hierarchical timed intervals over pipeline
//!   phases, exported as Chrome `trace_event` JSON (loadable in
//!   `about:tracing` / Perfetto) by [`export::chrome_trace`];
//! * **Metrics** ([`metrics`]): additive counters (labels encoded in the
//!   key), float gauges, and exact-value histograms, exported as a flat
//!   JSON document with a `schema_version` field ([`export::MetricsDoc`]);
//! * **The handle** ([`Telemetry`]): a cheaply cloneable, optionally-armed
//!   reference threaded through `BuildConfig` and the drivers. A disabled
//!   handle is a `None` — every recording call is a single branch, so
//!   telemetry-off builds measure identically to builds that predate this
//!   crate.
//!
//! # Examples
//!
//! ```
//! use pgsd_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _build = tel.span("build");
//!     let _pass = tel.span("nop_pass");
//!     tel.add("nop.inserted", 17);
//!     tel.observe("nop.p_pct", 30);
//! }
//! let doc = tel.snapshot();
//! assert_eq!(doc.counters["nop.inserted"], 17);
//! let spans = tel.spans();
//! assert_eq!(spans[1].parent, Some(0)); // nop_pass nested under build
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod span;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use export::{chrome_trace, MetricsDoc, SCHEMA_VERSION};
pub use metrics::{labeled, HeatBucket, Histogram};
pub use span::SpanRecord;

use span::SpanTable;

#[derive(Debug, Default)]
struct Inner {
    spans: SpanTable,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The recording backend behind an enabled [`Telemetry`] handle.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("telemetry collector poisoned")
    }
}

/// A cheaply cloneable telemetry handle: either armed (shared
/// [`Collector`]) or disabled (all recording calls are no-ops costing one
/// branch).
#[derive(Clone, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
}

impl Telemetry {
    /// A disabled handle — records nothing.
    pub fn disabled() -> Telemetry {
        Telemetry { collector: None }
    }

    /// An armed handle with a fresh collector.
    pub fn enabled() -> Telemetry {
        Telemetry {
            collector: Some(Arc::new(Collector::new())),
        }
    }

    /// `true` if recording is armed. Callers building expensive metric
    /// keys (formatted names, per-function labels) should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Opens a span named `name`; it closes when the returned guard drops.
    /// Nesting follows guard lifetimes.
    pub fn span(&self, name: &str) -> Span {
        match &self.collector {
            None => Span { owner: None },
            Some(c) => {
                let now = c.now_ns();
                let idx = c.lock().spans.open(name, now);
                Span {
                    owner: Some((Arc::clone(c), idx)),
                }
            }
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(c) = &self.collector {
            *c.lock().counters.entry(name.to_owned()).or_insert(0) += delta;
        }
    }

    /// Adds `delta` to a labeled counter (`name{k=v,…}`).
    pub fn add_labeled(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if self.is_enabled() {
            self.add(&labeled(name, labels), delta);
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(c) = &self.collector {
            c.lock().gauges.insert(name.to_owned(), value);
        }
    }

    /// Records one observation of `value` in histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(c) = &self.collector {
            c.lock()
                .histograms
                .entry(name.to_owned())
                .or_default()
                .record(value);
        }
    }

    /// A fresh handle with the same armed/disabled state as `self` but
    /// its **own** collector. Parallel jobs record into children so
    /// workers never contend on (or interleave within) the parent's
    /// collector; the caller merges each child back with [`merge_from`]
    /// in job-index order, which keeps the merged document byte-identical
    /// at any thread count.
    ///
    /// [`merge_from`]: Telemetry::merge_from
    pub fn child(&self) -> Telemetry {
        if self.is_enabled() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }

    /// Merges everything `child` recorded into this handle: counters and
    /// histograms add (commutative — any merge order matches the serial
    /// totals), gauges are last-write-wins in *call* order (so merging
    /// children in job-index order reproduces the serial final value),
    /// and the child's span tree is grafted under the currently open
    /// span with timestamps rebased onto this collector's epoch.
    ///
    /// No-op when either handle is disabled or both share one collector.
    pub fn merge_from(&self, child: &Telemetry) {
        let (Some(dst), Some(src)) = (&self.collector, &child.collector) else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        // Copy the child's records out under its lock alone, then merge
        // under ours alone — the two locks are never held together.
        let (spans, counters, gauges, histograms) = {
            let inner = src.lock();
            (
                inner.spans.spans.clone(),
                inner.counters.clone(),
                inner.gauges.clone(),
                inner.histograms.clone(),
            )
        };
        let shift_ns = u64::try_from(src.epoch.saturating_duration_since(dst.epoch).as_nanos())
            .unwrap_or(u64::MAX);
        let mut inner = dst.lock();
        inner.spans.absorb(&spans, shift_ns);
        for (k, v) in counters {
            *inner.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in gauges {
            inner.gauges.insert(k, v);
        }
        for (k, h) in histograms {
            inner.histograms.entry(k).or_default().merge(&h);
        }
    }

    /// A snapshot of all counters, gauges and histograms as a
    /// [`MetricsDoc`] (empty when disabled).
    pub fn snapshot(&self) -> MetricsDoc {
        let mut doc = MetricsDoc {
            schema_version: SCHEMA_VERSION,
            ..MetricsDoc::default()
        };
        if let Some(c) = &self.collector {
            let inner = c.lock();
            doc.counters = inner.counters.clone();
            doc.gauges = inner.gauges.clone();
            doc.histograms = inner.histograms.clone();
        }
        doc
    }

    /// A snapshot of all recorded spans, in start (pre-)order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.collector {
            None => Vec::new(),
            Some(c) => c.lock().spans.spans.clone(),
        }
    }

    /// The Chrome `trace_event` JSON for all recorded spans.
    pub fn trace_json(&self) -> String {
        chrome_trace(&self.spans())
    }

    /// The metrics JSON document (counters, gauges, histograms).
    pub fn metrics_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

/// Two handles are equal when they are both disabled or share one
/// collector — so configuration structs carrying a handle (e.g.
/// `BuildConfig`) keep a meaningful `PartialEq`.
impl PartialEq for Telemetry {
    fn eq(&self, other: &Telemetry) -> bool {
        match (&self.collector, &other.collector) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// RAII guard for an open span; the span closes when this drops.
#[must_use = "a span closes when its guard drops — bind it to a variable"]
pub struct Span {
    owner: Option<(Arc<Collector>, usize)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((c, idx)) = self.owner.take() {
            let now = c.now_ns();
            c.lock().spans.close(idx, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        let _s = tel.span("build");
        tel.add("c", 1);
        tel.observe("h", 1);
        tel.set_gauge("g", 1.0);
        assert!(!tel.is_enabled());
        assert!(tel.spans().is_empty());
        let doc = tel.snapshot();
        assert!(doc.counters.is_empty() && doc.histograms.is_empty() && doc.gauges.is_empty());
    }

    #[test]
    fn span_nesting_and_ordering() {
        let tel = Telemetry::enabled();
        {
            let _build = tel.span("build");
            {
                let _lower = tel.span("lower");
                let _isel = tel.span("isel");
            }
            let _emit = tel.span("emit");
        }
        let spans = tel.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        // Start order is pre-order over the tree.
        assert_eq!(names, ["build", "lower", "isel", "emit"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[2].depth, 2);
        assert!(spans.iter().all(|s| s.closed));
        // A child never starts before or outlives its parent.
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(s.start_ns >= spans[p].start_ns);
                assert!(s.start_ns + s.dur_ns <= spans[p].start_ns + spans[p].dur_ns);
            }
        }
    }

    /// Threads sharing one handle nest spans on their own stacks: each
    /// `emit{i}` sits under its own thread's `build{i}`, and the thread
    /// that finishes first closes none of the other's spans.
    #[test]
    fn concurrent_threads_nest_and_close_only_their_own_spans() {
        let tel = Telemetry::enabled();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for i in 0..2 {
                let (tel, barrier) = (&tel, &barrier);
                scope.spawn(move || {
                    let build = tel.span(&format!("build{i}"));
                    barrier.wait(); // both builds open
                    let emit = tel.span(&format!("emit{i}"));
                    barrier.wait(); // all four spans open
                    if i == 0 {
                        drop(emit);
                        drop(build);
                    }
                    barrier.wait(); // thread 0's guards dropped
                    if i == 1 {
                        for s in tel.spans().iter().filter(|s| s.name.ends_with('1')) {
                            assert!(!s.closed, "{} closed before its guard dropped", s.name);
                        }
                    }
                });
            }
        });
        let spans = tel.spans();
        let find = |name: String| spans.iter().position(|s| s.name == name).unwrap();
        for i in 0..2 {
            let (build, emit) = (find(format!("build{i}")), find(format!("emit{i}")));
            assert_eq!(spans[build].parent, None, "build{i}");
            assert_eq!(spans[emit].parent, Some(build), "emit{i}");
            assert_eq!(spans[emit].depth, 1);
        }
        assert!(spans.iter().all(|s| s.closed));
    }

    #[test]
    fn counters_accumulate_and_clones_share() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        tel.add("nop.inserted", 2);
        clone.add("nop.inserted", 3);
        clone.add_labeled("nop.inserted", &[("heat", "cold")], 1);
        let doc = tel.snapshot();
        assert_eq!(doc.counters["nop.inserted"], 5);
        assert_eq!(doc.counters["nop.inserted{heat=cold}"], 1);
        assert_eq!(tel, clone);
        assert_ne!(tel, Telemetry::enabled());
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
    }

    #[test]
    fn child_inherits_armed_state_but_not_the_collector() {
        let on = Telemetry::enabled();
        assert!(on.child().is_enabled());
        assert_ne!(on, on.child());
        assert!(!Telemetry::disabled().child().is_enabled());
    }

    #[test]
    fn merge_is_deterministic_and_matches_serial_recording() {
        let record = |tel: &Telemetry, salt: u64| {
            let _s = tel.span("build");
            tel.add("nop.inserted", salt);
            tel.observe("nop.pad_len", salt);
            tel.set_gauge("train.x_max", salt as f64);
        };

        // Serial reference: everything recorded on one collector.
        let serial = Telemetry::enabled();
        for salt in 1..=4 {
            record(&serial, salt);
        }

        // Parallel shape: each job records into its own child, children
        // merged in job-index order.
        let parent = Telemetry::enabled();
        let children: Vec<Telemetry> = (1..=4)
            .map(|salt| {
                let c = parent.child();
                record(&c, salt);
                c
            })
            .collect();
        for c in &children {
            parent.merge_from(c);
        }

        assert_eq!(parent.metrics_json(), serial.metrics_json());
        let spans = parent.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.name == "build" && s.closed));
    }

    #[test]
    fn merge_grafts_spans_under_the_open_span() {
        let parent = Telemetry::enabled();
        let child = parent.child();
        {
            let _inner = child.span("job");
            child.add("c", 1);
        }
        {
            let _pop = parent.span("population");
            parent.merge_from(&child);
        }
        let spans = parent.spans();
        assert_eq!(spans[0].name, "population");
        assert_eq!(spans[1].name, "job");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].depth, 1);
        assert_eq!(parent.snapshot().counters["c"], 1);
    }

    #[test]
    fn merge_with_disabled_handles_is_a_noop() {
        let on = Telemetry::enabled();
        on.merge_from(&Telemetry::disabled());
        Telemetry::disabled().merge_from(&on);
        on.add("c", 1);
        on.merge_from(&on.clone()); // shared collector: no double count
        assert_eq!(on.snapshot().counters["c"], 1);
    }

    #[test]
    fn metrics_json_round_trips_through_the_parser() {
        let tel = Telemetry::enabled();
        tel.add("a", 7);
        tel.observe("h", 4);
        tel.observe("h", 4);
        tel.set_gauge("g", 0.5);
        let text = tel.metrics_json();
        let doc = MetricsDoc::from_json(&text).unwrap();
        assert_eq!(doc, tel.snapshot());
        assert_eq!(doc.to_json(), text);
    }

    #[test]
    fn trace_json_is_loadable() {
        let tel = Telemetry::enabled();
        {
            let _a = tel.span("frontend");
            let _b = tel.span("lex");
        }
        let v = json::parse(&tel.trace_json()).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
