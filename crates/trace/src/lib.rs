//! Structured tracing for the perfport workspace.
//!
//! The paper's evaluation is only as convincing as the evidence behind
//! each number: region fork-join costs, per-worker chunk imbalance,
//! simulated launch/coalescing behaviour, warm-up exclusion. This crate
//! records the *timeline* of that evidence as **spans** (nested, timed
//! regions whose end events carry the region's arguments), without
//! perturbing the measurements themselves. Quantities are recorded once,
//! in `perfport-telemetry`; a [`TraceSession`] appends the telemetry
//! delta of its lifetime as counter events when it finishes.
//!
//! - **Zero cost when disabled.** Every instrumentation site starts
//!   with one relaxed atomic load; when no collector is installed the
//!   site does nothing else — no allocation, no formatting, no lock.
//! - **Observation only.** Recording never feeds back into modelled
//!   timings: results are bit-identical with tracing on and off (the
//!   end-to-end suite asserts this).
//! - **Three exporters.** JSONL event logs for ad-hoc grepping, Chrome
//!   `trace_event` JSON for `chrome://tracing`/Perfetto, and a plain
//!   hierarchical text summary ([`summary::render`]).
//!
//! # Quickstart
//!
//! ```
//! use perfport_trace as trace;
//!
//! let session = trace::TraceSession::start();
//! {
//!     let mut sp = trace::span("demo", "outer");
//!     sp.arg("n", 42u64);
//!     let _inner = trace::span("demo", "inner");
//!     perfport_telemetry::counter_add("demo/items", 42);
//! }
//! let events = session.finish();
//! // 2 begins + 2 ends, then the session's telemetry delta (in a
//! // `stub` telemetry build the delta is empty).
//! assert!(events.len() >= 4);
//! let chrome = trace::export::chrome(&events);
//! assert!(chrome.contains("\"traceEvents\""));
//! println!("{}", trace::summary::render(&events));
//! ```

pub mod collector;
pub mod event;
pub mod export;
pub mod json;
pub mod summary;

pub use collector::Collector;
pub use event::{Event, EventKind, Value};

use perfport_telemetry::Snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Global enable flag; checked with one relaxed load on every
/// instrumentation site before anything else happens.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed collector. A `Mutex<Option<Arc<..>>>` instead of a
/// `OnceLock` so a session can be torn down and a new one installed
/// (each bench invocation is its own session).
static GLOBAL: Mutex<Option<Arc<Collector>>> = Mutex::new(None);

/// Whether a collector is currently installed. Instrumentation sites
/// can use this to skip preparing expensive arguments.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Uninstalls `collector` only if it is still the installed one, so
/// ending an older session leaves a newer one recording.
fn uninstall_if_current(collector: &Arc<Collector>) {
    let mut slot = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    if slot.as_ref().is_some_and(|c| Arc::ptr_eq(c, collector)) {
        ENABLED.store(false, Ordering::Relaxed);
        *slot = None;
    }
}

fn current() -> Option<Arc<Collector>> {
    if !enabled() {
        return None;
    }
    GLOBAL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// An installed-collector session with RAII teardown: the common
/// pattern for tests and binaries.
///
/// `start` installs a fresh collector and snapshots the telemetry
/// registry; `finish` (or drop) uninstalls the collector if it is still
/// the installed one. `finish` hands back the recorded events followed
/// by one [`EventKind::Counter`] event per telemetry counter and
/// histogram that changed during the session.
pub struct TraceSession {
    collector: Arc<Collector>,
    telemetry_start: Snapshot,
}

impl TraceSession {
    /// Installs a fresh global collector, replacing any previous one.
    pub fn start() -> Self {
        let collector = Arc::new(Collector::new());
        let telemetry_start = perfport_telemetry::snapshot();
        *GLOBAL.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&collector));
        ENABLED.store(true, Ordering::Relaxed);
        TraceSession {
            collector,
            telemetry_start,
        }
    }

    /// Uninstalls the collector and returns everything it recorded, in
    /// recording order, then the session's telemetry delta: a counter
    /// `a/b/c` becomes the event `cat: "a", name: "b/c"` carrying
    /// `value`; a histogram carries `count` and `sum`.
    pub fn finish(self) -> Vec<Event> {
        uninstall_if_current(&self.collector);
        let delta = perfport_telemetry::snapshot().delta_since(&self.telemetry_start);
        for (key, &value) in &delta.counters {
            if value > 0 {
                self.record_delta(key, vec![("value".to_string(), Value::U64(value))]);
            }
        }
        for (key, hist) in &delta.histograms {
            if hist.count > 0 {
                let args = vec![
                    ("count".to_string(), Value::U64(hist.count)),
                    ("sum".to_string(), Value::U64(hist.sum)),
                ];
                self.record_delta(key, args);
            }
        }
        self.collector.snapshot()
    }

    fn record_delta(&self, key: &str, args: Vec<(String, Value)>) {
        let (cat, name) = key.split_once('/').unwrap_or(("telemetry", key));
        self.collector
            .record(EventKind::Counter, cat, name.to_string(), args);
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        uninstall_if_current(&self.collector);
    }
}

/// Opens a span: records a begin event now and an end event when the
/// returned guard drops. When tracing is disabled this is a no-op that
/// performs a single atomic load.
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    match current() {
        Some(collector) => {
            let name = name.into();
            collector.record(EventKind::SpanBegin, cat, name.clone(), Vec::new());
            SpanGuard {
                inner: Some(SpanInner {
                    collector,
                    cat,
                    name,
                    args: Vec::new(),
                }),
            }
        }
        None => SpanGuard { inner: None },
    }
}

/// Records an instantaneous event with arguments.
pub fn instant(cat: &'static str, name: impl Into<String>, args: Vec<(String, Value)>) {
    if let Some(collector) = current() {
        collector.record(EventKind::Instant, cat, name.into(), args);
    }
}

struct SpanInner {
    collector: Arc<Collector>,
    cat: &'static str,
    name: String,
    args: Vec<(String, Value)>,
}

/// RAII handle for an open span. Arguments attached with [`arg`]
/// travel on the span's end event (they are usually only known once the
/// work has run: imbalance, counters, throughput).
///
/// [`arg`]: SpanGuard::arg
#[must_use = "a span ends when this guard drops"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Whether this guard is actually recording (tracing enabled at
    /// creation). Use to skip preparing expensive argument values.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an argument to the span's end event.
    pub fn arg(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key.into(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner
                .collector
                .record(EventKind::SpanEnd, inner.cat, inner.name, inner.args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global tracer is process-wide state; serialize the tests that
    // touch it.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let mut sp = span("t", "nothing");
        assert!(!sp.is_recording());
        sp.arg("ignored", 1u64);
        drop(sp);
        // Installing afterwards must observe an empty world.
        let session = TraceSession::start();
        assert!(session.finish().is_empty());
    }

    #[test]
    fn session_collects_nested_spans() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        {
            let mut sp = span("cat", "outer");
            sp.arg("answer", 42u64);
            let _inner = span("cat", "inner");
        }
        let events = session.finish();
        assert!(!enabled());
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanBegin, // outer
                EventKind::SpanBegin, // inner
                EventKind::SpanEnd,   // inner
                EventKind::SpanEnd,   // outer
            ]
        );
        let outer_end = &events[3];
        assert_eq!(outer_end.name, "outer");
        assert_eq!(outer_end.args[0].0, "answer");
        assert_eq!(outer_end.args[0].1, Value::U64(42));
    }

    #[test]
    fn session_exports_its_telemetry_delta() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // The registry is process-global: keys are namespaced to this
        // test, and one is touched only before the session starts.
        perfport_telemetry::counter_add("trace_test/before_only", 3);
        let session = TraceSession::start();
        perfport_telemetry::counter_add("trace_test/x", 5);
        perfport_telemetry::observe("trace_test/h", 40);
        let events = session.finish();
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.kind == EventKind::Counter && e.cat == "trace_test" && e.name == name)
        };
        let x = find("x").expect("counter delta exported");
        assert_eq!(x.arg("value"), Some(&Value::U64(5)));
        let h = find("h").expect("histogram delta exported");
        assert_eq!(h.arg("count"), Some(&Value::U64(1)));
        assert_eq!(h.arg("sum"), Some(&Value::U64(40)));
        assert!(find("before_only").is_none());
    }

    #[test]
    fn finishing_an_older_session_keeps_the_newer_one_recording() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let older = TraceSession::start();
        let newer = TraceSession::start();
        older.finish();
        assert!(enabled());
        drop(span("t", "after_older_finished"));
        let events = newer.finish();
        assert!(!enabled());
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::SpanEnd && e.name == "after_older_finished"));
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        for i in 0..10 {
            let mut sp = span("t", format!("s{i}"));
            sp.arg("i", i as u64);
        }
        let events = session.finish();
        let times: Vec<u128> = events.iter().map(|e| e.ts_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "single-thread events must be ordered");
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let session = TraceSession::start();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..50 {
                        let mut sp = span("mt", format!("t{t}"));
                        sp.arg("i", i as u64);
                    }
                });
            }
        });
        let events = session.finish();
        assert_eq!(events.len(), 4 * 50 * 2);
        // Each thread's events carry a consistent, distinct tid.
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }
}
