//! # nv-trace — spans and counters for the synthesis pipeline
//!
//! A deliberately tiny observability layer (no external dependencies beyond
//! the vendored `serde` used for the JSON report). Probes are compiled into
//! the hot layers — the executor, the worker pool, the corpus pipeline —
//! and cost **one relaxed atomic load** when tracing is disabled, which is
//! the default. A session that wants attribution calls [`enable`], runs its
//! workload, and collects a [`TraceReport`].
//!
//! Three probe kinds:
//!
//! * [`count`] — additive counters (`"data.cache.scan.hits"`). Merged by
//!   summation, so totals are deterministic for deterministic workloads
//!   regardless of thread count or scheduling.
//! * [`gauge_max`] — high-water marks (`"par.queue.peak_depth"`). Merged by
//!   `max`.
//! * [`span`] — RAII timing guards. Nested spans record under a
//!   `/`-joined path (`"pair/filter"`); counts are deterministic, the
//!   accumulated nanoseconds obviously are not.
//!
//! Each thread buffers into thread-local maps and merges into the global
//! aggregate when the thread exits (worker threads are scoped per corpus
//! run) or when [`report`]/[`flush`] runs on that thread. This keeps the
//! enabled path lock-free per probe; the single global mutex is touched
//! once per thread, not once per event.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---- arming --------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is tracing armed? One relaxed load; every probe checks this first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm tracing process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disarm tracing. Already-buffered data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ---- aggregation state ---------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall time across all closings, in nanoseconds.
    pub total_ns: u64,
}

#[derive(Default)]
struct Agg {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, u64>,
    spans: HashMap<String, SpanStat>,
}

impl Agg {
    fn merge_into(&mut self, other: &mut Agg) {
        for (k, v) in other.counters.drain() {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges.drain() {
            let e = self.gauges.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        for (k, v) in other.spans.drain() {
            let e = self.spans.entry(k).or_default();
            e.count += v.count;
            e.total_ns += v.total_ns;
        }
    }
}

fn global() -> &'static Mutex<Agg> {
    static GLOBAL: OnceLock<Mutex<Agg>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Agg::default()))
}

/// Thread-local buffer; its `Drop` merges into the global aggregate when
/// the owning thread exits, so scoped worker threads need no explicit
/// flush call.
struct Local {
    agg: Agg,
    /// Stack of open span names on this thread (for path construction).
    stack: Vec<String>,
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
        g.merge_into(&mut self.agg);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local { agg: Agg::default(), stack: Vec::new() });
}

// ---- probes --------------------------------------------------------------

/// Add `delta` to the named counter. No-op when tracing is disabled.
#[inline]
pub fn count(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        match l.agg.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                l.agg.counters.insert(name.to_string(), delta);
            }
        }
    });
}

/// Raise the named high-water mark to at least `value`. No-op when
/// tracing is disabled.
#[inline]
pub fn gauge_max(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        match l.agg.gauges.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                l.agg.gauges.insert(name.to_string(), value);
            }
        }
    });
}

/// Record one completed span occurrence under an explicit path, for call
/// sites that already measured the duration themselves (e.g. the worker
/// pool's per-task timer). No-op when tracing is disabled.
#[inline]
pub fn record_span(path: &str, elapsed_ns: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let e = l.agg.spans.entry(path.to_string()).or_default();
        e.count += 1;
        e.total_ns += elapsed_ns;
    });
}

/// RAII timing guard from [`span`]. Spans opened while another span is
/// open on the same thread record under the joined path
/// (`"outer/inner"`); guards must be dropped in LIFO order.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span {
    open: Option<(String, Instant)>,
}

/// Open a named span on this thread. Disabled tracing returns an inert
/// guard without reading the clock.
#[inline]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let path = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.push(name.to_string());
        l.stack.join("/")
    });
    Span { open: Some((path, Instant::now())) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((path, start)) = self.open.take() else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            let e = l.agg.spans.entry(path).or_default();
            e.count += 1;
            e.total_ns += elapsed;
        });
    }
}

// ---- collection ----------------------------------------------------------

/// Merge this thread's buffer into the global aggregate now. Threads that
/// exit (worker pools) flush automatically; long-lived threads call this —
/// [`report`] does it for the calling thread.
///
/// The automatic thread-exit flush runs from a TLS destructor, which is
/// **not** ordered before `std::thread::scope` returns (the scope waits on
/// the spawn packet, which drops before TLS destructors run). A pool whose
/// caller will read a report right after the scope must therefore flush
/// explicitly inside the worker closure — see [`flush_on_exit`].
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
        g.merge_into(&mut l.agg);
    });
}

/// RAII guard from [`flush_on_exit`]: flushes the owning thread's buffer
/// when dropped.
pub struct FlushGuard {
    _private: (),
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        flush();
    }
}

/// Flush this thread's buffer when the returned guard drops — bind it at
/// the top of a worker closure so every exit path (normal completion,
/// early return, retirement) merges the worker's data *inside* the
/// closure, deterministically before a scoped join returns to the caller.
pub fn flush_on_exit() -> FlushGuard {
    FlushGuard { _private: () }
}

/// Clear all buffered data: the global aggregate and the calling thread's
/// local buffer. Does not change the armed state.
pub fn reset() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.agg = Agg::default();
    });
    let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
    *g = Agg::default();
}

/// Snapshot everything recorded so far (flushing the calling thread
/// first). Counters, gauges, and span paths come out sorted by name, so
/// two reports over identical data compare equal.
pub fn report() -> TraceReport {
    flush();
    let g = global().lock().unwrap_or_else(|e| e.into_inner());
    let mut counters: Vec<(String, u64)> = g.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut gauges: Vec<(String, u64)> = g.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut spans: Vec<(String, SpanStat)> = g.spans.iter().map(|(k, v)| (k.clone(), *v)).collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    TraceReport { counters, gauges, spans }
}

// ---- report --------------------------------------------------------------

/// An aggregated snapshot of every counter, gauge, and span, sorted by
/// name. Produced by [`report`]; serializes to JSON under the
/// `nv-trace/v1` schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub spans: Vec<(String, SpanStat)>,
}

impl TraceReport {
    /// Value of a counter, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of a gauge, 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Stats for a span path, if it ever closed.
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        self.spans.iter().find(|(k, _)| k == path).map(|(_, v)| *v)
    }

    /// Build the `nv-trace/v1` JSON document. The vendored serde has no
    /// map impls, so the object is assembled by hand — which also keeps
    /// key order identical to the sorted report.
    pub fn to_json(&self) -> serde::json::Value {
        use serde::json::{Map, Value};
        let mut counters = Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), Value::Int(*v as i64));
        }
        let mut gauges = Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), Value::Int(*v as i64));
        }
        let mut spans = Map::new();
        for (k, s) in &self.spans {
            let mut o = Map::new();
            o.insert("count".into(), Value::Int(s.count as i64));
            o.insert("total_ns".into(), Value::Int(s.total_ns as i64));
            let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
            o.insert("mean_ns".into(), Value::Int(mean as i64));
            spans.insert(k.clone(), Value::Object(o));
        }
        let mut root = Map::new();
        root.insert("schema".into(), Value::String("nv-trace/v1".into()));
        root.insert("counters".into(), Value::Object(counters));
        root.insert("gauges".into(), Value::Object(gauges));
        root.insert("spans".into(), Value::Object(spans));
        Value::Object(root)
    }

    /// Pretty-printed JSON of [`Self::to_json`].
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_json_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The collector is process-global; tests must not interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        reset();
        guard
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _g = serial();
        count("x", 5);
        gauge_max("g", 9);
        let s = span("outer");
        drop(s);
        record_span("pre", 123);
        let r = report();
        assert!(r.counters.is_empty(), "{:?}", r.counters);
        assert!(r.gauges.is_empty());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn nested_spans_record_joined_paths() {
        let _g = serial();
        enable();
        {
            let _a = span("corpus");
            {
                let _b = span("pair");
                let _c = span("parse");
            }
            {
                let _b = span("pair");
            }
        }
        disable();
        let r = report();
        assert_eq!(r.span_stat("corpus").unwrap().count, 1);
        assert_eq!(r.span_stat("corpus/pair").unwrap().count, 2);
        assert_eq!(r.span_stat("corpus/pair/parse").unwrap().count, 1);
        assert!(r.span_stat("pair").is_none(), "inner span leaked out of its parent path");
    }

    #[test]
    fn cross_thread_counters_merge_by_sum_and_gauges_by_max() {
        let _g = serial();
        enable();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                s.spawn(move || {
                    // The explicit guard — not the TLS-destructor backstop,
                    // which is NOT ordered before the scoped join — is what
                    // makes this data reliably visible to report() below.
                    let _f = flush_on_exit();
                    count("work.items", 3);
                    gauge_max("work.depth", 10 + i);
                    record_span("work/task", 1_000);
                });
            }
        });
        count("work.items", 1);
        disable();
        let r = report();
        assert_eq!(r.counter("work.items"), 13);
        assert_eq!(r.gauge("work.depth"), 13);
        let s = r.span_stat("work/task").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.total_ns, 4_000);
    }

    #[test]
    fn reset_clears_and_report_is_sorted() {
        let _g = serial();
        enable();
        count("b", 1);
        count("a", 1);
        reset();
        count("z", 2);
        count("a", 2);
        disable();
        let r = report();
        let names: Vec<&str> = r.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(r.counter("b"), 0);
    }

    #[test]
    fn json_report_has_v1_schema_shape() {
        let _g = serial();
        enable();
        count("c", 7);
        gauge_max("g", 3);
        record_span("s", 42);
        disable();
        let v = report().to_json();
        let serde::json::Value::Object(o) = &v else { panic!("root not an object") };
        assert_eq!(
            o.get("schema"),
            Some(&serde::json::Value::String("nv-trace/v1".into()))
        );
        let serde::json::Value::Object(c) = o.get("counters").unwrap() else { panic!() };
        assert_eq!(c.get("c"), Some(&serde::json::Value::Int(7)));
        let serde::json::Value::Object(sp) = o.get("spans").unwrap() else { panic!() };
        let serde::json::Value::Object(s) = sp.get("s").unwrap() else { panic!() };
        assert_eq!(s.get("count"), Some(&serde::json::Value::Int(1)));
        assert_eq!(s.get("total_ns"), Some(&serde::json::Value::Int(42)));
        assert_eq!(s.get("mean_ns"), Some(&serde::json::Value::Int(42)));
        // And it parses back.
        let text = report().to_json_string_pretty();
        serde::json::parse(&text).expect("report JSON re-parses");
    }
}
