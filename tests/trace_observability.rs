//! Tier-1 gate for the `nv-trace` observability layer wired through the
//! whole pipeline: a small traced corpus synthesis must produce a
//! schema-valid report, its counters must be deterministic across worker
//! thread counts, and a disabled tracer must record nothing.
//!
//! The trace collector is process-global, so every test takes the same
//! serializing gate and starts from `reset()`.

use nvbench::core::{Nl2SqlToNl2Vis, SynthesizerConfig};
use nvbench::spider::{CorpusConfig, SpiderCorpus};
use nvbench::trace;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    trace::disable();
    trace::reset();
    guard
}

/// Run one corpus synthesis with tracing armed and return the report.
fn traced_synthesis(corpus: &SpiderCorpus, threads: usize) -> trace::TraceReport {
    trace::reset();
    trace::enable();
    let cfg = SynthesizerConfig { threads, ..Default::default() };
    let out = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(corpus);
    trace::disable();
    assert!(!out.bench.vis_objects.is_empty(), "synthesis produced nothing");
    let report = trace::report();
    trace::reset();
    report
}

#[test]
fn traced_synthesis_produces_a_schema_valid_report() {
    let _g = serial();
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(5));
    let report = traced_synthesis(&corpus, 2);

    // Every layer the tentpole wires is represented.
    assert_eq!(report.counter("synth.pairs"), corpus.pairs.len() as u64);
    assert!(report.counter("synth.vis") > 0);
    assert!(report.counter("synth.nl") > 0);
    assert!(report.counter("synth.filter.candidates") > 0);
    assert!(report.counter("data.exec.calls") > 0);
    assert!(report.counter("data.exec.fuel_used") > 0);
    assert!(report.counter("par.tasks") >= corpus.pairs.len() as u64);
    assert!(report.gauge("par.queue.peak_depth") > 0);
    for path in ["pair", "pair/parse", "pair/edits", "pair/filter", "pair/nledit"] {
        let s = report.span_stat(path).unwrap_or_else(|| panic!("span {path} missing"));
        assert!(s.count > 0, "span {path} never closed");
    }

    // The JSON document round-trips and carries the v1 schema shape.
    let text = report.to_json_string_pretty();
    let v: serde_json::Value = serde_json::from_str(&text).expect("report JSON re-parses");
    let serde_json::Value::Object(root) = &v else { panic!("root is not an object") };
    assert_eq!(
        root.get("schema"),
        Some(&serde_json::Value::String("nv-trace/v1".into()))
    );
    for section in ["counters", "gauges", "spans"] {
        let Some(serde_json::Value::Object(_)) = root.get(section) else {
            panic!("missing object section '{section}'");
        };
    }
    let serde_json::Value::Object(spans) = root.get("spans").unwrap() else { unreachable!() };
    let serde_json::Value::Object(pair) = spans.get("pair").expect("spans.pair") else {
        panic!("spans.pair is not an object")
    };
    for field in ["count", "total_ns", "mean_ns"] {
        assert!(
            matches!(pair.get(field), Some(serde_json::Value::Int(n)) if *n >= 0),
            "spans.pair.{field} missing or negative"
        );
    }
}

/// The tier-1 determinism contract: every counter outside the two
/// explicitly scheduling-dependent families is identical for 1, 2, and 4
/// worker threads.
///
/// * `data.cache.*` hit/miss *splits* depend on how pairs partition over
///   per-worker caches — but each layer's `hits + misses` total does not,
///   and is asserted equal.
/// * `par.*` describes the pool itself (worker counts, queue depth), which
///   is thread-count-dependent by definition.
///
/// Everything else — executed calls, fuel (cache hits *replay* the cold
/// charge, so warm and cold paths spend identically), scanned rows, synth
/// stage counts, quarantine counts — must not move.
#[test]
fn counters_are_deterministic_across_thread_counts() {
    let _g = serial();
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(7));
    let reports: Vec<trace::TraceReport> =
        [1, 2, 4].iter().map(|&t| traced_synthesis(&corpus, t)).collect();
    let baseline = &reports[0];

    let deterministic = |name: &str| !name.starts_with("data.cache.") && !name.starts_with("par.");
    for (i, r) in reports.iter().enumerate().skip(1) {
        let threads = [1, 2, 4][i];
        let pick = |rep: &trace::TraceReport| -> Vec<(String, u64)> {
            rep.counters
                .iter()
                .filter(|(k, _)| deterministic(k))
                .cloned()
                .collect()
        };
        assert_eq!(pick(baseline), pick(r), "counters diverged at threads={threads}");

        for layer in ["scan", "group"] {
            let total = |rep: &trace::TraceReport| {
                rep.counter(&format!("data.cache.{layer}.hits"))
                    + rep.counter(&format!("data.cache.{layer}.misses"))
            };
            assert_eq!(
                total(baseline),
                total(r),
                "cache layer '{layer}' hit+miss total diverged at threads={threads}"
            );
        }

        // Span *counts* (not times) are deterministic outside the pool.
        let span_counts = |rep: &trace::TraceReport| -> Vec<(String, u64)> {
            rep.spans
                .iter()
                .filter(|(k, _)| !k.starts_with("par"))
                .map(|(k, s)| (k.clone(), s.count))
                .collect()
        };
        assert_eq!(
            span_counts(baseline),
            span_counts(r),
            "span counts diverged at threads={threads}"
        );
    }

    assert!(baseline.counter("data.exec.fuel_used") > 0);
    assert!(baseline.counter("data.exec.scan_rows") > 0);
}

/// `data.exec.scan_rows` counts each body's scan output once per
/// execution, a subquery's scans once per execution, and on a cache hit
/// what the hit's cold build counted. A batch of nested queries therefore
/// counts the same rows uncached, through cold caches and through warm
/// ones, whether one worker runs it or four workers with a cache each
/// split it.
#[test]
fn scan_rows_do_not_depend_on_cache_state_or_threads() {
    use nvbench::ast::tokens::parse_vql_str;
    use nvbench::data::{
        execute_with, table_from, ColumnType, Database, ExecCache, ExecOptions, Value,
    };
    let _g = serial();
    let mut db = Database::new("nested", "Test");
    db.add_table(table_from(
        "t",
        &[("k", ColumnType::Quantitative), ("v", ColumnType::Quantitative)],
        (0..12).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect(),
    ));
    db.add_table(table_from(
        "u",
        &[("k", ColumnType::Quantitative)],
        (0..3).map(|i| vec![Value::Int(i)]).collect(),
    ));
    let queries: Vec<_> = [
        "select t.v from t where t.k in ( select u.k from u )",
        "select t.k , count ( t.* ) from t where t.k in ( select u.k from u ) group by t.k",
        "select t.v from t where t.v > \
         ( select avg ( t.v ) from t where t.k in ( select u.k from u ) )",
        "select t.k , sum ( t.v ) from t where sum ( t.v ) > \
         ( select avg ( t.v ) from t ) group by t.k",
    ]
    .iter()
    .map(|vql| parse_vql_str(vql).unwrap())
    .collect();
    // Run the batch `passes` times on `threads` workers, query i on worker
    // i % threads, and read the scan-row counter.
    let scan_rows = |threads: usize, cached: bool, passes: usize| -> u64 {
        trace::reset();
        trace::enable();
        std::thread::scope(|s| {
            for w in 0..threads {
                let (db, queries) = (&db, &queries);
                s.spawn(move || {
                    let _flush = trace::flush_on_exit();
                    let mut cache = ExecCache::new();
                    for _ in 0..passes {
                        for q in queries.iter().skip(w).step_by(threads) {
                            let opts = ExecOptions {
                                cache: cached.then_some(&mut cache),
                                ..Default::default()
                            };
                            execute_with(db, q, opts).unwrap();
                        }
                    }
                });
            }
        });
        trace::disable();
        let n = trace::report().counter("data.exec.scan_rows");
        trace::reset();
        n
    };
    let once = scan_rows(1, false, 1);
    assert!(once > 0);
    for threads in [1, 4] {
        assert_eq!(scan_rows(threads, false, 1), once, "uncached, threads={threads}");
        assert_eq!(scan_rows(threads, true, 1), once, "cold caches, threads={threads}");
        assert_eq!(scan_rows(threads, true, 2), 2 * once, "cold then warm, threads={threads}");
    }
}

#[test]
fn disabled_tracer_records_nothing_during_synthesis() {
    let _g = serial();
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(3));
    let cfg = SynthesizerConfig { threads: 2, ..Default::default() };
    let out = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(&corpus);
    assert!(!out.bench.vis_objects.is_empty());
    let report = trace::report();
    assert!(report.counters.is_empty(), "{:?}", report.counters);
    assert!(report.gauges.is_empty());
    assert!(report.spans.is_empty());
}
