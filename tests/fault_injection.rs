//! Fault-injection harness: corpus synthesis under deterministically
//! injected parser errors, executor errors, and filter *panics* must
//! (a) never abort the process, (b) account for every input pair exactly
//! once (digest xor quarantine), and (c) leave the clean pairs bit-identical
//! to a no-fault run — at any thread count.
//!
//! This lives in its own integration-test binary because the fault plan is
//! process-global; the mutex below serializes the tests that arm it.

use nvbench::core::fault::{self, FaultPlan};
use nvbench::core::{CorpusSynthesis, Nl2SqlToNl2Vis, QuarantineEntry, SynthesizerConfig};
use nvbench::prelude::*;
use std::sync::Mutex;

static ARM_LOCK: Mutex<()> = Mutex::new(());

fn corpus() -> SpiderCorpus {
    // 8 dbs × 12 pairs: big enough that all three injection sites fire at
    // the probabilities in `plan()`, small enough to synthesize 5× quickly.
    SpiderCorpus::generate(&CorpusConfig {
        n_databases: 8,
        ..CorpusConfig::small(8)
    })
}

fn synthesize(corpus: &SpiderCorpus, threads: usize) -> CorpusSynthesis {
    let cfg = SynthesizerConfig { threads, ..Default::default() };
    Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(corpus)
}

/// The plan used by every test here: all three sites armed, probabilities
/// high enough that each family of failure actually occurs on this corpus.
/// Injection is keyed on *content* (SQL text, query shape, candidate VQL),
/// so the same pairs fail no matter how work is scheduled.
fn plan() -> FaultPlan {
    FaultPlan::new(0xfau64)
        .site("sql.parse", 0.15)
        .site("data.exec", 0.08)
        .site("synth.filter", 0.03)
}

/// Everything quarantine-related except elapsed time, which is wall-clock
/// and legitimately differs between runs.
fn sans_elapsed(q: &[QuarantineEntry]) -> Vec<(usize, String, String, String)> {
    q.iter()
        .map(|e| {
            (e.pair_id, e.db_name.clone(), format!("{:?}", e.stage), e.error.clone())
        })
        .collect()
}

#[test]
fn synthesis_under_faults_is_isolated_accounted_and_deterministic() {
    let _lock = ARM_LOCK.lock().unwrap();
    let corpus = corpus();
    let n = corpus.pairs.len();
    assert!(n >= 50, "need a corpus big enough for every site to fire, got {n}");

    // Baseline: no faults. Nothing may be quarantined.
    fault::disarm();
    let baseline = synthesize(&corpus, 2);
    assert!(
        baseline.quarantine.is_empty(),
        "clean corpus must synthesize fully: {:?}",
        baseline.quarantine
    );

    let mut runs: Vec<CorpusSynthesis> = Vec::new();
    for threads in [1, 2, 4] {
        let _guard = fault::arm_scoped(plan());
        // (a) No aborts: reaching the next line at all under injected
        // panics is the point of the catch_unwind isolation layer.
        let out = synthesize(&corpus, threads);

        // (b) Complete accounting: every pair has a digest xor a
        // quarantine entry, and ids line up with the corpus.
        assert_eq!(out.pair_digests.len(), n, "threads={threads}");
        let quarantined = out.pair_digests.iter().filter(|d| d.is_none()).count();
        assert_eq!(quarantined, out.quarantine.len(), "threads={threads}");
        let none_ids: Vec<usize> = corpus
            .pairs
            .iter()
            .zip(&out.pair_digests)
            .filter(|(_, d)| d.is_none())
            .map(|(p, _)| p.id)
            .collect();
        let q_ids: Vec<usize> = out.quarantine.iter().map(|q| q.pair_id).collect();
        assert_eq!(none_ids, q_ids, "threads={threads}");

        // No pair may be lost to a dead worker: every quarantine entry
        // must carry a real injected/synthesized error, not a placeholder.
        for q in &out.quarantine {
            assert!(
                !q.error.contains("worker died"),
                "threads={threads}: worker death leaked into quarantine: {q:?}"
            );
        }

        // The plan actually exercised all three failure families.
        assert!(!out.quarantine.is_empty(), "threads={threads}: no fault fired");
        let stages: std::collections::HashSet<String> =
            out.quarantine.iter().map(|q| format!("{:?}", q.stage)).collect();
        assert!(stages.contains("Parse"), "threads={threads}: {stages:?}");
        assert!(stages.contains("Filter"), "threads={threads}: {stages:?}");
        assert!(stages.contains("Isolation"), "threads={threads}: {stages:?}");

        // (c) Clean pairs are bit-identical to the no-fault baseline:
        // injection is per-pair, so an uninfected pair's pre-dedup output
        // cannot change.
        for (i, (faulted, clean)) in
            out.pair_digests.iter().zip(&baseline.pair_digests).enumerate()
        {
            if let Some(f) = faulted {
                assert_eq!(
                    Some(f),
                    clean.as_ref(),
                    "pair {i} (threads={threads}) diverged from the no-fault run"
                );
            }
        }

        runs.push(out);
    }

    // Bit-identical across thread counts: same benchmark, same quarantine
    // (up to elapsed time), same digests.
    let first = &runs[0];
    for (k, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run.pair_digests, first.pair_digests, "run {k}");
        assert_eq!(sans_elapsed(&run.quarantine), sans_elapsed(&first.quarantine), "run {k}");
        assert_eq!(run.bench.pairs, first.bench.pairs, "run {k}");
        assert_eq!(run.bench.vis_objects.len(), first.bench.vis_objects.len(), "run {k}");
        for (a, b) in run.bench.vis_objects.iter().zip(&first.bench.vis_objects) {
            assert_eq!(a.vql, b.vql, "run {k}");
            assert_eq!(a.db_name, b.db_name, "run {k}");
            assert_eq!(a.source_pair_id, b.source_pair_id, "run {k}");
        }
    }

    // The armed runs really did lose pairs relative to baseline.
    assert!(first.bench.vis_objects.len() < baseline.bench.vis_objects.len());
}

/// The differential oracle and an armed fault plan coexist: injected
/// `data.exec` errors are classified as such (not as divergences), the
/// remaining executions still agree with the reference interpreter, and the
/// whole report is deterministic under a content-keyed plan.
#[test]
fn differential_oracle_coexists_with_armed_faults() {
    use nv_oracle::{run_differential, DiffConfig};
    let _lock = ARM_LOCK.lock().unwrap();

    let run = || {
        let _guard = fault::arm_scoped(FaultPlan::new(0xfau64).site("data.exec", 0.10));
        run_differential(&DiffConfig::new(0xC0ED, 150))
    };
    let a = run();
    assert!(a.is_clean(), "injected faults misread as divergences: {}", a.summary());
    assert!(
        a.injected_faults > 0,
        "data.exec at p=0.10 never fired over {} executions",
        a.executions
    );
    assert!(
        a.agreements > a.injected_faults,
        "almost everything faulted — differential signal lost: {}",
        a.summary()
    );

    // Content-keyed injection ⇒ the same queries fault on every run.
    let b = run();
    assert_eq!(
        (a.executions, a.agreements, a.agreed_errors, a.injected_faults),
        (b.executions, b.agreements, b.agreed_errors, b.injected_faults),
        "fault/oracle interaction is not deterministic"
    );

    // Disarmed, the very same batch is fault-free and fully clean.
    fault::disarm();
    let c = run_differential(&DiffConfig::new(0xC0ED, 150));
    assert!(c.is_clean(), "{}", c.summary());
    assert_eq!(c.injected_faults, 0);
    assert!(c.agreements > a.agreements, "disarming should recover faulted executions");
}

#[test]
fn disarmed_plan_costs_nothing_and_changes_nothing() {
    let _lock = ARM_LOCK.lock().unwrap();
    fault::disarm();
    let corpus = corpus();
    let a = synthesize(&corpus, 2);
    let b = synthesize(&corpus, 2);
    assert!(a.quarantine.is_empty() && b.quarantine.is_empty());
    assert_eq!(a.pair_digests, b.pair_digests);
    assert_eq!(a.bench.pairs, b.bench.pairs);
}

#[test]
fn quarantine_ledger_serializes_to_documented_json() {
    let _lock = ARM_LOCK.lock().unwrap();
    let corpus = corpus();
    let out = {
        let _guard = fault::arm_scoped(plan());
        synthesize(&corpus, 2)
    };
    assert!(!out.quarantine.is_empty());
    let json = serde_json::to_value(&out.quarantine).unwrap();
    let arr = json.as_array().unwrap();
    assert_eq!(arr.len(), out.quarantine.len());
    for entry in arr {
        for key in ["pair_id", "db_name", "stage", "error_kind", "error", "elapsed_us"] {
            assert!(!entry[key].is_null(), "missing {key}: {entry}");
        }
    }
}
