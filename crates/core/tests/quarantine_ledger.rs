//! Pins the exact quarantine-ledger record (`error_kind` and the rendered
//! `error` string) for each way a pair can fail: a SQL parse error, an
//! unknown database, a blown fuel budget and a caught panic. These strings
//! are what `quarantine.json` stores, so a refactor of the error layer must
//! leave them byte-identical.
//!
//! The panic case arms the process-global fault plan, so every test in this
//! file holds `LOCK`; the file is its own test binary, which keeps the armed
//! plan away from the pipeline's unit tests.

use nv_core::{Nl2SqlToNl2Vis, NvErrorKind, QuarantineEntry, SynthStage, SynthesizerConfig};
use nv_data::ExecBudget;
use nv_fault::FaultPlan;
use nv_spider::{CorpusConfig, SpiderCorpus};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn quarantine(corpus: &SpiderCorpus, cfg: SynthesizerConfig) -> Vec<QuarantineEntry> {
    let mut first: Option<Vec<QuarantineEntry>> = None;
    for threads in [1, 2] {
        let cfg = SynthesizerConfig { threads, ..cfg.clone() };
        let q = Nl2SqlToNl2Vis::new(cfg).synthesize_corpus(corpus).quarantine;
        let key = |q: &[QuarantineEntry]| -> Vec<_> {
            q.iter().map(|e| (e.pair_id, e.stage, e.error_kind, e.error.clone())).collect()
        };
        if let Some(f) = &first {
            assert_eq!(key(f), key(&q), "threads={threads}");
        }
        first = Some(q);
    }
    first.unwrap()
}

#[test]
fn parse_error_and_unknown_database_strings() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut corpus = SpiderCorpus::generate(&CorpusConfig::small(3));
    corpus.pairs[0].sql = "SELECT FROM WHERE (((".to_string();
    corpus.pairs[1].db_name = "no_such_db".to_string();
    let q = quarantine(&corpus, SynthesizerConfig::default());
    assert_eq!(q.len(), 2);

    assert_eq!(q[0].stage, SynthStage::Parse);
    assert_eq!(q[0].error_kind, NvErrorKind::Parse);
    assert_eq!(q[0].error, "[parse] SQL parse error at token 2: expected keyword from");

    assert_eq!(q[1].stage, SynthStage::Lookup);
    assert_eq!(q[1].error_kind, NvErrorKind::Schema);
    assert_eq!(q[1].error, "[schema] unknown database 'no_such_db'");
}

#[test]
fn blown_fuel_budget_string() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(2));
    let cfg = SynthesizerConfig {
        budget: ExecBudget { fuel: 1, ..Default::default() },
        ..Default::default()
    };
    let q = quarantine(&corpus, cfg);
    assert!(!q.is_empty());
    for e in &q {
        assert_eq!(e.stage, SynthStage::Filter);
        assert_eq!(e.error_kind, NvErrorKind::ResourceExhausted);
        assert_eq!(
            e.error,
            "[resource_exhausted] resource exhausted: fuel limit of 1 steps exceeded"
        );
    }
}

#[test]
fn caught_panic_string_is_the_bare_payload() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(2));
    let q = {
        let _armed = nv_fault::arm_scoped(FaultPlan::new(7).site("synth.filter", 1.0));
        quarantine(&corpus, SynthesizerConfig::default())
    };
    assert!(!q.is_empty());
    for e in &q {
        assert_eq!(e.stage, SynthStage::Isolation);
        assert_eq!(e.error_kind, NvErrorKind::Internal);
        assert_eq!(e.error, "[internal] injected fault at synth.filter");
    }
}
