//! Shared experiment context: the synthesized benchmark, splits, trained
//! models and simulated studies, built once per scale and cached.

use nvbench::core::{Nl2SqlToNl2Vis, NvBench, QuarantineEntry, Split, SynthesizerConfig};
use nvbench::nn::ModelVariant;
use nvbench::seq2vis::{Dataset, Seq2Vis, Seq2VisConfig};
use nvbench::spider::{CorpusConfig, SpiderCorpus};
use std::sync::OnceLock;

/// Experiment scale. `Quick` keeps tests and `reproduce quick` snappy;
/// `Full` is what the `reproduce` binary uses to regenerate EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn corpus_config(self) -> CorpusConfig {
        match self {
            Scale::Quick => CorpusConfig {
                n_databases: 6,
                pairs_per_db: 25,
                seed: 42,
                query_cfg: Default::default(),
            },
            // Scaled to single-core CPU-minutes (nvBench itself has 153
            // databases / 25,750 pairs; the scaling is noted in
            // EXPERIMENTS.md).
            Scale::Full => CorpusConfig {
                n_databases: 24,
                pairs_per_db: 35,
                seed: 42,
                query_cfg: Default::default(),
            },
        }
    }

    pub fn model_config(self, variant: ModelVariant) -> Seq2VisConfig {
        match self {
            Scale::Quick => Seq2VisConfig {
                max_epochs: 2,
                patience: 2,
                ..Seq2VisConfig::tiny(variant)
            },
            Scale::Full => Seq2VisConfig {
                embed_dim: 48,
                hidden: 72,
                max_epochs: 18,
                patience: 5,
                ..Seq2VisConfig::new(variant)
            },
        }
    }

    /// Cap on the number of training samples (None = all).
    pub fn train_cap(self) -> Option<usize> {
        match self {
            Scale::Quick => Some(150),
            Scale::Full => Some(3600),
        }
    }

    /// Cap on evaluated test pairs.
    pub fn test_cap(self) -> Option<usize> {
        match self {
            Scale::Quick => Some(80),
            Scale::Full => Some(600),
        }
    }
}

/// The benchmark + split for a scale.
pub struct Context {
    pub corpus: SpiderCorpus,
    pub bench: NvBench,
    pub split: Split,
    /// Input pairs the synthesizer quarantined (empty on a healthy corpus).
    pub quarantine: Vec<QuarantineEntry>,
}

impl Context {
    pub fn build(scale: Scale) -> Context {
        Context::build_with(scale, SynthesizerConfig::default())
    }

    /// Build with an explicit synthesizer configuration (e.g. `threads` for
    /// parallel corpus synthesis — the benchmark content is identical for
    /// any thread count, only wall-clock changes).
    pub fn build_with(scale: Scale, cfg: SynthesizerConfig) -> Context {
        let mut corpus = SpiderCorpus::generate(&scale.corpus_config());
        // The §4.6 COVID-19 case study needs the covid schema in the training
        // distribution (the paper's model also saw it); append the covid
        // database with generated (NL, SQL) pairs.
        let covid = nvbench::spider::covid_database(42);
        let n_covid_pairs = match scale {
            Scale::Quick => 10,
            Scale::Full => 30,
        };
        let mut qg = nvbench::spider::QueryGen::new(
            &covid,
            4242,
            nvbench::spider::QueryGenConfig { n_pairs: n_covid_pairs, ..Default::default() },
        );
        corpus.pairs.extend(qg.generate(corpus.pairs.len()));
        corpus.databases.push(covid);

        let synth = Nl2SqlToNl2Vis::new(cfg);
        let synthesis = synth.synthesize_corpus(&corpus);
        let bench = synthesis.bench;
        let split = bench.split(42);
        Context { corpus, bench, split, quarantine: synthesis.quarantine }
    }

    /// Test-pair indices, capped per scale.
    pub fn test_idx(&self, scale: Scale) -> Vec<usize> {
        let mut idx = self.split.test.clone();
        if let Some(cap) = scale.test_cap() {
            idx.truncate(cap);
        }
        idx
    }
}

static QUICK: OnceLock<Context> = OnceLock::new();
static FULL: OnceLock<Context> = OnceLock::new();

/// Cached shared context (built on first use).
pub fn context(scale: Scale) -> &'static Context {
    match scale {
        Scale::Quick => QUICK.get_or_init(|| Context::build(Scale::Quick)),
        Scale::Full => FULL.get_or_init(|| Context::build(Scale::Full)),
    }
}

/// Train one seq2vis variant on the context's split.
pub fn train_variant(ctx: &Context, scale: Scale, variant: ModelVariant) -> (Seq2Vis, Dataset) {
    let (mut model, dataset) = Seq2Vis::prepare(&ctx.bench, scale.model_config(variant));
    let mut train_idx = ctx.split.train.clone();
    if let Some(cap) = scale.train_cap() {
        train_idx.truncate(cap);
    }
    let train = dataset.subset(&train_idx);
    let val = dataset.subset(&ctx.split.val);
    model.train_on(&train, &val);
    (model, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds_once() {
        let a = context(Scale::Quick);
        let b = context(Scale::Quick);
        assert!(std::ptr::eq(a, b));
        assert!(!a.bench.pairs.is_empty());
        assert!(!a.split.test.is_empty());
        assert!(a.test_idx(Scale::Quick).len() <= 80);
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::Full.corpus_config().n_databases > Scale::Quick.corpus_config().n_databases);
        assert!(Scale::Quick.train_cap().is_some());
    }
}
