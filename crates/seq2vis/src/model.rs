//! The seq2vis translator: neural seq2seq + vocab + value filling, exposed
//! through the shared [`Nl2VisPredictor`] interface.

use crate::data::{build_dataset, source_tokens, Dataset};
use crate::values::fill_values;
use crate::vocab::{Vocab, BOS, EOS};
use nv_ast::tokens::parse_vql;
use nv_ast::VisQuery;
use nv_core::{Nl2VisPredictor, NvBench, Split};
use nv_data::Database;
use nv_nn::{fit, KernelPolicy, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig, TrainReport};

/// Training-size hyperparameters.
#[derive(Debug, Clone)]
pub struct Seq2VisConfig {
    pub variant: ModelVariant,
    pub embed_dim: usize,
    pub hidden: usize,
    pub lr: f32,
    pub batch: usize,
    pub max_epochs: usize,
    /// Early-stopping patience (paper: 5).
    pub patience: usize,
    pub seed: u64,
}

impl Seq2VisConfig {
    pub fn new(variant: ModelVariant) -> Seq2VisConfig {
        Seq2VisConfig {
            variant,
            embed_dim: 48,
            hidden: 64,
            lr: 2e-3,
            batch: 16,
            max_epochs: 18,
            patience: 5,
            seed: 42,
        }
    }

    /// Tiny settings for unit tests.
    pub fn tiny(variant: ModelVariant) -> Seq2VisConfig {
        Seq2VisConfig {
            embed_dim: 24,
            hidden: 32,
            max_epochs: 6,
            patience: 3,
            ..Seq2VisConfig::new(variant)
        }
    }
}

/// A trained (or trainable) seq2vis model.
pub struct Seq2Vis {
    pub cfg: Seq2VisConfig,
    pub vocab: Vocab,
    model: Seq2Seq,
}

impl Seq2Vis {
    /// Build the dataset and an untrained model for a benchmark.
    pub fn prepare(bench: &NvBench, cfg: Seq2VisConfig) -> (Seq2Vis, Dataset) {
        let dataset = build_dataset(bench);
        let model = Seq2Vis::from_dataset(&dataset, cfg);
        (model, dataset)
    }

    /// A fresh untrained model over an already-built dataset (avoids
    /// re-tokenizing the benchmark when training many models, e.g. the
    /// Figure-18 injection sweep).
    pub fn from_dataset(dataset: &Dataset, cfg: Seq2VisConfig) -> Seq2Vis {
        let s2s_cfg = Seq2SeqConfig {
            vocab: dataset.vocab.len(),
            embed_dim: cfg.embed_dim,
            hidden: cfg.hidden,
            variant: cfg.variant,
            seed: cfg.seed,
            lr: cfg.lr,
            clip: 2.0,
            batch: cfg.batch,
            bos: BOS,
            eos: EOS,
            max_decode_len: 80,
            // Every core; training is bit-identical for any thread count.
            threads: 0,
            kernel: KernelPolicy::Fast,
        };
        let model = Seq2Seq::new(s2s_cfg);
        Seq2Vis { cfg, vocab: dataset.vocab.clone(), model }
    }

    /// Train on a split of the dataset.
    pub fn train(&mut self, dataset: &Dataset, split: &Split) -> TrainReport {
        let train = dataset.subset(&split.train);
        let val = dataset.subset(&split.val);
        fit(&mut self.model, &train, &val, self.cfg.max_epochs, self.cfg.patience)
    }

    /// Train on explicit sample vectors (used by the §4.5 injection
    /// experiment, which manipulates the training set directly).
    pub fn train_on(&mut self, train: &[Sample], val: &[Sample]) -> TrainReport {
        fit(&mut self.model, train, val, self.cfg.max_epochs, self.cfg.patience)
    }

    /// Decode the masked VQL token sequence for an NL query.
    pub fn predict_tokens(&self, nl: &str, db: &Database) -> Vec<String> {
        let src = self.vocab.encode(&source_tokens(nl, db));
        let out_ids = self.model.decode(&src);
        self.vocab.decode(&out_ids)
    }

    pub fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }
}

impl Nl2VisPredictor for Seq2Vis {
    fn name(&self) -> String {
        self.cfg.variant.name().to_string()
    }

    fn predict(&self, nl: &str, db: &Database) -> Option<VisQuery> {
        let masked = self.predict_tokens(nl, db);
        let filled = fill_values(&masked, nl);
        parse_vql(&filled).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_core::{Nl2SqlToNl2Vis, SynthesizerConfig};
    use nv_spider::{CorpusConfig, SpiderCorpus};

    fn bench() -> NvBench {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(21));
        Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench
    }

    #[test]
    fn prepare_builds_consistent_model() {
        let b = bench();
        let (model, ds) = Seq2Vis::prepare(&b, Seq2VisConfig::tiny(ModelVariant::Attention));
        assert_eq!(model.vocab.len(), ds.vocab.len());
        assert!(model.n_parameters() > 10_000);
        assert_eq!(model.name(), "seq2vis+attention");
    }

    #[test]
    fn untrained_model_still_predicts_something_or_none() {
        let b = bench();
        let (model, _) = Seq2Vis::prepare(&b, Seq2VisConfig::tiny(ModelVariant::Basic));
        let pair = &b.pairs[0];
        let vis = &b.vis_objects[pair.vis_id];
        let db = b.database(&vis.db_name).unwrap();
        // Untrained output is garbage; it must not panic either way.
        let _ = model.predict(&pair.nl, db);
    }

    #[test]
    fn training_improves_val_loss() {
        let b = bench();
        let (model, ds) = Seq2Vis::prepare(&b, Seq2VisConfig::tiny(ModelVariant::Attention));
        let split = b.split(42);
        // Use a small subset to keep the test fast.
        let train: Vec<_> = ds.subset(&split.train[..60.min(split.train.len())]);
        let val: Vec<_> = ds.subset(&split.val);
        let before = {
            let mut probe = model;
            let report = probe.train_on(&train, &val);
            assert!(report.epochs_run >= 2);
            assert!(
                report.val_losses.last().unwrap() <= report.val_losses.first().unwrap(),
                "{:?}",
                report.val_losses
            );
            report
        };
        assert!(before.best_val_loss.is_finite());
    }
}
