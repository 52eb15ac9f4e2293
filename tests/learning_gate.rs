//! The learning gate: one fixed-seed tiny seq2vis model, trained long
//! enough to fit a handful of pairs, must tree-match a pinned number of
//! them. Every other model-side gate compares two runs of the same code
//! (thread counts, kernel twins, finite differences), so a data-prep or
//! loss bug that kept both sides equal would pass them all; this one fails
//! if the model stops learning.
//!
//! Training is bit-identical for any thread count, so the pin holds on any
//! host. A change that means to move the model's numerics re-pins it.

use nvbench::prelude::*;

/// Tree matches out of the 32 training pairs after 150 epochs.
const PINNED_TREE_MATCHES: usize = 7;

#[test]
fn tiny_attention_model_fits_its_training_pairs() {
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(42));
    let bench = Nl2SqlToNl2Vis::new(SynthesizerConfig::default())
        .synthesize_corpus(&corpus)
        .bench;
    let cfg = Seq2VisConfig {
        max_epochs: 150,
        patience: 150,
        ..Seq2VisConfig::tiny(ModelVariant::Attention)
    };
    let (mut model, dataset) = Seq2Vis::prepare(&bench, cfg);
    let idx: Vec<usize> = (0..32).collect();
    assert!(
        bench.pairs.len() >= idx.len(),
        "only {} pairs",
        bench.pairs.len()
    );

    let report = model.train_on(&dataset.subset(&idx), &[]);
    assert_eq!(report.epochs_run, 150);
    let eval = evaluate(&model, &bench, &idx);
    let matches = eval.cases.iter().filter(|c| c.tree_match).count();
    assert!(matches > 0, "the model learned nothing: 0/32 tree matches");
    assert_eq!(
        matches,
        PINNED_TREE_MATCHES,
        "tree matches moved (result accuracy {:.3}); re-pin only if the \
         model's numerics were meant to change",
        eval.result_accuracy()
    );
}
