//! Head-to-head NL2VIS comparison (a miniature Table 5): the three seq2vis
//! variants against the DeepEye and NL4DV rule-based baselines, on one test
//! split.
//!
//! ```text
//! cargo run --release --example nl2vis_comparison
//! ```

use nvbench::baselines::{DeepEyeBaseline, Nl4DvBaseline};
use nvbench::prelude::*;

fn main() {
    println!("building benchmark…");
    let corpus = SpiderCorpus::generate(&CorpusConfig {
        n_databases: 8,
        pairs_per_db: 30,
        seed: 42,
    });
    let bench = Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench;
    let split = bench.split(42);
    let test: Vec<usize> = split.test.iter().copied().take(150).collect();
    println!(
        "  {} pairs ({} train / {} evaluated)\n",
        bench.pairs.len(),
        split.train.len(),
        test.len()
    );

    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    for variant in ModelVariant::ALL {
        println!("training {}…", variant.name());
        let (mut model, dataset) = Seq2Vis::prepare(&bench, Seq2VisConfig::new(variant));
        let report = model.train(&dataset, &split);
        println!(
            "  {} epochs, best val loss {:.3}",
            report.epochs_run, report.best_val_loss
        );
        let eval = evaluate(&model, &bench, &test);
        rows.push((model.name(), eval.tree_accuracy(), eval.result_accuracy()));
    }

    for baseline in [
        Box::new(DeepEyeBaseline::new(42)) as Box<dyn Nl2VisPredictor>,
        Box::new(Nl4DvBaseline::new()),
    ] {
        let eval = evaluate(baseline.as_ref(), &bench, &test);
        rows.push((baseline.name(), eval.tree_accuracy(), eval.result_accuracy()));
    }

    println!("\n{:<22} {:>12} {:>14}", "system", "tree match", "result match");
    for (name, tree, result) in rows {
        println!("{name:<22} {:>11.1}% {:>13.1}%", tree * 100.0, result * 100.0);
    }
    println!("\n(the paper's Table 5 shape: seq2vis ≫ rule-based baselines, and the\n gap widens on Hard/Extra-Hard queries with joins, filters and nesting)");
}
