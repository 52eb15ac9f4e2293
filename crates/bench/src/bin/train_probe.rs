//! Training diagnostics: learning curve + accuracy of one seq2vis variant
//! on the Quick-scale benchmark, with configurable epochs/train size.
//!
//! ```text
//! cargo run -p nv-bench --release --bin train_probe -- [epochs] [train_cap] [variant]
//! ```
//!
//! Defaults: 12 epochs, the whole training split, `attention`. `variant` is
//! `basic`, `attention` or `copy`. Any other argument, a value that does
//! not parse, or a fourth word prints a one-line usage to stderr and exits
//! with status 2 before any work starts.

use nv_bench::{context, Scale};
use nvbench::core::Nl2VisPredictor;
use nvbench::nn::ModelVariant;
use nvbench::seq2vis::{evaluate, Seq2Vis, Seq2VisConfig};

const USAGE: &str = "usage: train_probe [epochs] [train_cap] [basic|attention|copy]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    epochs: usize,
    /// Training pairs used, taken from the front of the split.
    cap: usize,
    variant: ModelVariant,
}

/// Parse the positional `[epochs] [train_cap] [variant]`; a malformed value
/// or an extra word is an error naming that argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { epochs: 12, cap: usize::MAX, variant: ModelVariant::Attention };
    for (i, arg) in args.iter().enumerate() {
        let bad = || format!("invalid argument '{arg}'");
        match i {
            0 => out.epochs = arg.parse().map_err(|_| bad())?,
            1 => out.cap = arg.parse().map_err(|_| bad())?,
            2 => {
                out.variant = match arg.as_str() {
                    "basic" => ModelVariant::Basic,
                    "attention" => ModelVariant::Attention,
                    "copy" => ModelVariant::Copy,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unexpected argument '{arg}'")),
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { epochs, cap, variant } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("train_probe: {e}; {USAGE}");
            std::process::exit(2);
        }
    };

    let ctx = context(Scale::Quick);
    println!(
        "benchmark: {} vis / {} pairs; train {} val {} test {}",
        ctx.bench.vis_objects.len(),
        ctx.bench.pairs.len(),
        ctx.split.train.len(),
        ctx.split.val.len(),
        ctx.split.test.len()
    );

    let cfg = Seq2VisConfig {
        max_epochs: epochs,
        patience: epochs,
        ..Seq2VisConfig::new(variant)
    };
    let (mut model, dataset) = Seq2Vis::prepare(&ctx.bench, cfg);
    println!("vocab {} tokens, {} parameters", model.vocab.len(), model.n_parameters());

    let train_idx: Vec<usize> = ctx.split.train.iter().copied().take(cap).collect();
    let train = dataset.subset(&train_idx);
    let val = dataset.subset(&ctx.split.val);
    let t0 = std::time::Instant::now();
    let report = model.train_on(&train, &val);
    println!(
        "trained {} epochs in {:.1}s; losses: {:?}",
        report.epochs_run,
        t0.elapsed().as_secs_f64(),
        report
            .train_losses
            .iter()
            .zip(&report.val_losses)
            .map(|(t, v)| format!("{t:.2}/{v:.2}"))
            .collect::<Vec<_>>()
    );

    let idx = ctx.test_idx(Scale::Quick);
    let eval = evaluate(&model, &ctx.bench, &idx);
    println!(
        "test: tree {:.1}% result {:.1}% over {} pairs",
        eval.tree_accuracy() * 100.0,
        eval.result_accuracy() * 100.0,
        eval.n()
    );
    let comp = eval.component_accuracy();
    println!("components: {comp:?}");

    // Show a few predictions vs gold.
    for &pi in idx.iter().take(5) {
        let pair = &ctx.bench.pairs[pi];
        let vis = &ctx.bench.vis_objects[pair.vis_id];
        let db = ctx.bench.database(&vis.db_name).unwrap();
        println!("\nNL  : {}", pair.nl);
        println!("gold: {}", vis.vql);
        match model.predict(&pair.nl, db) {
            Some(t) => println!("pred: {}", t.to_vql()),
            None => println!(
                "pred: <unparseable> {:?}",
                model.predict_tokens(&pair.nl, db).join(" ")
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_is_the_default_probe() {
        let want = Args { epochs: 12, cap: usize::MAX, variant: ModelVariant::Attention };
        assert_eq!(parse(&[]), Ok(want));
    }

    #[test]
    fn every_position_parses() {
        assert_eq!(parse(&["3"]).unwrap().epochs, 3);
        let a = parse(&["1", "16", "basic"]).unwrap();
        assert_eq!(a, Args { epochs: 1, cap: 16, variant: ModelVariant::Basic });
        assert_eq!(parse(&["1", "16", "attention"]).unwrap().variant, ModelVariant::Attention);
        assert_eq!(parse(&["1", "16", "copy"]).unwrap().variant, ModelVariant::Copy);
    }

    #[test]
    fn malformed_values_and_extra_words_are_rejected() {
        assert_eq!(parse(&["abc"]), Err("invalid argument 'abc'".to_string()));
        assert_eq!(parse(&["1", "-5"]), Err("invalid argument '-5'".to_string()));
        assert_eq!(parse(&["1", "16", "cpy"]), Err("invalid argument 'cpy'".to_string()));
        assert_eq!(
            parse(&["1", "16", "copy", "x"]),
            Err("unexpected argument 'x'".to_string())
        );
    }
}
