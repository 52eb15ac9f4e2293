//! The §4.6 COVID-19 case study: train seq2vis on a benchmark that includes
//! the COVID-19 table, then pose the six JHU-dashboard-style expert queries
//! (five should translate; "until today" should fail).
//!
//! ```text
//! cargo run --release --example covid_dashboard
//! ```

use nvbench::prelude::*;
use nvbench::spider::{covid_cases, covid_database, QueryGen, QueryGenConfig};

fn main() {
    // Corpus: a few Spider-style databases plus the COVID table with
    // generated (NL, SQL) pairs, so the schema is in-distribution.
    let mut corpus = SpiderCorpus::generate(&CorpusConfig {
        n_databases: 6,
        pairs_per_db: 25,
        seed: 42,
    });
    let covid = covid_database(42);
    let mut qg = QueryGen::new(&covid, 4242, QueryGenConfig { n_pairs: 25 });
    corpus.pairs.extend(qg.generate(corpus.pairs.len()));
    corpus.databases.push(covid);

    println!("synthesizing the benchmark…");
    let bench = Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench;
    let split = bench.split(42);
    println!(
        "  {} vis, {} pairs ({} train)",
        bench.vis_objects.len(),
        bench.pairs.len(),
        split.train.len()
    );

    println!("training seq2vis+attention…");
    let (mut model, dataset) = Seq2Vis::prepare(&bench, Seq2VisConfig::new(ModelVariant::Attention));
    let report = model.train(&dataset, &split);
    println!(
        "  {} epochs, best val loss {:.3}\n",
        report.epochs_run, report.best_val_loss
    );

    let db = covid_database(42);
    let mut passed = 0;
    for case in covid_cases() {
        println!("Q: {}", case.nl);
        match model.predict(&case.nl, &db) {
            Some(tree) => {
                let exact = tree == case.gold;
                let result_match = !exact
                    && tree.chart == case.gold.chart
                    && matches!(
                        (execute(&db, &tree), execute(&db, &case.gold)),
                        (Ok(a), Ok(b)) if a.data_eq(&b)
                    );
                let ok = exact || result_match;
                if ok {
                    passed += 1;
                }
                println!("   → {}", tree.to_vql());
                println!(
                    "   {} {}",
                    if ok { "✓ matches the gold visualization" } else { "✗ wrong" },
                    if case.expect_fail { "(paper expects this one to fail)" } else { "" }
                );
                if ok {
                    // Render it, dashboard-style.
                    if let Ok(cd) = chart_data(&db, &tree) {
                        let spec = to_vega_lite(&cd);
                        println!(
                            "   rendered: {} with {} data points",
                            spec["mark"], cd.rows.len()
                        );
                    }
                }
            }
            None => println!(
                "   → no parseable prediction {}",
                if case.expect_fail { "(paper expects this one to fail)" } else { "" }
            ),
        }
        println!();
    }
    println!("{passed}/6 queries translated correctly (paper: 5/6).");
}
