//! Synthesize a complete NL2VIS benchmark from a synthetic Spider-style
//! corpus and report its statistics — the §3 workflow in one binary.
//!
//! ```text
//! cargo run --release --example benchmark_synthesis [n_databases]
//! ```
//!
//! Also exports the benchmark to `nvbench_export.json` to show the
//! serialization surface a downstream consumer would use.

use nvbench::core::{table3, type_hardness_matrix, CostModel, CostReport, DatasetStats};
use nvbench::prelude::*;

fn main() {
    let n_databases: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);

    println!("generating a {n_databases}-database Spider-style corpus…");
    let corpus = SpiderCorpus::generate(&CorpusConfig {
        n_databases,
        pairs_per_db: 30,
        seed: 42,
    });
    println!(
        "  {} databases over {} domains, {} (nl, sql) pairs",
        corpus.databases.len(),
        corpus.n_domains(),
        corpus.pairs.len()
    );

    println!("running nl2sql-to-nl2vis…");
    let synth = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
    let synthesis = synth.synthesize_corpus(&corpus);
    let bench = synthesis.bench;
    println!(
        "  {} vis objects, {} (nl, vis) pairs ({:.2} variants/vis), {} pairs quarantined\n",
        bench.vis_objects.len(),
        bench.pairs.len(),
        bench.variants_per_vis(),
        synthesis.quarantine.len()
    );

    // Table-2 style stats.
    let stats = DatasetStats::of(&bench);
    println!(
        "dataset: {} tables, {} columns (C {:.1}% / T {:.1}% / Q {:.1}%), {} rows",
        stats.n_tables,
        stats.n_columns,
        stats.type_pct('C'),
        stats.type_pct('T'),
        stats.type_pct('Q'),
        stats.n_rows
    );

    // Chart-type mix (Table-3 sketch).
    println!("\nchart-type mix:");
    for row in table3(&bench).iter().take(7) {
        if row.n_vis > 0 {
            println!(
                "  {:<22} {:>5} vis  {:>6} pairs  avg {:>4.1} words  BLEU {:.3}",
                row.chart.display_name(),
                row.n_vis,
                row.n_pairs,
                row.avg_words,
                row.avg_bleu
            );
        }
    }

    // Hardness mix (Figure-10 sketch).
    let matrix = type_hardness_matrix(&bench);
    let total: usize = matrix.values().sum();
    println!("\nhardness mix:");
    for h in Hardness::ALL {
        let n: usize = matrix
            .iter()
            .filter(|((_, hh), _)| *hh == h)
            .map(|(_, c)| c)
            .sum();
        println!("  {:<12} {:>5}  ({:.1}%)", h.name(), n, n as f64 / total as f64 * 100.0);
    }

    // Man-hour accounting (§3.3).
    let cost = CostReport::of(&bench, CostModel::default());
    println!(
        "\nman-hours: {:.2} days with the synthesizer vs {:.1} days from scratch \
         ({:.1}% of the cost, {:.1}× speedup)",
        cost.synthesizer_days(),
        cost.scratch_days(),
        cost.cost_ratio() * 100.0,
        cost.speedup()
    );

    // Export a JSON snapshot of the pair list (vis trees serialize too).
    let export: Vec<serde_json::Value> = bench
        .pairs
        .iter()
        .take(1000)
        .map(|p| {
            let vis = &bench.vis_objects[p.vis_id];
            serde_json::json!({
                "pair_id": p.pair_id,
                "nl": p.nl,
                "vql": vis.vql,
                "chart": vis.chart.keyword(),
                "hardness": vis.hardness.name(),
                "db": vis.db_name,
            })
        })
        .collect();
    std::fs::write(
        "nvbench_export.json",
        serde_json::to_string_pretty(&export).expect("serializes"),
    )
    .expect("writes");
    println!(
        "\nwrote {} pairs to nvbench_export.json",
        export.len().min(1000)
    );
}
