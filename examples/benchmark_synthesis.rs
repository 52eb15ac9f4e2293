//! Synthesize a complete NL2VIS benchmark from a synthetic Spider-style
//! corpus and report its statistics — the §3 workflow in one binary.
//!
//! ```text
//! cargo run --release --example benchmark_synthesis [n_databases]
//! ```
//!
//! Also saves the benchmark in the release format (`nv_core::to_json`) to
//! `nvbench_export.json`, loads it back with `from_json` — the surface a
//! downstream consumer would use — and exits 1 unless the reloaded pairs
//! and VQL strings equal the synthesized ones.

use nvbench::core::{from_json, table3, to_json, type_hardness_matrix, CostReport, DatasetStats};
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
    let cost = CostReport::of(&bench);
    println!(
        "\nman-hours: {:.2} days with the synthesizer vs {:.1} days from scratch \
         ({:.1}% of the cost, {:.1}× speedup)",
        cost.synthesizer_days(),
        cost.scratch_days(),
        cost.cost_ratio() * 100.0,
        cost.speedup()
    );

    // Round-trip the release format through the file.
    let path = "nvbench_export.json";
    std::fs::write(path, to_json(&bench).expect("serializes")).expect("writes");
    let json = std::fs::read_to_string(path).expect("reads back");
    let reloaded = from_json(&json).unwrap_or_else(|e| {
        eprintln!("could not reload {path}: {e}");
        std::process::exit(1)
    });
    let vql = |b: &NvBench| b.vis_objects.iter().map(|v| v.vql.clone()).collect::<Vec<_>>();
    if reloaded.pairs != bench.pairs || vql(&reloaded) != vql(&bench) {
        eprintln!("{path} did not round-trip: pairs or VQL strings differ");
        std::process::exit(1);
    }
    println!(
        "\nwrote {} pairs over {} vis objects to {path} and reloaded them unchanged",
        reloaded.pairs.len(),
        reloaded.vis_objects.len()
    );
}
