//! # nvbench — synthesizing NL2VIS benchmarks from NL2SQL benchmarks
//!
//! A full from-scratch Rust reproduction of *"Synthesizing Natural Language
//! to Visualization (NL2VIS) Benchmarks from NL2SQL Benchmarks"*
//! (Luo et al., SIGMOD 2021): the `nl2sql-to-nl2vis` synthesizer, the
//! nvBench benchmark it produces, the seq2vis neural translator, the
//! DeepEye/NL4DV baselines, and every substrate they run on (relational
//! engine, SQL parser, chart renderers, statistics, neural nets).
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`ast`] | `nv-ast` | unified SQL/VIS grammar (Figure 5), VQL, hardness |
//! | [`data`] | `nv-data` | relational engine + query executor |
//! | [`sql`] | `nv-sql` | SQL parser / renderer |
//! | [`stats`] | `nv-stats` | samplers, KS fits, skew/outliers, BLEU |
//! | [`spider`] | `nv-spider` | synthetic Spider-style corpus (substitute) |
//! | [`quality`] | `nv-quality` | DeepEye-style chart filter |
//! | [`render`] | `nv-render` | chart data, Vega-Lite, ECharts |
//! | [`synth`] | `nv-synth` | tree edits + NL edits |
//! | [`trace`] | `nv-trace` | pipeline observability: spans, counters, trace reports |
//! | [`core`] | `nv-core` | the synthesizer pipeline + NvBench container |
//! | [`nn`] | `nv-nn` | matrices, autograd, LSTM seq2seq |
//! | [`oracle`] | `nv-oracle` | differential oracle: reference interpreter, laws, golden snapshots |
//! | [`seq2vis`] | `nv-seq2vis` | the neural NL2VIS translator + metrics |
//! | [`baselines`] | `nv-baselines` | DeepEye + NL4DV comparators |
//! | [`eval`] | `nv-eval` | simulated human evaluation |
//!
//! ## Quickstart
//!
//! ```
//! use nvbench::prelude::*;
//!
//! // 1. Generate a (small) Spider-style NL2SQL corpus.
//! let corpus = SpiderCorpus::generate(&CorpusConfig::small(42));
//! // 2. Run the nl2sql-to-nl2vis synthesizer over it. The result carries
//! //    the benchmark plus a quarantine ledger of any failed input pairs.
//! let synth = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
//! let synthesis = synth.synthesize_corpus(&corpus);
//! assert!(synthesis.quarantine.is_empty());
//! let bench = synthesis.bench;
//! assert!(bench.pairs.len() > bench.vis_objects.len());
//! // 3. Render any vis to Vega-Lite.
//! let vis = &bench.vis_objects[0];
//! let db = bench.database(&vis.db_name).unwrap();
//! let cd = nvbench::render::chart_data(db, &vis.tree).unwrap();
//! let spec = nvbench::render::to_vega_lite(&cd);
//! assert!(spec["$schema"].as_str().unwrap().contains("vega-lite"));
//! ```

pub use nv_ast as ast;
pub use nv_baselines as baselines;
pub use nv_core as core;
pub use nv_data as data;
pub use nv_eval as eval;
pub use nv_nn as nn;
pub use nv_oracle as oracle;
pub use nv_quality as quality;
pub use nv_render as render;
pub use nv_seq2vis as seq2vis;
pub use nv_spider as spider;
pub use nv_sql as sql;
pub use nv_stats as stats;
pub use nv_synth as synth;
pub use nv_trace as trace;

/// The most common imports, in one place.
pub mod prelude {
    pub use nv_ast::{ChartType, Hardness, VisQuery};
    pub use nv_core::{
        CorpusSynthesis, CostReport, Nl2SqlToNl2Vis, Nl2VisPredictor, NvBench,
        QuarantineEntry, Split, SynthesizerConfig,
    };
    pub use nv_data::{execute, ColumnType, Database, Table, Value};
    pub use nv_nn::ModelVariant;
    pub use nv_render::{chart_data, to_echarts, to_vega_lite};
    pub use nv_seq2vis::{evaluate, Seq2Vis, Seq2VisConfig};
    pub use nv_spider::{CorpusConfig, SpiderCorpus};
    pub use nv_sql::{parse_sql, to_sql};
}
