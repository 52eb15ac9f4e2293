//! # nv-core — the nl2sql-to-nl2vis synthesizer (the paper's primary
//! contribution)
//!
//! End-to-end pipeline (Figure 3): an (NL, SQL) pair and its database go in;
//! a set of (NL, VIS) pairs comes out.
//!
//! ```
//! use nv_core::{Nl2SqlToNl2Vis, SynthesizerConfig};
//! use nv_data::{table_from, ColumnType, Database, Value};
//!
//! let mut db = Database::new("college", "College");
//! let ranks = ["assistant", "associate", "full", "adjunct", "emeritus"];
//! db.add_table(table_from(
//!     "faculty",
//!     &[("rank", ColumnType::Categorical), ("salary", ColumnType::Quantitative)],
//!     (0..40)
//!         .map(|i| vec![Value::text(ranks[i % 5]), Value::Int(80 + (i as i64 * 7) % 60)])
//!         .collect(),
//! ));
//! let synth = Nl2SqlToNl2Vis::new(SynthesizerConfig::default());
//! let out = synth
//!     .synthesize_pair(
//!         &db,
//!         "How many faculties do we have for each rank?",
//!         "SELECT rank, COUNT(*) FROM faculty GROUP BY rank",
//!         7,
//!     )
//!     .unwrap();
//! assert!(!out.outputs.is_empty());
//! ```
//!
//! * [`pipeline`] — the synthesizer itself;
//! * [`benchmark`] — the [`NvBench`] container, vis objects, pair splits;
//! * [`stats`] — Table 2 / Table 3 / Figures 8–10 computations;
//! * [`cost`] — the §3.3 man-hour model (2.4 days vs 42 days; 5.7%).

pub mod benchmark;
pub mod cost;
pub mod error;
pub mod io;
pub mod par;
pub mod pipeline;
pub mod predictor;
pub mod stats;

/// Deterministic fault injection (re-export of the zero-dependency
/// `nv-fault` crate, so sites in lower crates and tests here share one
/// process-global plan).
pub mod fault {
    pub use nv_fault::*;
}

/// The `nv-trace` observability layer, re-exported so crates above the
/// core (the evaluation metrics) record spans into the same process-global
/// report without a dependency of their own.
pub use nv_trace as trace;

pub use benchmark::{NlVisPair, NvBench, Split, VisObject};
pub use error::NvErrorKind;
pub use io::{from_json, to_json, IoError};
pub use cost::{
    paper_reference_report, CostReport, SECONDS_PER_MANUAL_EDIT, SECONDS_PER_SCRATCH_QUERY,
};
pub use pipeline::{
    CorpusSynthesis, Nl2SqlToNl2Vis, PairSynthesis, PipelineError, QuarantineEntry,
    SynthStage, SynthesizerConfig,
};
pub use predictor::Nl2VisPredictor;
pub use stats::{column_census, size_histograms, table3, type_hardness_matrix, ChartTypeRow, ColumnCensus, DatasetStats};
