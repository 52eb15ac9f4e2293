//! # nv-seq2vis — neural NL2VIS translation (paper §4)
//!
//! * [`vocab`] — shared NL/schema/VQL vocabulary (one id space, as the copy
//!   mechanism requires);
//! * [`data`] — (NL, VIS) pairs → encoder/decoder samples, with literal
//!   values masked to `<value>`;
//! * [`values`] — the §4.2 heuristic that extracts values from the NL and
//!   fills decoded V-slots (~92% accurate in the paper);
//! * [`model`] — the three seq2vis variants over the `nv-nn` substrate;
//! * [`metrics`] — tree / result / component matching accuracy and the
//!   aggregations behind Table 4, Table 5 and Figure 17.

pub mod data;
pub mod metrics;
pub mod model;
pub mod values;
pub mod vocab;

pub use data::{build_dataset, source_tokens, target_tokens, Dataset};
pub use metrics::{
    evaluate, evaluate_top_k, evaluate_top_ks, prediction_match, value_fill_accuracy, EvalCase,
    EvalReport,
};
pub use model::{Seq2Vis, Seq2VisConfig};
pub use values::{extract_candidates, fill_values, mask_values, Candidate};
pub use vocab::{nl_tokens, Vocab};
