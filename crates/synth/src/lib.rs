//! # nv-synth — the two synthesis steps of nl2sql-to-nl2vis
//!
//! * Step 1: [`edits`] generates candidate VIS trees from an SQL tree via
//!   deletions + insertions (§2.3), and [`filter`] prunes bad charts with
//!   the DeepEye-style filter (§2.4).
//! * Step 2: [`nledit`] revises the SQL pair's NL to reflect the tree edits
//!   (§2.5), smoothing every variant with the back-translation substitute
//!   in [`smoother`].
//!
//! `nv-core` wires these into the end-to-end pipeline.

pub mod edits;
pub mod filter;
pub mod nledit;
pub mod smoother;

pub use edits::{attr_ctype, generate_candidates, strip_order, VisCandidate};
pub use filter::{filter_candidates, FilterStats, GoodVis};
pub use nledit::{NlResult, NlSynthesizer};
pub use smoother::smooth;
