//! Differential-testing oracle for the unified-AST executor.
//!
//! Every number this reproduction reports flows through `nv_data`'s
//! executor, which is heavily optimized (shared-scan caching, resource
//! budgets, hash joins). This crate is the independent check on all of it:
//!
//! * [`interp`] — a deliberately slow, obviously-correct reference
//!   interpreter for the full unified AST: nested-loop joins, linear-scan
//!   grouping and dedup, no caching, no budgets. When the production
//!   executor and the interpreter disagree, trust the interpreter first.
//! * [`gen`] — deterministic, seeded generators for random typed databases
//!   (FKs, NULLs, duplicate keys, empty tables) and random well-typed
//!   queries biased toward the Spider-subset shapes the synthesizer emits.
//! * [`diff`] — the differential runner: every generated case through
//!   `nv_data::execute_with` without a cache and through one (cold + warm),
//!   compared against the oracle under order-insensitive multiset
//!   equality, with failing cases shrunk to minimal counterexamples.
//! * [`laws`] — metamorphic laws that need no oracle at all: predicate
//!   conjunction commutes, `top k` is a prefix of `top k+1`, `A EXCEPT A`
//!   is empty, UNION/INTERSECT commute as multisets, binning partitions the
//!   scan, and ORDER BY never changes the result multiset.
//! * [`golden`] — golden snapshots of full corpus synthesis (pair digests,
//!   hardness histogram, chart distribution, every VQL line) with readable
//!   diffs, frozen under `tests/golden/`.

pub mod diff;
pub mod gen;
pub mod golden;
pub mod interp;
pub mod laws;

pub use diff::{run_differential, shrink, DiffConfig, DiffReport, Divergence};
pub use gen::{case_digest, case_seed, gen_case, QUERIES_PER_CASE};
pub use golden::{corpus_snapshot, diff_lines, snapshot_vis_lines};
pub use interp::oracle_execute;
pub use laws::{run_laws, LawReport};
