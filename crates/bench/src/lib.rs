//! # nv-bench — the experiment harness
//!
//! One experiment per paper table/figure (see DESIGN.md's per-experiment
//! index). The `reproduce` binary runs every experiment as one timed
//! section of an EXPERIMENTS-style report, at Full scale by default or
//! Quick scale with `quick`. Throughput is measured separately by the
//! `nvperf` benchmark.

pub mod context;
pub mod experiments;

pub use context::{context, train_variant, Context, Scale};
