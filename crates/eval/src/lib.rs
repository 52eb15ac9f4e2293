//! # nv-eval — simulated human evaluation (§3.3)
//!
//! The paper validated nvBench with 23 experts and 312 crowd workers; this
//! crate simulates that study (DESIGN.md, Substitution 5): a latent-quality
//! model derived from synthesis metadata, expert/crowd rater noise profiles,
//! majority voting with 3→7 escalation, inter-rater agreement (Figure 12),
//! Likert distributions (Figure 13), T3 writing-time modeling (Figure 14),
//! and identification of the low-rated pairs the §4.5 injection experiment
//! needs.

pub mod raters;
pub mod study;
pub mod timing;

pub use raters::{latent_quality, majority_vote, Likert, Rater};
pub use study::{inter_rater, run_study, InterRater, LikertDist, StudyResult};
pub use timing::{simulate_t3, writing_time, TimingReport};
