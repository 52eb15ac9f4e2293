//! # nv-stats — statistics substrate
//!
//! From-scratch statistical machinery shared across the workspace:
//!
//! * [`sample`] — samplers + CDFs for the six Figure-9 distribution families
//!   (normal, log-normal, exponential, power-law, uniform, chi-square);
//! * [`fit`] — Kolmogorov–Smirnov goodness-of-fit with parameter estimation
//!   (reproduces the Figure-9(a) column-distribution census);
//! * [`describe`] — moments, quartiles, skewness classes, IQR outliers,
//!   Pearson correlation (Figures 8, 9(b), 9(c); DeepEye features);
//! * [`bleu`] — BLEU for the NL-diversity column of Table 3.

pub mod bleu;
pub mod describe;
pub mod fit;
pub mod sample;
pub mod special;

pub use bleu::{avg_pairwise_bleu, sentence_bleu, simple_tokens};
pub use describe::{outlier_fraction, pearson, OutlierClass, SkewClass, Summary};
pub use fit::{fit_best, ks_critical, ks_statistic, FitResult};
pub use sample::{Dist, DistFamily};
