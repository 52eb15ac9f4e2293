//! Task T3 timing simulation (Figure 14): how long experts take to write an
//! NL query for a given visualization.
//!
//! The paper measured 460 handwritten queries: min 37 s, median 82 s,
//! mean 140 s, max 411 s — a strongly right-skewed distribution. We model
//! writing time as log-normal scaled by task hardness, clamped to the
//! observed support, and feed the resulting mean into the §3.3 man-hour
//! extrapolation (140 s × 25,750 pairs ≈ 42 days).

use crate::raters::gaussian;
use nv_ast::Hardness;
use nv_core::NvBench;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One simulated writing-time sample, seconds.
pub fn writing_time(rng: &mut StdRng, hardness: Hardness) -> f64 {
    // Log-normal around the paper's median (~82 s), widened for harder
    // tasks; the long tail produces the 400-second stragglers.
    let (mu, sigma) = match hardness {
        Hardness::Easy => (4.15, 0.55),
        Hardness::Medium => (4.45, 0.60),
        Hardness::Hard => (4.80, 0.60),
        Hardness::ExtraHard => (5.05, 0.55),
    };
    let t = (mu + sigma * gaussian(rng)).exp();
    t.clamp(37.0, 411.0)
}

/// Summary of a T3 run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    pub samples: Vec<f64>,
    pub min: f64,
    pub median: f64,
    pub mean: f64,
    pub max: f64,
}

/// The paper's T3 sample: 460 handwritten queries.
const T3_TASKS: usize = 460;
const T3_SEED: u64 = 42;

/// Simulate the paper's 460 T3 tasks, drawn from the benchmark's hardness
/// mix.
pub fn simulate_t3(bench: &NvBench) -> TimingReport {
    let mut rng = StdRng::seed_from_u64(T3_SEED);
    let mut samples = Vec::with_capacity(T3_TASKS);
    for _ in 0..T3_TASKS {
        let hardness = if bench.vis_objects.is_empty() {
            Hardness::Medium
        } else {
            bench.vis_objects[rng.random_range(0..bench.vis_objects.len())].hardness
        };
        samples.push(writing_time(&mut rng, hardness));
    }
    summarize(samples)
}

fn summarize(mut samples: Vec<f64>) -> TimingReport {
    samples.sort_by(f64::total_cmp);
    let n = samples.len().max(1);
    let min = samples.first().copied().unwrap_or(0.0);
    let max = samples.last().copied().unwrap_or(0.0);
    let median = samples.get(n / 2).copied().unwrap_or(0.0);
    let mean = samples.iter().sum::<f64>() / n as f64;
    TimingReport { samples, min, median, mean, max }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_core::{Nl2SqlToNl2Vis, SynthesizerConfig};
    use nv_spider::{CorpusConfig, SpiderCorpus};

    #[test]
    fn shape_matches_paper_figures() {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(13));
        let bench =
            Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench;
        let r = simulate_t3(&bench);
        assert_eq!(r.samples.len(), 460);
        assert!(r.min >= 37.0 && r.max <= 411.0);
        // Right-skewed: mean above median; in the paper's ballpark.
        assert!(r.mean > r.median, "mean {} median {}", r.mean, r.median);
        assert!((60.0..140.0).contains(&r.median), "median {}", r.median);
        assert!((90.0..190.0).contains(&r.mean), "mean {}", r.mean);
    }

    #[test]
    fn harder_tasks_take_longer_on_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let avg = |h: Hardness, rng: &mut StdRng| {
            (0..800).map(|_| writing_time(rng, h)).sum::<f64>() / 800.0
        };
        let easy = avg(Hardness::Easy, &mut rng);
        let extra = avg(Hardness::ExtraHard, &mut rng);
        assert!(extra > easy * 1.3, "{easy} vs {extra}");
    }
}
