//! The T1/T2 study driver (Figure 13), inter-rater analysis (Figure 12) and
//! low-rated-pair identification for the §4.5 injection experiment.

use crate::raters::{latent_quality, majority_vote, Rater};
use nv_core::NvBench;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// The paper's study: 23 experts, 312 crowd workers, 3→7 votes per HIT.
/// Expert raters.
const N_EXPERTS: usize = 23;
/// Crowd workers.
const N_CROWD: usize = 312;
/// Crowd votes a HIT starts with, and the cap escalation stops at.
const VOTES_START: usize = 3;
const VOTES_CAP: usize = 7;
const STUDY_SEED: u64 = 42;

/// Likert histogram (index 0 ↔ Strongly Disagree … index 4 ↔ Strongly
/// Agree).
pub type LikertDist = [usize; 5];

/// Aggregated study outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    pub sampled_pairs: Vec<usize>,
    pub expert_t1: LikertDist,
    pub expert_t2: LikertDist,
    pub crowd_t1: LikertDist,
    pub crowd_t2: LikertDist,
    /// Pairs rated Strongly Disagree / Disagree on either task by either
    /// population — the "low-rated (nl, vis) pairs" of §4.5.
    pub low_rated_pairs: Vec<usize>,
}

impl StudyResult {
    /// Fraction rated Agree or Strongly Agree.
    pub fn positive_rate(d: &LikertDist) -> f64 {
        let total: usize = d.iter().sum();
        if total == 0 {
            return 0.0;
        }
        (d[3] + d[4]) as f64 / total as f64
    }

    /// Fraction rated Disagree or Strongly Disagree.
    pub fn negative_rate(d: &LikertDist) -> f64 {
        let total: usize = d.iter().sum();
        if total == 0 {
            return 0.0;
        }
        (d[0] + d[1]) as f64 / total as f64
    }
}

/// Run the simulated T1/T2 study over a `sample_frac` share of the pairs
/// (Figure 13 samples ~10%, the Figure 18 injection sweep rates them all).
pub fn run_study(bench: &NvBench, sample_frac: f64) -> StudyResult {
    let mut rng = StdRng::seed_from_u64(STUDY_SEED);
    let experts: Vec<Rater> = (0..N_EXPERTS).map(|_| Rater::expert(&mut rng)).collect();
    let crowd: Vec<Rater> = (0..N_CROWD).map(|_| Rater::crowd(&mut rng)).collect();

    // ~10% sample of pairs.
    let mut sampled: Vec<usize> = (0..bench.pairs.len())
        .filter(|_| rng.random::<f64>() < sample_frac)
        .collect();
    if sampled.is_empty() && !bench.pairs.is_empty() {
        sampled.push(0);
    }

    let mut result = StudyResult {
        sampled_pairs: sampled.clone(),
        expert_t1: [0; 5],
        expert_t2: [0; 5],
        crowd_t1: [0; 5],
        crowd_t2: [0; 5],
        low_rated_pairs: Vec::new(),
    };

    for &pi in &sampled {
        let pair = &bench.pairs[pi];
        let vis = &bench.vis_objects[pair.vis_id];
        let (q1, q2) = latent_quality(vis, pair);

        // One expert per HIT (the paper trusts individual experts).
        let e = experts[rng.random_range(0..experts.len())];
        let e1 = e.rate(&mut rng, q1);
        let e2 = e.rate(&mut rng, q2);
        result.expert_t1[(e1.score() - 1) as usize] += 1;
        result.expert_t2[(e2.score() - 1) as usize] += 1;

        // Crowd HIT: majority vote with escalation.
        let c1 = majority_vote(&mut rng, &crowd, q1, VOTES_START, VOTES_CAP);
        let c2 = majority_vote(&mut rng, &crowd, q2, VOTES_START, VOTES_CAP);
        result.crowd_t1[(c1.score() - 1) as usize] += 1;
        result.crowd_t2[(c2.score() - 1) as usize] += 1;

        if [e1, e2, c1, c2].iter().any(|l| l.is_negative()) {
            result.low_rated_pairs.push(pi);
        }
    }
    result
}

/// Figure-12 inter-rater data: for `n` overlapping T2 pairs, one expert
/// rating plus three crowd ratings each; classified by maximum disagreement.
#[derive(Debug, Clone, PartialEq)]
pub struct InterRater {
    /// Per sampled pair: (all ratings, max |difference|).
    pub per_pair: Vec<(Vec<u8>, u8)>,
    pub fully_agree: usize,
    pub mainly_agree: usize,
    pub disagree: usize,
}

pub fn inter_rater(bench: &NvBench, n: usize, seed: u64) -> InterRater {
    let mut rng = StdRng::seed_from_u64(seed);
    let experts: Vec<Rater> = (0..N_EXPERTS).map(|_| Rater::expert(&mut rng)).collect();
    let crowd: Vec<Rater> = (0..40).map(|_| Rater::crowd(&mut rng)).collect();

    let mut per_pair = Vec::new();
    let (mut fully, mut mainly, mut dis) = (0usize, 0usize, 0usize);
    for _ in 0..n.min(bench.pairs.len()) {
        let pi = rng.random_range(0..bench.pairs.len());
        let pair = &bench.pairs[pi];
        let vis = &bench.vis_objects[pair.vis_id];
        let (_, q2) = latent_quality(vis, pair);
        let mut ratings: Vec<u8> = Vec::with_capacity(4);
        ratings.push(experts[rng.random_range(0..N_EXPERTS)].rate(&mut rng, q2).score());
        for _ in 0..3 {
            ratings.push(crowd[rng.random_range(0..40usize)].rate(&mut rng, q2).score());
        }
        let max = *ratings.iter().max().unwrap();
        let min = *ratings.iter().min().unwrap();
        let spread = max - min;
        match spread {
            0 => fully += 1,
            1 => mainly += 1,
            _ => dis += 1,
        }
        per_pair.push((ratings, spread));
    }
    InterRater { per_pair, fully_agree: fully, mainly_agree: mainly, disagree: dis }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_core::{Nl2SqlToNl2Vis, SynthesizerConfig};
    use nv_spider::{CorpusConfig, SpiderCorpus};

    fn bench() -> NvBench {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(17));
        Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench
    }

    #[test]
    fn study_regenerates_figure13_shape() {
        let b = bench();
        let r = run_study(&b, 0.6);
        assert!(!r.sampled_pairs.is_empty());
        // The paper's headline shapes: most ratings positive, few negative.
        for d in [&r.expert_t1, &r.expert_t2, &r.crowd_t1, &r.crowd_t2] {
            let pos = StudyResult::positive_rate(d);
            let neg = StudyResult::negative_rate(d);
            assert!(pos > 0.55, "positive rate {pos} in {d:?}");
            assert!(neg < 0.25, "negative rate {neg} in {d:?}");
        }
        // Totals line up with the sample.
        assert_eq!(
            r.expert_t1.iter().sum::<usize>(),
            r.sampled_pairs.len()
        );
    }

    #[test]
    fn study_is_deterministic() {
        let b = bench();
        assert_eq!(run_study(&b, 0.4), run_study(&b, 0.4));
    }

    #[test]
    fn low_rated_pairs_are_a_small_minority() {
        let b = bench();
        let r = run_study(&b, 1.0);
        let frac = r.low_rated_pairs.len() as f64 / r.sampled_pairs.len() as f64;
        assert!(frac < 0.30, "low-rated fraction {frac}");
        assert!(!r.low_rated_pairs.is_empty(), "expected some low-rated pairs");
    }

    #[test]
    fn inter_rater_mostly_agrees() {
        let b = bench();
        let ir = inter_rater(&b, 50, 7);
        assert_eq!(ir.per_pair.len(), 50);
        assert_eq!(ir.fully_agree + ir.mainly_agree + ir.disagree, 50);
        // Figure 12's shape: full+mainly agreement dominates.
        assert!(
            ir.fully_agree + ir.mainly_agree > ir.disagree,
            "{} + {} vs {}",
            ir.fully_agree,
            ir.mainly_agree,
            ir.disagree
        );
        for (ratings, spread) in &ir.per_pair {
            assert_eq!(ratings.len(), 4);
            assert!(*spread <= 4);
        }
    }
}
