//! Stochastic rater simulation (DESIGN.md, Substitution 5).
//!
//! The paper's §3.3 study used 23 experts and 312 crowd workers on two
//! 5-point Likert tasks: **T1** "is this NL close to handwritten?" and
//! **T2** "does the NL match the vis?". We cannot run humans, so ratings are
//! generated from a *latent quality* derived honestly from synthesis
//! metadata (template regeneration after deletions, hardness carried over
//! from complex SQL, filter/join content that is hard to verify visually —
//! the exact factors the paper's participants cited), plus rater noise:
//! experts are low-noise, crowd workers noisier. Percentages in the
//! regenerated Figure 13 are emergent, not hard-coded.

use nv_core::{NlVisPair, VisObject};
use nv_ast::Hardness;
use rand::rngs::StdRng;
use rand::Rng;

/// 5-point Likert answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Likert {
    StronglyDisagree = 1,
    Disagree = 2,
    Neutral = 3,
    Agree = 4,
    StronglyAgree = 5,
}

impl Likert {
    pub const ALL: [Likert; 5] = [
        Likert::StronglyDisagree,
        Likert::Disagree,
        Likert::Neutral,
        Likert::Agree,
        Likert::StronglyAgree,
    ];

    pub fn score(self) -> u8 {
        self as u8
    }

    pub fn from_score(s: u8) -> Likert {
        match s {
            0 | 1 => Likert::StronglyDisagree,
            2 => Likert::Disagree,
            3 => Likert::Neutral,
            4 => Likert::Agree,
            _ => Likert::StronglyAgree,
        }
    }

    pub fn is_positive(self) -> bool {
        self >= Likert::Agree
    }

    pub fn is_negative(self) -> bool {
        self <= Likert::Disagree
    }
}

/// Latent (T1 naturalness, T2 matching) quality of one (NL, VIS) pair,
/// in [0, 1].
pub fn latent_quality(vis: &VisObject, pair: &NlVisPair) -> (f64, f64) {
    let words = pair.nl.split_whitespace().count();

    // T1 — naturalness. Penalties mirror the participants' comments:
    // long/complex sentences read machine-generated; template-regenerated
    // NL (after deletions) is stiffer.
    let mut t1: f64 = 0.92;
    if words > 30 {
        t1 -= 0.18;
    } else if words > 22 {
        t1 -= 0.08;
    }
    if vis.needed_manual_nl {
        t1 -= 0.06;
    }
    match vis.hardness {
        Hardness::Hard => t1 -= 0.08,
        Hardness::ExtraHard => t1 -= 0.14,
        _ => {}
    }

    // T2 — matching. Filter/Join descriptions are hard to verify against the
    // rendered chart (the paper's own post-analysis of low ratings).
    let mut t2: f64 = 0.94;
    let body = vis.tree.query.primary();
    if body.filter.is_some() {
        t2 -= 0.08;
    }
    if body.has_join() {
        t2 -= 0.13;
    }
    if vis.tree.query.set_op().is_some() {
        t2 -= 0.12;
    }
    match vis.hardness {
        Hardness::Hard => t2 -= 0.04,
        Hardness::ExtraHard => t2 -= 0.08,
        _ => {}
    }
    (t1.clamp(0.05, 1.0), t2.clamp(0.05, 1.0))
}

/// Rater profile.
#[derive(Debug, Clone, Copy)]
pub struct Rater {
    /// Rating noise (σ of the Gaussian perturbation on the latent quality).
    pub noise: f64,
    /// Systematic leniency (positive) or harshness (negative).
    pub bias: f64,
}

impl Rater {
    pub fn expert(rng: &mut StdRng) -> Rater {
        Rater { noise: 0.07, bias: rng.random_range(-0.02..0.02) }
    }

    pub fn crowd(rng: &mut StdRng) -> Rater {
        Rater { noise: 0.09, bias: rng.random_range(-0.03..0.04) }
    }

    /// One Likert rating of a latent quality.
    pub fn rate(&self, rng: &mut StdRng, quality: f64) -> Likert {
        let z = gaussian(rng) * self.noise + self.bias;
        let x = quality + z;
        if x < 0.35 {
            Likert::StronglyDisagree
        } else if x < 0.55 {
            Likert::Disagree
        } else if x < 0.72 {
            Likert::Neutral
        } else if x < 0.88 {
            Likert::Agree
        } else {
            Likert::StronglyAgree
        }
    }
}

/// Majority voting with 3 → 7 escalation (§3.3): if three workers all
/// disagree, more are asked, capped at seven; ties resolve to the median.
pub fn majority_vote(
    rng: &mut StdRng,
    raters: &[Rater],
    quality: f64,
    start: usize,
    cap: usize,
) -> Likert {
    let mut votes: Vec<Likert> = Vec::with_capacity(cap);
    let mut next = 0usize;
    let ask = |votes: &mut Vec<Likert>, rng: &mut StdRng, next: &mut usize| {
        let r = raters[*next % raters.len()];
        *next += 1;
        votes.push(r.rate(rng, quality));
    };
    for _ in 0..start.min(cap) {
        ask(&mut votes, rng, &mut next);
    }
    loop {
        if let Some(winner) = plurality(&votes) {
            return winner;
        }
        if votes.len() >= cap {
            // No plurality at the cap: median.
            let mut s: Vec<u8> = votes.iter().map(|v| v.score()).collect();
            s.sort_unstable();
            return Likert::from_score(s[s.len() / 2]);
        }
        ask(&mut votes, rng, &mut next);
    }
}

/// The plurality winner, if any: the unique most-common answer, given at
/// least twice. All-distinct votes (the paper's "each one gives a different
/// answer") or a tie escalate.
fn plurality(votes: &[Likert]) -> Option<Likert> {
    let mut counts = [0usize; 6];
    for v in votes {
        counts[v.score() as usize] += 1;
    }
    let max = *counts.iter().max().unwrap();
    if max < 2 {
        return None;
    }
    let winners: Vec<usize> = (1..=5).filter(|&i| counts[i] == max).collect();
    if winners.len() == 1 {
        Some(Likert::from_score(winners[0] as u8))
    } else {
        None
    }
}

/// Box–Muller standard normal.
pub fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn likert_round_trip() {
        for l in Likert::ALL {
            assert_eq!(Likert::from_score(l.score()), l);
        }
        assert!(Likert::Agree.is_positive());
        assert!(Likert::Disagree.is_negative());
        assert!(!Likert::Neutral.is_positive());
    }

    #[test]
    fn experts_rate_high_quality_positively() {
        let mut r = rng();
        let rater = Rater::expert(&mut r);
        let positive = (0..500)
            .filter(|_| rater.rate(&mut r, 0.92).is_positive())
            .count();
        assert!(positive > 450, "{positive}/500");
        let negative = (0..500)
            .filter(|_| rater.rate(&mut r, 0.2).is_negative())
            .count();
        assert!(negative > 450, "{negative}/500");
    }

    #[test]
    fn crowd_is_noisier_than_experts() {
        let mut r = rng();
        let expert = Rater::expert(&mut r);
        let crowd = Rater::crowd(&mut r);
        let spread = |rater: Rater, r: &mut StdRng| {
            let votes: Vec<u8> = (0..400).map(|_| rater.rate(r, 0.7).score()).collect();
            let mean = votes.iter().map(|&v| v as f64).sum::<f64>() / votes.len() as f64;
            votes.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / votes.len() as f64
        };
        assert!(spread(crowd, &mut r) > spread(expert, &mut r));
    }

    #[test]
    fn majority_vote_converges() {
        let mut r = rng();
        let raters: Vec<Rater> = (0..7).map(|_| Rater::crowd(&mut r)).collect();
        // High quality → positive verdicts dominate.
        let positive = (0..200)
            .filter(|_| majority_vote(&mut r, &raters, 0.9, 3, 7).is_positive())
            .count();
        assert!(positive > 160, "{positive}/200");
    }

    #[test]
    fn latent_quality_penalizes_complexity() {
        let tree = nv_ast::tokens::parse_vql_str(
            "visualize bar select t.a , count ( t.* ) from t group by t.a",
        )
        .unwrap();
        let vis = |hard, manual| VisObject {
            vis_id: 0,
            db_name: "d".into(),
            source_pair_id: 0,
            vql: tree.to_vql(),
            chart: nv_ast::ChartType::Bar,
            hardness: hard,
            tree: tree.clone(),
            edit: Default::default(),
            needed_manual_nl: manual,
        };
        let short = NlVisPair { pair_id: 0, vis_id: 0, nl: "Show a bar of counts.".into() };
        let long = NlVisPair {
            pair_id: 1,
            vis_id: 0,
            nl: "word ".repeat(35).trim().to_string(),
        };
        let (t1_easy, t2_easy) = latent_quality(&vis(Hardness::Easy, false), &short);
        let (t1_long, _) = latent_quality(&vis(Hardness::Easy, false), &long);
        let (t1_hard, t2_hard) = latent_quality(&vis(Hardness::ExtraHard, true), &short);
        assert!(t1_long < t1_easy);
        assert!(t1_hard < t1_easy);
        assert!(t2_hard < t2_easy);
    }
}
