//! Goodness-of-fit: Kolmogorov–Smirnov tests against the six Figure-9(a)
//! distribution families, with moment/MLE parameter estimation.

use crate::describe::Summary;
use crate::sample::{Dist, DistFamily};

/// One-sample KS statistic D = sup |F_emp(x) − F(x)|.
pub fn ks_statistic(values: &[f64], dist: &Dist) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// 5%-level KS critical value (asymptotic): `1.358 / √n`.
pub fn ks_critical(n: usize) -> f64 {
    1.358 / (n as f64).sqrt()
}

/// Estimate the family's parameters from data (moments / MLE).
/// Returns `None` when the family cannot fit the sample support at all
/// (e.g. log-normal over non-positive data).
pub fn estimate(family: DistFamily, values: &[f64]) -> Option<Dist> {
    let s = Summary::of(values)?;
    match family {
        DistFamily::Normal => {
            if s.sd <= 1e-12 {
                return None;
            }
            Some(Dist::Normal { mean: s.mean, sd: s.sd })
        }
        DistFamily::LogNormal => {
            if s.min <= 0.0 {
                return None;
            }
            let logs: Vec<f64> = values.iter().map(|v| v.ln()).collect();
            let ls = Summary::of(&logs)?;
            if ls.sd <= 1e-12 {
                return None;
            }
            Some(Dist::LogNormal { mu: ls.mean, sigma: ls.sd })
        }
        DistFamily::Exponential => {
            if s.min < 0.0 || s.mean <= 1e-12 {
                return None;
            }
            Some(Dist::Exponential { rate: 1.0 / s.mean })
        }
        DistFamily::PowerLaw => {
            if s.min <= 0.0 {
                return None;
            }
            // Hill/MLE estimator: α = 1 + n / Σ ln(x / x_min).
            let x_min = s.min;
            let sum_ln: f64 = values.iter().map(|v| (v / x_min).ln().max(0.0)).sum();
            if sum_ln <= 1e-9 {
                return None;
            }
            let alpha = 1.0 + values.len() as f64 / sum_ln;
            Some(Dist::PowerLaw { x_min, alpha })
        }
        DistFamily::Uniform => {
            if s.max - s.min <= 1e-12 {
                return None;
            }
            Some(Dist::Uniform { lo: s.min, hi: s.max })
        }
        DistFamily::ChiSquare => {
            if s.min < 0.0 || s.mean <= 1e-9 {
                return None;
            }
            // E[χ²(k)] = k.
            Some(Dist::ChiSquare { k: s.mean })
        }
    }
}

/// Result of fitting one column against all six families.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The best-fitting family that passed the KS test, or `None` if none
    /// did — Figure 9(a)'s "None" bucket (295 of nvBench's columns).
    pub best: Option<DistFamily>,
    /// KS statistic of every family that could be estimated.
    pub statistics: Vec<(DistFamily, f64)>,
    pub critical: f64,
}

/// Fit a sample against all six families and pick the best passing one.
pub fn fit_best(values: &[f64]) -> FitResult {
    let critical = ks_critical(values.len().max(1));
    let mut statistics = Vec::new();
    for fam in DistFamily::ALL {
        if let Some(dist) = estimate(fam, values) {
            statistics.push((fam, ks_statistic(values, &dist)));
        }
    }
    let best = statistics
        .iter()
        .filter(|(_, d)| *d <= critical)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(f, _)| *f);
    FitResult { best, statistics, critical }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn ks_accepts_true_distribution() {
        let mut r = rng();
        let d = Dist::Normal { mean: 5.0, sd: 2.0 };
        let sample = d.sample_n(&mut r, 500);
        let stat = ks_statistic(&sample, &d);
        assert!(stat < ks_critical(500), "D = {stat}");
    }

    #[test]
    fn ks_rejects_wrong_distribution() {
        let mut r = rng();
        let sample = Dist::Exponential { rate: 1.0 }.sample_n(&mut r, 500);
        let wrong = Dist::Uniform { lo: 0.0, hi: 10.0 };
        assert!(ks_statistic(&sample, &wrong) > ks_critical(500));
    }

    #[test]
    fn fit_recovers_lognormal() {
        let mut r = rng();
        let sample = Dist::LogNormal { mu: 2.0, sigma: 0.7 }.sample_n(&mut r, 800);
        let fit = fit_best(&sample);
        assert_eq!(fit.best, Some(DistFamily::LogNormal), "{:?}", fit.statistics);
    }

    #[test]
    fn fit_recovers_normal() {
        let mut r = rng();
        let sample = Dist::Normal { mean: 100.0, sd: 15.0 }.sample_n(&mut r, 800);
        let fit = fit_best(&sample);
        assert_eq!(fit.best, Some(DistFamily::Normal));
    }

    #[test]
    fn fit_recovers_uniform() {
        let mut r = rng();
        let sample = Dist::Uniform { lo: 10.0, hi: 20.0 }.sample_n(&mut r, 800);
        let fit = fit_best(&sample);
        assert_eq!(fit.best, Some(DistFamily::Uniform));
    }

    #[test]
    fn fit_none_for_bimodal() {
        let mut r = rng();
        let mut sample = Dist::Normal { mean: 0.0, sd: 0.5 }.sample_n(&mut r, 400);
        sample.extend(Dist::Normal { mean: 100.0, sd: 0.5 }.sample_n(&mut r, 400));
        let fit = fit_best(&sample);
        assert_eq!(fit.best, None, "{:?}", fit.statistics);
    }

    #[test]
    fn estimate_support_constraints() {
        assert!(estimate(DistFamily::LogNormal, &[-1.0, 2.0, 3.0]).is_none());
        assert!(estimate(DistFamily::Exponential, &[-1.0, 2.0]).is_none());
        assert!(estimate(DistFamily::Uniform, &[5.0, 5.0]).is_none());
        assert!(estimate(DistFamily::Normal, &[5.0, 5.0, 5.0]).is_none());
        assert!(estimate(DistFamily::PowerLaw, &[1.0, 2.0, 8.0]).is_some());
    }

    #[test]
    fn critical_value_shrinks_with_n() {
        assert!(ks_critical(100) > ks_critical(10_000));
    }
}
