//! Descriptive statistics: moments, quartiles, skewness classes, IQR
//! outliers and Pearson correlation — everything Figures 8–9 and
//! the DeepEye feature extractor need.

/// Summary of a numeric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub sd: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Fisher–Pearson moment coefficient of skewness (g1).
    pub skewness: f64,
}

impl Summary {
    /// Compute the summary; returns `None` on an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let m2 = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let m3 = values.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64;
        let sd = m2.sqrt();
        let skewness = if sd > 1e-12 { m3 / sd.powi(3) } else { 0.0 };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n,
            mean,
            sd,
            min: sorted[0],
            max: sorted[n - 1],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            skewness,
        })
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Skewness class per the paper's Figure 9(b) buckets.
    pub fn skew_class(&self) -> SkewClass {
        let s = self.skewness.abs();
        if s < 0.5 {
            SkewClass::ApproxSymmetric
        } else if s <= 1.0 {
            SkewClass::ModeratelySkewed
        } else {
            SkewClass::HighlySkewed
        }
    }
}

/// Linear-interpolated quantile over a pre-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Figure 9(b) skewness classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SkewClass {
    ApproxSymmetric,
    ModeratelySkewed,
    HighlySkewed,
}

impl SkewClass {
    pub fn name(self) -> &'static str {
        match self {
            SkewClass::ApproxSymmetric => "approximately symmetric",
            SkewClass::ModeratelySkewed => "moderately skewed",
            SkewClass::HighlySkewed => "highly skewed",
        }
    }
}

/// Fraction of points more than `1.5 × IQR` outside [Q1, Q3] (paper §3.2).
pub fn outlier_fraction(values: &[f64]) -> f64 {
    let Some(s) = Summary::of(values) else { return 0.0 };
    let iqr = s.iqr();
    let lo = s.q1 - 1.5 * iqr;
    let hi = s.q3 + 1.5 * iqr;
    let outliers = values.iter().filter(|&&v| v < lo || v > hi).count();
    outliers as f64 / values.len() as f64
}

/// Figure 9(c) outlier-percentage buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OutlierClass {
    /// 0%
    None,
    /// (0%, 1%]
    UpTo1,
    /// (1%, 10%]
    OneToTen,
    /// > 10%
    MoreThanTen,
}

impl OutlierClass {
    pub fn of(fraction: f64) -> OutlierClass {
        if fraction <= 0.0 {
            OutlierClass::None
        } else if fraction <= 0.01 {
            OutlierClass::UpTo1
        } else if fraction <= 0.10 {
            OutlierClass::OneToTen
        } else {
            OutlierClass::MoreThanTen
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            OutlierClass::None => "no outliers",
            OutlierClass::UpTo1 => "0-1% outliers",
            OutlierClass::OneToTen => "1-10% outliers",
            OutlierClass::MoreThanTen => ">10% outliers",
        }
    }
}

/// Pearson correlation coefficient; `None` when either side is constant or
/// lengths differ / are < 2.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx).powi(2);
        syy += (b - my).powi(2);
    }
    if sxx < 1e-12 || syy < 1e-12 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.sd, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-9);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn skew_classes() {
        let sym = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(sym.skew_class(), SkewClass::ApproxSymmetric);
        // Strong right tail.
        let mut v: Vec<f64> = vec![1.0; 50];
        v.extend([50.0, 80.0, 100.0]);
        let sk = Summary::of(&v).unwrap();
        assert_eq!(sk.skew_class(), SkewClass::HighlySkewed);
        assert_eq!(SkewClass::ModeratelySkewed.name(), "moderately skewed");
    }

    #[test]
    fn constant_sample_has_zero_skew() {
        let s = Summary::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.sd, 0.0);
    }

    #[test]
    fn outlier_fraction_detects_spikes() {
        let mut v: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        assert_eq!(outlier_fraction(&v), 0.0);
        v.push(1000.0);
        let f = outlier_fraction(&v);
        assert!(f > 0.0 && f < 0.02, "{f}");
        assert_eq!(OutlierClass::of(0.0), OutlierClass::None);
        assert_eq!(OutlierClass::of(0.005), OutlierClass::UpTo1);
        assert_eq!(OutlierClass::of(0.05), OutlierClass::OneToTen);
        assert_eq!(OutlierClass::of(0.5), OutlierClass::MoreThanTen);
    }

    #[test]
    fn pearson_corr() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let y2 = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y2).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]).is_none());
        assert!(pearson(&x, &[1.0]).is_none());
    }
}
