//! Sample statistics: medians, quartiles and the tail-percentile rule every
//! distribution in the report follows.

/// Median of a sample (mean of the two middle values when the count is
/// even). Panics on an empty sample, which is a bug in the caller.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// `xs` sorted ascending by total order.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending sample, interpolating
/// linearly between the two closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Tail levels a distribution may report, highest first, in per-mille.
const TAIL_LEVELS: [(u32, &str); 2] = [(990, "p99"), (900, "p90")];

/// The highest tail level (at most p99) that still has at least ten
/// samples beyond it in a sample of `n`, with its metric suffix; `None`
/// when even p90 is not supported (fewer than 100 samples), so only the
/// median is reported.
pub fn tail_level(n: usize) -> Option<(f64, &'static str)> {
    TAIL_LEVELS
        .iter()
        .find(|(per_mille, _)| n as u64 * u64::from(1000 - per_mille) >= 10 * 1000)
        .map(|&(per_mille, label)| (f64::from(per_mille) / 1000.0, label))
}

/// Summary of one timing distribution: the median, the tail picked by
/// [`tail_level`], the total and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(&'static str, f64)>,
    pub total: f64,
}

impl Dist {
    pub fn of(xs: &[f64]) -> Dist {
        let s = sorted(xs);
        Dist {
            n: s.len(),
            p50: percentile(&s, 0.5),
            tail: tail_level(s.len()).map(|(p, label)| (label, percentile(&s, p))),
            total: s.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100).map(|t| t.1), Some("p90"));
        assert_eq!(tail_level(999).map(|t| t.1), Some("p90"));
        assert_eq!(tail_level(1000).map(|t| t.1), Some("p99"));
        assert_eq!(tail_level(100_000).map(|t| t.1), Some("p99"));
    }

    #[test]
    fn dist_reports_median_tail_total_and_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&xs);
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500.5);
        let (label, p99) = d.tail.unwrap();
        assert_eq!(label, "p99");
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
        assert_eq!(d.total, 500_500.0);
        // Ten samples lie beyond the reported tail.
        assert_eq!(xs.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn small_samples_report_only_the_median() {
        let d = Dist::of(&[5.0, 1.0, 3.0]);
        assert_eq!((d.n, d.p50, d.tail), (3, 3.0, None));
    }
}
