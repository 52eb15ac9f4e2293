//! # nv-quality — filtering bad visualizations (§2.4)
//!
//! A reimplementation of the DeepEye filtering pipeline the paper uses to
//! prune bad candidate visualizations:
//!
//! 1. **expert rules** ([`expert_rules`]) remove invalid and obviously bad
//!    charts (single values, many-slice pies, many-category bars, lines over
//!    two qualitative variables — the exact patterns §2.4 reports pruning on
//!    TPC-H/TPC-DS);
//! 2. a **binary classifier** ([`ChartClassifier`]) over the published
//!    DeepEye feature set decides the remaining candidates.

pub mod classifier;
pub mod features;
pub mod rules;

pub use classifier::{expert_score, synthetic_training_set, ChartClassifier};
pub use features::ChartFeatures;
pub use rules::{expert_rules, RuleVerdict, MAX_BAR_CATEGORIES, MAX_PIE_SLICES, MAX_SERIES};

use nv_render::ChartData;

/// The combined DeepEye-style filter: rules first, then the classifier.
#[derive(Debug, Clone)]
pub struct DeepEyeFilter {
    classifier: ChartClassifier,
}

impl DeepEyeFilter {
    /// Train the classifier stage deterministically from `seed`.
    pub fn new(seed: u64) -> DeepEyeFilter {
        DeepEyeFilter { classifier: ChartClassifier::train_default(seed) }
    }

    /// M(v): true ⇔ the chart is good (paper §2.4).
    pub fn is_good(&self, cd: &ChartData) -> bool {
        self.judge(cd).0
    }

    /// Verdict plus a human-readable reason for pruned charts.
    pub fn verdict(&self, cd: &ChartData) -> (bool, &'static str) {
        let (good, _, reason) = self.judge(cd);
        (good, reason)
    }

    /// Ranking score in [0, 1] (rule failures score 0) — used by the DeepEye
    /// keyword-search baseline to order its top-k charts.
    pub fn score(&self, cd: &ChartData) -> f64 {
        self.judge(cd).1
    }

    /// (M(v) verdict, ranking score) from one pass over the features — the
    /// synthesis pipeline's per-candidate call.
    pub fn evaluate(&self, cd: &ChartData) -> (bool, f64) {
        let (good, score, _) = self.judge(cd);
        (good, score)
    }

    /// The one "rules, then classifier" pass behind every accessor:
    /// (verdict, ranking score, reason). An invalid chart scores 0 and a
    /// rule-pruned one 0.05; a chart that passes the rules is decided and
    /// scored by the classifier.
    fn judge(&self, cd: &ChartData) -> (bool, f64, &'static str) {
        let f = ChartFeatures::of(cd);
        match expert_rules(&f) {
            RuleVerdict::Invalid(r) => (false, 0.0, r),
            RuleVerdict::Bad(r) => (false, 0.05, r),
            RuleVerdict::Pass => {
                let v = f.vector();
                let good = self.classifier.predict(&v);
                let reason = if good { "good" } else { "classifier: low quality" };
                (good, self.classifier.prob(&v), reason)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::ChartType;
    use nv_data::{ColumnType, Value};
    use nv_render::ChartRow;

    fn chart(n: usize, chart: ChartType) -> ChartData {
        ChartData {
            chart,
            x_name: "x".into(),
            y_name: "y".into(),
            series_name: None,
            x_type: ColumnType::Categorical,
            y_type: ColumnType::Quantitative,
            rows: (0..n)
                .map(|i| ChartRow {
                    x: Value::text(format!("c{i}")),
                    y: Value::Int((i % 7 + 1) as i64),
                    series: None,
                })
                .collect(),
        }
    }

    #[test]
    fn filter_accepts_reasonable_bar() {
        let f = DeepEyeFilter::new(42);
        assert!(f.is_good(&chart(6, ChartType::Bar)), "{:?}", f.verdict(&chart(6, ChartType::Bar)));
    }

    #[test]
    fn filter_rejects_single_value_and_many_slices() {
        let f = DeepEyeFilter::new(42);
        assert!(!f.is_good(&chart(1, ChartType::Bar)));
        assert!(!f.is_good(&chart(40, ChartType::Pie)));
    }

    #[test]
    fn scores_are_ordered() {
        let f = DeepEyeFilter::new(42);
        let good = f.score(&chart(6, ChartType::Bar));
        let bad = f.score(&chart(200, ChartType::Bar));
        assert!(good > bad, "{good} vs {bad}");
        assert!(f.score(&chart(0, ChartType::Bar)) == 0.0);
    }
}
