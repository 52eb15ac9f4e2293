//! The NL2VIS predictor interface shared by the neural translator and the
//! rule-based baselines, so the §4 evaluation harness can score them
//! uniformly.

use nv_ast::VisQuery;
use nv_data::Database;

/// Anything that turns an NL query (plus the database schema/content) into a
/// VIS tree.
///
/// Predictors are `Sync` because the evaluation harness scores test pairs
/// on every core, calling one shared predictor from several threads.
pub trait Nl2VisPredictor: Sync {
    /// Human-readable system name ("seq2vis+attention", "DeepEye", "NL4DV").
    fn name(&self) -> String;

    /// Predict the top-1 visualization; `None` when the system cannot
    /// produce one (e.g. a rule-based baseline facing a join it does not
    /// support).
    fn predict(&self, nl: &str, db: &Database) -> Option<VisQuery>;

    /// Top-k predictions, best first. Implementations keep the prefix
    /// contract: for any `k <= K`, the top-k list is the first k entries of
    /// the top-K list, so a scorer can rank once at the largest k and read
    /// every smaller k off that one list (as seq2vis's `evaluate_top_ks`
    /// does for Table 5). The default wraps [`predict`].
    ///
    /// [`predict`]: Nl2VisPredictor::predict
    fn predict_top_k(&self, nl: &str, db: &Database, k: usize) -> Vec<VisQuery> {
        if k == 0 {
            return vec![];
        }
        self.predict(nl, db).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::tokens::parse_vql_str;

    struct Fixed;

    impl Nl2VisPredictor for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn predict(&self, _nl: &str, _db: &Database) -> Option<VisQuery> {
            Some(parse_vql_str("visualize bar select t.a , count ( t.* ) from t group by t.a").unwrap())
        }
    }

    #[test]
    fn default_top_k_wraps_predict() {
        let f = Fixed;
        let db = Database::new("d", "x");
        assert_eq!(f.predict_top_k("q", &db, 3).len(), 1);
        assert_eq!(f.predict_top_k("q", &db, 0).len(), 0);
        assert_eq!(f.name(), "fixed");
    }
}
