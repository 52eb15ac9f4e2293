//! The DeepEye baseline (§4.4): rule-based visualization from keyword
//! search. It matches columns mentioned in the NL, enumerates candidate
//! charts with the Table-1 rules, and ranks them with the chart-quality
//! model — returning top-k. Per the paper, it "can not successfully process
//! Join, Nested, and Filter queries": the NL's filter/join content is simply
//! ignored, which is exactly why it scores poorly on Hard/Extra-Hard tasks.

use crate::keyword::{match_columns, ColumnMention};
use nv_ast::{Attr, QueryBody, SetQuery, VisQuery};
use nv_core::Nl2VisPredictor;
use nv_data::{Database, ExecCache, ExecOptions};
use nv_quality::DeepEyeFilter;
use nv_render::{chart_data_with, ChartData, RenderError};
use nv_synth::generate_candidates;

/// The keyword-search visualization recommender.
pub struct DeepEyeBaseline {
    filter: DeepEyeFilter,
}

impl DeepEyeBaseline {
    pub fn new(seed: u64) -> DeepEyeBaseline {
        DeepEyeBaseline { filter: DeepEyeFilter::new(seed) }
    }

    /// Ranked candidate trees for an NL query. The candidates are siblings
    /// over one table, so they execute through one [`ExecCache`] that lives
    /// for this call only. Cached execution is bit-identical to uncached
    /// execution and spends the same budget, so the ranking is too.
    fn ranked(&self, nl: &str, db: &Database) -> Vec<VisQuery> {
        let mut cache = ExecCache::new();
        self.rank_by(nl, db, |tree| {
            chart_data_with(db, tree, ExecOptions { cache: Some(&mut cache), ..Default::default() })
        })
    }

    /// The candidate charts for `nl`, best first, each scored on the chart
    /// data `exec` returns for it; candidates that fail to execute drop out.
    fn rank_by(
        &self,
        nl: &str,
        db: &Database,
        mut exec: impl FnMut(&VisQuery) -> Result<ChartData, RenderError>,
    ) -> Vec<VisQuery> {
        let mentions = match_columns(nl, db);
        if mentions.is_empty() {
            return vec![];
        }
        // Build a pseudo SQL tree over the mentioned columns (≤ 3) and let
        // the candidate generator enumerate charts from it.
        let table = mentions[0].table.clone();
        let cols: Vec<&ColumnMention> = mentions.iter().take(3).collect();
        let select: Vec<Attr> = cols
            .iter()
            .map(|m| Attr::col(table.clone(), m.column.clone()))
            .collect();
        let sql = VisQuery::sql(SetQuery::simple(QueryBody::simple(table, select)));
        let mut scored: Vec<(f64, VisQuery)> = generate_candidates(db, &sql)
            .into_iter()
            .filter_map(|c| {
                let data = exec(&c.tree).ok()?;
                Some((self.filter.score(&data), c.tree))
            })
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.into_iter().map(|(_, t)| t).collect()
    }
}

impl Nl2VisPredictor for DeepEyeBaseline {
    fn name(&self) -> String {
        "DeepEye".into()
    }

    fn predict(&self, nl: &str, db: &Database) -> Option<VisQuery> {
        self.ranked(nl, db).into_iter().next()
    }

    fn predict_top_k(&self, nl: &str, db: &Database, k: usize) -> Vec<VisQuery> {
        let mut r = self.ranked(nl, db);
        r.truncate(k);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::ChartType;
    use nv_data::{table_from, ColumnType, ExecBudget, ExecError, Value};
    use nv_render::chart_data;
    use nv_spider::{domain_templates, CorpusConfig, SpiderCorpus};

    fn db() -> Database {
        let mut db = Database::new("d", "Demo");
        db.add_table(table_from(
            "student",
            &[
                ("major", ColumnType::Categorical),
                ("gpa", ColumnType::Quantitative),
                ("age", ColumnType::Quantitative),
            ],
            (0..40)
                .map(|i| {
                    vec![
                        Value::text(["cs", "math", "bio", "art", "law"][i % 5]),
                        Value::Float(2.0 + (i % 8) as f64 / 4.0),
                        Value::Int(18 + (i % 10) as i64),
                    ]
                })
                .collect(),
        ));
        db
    }

    #[test]
    fn produces_ranked_charts_for_mentioned_columns() {
        let b = DeepEyeBaseline::new(42);
        let top = b.predict_top_k("show gpa by major", &db(), 6);
        assert!(!top.is_empty());
        assert!(top.len() <= 6);
        // All candidates visualize the mentioned columns.
        for t in &top {
            let cols: Vec<String> = t
                .query
                .primary()
                .select
                .iter()
                .map(|a| a.col.column.clone())
                .collect();
            assert!(
                cols.iter().any(|c| c == "gpa" || c == "major" || c == "*"),
                "{cols:?}"
            );
        }
    }

    #[test]
    fn ignores_filters_entirely() {
        let b = DeepEyeBaseline::new(42);
        let t = b
            .predict("show gpa by major for students with age above 20", &db())
            .unwrap();
        assert!(t.query.primary().filter.is_none());
    }

    #[test]
    fn no_mentions_no_prediction() {
        let b = DeepEyeBaseline::new(42);
        assert!(b.predict("tell me something nice", &db()).is_none());
    }

    #[test]
    fn top1_is_best_scored() {
        let b = DeepEyeBaseline::new(42);
        let ranked = b.ranked("gpa per major", &db());
        assert!(ranked.len() >= 2);
        // The first tree must be a valid chart over the mentioned data.
        assert!(ranked[0].is_vis());
        assert_ne!(ranked[0].chart, None);
        let _ = ChartType::ALL;
    }

    /// One ranking's cache must not change what it ranks: over one database
    /// of every domain template, `ranked` equals the ranking built with
    /// uncached `chart_data` for the corpus questions on that database, for
    /// questions naming every column of a table and for one naming none.
    /// Under a fuel budget tight enough that some candidates fail, a cached
    /// and an uncached ranking drop the same candidates.
    #[test]
    fn cached_ranking_equals_uncached() {
        let n_databases = domain_templates().len();
        let corpus = SpiderCorpus::generate(&CorpusConfig { n_databases, pairs_per_db: 6, seed: 5 });
        let b = DeepEyeBaseline::new(42);
        let tight = ExecBudget { fuel: 150, ..ExecBudget::default() };
        let (mut ranked, mut exhausted, mut executed) = (0, 0, 0);
        for db in &corpus.databases {
            let mut nls: Vec<String> =
                corpus.pairs.iter().filter(|p| p.db_name == db.name).map(|p| p.nl.clone()).collect();
            for t in &db.tables {
                let cols: Vec<&str> = t.schema.columns.iter().map(|c| c.name.as_str()).collect();
                nls.push(format!("show {} of {}", cols.join(" and "), t.schema.name));
            }
            nls.push("tell me something nice".into());
            for nl in &nls {
                let uncached = b.rank_by(nl, db, |t| chart_data(db, t));
                assert_eq!(b.ranked(nl, db), uncached, "{}: {nl}", db.name);
                ranked += usize::from(!uncached.is_empty());

                let mut cache = ExecCache::new();
                let cached = b.rank_by(nl, db, |t| {
                    chart_data_with(db, t, ExecOptions { cache: Some(&mut cache), budget: tight })
                });
                let uncached = b.rank_by(nl, db, |t| {
                    let r = chart_data_with(db, t, ExecOptions { cache: None, budget: tight });
                    let out_of_fuel =
                        matches!(&r, Err(RenderError::Exec(ExecError::ResourceExhausted(_))));
                    exhausted += usize::from(out_of_fuel);
                    executed += 1;
                    r
                });
                assert_eq!(cached, uncached, "fuel {}: {}: {nl}", tight.fuel, db.name);
            }
        }
        assert!(ranked > corpus.databases.len(), "only {ranked} questions ranked anything");
        assert!(0 < exhausted && exhausted < executed, "{exhausted} of {executed} ran out of fuel");
    }
}
