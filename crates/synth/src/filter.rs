//! Step 1b — pruning bad candidate visualizations with the DeepEye-style
//! filter (§2.4): execute each candidate, extract its chart data, apply the
//! expert rules and the trained classifier; only good charts survive.

use crate::edits::VisCandidate;
use nv_data::{Database, ExecError, ExecOptions};
use nv_quality::DeepEyeFilter;
use nv_render::{chart_data_with, ChartData, RenderError};

/// A candidate that survived filtering, with its executed chart data.
#[derive(Debug, Clone)]
pub struct GoodVis {
    pub candidate: VisCandidate,
    pub data: ChartData,
    /// The filter's ranking score, computed in the same pass as the verdict
    /// so downstream ranking never re-extracts chart features.
    pub score: f64,
}

/// Statistics from one filtering pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterStats {
    pub total: usize,
    pub kept: usize,
    /// Candidates whose execution failed (shape errors etc.).
    pub failed_exec: usize,
    /// Candidates pruned by the rules or the classifier.
    pub pruned: usize,
}

/// Apply M(v) to every candidate, keeping the good ones, executing each
/// under `opts`. Sibling candidates overwhelmingly share their
/// FROM/WHERE/GROUP fragments, so with a per-database [`ExecCache`] in
/// `opts` the scan work is done once.
///
/// Per-candidate execution failures (shape errors, unknown columns) are
/// tolerated and counted in [`FilterStats::failed_exec`] — a bad candidate
/// is just pruned. Only *systemic* failures abort the whole pass with `Err`:
/// a blown resource budget ([`ExecError::ResourceExhausted`]) or an internal
/// invariant violation ([`ExecError::Internal`]), both of which mean the
/// pair itself is pathological and belongs in quarantine.
///
/// [`ExecCache`]: nv_data::ExecCache
pub fn filter_candidates(
    db: &Database,
    candidates: Vec<VisCandidate>,
    filter: &DeepEyeFilter,
    mut opts: ExecOptions,
) -> Result<(Vec<GoodVis>, FilterStats), ExecError> {
    let mut stats = FilterStats { total: candidates.len(), ..Default::default() };
    let mut good = Vec::new();
    for candidate in candidates {
        // The `synth.filter` injection point *panics* (keyed on the
        // candidate's VQL) — it exercises the pipeline's catch_unwind
        // isolation, unlike the parser/executor sites which return errors.
        if nv_fault::armed() {
            nv_fault::panic_if("synth.filter", nv_fault::key_str(&candidate.tree.to_vql()));
        }
        let cand_opts = ExecOptions { cache: opts.cache.as_deref_mut(), budget: opts.budget };
        match chart_data_with(db, &candidate.tree, cand_opts) {
            Err(RenderError::Exec(
                e @ (ExecError::ResourceExhausted(_) | ExecError::Internal(_)),
            )) => return Err(e),
            Err(_) => stats.failed_exec += 1,
            Ok(data) => {
                let (is_good, score) = filter.evaluate(&data);
                if is_good {
                    stats.kept += 1;
                    good.push(GoodVis { candidate, data, score });
                } else {
                    stats.pruned += 1;
                }
            }
        }
    }
    nv_trace::count("synth.filter.candidates", stats.total as u64);
    nv_trace::count("synth.filter.kept", stats.kept as u64);
    nv_trace::count("synth.filter.pruned", stats.pruned as u64);
    nv_trace::count("synth.filter.failed_exec", stats.failed_exec as u64);
    Ok((good, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edits::generate_candidates;
    use nv_ast::tokens::parse_vql_str;
    use nv_data::{table_from, ColumnType, ExecBudget, Value};

    fn db(n_cats: usize) -> Database {
        let mut db = Database::new("d", "Demo");
        db.add_table(table_from(
            "t",
            &[
                ("cat", ColumnType::Categorical),
                ("q", ColumnType::Quantitative),
            ],
            (0..(n_cats * 3))
                .map(|i| {
                    vec![
                        Value::text(format!("c{}", i % n_cats)),
                        Value::Int((i % 11) as i64),
                    ]
                })
                .collect(),
        ));
        db
    }

    #[test]
    fn keeps_good_prunes_bad() {
        let filter = DeepEyeFilter::new(42);
        // 6 categories → good bar charts.
        let good_db = db(6);
        let cands = generate_candidates(
            &good_db,
            &parse_vql_str("select t.cat , t.q from t").unwrap(),
        );
        let (good, stats) =
            filter_candidates(&good_db, cands, &filter, ExecOptions::default()).unwrap();
        assert!(stats.kept > 0, "{stats:?}");
        assert_eq!(stats.total, stats.kept + stats.pruned + stats.failed_exec);
        assert!(!good.is_empty());

        // 300 categories → bar/pie variants all pruned.
        let bad_db = db(300);
        let cands = generate_candidates(
            &bad_db,
            &parse_vql_str("select t.cat from t").unwrap(),
        );
        let (good, stats) =
            filter_candidates(&bad_db, cands, &filter, ExecOptions::default()).unwrap();
        assert_eq!(good.len(), 0, "{stats:?}");
        assert!(stats.pruned > 0);
    }

    #[test]
    fn cached_filtering_matches_uncached() {
        let filter = DeepEyeFilter::new(42);
        let d = db(6);
        let cands = generate_candidates(
            &d,
            &parse_vql_str("select t.cat , t.q from t").unwrap(),
        );
        let (plain, s1) =
            filter_candidates(&d, cands.clone(), &filter, ExecOptions::default()).unwrap();
        let mut cache = nv_data::ExecCache::new();
        let opts = ExecOptions { cache: Some(&mut cache), ..ExecOptions::default() };
        let (cached, s2) = filter_candidates(&d, cands, &filter, opts).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(plain.len(), cached.len());
        for (a, b) in plain.iter().zip(&cached) {
            assert_eq!(a.data, b.data);
            assert_eq!(a.score, b.score);
        }
        assert!(cache.stats.hits() > 0, "{:?}", cache.stats);
    }

    #[test]
    fn good_vis_carries_chart_data() {
        let filter = DeepEyeFilter::new(42);
        let d = db(5);
        let cands = generate_candidates(&d, &parse_vql_str("select t.cat from t").unwrap());
        let (good, _) = filter_candidates(&d, cands, &filter, ExecOptions::default()).unwrap();
        for g in &good {
            assert!(!g.data.rows.is_empty());
            assert_eq!(Some(g.data.chart), g.candidate.tree.chart);
        }
    }

    #[test]
    fn exhausted_budget_aborts_the_pass() {
        let filter = DeepEyeFilter::new(42);
        let d = db(6);
        let cands = generate_candidates(
            &d,
            &parse_vql_str("select t.cat , t.q from t").unwrap(),
        );
        assert!(!cands.is_empty());
        // Starve the executor: the pass must surface ResourceExhausted
        // rather than count every candidate as a routine exec failure.
        let starved = ExecBudget { fuel: 1, ..ExecBudget::default() };
        let opts = ExecOptions { cache: None, budget: starved };
        let e = filter_candidates(&d, cands.clone(), &filter, opts).unwrap_err();
        assert!(matches!(e, ExecError::ResourceExhausted(_)), "{e}");
        let mut cache = nv_data::ExecCache::new();
        let opts = ExecOptions { cache: Some(&mut cache), budget: starved };
        let e = filter_candidates(&d, cands, &filter, opts).unwrap_err();
        assert!(matches!(e, ExecError::ResourceExhausted(_)), "{e}");
    }
}
