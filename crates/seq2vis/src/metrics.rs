//! The three §4.2 accuracy metrics plus the aggregations behind Table 4,
//! Table 5 and Figure 17.
//!
//! * **tree matching** — the predicted VIS AST exactly matches the gold AST
//!   (numeric literals compare by value, so `3` ≡ `3.0`);
//! * **result matching** — both trees execute to the same chart data on the
//!   database, even if the ASTs differ;
//! * **component matching** — per-component signature equality (VIS type,
//!   Axis/Select, Where, Join, Grouping, Binning, Order).

use nv_ast::{ChartType, Components, Hardness, Literal, Operand, Predicate, SetQuery, VisQuery};
use nv_core::stats::{overall, rate, rates, tally};
use nv_core::{par, trace, Nl2VisPredictor, NvBench};
use nv_data::{execute, Database};
use std::collections::BTreeMap;

/// Per-pair evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCase {
    pub pair_id: usize,
    pub gold_chart: ChartType,
    pub hardness: Hardness,
    /// The system produced a parseable tree at all.
    pub predicted: bool,
    pub pred_chart: Option<ChartType>,
    pub tree_match: bool,
    pub result_match: bool,
    /// Per-component match in [`nv_ast::components::COMPONENT_NAMES`] order.
    pub comp_match: [bool; 7],
    /// Whether the component is present on either side (accuracy
    /// denominator).
    pub comp_present: [bool; 7],
}

/// Evaluation over a pair subset.
#[derive(Debug, Clone)]
pub struct EvalReport {
    pub system: String,
    pub cases: Vec<EvalCase>,
}

/// Normalize numeric literals so `3` and `3.0` compare equal at tree level.
fn normalize_tree(q: &VisQuery) -> VisQuery {
    let mut q = q.clone();
    fn norm_op(o: &mut Operand) {
        match o {
            Operand::Lit(l) => norm_lit(l),
            Operand::List(ls) => ls.iter_mut().for_each(norm_lit),
            Operand::Subquery(s) => norm_set(s),
        }
    }
    fn norm_lit(l: &mut Literal) {
        if let Literal::Float(f) = l {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                *l = Literal::Int(*f as i64);
            }
        }
    }
    fn norm_pred(p: &mut Predicate) {
        match p {
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                norm_pred(a);
                norm_pred(b);
            }
            Predicate::Cmp { rhs, .. } => norm_op(rhs),
            Predicate::Between { low, high, .. } => {
                norm_op(low);
                norm_op(high);
            }
            Predicate::In { rhs, .. } => norm_op(rhs),
            Predicate::Like { .. } => {}
        }
    }
    fn norm_set(s: &mut SetQuery) {
        for b in s.bodies_mut() {
            if let Some(f) = &mut b.filter {
                norm_pred(f);
            }
        }
    }
    norm_set(&mut q.query);
    q
}

/// The §4.2 rule for a correct prediction, the one every scorer uses:
/// `pred` tree-matches `gold` (after literal normalization), or else it
/// draws the same chart type and both trees execute on `db` to equal data.
/// Returns `(tree_match, result_match)`; a tree match is also a result
/// match.
pub fn prediction_match(db: &Database, pred: &VisQuery, gold: &VisQuery) -> (bool, bool) {
    normalized_match(db, &normalize_tree(pred), &normalize_tree(gold))
}

/// [`prediction_match`] on trees that are already normalized.
fn normalized_match(db: &Database, pred: &VisQuery, gold: &VisQuery) -> (bool, bool) {
    if pred == gold {
        return (true, true);
    }
    let same_data = pred.chart == gold.chart
        && matches!((execute(db, pred), execute(db, gold)), (Ok(a), Ok(b)) if a.data_eq(&b));
    (false, same_data)
}

/// Score one benchmark pair: predict, then tree-, component- and
/// result-match against the gold tree. Each tree is normalized once.
fn score_pair(pred: &dyn Nl2VisPredictor, bench: &NvBench, pi: usize) -> EvalCase {
    let pair = &bench.pairs[pi];
    let vis = &bench.vis_objects[pair.vis_id];
    let db = bench.database(&vis.db_name).expect("db exists");
    let gold = normalize_tree(&vis.tree);
    let gold_comp = Components::of(&gold);

    let predicted = pred.predict(&pair.nl, db).map(|p| normalize_tree(&p));
    let mut case = EvalCase {
        pair_id: pair.pair_id,
        gold_chart: vis.chart,
        hardness: vis.hardness,
        predicted: predicted.is_some(),
        pred_chart: predicted.as_ref().and_then(|t| t.chart),
        tree_match: false,
        result_match: false,
        comp_match: [false; 7],
        comp_present: gold_comp.present_either(&Components::default()),
    };
    if let Some(p) = predicted {
        (case.tree_match, case.result_match) = normalized_match(db, &p, &gold);
        let pc = Components::of(&p);
        case.comp_match = pc.matches(&gold_comp);
        case.comp_present = pc.present_either(&gold_comp);
    }
    case
}

/// Evaluate one predictor over a subset of benchmark pairs. Pairs are
/// scored on every available core and the cases come back in `pair_idx`
/// order, so the report does not depend on the thread count.
pub fn evaluate(pred: &dyn Nl2VisPredictor, bench: &NvBench, pair_idx: &[usize]) -> EvalReport {
    let _span = trace::span("seq2vis.eval");
    let cases =
        par::map_ordered(pair_idx, par::available_threads(), |&pi| score_pair(pred, bench, pi));
    EvalReport { system: pred.name(), cases }
}

/// Top-k tree-matching accuracy at every k of `ks` (Table 5's DeepEye
/// top-1/3/6/19 columns), from one ranking per pair: each pair calls
/// `predict_top_k` once, at the largest k, and is a hit at k when one of
/// its first k predictions tree-matches. That reading relies on the prefix
/// contract of [`Nl2VisPredictor::predict_top_k`]. Returns one
/// per-hardness `(hits, total)` tally per entry of `ks`, in order. Pairs
/// are scored on every available core.
pub fn evaluate_top_ks(
    pred: &dyn Nl2VisPredictor,
    bench: &NvBench,
    pair_idx: &[usize],
    ks: &[usize],
) -> Vec<BTreeMap<Hardness, (usize, usize)>> {
    let _span = trace::span("seq2vis.eval");
    let max_k = ks.iter().copied().max().unwrap_or(0);
    // The rank of each pair's first tree match, if any.
    let ranks = par::map_ordered(pair_idx, par::available_threads(), |&pi| {
        let pair = &bench.pairs[pi];
        let vis = &bench.vis_objects[pair.vis_id];
        let db = bench.database(&vis.db_name).expect("db exists");
        let gold = normalize_tree(&vis.tree);
        let rank = pred
            .predict_top_k(&pair.nl, db, max_k)
            .iter()
            .position(|t| normalize_tree(t) == gold);
        (vis.hardness, rank)
    });
    ks.iter()
        .map(|&k| tally(ranks.iter().map(|&(h, rank)| (h, rank.is_some_and(|r| r < k)))))
        .collect()
}

/// [`evaluate_top_ks`] at one k: a hit if any of the k predictions
/// tree-matches.
pub fn evaluate_top_k(
    pred: &dyn Nl2VisPredictor,
    bench: &NvBench,
    pair_idx: &[usize],
    k: usize,
) -> BTreeMap<Hardness, (usize, usize)> {
    evaluate_top_ks(pred, bench, pair_idx, &[k]).remove(0)
}

impl EvalReport {
    pub fn n(&self) -> usize {
        self.cases.len()
    }

    /// Acc_tree.
    pub fn tree_accuracy(&self) -> f64 {
        rate((self.cases.iter().filter(|c| c.tree_match).count(), self.n()))
    }

    /// Acc_res.
    pub fn result_accuracy(&self) -> f64 {
        rate((self.cases.iter().filter(|c| c.result_match).count(), self.n()))
    }

    /// Tree accuracy by hardness (Figure 17(b) columns, Table 5 rows).
    pub fn by_hardness(&self) -> BTreeMap<Hardness, f64> {
        rates(&tally(self.cases.iter().map(|c| (c.hardness, c.tree_match))))
    }

    /// Tree accuracy by gold chart type.
    pub fn by_chart(&self) -> BTreeMap<ChartType, f64> {
        rates(&tally(self.cases.iter().map(|c| (c.gold_chart, c.tree_match))))
    }

    /// The full Figure-17 matrix: tree accuracy by (chart, hardness), with
    /// counts.
    pub fn matrix(&self) -> BTreeMap<(ChartType, Hardness), (usize, usize)> {
        tally(self.cases.iter().map(|c| ((c.gold_chart, c.hardness), c.tree_match)))
    }

    /// Table 4's "VIS" block: per gold chart type, how often the predicted
    /// chart type is right; plus the overall chart-type accuracy ("All").
    pub fn chart_type_accuracy(&self) -> (BTreeMap<ChartType, f64>, f64) {
        let m =
            tally(self.cases.iter().map(|c| (c.gold_chart, c.pred_chart == Some(c.gold_chart))));
        (rates(&m), rate(overall(&m)))
    }

    /// Table 4's Axis/Data blocks: accuracy per component, over pairs where
    /// the component is present on either side.
    pub fn component_accuracy(&self) -> BTreeMap<&'static str, f64> {
        use nv_ast::components::COMPONENT_NAMES;
        rates(&tally(self.cases.iter().flat_map(|c| {
            (0..COMPONENT_NAMES.len())
                .filter(move |&i| c.comp_present[i])
                .map(move |i| (COMPONENT_NAMES[i], c.comp_match[i]))
        })))
    }
}

/// Accuracy of the V-slot heuristic alone (paper §4.2: ~92.3%): mask the
/// gold tree's values, refill from the NL, and check the values (not the
/// rest of the tree) are recovered.
pub fn value_fill_accuracy(bench: &NvBench, pair_idx: &[usize]) -> (f64, usize) {
    use crate::values::{fill_values, mask_values};
    let mut hit = 0usize;
    let mut tot = 0usize;
    for &pi in pair_idx {
        let pair = &bench.pairs[pi];
        let vis = &bench.vis_objects[pair.vis_id];
        let gold_tokens = vis.tree.to_tokens();
        let (masked, values) = mask_values(&gold_tokens);
        if values.is_empty() {
            continue;
        }
        tot += 1;
        let filled = fill_values(&masked, &pair.nl);
        if let (Ok(f), Ok(g)) = (nv_ast::parse_vql(&filled), nv_ast::parse_vql(&gold_tokens)) {
            if normalize_tree(&f) == normalize_tree(&g) {
                hit += 1;
            }
        }
    }
    (rate((hit, tot)), tot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nv_ast::tokens::parse_vql_str;
    use nv_core::{Nl2SqlToNl2Vis, SynthesizerConfig};
    use nv_spider::{CorpusConfig, SpiderCorpus};

    fn bench() -> NvBench {
        let corpus = SpiderCorpus::generate(&CorpusConfig::small(31));
        Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench
    }

    /// Pair indices whose NL text is unique benchmark-wide (the test oracle
    /// looks trees up by NL, so duplicated NL would be ambiguous).
    fn unique_nl_idx(b: &NvBench, cap: usize) -> Vec<usize> {
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for p in &b.pairs {
            *counts.entry(p.nl.as_str()).or_default() += 1;
        }
        (0..b.pairs.len())
            .filter(|&i| counts[b.pairs[i].nl.as_str()] == 1)
            .take(cap)
            .collect()
    }

    /// An oracle that always returns the gold tree (upper bound), and a
    /// chart-flipping near-miss predictor.
    struct Oracle<'a>(&'a NvBench, bool);

    impl Nl2VisPredictor for Oracle<'_> {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn predict(&self, nl: &str, _db: &Database) -> Option<VisQuery> {
            let pair = self.0.pairs.iter().find(|p| p.nl == nl)?;
            let mut tree = self.0.vis_objects[pair.vis_id].tree.clone();
            if self.1 {
                // Flip the chart type to spoil VIS while keeping data parts.
                tree.chart = Some(match tree.chart.unwrap() {
                    ChartType::Bar => ChartType::Pie,
                    _ => ChartType::Bar,
                });
            }
            Some(tree)
        }
    }

    #[test]
    fn oracle_scores_perfectly() {
        let b = bench();
        let idx = unique_nl_idx(&b, 40);
        let r = evaluate(&Oracle(&b, false), &b, &idx);
        assert_eq!(r.tree_accuracy(), 1.0);
        assert_eq!(r.result_accuracy(), 1.0);
        let (_, all_chart) = r.chart_type_accuracy();
        assert_eq!(all_chart, 1.0);
        for (_, acc) in r.component_accuracy() {
            assert_eq!(acc, 1.0);
        }
        for (_, acc) in r.by_hardness() {
            assert_eq!(acc, 1.0);
        }
    }

    #[test]
    fn chart_flip_spoils_vis_but_not_data_components() {
        let b = bench();
        let idx = unique_nl_idx(&b, 40);
        let r = evaluate(&Oracle(&b, true), &b, &idx);
        assert_eq!(r.tree_accuracy(), 0.0);
        let (_, chart_acc) = r.chart_type_accuracy();
        assert_eq!(chart_acc, 0.0);
        let comp = r.component_accuracy();
        assert_eq!(comp["axis"], 1.0);
        assert_eq!(comp["vis"], 0.0);
        // Result matching requires the same chart type.
        assert_eq!(r.result_accuracy(), 0.0);
    }

    #[test]
    fn never_predicting_scores_zero() {
        struct Mute;
        impl Nl2VisPredictor for Mute {
            fn name(&self) -> String {
                "mute".into()
            }
            fn predict(&self, _: &str, _: &Database) -> Option<VisQuery> {
                None
            }
        }
        let b = bench();
        let idx: Vec<usize> = (0..b.pairs.len().min(10)).collect();
        let r = evaluate(&Mute, &b, &idx);
        assert_eq!(r.tree_accuracy(), 0.0);
        assert!(r.cases.iter().all(|c| !c.predicted));
    }

    #[test]
    fn normalize_tree_equates_int_float() {
        let a = parse_vql_str("select t.a from t where t.x > 3").unwrap();
        let b = parse_vql_str("select t.a from t where t.x > 3.0").unwrap();
        assert_ne!(a, b);
        assert_eq!(normalize_tree(&a), normalize_tree(&b));
    }

    #[test]
    fn value_fill_accuracy_is_high_on_synthetic_nl() {
        let b = bench();
        let idx: Vec<usize> = (0..b.pairs.len()).collect();
        let (acc, n) = value_fill_accuracy(&b, &idx);
        assert!(n > 10, "need pairs with values, got {n}");
        assert!(acc > 0.6, "value fill accuracy {acc} over {n}");
    }

    /// Cycles through every scoring branch by pair index: no prediction,
    /// the gold tree, a chart-flipped tree (result match short-circuits on
    /// the chart) and a duplicated select column (same chart, so both
    /// trees execute and their data is compared).
    struct Mixed<'a>(&'a NvBench);

    impl Nl2VisPredictor for Mixed<'_> {
        fn name(&self) -> String {
            "mixed".into()
        }
        fn predict(&self, nl: &str, _db: &Database) -> Option<VisQuery> {
            let i = self.0.pairs.iter().position(|p| p.nl == nl)?;
            let mut tree = self.0.vis_objects[self.0.pairs[i].vis_id].tree.clone();
            match i % 4 {
                0 => return None,
                1 => {}
                2 => {
                    tree.chart = Some(match tree.chart? {
                        ChartType::Bar => ChartType::Pie,
                        _ => ChartType::Bar,
                    })
                }
                _ => {
                    let body = tree.query.primary_mut();
                    let last = body.select.last()?.clone();
                    body.select.push(last);
                }
            }
            Some(tree)
        }
    }

    /// The parallel scorers return exactly what a sequential per-pair loop
    /// on the calling thread returns: every case, field by field and in
    /// input order, and the same per-hardness tallies.
    #[test]
    fn parallel_evaluation_equals_sequential_loop() {
        let b = bench();
        let idx = unique_nl_idx(&b, 60);
        for pred in [&Mixed(&b) as &dyn Nl2VisPredictor, &Oracle(&b, true)] {
            let report = evaluate(pred, &b, &idx);
            let expected: Vec<EvalCase> = idx.iter().map(|&pi| score_pair(pred, &b, pi)).collect();
            assert_eq!(report.system, pred.name());
            assert_eq!(report.cases, expected);

            for k in [1, 3] {
                let mut tallies: BTreeMap<Hardness, (usize, usize)> = BTreeMap::new();
                for &pi in &idx {
                    let pair = &b.pairs[pi];
                    let vis = &b.vis_objects[pair.vis_id];
                    let db = b.database(&vis.db_name).unwrap();
                    let gold = normalize_tree(&vis.tree);
                    let hit = pred
                        .predict_top_k(&pair.nl, db, k)
                        .iter()
                        .any(|t| normalize_tree(t) == gold);
                    let e = tallies.entry(vis.hardness).or_insert((0, 0));
                    e.1 += 1;
                    e.0 += usize::from(hit);
                }
                assert_eq!(evaluate_top_k(pred, &b, &idx, k), tallies, "k={k}");
            }
        }
        // The mixed predictor really reaches every branch.
        let r = evaluate(&Mixed(&b), &b, &idx);
        assert!(r.cases.iter().any(|c| !c.predicted));
        assert!(r.cases.iter().any(|c| c.tree_match));
        assert!(r.cases.iter().any(|c| c.predicted && c.pred_chart != Some(c.gold_chart)));
        assert!(r
            .cases
            .iter()
            .any(|c| c.predicted && !c.tree_match && c.pred_chart == Some(c.gold_chart)));
    }

    /// Returns five trees per question with the gold tree at rank `i % 6`
    /// of pair `i` (absent when that is 5) and chart-flipped decoys around
    /// it, and counts its `predict_top_k` calls.
    struct Ranked<'a> {
        bench: &'a NvBench,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Nl2VisPredictor for Ranked<'_> {
        fn name(&self) -> String {
            "ranked".into()
        }
        fn predict(&self, nl: &str, db: &Database) -> Option<VisQuery> {
            self.predict_top_k(nl, db, 1).pop()
        }
        fn predict_top_k(&self, nl: &str, _db: &Database, k: usize) -> Vec<VisQuery> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let i = self.bench.pairs.iter().position(|p| p.nl == nl).unwrap();
            let gold = &self.bench.vis_objects[self.bench.pairs[i].vis_id].tree;
            let mut decoy = gold.clone();
            decoy.chart = Some(match gold.chart.unwrap() {
                ChartType::Bar => ChartType::Pie,
                _ => ChartType::Bar,
            });
            (0..5).map(|r| if r == i % 6 { gold } else { &decoy }).take(k).cloned().collect()
        }
    }

    /// The list form ranks each pair once, at the largest k, and its
    /// per-k tallies equal one `evaluate_top_k` call per k.
    #[test]
    fn top_ks_rank_each_pair_once_and_match_per_k_scoring() {
        use std::sync::atomic::Ordering::Relaxed;
        let b = bench();
        let idx = unique_nl_idx(&b, 60);
        let pred = Ranked { bench: &b, calls: 0.into() };
        let ks = [0, 1, 3, 6];
        let all = evaluate_top_ks(&pred, &b, &idx, &ks);
        assert_eq!(pred.calls.load(Relaxed), idx.len(), "one ranking per pair");
        assert_eq!(all.len(), ks.len());
        for (&k, tallies) in ks.iter().zip(&all) {
            pred.calls.store(0, Relaxed);
            assert_eq!(*tallies, evaluate_top_k(&pred, &b, &idx, k), "k={k}");
            assert_eq!(pred.calls.load(Relaxed), idx.len());
            // NL is unique on `idx`, so pair `pi` ranks its gold at `pi % 6`.
            let expected = tally(idx.iter().map(|&pi| {
                (b.vis_objects[b.pairs[pi].vis_id].hardness, pi % 6 < k.min(5))
            }));
            assert_eq!(*tallies, expected, "k={k}");
        }
        // Hits grow with k, so every column reads its own prefix.
        let hits: Vec<usize> = all.iter().map(|m| overall(m).0).collect();
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "{hits:?}");
        assert!(evaluate_top_ks(&pred, &b, &idx, &[]).is_empty());
    }

    #[test]
    fn top_k_counts_by_hardness() {
        let b = bench();
        let idx = unique_nl_idx(&b, 30);
        let m = evaluate_top_k(&Oracle(&b, false), &b, &idx, 1);
        let total: usize = m.values().map(|(_, t)| t).sum();
        let hits: usize = m.values().map(|(h, _)| h).sum();
        assert_eq!(total, idx.len());
        assert_eq!(hits, idx.len());
    }
}
