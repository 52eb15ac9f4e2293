//! Cross-crate integration tests: the full paper pipeline from corpus
//! generation through synthesis, rendering, filtering and evaluation.

use nvbench::core::{table3, CostReport, DatasetStats};
use nvbench::prelude::*;
use nvbench::quality::{ChartFeatures, DeepEyeFilter};

fn small_bench(seed: u64) -> (SpiderCorpus, nvbench::core::NvBench) {
    let corpus = SpiderCorpus::generate(&CorpusConfig {
        n_databases: 5,
        pairs_per_db: 20,
        seed,
    });
    let bench = Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench;
    (corpus, bench)
}

#[test]
fn every_vis_object_is_well_formed() {
    let (_, bench) = small_bench(100);
    assert!(bench.vis_objects.len() > 30, "only {} vis", bench.vis_objects.len());
    let filter = DeepEyeFilter::new(42);
    for vis in &bench.vis_objects {
        let db = bench.database(&vis.db_name).expect("db");
        // The VQL round-trips.
        let parsed = nvbench::ast::parse_vql(&vis.tree.to_tokens()).expect("round trip");
        assert_eq!(parsed, vis.tree, "{}", vis.vql);
        // The tree executes and yields a chart the filter approves.
        let cd = chart_data(db, &vis.tree).unwrap_or_else(|e| panic!("{}: {e}", vis.vql));
        assert!(!cd.rows.is_empty(), "{} renders empty", vis.vql);
        assert!(filter.is_good(&cd), "kept a bad chart: {}", vis.vql);
        // Both target languages produce valid JSON documents.
        let vega = to_vega_lite(&cd);
        assert!(vega["data"]["values"].is_array());
        let echarts = to_echarts(&cd);
        assert!(echarts["series"].is_array());
        // Hardness recomputes consistently.
        assert_eq!(vis.hardness, Hardness::of(&vis.tree));
    }
}

#[test]
fn every_pair_has_an_nl_mentioning_its_chart_family() {
    let (_, bench) = small_bench(101);
    let mut signal_hits = 0usize;
    for pair in &bench.pairs {
        assert!(!pair.nl.trim().is_empty());
        let vis = &bench.vis_objects[pair.vis_id];
        let nl = pair.nl.to_lowercase();
        // The chart type (or an implicit phrase for pies) should be
        // recoverable from the NL — that is what makes the benchmark
        // learnable.
        let signals: Vec<&str> = match vis.chart {
            ChartType::Pie => vec!["pie", "proportion", "share", "percentage"],
            ChartType::Bar => vec!["bar", "histogram"],
            ChartType::Line => vec!["line", "trend", "change over time"],
            ChartType::Scatter => vec!["scatter"],
            ChartType::StackedBar => vec!["stacked"],
            ChartType::GroupingLine => vec!["grouping line"],
            ChartType::GroupingScatter => vec!["grouping scatter"],
        };
        if signals.iter().any(|s| nl.contains(s)) {
            signal_hits += 1;
        }
    }
    let frac = signal_hits as f64 / bench.pairs.len() as f64;
    assert!(frac > 0.95, "chart signal only in {:.1}% of pairs", frac * 100.0);
}

#[test]
fn synthesis_statistics_match_paper_shapes() {
    let (_, bench) = small_bench(102);
    // Variants per vis in the paper's ballpark (3.75; manual vis get fewer).
    let vpv = bench.variants_per_vis();
    assert!((1.8..=5.0).contains(&vpv), "variants/vis {vpv}");

    // Bar-family charts dominate (paper: ~81% bar + stacked bar).
    let rows = table3(&bench);
    let all = rows.last().unwrap().n_vis as f64;
    let bar_family: usize = rows[..7]
        .iter()
        .filter(|r| matches!(r.chart, ChartType::Bar | ChartType::StackedBar))
        .map(|r| r.n_vis)
        .sum();
    // rows[..7] double-counts nothing: one row per type.
    assert!(
        bar_family as f64 / all > 0.5,
        "bar family {bar_family}/{all}"
    );

    // BLEU diversity in a sane band (paper: 0.337 average).
    let bleu = rows.last().unwrap().avg_bleu;
    assert!((0.05..0.9).contains(&bleu), "avg BLEU {bleu}");

    // Categorical-heavy column mix (paper: 68.8% C).
    let stats = DatasetStats::of(&bench);
    assert!(stats.type_pct('C') > 45.0);

    // The synthesizer is much cheaper than from-scratch (paper: 5.7%).
    let cost = CostReport::of(&bench);
    assert!(cost.cost_ratio() < 0.35, "cost ratio {}", cost.cost_ratio());
    assert!(cost.speedup() > 3.0);
}

#[test]
fn splits_partition_pairs_and_match_distributions() {
    let (_, bench) = small_bench(103);
    let split = bench.split(7);
    assert_eq!(split.len(), bench.pairs.len());
    let train_frac = split.train.len() as f64 / bench.pairs.len() as f64;
    assert!((0.78..0.82).contains(&train_frac));

    // Figure-16 claim: train and test have similar chart-type mixes.
    let mix = |idx: &[usize]| {
        let mut counts = std::collections::BTreeMap::new();
        for &i in idx {
            *counts
                .entry(bench.vis_objects[bench.pairs[i].vis_id].chart)
                .or_insert(0usize) += 1;
        }
        counts
    };
    let train_mix = mix(&split.train);
    let test_mix = mix(&split.test);
    let bar_train =
        *train_mix.get(&ChartType::Bar).unwrap_or(&0) as f64 / split.train.len() as f64;
    let bar_test = *test_mix.get(&ChartType::Bar).unwrap_or(&0) as f64 / split.test.len() as f64;
    assert!((bar_train - bar_test).abs() < 0.15, "{bar_train} vs {bar_test}");
}

#[test]
fn baselines_answer_some_queries_and_never_panic() {
    use nvbench::baselines::{DeepEyeBaseline, Nl4DvBaseline};
    let (_, bench) = small_bench(104);
    let deepeye = DeepEyeBaseline::new(42);
    let nl4dv = Nl4DvBaseline::new();
    let mut de_some = 0;
    let mut nl_some = 0;
    for pair in bench.pairs.iter().take(120) {
        let vis = &bench.vis_objects[pair.vis_id];
        let db = bench.database(&vis.db_name).unwrap();
        de_some += usize::from(deepeye.predict(&pair.nl, db).is_some());
        nl_some += usize::from(nl4dv.predict(&pair.nl, db).is_some());
        let _ = deepeye.predict_top_k(&pair.nl, db, 6);
    }
    assert!(de_some > 30, "DeepEye answered {de_some}/120");
    assert!(nl_some > 30, "NL4DV answered {nl_some}/120");
}

#[test]
fn filter_features_extracted_for_every_kept_chart() {
    let (_, bench) = small_bench(105);
    for vis in bench.vis_objects.iter().take(60) {
        let db = bench.database(&vis.db_name).unwrap();
        let cd = chart_data(db, &vis.tree).unwrap();
        let f = ChartFeatures::of(&cd);
        assert!(f.n_tuples >= 2, "{}", vis.vql);
        assert_eq!(f.vector().len(), ChartFeatures::DIM);
    }
}

#[test]
fn covid_study_gold_queries_round_trip() {
    let db = nvbench::spider::covid_database(42);
    for case in nvbench::spider::covid_cases() {
        let rt = nvbench::ast::parse_vql(&case.gold.to_tokens()).unwrap();
        assert_eq!(rt, case.gold);
        let rs = execute(&db, &case.gold).unwrap();
        assert!(!rs.rows.is_empty());
        let cd = chart_data(&db, &case.gold).unwrap();
        let _ = to_vega_lite(&cd);
        let _ = to_echarts(&cd);
    }
}

/// DeepEye keeps the `predict_top_k` prefix contract, so Table 5's one
/// ranking per question, read at k = 1, 3, 6 and 19, equals ranking the
/// question again at each k.
#[test]
fn deepeye_top_k_is_a_prefix_of_one_ranking() {
    use nvbench::baselines::DeepEyeBaseline;
    use nvbench::seq2vis::{evaluate_top_k, evaluate_top_ks};
    let corpus = SpiderCorpus::generate(&CorpusConfig::small(106));
    let bench = Nl2SqlToNl2Vis::new(SynthesizerConfig::default()).synthesize_corpus(&corpus).bench;
    let deepeye = DeepEyeBaseline::new(42);
    let idx: Vec<usize> = (0..bench.pairs.len()).collect();
    let ks = [1, 3, 6, 19];
    let once = evaluate_top_ks(&deepeye, &bench, &idx, &ks);
    for (&k, tallies) in ks.iter().zip(&once) {
        assert_eq!(*tallies, evaluate_top_k(&deepeye, &bench, &idx, k), "k={k}");
    }
    let hits: Vec<usize> = once.iter().map(|m| m.values().map(|(h, _)| h).sum()).collect();
    assert!(hits[0] > 0 && hits[3] > hits[0], "hits per k: {hits:?}");
    for pair in bench.pairs.iter().take(40) {
        let db = bench.database(&bench.vis_objects[pair.vis_id].db_name).unwrap();
        let all = deepeye.predict_top_k(&pair.nl, db, 19);
        for k in [1, 3, 6] {
            assert_eq!(deepeye.predict_top_k(&pair.nl, db, k)[..], all[..k.min(all.len())]);
        }
    }
}
