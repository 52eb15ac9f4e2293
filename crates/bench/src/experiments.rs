//! One experiment per paper table/figure. Each function returns the
//! regenerated artifact as formatted text (the textual equivalent of the
//! paper's table rows / figure series), which the `reproduce` binary prints
//! as one section of its report.

use crate::context::{train_variant, Context, Scale};
use nvbench::ast::{ChartType, Hardness};
use nvbench::core::{
    column_census, paper_reference_report, size_histograms, table3 as core_table3,
    type_hardness_matrix, CostModel, CostReport, DatasetStats, Nl2VisPredictor,
};
use nvbench::baselines::{DeepEyeBaseline, Nl4DvBaseline};
use nvbench::eval::{inter_rater, run_study, simulate_t3, StudyResult};
use nvbench::nn::ModelVariant;
use nvbench::seq2vis::{
    build_dataset, evaluate, evaluate_top_k, prediction_match, value_fill_accuracy, EvalReport,
    Seq2Vis,
};
use std::fmt::Write as _;

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

// ---------------------------------------------------------------- Table 2

/// Table 2 — nvBench dataset statistics.
pub fn exp_table2(ctx: &Context) -> String {
    let s = DatasetStats::of(&ctx.bench);
    let mut out = String::new();
    writeln!(out, "Table 2: dataset statistics").unwrap();
    writeln!(
        out,
        "  #-Databases {}  #-Tables {}  #-Domains {}",
        s.n_databases, s.n_tables, s.n_domains
    )
    .unwrap();
    let top: Vec<String> = s
        .domain_tables
        .iter()
        .take(5)
        .map(|(d, n)| format!("{d} ({n})"))
        .collect();
    writeln!(out, "  Top-5 domains: {}", top.join(", ")).unwrap();
    writeln!(
        out,
        "  #-Cols {} avg {:.2} max {} min {}",
        s.n_columns, s.avg_columns, s.max_columns, s.min_columns
    )
    .unwrap();
    writeln!(
        out,
        "  #-Rows {} avg {:.2} max {} min {}",
        s.n_rows, s.avg_rows, s.max_rows, s.min_rows
    )
    .unwrap();
    writeln!(
        out,
        "  Column types: C {:.2}%  T {:.2}%  Q {:.2}%",
        s.type_pct('C'),
        s.type_pct('T'),
        s.type_pct('Q')
    )
    .unwrap();
    out
}

// ---------------------------------------------------------------- Table 3

/// Table 3 — per-chart-type query statistics (incl. pairwise BLEU).
pub fn exp_table3(ctx: &Context) -> String {
    let rows = core_table3(&ctx.bench);
    let mut out = String::new();
    writeln!(out, "Table 3: nl and vis query statistics").unwrap();
    writeln!(
        out,
        "  {:<18} {:>6} {:>9} {:>8} {:>8} {:>6} {:>6} {:>9}",
        "vis type", "#-vis", "#-(nl,vis)", "per-vis", "avg #-W", "max", "min", "avg BLEU"
    )
    .unwrap();
    for (i, r) in rows.iter().enumerate() {
        let name = if i == rows.len() - 1 {
            "All types".to_string()
        } else {
            r.chart.display_name().to_string()
        };
        writeln!(
            out,
            "  {:<18} {:>6} {:>9} {:>8.3} {:>8.1} {:>6} {:>6} {:>9.3}",
            name, r.n_vis, r.n_pairs, r.pairs_per_vis, r.avg_words, r.max_words, r.min_words,
            r.avg_bleu
        )
        .unwrap();
    }
    out
}

// ---------------------------------------------------------------- Figure 8

/// Figure 8 — distributions of #columns and #rows per table.
pub fn exp_fig8(ctx: &Context) -> String {
    let (cols, rows) = size_histograms(&ctx.bench);
    let mut out = String::new();
    writeln!(out, "Figure 8(a): #tables by column count").unwrap();
    for (label, c) in cols {
        writeln!(out, "  {label} cols: {c}").unwrap();
    }
    writeln!(out, "Figure 8(b): #tables by row count").unwrap();
    for (label, c) in rows {
        writeln!(out, "  {label} rows: {c}").unwrap();
    }
    out
}

// ---------------------------------------------------------------- Figure 9

/// Figure 9 — column-level census (distribution fits, skewness, outliers).
pub fn exp_fig9(ctx: &Context) -> String {
    let census = column_census(&ctx.bench);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 9 ({} quantitative columns analyzed)",
        census.n_quant_columns
    )
    .unwrap();
    writeln!(out, "  (a) distribution fits:").unwrap();
    let mut fits: Vec<(&String, &usize)> = census.fits.iter().collect();
    fits.sort_by(|a, b| b.1.cmp(a.1));
    for (fam, n) in fits {
        writeln!(out, "      {fam}: {n}").unwrap();
    }
    writeln!(out, "  (b) skewness:").unwrap();
    for (class, n) in &census.skew {
        writeln!(out, "      {}: {n}", class.name()).unwrap();
    }
    writeln!(out, "  (c) outliers (1.5 IQR):").unwrap();
    for (class, n) in &census.outliers {
        writeln!(out, "      {}: {n}", class.name()).unwrap();
    }
    out
}

// --------------------------------------------------------------- Figure 10

/// Figure 10 — visualization types vs hardness.
pub fn exp_fig10(ctx: &Context) -> String {
    let m = type_hardness_matrix(&ctx.bench);
    let total: usize = m.values().sum();
    let mut out = String::new();
    writeln!(out, "Figure 10: vis type × hardness (n = {total})").unwrap();
    write!(out, "  {:<18}", "").unwrap();
    for h in Hardness::ALL {
        write!(out, "{:>12}", h.name()).unwrap();
    }
    writeln!(out).unwrap();
    for c in ChartType::ALL {
        write!(out, "  {:<18}", c.display_name()).unwrap();
        for h in Hardness::ALL {
            write!(out, "{:>12}", m.get(&(c, h)).copied().unwrap_or(0)).unwrap();
        }
        writeln!(out).unwrap();
    }
    let by_hardness: Vec<String> = Hardness::ALL
        .iter()
        .map(|h| {
            let n: usize = m
                .iter()
                .filter(|((_, hh), _)| hh == h)
                .map(|(_, c)| c)
                .sum();
            format!("{} {}", h.name(), pct(n as f64 / total.max(1) as f64))
        })
        .collect();
    writeln!(out, "  hardness mix: {}", by_hardness.join(", ")).unwrap();
    out
}

// --------------------------------------------------------------- Figure 12

/// Figure 12 — inter-rater reliability over 50 overlapping T2 pairs.
pub fn exp_fig12(ctx: &Context) -> String {
    let ir = inter_rater(&ctx.bench, 50, 7);
    let mut out = String::new();
    writeln!(out, "Figure 12: inter-rater reliability (50 T2 pairs)").unwrap();
    writeln!(
        out,
        "  fully agree: {}  mainly agree (Δ=1): {}  disagree (Δ≥2): {}",
        ir.fully_agree, ir.mainly_agree, ir.disagree
    )
    .unwrap();
    let spreads: Vec<String> = ir.per_pair.iter().map(|(_, d)| d.to_string()).collect();
    writeln!(out, "  per-pair max rating spread: {}", spreads.join(" ")).unwrap();
    out
}

// --------------------------------------------------------------- Figure 13

/// Figure 13 — expert/crowd Likert distributions for T1 and T2.
pub fn exp_fig13(ctx: &Context) -> String {
    let study = run_study(&ctx.bench, 0.10);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 13: expert/crowd evaluation ({} sampled pairs)",
        study.sampled_pairs.len()
    )
    .unwrap();
    let fmt = |name: &str, d: &[usize; 5]| {
        format!(
            "  {name:<10} SD {} D {} N {} A {} SA {}  → positive {} negative {}",
            d[0],
            d[1],
            d[2],
            d[3],
            d[4],
            pct(StudyResult::positive_rate(d)),
            pct(StudyResult::negative_rate(d))
        )
    };
    writeln!(out, "  T1 (handwritten?):").unwrap();
    writeln!(out, "{}", fmt("experts", &study.expert_t1)).unwrap();
    writeln!(out, "{}", fmt("crowd", &study.crowd_t1)).unwrap();
    writeln!(out, "  T2 (nl matches vis?):").unwrap();
    writeln!(out, "{}", fmt("experts", &study.expert_t2)).unwrap();
    writeln!(out, "{}", fmt("crowd", &study.crowd_t2)).unwrap();
    writeln!(out, "  low-rated pairs: {}", study.low_rated_pairs.len()).unwrap();
    out
}

// --------------------------------------------------------------- Figure 14

/// Figure 14 — T3 writing time + the §3.3 man-hour comparison.
pub fn exp_fig14(ctx: &Context) -> String {
    let timing = simulate_t3(&ctx.bench, 460, 42);
    let cost = CostReport::of(&ctx.bench, CostModel::default());
    let paper = paper_reference_report();
    let mut out = String::new();
    writeln!(out, "Figure 14: T3 writing time (460 simulated tasks, seconds)").unwrap();
    writeln!(
        out,
        "  min {:.0}  median {:.0}  mean {:.0}  max {:.0}",
        timing.min, timing.median, timing.mean, timing.max
    )
    .unwrap();
    writeln!(out, "Man-hour model (§3.1/§3.3), this benchmark:").unwrap();
    writeln!(
        out,
        "  manual NL revisions: {} variants over {} vis objects → {:.2} days",
        cost.manual_nl_variants,
        cost.manual_vis_objects,
        cost.synthesizer_days()
    )
    .unwrap();
    writeln!(
        out,
        "  from scratch: {} pairs × {:.0}s → {:.1} days  (ratio {:.1}%, speedup {:.1}×)",
        cost.total_pairs,
        CostModel::default().seconds_per_scratch_query,
        cost.scratch_days(),
        cost.cost_ratio() * 100.0,
        cost.speedup()
    )
    .unwrap();
    writeln!(
        out,
        "  paper constants: {:.1} days vs {:.1} days (ratio {:.1}%, speedup {:.1}×)",
        paper.synthesizer_days(),
        paper.scratch_days(),
        paper.cost_ratio() * 100.0,
        paper.speedup()
    )
    .unwrap();
    out
}

// --------------------------------------------------------------- Figure 16

/// Figure 16 — train/test distribution heatmaps over type × hardness.
pub fn exp_fig16(ctx: &Context) -> String {
    use nvbench::core::Split;
    let mut out = String::new();
    for (name, subset) in [("train", &ctx.split.train), ("test", &ctx.split.test)] {
        let hm = Split::heatmap(&ctx.bench, subset);
        let total: usize = hm.iter().map(|(_, c)| c).sum();
        writeln!(out, "Figure 16 ({name}, n = {total}): type × hardness (%)").unwrap();
        for c in ChartType::ALL {
            write!(out, "  {:<18}", c.display_name()).unwrap();
            for h in Hardness::ALL {
                let n = hm
                    .iter()
                    .find(|((cc, hh), _)| *cc == c && *hh == h)
                    .map(|(_, n)| *n)
                    .unwrap_or(0);
                write!(out, "{:>8.2}", n as f64 / total.max(1) as f64 * 100.0).unwrap();
            }
            writeln!(out).unwrap();
        }
    }
    out
}

// ---------------------------------------------- Table 4 / Figure 17 (models)

/// Train the three variants and evaluate them on the test set.
pub fn train_and_evaluate(ctx: &Context, scale: Scale) -> Vec<(Seq2Vis, EvalReport)> {
    let idx = ctx.test_idx(scale);
    ModelVariant::ALL
        .iter()
        .map(|&variant| {
            let (model, _) = train_variant(ctx, scale, variant);
            let report = evaluate(&model, &ctx.bench, &idx);
            (model, report)
        })
        .collect()
}

/// Figure 17 — tree-matching accuracy overall and by type × hardness.
pub fn exp_fig17(reports: &[(Seq2Vis, EvalReport)]) -> String {
    let mut out = String::new();
    writeln!(out, "Figure 17: vis tree matching accuracy (test set)").unwrap();
    for (_, r) in reports {
        writeln!(
            out,
            "  {:<20} overall {}  (result match {})",
            r.system,
            pct(r.tree_accuracy()),
            pct(r.result_accuracy())
        )
        .unwrap();
        let hard = r.by_hardness();
        let hard_s: Vec<String> = hard
            .iter()
            .map(|(h, a)| format!("{} {}", h.name(), pct(*a)))
            .collect();
        writeln!(out, "      by hardness: {}", hard_s.join(", ")).unwrap();
        let chart = r.by_chart();
        let chart_s: Vec<String> = chart
            .iter()
            .map(|(c, a)| format!("{} {}", c.keyword(), pct(*a)))
            .collect();
        writeln!(out, "      by type: {}", chart_s.join(", ")).unwrap();
    }
    out
}

/// Table 4 — average vis component matching accuracy.
pub fn exp_table4(reports: &[(Seq2Vis, EvalReport)]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4: vis component matching accuracy (%)").unwrap();
    writeln!(
        out,
        "  {:<20} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>8} {:>6}",
        "model", "VIS", "Axis", "Where", "Join", "Group", "Binning", "Order", "n"
    )
    .unwrap();
    for (_, r) in reports {
        let comp = r.component_accuracy();
        let (_, vis_all) = r.chart_type_accuracy();
        let g = |k: &str| comp.get(k).map(|a| pct(*a)).unwrap_or_else(|| "—".into());
        writeln!(
            out,
            "  {:<20} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>8} {:>6}",
            r.system,
            pct(vis_all),
            g("axis"),
            g("where"),
            g("join"),
            g("grouping"),
            g("binning"),
            g("order"),
            r.n()
        )
        .unwrap();
    }
    // Per-chart-type VIS accuracy of the attention model (the paper's VIS
    // block).
    if let Some((_, r)) = reports.get(1) {
        let (per, _) = r.chart_type_accuracy();
        let s: Vec<String> = per
            .iter()
            .map(|(c, a)| format!("{} {}", c.keyword(), pct(*a)))
            .collect();
        writeln!(out, "  VIS per type (+attention): {}", s.join(", ")).unwrap();
    }
    out
}

// ----------------------------------------------------------------- Table 5

/// Table 5 — seq2vis vs DeepEye (top-1/3/6/19) vs NL4DV, by hardness. The
/// paper's fourth DeepEye column is "all"; DeepEye ranks up to 59
/// candidates per question here, so the column is labelled top-19.
pub fn exp_table5(ctx: &Context, scale: Scale, seq2vis: &(Seq2Vis, EvalReport)) -> String {
    let idx = ctx.test_idx(scale);
    let deepeye = DeepEyeBaseline::new(42);
    let nl4dv = Nl4DvBaseline::new();

    let mut out = String::new();
    writeln!(out, "Table 5: comparison with the state of the art (tree match)").unwrap();
    writeln!(
        out,
        "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "hardness", "DE top-1", "DE top-3", "DE top-6", "DE top-19", "NL4DV", "SEQ2VIS"
    )
    .unwrap();

    let de: Vec<std::collections::BTreeMap<Hardness, (usize, usize)>> = [1usize, 3, 6, 19]
        .iter()
        .map(|&k| evaluate_top_k(&deepeye, &ctx.bench, &idx, k))
        .collect();
    let nl = evaluate(&nl4dv, &ctx.bench, &idx);
    let nl_h = nl.by_hardness();
    let sv_h = seq2vis.1.by_hardness();

    let rate = |m: &std::collections::BTreeMap<Hardness, (usize, usize)>, h: Hardness| {
        m.get(&h)
            .map(|(a, b)| if *b == 0 { 0.0 } else { *a as f64 / *b as f64 })
            .unwrap_or(0.0)
    };
    for h in Hardness::ALL {
        writeln!(
            out,
            "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            h.name(),
            pct(rate(&de[0], h)),
            pct(rate(&de[1], h)),
            pct(rate(&de[2], h)),
            pct(rate(&de[3], h)),
            pct(nl_h.get(&h).copied().unwrap_or(0.0)),
            pct(sv_h.get(&h).copied().unwrap_or(0.0)),
        )
        .unwrap();
    }
    let overall = |m: &std::collections::BTreeMap<Hardness, (usize, usize)>| {
        let (a, b) = m
            .values()
            .fold((0usize, 0usize), |(x, y), (a, b)| (x + a, y + b));
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    };
    writeln!(
        out,
        "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Overall",
        pct(overall(&de[0])),
        pct(overall(&de[1])),
        pct(overall(&de[2])),
        pct(overall(&de[3])),
        pct(nl.tree_accuracy()),
        pct(seq2vis.1.tree_accuracy()),
    )
    .unwrap();
    out
}

// --------------------------------------------------------------- Figure 18

/// Figure 18 — relative accuracy when injecting x% of the low-rated pairs
/// into the training set.
pub fn exp_fig18(ctx: &Context, scale: Scale) -> String {
    let study = run_study(&ctx.bench, 1.0);
    let low: std::collections::HashSet<usize> = study.low_rated_pairs.iter().copied().collect();
    let idx = ctx.test_idx(scale);

    // A reduced training budget keeps the 6-point sweep tractable; relative
    // accuracy is what the figure reports, so the shared budget cancels out.
    let mk_cfg = |variant| {
        let mut c = scale.model_config(variant);
        c.max_epochs = c.max_epochs.min(4);
        c.patience = c.max_epochs;
        c
    };

    let mut out = String::new();
    writeln!(
        out,
        "Figure 18: relative tree accuracy vs injected low-rated pairs ({} low-rated)",
        low.len()
    )
    .unwrap();
    // The dataset does not depend on the variant, so one serves all three.
    let dataset = build_dataset(&ctx.bench);
    let (low_train, clean): (Vec<usize>, Vec<usize>) =
        ctx.split.train.iter().partition(|&i| low.contains(i));
    // The 6-point sweep retrains per point; cap the budget harder than the
    // main runs (relative accuracy is the reported quantity).
    let cap = scale.train_cap().unwrap_or(usize::MAX).min(900);
    let val = dataset.subset(&ctx.split.val);
    for variant in ModelVariant::ALL {
        // The absolute clean-point accuracy comes first: a delta off a 0%
        // baseline says nothing.
        let mut line = format!("  {:<20}", variant.name());
        let mut base = 0.0;
        for pct_inject in [0usize, 20, 40, 60, 80, 100] {
            let n_low = low_train.len() * pct_inject / 100;
            let mut train_idx: Vec<usize> = clean.iter().copied().take(cap).collect();
            train_idx.extend(low_train.iter().copied().take(n_low));
            let mut model = Seq2Vis::from_dataset(&dataset, mk_cfg(variant));
            model.train_on(&dataset.subset(&train_idx), &val);
            let acc = evaluate(&model, &ctx.bench, &idx).tree_accuracy();
            if pct_inject == 0 {
                base = acc;
                write!(line, " clean {:.1}% |", acc * 100.0).unwrap();
            }
            write!(line, " {pct_inject}%→{:+.1}pp", (acc - base) * 100.0).unwrap();
        }
        writeln!(out, "{line}").unwrap();
    }
    out
}

// --------------------------------------------------------------- Figure 19

/// Figure 19 — the COVID-19 case study: six expert NL queries.
pub fn exp_fig19(model: &Seq2Vis) -> String {
    let db = nvbench::spider::covid_database(42);
    let cases = nvbench::spider::covid_cases();
    let mut out = String::new();
    writeln!(out, "Figure 19: COVID-19 case study ({} queries)", cases.len()).unwrap();
    let mut passed = 0;
    for case in &cases {
        let ok = model
            .predict(&case.nl, &db)
            .is_some_and(|p| prediction_match(&db, &p, &case.gold).1);
        if ok {
            passed += 1;
        }
        writeln!(
            out,
            "  [{}{}] {}",
            if ok { "PASS" } else { "FAIL" },
            if case.expect_fail { ", paper expects FAIL" } else { "" },
            case.nl
        )
        .unwrap();
    }
    writeln!(out, "  {passed}/{} succeeded (paper: 5/6)", cases.len()).unwrap();
    out
}

// ------------------------------------------------------------ §4.2 values

/// The value-filling heuristic's standalone accuracy (paper: ~92.3%).
pub fn exp_values(ctx: &Context) -> String {
    let idx: Vec<usize> = (0..ctx.bench.pairs.len()).collect();
    let (acc, n) = value_fill_accuracy(&ctx.bench, &idx);
    format!(
        "Value-filling heuristic (§4.2): {} over {n} pairs with V-slots (paper ~92.3%)\n",
        pct(acc)
    )
}

// -------------------------------------------------------------- Ablations

/// Ablations of three design choices DESIGN.md calls out (an extension, not
/// a paper artifact):
///
/// 1. **NL smoothing strength** (the back-translation substitute) against
///    the Table-3 BLEU diversity metric: stronger smoothing must lower
///    pairwise BLEU (more diverse variants).
/// 2. **Chart-quality filter stages**: what the expert rules alone prune vs
///    rules + classifier (the §2.4 two-stage design).
/// 3. **Deletion-aware candidate ranking**: the share of vis objects whose
///    NL needs manual revision under the shipped ranking (the §3.1
///    man-hour driver).
pub fn exp_ablation(ctx: &Context) -> String {
    format!(
        "{}\n{}\n{}",
        smoothing_ablation(),
        filter_stage_ablation(),
        ranking_ablation(ctx)
    )
}

fn smoothing_ablation() -> String {
    use nvbench::stats::{avg_pairwise_bleu, simple_tokens};
    use nvbench::synth::smooth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let base = "Show the total sales for each region in a bar chart.";
    let mut out = String::from("Ablation 1: smoothing strength vs pairwise BLEU\n");
    for strength in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let variants: Vec<Vec<String>> = (0..4u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(i * 31 + 7);
                simple_tokens(&smooth(&mut rng, base, strength))
            })
            .collect();
        let refs: Vec<Vec<&str>> = variants
            .iter()
            .map(|v| v.iter().map(String::as_str).collect())
            .collect();
        let bleu = avg_pairwise_bleu(&refs, 4);
        writeln!(out, "  strength {strength:.2} → BLEU {bleu:.3}").unwrap();
    }
    out
}

fn filter_stage_ablation() -> String {
    use nvbench::data::{ColumnType, Value};
    use nvbench::quality::{expert_rules, ChartFeatures, DeepEyeFilter};
    use nvbench::render::{ChartData, ChartRow};

    let filter = DeepEyeFilter::new(42);
    let mut rules_only = 0usize;
    let mut both = 0usize;
    let mut total = 0usize;
    // A sweep of synthetic charts across cardinalities and types.
    for chart in ChartType::ALL {
        let numeric_x = matches!(chart, ChartType::Scatter | ChartType::GroupingScatter);
        let grouped = chart.is_grouped();
        for k in [1usize, 2, 4, 8, 15, 30, 60, 120] {
            let cd = ChartData {
                chart,
                x_name: "x".into(),
                y_name: "y".into(),
                series_name: grouped.then(|| "s".into()),
                x_type: if numeric_x {
                    ColumnType::Quantitative
                } else {
                    ColumnType::Categorical
                },
                y_type: ColumnType::Quantitative,
                rows: (0..k * if grouped { 3 } else { 1 })
                    .map(|i| ChartRow {
                        x: if numeric_x {
                            Value::Int((i % k) as i64)
                        } else {
                            Value::text(format!("c{}", i % k))
                        },
                        y: Value::Int(((i * 31) % 97 + 1) as i64),
                        series: grouped.then(|| Value::text(format!("g{}", i / k))),
                    })
                    .collect(),
            };
            total += 1;
            if !expert_rules(&ChartFeatures::of(&cd)).is_pass() {
                rules_only += 1;
                both += 1;
            } else if !filter.is_good(&cd) {
                both += 1;
            }
        }
    }
    format!(
        "Ablation 2: filter stages over {total} synthetic charts\n  \
         expert rules alone prune {rules_only}; rules + classifier prune {both}\n"
    )
}

fn ranking_ablation(ctx: &Context) -> String {
    // The shipped pipeline ranks deletion-free candidates higher; report the
    // manual-revision share it achieves on this benchmark.
    let n = ctx.bench.vis_objects.len();
    let manual = ctx
        .bench
        .vis_objects
        .iter()
        .filter(|v| v.needed_manual_nl)
        .count();
    format!(
        "Ablation 3: deletion-aware ranking → {manual}/{n} vis objects need manual NL \
         ({:.1}%; paper: 25.4%)\n",
        manual as f64 / n.max(1) as f64 * 100.0
    )
}

// --------------------------------------------------------------- Figure 7

/// Figure 7 — TPC-style filtering sanity: the four example charts and the
/// filter's verdicts.
pub fn exp_fig7() -> String {
    use nvbench::data::{ColumnType, Value};
    use nvbench::quality::DeepEyeFilter;
    use nvbench::render::{ChartData, ChartRow};

    let filter = DeepEyeFilter::new(42);
    let mk = |chart: ChartType, n: usize, numeric_x: bool| ChartData {
        chart,
        x_name: "x".into(),
        y_name: "y".into(),
        series_name: None,
        x_type: if numeric_x { ColumnType::Quantitative } else { ColumnType::Categorical },
        y_type: ColumnType::Quantitative,
        rows: (0..n)
            .map(|i| ChartRow {
                x: if numeric_x { Value::Int(i as i64) } else { Value::text(format!("c{i}")) },
                y: Value::Int(((i * 37) % 90 + 10) as i64),
                series: None,
            })
            .collect(),
    };

    let cases = [
        ("(a) pie with 40 slices (TPC-H Q20 style)", mk(ChartType::Pie, 40, false)),
        ("(b) bar of share by 7 years (TPC-H Q8 style)", mk(ChartType::Bar, 7, false)),
        ("(c) single-value bar (TPC-DS Q9 style)", mk(ChartType::Bar, 1, false)),
        ("(d) scatter of two correlated measures (TPC-DS Q7 style)", mk(ChartType::Scatter, 60, true)),
    ];
    let mut out = String::new();
    writeln!(out, "Figure 7: DeepEye-style filtering of TPC-style charts").unwrap();
    for (name, cd) in cases {
        let (good, reason) = filter.verdict(&cd);
        writeln!(
            out,
            "  {name}: {} ({reason})",
            if good { "KEPT" } else { "PRUNED" }
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::context;

    #[test]
    fn cheap_experiments_produce_reports() {
        let ctx = context(Scale::Quick);
        for report in [
            exp_table2(ctx),
            exp_table3(ctx),
            exp_fig8(ctx),
            exp_fig9(ctx),
            exp_fig10(ctx),
            exp_fig12(ctx),
            exp_fig13(ctx),
            exp_fig14(ctx),
            exp_fig16(ctx),
            exp_values(ctx),
            exp_ablation(ctx),
            exp_fig7(),
        ] {
            assert!(!report.trim().is_empty(), "empty report");
        }
    }

    #[test]
    fn fig7_prunes_the_expected_charts() {
        let r = exp_fig7();
        assert!(r.contains("(a) pie with 40 slices (TPC-H Q20 style): PRUNED"), "{r}");
        assert!(r.contains("(c) single-value bar (TPC-DS Q9 style): PRUNED"), "{r}");
        assert!(r.contains("(b) bar of share by 7 years (TPC-H Q8 style): KEPT"), "{r}");
        assert!(r.contains("(d) scatter of two correlated measures (TPC-DS Q7 style): KEPT"), "{r}");
    }

    #[test]
    fn fig14_reproduces_paper_constants() {
        let ctx = context(Scale::Quick);
        let r = exp_fig14(ctx);
        assert!(r.contains("2.4 days vs 41.7 days") || r.contains("paper constants"), "{r}");
        assert!(r.contains("speedup"), "{r}");
    }
}
