//! `predict` — Table 5 scoring over a fixed slice of test pairs: the three
//! seq2vis variants through `seq2vis::evaluate` (forward-only greedy
//! decode), DeepEye through `evaluate_top_k` at k = 1, 3, 6, 19, and NL4DV
//! through `evaluate`. The baselines run uncached `chart_data` over
//! keyword pseudo-SQL rather than parsed SQL.
//!
//! The seq2vis weights are the seeded initialisation, never trained, so
//! every greedy decode runs to the 80-token cap and the work per pair does
//! not drift when training numerics change.

use crate::common::{
    model_config, model_inputs, per_table, ratio, repeat_for, set_prepare_metrics, setup_median,
    timed, traced, Fnv, Outcome, Run,
};
use crate::host::peak_rss_mb;
use crate::stats::{median, Dist};
use nvbench::ast::tokens::parse_vql;
use nvbench::baselines::{DeepEyeBaseline, Nl4DvBaseline};
use nvbench::core::{Nl2VisPredictor, NvBench};
use nvbench::data::Database;
use nvbench::nn::ModelVariant;
use nvbench::seq2vis::{evaluate, evaluate_top_k, fill_values, EvalReport, Seq2Vis};
use std::hint::black_box;
use std::time::Instant;

/// DeepEye's top-k cut-offs in Table 5 (19 = every candidate).
const TOP_K: [usize; 4] = [1, 3, 6, 19];

/// The NL question and database of a benchmark pair.
fn input(bench: &NvBench, pair: usize) -> (&str, &Database) {
    let p = &bench.pairs[pair];
    let vis = &bench.vis_objects[p.vis_id];
    (
        &p.nl,
        bench
            .database(&vis.db_name)
            .expect("benchmark pairs name a benchmark database"),
    )
}

fn digest_report(h: &mut Fnv, r: &EvalReport) {
    h.str(&r.system);
    h.u64(r.tree_accuracy().to_bits());
    for c in &r.cases {
        h.str(&format!(
            "{}{:?}{}{}{:?}",
            c.pair_id, c.pred_chart, c.tree_match, c.result_match, c.comp_match
        ));
    }
}

fn metric_suffix(v: ModelVariant) -> &'static str {
    match v {
        ModelVariant::Basic => "basic",
        ModelVariant::Attention => "attention",
        ModelVariant::Copy => "copy",
    }
}

pub fn run(run: &Run) -> Outcome {
    let sizes = &run.sizes;
    let (setup_s, (inputs, models)) = setup_median(run.setup_reps(), || {
        let inputs = model_inputs(sizes, run.seed);
        let models: Vec<Seq2Vis> = ModelVariant::ALL
            .iter()
            .map(|&v| Seq2Vis::from_dataset(&inputs.dataset, model_config(v, 1)))
            .collect();
        (inputs, models)
    });
    let mut out = Outcome::default();
    let Some(test) = per_table(&inputs.bench, &inputs.split.test, sizes.test_pairs) else {
        out.check("predict.split_holds_the_fixed_slice", false);
        return out;
    };
    let bench = &inputs.bench;
    let deepeye = DeepEyeBaseline::new(42);
    let nl4dv = Nl4DvBaseline::new();

    // The decoded token sequences, per variant and test pair.
    let decoded: Vec<Vec<Vec<String>>> = models
        .iter()
        .map(|m| {
            test.iter()
                .map(|&p| {
                    let (nl, db) = input(bench, p);
                    m.predict_tokens(nl, db)
                })
                .collect()
        })
        .collect();
    let decoded_tokens: usize = decoded.iter().flatten().map(Vec::len).sum();

    // One Table 5 pass: its output digest and the seconds spent in seq2vis
    // and in the baselines.
    let pass = || {
        let mut h = Fnv::default();
        let (seq2vis_s, ()) = timed(|| {
            for m in &models {
                digest_report(&mut h, &evaluate(m, bench, &test));
            }
        });
        let (baseline_s, ()) = timed(|| {
            for k in TOP_K {
                for (hardness, (hits, n)) in evaluate_top_k(&deepeye, bench, &test, k) {
                    h.str(&format!("{k}{hardness:?}{hits}/{n}"));
                }
            }
            digest_report(&mut h, &evaluate(&nl4dv, bench, &test));
        });
        (h.0, seq2vis_s, baseline_s)
    };
    let reference = pass().0; // untimed warm-up
    let account = |out: &mut Outcome, runs: &[(f64, (u64, f64, f64))]| {
        for (_, (digest, _, _)) in runs {
            out.attempted += test.len() as u64;
            if *digest != reference {
                out.check("predict.table5_outputs_are_stable", false);
            }
        }
        runs.iter().map(|r| r.0).collect::<Vec<f64>>()
    };

    let budget = if run.traced {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let runs = repeat_for("table 5 passes", budget, 3, pass);
    let untraced_s = median(&account(&mut out, &runs));

    if !run.traced {
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics
            .set("items_per_s", test.len() as f64 / untraced_s);
        return out;
    }

    let seq2vis_s = median(&runs.iter().map(|r| r.1 .1).collect::<Vec<_>>());
    let baseline_s = median(&runs.iter().map(|r| r.1 .2).collect::<Vec<_>>());
    let (traced_runs, trace) =
        traced(|| repeat_for("traced table 5 passes", run.seconds / 2.0, 3, pass));
    let traced_s = median(&account(&mut out, &traced_runs));
    let m = &mut out.metrics;
    m.set("predict.decoded_tokens", decoded_tokens as f64);
    m.set(
        "predict.seq2vis_tokens_per_s",
        decoded_tokens as f64 / seq2vis_s,
    );
    m.set(
        "predict.baseline_pairs_per_s",
        test.len() as f64 / baseline_s,
    );
    m.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    m.set(
        "data.exec.fuel_per_pair",
        trace.counter("data.exec.fuel_used") as f64 / (traced_runs.len() * test.len()) as f64,
    );

    // Layer pass: the calls a pass makes, one at a time: greedy decode and
    // its post-processing per variant, then each baseline call. Shares are
    // of this pass's own wall time, so every part is timed in one window.
    let t_layers = Instant::now();
    let (mut decode_s, mut post_us) = (0.0, vec![]);
    let mut same_decode = true;
    for (model, expected) in models.iter().zip(&decoded) {
        let (mut secs, mut tokens) = (0.0, 0usize);
        for (&p, want) in test.iter().zip(expected) {
            let (nl, db) = input(bench, p);
            let (s, got) = timed(|| model.predict_tokens(nl, db));
            secs += s;
            tokens += got.len();
            same_decode &= &got == want;
            post_us.push(timed(|| black_box(parse_vql(&fill_values(&got, nl)).ok())).0 * 1e6);
        }
        decode_s += secs;
        let name = format!(
            "nn.decode_us_per_token.{}",
            metric_suffix(model.cfg.variant)
        );
        m.set(&name, ratio(secs * 1e6, tokens as f64));
    }
    out.check("predict.decoded_outputs_are_stable", same_decode);
    let mut deepeye_us = vec![];
    let mut nl4dv_us = vec![];
    for &p in &test {
        let (nl, db) = input(bench, p);
        for k in TOP_K {
            deepeye_us.push(timed(|| black_box(deepeye.predict_top_k(nl, db, k))).0 * 1e6);
        }
        nl4dv_us.push(timed(|| black_box(nl4dv.predict(nl, db))).0 * 1e6);
    }
    let layers_s = t_layers.elapsed().as_secs_f64();
    let m = &mut out.metrics;
    m.set("nn.decode.share", decode_s / layers_s);
    let post = Dist::of(&post_us);
    m.set_dist_us("seq2vis.postprocess_us", &post);
    m.set("seq2vis.postprocess.share", post.total / 1e6 / layers_s);
    for (base, share, samples) in [
        (
            "baselines.deepeye_us",
            "baselines.deepeye.share",
            &deepeye_us,
        ),
        ("baselines.nl4dv_us", "baselines.nl4dv.share", &nl4dv_us),
    ] {
        let d = Dist::of(samples);
        m.set_dist_us(base, &d);
        m.set(share, d.total / 1e6 / layers_s);
    }
    m.set("baselines.deepeye.samples", deepeye_us.len() as f64);
    set_prepare_metrics(&inputs, setup_s, m);
    out
}
