//! `synth` — the paper's main job: `Nl2SqlToNl2Vis::synthesize_corpus` on
//! every core over a generated Spider-style corpus. Exercises SQL parsing,
//! tree edits, the cached executor, the DeepEye filter, NL edits and the
//! worker pool; never touches `nv-nn`.

use crate::common::{corpus, hit_rate, ratio, repeat_for, setup_median, traced, Fnv, Outcome, Run};
use crate::host::{nproc, peak_rss_mb};
use crate::stats::{median, Dist};
use nvbench::core::{CorpusSynthesis, Nl2SqlToNl2Vis, SynthesizerConfig};
use nvbench::data::{ExecBudget, ExecCache};
use nvbench::quality::DeepEyeFilter;
use nvbench::render::chart_data_cached_budgeted;
use nvbench::spider::SpiderCorpus;
use nvbench::sql::parse_sql;
use nvbench::synth::{generate_candidates, NlSynthesizer};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Digest of everything a corpus synthesis produced: per-pair digests,
/// the deduplicated benchmark and the quarantine ledger.
fn corpus_digest(s: &CorpusSynthesis) -> u64 {
    let mut h = Fnv::default();
    for d in &s.pair_digests {
        h.u64(d.map_or(u64::MAX, |d| d));
    }
    for v in &s.bench.vis_objects {
        h.str(&v.vql);
        h.u64(v.source_pair_id as u64);
    }
    for p in &s.bench.pairs {
        h.u64(p.vis_id as u64);
        h.str(&p.nl);
    }
    for q in &s.quarantine {
        h.u64(q.pair_id as u64);
        h.str(&q.error);
    }
    h.0
}

/// The corpus restricted to its first `n` pairs and the databases they use.
fn slice(corpus: &SpiderCorpus, n: usize) -> SpiderCorpus {
    let pairs = corpus.pairs[..n.min(corpus.pairs.len())].to_vec();
    let databases = corpus
        .databases
        .iter()
        .filter(|d| {
            pairs
                .iter()
                .any(|p| p.db_name.eq_ignore_ascii_case(&d.name))
        })
        .cloned()
        .collect();
    SpiderCorpus { databases, pairs }
}

pub fn run(run: &Run) -> Outcome {
    let sizes = &run.sizes;
    let (setup_s, corpus) = setup_median(run.setup_reps(), || {
        corpus(sizes.synth_databases, sizes.synth_pairs_per_db, run.seed)
    });
    let n_pairs = corpus.pairs.len();
    let threads = nproc();
    let engine = Nl2SqlToNl2Vis::new(SynthesizerConfig {
        threads,
        ..Default::default()
    });
    let mut out = Outcome::default();

    // Untimed warm-up pass, which also fixes the reference output.
    let warm = engine.synthesize_corpus(&corpus);
    let reference = corpus_digest(&warm);
    let oracle = Nl2SqlToNl2Vis::new(SynthesizerConfig::default())
        .synthesize_corpus_sequential(&slice(&corpus, sizes.synth_check_pairs));
    out.check(
        "synth.slice_matches_sequential_oracle",
        warm.pair_digests[..oracle.pair_digests.len()] == oracle.pair_digests[..],
    );
    drop((warm, oracle));

    // One pass: its output is reduced to a digest and the quarantine count
    // before the next pass, so passes never hold two benchmarks at once.
    let pass = |engine: &Nl2SqlToNl2Vis| {
        let s = engine.synthesize_corpus(&corpus);
        (corpus_digest(&s), s.quarantine.len() as u64)
    };
    let account = |out: &mut Outcome, runs: &[(f64, (u64, u64))]| {
        for (_, (digest, quarantined)) in runs {
            out.attempted += n_pairs as u64;
            out.failed += quarantined;
            if *digest != reference {
                out.check("synth.corpus_digest_is_stable", false);
            }
        }
        runs.iter().map(|r| r.0).collect::<Vec<f64>>()
    };

    let budget = if run.traced {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let secs = account(
        &mut out,
        &repeat_for("synth passes", budget, 3, || pass(&engine)),
    );
    let untraced_s = median(&secs);

    if !run.traced {
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics.set("items_per_s", n_pairs as f64 / untraced_s);
        return out;
    }

    // Traced passes: the nv-trace counters, and the tracing overhead.
    let (runs, trace) = traced(|| {
        repeat_for("traced synth passes", run.seconds / 2.0, 3, || {
            pass(&engine)
        })
    });
    let traced_passes = runs.len() as f64;
    let traced_s = median(&account(&mut out, &runs));

    // Parallel efficiency against one-thread passes.
    let single = Nl2SqlToNl2Vis::new(SynthesizerConfig {
        threads: 1,
        ..Default::default()
    });
    let single_s = median(&account(
        &mut out,
        &repeat_for("one-thread synth passes", 0.0, 2, || pass(&single)),
    ));

    let m = &mut out.metrics;
    m.set(
        "core.par_efficiency",
        single_s / (threads as f64 * untraced_s),
    );
    m.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    for layer in ["scan", "group", "result"] {
        m.set(
            &format!("data.cache.{layer}.hit_rate"),
            hit_rate(&trace, layer),
        );
    }
    let traced_pairs = traced_passes * n_pairs as f64;
    m.set(
        "data.exec.fuel_per_pair",
        trace.counter("data.exec.fuel_used") as f64 / traced_pairs,
    );
    m.set(
        "data.exec.scan_rows_per_pair",
        trace.counter("data.exec.scan_rows") as f64 / traced_pairs,
    );

    layer_pass(run, &corpus, &mut out);
    out
}

/// Per-pair layer timings on one thread, by calling each layer's public
/// function in pipeline order, next to the whole pair through
/// `synthesize_pair_cached`. Both sides keep one `ExecCache` per database
/// across pairs, as the pipeline does, so they see the same cache state.
fn layer_pass(run: &Run, corpus: &SpiderCorpus, out: &mut Outcome) {
    let defaults = SynthesizerConfig::default();
    let engine = Nl2SqlToNl2Vis::new(SynthesizerConfig {
        threads: 1,
        ..defaults.clone()
    });
    let filter = DeepEyeFilter::new(defaults.seed);
    let budget = ExecBudget::default();
    let mut pair_caches: HashMap<String, ExecCache> = HashMap::new();
    let mut layer_caches: HashMap<String, ExecCache> = HashMap::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;

    let (mut pair_us, mut parse_us, mut edits_us, mut filter_us) = (vec![], vec![], vec![], vec![]);
    let (mut chart_us, mut eval_us, mut nledit_us) = (vec![], vec![], vec![]);
    let (mut candidates, mut kept) = (0usize, 0usize);
    let mut consistent = true;

    for pair in corpus.pairs.iter().take(run.sizes.synth_layer_pairs) {
        let db = corpus
            .database(&pair.db_name)
            .expect("generated pairs name a generated database");
        let t = Instant::now();
        let whole = engine.synthesize_pair_cached(
            db,
            &pair.nl,
            &pair.sql,
            pair.id as u64,
            pair_caches.entry(pair.db_name.clone()).or_default(),
        );
        pair_us.push(us(t));
        out.attempted += 1;
        let Ok(whole) = whole else {
            out.failed += 1;
            continue;
        };

        let t = Instant::now();
        let Ok(tree) = parse_sql(db, &pair.sql) else {
            consistent = false;
            continue;
        };
        parse_us.push(us(t));

        let t = Instant::now();
        let cands = black_box(generate_candidates(db, &tree));
        edits_us.push(us(t));
        candidates += cands.len();

        let cache = layer_caches.entry(pair.db_name.clone()).or_default();
        let (t_filter, mut pair_kept) = (Instant::now(), 0usize);
        for c in &cands {
            let t = Instant::now();
            let data = chart_data_cached_budgeted(db, &c.tree, cache, budget);
            chart_us.push(us(t));
            if let Ok(data) = data {
                let t = Instant::now();
                let (good, _) = black_box(filter.evaluate(&data));
                eval_us.push(us(t));
                pair_kept += usize::from(good);
            }
        }
        filter_us.push(us(t_filter));
        kept += pair_kept;
        consistent &=
            pair_kept == whole.filter_stats.kept && cands.len() == whole.filter_stats.total;

        // NL edits over the candidates the pipeline kept, with the
        // pipeline's per-pair seed; the variants must reproduce its output.
        let t = Instant::now();
        let mut nl = NlSynthesizer::new(defaults.seed ^ pair.id as u64);
        let results: Vec<_> = whole
            .outputs
            .iter()
            .map(|(g, _, _)| nl.synthesize(db, &pair.nl, &g.candidate))
            .collect();
        nledit_us.push(us(t));
        for ((_, variants, manual), r) in whole.outputs.iter().zip(&results) {
            consistent &= r.variants.starts_with(variants) && r.needs_manual_revision == *manual;
        }
    }
    out.check("synth.layer_calls_reproduce_pipeline", consistent);

    let pair_total: f64 = pair_us.iter().sum();
    let m = &mut out.metrics;
    for (base, share, samples) in [
        ("sql.parse_us", "sql.parse.share", &parse_us),
        ("synth.edits_us", "synth.edits.share", &edits_us),
        ("synth.filter_us", "synth.filter.share", &filter_us),
        ("render.chart_data_us", "render.chart_data.share", &chart_us),
        ("quality.evaluate_us", "quality.evaluate.share", &eval_us),
        ("synth.nledit_us", "synth.nledit.share", &nledit_us),
    ] {
        if samples.is_empty() {
            continue;
        }
        let d = Dist::of(samples);
        m.set_dist_us(base, &d);
        m.set(share, ratio(d.total, pair_total));
    }
    m.set("render.chart_data.samples", chart_us.len() as f64);
    m.set("synth.layer_pairs", parse_us.len() as f64);
    m.set(
        "synth.candidates_per_pair",
        ratio(candidates as f64, parse_us.len() as f64),
    );
    m.set(
        "synth.filter_keep_ratio",
        ratio(kept as f64, candidates as f64),
    );

    // Attribution: parse + edits + filter + NL edits must cover the pair.
    let attributed: f64 = [&parse_us, &edits_us, &filter_us, &nledit_us]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    let frac = ratio(attributed, pair_total);
    m.set("synth.attributed_frac", frac);
    // Timer noise swamps a few dozen pairs, so only a layer pass long enough
    // for a p99 (1,000 pairs) is held to the 10% bound.
    if parse_us.len() >= 1_000 {
        out.check(
            "synth.layers_cover_the_pair_within_10pct",
            (0.9..=1.1).contains(&frac),
        );
    }
}
