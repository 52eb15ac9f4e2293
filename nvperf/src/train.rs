//! `train` — the Figure 17/18 retraining path: `Seq2Vis::train_on` for a
//! fixed number of epochs on fixed train/val slices, for all three
//! variants. Exercises forward, backward, Adam, the batch fan-out,
//! `tree_reduce` and the validation loss; bypasses the executor.

use crate::common::{
    model_config, model_inputs, per_table, ratio, repeat_for, set_prepare_metrics, setup_median,
    timed, traced, ModelInputs, Outcome, Run,
};
use crate::host::{nproc, peak_rss_mb};
use crate::stats::{median, Dist};
use nvbench::nn::{KernelPolicy, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig};
use nvbench::seq2vis::vocab::{BOS, EOS};
use nvbench::seq2vis::Seq2Vis;
use std::hint::black_box;

/// The `nv-nn` model `Seq2Vis::from_dataset` builds for `variant`, on
/// `threads` batch workers.
fn nn_model(inputs: &ModelInputs, variant: ModelVariant, threads: usize) -> Seq2Seq {
    let cfg = model_config(variant, 1);
    Seq2Seq::new(Seq2SeqConfig {
        vocab: inputs.dataset.vocab.len(),
        embed_dim: cfg.embed_dim,
        hidden: cfg.hidden,
        variant,
        seed: cfg.seed,
        lr: cfg.lr,
        clip: 2.0,
        batch: cfg.batch,
        bos: BOS,
        eos: EOS,
        max_decode_len: 80,
        threads,
        kernel: KernelPolicy::Fast,
    })
}

pub fn run(run: &Run) -> Outcome {
    let sizes = &run.sizes;
    let (setup_s, inputs) = setup_median(run.setup_reps(), || model_inputs(sizes, run.seed));
    let mut out = Outcome::default();
    let (Some(train_idx), Some(val_idx)) = (
        per_table(&inputs.bench, &inputs.split.train, sizes.train_samples),
        per_table(&inputs.bench, &inputs.split.val, sizes.val_samples),
    ) else {
        out.check("train.split_holds_the_fixed_slices", false);
        return out;
    };
    let train = inputs.dataset.subset(&train_idx);
    let val = inputs.dataset.subset(&val_idx);
    let epoch_tokens: usize = train.iter().map(|s| s.src.len() + s.tgt.len() + 1).sum();
    let round_tokens = (epoch_tokens * sizes.epochs * ModelVariant::ALL.len()) as f64;
    let threads = nproc();

    // Training is bit-identical for any thread count: one probe epoch per
    // variant at one thread and at `nproc` threads must agree on the loss
    // bits and on every parameter.
    let probe = &train[..sizes.probe_samples.min(train.len())];
    for variant in ModelVariant::ALL {
        let mut one = nn_model(&inputs, variant, 1);
        let mut many = nn_model(&inputs, variant, threads);
        let same_loss = one.train_epoch(probe).to_bits() == many.train_epoch(probe).to_bits();
        out.check(
            &format!("train.probe_epoch_thread_invariant.{}", variant.name()),
            same_loss && one.params_checksum() == many.params_checksum(),
        );
    }

    // One round: fit every variant from its seeded initialisation; its
    // output is the final validation loss of each.
    let round = || -> Vec<u32> {
        ModelVariant::ALL
            .iter()
            .map(|&v| {
                let mut model =
                    Seq2Vis::from_dataset(&inputs.dataset, model_config(v, sizes.epochs));
                let report = model.train_on(&train, &val);
                report.val_losses.last().map_or(u32::MAX, |l| l.to_bits())
            })
            .collect()
    };
    let reference = round(); // untimed warm-up
    let account = |out: &mut Outcome, runs: &[(f64, Vec<u32>)]| {
        for (_, losses) in runs {
            out.attempted += (train.len() * sizes.epochs * ModelVariant::ALL.len()) as u64;
            if *losses != reference {
                out.check("train.val_losses_are_stable", false);
            }
        }
        runs.iter().map(|r| r.0).collect::<Vec<f64>>()
    };

    let budget = if run.traced {
        run.seconds / 3.0
    } else {
        run.seconds
    };
    let untraced_s = median(&account(
        &mut out,
        &repeat_for("training rounds", budget, 3, round),
    ));

    if !run.traced {
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics.set("items_per_s", round_tokens / untraced_s);
        return out;
    }

    let (runs, trace) =
        traced(|| repeat_for("traced training rounds", run.seconds / 3.0, 3, round));
    let traced_secs = account(&mut out, &runs);
    let traced_total: f64 = traced_secs.iter().sum();
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_frac",
        median(&traced_secs) / untraced_s - 1.0,
    );
    m.set(
        "nn.gemm_gflops",
        trace.counter("nn.gemm.flops") as f64 / traced_total / 1e9,
    );
    m.set(
        "nn.tape_nodes_per_token",
        trace.counter("nn.tape.nodes") as f64 / (round_tokens * runs.len() as f64),
    );
    let step_ns = trace.span_stat("nn.step").unwrap_or_default().total_ns as f64;
    m.set("nn.step.share", step_ns / 1e9 / traced_total);
    let final_losses: Vec<f64> = reference
        .iter()
        .map(|&b| f64::from(f32::from_bits(b)))
        .collect();
    m.set(
        "nn.val_loss",
        final_losses.iter().sum::<f64>() / final_losses.len() as f64,
    );

    // One optimiser step (`train_epoch` on one batch), round-robin over the
    // variants and the batches of the train slice, on `nproc` threads and
    // on one thread.
    let batches: Vec<&[Sample]> = train
        .chunks(model_config(ModelVariant::Basic, 1).batch)
        .collect();
    let step_samples = |threads: usize, count: usize| -> Vec<f64> {
        let mut models: Vec<Seq2Seq> = ModelVariant::ALL
            .iter()
            .map(|&v| nn_model(&inputs, v, threads))
            .collect();
        (0..count)
            .map(|i| {
                let model = &mut models[i % ModelVariant::ALL.len()];
                let batch = batches[(i / ModelVariant::ALL.len()) % batches.len()];
                timed(|| black_box(model.train_epoch(batch))).0 * 1e6
            })
            .collect()
    };
    let steps = Dist::of(&step_samples(threads, sizes.step_samples));
    let single = Dist::of(&step_samples(1, sizes.step_samples.div_ceil(4)));
    m.set_dist_us("nn.step_us", &steps);
    m.set("nn.step.samples", steps.n as f64);
    m.set(
        "nn.par_efficiency",
        single.p50 / (threads as f64 * steps.p50),
    );

    // Validation loss (`Seq2Seq::evaluate`), run once per epoch per variant.
    let models: Vec<Seq2Seq> = ModelVariant::ALL
        .iter()
        .map(|&v| nn_model(&inputs, v, threads))
        .collect();
    let val_s: Vec<f64> = (0..3)
        .flat_map(|_| {
            models
                .iter()
                .map(|mdl| timed(|| black_box(mdl.evaluate(&val))).0)
        })
        .collect();
    let val_ms = median(&val_s) * 1e3;
    m.set("nn.val_loss_ms", val_ms);
    m.set(
        "nn.val_loss.share",
        ratio(
            val_ms / 1e3 * (sizes.epochs * ModelVariant::ALL.len()) as f64,
            untraced_s,
        ),
    );

    set_prepare_metrics(&inputs, setup_s, m);
    out
}
