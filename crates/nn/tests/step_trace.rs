//! A traced `fit` explains its own steps: every epoch records one
//! `nn.epoch`, every sample's forward and backward pass and every batch's
//! merge + clip + Adam record under `nn.step`, whichever thread ran them,
//! and the rank-1 weight-gradient updates are counted next to the GEMM
//! flops. The validation loss that follows an epoch records as one
//! `nn.evaluate`, outside `nn.step`.

use nv_nn::{fit, KernelPolicy, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig};

fn tiny_model(threads: usize) -> Seq2Seq {
    Seq2Seq::new(Seq2SeqConfig {
        vocab: 12,
        embed_dim: 8,
        hidden: 8,
        variant: ModelVariant::Attention,
        seed: 5,
        lr: 3e-3,
        clip: 2.0,
        batch: 4,
        bos: 0,
        eos: 1,
        max_decode_len: 8,
        threads,
        kernel: KernelPolicy::Fast,
    })
}

/// The flop counters of the run below, as recorded before the training
/// graph time-batched its products: batching moves no counted work.
const GEMM_FLOPS: u64 = 600_320;
const RANK1_FLOPS: u64 = 244_480;

#[test]
fn traced_train_epoch_records_step_phases_and_rank1_flops() {
    let samples: Vec<Sample> = (0..10)
        .map(|i| Sample { src: vec![2 + i % 5, 3 + i % 7, 4], tgt: vec![5 + i % 6, 2] })
        .collect();
    const EPOCHS: usize = 2;
    let batches = (EPOCHS * samples.len().div_ceil(4)) as u64;
    let per_sample = (EPOCHS * samples.len()) as u64;
    for threads in [1, 2] {
        let mut model = tiny_model(threads);
        nv_trace::reset();
        nv_trace::enable();
        // Patience `EPOCHS` cannot stop the run early.
        let run = fit(&mut model, &samples, &samples[..3], EPOCHS, EPOCHS);
        nv_trace::disable();
        assert_eq!(run.epochs_run, EPOCHS);
        let report = nv_trace::report();
        let count = |path: &str| {
            let stat = report.span_stat(path).unwrap_or_else(|| panic!("span {path} missing"));
            assert!(stat.total_ns > 0, "span {path} recorded no time");
            stat.count
        };
        assert_eq!(count("nn.epoch"), EPOCHS as u64, "threads {threads}");
        assert_eq!(count("nn.step"), batches, "threads {threads}");
        assert_eq!(count("nn.step/nn.forward"), per_sample, "threads {threads}");
        assert_eq!(count("nn.step/nn.backward"), per_sample, "threads {threads}");
        assert_eq!(count("nn.step/nn.optim"), batches, "threads {threads}");
        assert_eq!(count("nn.evaluate"), EPOCHS as u64, "threads {threads}");
        assert_eq!(report.counter("nn.gemm.flops"), GEMM_FLOPS, "threads {threads}");
        assert_eq!(report.counter("nn.rank1.flops"), RANK1_FLOPS, "threads {threads}");
    }
}
