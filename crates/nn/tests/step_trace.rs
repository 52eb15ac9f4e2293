//! A traced `train_epoch` explains its own step: every sample's forward
//! and backward pass and every batch's merge + clip + Adam record under
//! `nn.step`, whichever thread ran them, and the rank-1 weight-gradient
//! updates are counted next to the GEMM flops.

use nv_nn::{KernelPolicy, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig};

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

#[test]
fn traced_train_epoch_records_step_phases_and_rank1_flops() {
    let samples: Vec<Sample> = (0..10)
        .map(|i| Sample { src: vec![2 + i % 5, 3 + i % 7, 4], tgt: vec![5 + i % 6, 2] })
        .collect();
    let batches = samples.len().div_ceil(4) as u64;
    let mut rank1 = vec![];
    for threads in [1, 2] {
        let mut model = tiny_model(threads);
        nv_trace::reset();
        nv_trace::enable();
        model.train_epoch(&samples);
        nv_trace::disable();
        let report = nv_trace::report();
        let count = |path: &str| {
            let stat = report.span_stat(path).unwrap_or_else(|| panic!("span {path} missing"));
            assert!(stat.total_ns > 0, "span {path} recorded no time");
            stat.count
        };
        assert_eq!(count("nn.step"), batches, "threads {threads}");
        assert_eq!(count("nn.step/nn.forward"), samples.len() as u64, "threads {threads}");
        assert_eq!(count("nn.step/nn.backward"), samples.len() as u64, "threads {threads}");
        assert_eq!(count("nn.step/nn.optim"), batches, "threads {threads}");
        assert!(report.counter("nn.gemm.flops") > 0);
        rank1.push(report.counter("nn.rank1.flops"));
    }
    assert!(rank1[0] > 0, "rank-1 updates went uncounted");
    assert_eq!(rank1[0], rank1[1], "the rank-1 flop count depends on the thread count");
}
