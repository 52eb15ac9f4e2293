//! Cross-thread and cross-kernel training determinism (ISSUE 5 gate).
//!
//! Training fans batch members out over `nv-core::par::map_ordered` and
//! merges per-sample gradients through `nv-core::par::tree_reduce`, a fixed
//! pairwise tree — so the floating-point summation order never depends on
//! the thread count. And the fast blocked/fused kernels share one canonical
//! reduction with the `KernelPolicy::NaiveOracle` unfused twin. Both
//! invariants are **bit-level**: this test trains the same model under
//! threads 1/2/4 and under both kernel policies and demands identical loss
//! bit patterns every epoch plus identical parameter checksums at the end,
//! and identical validation-loss bits from the parallel `evaluate`.

use nv_nn::{KernelPolicy, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(variant: ModelVariant, threads: usize, kernel: KernelPolicy) -> Seq2SeqConfig {
    Seq2SeqConfig {
        vocab: 14,
        embed_dim: 12,
        hidden: 16,
        variant,
        seed: 23,
        lr: 3e-3,
        clip: 2.0,
        batch: 8,
        bos: 0,
        eos: 1,
        max_decode_len: 10,
        threads,
        kernel,
    }
}

/// 32-sample toy corpus: target = source reversed.
fn toy_corpus() -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..32)
        .map(|_| {
            let len = rng.random_range(2..6);
            let src: Vec<usize> = (0..len).map(|_| rng.random_range(4..14)).collect();
            let mut tgt = src.clone();
            tgt.reverse();
            Sample { src, tgt }
        })
        .collect()
}

/// Three epochs of training; returns the per-epoch loss bit patterns and
/// the final parameter checksum.
fn train_fingerprint(
    variant: ModelVariant,
    threads: usize,
    kernel: KernelPolicy,
    corpus: &[Sample],
) -> (Vec<u32>, u64) {
    let mut model = Seq2Seq::new(cfg(variant, threads, kernel));
    let losses: Vec<u32> = (0..3).map(|_| model.train_epoch(corpus).to_bits()).collect();
    (losses, model.params_checksum())
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let corpus = toy_corpus();
    for variant in ModelVariant::ALL {
        let base = train_fingerprint(variant, 1, KernelPolicy::Fast, &corpus);
        for threads in [2, 4] {
            let got = train_fingerprint(variant, threads, KernelPolicy::Fast, &corpus);
            assert_eq!(
                base, got,
                "{variant:?}: threads=1 vs threads={threads} diverged"
            );
        }
    }
}

#[test]
fn fast_kernels_are_bit_identical_to_naive_oracle() {
    let corpus = toy_corpus();
    for variant in ModelVariant::ALL {
        let fast = train_fingerprint(variant, 2, KernelPolicy::Fast, &corpus);
        let naive = train_fingerprint(variant, 2, KernelPolicy::NaiveOracle, &corpus);
        assert_eq!(fast, naive, "{variant:?}: fast vs naive-oracle diverged");
    }
}

/// The two invariants compose: a naive-oracle single-thread run — the
/// simplest possible execution — fingerprints identically to the fast
/// fused kernels on 4 threads.
#[test]
fn fully_naive_matches_fully_fast() {
    let corpus = toy_corpus();
    let simplest = train_fingerprint(ModelVariant::Copy, 1, KernelPolicy::NaiveOracle, &corpus);
    let fastest = train_fingerprint(ModelVariant::Copy, 4, KernelPolicy::Fast, &corpus);
    assert_eq!(simplest, fastest);
}

/// Inference determinism rides on the same kernels: greedy decode agrees
/// token-for-token across policies after training.
#[test]
fn decode_agrees_across_policies() {
    let corpus = toy_corpus();
    let mut fast = Seq2Seq::new(cfg(ModelVariant::Attention, 2, KernelPolicy::Fast));
    let mut naive = Seq2Seq::new(cfg(ModelVariant::Attention, 2, KernelPolicy::NaiveOracle));
    for _ in 0..3 {
        fast.train_epoch(&corpus);
        naive.train_epoch(&corpus);
    }
    for sample in &corpus[..8] {
        assert_eq!(fast.decode(&sample.src), naive.decode(&sample.src));
    }
}

/// Validation loss fans samples out over the same pool and sums their
/// losses in input order: after identical training, `evaluate` returns the
/// same loss bits at threads 1/2/4, under either kernel policy.
#[test]
fn validation_loss_is_bit_identical_across_thread_counts() {
    let corpus = toy_corpus();
    let (train, val) = corpus.split_at(24);
    for variant in ModelVariant::ALL {
        let mut fingerprints = vec![];
        for (threads, kernel) in [
            (1, KernelPolicy::Fast),
            (2, KernelPolicy::Fast),
            (4, KernelPolicy::Fast),
            (1, KernelPolicy::NaiveOracle),
        ] {
            let mut model = Seq2Seq::new(cfg(variant, threads, kernel));
            let mut bits = vec![model.evaluate(val).to_bits()];
            for _ in 0..2 {
                model.train_epoch(train);
                bits.push(model.evaluate(val).to_bits());
            }
            fingerprints.push(bits);
        }
        for (i, got) in fingerprints.iter().enumerate().skip(1) {
            assert_eq!(&fingerprints[0], got, "{variant:?}: configuration {i} diverged");
        }
    }
}
