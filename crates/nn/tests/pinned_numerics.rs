//! Pinned training numerics: the exact bits a short seq2vis training run
//! produces, per model variant.
//!
//! `tests/train_determinism.rs` proves that runs agree with *each other*
//! (across thread counts and kernel policies); this test proves they agree
//! with the *recorded* values, so a kernel or op rewrite that changes the
//! floating-point summation order anywhere in forward, backward or Adam
//! fails here even when every policy drifts in lockstep. It uses the same
//! configuration and toy corpus as `train_determinism`, at two threads
//! under the fast kernel policy.
//!
//! A change that means to move the numerics (a new reduction order, a
//! different initialisation, a changed optimiser) must re-record the
//! values below and say in its description why they moved.

use nv_nn::{KernelPolicy, ModelVariant, Sample, Seq2Seq, Seq2SeqConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(variant: ModelVariant) -> Seq2SeqConfig {
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
        threads: 2,
        kernel: KernelPolicy::Fast,
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

/// Per variant: the three epoch losses' `f32` bit patterns and the final
/// `params_checksum`.
const PINNED: [(ModelVariant, [u32; 3], u64); 3] = [
    (ModelVariant::Basic, [0x4026f8eb, 0x40236c44, 0x401f98c2], 0x810202e6ecc1a224),
    (ModelVariant::Attention, [0x40294e1a, 0x402647be, 0x40235885], 0x903fedc12c2955e6),
    (ModelVariant::Copy, [0x3ff21e27, 0x3fec48cf, 0x3fe5ac05], 0x3ed6bb0b58e89924),
];

#[test]
fn training_reproduces_the_pinned_loss_and_parameter_bits() {
    let corpus = toy_corpus();
    for (variant, losses, checksum) in PINNED {
        let mut model = Seq2Seq::new(cfg(variant));
        let got: Vec<u32> = (0..3).map(|_| model.train_epoch(&corpus).to_bits()).collect();
        let hex = |v: &[u32]| v.iter().map(|b| format!("{b:08x}")).collect::<Vec<_>>();
        assert_eq!(hex(&got), hex(&losses), "{variant:?}: epoch-loss bits moved");
        assert_eq!(
            format!("{:016x}", model.params_checksum()),
            format!("{checksum:016x}"),
            "{variant:?}: parameter checksum moved"
        );
    }
}
