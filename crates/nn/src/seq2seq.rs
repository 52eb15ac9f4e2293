//! Encoder–decoder sequence model (paper §4.1, Figure 15): bi-directional
//! LSTM encoder, LSTM decoder, three variants — basic, +Luong attention,
//! +copy (pointer-generator) — trained with Adam, teacher forcing, gradient
//! clipping at 2.0 and early stopping, exactly the paper's training recipe
//! (scaled-down dimensions; the paper uses embed 100 / hidden 150).
//!
//! The copy variant requires source and target token ids to share one
//! vocabulary space (so a source token can be emitted directly) — which is
//! how `nv-seq2vis` builds its vocab.
//!
//! ## Training determinism
//!
//! Batch members fan out over [`nv_core::par::map_ordered`], one fresh
//! tape per sample, and their per-sample [`GradSet`]s — returned in input
//! order — merge through [`nv_core::par::tree_reduce`], a fixed pairwise
//! tree. Training loss and final parameters are therefore **bit-identical
//! across any `threads` setting**, and — because the fused fast kernels
//! and the unfused [`KernelPolicy::NaiveOracle`] twin share one numeric
//! contract — across kernel policies too (`tests/train_determinism.rs`).

use crate::autograd::{GradSet, KernelPolicy, ParamId, ParamStore, Tape, T};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Model variants evaluated in the paper (Figure 17, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelVariant {
    Basic,
    Attention,
    Copy,
}

impl ModelVariant {
    pub const ALL: [ModelVariant; 3] =
        [ModelVariant::Basic, ModelVariant::Attention, ModelVariant::Copy];

    pub fn name(self) -> &'static str {
        match self {
            ModelVariant::Basic => "seq2vis",
            ModelVariant::Attention => "seq2vis+attention",
            ModelVariant::Copy => "seq2vis+copying",
        }
    }
}

/// Hyperparameters.
#[derive(Debug, Clone)]
pub struct Seq2SeqConfig {
    pub vocab: usize,
    pub embed_dim: usize,
    pub hidden: usize,
    pub variant: ModelVariant,
    pub seed: u64,
    pub lr: f32,
    /// Global-norm gradient clip (paper: 2.0).
    pub clip: f32,
    /// Mini-batch size (paper: 16).
    pub batch: usize,
    /// BOS/EOS ids in the shared vocab.
    pub bos: usize,
    pub eos: usize,
    pub max_decode_len: usize,
    /// Batch-member worker threads (0 = one per available core). Any value
    /// produces bit-identical training.
    pub threads: usize,
    /// Fast fused kernels or the naive differential oracle (bit-identical;
    /// the oracle exists for verification and as the benchmark baseline).
    pub kernel: KernelPolicy,
}

/// One training sample: source and target token-id sequences (no BOS/EOS —
/// the model adds them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    pub src: Vec<usize>,
    pub tgt: Vec<usize>,
}

struct LstmParams {
    w_ih: ParamId,
    w_hh: ParamId,
    b: ParamId,
    hidden: usize,
}

impl LstmParams {
    fn new(store: &mut ParamStore, input: usize, hidden: usize, rng: &mut StdRng) -> LstmParams {
        let mut b = Matrix::zeros(4 * hidden, 1);
        // Forget-gate bias at 1.0 — standard LSTM initialization.
        for i in hidden..2 * hidden {
            b.data[i] = 1.0;
        }
        LstmParams {
            w_ih: store.add(Matrix::xavier(4 * hidden, input, rng)),
            w_hh: store.add(Matrix::xavier(4 * hidden, hidden, rng)),
            b: store.add(b),
            hidden,
        }
    }

    /// One LSTM step: packed `[i|f|g|o]` pre-activation, then the fused
    /// gate op (or their unfused naive twins, by tape policy).
    fn step(&self, tape: &mut Tape, store: &ParamStore, x: T, h: T, c: T) -> (T, T) {
        let z = tape.affine2(store, self.w_ih, x, self.w_hh, h, self.b);
        tape.lstm_gates(store, z, c, self.hidden)
    }
}

/// The seq2seq model.
pub struct Seq2Seq {
    pub cfg: Seq2SeqConfig,
    store: ParamStore,
    embedding: ParamId,
    enc_fwd: LstmParams,
    enc_bwd: LstmParams,
    dec: LstmParams,
    /// Bridges the concatenated encoder final states (2h) into decoder h/c.
    w_bridge_h: ParamId,
    w_bridge_c: ParamId,
    /// Luong "general" score: maps decoder h into encoder space (2h × h).
    w_attn: ParamId,
    /// Output projection (vocab × feat), feat = h (basic) or 3h (attn/copy).
    w_out: ParamId,
    b_out: ParamId,
    /// Copy gate (1 × (3h + e)).
    w_gen: ParamId,
}

impl Seq2Seq {
    pub fn new(cfg: Seq2SeqConfig) -> Seq2Seq {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let e = cfg.embed_dim;
        let h = cfg.hidden;
        let embedding = store.add(Matrix::xavier(cfg.vocab, e, &mut rng));
        let enc_fwd = LstmParams::new(&mut store, e, h, &mut rng);
        let enc_bwd = LstmParams::new(&mut store, e, h, &mut rng);
        let dec = LstmParams::new(&mut store, e, h, &mut rng);
        let w_bridge_h = store.add(Matrix::xavier(h, 2 * h, &mut rng));
        let w_bridge_c = store.add(Matrix::xavier(h, 2 * h, &mut rng));
        let w_attn = store.add(Matrix::xavier(2 * h, h, &mut rng));
        let feat = if cfg.variant == ModelVariant::Basic { h } else { 3 * h };
        let w_out = store.add(Matrix::xavier(cfg.vocab, feat, &mut rng));
        let b_out = store.add(Matrix::zeros(cfg.vocab, 1));
        let w_gen = store.add(Matrix::xavier(1, 3 * h + e, &mut rng));
        Seq2Seq {
            cfg,
            store,
            embedding,
            enc_fwd,
            enc_bwd,
            dec,
            w_bridge_h,
            w_bridge_c,
            w_attn,
            w_out,
            b_out,
            w_gen,
        }
    }

    pub fn n_parameters(&self) -> usize {
        self.store.n_scalars()
    }

    /// Read access to the parameter store (gradient-check harness).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store — the finite-difference
    /// harness perturbs individual scalars through this.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The named parameter blocks this variant actually trains (the basic
    /// variant has no attention or copy-gate weights in its graph).
    pub fn param_blocks(&self) -> Vec<(&'static str, ParamId)> {
        let mut blocks = vec![
            ("embedding", self.embedding),
            ("enc_fwd.w_ih", self.enc_fwd.w_ih),
            ("enc_fwd.w_hh", self.enc_fwd.w_hh),
            ("enc_fwd.b", self.enc_fwd.b),
            ("enc_bwd.w_ih", self.enc_bwd.w_ih),
            ("enc_bwd.w_hh", self.enc_bwd.w_hh),
            ("enc_bwd.b", self.enc_bwd.b),
            ("dec.w_ih", self.dec.w_ih),
            ("dec.w_hh", self.dec.w_hh),
            ("dec.b", self.dec.b),
            ("w_bridge_h", self.w_bridge_h),
            ("w_bridge_c", self.w_bridge_c),
            ("w_out", self.w_out),
            ("b_out", self.b_out),
        ];
        if self.cfg.variant != ModelVariant::Basic {
            blocks.push(("w_attn", self.w_attn));
        }
        if self.cfg.variant == ModelVariant::Copy {
            blocks.push(("w_gen", self.w_gen));
        }
        blocks
    }

    /// FNV-1a over the exact bit patterns of every parameter scalar — the
    /// determinism tests compare these across thread counts and kernel
    /// policies.
    pub fn params_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for m in &self.store.mats {
            for &x in &m.data {
                for byte in x.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Worker threads for the per-sample fan-outs: `cfg.threads`, with 0
    /// meaning every available core.
    fn threads(&self) -> usize {
        match self.cfg.threads {
            0 => nv_core::par::available_threads(),
            n => n,
        }
    }

    /// A tape matching this model's kernel policy.
    fn fresh_tape(&self) -> Tape {
        Tape::with_policy(self.cfg.kernel)
    }

    /// Encode the source: per-step bi-LSTM outputs (2h) and bridged initial
    /// decoder state.
    fn encode(&self, tape: &mut Tape, src: &[usize]) -> (Vec<T>, T, T) {
        let store = &self.store;
        let h0 = tape.constant(Matrix::zeros(self.cfg.hidden, 1));
        let c0 = tape.constant(Matrix::zeros(self.cfg.hidden, 1));

        let embeds: Vec<T> = src
            .iter()
            .map(|&tok| tape.embed(store, self.embedding, tok.min(self.cfg.vocab - 1)))
            .collect();

        let mut fwd = Vec::with_capacity(src.len());
        let (mut h, mut c) = (h0, c0);
        for &x in &embeds {
            let (h2, c2) = self.enc_fwd.step(tape, store, x, h, c);
            fwd.push(h2);
            h = h2;
            c = c2;
        }
        let (fwd_h, fwd_c) = (h, c);

        let mut bwd = vec![h0; src.len()];
        let (mut h, mut c) = (h0, c0);
        for (i, &x) in embeds.iter().enumerate().rev() {
            let (h2, c2) = self.enc_bwd.step(tape, store, x, h, c);
            bwd[i] = h2;
            h = h2;
            c = c2;
        }
        let (bwd_h, bwd_c) = (h, c);

        let outputs: Vec<T> = fwd
            .iter()
            .zip(&bwd)
            .map(|(&f, &b)| tape.concat_rows(store, &[f, b]))
            .collect();

        let hcat = tape.concat_rows(store, &[fwd_h, bwd_h]);
        let ccat = tape.concat_rows(store, &[fwd_c, bwd_c]);
        let dh0 = tape.linear(store, self.w_bridge_h, hcat);
        let dh = tape.tanh(store, dh0);
        let dc0 = tape.linear(store, self.w_bridge_c, ccat);
        let dc = tape.tanh(store, dc0);
        (outputs, dh, dc)
    }

    /// One decoder step: returns the probability distribution node and the
    /// new (h, c). `copy_rows` is the source token-id row map for the
    /// pointer-copy scatter (copy variant only).
    fn decode_step(
        &self,
        tape: &mut Tape,
        enc_mat: T,
        copy_rows: Option<&[usize]>,
        prev_tok: usize,
        h: T,
        c: T,
    ) -> (T, T, T) {
        let store = &self.store;
        let x = tape.embed(store, self.embedding, prev_tok.min(self.cfg.vocab - 1));
        let (h2, c2) = self.dec.step(tape, store, x, h, c);

        let probs = match self.cfg.variant {
            ModelVariant::Basic => {
                let z = tape.affine(store, self.w_out, h2, self.b_out);
                tape.softmax(store, z)
            }
            ModelVariant::Attention | ModelVariant::Copy => {
                // Luong general attention.
                let query = tape.linear(store, self.w_attn, h2); // 2h×1
                let scores = tape.matmul_tn(store, enc_mat, query); // T×1
                let attn = tape.softmax(store, scores);
                let ctx = tape.matmul(store, enc_mat, attn); // 2h×1
                let feat = tape.concat_rows(store, &[h2, ctx]); // 3h×1
                let z = tape.affine(store, self.w_out, feat, self.b_out);
                let vocab_dist = tape.softmax(store, z);
                if self.cfg.variant == ModelVariant::Attention {
                    vocab_dist
                } else {
                    // Pointer-generator: blend vocab and copy distributions.
                    let gen_in = tape.concat_rows(store, &[feat, x]);
                    let gl = tape.linear(store, self.w_gen, gen_in);
                    let gate = tape.sigmoid(store, gl);
                    let copy_dist = tape.copy_scatter(
                        store,
                        attn,
                        copy_rows.expect("copy rows"),
                        self.cfg.vocab,
                    );
                    tape.blend(store, gate, vocab_dist, copy_dist)
                }
            }
        };
        (probs, h2, c2)
    }

    /// Clamped source token ids — the pointer-copy row map.
    fn copy_rows(&self, src: &[usize]) -> Option<Vec<usize>> {
        (self.cfg.variant == ModelVariant::Copy)
            .then(|| src.iter().map(|&t| t.min(self.cfg.vocab - 1)).collect())
    }

    /// Teacher-forced per-token NLL nodes for one sample, recorded on
    /// `tape`.
    fn forward_token_losses(&self, tape: &mut Tape, sample: &Sample) -> Vec<T> {
        let store = &self.store;
        let (enc_outputs, mut h, mut c) = self.encode(tape, &sample.src);
        let enc_mat = tape.concat_cols(store, &enc_outputs);
        let copy_rows = self.copy_rows(&sample.src);

        let mut inputs = vec![self.cfg.bos];
        inputs.extend_from_slice(&sample.tgt);
        let mut targets = sample.tgt.clone();
        targets.push(self.cfg.eos);

        let mut losses = Vec::with_capacity(targets.len());
        for (prev, &tgt) in inputs.iter().zip(&targets) {
            let (probs, h2, c2) =
                self.decode_step(tape, enc_mat, copy_rows.as_deref(), *prev, h, c);
            h = h2;
            c = c2;
            let l = tape.nll(store, probs, tgt.min(self.cfg.vocab - 1));
            losses.push(l);
        }
        losses
    }

    /// Teacher-forced mean per-token loss node for one sample.
    fn forward_loss(&self, tape: &mut Tape, sample: &Sample) -> T {
        let losses = self.forward_token_losses(tape, sample);
        let total = tape.sum_scalars(&self.store, &losses);
        tape.scale(&self.store, total, 1.0 / losses.len() as f32)
    }

    /// Per-token mean loss with the final reduction done in f64. The
    /// finite-difference gradient checker reads losses through this: the
    /// f32 sum-and-scale quantization of [`Seq2Seq::evaluate`] (~1 ulp of the
    /// loss value) is the same order as the FD signal `2ε·∂L/∂θ` for
    /// small-gradient blocks, so the check needs a readout quantized below
    /// that.
    pub fn loss_f64(&self, sample: &Sample) -> f64 {
        let mut tape = self.fresh_tape();
        let losses = self.forward_token_losses(&mut tape, sample);
        let n = losses.len();
        let sum: f64 = losses
            .into_iter()
            .map(|t| f64::from(tape.value(&self.store, t).data[0]))
            .sum();
        sum / n as f64
    }

    /// The one training step for one sample: forward and backward on a
    /// fresh tape, returning its parameter gradients and per-token loss.
    /// `train_epoch` runs it for every batch member, and the gradient-check
    /// harness calls it directly. A traced run counts the sample under
    /// `nn.train.samples` and times the two halves as the
    /// `nn.step/nn.forward` and `nn.step/nn.backward` spans.
    pub fn sample_grads(&self, sample: &Sample) -> (GradSet, f32) {
        nv_trace::count("nn.train.samples", 1);
        let mut tape = self.fresh_tape();
        let (loss, v) = step_phase("nn.step/nn.forward", || {
            let loss = self.forward_loss(&mut tape, sample);
            (loss, tape.value(&self.store, loss).data[0])
        });
        let backward = || tape.backward(&self.store, loss);
        (step_phase("nn.step/nn.backward", backward), v)
    }

    /// One epoch of mini-batch training over `samples` (already shuffled by
    /// the caller). Batch members fan out over the `nv-core::par` work
    /// queue through [`Seq2Seq::sample_grads`]; per-sample gradients come
    /// back in input order and merge through a fixed pairwise tree, so the
    /// result is bit-identical for any thread count. Returns the mean
    /// per-token loss. A traced run records one `nn.step` span per batch,
    /// with `nn.forward`/`nn.backward` children per sample and one
    /// `nn.optim` child for the merge, clip and Adam update.
    pub fn train_epoch(&mut self, samples: &[Sample]) -> f32 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        let batch = self.cfg.batch.max(1);
        let threads = self.threads();
        for chunk in samples.chunks(batch) {
            let _step = nv_trace::span("nn.step");
            self.store.zero_grads();
            let results: Vec<(GradSet, f32)> =
                nv_core::par::map_ordered(chunk, threads, || (), |_, _, s| self.sample_grads(s));
            let mut grad_sets = Vec::with_capacity(results.len());
            for (gs, v) in results {
                grad_sets.push(gs);
                total += f64::from(v);
                count += 1;
            }
            let _optim = nv_trace::span("nn.optim");
            if let Some(merged) = nv_core::par::tree_reduce(grad_sets, |mut a, b| {
                a.merge(b);
                a
            }) {
                self.store.accumulate(&merged);
            }
            // Mean over the batch.
            for g in &mut self.store.grads {
                g.scale(1.0 / chunk.len() as f32);
            }
            self.store.clip_global_norm(self.cfg.clip);
            self.store.adam_step(self.cfg.lr);
        }
        (total / count.max(1) as f64) as f32
    }

    /// Mean loss over a validation set. Samples fan out over the
    /// `nv-core::par` work queue (one fresh tape per sample) and their
    /// losses are summed in input order, so the value is bit-identical for
    /// any thread count.
    pub fn evaluate(&self, samples: &[Sample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let losses = nv_core::par::map_ordered(samples, self.threads(), || (), |_, _, s| {
            let mut tape = self.fresh_tape();
            let loss = self.forward_loss(&mut tape, s);
            tape.value(&self.store, loss).data[0]
        });
        let sum: f32 = losses.into_iter().sum();
        sum / samples.len() as f32
    }

    /// Greedy decoding.
    pub fn decode(&self, src: &[usize]) -> Vec<usize> {
        let _span = nv_trace::span("nn.decode");
        let store = &self.store;
        let mut tape = self.fresh_tape();
        let (enc_outputs, mut h, mut c) = self.encode(&mut tape, src);
        let enc_mat = tape.concat_cols(store, &enc_outputs);
        let copy_rows = self.copy_rows(src);

        let mut out = Vec::new();
        let mut prev = self.cfg.bos;
        for _ in 0..self.cfg.max_decode_len {
            let (probs, h2, c2) =
                self.decode_step(&mut tape, enc_mat, copy_rows.as_deref(), prev, h, c);
            h = h2;
            c = c2;
            let pv = tape.value(store, probs);
            let (best, _) = pv
                .data
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty vocab");
            if best == self.cfg.eos {
                break;
            }
            out.push(best);
            prev = best;
        }
        out
    }
}

/// Run one phase of a training step and record it under the child span
/// `path` of `nn.step`. Samples run on `nv-core::par` workers, whose span
/// stacks do not hold the caller's `nn.step`, so the path is given in full.
fn step_phase<R>(path: &str, phase: impl FnOnce() -> R) -> R {
    if !nv_trace::enabled() {
        return phase();
    }
    let start = Instant::now();
    let out = phase();
    nv_trace::record_span(path, start.elapsed().as_nanos() as u64);
    out
}

/// Training report from [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    pub epochs_run: usize,
    pub best_val_loss: f32,
    pub train_losses: Vec<f32>,
    pub val_losses: Vec<f32>,
}

/// Train with shuffling and early stopping on validation loss
/// (paper: patience 5).
pub fn fit(
    model: &mut Seq2Seq,
    train: &[Sample],
    val: &[Sample],
    max_epochs: usize,
    patience: usize,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(model.cfg.seed ^ 0xF17);
    let mut order: Vec<usize> = (0..train.len()).collect();
    let mut best = f32::INFINITY;
    let mut since_best = 0usize;
    let mut report = TrainReport {
        epochs_run: 0,
        best_val_loss: f32::INFINITY,
        train_losses: vec![],
        val_losses: vec![],
    };
    for _ in 0..max_epochs {
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let shuffled: Vec<Sample> = order.iter().map(|&i| train[i].clone()).collect();
        let tl = model.train_epoch(&shuffled);
        let vl = if val.is_empty() { tl } else { model.evaluate(val) };
        report.epochs_run += 1;
        report.train_losses.push(tl);
        report.val_losses.push(vl);
        if vl < best - 1e-4 {
            best = vl;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= patience {
                break;
            }
        }
    }
    report.best_val_loss = best;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy copy/transform task: target = source reversed, over a tiny
    /// vocab. All three variants must drive the loss down; attention/copy
    /// must learn it well.
    fn toy_samples(n: usize, vocab: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.random_range(2..6);
                let src: Vec<usize> = (0..len).map(|_| rng.random_range(4..vocab)).collect();
                let mut tgt = src.clone();
                tgt.reverse();
                Sample { src, tgt }
            })
            .collect()
    }

    fn tiny_cfg(variant: ModelVariant) -> Seq2SeqConfig {
        Seq2SeqConfig {
            vocab: 12,
            embed_dim: 16,
            hidden: 24,
            variant,
            seed: 7,
            lr: 5e-3,
            clip: 2.0,
            batch: 8,
            bos: 0,
            eos: 1,
            max_decode_len: 10,
            threads: 0,
            kernel: KernelPolicy::Fast,
        }
    }

    #[test]
    fn all_variants_reduce_loss() {
        let samples = toy_samples(60, 12, 1);
        for variant in ModelVariant::ALL {
            let mut model = Seq2Seq::new(tiny_cfg(variant));
            let first = model.evaluate(&samples);
            for _ in 0..12 {
                model.train_epoch(&samples);
            }
            let last = model.evaluate(&samples);
            assert!(
                last < first * 0.7,
                "{}: {first} → {last}",
                variant.name()
            );
        }
    }

    #[test]
    fn attention_learns_reversal() {
        let samples = toy_samples(150, 12, 2);
        let mut model = Seq2Seq::new(tiny_cfg(ModelVariant::Attention));
        let report = fit(&mut model, &samples, &samples[..30], 40, 8);
        assert!(report.epochs_run >= 5);
        // Exact-decode accuracy on training data should be high.
        let correct = samples[..30]
            .iter()
            .filter(|s| model.decode(&s.src) == s.tgt)
            .count();
        assert!(correct >= 15, "only {correct}/30 decoded exactly (val loss {})", report.best_val_loss);
    }

    #[test]
    fn copy_variant_can_emit_source_tokens() {
        // Task: echo the source. The copy mechanism makes this nearly free.
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<Sample> = (0..120)
            .map(|_| {
                let len = rng.random_range(2..5);
                let src: Vec<usize> = (0..len).map(|_| rng.random_range(4..12)).collect();
                Sample { tgt: src.clone(), src }
            })
            .collect();
        let mut model = Seq2Seq::new(tiny_cfg(ModelVariant::Copy));
        fit(&mut model, &samples, &samples[..20], 30, 6);
        let correct = samples[..20]
            .iter()
            .filter(|s| model.decode(&s.src) == s.tgt)
            .count();
        assert!(correct >= 12, "only {correct}/20 echoed");
    }

    #[test]
    fn decode_terminates_and_respects_max_len() {
        let model = Seq2Seq::new(tiny_cfg(ModelVariant::Basic));
        let out = model.decode(&[4, 5, 6]);
        assert!(out.len() <= 10);
    }

    #[test]
    fn early_stopping_stops() {
        let samples = toy_samples(20, 12, 4);
        let mut model = Seq2Seq::new(tiny_cfg(ModelVariant::Basic));
        // Hold the validation slice out of training so val loss genuinely
        // plateaus instead of tracking the training loss downward forever.
        let report = fit(&mut model, &samples[5..], &samples[..5], 100, 2);
        assert!(report.epochs_run < 100, "ran all epochs");
        assert_eq!(report.train_losses.len(), report.epochs_run);
    }

    #[test]
    fn out_of_range_tokens_are_clamped() {
        let model = Seq2Seq::new(tiny_cfg(ModelVariant::Copy));
        // Token 999 exceeds the vocab; must not panic.
        let loss = model.evaluate(&[Sample { src: vec![999, 5], tgt: vec![999] }]);
        assert!(loss.is_finite());
        let _ = model.decode(&[999]);
    }

    #[test]
    fn parameter_count_is_positive_and_variant_dependent() {
        let basic = Seq2Seq::new(tiny_cfg(ModelVariant::Basic));
        let attn = Seq2Seq::new(tiny_cfg(ModelVariant::Attention));
        assert!(basic.n_parameters() > 1000);
        // Attention variant has the larger output projection (3h vs h).
        assert!(attn.n_parameters() > basic.n_parameters());
    }

    #[test]
    fn loss_is_identical_across_policies_and_threads() {
        let samples = toy_samples(16, 12, 11);
        for variant in ModelVariant::ALL {
            let mut base: Option<(Vec<u32>, u64)> = None;
            for (threads, kernel) in [
                (1, KernelPolicy::Fast),
                (3, KernelPolicy::Fast),
                (1, KernelPolicy::NaiveOracle),
            ] {
                let mut cfg = tiny_cfg(variant);
                cfg.threads = threads;
                cfg.kernel = kernel;
                let mut model = Seq2Seq::new(cfg);
                let losses: Vec<u32> = (0..2)
                    .map(|_| model.train_epoch(&samples).to_bits())
                    .collect();
                let sum = model.params_checksum();
                match &base {
                    None => base = Some((losses, sum)),
                    Some((bl, bs)) => {
                        assert_eq!(bl, &losses, "{variant:?} t={threads} {kernel:?}");
                        assert_eq!(*bs, sum, "{variant:?} t={threads} {kernel:?}");
                    }
                }
            }
        }
    }
}
