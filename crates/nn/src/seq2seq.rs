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
//! Batch members fan out over [`nv_core::par::map_ordered`] in
//! neighbouring pairs, one fresh tape per sample, and their per-sample
//! [`GradSet`]s merge along the fixed pairwise tree of
//! [`nv_core::par::tree_reduce`]: each pair on the worker that computed
//! it, the levels above on the caller, in input order. The clip's global
//! norm adds its per-slot sums in slot order, and Adam updates each
//! element on its own. Training loss and final parameters are therefore
//! **bit-identical across any `threads` setting**.
//!
//! Under [`KernelPolicy::Fast`], teacher-forced training batches every
//! product off the recurrence over the sequence — each LSTM's `W_ih·x_t`
//! and the output projection `W_out·feat_t + b_out` become one
//! [`Tape::project`] each — while greedy decoding ([`Seq2Seq::decode`])
//! and the unfused [`KernelPolicy::NaiveOracle`] twin record one product
//! per step. A stacked product computes each step's column in the same
//! fixed order as the per-step kernel, adds each weight-gradient term in
//! the order the per-step backward visits the steps, and every node keeps
//! its consumers' order, so training is bit-identical across kernel
//! policies too (`tests/train_determinism.rs`).

use crate::autograd::{GradSet, KernelPolicy, ParamId, ParamStore, Rows, Tape, T};
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

    /// [`LstmParams::step`] with the input product `W_ih·x_t` read from
    /// row `t` of the stacked product `pre` (fast policy only).
    fn step_row(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        pre: Rows,
        t: usize,
        h: T,
        c: T,
    ) -> (T, T) {
        let z = tape.affine_onto(store, pre, t, self.w_hh, h, self.b);
        tape.lstm_gates(store, z, c, self.hidden)
    }

    /// Run the LSTM over `xs` in order from `(h, c)`: every step's h, then
    /// the final h and c. With `hoist`, the input products of all steps
    /// are one [`Tape::project`] ahead of the recurrence and each step is
    /// a [`LstmParams::step_row`]; otherwise each step is a
    /// [`LstmParams::step`].
    fn sweep(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        xs: &[T],
        hoist: bool,
        h: T,
        c: T,
    ) -> (Vec<T>, T, T) {
        let pre = hoist.then(|| tape.project(store, self.w_ih, xs, None));
        let (mut h, mut c) = (h, c);
        let mut hs = Vec::with_capacity(xs.len());
        for (t, &x) in xs.iter().enumerate() {
            (h, c) = match pre {
                Some(pre) => self.step_row(tape, store, pre, t, h, c),
                None => self.step(tape, store, x, h, c),
            };
            hs.push(h);
        }
        (hs, h, c)
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
        let mut h = nv_core::fault::Fnv::default();
        for m in &self.store.mats {
            for &x in &m.data {
                h.bytes(&x.to_bits().to_le_bytes());
            }
        }
        h.finish()
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
    /// decoder state. `hoist` time-batches each direction's input products
    /// ([`LstmParams::sweep`]).
    fn encode(&self, tape: &mut Tape, src: &[usize], hoist: bool) -> (Vec<T>, T, T) {
        let store = &self.store;
        let h0 = tape.constant(Matrix::zeros(self.cfg.hidden, 1));
        let c0 = tape.constant(Matrix::zeros(self.cfg.hidden, 1));

        let embeds: Vec<T> = src
            .iter()
            .map(|&tok| tape.embed(store, self.embedding, tok.min(self.cfg.vocab - 1)))
            .collect();

        let (fwd, fwd_h, fwd_c) = self.enc_fwd.sweep(tape, store, &embeds, hoist, h0, c0);
        let reversed: Vec<T> = embeds.iter().rev().copied().collect();
        let (mut bwd, bwd_h, bwd_c) = self.enc_bwd.sweep(tape, store, &reversed, hoist, h0, c0);
        bwd.reverse();

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
                let (feat, attn) = self.attend(tape, enc_mat, h2);
                let z = tape.affine(store, self.w_out, feat, self.b_out);
                let vocab_dist = tape.softmax(store, z);
                match copy_rows {
                    None => vocab_dist,
                    Some(rows) => {
                        let (gate, copy_dist) = self.copy_gate(tape, feat, x, attn, rows);
                        tape.blend(store, gate, vocab_dist, copy_dist)
                    }
                }
            }
        };
        (probs, h2, c2)
    }

    /// Luong general attention from the decoder state `h`: the output
    /// feature `[h; ctx]` (3h) and the attention weights over the source.
    fn attend(&self, tape: &mut Tape, enc_mat: T, h: T) -> (T, T) {
        let store = &self.store;
        let query = tape.linear(store, self.w_attn, h); // 2h×1
        let scores = tape.matmul_tn(store, enc_mat, query); // T×1
        let attn = tape.softmax(store, scores);
        let ctx = tape.matmul(store, enc_mat, attn); // 2h×1
        (tape.concat_rows(store, &[h, ctx]), attn) // 3h×1
    }

    /// The pointer-generator's generation gate and copy distribution,
    /// which blend with the vocab distribution.
    fn copy_gate(&self, tape: &mut Tape, feat: T, x: T, attn: T, copy_rows: &[usize]) -> (T, T) {
        let store = &self.store;
        let gen_in = tape.concat_rows(store, &[feat, x]);
        let gl = tape.linear(store, self.w_gen, gen_in);
        let gate = tape.sigmoid(store, gl);
        (gate, tape.copy_scatter(store, attn, copy_rows, self.cfg.vocab))
    }

    /// Clamped source token ids — the pointer-copy row map.
    fn copy_rows(&self, src: &[usize]) -> Option<Vec<usize>> {
        (self.cfg.variant == ModelVariant::Copy)
            .then(|| src.iter().map(|&t| t.min(self.cfg.vocab - 1)).collect())
    }

    /// Teacher-forced per-token NLL nodes for one sample, recorded on
    /// `tape`.
    ///
    /// Under [`KernelPolicy::Fast`] every product off the recurrence is
    /// time-batched: the three LSTMs' input products `W_ih·x_t` and the
    /// output projection `W_out·feat_t + b_out` are one [`Tape::project`]
    /// each, and the recurrent sweep in between records only what feeds
    /// the next step (`W_hh·h`, the gates, attention and the copy gate).
    /// The sweep records its nodes in the per-step graph's order, so a
    /// node whose gradient sums three or more contributions (`h` under
    /// attention feeds the next step, the attention query and the output
    /// feature) receives them in the per-step graph's order. The
    /// [`KernelPolicy::NaiveOracle`] twin records the per-step graph that
    /// greedy decoding runs ([`Seq2Seq::decode`]).
    fn forward_token_losses(&self, tape: &mut Tape, sample: &Sample) -> Vec<T> {
        let store = &self.store;
        let hoist = self.cfg.kernel == KernelPolicy::Fast;
        let (enc_outputs, mut h, mut c) = self.encode(tape, &sample.src, hoist);
        let enc_mat = tape.concat_cols(store, &enc_outputs);
        let copy_rows = self.copy_rows(&sample.src);

        let inputs = std::iter::once(self.cfg.bos).chain(sample.tgt.iter().copied());
        let clamp = |tok: usize| tok.min(self.cfg.vocab - 1);
        let targets = sample.tgt.iter().copied().chain([self.cfg.eos]).map(clamp);
        if !hoist {
            return inputs
                .zip(targets)
                .map(|(prev, tgt)| {
                    let probs;
                    let rows = copy_rows.as_deref();
                    (probs, h, c) = self.decode_step(tape, enc_mat, rows, prev, h, c);
                    tape.nll(store, probs, tgt)
                })
                .collect();
        }

        let xs: Vec<T> = inputs.map(|tok| tape.embed(store, self.embedding, clamp(tok))).collect();
        let pre = tape.project(store, self.dec.w_ih, &xs, None);
        let mut feats = Vec::with_capacity(xs.len());
        let mut copies = Vec::new();
        for (t, &x) in xs.iter().enumerate() {
            (h, c) = self.dec.step_row(tape, store, pre, t, h, c);
            feats.push(match self.cfg.variant {
                ModelVariant::Basic => h,
                ModelVariant::Attention | ModelVariant::Copy => {
                    let (feat, attn) = self.attend(tape, enc_mat, h);
                    if let Some(rows) = &copy_rows {
                        copies.push(self.copy_gate(tape, feat, x, attn, rows));
                    }
                    feat
                }
            });
        }
        let z = tape.project(store, self.w_out, &feats, Some(self.b_out));
        targets
            .enumerate()
            .map(|(t, tgt)| {
                let vocab_dist = tape.softmax_row(z, t);
                let probs = match copies.get(t) {
                    Some(&(gate, copy_dist)) => tape.blend(store, gate, vocab_dist, copy_dist),
                    None => vocab_dist,
                };
                tape.nll(store, probs, tgt)
            })
            .collect()
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
        let (loss, v) = record_phase("nn.step/nn.forward", || {
            let loss = self.forward_loss(&mut tape, sample);
            (loss, tape.value(&self.store, loss).data[0])
        });
        let backward = || tape.backward(&self.store, loss);
        (record_phase("nn.step/nn.backward", backward), v)
    }

    /// One epoch of mini-batch training over `samples` (already shuffled by
    /// the caller). Batch members fan out over the `nv-core::par` work
    /// queue in neighbouring pairs, each sample through
    /// [`Seq2Seq::sample_grads`]; their gradients merge through the fixed
    /// pairwise tree of [`nv_core::par::tree_reduce`], so the result is
    /// bit-identical for any thread count. The tree's first level — the
    /// pairs `(0, 1), (2, 3), …` — merges on the worker that produced both
    /// sets, while they are still in its cache; the pairs' sets come back
    /// in input order and the caller merges the levels above. Returns the
    /// mean per-token loss. A traced run records one `nn.step` span per
    /// batch, with `nn.forward`/`nn.backward` children per sample and one
    /// `nn.optim` child for the rest of the merge, the clip and the Adam
    /// update.
    pub fn train_epoch(&mut self, samples: &[Sample]) -> f32 {
        let mut total = 0.0f64;
        let mut count = 0usize;
        let batch = self.cfg.batch.max(1);
        let threads = self.threads();
        for chunk in samples.chunks(batch) {
            let _step = nv_trace::span("nn.step");
            let pairs: Vec<&[Sample]> = chunk.chunks(2).collect();
            let results = nv_core::par::map_ordered(&pairs, threads, |pair| {
                let (mut grads, losses) = self.sample_grads(&pair[0]);
                let mut losses = vec![losses];
                for s in &pair[1..] {
                    let (g, v) = self.sample_grads(s);
                    grads.merge(g);
                    losses.push(v);
                }
                (grads, losses)
            });
            let mut grad_sets = Vec::with_capacity(results.len());
            for (gs, losses) in results {
                grad_sets.push(gs);
                for v in losses {
                    total += f64::from(v);
                    count += 1;
                }
            }
            let _optim = nv_trace::span("nn.optim");
            let mut grads = nv_core::par::tree_reduce(grad_sets, |mut a, b| {
                a.merge(b);
                a
            })
            .expect("a chunk is never empty");
            // Mean over the batch, then clip, then step.
            for g in grads.grads.iter_mut().flatten() {
                g.scale(1.0 / chunk.len() as f32);
            }
            grads.clip_global_norm(self.cfg.clip);
            self.store.adam_step(&grads, self.cfg.lr);
        }
        (total / count.max(1) as f64) as f32
    }

    /// Mean loss over a validation set. Samples fan out over the
    /// `nv-core::par` work queue (one fresh tape per sample) and their
    /// losses are summed in input order, so the value is bit-identical for
    /// any thread count.
    pub fn evaluate(&self, samples: &[Sample]) -> f32 {
        let _span = nv_trace::span("nn.evaluate");
        if samples.is_empty() {
            return 0.0;
        }
        let losses = nv_core::par::map_ordered(samples, self.threads(), |s| {
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
        let (enc_outputs, mut h, mut c) = self.encode(&mut tape, src, false);
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

/// Run one phase of training and record it under the span `path`, given
/// in full and not opened on this thread's span stack. Samples run on
/// `nv-core::par` workers, whose span stacks do not hold the caller's
/// `nn.step`; an epoch records beside the `nn.step` and `nn.evaluate`
/// spans it contains, so those keep the top-level paths that trace reports
/// and nvperf read.
fn record_phase<R>(path: &str, phase: impl FnOnce() -> R) -> R {
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
/// (paper: patience 5). A traced run records each epoch — shuffle,
/// training and validation loss — as one `nn.epoch` span.
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
        let (tl, vl) = record_phase("nn.epoch", || {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let shuffled: Vec<Sample> = order.iter().map(|&i| train[i].clone()).collect();
            let tl = model.train_epoch(&shuffled);
            (tl, if val.is_empty() { tl } else { model.evaluate(val) })
        });
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

    /// The time-batched training graph (Fast) and the per-step graph
    /// (NaiveOracle) give the same loss and gradients, slot by slot and bit
    /// for bit: for an empty target (one decoder step), a one-token source
    /// and a 40-token source.
    #[test]
    fn hoisted_and_per_step_sample_grads_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut tokens =
            |n: usize| -> Vec<usize> { (0..n).map(|_| rng.random_range(2..12)).collect() };
        let samples = [
            Sample { src: tokens(3), tgt: vec![] },
            Sample { src: tokens(1), tgt: tokens(4) },
            Sample { src: tokens(40), tgt: tokens(9) },
        ];
        let bits = |g: &Option<Matrix>| {
            g.as_ref().map(|g| g.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        for variant in ModelVariant::ALL {
            let model = |kernel| Seq2Seq::new(Seq2SeqConfig { kernel, ..tiny_cfg(variant) });
            let (fast, naive) = (model(KernelPolicy::Fast), model(KernelPolicy::NaiveOracle));
            for s in &samples {
                let shape = format!("{variant:?}, source {}, target {}", s.src.len(), s.tgt.len());
                let ((gf, lf), (gn, ln)) = (fast.sample_grads(s), naive.sample_grads(s));
                assert_eq!(lf.to_bits(), ln.to_bits(), "loss: {shape}");
                for (slot, (a, b)) in gf.grads.iter().zip(&gn.grads).enumerate() {
                    assert_eq!(bits(a), bits(b), "slot {slot}: {shape}");
                }
            }
        }
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
