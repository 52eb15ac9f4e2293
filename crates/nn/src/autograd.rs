//! A tape-based reverse-mode autograd over [`Matrix`] with two execution
//! policies sharing one numeric contract.
//!
//! ## Kernel policy
//!
//! A tape runs under a [`KernelPolicy`]:
//!
//! * **`Fast`** — the training path: the matvec kernels of `matrix.rs`,
//!   fused ops (one affine node `w·x [+ w2·x2] [+ b]` behind
//!   [`Tape::affine`], [`Tape::affine2`] and [`Tape::linear`], plus
//!   [`Tape::lstm_gates`] and [`Tape::copy_scatter`]), weight gradients
//!   accumulated straight into a dense [`GradSet`] as rank-1 updates
//!   ([`Matrix::rank1_acc`], no per-op gradient matrices).
//! * **`NaiveOracle`** — the differential twin, mirroring the pre-rewrite
//!   implementation: reference (gather-loop) kernels and the unfused op
//!   chain (explicit matmul/add/slice/sigmoid/... nodes). Kept callable
//!   forever, like the sequential-synthesis and reference-interpreter
//!   oracles of earlier PRs.
//!
//! Under either policy every node value and every gradient is a freshly
//! allocated matrix, and a tape records exactly one sample: the caller
//! builds a new [`Tape`] per sample and drops it after `backward`.
//!
//! The contract: **both policies produce bit-identical losses and
//! gradients.** The fused forward/backward replicate the unfused op
//! composition's floating-point expression order exactly (see the comments
//! on each fused backward arm), and the fast kernels share the canonical
//! fixed-order reduction with the reference kernels (`matrix.rs`).
//! `tests/train_determinism.rs` pins whole training runs to this equality.
//!
//! Parameters live in a [`ParamStore`] (values + gradients + Adam state);
//! the tape references them by id, so weight matrices are never copied per
//! step. Fused ops reference [`ParamId`]s directly — no `Param` nodes, no
//! intermediate weight-gradient matrices.

use crate::matrix::{reference, Matrix};

/// Which kernel/fusion path a [`Tape`] uses. Both produce bit-identical
/// values and gradients; `NaiveOracle` is the slow differential twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    #[default]
    Fast,
    NaiveOracle,
}

/// Handle to a parameter in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// One backward pass's parameter gradients, dense over the store's
/// parameter list (slot `i` ↔ `ParamId(i)`; `None` = untouched, a zero
/// gradient). Indexable and mergeable in a fixed order; a batch's merged
/// set is what the optimizer steps on.
#[derive(Debug, Clone)]
pub struct GradSet {
    pub grads: Vec<Option<Matrix>>,
}

impl GradSet {
    /// An empty grad set shaped for `store`.
    pub fn for_store(store: &ParamStore) -> GradSet {
        GradSet { grads: (0..store.mats.len()).map(|_| None).collect() }
    }

    /// Gradient for one parameter, if any op touched it.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads[id.0].as_ref()
    }

    /// Fold `other` in (elementwise add per slot). Slot-wise and in slot
    /// order, so a fixed merge *tree* over samples gives bit-identical
    /// totals no matter how many threads produced the inputs.
    pub fn merge(&mut self, other: GradSet) {
        assert_eq!(self.grads.len(), other.grads.len());
        for (slot, o) in self.grads.iter_mut().zip(other.grads) {
            match (slot, o) {
                (Some(s), Some(o)) => s.add_assign(&o),
                (slot @ None, Some(o)) => *slot = Some(o),
                _ => {}
            }
        }
    }

    /// Clip gradients to a global L2 norm (the paper clips at 2.0).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let total: f32 = self
            .grads
            .iter()
            .flatten()
            .map(|g| g.data.iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let s = max_norm / total;
            for g in self.grads.iter_mut().flatten() {
                g.scale(s);
            }
        }
    }
}

/// Parameter storage with Adam state.
#[derive(Debug, Clone)]
pub struct ParamStore {
    pub mats: Vec<Matrix>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

impl ParamStore {
    pub fn new() -> ParamStore {
        ParamStore { mats: vec![], m: vec![], v: vec![], t: 0 }
    }

    pub fn add(&mut self, mat: Matrix) -> ParamId {
        let id = self.mats.len();
        self.m.push(Matrix::zeros(mat.rows, mat.cols));
        self.v.push(Matrix::zeros(mat.rows, mat.cols));
        self.mats.push(mat);
        ParamId(id)
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Total scalar parameter count.
    pub fn n_scalars(&self) -> usize {
        self.mats.iter().map(|m| m.data.len()).sum()
    }

    /// One Adam update from `grads`; an untouched slot steps on a zero
    /// gradient.
    pub fn adam_step(&mut self, grads: &GradSet, lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        assert_eq!(grads.grads.len(), self.mats.len());
        for (i, g) in grads.grads.iter().enumerate() {
            for j in 0..self.mats[i].data.len() {
                let grad = g.as_ref().map_or(0.0, |g| g.data[j]);
                self.m[i].data[j] = B1 * self.m[i].data[j] + (1.0 - B1) * grad;
                self.v[i].data[j] = B2 * self.v[i].data[j] + (1.0 - B2) * grad * grad;
                let mhat = self.m[i].data[j] / bc1;
                let vhat = self.v[i].data[j] / bc2;
                self.mats[i].data[j] -= lr * mhat / (vhat.sqrt() + EPS);
            }
        }
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T(usize);

enum Op {
    Param(usize),
    Const,
    Embed { param: usize, row: usize },
    Matmul(T, T),
    /// `aᵀ × b`
    MatmulTN(T, T),
    Add(T, T),
    Mul(T, T),
    Sigmoid(T),
    Tanh(T),
    SliceRows { src: T, start: usize },
    ConcatRows(Vec<T>),
    ConcatCols(Vec<T>),
    Softmax(T),
    /// `gate*a + (1-gate)*b`, gate is 1×1.
    Blend { gate: T, a: T, b: T },
    /// `-ln(probs[target])`, probs is v×1; output 1×1.
    Nll { probs: T, target: usize },
    Scale(T, f32),
    SumList(Vec<T>),
    /// Fused `w·x [+ w2·x2] [+ b]` (fast policy only); params referenced
    /// directly. With `w2x2` it is the packed `[i|f|g|o]` LSTM
    /// pre-activation; without `b`, a plain projection.
    Affine { w: usize, x: T, w2x2: Option<(usize, T)>, b: Option<usize> },
    /// Fused LSTM gate step (fast policy only): value is `[h'; c']`
    /// (2h×1); `aux` caches `[i, f, g, o, tanh(c')]` (5h×1) for backward.
    LstmGates { z: T, c_prev: T, aux: Matrix },
    /// Sparse pointer-copy: `out[rows[i]] += attn[i]` over a `vocab`-sized
    /// column — replaces the dense vocab×srclen scatter matrix (both
    /// policies; it is an op-graph change, not a kernel).
    CopyScatter { attn: T, rows: Vec<usize> },
}

/// The computation tape for one sample/sequence.
pub struct Tape {
    values: Vec<Option<Matrix>>, // None for Param nodes (live in the store)
    ops: Vec<Op>,
    naive: bool,
}

impl Tape {
    /// A fast-policy tape.
    pub fn new() -> Tape {
        Tape::with_policy(KernelPolicy::Fast)
    }

    pub fn with_policy(policy: KernelPolicy) -> Tape {
        Tape { values: vec![], ops: vec![], naive: policy == KernelPolicy::NaiveOracle }
    }

    // Policy-dispatched kernels (bit-identical by the matrix.rs contract).
    fn k_matmul(&self, a: &Matrix, b: &Matrix) -> Matrix {
        if self.naive {
            reference::matmul(a, b)
        } else {
            a.matmul(b)
        }
    }

    fn k_matmul_tn(&self, a: &Matrix, b: &Matrix) -> Matrix {
        if self.naive {
            reference::matmul_tn(a, b)
        } else {
            a.matmul_tn(b)
        }
    }

    fn k_matmul_nt(&self, a: &Matrix, b: &Matrix) -> Matrix {
        if self.naive {
            reference::matmul_nt(a, b)
        } else {
            a.matmul_nt(b)
        }
    }

    fn push(&mut self, value: Option<Matrix>, op: Op) -> T {
        self.values.push(value);
        self.ops.push(op);
        T(self.values.len() - 1)
    }

    /// Shape-checked access to a node's value.
    pub fn value<'a>(&'a self, store: &'a ParamStore, t: T) -> &'a Matrix {
        match &self.ops[t.0] {
            Op::Param(id) => &store.mats[*id],
            _ => self.values[t.0].as_ref().expect("non-param node has a value"),
        }
    }

    pub fn param(&mut self, id: ParamId) -> T {
        self.push(None, Op::Param(id.0))
    }

    pub fn constant(&mut self, m: Matrix) -> T {
        self.push(Some(m), Op::Const)
    }

    /// Embedding-row lookup: the `row`-th row of the parameter matrix as a
    /// column vector.
    pub fn embed(&mut self, store: &ParamStore, table: ParamId, row: usize) -> T {
        let tab = store.get(table);
        let out = Matrix::col(tab.data[row * tab.cols..(row + 1) * tab.cols].to_vec());
        self.push(Some(out), Op::Embed { param: table.0, row })
    }

    pub fn matmul(&mut self, store: &ParamStore, a: T, b: T) -> T {
        let v = self.k_matmul(self.value(store, a), self.value(store, b));
        self.push(Some(v), Op::Matmul(a, b))
    }

    /// `aᵀ × b`.
    pub fn matmul_tn(&mut self, store: &ParamStore, a: T, b: T) -> T {
        let v = self.k_matmul_tn(self.value(store, a), self.value(store, b));
        self.push(Some(v), Op::MatmulTN(a, b))
    }

    pub fn add(&mut self, store: &ParamStore, a: T, b: T) -> T {
        let mut v = self.value(store, a).clone();
        v.add_assign(self.value(store, b));
        self.push(Some(v), Op::Add(a, b))
    }

    pub fn mul(&mut self, store: &ParamStore, a: T, b: T) -> T {
        let av = self.value(store, a);
        let bv = self.value(store, b);
        assert!(av.same_shape(bv));
        let data = av.data.iter().zip(&bv.data).map(|(x, y)| x * y).collect();
        let v = Matrix::from_vec(av.rows, av.cols, data);
        self.push(Some(v), Op::Mul(a, b))
    }

    pub fn sigmoid(&mut self, store: &ParamStore, a: T) -> T {
        let av = self.value(store, a);
        let data = av.data.iter().map(|&x| 1.0 / (1.0 + (-x).exp())).collect();
        let v = Matrix::from_vec(av.rows, av.cols, data);
        self.push(Some(v), Op::Sigmoid(a))
    }

    pub fn tanh(&mut self, store: &ParamStore, a: T) -> T {
        let av = self.value(store, a);
        let v = Matrix::from_vec(av.rows, av.cols, av.data.iter().map(|x| x.tanh()).collect());
        self.push(Some(v), Op::Tanh(a))
    }

    /// Rows `[start, start+len)` of a column-vector-shaped node.
    pub fn slice_rows(&mut self, store: &ParamStore, src: T, start: usize, len: usize) -> T {
        let sv = self.value(store, src);
        assert_eq!(sv.cols, 1);
        let v = Matrix::col(sv.data[start..start + len].to_vec());
        self.push(Some(v), Op::SliceRows { src, start })
    }

    /// Stack column vectors vertically.
    pub fn concat_rows(&mut self, store: &ParamStore, parts: &[T]) -> T {
        let v = {
            let total: usize = parts.iter().map(|&p| self.value(store, p).rows).sum();
            let mut out = Matrix::zeros(total, 1);
            let mut off = 0;
            for &p in parts {
                let pv = self.value(store, p);
                assert_eq!(pv.cols, 1);
                out.data[off..off + pv.rows].copy_from_slice(&pv.data);
                off += pv.rows;
            }
            out
        };
        self.push(Some(v), Op::ConcatRows(parts.to_vec()))
    }

    /// Stack column vectors horizontally into an (h × n) matrix.
    pub fn concat_cols(&mut self, store: &ParamStore, parts: &[T]) -> T {
        let out = {
            let rows = self.value(store, parts[0]).rows;
            let mut out = Matrix::zeros(rows, parts.len());
            for (j, &p) in parts.iter().enumerate() {
                let pv = self.value(store, p);
                assert_eq!(pv.rows, rows);
                for i in 0..rows {
                    *out.at_mut(i, j) = pv.data[i];
                }
            }
            out
        };
        self.push(Some(out), Op::ConcatCols(parts.to_vec()))
    }

    /// Column softmax.
    pub fn softmax(&mut self, store: &ParamStore, a: T) -> T {
        let v = {
            let av = self.value(store, a);
            assert_eq!(av.cols, 1);
            let max = av.data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut out = Matrix::zeros(av.rows, 1);
            let mut sum = 0.0f32;
            for (o, &x) in out.data.iter_mut().zip(&av.data) {
                let e = (x - max).exp();
                *o = e;
                sum += e;
            }
            for o in &mut out.data {
                *o /= sum;
            }
            out
        };
        self.push(Some(v), Op::Softmax(a))
    }

    /// `gate*a + (1-gate)*b` with a 1×1 gate.
    pub fn blend(&mut self, store: &ParamStore, gate: T, a: T, b: T) -> T {
        let v = {
            let g = self.value(store, gate).data[0];
            let av = self.value(store, a);
            let bv = self.value(store, b);
            assert!(av.same_shape(bv));
            let mut out = Matrix::zeros(av.rows, av.cols);
            for (o, (x, y)) in out.data.iter_mut().zip(av.data.iter().zip(&bv.data)) {
                *o = g * x + (1.0 - g) * y;
            }
            out
        };
        self.push(Some(v), Op::Blend { gate, a, b })
    }

    /// Negative log likelihood of `target` under a probability column.
    pub fn nll(&mut self, store: &ParamStore, probs: T, target: usize) -> T {
        let p = self.value(store, probs).data[target].max(1e-12);
        let v = Matrix::col(vec![-p.ln()]);
        self.push(Some(v), Op::Nll { probs, target })
    }

    pub fn scale(&mut self, store: &ParamStore, a: T, s: f32) -> T {
        let mut v = self.value(store, a).clone();
        v.scale(s);
        self.push(Some(v), Op::Scale(a, s))
    }

    /// Sum of 1×1 scalars.
    pub fn sum_scalars(&mut self, store: &ParamStore, parts: &[T]) -> T {
        let total: f32 = parts.iter().map(|&p| self.value(store, p).data[0]).sum();
        self.push(Some(Matrix::col(vec![total])), Op::SumList(parts.to_vec()))
    }

    /// `w·x + b`. Fast: one fused node referencing the params directly.
    /// Naive: the pre-rewrite chain `add(matmul(param(w), x), param(b))`.
    pub fn affine(&mut self, store: &ParamStore, w: ParamId, x: T, b: ParamId) -> T {
        self.fused_affine(store, w, x, None, Some(b))
    }

    /// `w1·x1 + w2·x2 + b` — the packed `[i|f|g|o]` LSTM pre-activation as
    /// one node. Sum order matches the unfused `add(add(w1·x1, w2·x2), b)`
    /// exactly: the second product is accumulated onto the first, then the
    /// bias.
    pub fn affine2(
        &mut self,
        store: &ParamStore,
        w1: ParamId,
        x1: T,
        w2: ParamId,
        x2: T,
        b: ParamId,
    ) -> T {
        self.fused_affine(store, w1, x1, Some((w2, x2)), Some(b))
    }

    /// `w·x` with no bias (bridge / attention-query / copy-gate
    /// projections).
    pub fn linear(&mut self, store: &ParamStore, w: ParamId, x: T) -> T {
        self.fused_affine(store, w, x, None, None)
    }

    /// The one fused affine op behind `affine`, `affine2` and `linear`:
    /// `w·x [+ w2·x2] [+ b]`. Fast: one node referencing the params
    /// directly — `w·x`, then `w2·x2` accumulated onto it, then the bias.
    /// Naive: the pre-rewrite chain `add(add(matmul(param(w), x),
    /// matmul(param(w2), x2)), param(b))`, its `Param` nodes pushed first.
    /// Bit-identical because each element sums its terms in the same order
    /// either way.
    fn fused_affine(
        &mut self,
        store: &ParamStore,
        w: ParamId,
        x: T,
        w2x2: Option<(ParamId, T)>,
        b: Option<ParamId>,
    ) -> T {
        if self.naive {
            let wp = self.param(w);
            let w2p = w2x2.map(|(w2, x2)| (self.param(w2), x2));
            let bp = b.map(|b| self.param(b));
            let mut z = self.matmul(store, wp, x);
            if let Some((w2p, x2)) = w2p {
                let z2 = self.matmul(store, w2p, x2);
                z = self.add(store, z, z2);
            }
            if let Some(bp) = bp {
                z = self.add(store, z, bp);
            }
            return z;
        }
        let out = {
            let wm = &store.mats[w.0];
            let mut out = wm.matmul(self.value(store, x));
            if let Some((w2, x2)) = w2x2 {
                store.mats[w2.0].matvec_acc(self.value(store, x2), &mut out);
            }
            if let Some(b) = b {
                for (o, &bv) in out.data.iter_mut().zip(&store.mats[b.0].data) {
                    *o += bv;
                }
            }
            out
        };
        let w2x2 = w2x2.map(|(w2, x2)| (w2.0, x2));
        self.push(Some(out), Op::Affine { w: w.0, x, w2x2, b: b.map(|b| b.0) })
    }

    /// One LSTM gate step from the packed pre-activation `z` (4h×1) and the
    /// previous cell `c_prev`: returns `(h', c')` nodes. Fast: a single
    /// fused node computing all gates in one pass (aux-cached for
    /// backward) plus two row slices. Naive: the pre-rewrite 11-node chain.
    /// Elementwise math is identical in both: `c' = f·c + i·g`,
    /// `h' = o·tanh(c')` with the same sigmoid/tanh expressions.
    pub fn lstm_gates(&mut self, store: &ParamStore, z: T, c_prev: T, hidden: usize) -> (T, T) {
        if self.naive {
            let i = self.slice_rows(store, z, 0, hidden);
            let f = self.slice_rows(store, z, hidden, hidden);
            let g = self.slice_rows(store, z, 2 * hidden, hidden);
            let o = self.slice_rows(store, z, 3 * hidden, hidden);
            let i = self.sigmoid(store, i);
            let f = self.sigmoid(store, f);
            let g = self.tanh(store, g);
            let o = self.sigmoid(store, o);
            let fc = self.mul(store, f, c_prev);
            let ig = self.mul(store, i, g);
            let c2 = self.add(store, fc, ig);
            let tc = self.tanh(store, c2);
            let h2 = self.mul(store, o, tc);
            return (h2, c2);
        }
        let h = hidden;
        let (hc, aux) = {
            let zv = self.value(store, z);
            let cv = self.value(store, c_prev);
            assert_eq!(zv.rows, 4 * h);
            assert_eq!(cv.rows, h);
            let mut hc = Matrix::zeros(2 * h, 1);
            let mut aux = Matrix::zeros(5 * h, 1);
            for k in 0..h {
                let i = 1.0 / (1.0 + (-zv.data[k]).exp());
                let f = 1.0 / (1.0 + (-zv.data[h + k]).exp());
                let g = zv.data[2 * h + k].tanh();
                let o = 1.0 / (1.0 + (-zv.data[3 * h + k]).exp());
                let c2 = f * cv.data[k] + i * g;
                let tc = c2.tanh();
                hc.data[k] = o * tc;
                hc.data[h + k] = c2;
                aux.data[k] = i;
                aux.data[h + k] = f;
                aux.data[2 * h + k] = g;
                aux.data[3 * h + k] = o;
                aux.data[4 * h + k] = tc;
            }
            (hc, aux)
        };
        let node = self.push(Some(hc), Op::LstmGates { z, c_prev, aux });
        let h2 = self.slice_rows(store, node, 0, h);
        let c2 = self.slice_rows(store, node, h, h);
        (h2, c2)
    }

    /// Pointer-copy distribution: `out[rows[i]] += attn[i]` over a
    /// `vocab`-sized column. Used under both policies — it replaces the
    /// dense vocab×srclen one-hot matrix multiply at the op-graph level.
    pub fn copy_scatter(
        &mut self,
        store: &ParamStore,
        attn: T,
        rows: &[usize],
        vocab: usize,
    ) -> T {
        let out = {
            let av = self.value(store, attn);
            assert_eq!(av.rows, rows.len());
            let mut out = Matrix::zeros(vocab, 1);
            for (i, &r) in rows.iter().enumerate() {
                out.data[r] += av.data[i];
            }
            out
        };
        self.push(Some(out), Op::CopyScatter { attn, rows: rows.to_vec() })
    }

    /// Reverse pass from a scalar loss node. Returns the parameter
    /// gradients as a dense [`GradSet`] (caller merges/folds them).
    pub fn backward(&self, store: &ParamStore, loss: T) -> GradSet {
        let n = self.values.len();
        nv_trace::count("nn.tape.nodes", n as u64);
        let mut gs = GradSet::for_store(store);
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        {
            let lv = self.value(store, loss);
            assert_eq!((lv.rows, lv.cols), (1, 1), "loss must be scalar");
        }
        grads[loss.0] = Some(Matrix::col(vec![1.0]));

        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else { continue };
            match &self.ops[i] {
                Op::Const => {}
                Op::Param(id) => {
                    entry(&mut gs, store, *id).add_assign(&g);
                }
                Op::Embed { param, row } => {
                    let e = entry(&mut gs, store, *param);
                    let cols = e.cols;
                    for j in 0..g.rows {
                        e.data[row * cols + j] += g.data[j];
                    }
                }
                Op::Matmul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = self.k_matmul_nt(&g, self.value(store, b));
                    let db = self.k_matmul_tn(self.value(store, a), &g);
                    acc(&mut grads, a, da);
                    acc(&mut grads, b, db);
                }
                Op::MatmulTN(a, b) => {
                    let (a, b) = (*a, *b);
                    // out = aᵀb; da = b gᵀ; db = a g.
                    let da = self.k_matmul_nt(self.value(store, b), &g);
                    let db = self.k_matmul(self.value(store, a), &g);
                    acc(&mut grads, a, da);
                    acc(&mut grads, b, db);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    acc(&mut grads, a, g.clone());
                    acc(&mut grads, b, g);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let av = self.value(store, a).clone();
                    let bv = self.value(store, b).clone();
                    let mut da = g.clone();
                    for (x, y) in da.data.iter_mut().zip(&bv.data) {
                        *x *= y;
                    }
                    let mut db = g;
                    for (x, y) in db.data.iter_mut().zip(&av.data) {
                        *x *= y;
                    }
                    acc(&mut grads, a, da);
                    acc(&mut grads, b, db);
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    let yv = self.values[i].as_ref().unwrap().clone();
                    let mut da = g;
                    for (x, y) in da.data.iter_mut().zip(&yv.data) {
                        *x *= y * (1.0 - y);
                    }
                    acc(&mut grads, a, da);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    let yv = self.values[i].as_ref().unwrap().clone();
                    let mut da = g;
                    for (x, y) in da.data.iter_mut().zip(&yv.data) {
                        *x *= 1.0 - y * y;
                    }
                    acc(&mut grads, a, da);
                }
                Op::SliceRows { src, start } => {
                    let (src, start) = (*src, *start);
                    let rows = self.value(store, src).rows;
                    let mut ds = Matrix::zeros(rows, 1);
                    ds.data[start..start + g.rows].copy_from_slice(&g.data);
                    acc(&mut grads, src, ds);
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let len = self.value(store, p).rows;
                        let dp = Matrix::col(g.data[off..off + len].to_vec());
                        off += len;
                        acc(&mut grads, p, dp);
                    }
                }
                Op::ConcatCols(parts) => {
                    for (j, &p) in parts.iter().enumerate() {
                        let dp = Matrix::col((0..g.rows).map(|r| g.at(r, j)).collect());
                        acc(&mut grads, p, dp);
                    }
                }
                Op::Softmax(a) => {
                    let a = *a;
                    let y = self.values[i].as_ref().unwrap();
                    let dot: f32 = g.data.iter().zip(&y.data).map(|(x, s)| x * s).sum();
                    let da = y.data.iter().zip(&g.data).map(|(s, x)| s * (x - dot)).collect();
                    acc(&mut grads, a, Matrix::col(da));
                }
                Op::Blend { gate, a, b } => {
                    let (gate, a, b) = (*gate, *a, *b);
                    let gv = self.value(store, gate).data[0];
                    let av = self.value(store, a).clone();
                    let bv = self.value(store, b).clone();
                    let dgate: f32 = g
                        .data
                        .iter()
                        .zip(av.data.iter().zip(&bv.data))
                        .map(|(x, (ai, bi))| x * (ai - bi))
                        .sum();
                    let mut da = g.clone();
                    da.scale(gv);
                    let mut db = g;
                    db.scale(1.0 - gv);
                    acc(&mut grads, gate, Matrix::col(vec![dgate]));
                    acc(&mut grads, a, da);
                    acc(&mut grads, b, db);
                }
                Op::Nll { probs, target } => {
                    let (probs, target) = (*probs, *target);
                    let pv = self.value(store, probs);
                    let mut dp = Matrix::zeros(pv.rows, 1);
                    dp.data[target] = -g.data[0] / pv.data[target].max(1e-12);
                    acc(&mut grads, probs, dp);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    let mut da = g;
                    da.scale(s);
                    acc(&mut grads, a, da);
                }
                Op::SumList(parts) => {
                    for &p in parts {
                        acc(&mut grads, p, g.clone());
                    }
                }
                // Fused arm (fast policy only). Weight gradients are
                // rank-1 accumulated straight into the grad set — the same
                // `entry += g_i·x_j` additions the unfused
                // matmul_nt + Param-node chain performs, without the
                // intermediate weight-sized matrices. Per term: weight
                // gradient, then input gradient; the bias after the terms.
                Op::Affine { w, x, w2x2, b } => {
                    for (w, x) in std::iter::once((*w, *x)).chain(*w2x2) {
                        entry(&mut gs, store, w).rank1_acc(&g, self.value(store, x));
                        let dx = self.k_matmul_tn(&store.mats[w], &g);
                        acc(&mut grads, x, dx);
                    }
                    if let Some(b) = *b {
                        entry(&mut gs, store, b).add_assign(&g);
                    }
                }
                // Mirrors the unfused chain's float expressions and
                // accumulation order exactly:
                //   dtc = gh·o, then ·(1−tc²)       (mul, tanh backward)
                //   dc  = gc_ext + dtc              (ext contribution first)
                //   df  = dc·c_prev, dc_prev = dc·f (mul backward)
                //   di  = dc·g, dg = dc·i           (mul backward)
                //   dz_* via y·(1−y) / (1−y²)       (sigmoid/tanh backward)
                Op::LstmGates { z, c_prev, aux } => {
                    let (z, c_prev) = (*z, *c_prev);
                    let h = aux.rows / 5;
                    let mut dz = Matrix::zeros(4 * h, 1);
                    let mut dc_prev = Matrix::zeros(h, 1);
                    {
                        let cv = self.value(store, c_prev);
                        for k in 0..h {
                            let iv = aux.data[k];
                            let fv = aux.data[h + k];
                            let gg = aux.data[2 * h + k];
                            let ov = aux.data[3 * h + k];
                            let tc = aux.data[4 * h + k];
                            let gh = g.data[k];
                            let gc = g.data[h + k];
                            let mut dtc = gh * ov;
                            dtc *= 1.0 - tc * tc;
                            let dc = gc + dtc;
                            let df = dc * cv.data[k];
                            dc_prev.data[k] = dc * fv;
                            let di = dc * gg;
                            let dg = dc * iv;
                            let do_ = gh * tc;
                            dz.data[k] = di * (iv * (1.0 - iv));
                            dz.data[h + k] = df * (fv * (1.0 - fv));
                            dz.data[2 * h + k] = dg * (1.0 - gg * gg);
                            dz.data[3 * h + k] = do_ * (ov * (1.0 - ov));
                        }
                    }
                    acc(&mut grads, z, dz);
                    acc(&mut grads, c_prev, dc_prev);
                }
                Op::CopyScatter { attn, rows } => {
                    let attn = *attn;
                    let da = Matrix::col(rows.iter().map(|&r| g.data[r]).collect());
                    acc(&mut grads, attn, da);
                }
            }
        }
        gs
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// Dense-slot access into a grad set, creating the zeroed matrix on first
/// touch.
fn entry<'a>(gs: &'a mut GradSet, store: &ParamStore, id: usize) -> &'a mut Matrix {
    gs.grads[id].get_or_insert_with(|| {
        let m = &store.mats[id];
        Matrix::zeros(m.rows, m.cols)
    })
}

fn acc(grads: &mut [Option<Matrix>], t: T, g: Matrix) {
    match &mut grads[t.0] {
        Some(existing) => existing.add_assign(&g),
        slot => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numerical gradient check: perturb every scalar of every param and
    /// compare the finite difference against the analytic gradient.
    fn grad_check<F>(store: &mut ParamStore, forward: F, tol: f32)
    where
        F: Fn(&mut Tape, &ParamStore) -> T,
    {
        // Analytic; an untouched parameter's gradient is zero.
        let mut tape = Tape::new();
        let loss = forward(&mut tape, store);
        let grads = tape.backward(store, loss);
        let analytic: Vec<Matrix> = grads
            .grads
            .into_iter()
            .zip(&store.mats)
            .map(|(g, m)| g.unwrap_or_else(|| Matrix::zeros(m.rows, m.cols)))
            .collect();

        let eps = 1e-3f32;
        for (pi, analytic) in analytic.iter().enumerate() {
            for j in 0..analytic.data.len() {
                let orig = store.mats[pi].data[j];
                store.mats[pi].data[j] = orig + eps;
                let mut t1 = Tape::new();
                let l1 = forward(&mut t1, store);
                let f1 = t1.value(store, l1).data[0];
                store.mats[pi].data[j] = orig - eps;
                let mut t2 = Tape::new();
                let l2 = forward(&mut t2, store);
                let f2 = t2.value(store, l2).data[0];
                store.mats[pi].data[j] = orig;
                let numeric = (f1 - f2) / (2.0 * eps);
                let a = analytic.data[j];
                assert!(
                    (numeric - a).abs() < tol * (1.0 + numeric.abs().max(a.abs())),
                    "param {pi}[{j}]: numeric {numeric} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn grad_check_linear_softmax_nll() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.add(Matrix::xavier(4, 3, &mut rng));
        let b = store.add(Matrix::xavier(4, 1, &mut rng));
        grad_check(
            &mut store,
            |tape, store| {
                let x = tape.constant(Matrix::col(vec![0.5, -0.3, 0.8]));
                let z = tape.affine(store, w, x, b);
                let p = tape.softmax(store, z);
                tape.nll(store, p, 2)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_check_fused_lstm_cell() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = 3;
        let mut store = ParamStore::new();
        let wih = store.add(Matrix::xavier(4 * h, 2, &mut rng));
        let whh = store.add(Matrix::xavier(4 * h, h, &mut rng));
        let bias = store.add(Matrix::zeros(4 * h, 1));
        let wout = store.add(Matrix::xavier(5, h, &mut rng));
        grad_check(
            &mut store,
            |tape, store| {
                let x = tape.constant(Matrix::col(vec![0.2, -0.7]));
                let h0 = tape.constant(Matrix::col(vec![0.1; 3]));
                let c0 = tape.constant(Matrix::col(vec![0.0; 3]));
                let z = tape.affine2(store, wih, x, whh, h0, bias);
                let (hh, _c) = tape.lstm_gates(store, z, c0, 3);
                let logits = tape.linear(store, wout, hh);
                let p = tape.softmax(store, logits);
                tape.nll(store, p, 1)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_check_attention_and_blend() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let we = store.add(Matrix::xavier(3, 2, &mut rng));
        let wg = store.add(Matrix::xavier(1, 3, &mut rng));
        grad_check(
            &mut store,
            |tape, store| {
                let x1 = tape.constant(Matrix::col(vec![0.3, 0.9]));
                let x2 = tape.constant(Matrix::col(vec![-0.5, 0.1]));
                let e1 = tape.linear(store, we, x1);
                let e2 = tape.linear(store, we, x2);
                let enc = tape.concat_cols(store, &[e1, e2]); // 3×2
                let q = tape.constant(Matrix::col(vec![0.4, -0.2, 0.6]));
                let scores = tape.matmul_tn(store, enc, q); // 2×1
                let attn = tape.softmax(store, scores);
                let ctx = tape.matmul(store, enc, attn); // 3×1
                let gl = tape.linear(store, wg, ctx); // 1×1
                let gate = tape.sigmoid(store, gl);
                // Blend a pseudo-vocab distribution with a copy scatter.
                let vocab = tape.softmax(store, ctx); // 3×1
                let copy = tape.copy_scatter(store, attn, &[0, 1], 3);
                let mixed = tape.blend(store, gate, vocab, copy);
                tape.nll(store, mixed, 0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_check_embed_and_concat_rows() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let emb = store.add(Matrix::xavier(5, 3, &mut rng));
        let w = store.add(Matrix::xavier(4, 6, &mut rng));
        grad_check(
            &mut store,
            |tape, store| {
                let e1 = tape.embed(store, emb, 2);
                let e2 = tape.embed(store, emb, 4);
                let x = tape.concat_rows(store, &[e1, e2]);
                let wp = tape.param(w);
                let z = tape.matmul(store, wp, x);
                let p = tape.softmax(store, z);
                let l1 = tape.nll(store, p, 3);
                let l2 = tape.nll(store, p, 0);
                let s = tape.sum_scalars(store, &[l1, l2]);
                tape.scale(store, s, 0.5)
            },
            2e-2,
        );
    }

    /// The load-bearing invariant: the fused fast path and the unfused
    /// naive oracle produce bit-identical values and gradients on a graph
    /// exercising every fused op (LSTM step + attention + copy blend).
    #[test]
    fn fast_and_naive_policies_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(6);
        let h = 4;
        let mut store = ParamStore::new();
        let emb = store.add(Matrix::xavier(7, 3, &mut rng));
        let wih = store.add(Matrix::xavier(4 * h, 3, &mut rng));
        let whh = store.add(Matrix::xavier(4 * h, h, &mut rng));
        let bias = store.add(Matrix::xavier(4 * h, 1, &mut rng));
        let wq = store.add(Matrix::xavier(h, h, &mut rng));
        let wout = store.add(Matrix::xavier(7, h, &mut rng));
        let bout = store.add(Matrix::xavier(7, 1, &mut rng));
        let wg = store.add(Matrix::xavier(1, h, &mut rng));

        let run = |policy: KernelPolicy| {
            let mut tape = Tape::with_policy(policy);
            let e1 = tape.embed(&store, emb, 1);
            let e2 = tape.embed(&store, emb, 5);
            let (mut hh, mut cc) = {
                let h0 = tape.constant(Matrix::zeros(h, 1));
                let c0 = tape.constant(Matrix::zeros(h, 1));
                (h0, c0)
            };
            let mut outs = vec![];
            for &x in &[e1, e2] {
                let z = tape.affine2(&store, wih, x, whh, hh, bias);
                let (h2, c2) = tape.lstm_gates(&store, z, cc, h);
                outs.push(h2);
                hh = h2;
                cc = c2;
            }
            let enc = tape.concat_cols(&store, &outs);
            let q = tape.linear(&store, wq, hh);
            let scores = tape.matmul_tn(&store, enc, q);
            let attn = tape.softmax(&store, scores);
            let ctx = tape.matmul(&store, enc, attn);
            let z = tape.affine(&store, wout, ctx, bout);
            let vocab = tape.softmax(&store, z);
            let copy = tape.copy_scatter(&store, attn, &[1, 5], 7);
            let gl = tape.linear(&store, wg, ctx);
            let gate = tape.sigmoid(&store, gl);
            let mixed = tape.blend(&store, gate, vocab, copy);
            let loss = tape.nll(&store, mixed, 5);
            let lv = tape.value(&store, loss).data[0];
            let gs = tape.backward(&store, loss);
            (lv, gs)
        };
        let (lf, gf) = run(KernelPolicy::Fast);
        let (ln, gn) = run(KernelPolicy::NaiveOracle);
        assert_eq!(lf.to_bits(), ln.to_bits(), "loss bits differ: {lf} vs {ln}");
        for (i, (a, b)) in gf.grads.iter().zip(&gn.grads).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => {
                    for (j, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "grad param {i}[{j}]: {x} vs {y}"
                        );
                    }
                }
                (None, None) => {}
                _ => panic!("param {i}: one policy has a grad, the other not"),
            }
        }
    }

    #[test]
    fn copy_scatter_matches_dense_one_hot_matmul() {
        let store = ParamStore::new();
        let attn_v = Matrix::col(vec![0.5, 0.2, 0.2, 0.1]);
        let rows = [2usize, 0, 2, 1];
        let mut tape = Tape::new();
        let attn = tape.constant(attn_v.clone());
        let out = tape.copy_scatter(&store, attn, &rows, 4);
        let got = tape.value(&store, out).clone();
        // Dense equivalent: M[rows[i], i] = 1; M · attn.
        let mut m = Matrix::zeros(4, 4);
        for (i, &r) in rows.iter().enumerate() {
            *m.at_mut(r, i) = 1.0;
        }
        let want = m.matmul(&attn_v);
        for (a, b) in got.data.iter().zip(&want.data) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
        // Backward: each position's grad is the output grad at its row.
        let wsum = tape.nll(&store, out, 2);
        let gs = tape.backward(&store, wsum);
        assert!(gs.grads.iter().all(|g| g.is_none())); // no params touched
        let _ = store;
    }

    #[test]
    fn adam_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let w = store.add(Matrix::xavier(3, 2, &mut rng));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::col(vec![1.0, -1.0]));
            let wp = tape.param(w);
            let z = tape.matmul(&store, wp, x);
            let p = tape.softmax(&store, z);
            let loss = tape.nll(&store, p, 1);
            last = tape.value(&store, loss).data[0];
            first.get_or_insert(last);
            let mut grads = tape.backward(&store, loss);
            grads.clip_global_norm(2.0);
            store.adam_step(&grads, 0.05);
        }
        assert!(last < first.unwrap() * 0.2, "{} → {last}", first.unwrap());
    }

    #[test]
    fn gradset_merge_is_slotwise_addition() {
        let mut store = ParamStore::new();
        let a = store.add(Matrix::zeros(2, 1));
        let b = store.add(Matrix::zeros(2, 1));
        let mut g1 = GradSet::for_store(&store);
        g1.grads[a.0] = Some(Matrix::col(vec![1.0, 2.0]));
        let mut g2 = GradSet::for_store(&store);
        g2.grads[a.0] = Some(Matrix::col(vec![0.5, 0.5]));
        g2.grads[b.0] = Some(Matrix::col(vec![3.0, 3.0]));
        g1.merge(g2);
        assert_eq!(g1.get(a).unwrap().data, vec![1.5, 2.5]);
        assert_eq!(g1.get(b).unwrap().data, vec![3.0, 3.0]);
    }

    #[test]
    fn clip_global_norm_scales() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::zeros(2, 2));
        let mut gs = GradSet::for_store(&store);
        gs.grads[w.0] = Some(Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]));
        gs.clip_global_norm(1.0);
        let n: f32 = gs.get(w).unwrap().norm();
        assert!((n - 1.0).abs() < 1e-5);
        // Below the max: untouched.
        gs.grads[w.0] = Some(Matrix::from_vec(2, 2, vec![0.1, 0.0, 0.0, 0.1]));
        gs.clip_global_norm(1.0);
        assert!((gs.get(w).unwrap().data[0] - 0.1).abs() < 1e-7);
    }

    #[test]
    fn n_scalars_counts() {
        let mut store = ParamStore::new();
        store.add(Matrix::zeros(3, 4));
        store.add(Matrix::zeros(2, 1));
        assert_eq!(store.n_scalars(), 14);
    }
}
