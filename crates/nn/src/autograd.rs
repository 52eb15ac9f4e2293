//! A tape-based reverse-mode autograd over [`Matrix`] with two execution
//! policies sharing one numeric contract.
//!
//! ## Kernel policy
//!
//! A tape runs under a [`KernelPolicy`]:
//!
//! * **`Fast`** — the training path: the kernels of `matrix.rs`, fused
//!   ops (one affine node `w·x [+ w2·x2] [+ b]` behind [`Tape::affine`],
//!   [`Tape::affine2`] and [`Tape::linear`], plus [`Tape::lstm_gates`] and
//!   [`Tape::copy_scatter`]), weight gradients accumulated straight into a
//!   dense [`GradSet`] as rank-1 updates ([`Matrix::rank1_acc`], no per-op
//!   gradient matrices), and time-batched products: [`Tape::project`]
//!   computes `w·x_t [+ b]` for a whole sequence as one stacked node,
//!   which [`Tape::affine_onto`] and [`Tape::softmax_row`] read row by
//!   row.
//! * **`NaiveOracle`** — the differential twin, mirroring the pre-rewrite
//!   implementation: reference (gather-loop) kernels and the unfused op
//!   chain (explicit matmul/add/slice/sigmoid/... nodes). Kept callable
//!   forever, like the sequential-synthesis and reference-interpreter
//!   oracles of earlier PRs.
//!
//! Under either policy every node value and every gradient is a freshly
//! allocated matrix — except a stacked product's gradient, which takes
//! over the product's own value, read by nothing once forward is done —
//! and a tape records exactly one sample: the caller builds a new [`Tape`]
//! per sample, and `backward` consumes it.
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
    /// gradient. Each slot's update is one pass of zipped iterators, which
    /// vectorizes (`sqrtps` and `divps` round like their scalar forms).
    pub fn adam_step(&mut self, grads: &GradSet, lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        assert_eq!(grads.grads.len(), self.mats.len());
        let update = |p: &mut f32, m: &mut f32, v: &mut f32, grad: f32| {
            *m = B1 * *m + (1.0 - B1) * grad;
            *v = B2 * *v + (1.0 - B2) * grad * grad;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + EPS);
        };
        let slots = self.mats.iter_mut().zip(&mut self.m).zip(&mut self.v);
        for (((p, m), v), g) in slots.zip(&grads.grads) {
            let pmv = p.data.iter_mut().zip(&mut m.data).zip(&mut v.data);
            match g {
                Some(g) => pmv.zip(&g.data).for_each(|(((p, m), v), &g)| update(p, m, v, g)),
                None => pmv.for_each(|((p, m), v)| update(p, m, v, 0.0)),
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

/// Handle to a time-batched product from [`Tape::project`]: a stack of
/// per-step columns, one per row, read only row by row
/// ([`Tape::softmax_row`], [`Tape::affine_onto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rows(T);

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
    /// Softmax of row `row` of a stacked product (fast policy only).
    SoftmaxRow { src: T, row: usize },
    /// `gate*a + (1-gate)*b`, gate is 1×1.
    Blend { gate: T, a: T, b: T },
    /// `-ln(probs[target])`, probs is v×1; output 1×1.
    Nll { probs: T, target: usize },
    Scale(T, f32),
    SumList(Vec<T>),
    /// Fused `[pre_row +] w·x [+ w2·x2] [+ b]` (fast policy only); params
    /// referenced directly. With `w2x2` it is the packed `[i|f|g|o]` LSTM
    /// pre-activation; with `pre`, the same with its input product read
    /// from row `row` of the stacked product `pre`; without `b`, a plain
    /// projection.
    Affine { pre: Option<(T, usize)>, w: usize, x: T, w2x2: Option<(usize, T)>, b: Option<usize> },
    /// Time-batched `w·x_t [+ b]` for every input `xs[t]` (fast policy
    /// only): value row `t` is step `t`'s product. `x` keeps the inputs
    /// stacked as rows for the weight gradient.
    Project { w: usize, xs: Vec<T>, x: Matrix, b: Option<usize> },
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
            softmax(&av.data)
        };
        self.push(Some(v), Op::Softmax(a))
    }

    /// Softmax of row `row` of a stacked product, as a column, read in
    /// place: the same values [`Tape::softmax`] gives for that step's
    /// column.
    pub fn softmax_row(&mut self, src: Rows, row: usize) -> T {
        let v = {
            let sv = self.values[src.0 .0].as_ref().expect("a stacked product has a value");
            softmax(&sv.data[row * sv.cols..(row + 1) * sv.cols])
        };
        self.push(Some(v), Op::SoftmaxRow { src: src.0, row })
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
        self.fused_affine(store, None, w, x, None, Some(b))
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
        self.fused_affine(store, None, w1, x1, Some((w2, x2)), Some(b))
    }

    /// `pre[row] + w·x + b` — [`Tape::affine2`] with its first product
    /// already computed, as row `row` of the stacked product `pre` (fast
    /// policy only). The row is the same `w1·x1` column, so the sum order,
    /// and every bit, is `affine2`'s.
    pub fn affine_onto(
        &mut self,
        store: &ParamStore,
        pre: Rows,
        row: usize,
        w: ParamId,
        x: T,
        b: ParamId,
    ) -> T {
        self.fused_affine(store, Some((pre, row)), w, x, None, Some(b))
    }

    /// The time-batched product `w·x_t [+ b]` of every input `xs[t]`, as
    /// one node whose row `t` is step `t`'s column (fast policy only). Row
    /// `t` holds the bits [`Tape::affine`] or [`Tape::linear`] gives for
    /// `xs[t]`: a stacked `matmul_nt`, then the bias. Backward takes its
    /// weight gradient as one [`Matrix::rank_acc`] over the steps, last
    /// first, as the per-step nodes' backward visits them, its input
    /// gradients as one stacked `matmul`, and adds the bias gradient step
    /// by step in the same order; every row must receive a gradient.
    pub fn project(
        &mut self,
        store: &ParamStore,
        w: ParamId,
        xs: &[T],
        b: Option<ParamId>,
    ) -> Rows {
        assert!(!self.naive, "the naive oracle records per-step products");
        let wm = store.get(w);
        let k = wm.cols;
        let mut x = Matrix::zeros(xs.len(), k);
        for (t, &xt) in xs.iter().enumerate() {
            x.data[t * k..(t + 1) * k].copy_from_slice(&self.value(store, xt).data);
        }
        let mut z = x.matmul_nt(wm);
        if let Some(b) = b {
            for row in z.data.chunks_exact_mut(wm.rows) {
                for (o, &bv) in row.iter_mut().zip(&store.mats[b.0].data) {
                    *o += bv;
                }
            }
        }
        let op = Op::Project { w: w.0, xs: xs.to_vec(), x, b: b.map(|b| b.0) };
        Rows(self.push(Some(z), op))
    }

    /// `w·x` with no bias (bridge / attention-query / copy-gate
    /// projections).
    pub fn linear(&mut self, store: &ParamStore, w: ParamId, x: T) -> T {
        self.fused_affine(store, None, w, x, None, None)
    }

    /// The one fused affine op behind `affine`, `affine2`, `affine_onto`
    /// and `linear`: `[pre_row +] w·x [+ w2·x2] [+ b]`. Fast: one node
    /// referencing the params directly — `w·x` (or the row `pre_row` with
    /// `w·x` accumulated onto it), then `w2·x2` accumulated, then the bias.
    /// Naive: the pre-rewrite chain `add(add(matmul(param(w), x),
    /// matmul(param(w2), x2)), param(b))`, its `Param` nodes pushed first.
    /// Bit-identical because each element sums its terms in the same order
    /// either way.
    fn fused_affine(
        &mut self,
        store: &ParamStore,
        pre: Option<(Rows, usize)>,
        w: ParamId,
        x: T,
        w2x2: Option<(ParamId, T)>,
        b: Option<ParamId>,
    ) -> T {
        if self.naive {
            assert!(pre.is_none(), "the naive oracle records per-step products");
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
            let mut out = match pre {
                Some((Rows(p), row)) => {
                    let pv = self.values[p.0].as_ref().expect("a stacked product has a value");
                    let mut out = Matrix::col(pv.data[row * pv.cols..(row + 1) * pv.cols].to_vec());
                    wm.matvec_acc(self.value(store, x), &mut out);
                    out
                }
                None => wm.matmul(self.value(store, x)),
            };
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
        let (pre, w2x2) = (pre.map(|(p, row)| (p.0, row)), w2x2.map(|(w2, x2)| (w2.0, x2)));
        self.push(Some(out), Op::Affine { pre, w: w.0, x, w2x2, b: b.map(|b| b.0) })
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

    /// Reverse pass from a scalar loss node, consuming the tape. Returns
    /// the parameter gradients as a dense [`GradSet`] (caller
    /// merges/folds them).
    pub fn backward(mut self, store: &ParamStore, loss: T) -> GradSet {
        let n = self.values.len();
        nv_trace::count("nn.tape.nodes", n as u64);
        let mut gs = GradSet::for_store(store);
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        let mut rows_seen = RowsSeen::default();
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
                    match &mut grads[src.0] {
                        // Adding `0.0` outside the slice, as adding a
                        // zero-padded column would, turns a `-0.0` there
                        // into `+0.0`.
                        Some(ds) => {
                            let (head, rest) = ds.data.split_at_mut(start);
                            let (mid, tail) = rest.split_at_mut(g.rows);
                            head.iter_mut().chain(tail.iter_mut()).for_each(|d| *d += 0.0);
                            mid.iter_mut().zip(&g.data).for_each(|(d, g)| *d += g);
                        }
                        slot => {
                            let mut ds = Matrix::zeros(self.value(store, src).rows, 1);
                            ds.data[start..start + g.rows].copy_from_slice(&g.data);
                            *slot = Some(ds);
                        }
                    }
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
                    let y = self.values[i].as_ref().unwrap();
                    acc(&mut grads, *a, Matrix::col(softmax_grad(&y.data, &g.data).collect()));
                }
                Op::SoftmaxRow { src, row } => {
                    let y = self.values[i].take().unwrap();
                    let dz = softmax_grad(&y.data, &g.data);
                    rows_seen.acc(&mut self.values, &mut grads, *src, *row, dz);
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
                Op::Affine { pre, w, x, w2x2, b } => {
                    for (w, x) in std::iter::once((*w, *x)).chain(*w2x2) {
                        entry(&mut gs, store, w).rank1_acc(&g, self.value(store, x));
                        let dx = self.k_matmul_tn(&store.mats[w], &g);
                        acc(&mut grads, x, dx);
                    }
                    if let Some(b) = *b {
                        entry(&mut gs, store, b).add_assign(&g);
                    }
                    if let Some((p, row)) = *pre {
                        rows_seen.acc(&mut self.values, &mut grads, p, row, g.data.iter().copied());
                    }
                }
                // The per-step affine arm above, once for all steps: row
                // `t` of `g` is step `t`'s output gradient. The weight
                // gradient adds its terms last step first, the order the
                // per-step nodes are visited in; each input gradient is
                // its step's `Wᵀ·g_t`; the bias adds `g_t` in the same
                // step order.
                Op::Project { w, xs, x, b } => {
                    rows_seen.assert_all(i, g.rows);
                    let wm = &store.mats[*w];
                    entry(&mut gs, store, *w).rank_acc(&g, x);
                    let dx = g.matmul(wm);
                    for (t, &xt) in xs.iter().enumerate().rev() {
                        let dxt = dx.data[t * dx.cols..(t + 1) * dx.cols].to_vec();
                        acc(&mut grads, xt, Matrix::col(dxt));
                    }
                    if let Some(b) = *b {
                        let e = entry(&mut gs, store, b);
                        for gt in g.data.chunks_exact(g.cols).rev() {
                            for (e, &gv) in e.data.iter_mut().zip(gt) {
                                *e += gv;
                            }
                        }
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

/// The softmax of `x` as a column: `exp(x − max)`, normalized by the
/// in-order sum.
fn softmax(x: &[f32]) -> Matrix {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out = Matrix::zeros(x.len(), 1);
    let mut sum = 0.0f32;
    for (o, &x) in out.data.iter_mut().zip(x) {
        let e = (x - max).exp();
        *o = e;
        sum += e;
    }
    for o in &mut out.data {
        *o /= sum;
    }
    out
}

/// Softmax backward: `y ⊙ (g − ⟨g, y⟩)` for the softmax output `y` and
/// its gradient `g`.
fn softmax_grad<'a>(y: &'a [f32], g: &'a [f32]) -> impl Iterator<Item = f32> + 'a {
    let dot: f32 = g.iter().zip(y).map(|(x, s)| x * s).sum();
    y.iter().zip(g).map(move |(s, x)| s * (x - dot))
}

/// The rows of stacked products that have received a gradient so far in
/// one backward pass, per stacked node.
#[derive(Default)]
struct RowsSeen(Vec<(usize, Vec<bool>)>);

impl RowsSeen {
    /// [`acc`] for row `row` of the stacked node `src`: the row's first
    /// gradient is moved in, later ones are added. The gradient's buffer
    /// is `src`'s own value, taken over on the first row written — only
    /// its row readers' forward reads a stacked value, so backward never
    /// needs it again.
    fn acc(
        &mut self,
        values: &mut [Option<Matrix>],
        grads: &mut [Option<Matrix>],
        src: T,
        row: usize,
        g: impl Iterator<Item = f32>,
    ) {
        let buf = grads[src.0].get_or_insert_with(|| {
            values[src.0].take().expect("a stacked product's value is taken once")
        });
        let seen = match self.0.iter().position(|(node, _)| *node == src.0) {
            Some(p) => &mut self.0[p].1,
            None => {
                self.0.push((src.0, vec![false; buf.rows]));
                &mut self.0.last_mut().expect("just pushed").1
            }
        };
        let dst = &mut buf.data[row * buf.cols..(row + 1) * buf.cols];
        if std::mem::replace(&mut seen[row], true) {
            dst.iter_mut().zip(g).for_each(|(d, g)| *d += g);
        } else {
            dst.iter_mut().zip(g).for_each(|(d, g)| *d = g);
        }
    }

    /// Panic unless every one of the `rows` rows of stacked node `node`
    /// received a gradient: a row left out would read as a zero step that
    /// the per-step graph never visits.
    fn assert_all(&self, node: usize, rows: usize) {
        let flags = self.0.iter().find(|(n, _)| *n == node).map(|(_, s)| s);
        let seen = flags.map_or(0, |s| s.iter().filter(|&&s| s).count());
        assert_eq!(seen, rows, "every row of a stacked product must receive a gradient");
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
