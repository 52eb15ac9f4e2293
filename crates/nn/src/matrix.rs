//! A dense f32 matrix — the storage type of the neural substrate — with
//! matvec and outer-product kernels sized for seq2seq-scale models.
//!
//! ## The fixed reduction order
//!
//! Every kernel reduces along the shared dimension in [`dot`]'s order: a
//! 4-lane split accumulation (element `4c + j` of the full chunks of 4 goes
//! to lane `j`, multiply then add, no FMA), lanes summed `((0+1)+2)+3`, then
//! a sequential tail. This is the crate's **canonical reduction order**,
//! and it lives in one function, `dot_rows`, of which [`dot`] is the
//! one-row case. The fast kernels change *memory access* — four rows at a
//! time, row-streamed lanes — but never the per-element summation order, so
//! they are **bit-identical** to the straightforward reference kernels in
//! [`reference`](mod@reference), which reduce with the same `dot` over
//! explicitly gathered rows. `tests/train_determinism.rs` holds whole
//! training runs to this equality, and the unit tests below hold every
//! kernel to it shape-by-shape, bit for bit.
//!
//! rustc does not vectorize the four lanes on its own at the default
//! x86-64 target (it emits one scalar `mulss`/`addss` per lane), so on
//! x86-64 the lanes are one SSE2 vector per row, written with
//! `std::arch`. SSE2 is part of the x86-64 baseline, so this needs no
//! runtime detection and no `target-cpu` flag; other targets run the same
//! lanes as a scalar loop.
//!
//! ## Kernel shapes that matter
//!
//! Every model op is a matvec, a transposed matvec or an outer product
//! (column-vector activations), and each has exactly one fast kernel:
//!
//! * `W·x` (`matmul` with one column, and `matvec_acc`) reduces four
//!   weight rows at a time (`dot_rows::<4>`: four independent lane
//!   vectors, each in [`dot`]'s exact order, sharing each load of `x`).
//! * `Wᵀ·g` (`matmul_tn` with one column, backward's input gradient)
//!   streams `W` row by row: each output keeps [`dot`]'s four lanes as
//!   separate accumulator vectors, so the inner loop runs along a
//!   contiguous row while each output still sees `dot`'s exact summation
//!   order. Lanes 1–3 live in a thread-local scratch, so it never
//!   allocates per call.
//! * `g·xᵀ` (`matmul_nt` with a shared dimension of 1, and
//!   [`Matrix::rank1_acc`], the weight-gradient update) is one
//!   `out[i][j] += g[i]·x[j]` loop.
//!
//! No model op multiplies by a matrix of more than one column, so every
//! other shape returns the [`reference`](mod@reference) kernel's result.
//! Every product returns a freshly allocated matrix.

use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;

/// Dot product in the canonical fixed reduction order (4 lanes over chunks
/// of 4, lanes summed in index order, sequential tail): the one-row case of
/// `dot_rows`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length");
    dot_rows::<1>(a, b)[0]
}

/// `N` [`dot`]s at once: entry `r` is row `r` of the `N` contiguous
/// length-`k` rows in `rows` (`k = x.len()`) against the shared column `x`.
/// Each row gets its own four lane accumulators over the full chunks of 4
/// (`lane_sums`), which are summed `((0+1)+2)+3`; the `k % 4` tail elements
/// are then added in order. With `N = 4` the four rows' accumulator chains
/// are independent, so the adds of one row no longer wait on the adds
/// before them, and each chunk of `x` is loaded once for four rows.
#[inline(always)]
fn dot_rows<const N: usize>(rows: &[f32], x: &[f32]) -> [f32; N] {
    let k = x.len();
    let mut s = lane_sums::<N>(rows, x).map(|l| l[0] + l[1] + l[2] + l[3]);
    for i in k / 4 * 4..k {
        for (r, s) in s.iter_mut().enumerate() {
            *s += rows[r * k + i] * x[i];
        }
    }
    s
}

/// The lane accumulators of `dot_rows`: for each of the `N` rows, lane `j`
/// is `Σ_c row[4c + j]·x[4c + j]` over the full chunks `c`, accumulated
/// in chunk order from `0.0`. Each row's four lanes are one SSE2 vector,
/// updated by one `mulps` and one `addps` per chunk — per lane the same
/// multiply-then-add as the scalar `lane[j] += row[4c + j] * x[4c + j]`,
/// so the bits match it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_sums<const N: usize>(rows: &[f32], x: &[f32]) -> [[f32; 4]; N] {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps};
    let k = x.len();
    assert_eq!(rows.len(), N * k, "dot_rows: {N} rows of {k}");
    let mut out = [[0.0f32; 4]; N];
    // SAFETY: SSE2 is part of the x86-64 baseline, so the intrinsics exist
    // on every x86-64 CPU. With `c < k / 4`, each load reads the four
    // floats `[4c, 4c + 4)` of `x`, inside `x` since `4c + 4 <= k`, or
    // `[r·k + 4c, r·k + 4c + 4)` of `rows` with `r < N`, which ends at or
    // before `r·k + k <= N·k = rows.len()` (asserted above). `loadu` and
    // `storeu` need no alignment, and each store writes one whole
    // `[f32; 4]`.
    unsafe {
        let mut acc = [_mm_setzero_ps(); N];
        for c in 0..k / 4 {
            let xv = _mm_loadu_ps(x.as_ptr().add(4 * c));
            for (r, acc) in acc.iter_mut().enumerate() {
                let rv = _mm_loadu_ps(rows.as_ptr().add(r * k + 4 * c));
                *acc = _mm_add_ps(*acc, _mm_mul_ps(rv, xv));
            }
        }
        for (o, acc) in out.iter_mut().zip(acc) {
            _mm_storeu_ps(o.as_mut_ptr(), acc);
        }
    }
    out
}

/// The lane accumulators of `dot_rows` as a scalar loop, for targets
/// without the x86-64 SSE2 baseline.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn lane_sums<const N: usize>(rows: &[f32], x: &[f32]) -> [[f32; 4]; N] {
    let k = x.len();
    assert_eq!(rows.len(), N * k, "dot_rows: {N} rows of {k}");
    let mut acc = [[0.0f32; 4]; N];
    for (c, xv) in x.chunks_exact(4).enumerate() {
        for (r, acc) in acc.iter_mut().enumerate() {
            let rv = &rows[r * k + 4 * c..][..4];
            acc[0] += rv[0] * xv[0];
            acc[1] += rv[1] * xv[1];
            acc[2] += rv[2] * xv[2];
            acc[3] += rv[3] * xv[3];
        }
    }
    acc
}

/// The matvec sweep shared by [`Matrix::matmul`] and
/// [`Matrix::matvec_acc`]: `emit(&mut out[i], dot(w_row_i, x))` for every
/// row of the row-major `w` (row length `x.len()`). Full blocks of four
/// rows go through `dot_rows::<4>`; the `rows % 4` remainder rows call
/// [`dot`].
#[inline]
fn matvec_rows(w: &[f32], x: &[f32], out: &mut [f32], emit: impl Fn(&mut f32, f32)) {
    let k = x.len();
    let full = out.len() / 4 * 4;
    for (i, o) in out[..full].chunks_exact_mut(4).enumerate() {
        let d = dot_rows::<4>(&w[4 * i * k..4 * (i + 1) * k], x);
        for (o, d) in o.iter_mut().zip(d) {
            emit(o, d);
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(full) {
        emit(o, dot(&w[i * k..(i + 1) * k], x));
    }
}

/// The transposed matvec `out = wᵀ·g` for a row-major `w` of `g.len()`
/// rows and `out.len()` columns, streaming `w` row by row. Output `i` is
/// [`dot`]`(column_i, g)` with `dot`'s exact lane assignment and summation
/// order, computed for every `i` at once: row `r` of each full block of
/// four adds `w[r][i]·g[r]` into lane `r mod 4` (`out` is lane 0,
/// `lanes` holds lanes 1–3), the lanes are summed `((0+1)+2)+3`, and the
/// tail rows are added in order. So the result is bit-identical to
/// gathering each column and calling `dot`, but every load of `w` is
/// contiguous and the inner loops run along a row, where they vectorize.
#[inline]
fn matvec_tn_rows(w: &[f32], g: &[f32], out: &mut [f32], lanes: &mut Vec<f32>) {
    let m = out.len();
    let full = g.len() / 4 * 4;
    lanes.clear();
    lanes.resize(3 * m, 0.0);
    let (l1, rest) = lanes.split_at_mut(m);
    let (l2, l3) = rest.split_at_mut(m);
    let (l0, l1, l2, l3) = (&mut out[..m], &mut l1[..m], &mut l2[..m], &mut l3[..m]);
    l0.fill(0.0);
    for c in 0..full / 4 {
        let (rows, g) = (&w[4 * c * m..4 * (c + 1) * m], &g[4 * c..4 * c + 4]);
        let (w0, w1) = (&rows[..m], &rows[m..2 * m]);
        let (w2, w3) = (&rows[2 * m..3 * m], &rows[3 * m..4 * m]);
        for i in 0..m {
            l0[i] += w0[i] * g[0];
            l1[i] += w1[i] * g[1];
            l2[i] += w2[i] * g[2];
            l3[i] += w3[i] * g[3];
        }
    }
    for i in 0..m {
        l0[i] = l0[i] + l1[i] + l2[i] + l3[i];
    }
    for r in full..g.len() {
        let (row, gr) = (&w[r * m..(r + 1) * m], g[r]);
        for (o, &wv) in l0.iter_mut().zip(row) {
            *o += wv * gr;
        }
    }
}

/// The outer product `out[i][j] += g[i]·x[j]` over the row-major `out`
/// (row length `x.len()`) — the one loop behind [`Matrix::rank1_acc`] and
/// `matmul_nt`'s shared-dimension-1 case.
#[inline]
fn outer_acc(out: &mut [f32], g: &[f32], x: &[f32]) {
    for (row, &gi) in out.chunks_exact_mut(x.len()).zip(g) {
        for (o, &xv) in row.iter_mut().zip(x) {
            *o += gi * xv;
        }
    }
}

thread_local! {
    /// Per-thread scratch for the `Wᵀ·g` matvec's lanes 1–3.
    static LANES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Count one GEMM's multiply-adds (2 flops each) when tracing is armed.
#[inline]
fn trace_flops(m: usize, k: usize, n: usize) {
    nv_trace::count("nn.gemm.flops", 2 * (m * k * n) as u64);
}

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Column vector.
    pub fn col(data: Vec<f32>) -> Matrix {
        let rows = data.len();
        Matrix { rows, cols: 1, data }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    pub fn same_shape(&self, other: &Matrix) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    /// `self × other`. The matrix-×-column-vector case (the seq2seq hot
    /// path) takes the four-row `dot_rows` matvec path; any other shape returns
    /// [`reference::matmul`]'s result.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        trace_flops(self.rows, self.cols, other.cols);
        if other.cols != 1 {
            return reference::matmul(self, other);
        }
        let mut out = Matrix::zeros(self.rows, 1);
        matvec_rows(&self.data, &other.data, &mut out.data, |o, d| *o = d);
        out
    }

    /// `selfᵀ × other` — the `Wᵀ g` backprop kernel. The matvec case
    /// streams `self` row by row through `matvec_tn_rows` (four lane
    /// accumulators per output in the thread-local scratch, no transpose);
    /// any other shape returns [`reference::matmul_tn`]'s result.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape");
        trace_flops(self.cols, self.rows, other.cols);
        if other.cols != 1 {
            return reference::matmul_tn(self, other);
        }
        let mut out = Matrix::zeros(self.cols, 1);
        LANES.with(|l| matvec_tn_rows(&self.data, &other.data, &mut out.data, &mut l.borrow_mut()));
        out
    }

    /// `self × otherᵀ`. The shared-dimension-1 case (`g xᵀ`, an outer
    /// product) accumulates onto zeros, computing `0.0 + g_i·x_j` exactly
    /// as [`dot`] does for one element (so a `-0.0` product comes out
    /// `+0.0`); any other shape returns [`reference::matmul_nt`]'s result.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape");
        trace_flops(self.rows, self.cols, other.rows);
        if self.cols != 1 {
            return reference::matmul_nt(self, other);
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        outer_acc(&mut out.data, &self.data, &other.data);
        out
    }

    /// `self += g · xᵀ` — the weight-gradient outer product accumulated in
    /// place. Each element performs the single `+= g_i·x_j` addition the
    /// unfused path performs after materializing the product, so the bits
    /// match.
    pub fn rank1_acc(&mut self, g: &Matrix, x: &Matrix) {
        debug_assert!(g.data.len() == self.rows && x.data.len() == self.cols);
        nv_trace::count("nn.rank1.flops", 2 * (self.rows * self.cols) as u64);
        outer_acc(&mut self.data, &g.data, &x.data);
    }

    /// `out[i] += Σ_k self[i][k] · x[k]` — accumulating matvec for the
    /// fused affine ops. Each row's product is a full fixed-order [`dot`]
    /// (four rows at a time through `dot_rows`) added to the existing value,
    /// mirroring what a `Matmul` node followed by an `Add` node computes
    /// element-by-element.
    pub fn matvec_acc(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, x.rows, "matvec_acc shape");
        assert_eq!(x.cols, 1);
        debug_assert!(out.rows == self.rows && out.cols == 1);
        trace_flops(self.rows, self.cols, 1);
        matvec_rows(&self.data, &x.data, &mut out.data[..self.rows], |o, d| *o += d);
    }

    pub fn add_assign(&mut self, other: &Matrix) {
        assert!(self.same_shape(other));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Naive reference kernels — the differential oracle for the fast kernels
/// above: a slow, obviously correct twin kept callable forever. They gather operand rows/columns
/// with plain loops and reduce with the same canonical [`dot`], so their
/// outputs are **bit-identical** to the fast kernels'; `KernelPolicy::
/// NaiveOracle` routes a whole training run through them.
pub mod reference {
    use super::{dot, Matrix};

    /// `a × b` by explicit column gather + fixed-order dot.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "matmul shape");
        let mut out = Matrix::zeros(a.rows, b.cols);
        let mut col = vec![0.0f32; b.rows];
        for j in 0..b.cols {
            for (k, c) in col.iter_mut().enumerate() {
                *c = b.at(k, j);
            }
            for i in 0..a.rows {
                *out.at_mut(i, j) = dot(&a.data[i * a.cols..(i + 1) * a.cols], &col);
            }
        }
        out
    }

    /// `aᵀ × b` by explicit row gather + fixed-order dot.
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "matmul_tn shape");
        let mut out = Matrix::zeros(a.cols, b.cols);
        let mut arow = vec![0.0f32; a.rows];
        let mut bcol = vec![0.0f32; b.rows];
        for i in 0..a.cols {
            for (k, r) in arow.iter_mut().enumerate() {
                *r = a.at(k, i);
            }
            for j in 0..b.cols {
                for (k, c) in bcol.iter_mut().enumerate() {
                    *c = b.at(k, j);
                }
                *out.at_mut(i, j) = dot(&arow, &bcol);
            }
        }
        out
    }

    /// `a × bᵀ` by fixed-order dot over the already-contiguous rows.
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols, "matmul_nt shape");
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                *out.at_mut(i, j) = dot(
                    &a.data[i * a.cols..(i + 1) * a.cols],
                    &b.data[j * b.cols..(j + 1) * b.cols],
                );
            }
        }
        out
    }

    /// `out += a × x` (column vector), gather-free: rows are contiguous.
    pub fn matvec_acc(a: &Matrix, x: &Matrix, out: &mut Matrix) {
        assert_eq!(a.cols, x.rows, "matvec shape");
        for i in 0..a.rows {
            out.data[i] += dot(&a.data[i * a.cols..(i + 1) * a.cols], &x.data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rand_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::xavier(rows.max(1), cols.max(1), rng)
    }

    /// Like [`rand_mat`], but about a third of the entries are `+0.0` or
    /// `-0.0`, so products of either sign of zero occur: `f32 ==` cannot
    /// tell those apart, only a bit comparison can.
    fn signed_zero_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut m = rand_mat(rows, cols, rng);
        for x in &mut m.data {
            match rng.random_range(0..6) {
                0 => *x = 0.0,
                1 => *x = -0.0,
                _ => {}
            }
        }
        m
    }

    /// Matvec `(rows, k)` shapes for the four-row micro-kernel: full
    /// blocks, 1–3 remainder rows and every `k % 4` tail, then the model's
    /// own weight shapes at `Seq2VisConfig::tiny` (e 24, h 32) and
    /// `Seq2VisConfig::new` (e 48, h 64) sizes — 4h×e and 4h×h LSTM gates,
    /// h×2h bridges, 2h×h attention, vocab×h and vocab×3h output
    /// projections, and the 1×(3h+e) copy gate — with an odd vocab.
    fn matvec_shapes() -> Vec<(usize, usize)> {
        let mut shapes = vec![];
        for rows in [4, 5, 6, 7, 8, 13] {
            for k in [1, 3, 4, 5, 24, 97] {
                shapes.push((rows, k));
            }
        }
        const VOCAB: usize = 1_031;
        for (e, h) in [(24, 32), (48, 64)] {
            shapes.extend([
                (4 * h, e),
                (4 * h, h),
                (h, 2 * h),
                (2 * h, h),
                (VOCAB, h),
                (VOCAB, 3 * h),
                (1, 3 * h + e),
            ]);
        }
        shapes
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    /// The fast kernels must be bit-identical to the reference kernels on
    /// every shape class (vector, outer product, general, ragged-edge) and
    /// for operands holding either sign of zero — this is the invariant
    /// that makes the NaiveOracle training path exact.
    #[test]
    fn blocked_kernels_match_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let shapes = [
            (1, 1, 1),
            (3, 5, 1),
            (8, 8, 8),
            (8, 16, 8),
            (9, 13, 7),
            (17, 33, 19),
            (64, 48, 24),
            (5, 1, 9),
            (3, 1, 4),
            (5, 1, 1),
        ];
        let matvecs = matvec_shapes().into_iter().map(|(m, k)| (m, k, 1));
        let draws: [fn(usize, usize, &mut StdRng) -> Matrix; 2] = [rand_mat, signed_zero_mat];
        for draw in draws {
            for (m, k, n) in shapes.into_iter().chain(matvecs.clone()) {
                let a = draw(m, k, &mut rng);
                let b = draw(k, n, &mut rng);
                let fast = a.matmul(&b);
                let slow = reference::matmul(&a, &b);
                assert_eq!(bits(&fast), bits(&slow), "matmul {m}x{k}x{n}");

                let at = draw(k, m, &mut rng);
                let fast = at.matmul_tn(&b);
                let slow = reference::matmul_tn(&at, &b);
                assert_eq!(bits(&fast), bits(&slow), "matmul_tn {m}x{k}x{n}");

                let bt = draw(n, k, &mut rng);
                let fast = a.matmul_nt(&bt);
                let slow = reference::matmul_nt(&a, &bt);
                assert_eq!(bits(&fast), bits(&slow), "matmul_nt {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matvec_acc_accumulates_like_matmul_plus_add() {
        let mut rng = StdRng::seed_from_u64(12);
        for (rows, k) in [(13, 7)].into_iter().chain(matvec_shapes()) {
            let w = rand_mat(rows, k, &mut rng);
            let x = Matrix::col((0..k).map(|i| i as f32 * 0.3 - 1.0).collect());
            let base = Matrix::col((0..rows).map(|i| i as f32 * 0.1).collect());
            // Fused: out = base; out += w·x.
            let mut fused = base.clone();
            w.matvec_acc(&x, &mut fused);
            // Unfused: w·x then elementwise add — must be bit-identical.
            let mut unfused = w.matmul(&x);
            unfused.add_assign(&base);
            assert_eq!(bits(&fused), bits(&unfused), "{rows}x{k}");
            // And the reference twin agrees too.
            let mut reference = base.clone();
            reference::matvec_acc(&w, &x, &mut reference);
            assert_eq!(bits(&fused), bits(&reference), "{rows}x{k}");
        }
    }

    /// [`dot`] as a plain scalar loop, one lane update per element: the
    /// specification the vector lane body is held to.
    fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 4];
        for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
            for (lane, (x, y)) in acc.iter_mut().zip(ca.iter().zip(cb)) {
                *lane += x * y;
            }
        }
        let mut s = acc[0] + acc[1] + acc[2] + acc[3];
        let tail = a.len() / 4 * 4;
        for (x, y) in a[tail..].iter().zip(&b[tail..]) {
            s += x * y;
        }
        s
    }

    /// Entries that stress bit-level equality: `±0.0`, `±inf`, subnormals
    /// and magnitudes whose products overflow, mixed with ordinary values,
    /// so signed-zero sums, gradual underflow, overflow to `inf` and
    /// `inf - inf = NaN` all occur.
    fn hostile(rng: &mut StdRng) -> f32 {
        let v = match rng.random_range(0..16) {
            0..=2 => 0.0,
            3..=5 => f32::from_bits(rng.random_range(1..0x0080_0000u32)),
            6..=8 => rng.random_range(1e15f32..1e25),
            9 => f32::INFINITY,
            _ => rng.random_range(0.0f32..2.0),
        };
        if rng.random_range(0..2) == 0 {
            v
        } else {
            -v
        }
    }

    fn ordinary(rng: &mut StdRng) -> f32 {
        rng.random_range(-1.0f32..1.0)
    }

    /// The vector lane body against [`scalar_dot`], bit for bit, through
    /// all three ways into it — [`dot`], the `matmul` matvec and
    /// `matvec_acc` — for every `k` from 0 to 17 (each `k % 4` tail, with
    /// and without full chunks) and 1–8 rows (each `rows % 4` remainder,
    /// with and without a four-row block), then the model's shapes.
    #[test]
    fn lane_body_matches_scalar_dot_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let small = (1..=8).flat_map(|rows| (0..=17).map(move |k| (rows, k)));
        let draws: [fn(&mut StdRng) -> f32; 2] = [ordinary, hostile];
        for draw in draws {
            for (rows, k) in small.clone().chain(matvec_shapes()) {
                let mut mat = |r: usize, c: usize| {
                    Matrix::from_vec(r, c, (0..r * c).map(|_| draw(&mut rng)).collect())
                };
                let (w, x, base) = (mat(rows, k), mat(k, 1), mat(rows, 1));
                let row = |i: usize| &w.data[i * k..(i + 1) * k];
                let want: Vec<f32> = (0..rows).map(|i| scalar_dot(row(i), &x.data)).collect();
                let want_bits: Vec<u32> = want.iter().map(|d| d.to_bits()).collect();
                let dots: Vec<u32> = (0..rows).map(|i| dot(row(i), &x.data).to_bits()).collect();
                assert_eq!(dots, want_bits, "dot {rows}x{k}");
                assert_eq!(bits(&w.matmul(&x)), want_bits, "matmul {rows}x{k}");
                let mut acc = base.clone();
                w.matvec_acc(&x, &mut acc);
                let want_acc: Vec<u32> =
                    base.data.iter().zip(&want).map(|(b, d)| (b + d).to_bits()).collect();
                assert_eq!(bits(&acc), want_acc, "matvec_acc {rows}x{k}");
            }
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(4, 3, &mut rng);
        let b = Matrix::xavier(4, 2, &mut rng);
        let tn = a.matmul_tn(&b);
        // Manual transpose.
        let mut at = Matrix::zeros(3, 4);
        for i in 0..4 {
            for j in 0..3 {
                *at.at_mut(j, i) = a.at(i, j);
            }
        }
        let expect = at.matmul(&b);
        for (x, y) in tn.data.iter().zip(&expect.data) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_nt_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::xavier(3, 5, &mut rng);
        let b = Matrix::xavier(2, 5, &mut rng);
        let nt = a.matmul_nt(&b);
        assert_eq!((nt.rows, nt.cols), (3, 2));
        for i in 0..3 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..5 {
                    s += a.at(i, k) * b.at(j, k);
                }
                assert!((nt.at(i, j) - s).abs() < 1e-6);
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    /// Outputs narrower than a vector and shared dimensions below, at and
    /// just past one four-row block (so a lone tail row, no full block, and
    /// a full block plus a tail all occur).
    #[test]
    fn transposed_matvec_small_shapes_match_reference() {
        let mut rng = StdRng::seed_from_u64(15);
        for m in [1, 2, 3] {
            for k in [1, 2, 3, 5] {
                let w = rand_mat(k, m, &mut rng);
                let g = rand_mat(k, 1, &mut rng);
                let fast = w.matmul_tn(&g);
                assert_eq!((fast.rows, fast.cols), (m, 1));
                assert_eq!(bits(&fast), bits(&reference::matmul_tn(&w, &g)), "{k}x{m}");
            }
        }
    }

    /// The transposed matvec keeps its lanes in a thread-local scratch:
    /// lanes of a different size, or anything an `n > 1` call between two
    /// matvecs leaves behind, must never leak into a later one.
    #[test]
    fn transposed_matvec_reuses_pack_scratch_exactly() {
        let mut rng = StdRng::seed_from_u64(16);
        let big = (rand_mat(37, 29, &mut rng), rand_mat(37, 1, &mut rng));
        let small = (rand_mat(7, 3, &mut rng), rand_mat(7, 1, &mut rng));
        let (a, b) = (rand_mat(12, 10, &mut rng), rand_mat(10, 9, &mut rng));
        let c = rand_mat(12, 9, &mut rng);
        let matvec = |(w, g): &(Matrix, Matrix)| {
            assert_eq!(bits(&w.matmul_tn(g)), bits(&reference::matmul_tn(w, g)));
        };
        matvec(&big);
        assert_eq!(bits(&a.matmul(&b)), bits(&reference::matmul(&a, &b)));
        assert_eq!(bits(&a.matmul_tn(&c)), bits(&reference::matmul_tn(&a, &c)));
        matvec(&small);
        assert_eq!(bits(&a.matmul_tn(&c)), bits(&reference::matmul_tn(&a, &c)));
        matvec(&big);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::xavier(10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(m.data.iter().all(|x| x.abs() <= bound));
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn basic_ops() {
        let mut a = Matrix::col(vec![1.0, 2.0]);
        let b = Matrix::col(vec![3.0, 4.0]);
        a.add_assign(&b);
        assert_eq!(a.data, vec![4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.data, vec![2.0, 3.0]);
    }
}
