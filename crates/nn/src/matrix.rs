//! A dense f32 matrix — the storage type of the neural substrate — with
//! matvec, stacked-product and outer-product kernels sized for
//! seq2seq-scale models.
//!
//! ## The fixed reduction order
//!
//! Every kernel reduces along the shared dimension in [`dot`]'s order: a
//! 4-lane split accumulation (element `4c + j` of the full chunks of 4 goes
//! to lane `j`, multiply then add, no FMA), lanes summed `((0+1)+2)+3`, then
//! a sequential tail. This is the crate's **canonical reduction order**.
//! The fast kernels change *memory access* — register tiles, row-streamed
//! lanes — but never the per-element summation order, so they are
//! **bit-identical** to the straightforward reference kernels in
//! [`reference`](mod@reference), which reduce with the same `dot` over
//! explicitly gathered rows. Weight gradients are not reductions in `dot`'s
//! order but sums of outer products, one term at a time in a given order
//! ([`Matrix::rank_acc`]). `tests/train_determinism.rs` holds whole
//! training runs to this equality, and the unit tests below hold every
//! kernel to it shape-by-shape, bit for bit.
//!
//! rustc does not vectorize the four lanes on its own at the default
//! x86-64 target (it emits one scalar `mulss`/`addss` per lane), so on
//! x86-64 the tiles are SSE2 vectors, written with `std::arch`. SSE2 is
//! part of the x86-64 baseline, so this needs no runtime detection and no
//! `target-cpu` flag; other targets run the same tiles as scalar loops.
//!
//! ## One kernel per product
//!
//! The model's products come one vector at a time (a decoding step, the
//! recurrent `W_hh·h`, attention) or as a stack of vectors, one per
//! timestep (the time-batched projections of `seq2seq.rs`). A stack is
//! kept as the rows of a matrix, so every vector is contiguous and a
//! product over `T` steps is one call. Each product has one kernel:
//!
//! * `W·x` (`matmul` with one column, and `matvec_acc`) reduces four
//!   weight rows at a time (`matvec_rows`, `dot_rows::<4, 1>`: four
//!   independent lane vectors, each in [`dot`]'s exact order, sharing
//!   each load of `x`).
//! * The stacked forward `Xᵀ·Wᵀ` (`matmul_nt` with a shared dimension
//!   above 1) is `dots_nt`: `out[t][i] = dot(x_t, w_i)`, a tile of four
//!   rows of `W` against two stacked vectors (`dot_rows::<4, 2>`: eight
//!   lane vectors), so each load of `W` serves two steps and each load of
//!   `x` four rows. Blocks of `W` are the outer loop, so a stacked call
//!   streams `W` from memory once, not once per step.
//! * The stacked input gradients `Gᵀ·W` (`matmul` with more than one
//!   column) are `dots_tn`: `out[t][j] = dot(g_t, w[:, j])`, walking down
//!   the rows of `W` with a tile of four columns against two stacked
//!   gradients, each output's four lanes in separate register vectors.
//! * A single `Wᵀ·g` (`matmul_tn` with one column) streams `W` row by row
//!   (`matvec_tn_rows`): each output keeps [`dot`]'s four lanes as
//!   separate accumulator vectors, so the inner loop runs along a
//!   contiguous row while each output still sees `dot`'s exact summation
//!   order. Lanes 1–3 live in a thread-local scratch, so it never
//!   allocates per call.
//! * Weight gradients are sums of outer products: one step's `g·xᵀ`
//!   ([`Matrix::rank1_acc`], and `matmul_nt`'s shared-dimension-1 case
//!   onto zeros) is one `out[i][j] += g[i]·x[j]` loop (`outer_acc`); the
//!   `T` steps of a stack ([`Matrix::rank_acc`]) are `rank_acc`, which
//!   keeps a tile of four rows by eight columns of `out` in registers for
//!   every term, so the gradient is read and written once per call.
//!
//! `matmul_tn` with more than one column is no model product; it returns
//! the [`reference`](mod@reference) kernel's result. Every product
//! returns a freshly allocated matrix.

use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;

/// Dot product in the canonical fixed reduction order (4 lanes over chunks
/// of 4, lanes summed in index order, sequential tail): the one-row,
/// one-vector case of `dot_rows`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length");
    dot_rows::<1, 1>(a, b)[0][0]
}

/// `N × M` [`dot`]s at once: entry `[q][r]` is row `r` of the `N`
/// contiguous length-`k` rows in `rows` against row `q` of the `M`
/// contiguous length-`k` vectors in `xs` (`k = xs.len() / M`). Each pair
/// gets its own four lane accumulators over the full chunks of 4
/// (`lane_sums`), which are summed `((0+1)+2)+3`; the `k % 4` tail
/// elements are then added in order. The `N·M` accumulator chains are
/// independent, so the adds of one output never wait on another's, and
/// each chunk load serves `M` vectors (a row) or `N` rows (a vector).
#[inline(always)]
fn dot_rows<const N: usize, const M: usize>(rows: &[f32], xs: &[f32]) -> [[f32; N]; M] {
    let k = xs.len() / M;
    let mut s = lane_sums::<N, M>(rows, xs).map(|q| q.map(|l| l[0] + l[1] + l[2] + l[3]));
    for i in k / 4 * 4..k {
        for (q, s) in s.iter_mut().enumerate() {
            for (r, s) in s.iter_mut().enumerate() {
                *s += rows[r * k + i] * xs[q * k + i];
            }
        }
    }
    s
}

/// The lane accumulators of `dot_rows`: for each of the `M` vectors and
/// `N` rows, lane `j` is `Σ_c row[4c + j]·x[4c + j]` over the full chunks
/// `c`, accumulated in chunk order from `0.0`. Each pair's four lanes are
/// one SSE2 vector, updated by one `mulps` and one `addps` per chunk — per
/// lane the same multiply-then-add as the scalar
/// `lane[j] += row[4c + j] * x[4c + j]`, so the bits match it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_sums<const N: usize, const M: usize>(rows: &[f32], xs: &[f32]) -> [[[f32; 4]; N]; M] {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps};
    let k = xs.len() / M;
    assert!(rows.len() == N * k && xs.len() == M * k, "dot_rows: {N} rows, {M} vectors of {k}");
    let mut out = [[[0.0f32; 4]; N]; M];
    // SAFETY: SSE2 is part of the x86-64 baseline, so the intrinsics exist
    // on every x86-64 CPU. With `c < k / 4`, each load reads the four
    // floats `[q·k + 4c, q·k + 4c + 4)` of `xs` with `q < M`, or
    // `[r·k + 4c, r·k + 4c + 4)` of `rows` with `r < N`; both end at or
    // before `q·k + k <= M·k = xs.len()` and `r·k + k <= N·k = rows.len()`
    // (asserted above). `loadu` and `storeu` need no alignment, and each
    // store writes one whole `[f32; 4]`.
    unsafe {
        let mut acc = [[_mm_setzero_ps(); N]; M];
        for c in 0..k / 4 {
            let xv: [_; M] = std::array::from_fn(|q| _mm_loadu_ps(xs.as_ptr().add(q * k + 4 * c)));
            for r in 0..N {
                let rv = _mm_loadu_ps(rows.as_ptr().add(r * k + 4 * c));
                for (acc, &xv) in acc.iter_mut().zip(&xv) {
                    acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(rv, xv));
                }
            }
        }
        for (out, acc) in out.iter_mut().zip(acc) {
            for (o, acc) in out.iter_mut().zip(acc) {
                _mm_storeu_ps(o.as_mut_ptr(), acc);
            }
        }
    }
    out
}

/// The lane accumulators of `dot_rows` as a scalar loop, for targets
/// without the x86-64 SSE2 baseline.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn lane_sums<const N: usize, const M: usize>(rows: &[f32], xs: &[f32]) -> [[[f32; 4]; N]; M] {
    let k = xs.len() / M;
    assert!(rows.len() == N * k && xs.len() == M * k, "dot_rows: {N} rows, {M} vectors of {k}");
    let mut acc = [[[0.0f32; 4]; N]; M];
    for c in 0..k / 4 {
        for (q, acc) in acc.iter_mut().enumerate() {
            let xv = &xs[q * k + 4 * c..][..4];
            for (r, acc) in acc.iter_mut().enumerate() {
                let rv = &rows[r * k + 4 * c..][..4];
                for ((lane, &rv), &xv) in acc.iter_mut().zip(rv).zip(xv) {
                    *lane += rv * xv;
                }
            }
        }
    }
    acc
}

/// The matvec sweep shared by [`Matrix::matmul`] and
/// [`Matrix::matvec_acc`]: `emit(&mut out[i], dot(w_row_i, x))` for every
/// row of the row-major `w` (row length `x.len()`). Full blocks of four
/// rows go through `dot_rows::<4, 1>`; the `rows % 4` remainder rows call
/// [`dot`].
#[inline]
fn matvec_rows(w: &[f32], x: &[f32], out: &mut [f32], emit: impl Fn(&mut f32, f32)) {
    let k = x.len();
    let full = out.len() / 4 * 4;
    for (i, o) in out[..full].chunks_exact_mut(4).enumerate() {
        let [d] = dot_rows::<4, 1>(&w[4 * i * k..4 * (i + 1) * k], x);
        for (o, d) in o.iter_mut().zip(d) {
            emit(o, d);
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(full) {
        emit(o, dot(&w[i * k..(i + 1) * k], x));
    }
}

/// `out[t·nb + i] = dot(a_t, b_i)` for every row `a_t` of `a`
/// and every one of the `nb` rows `b_i` of `b`, all of length `k`
/// (`out.len() / nb` rows in `a`). Blocks of four `b` rows against pairs
/// of `a` rows go through `dot_rows::<4, 2>`; an odd last `a` row and the
/// `nb % 4` remainder rows take the narrower tiles.
fn dots_nt(a: &[f32], b: &[f32], k: usize, nb: usize, out: &mut [f32]) {
    if nb == 0 {
        return;
    }
    let na = out.len() / nb;
    assert!(a.len() == na * k && b.len() == nb * k && out.len() == na * nb, "dots_nt shape");
    let mut put = |t: usize, i: usize, n: usize, d: &[f32]| {
        for (q, d) in d.chunks_exact(n).enumerate() {
            out[(t + q) * nb + i..][..n].copy_from_slice(d);
        }
    };
    let (na2, nb4) = (na / 2 * 2, nb / 4 * 4);
    let row = |t: usize, rows: usize| &a[t * k..(t + rows) * k];
    for i in (0..nb4).step_by(4) {
        let bi = &b[i * k..(i + 4) * k];
        for t in (0..na2).step_by(2) {
            put(t, i, 4, dot_rows::<4, 2>(bi, row(t, 2)).as_flattened());
        }
        if na2 < na {
            put(na2, i, 4, dot_rows::<4, 1>(bi, row(na2, 1)).as_flattened());
        }
    }
    for i in nb4..nb {
        let bi = &b[i * k..(i + 1) * k];
        for t in (0..na2).step_by(2) {
            put(t, i, 1, dot_rows::<1, 2>(bi, row(t, 2)).as_flattened());
        }
        if na2 < na {
            put(na2, i, 1, dot_rows::<1, 1>(bi, row(na2, 1)).as_flattened());
        }
    }
}

/// `out[t·k + j] = dot(a_t, b[:, j])` for every row `a_t` of `a` and every
/// column `j` of the row-major `b` (`m × k`, `out.len() / k` rows in `a`,
/// each of length `m`): the transposed product, streaming `b` row by row
/// without transposing it. Four columns of `b` against pairs of `a` rows
/// go through `col_dots::<2>`; an odd last `a` row takes `col_dots::<1>`,
/// and the `k % 4` tail columns the scalar `col_dots_tail`.
fn dots_tn(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    if k == 0 {
        return;
    }
    let (na, m) = (out.len() / k, b.len() / k);
    assert!(a.len() == na * m && b.len() == m * k && out.len() == na * k, "dots_tn shape");
    let mut put = |t: usize, j: usize, w: usize, d: &[[f32; 4]]| {
        for (q, d) in d.iter().enumerate() {
            out[(t + q) * k + j..][..w].copy_from_slice(&d[..w]);
        }
    };
    let (na2, k4) = (na / 2 * 2, k / 4 * 4);
    let row = |t: usize, rows: usize| &a[t * m..(t + rows) * m];
    for j in (0..k4).step_by(4) {
        for t in (0..na2).step_by(2) {
            put(t, j, 4, &col_dots::<2>(row(t, 2), b, k, j));
        }
        if na2 < na {
            put(na2, j, 4, &col_dots::<1>(row(na2, 1), b, k, j));
        }
    }
    if k4 < k {
        for t in 0..na {
            put(t, k4, k - k4, &[col_dots_tail(row(t, 1), b, k, k4)]);
        }
    }
}

/// `[q][c] = dot(a_q, b[:, j + c])` for the `M` rows `a_q` of `a` (each of
/// length `m = a.len() / M`) and the four columns from `j` of the
/// row-major `b` (`m × k`). Lane `l` of an output gathers rows `4c + l` of
/// the full chunks, as in [`dot`]; each (row of `a`, lane) pair is one
/// SSE2 vector over the four columns, updated by one `mulps` and one
/// `addps` per row of `b`, and the lanes are summed `((0+1)+2)+3` before
/// the `m % 4` tail rows are added in order. Per column that is exactly
/// `dot`'s sequence of operations, so the bits match it.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn col_dots<const M: usize>(a: &[f32], b: &[f32], k: usize, j: usize) -> [[f32; 4]; M] {
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps,
    };
    let m = a.len() / M;
    assert!(a.len() == M * m && b.len() == m * k && j + 4 <= k, "col_dots shape");
    let full = m / 4 * 4;
    let mut out = [[0.0f32; 4]; M];
    // SAFETY: SSE2 is part of the x86-64 baseline, so the intrinsics exist
    // on every x86-64 CPU. Each load from `b` reads the four floats
    // `[r·k + j, r·k + j + 4)` with `r < m`; since `j + 4 <= k` it ends at
    // or before `r·k + k <= m·k = b.len()`. Each load from `a` reads
    // `[q·m + c, q·m + c + 4)` with `q < M` and `c + 4 <= full <= m`, so it
    // ends at or before `M·m = a.len()` (both asserted above). `loadu` and
    // `storeu` need no alignment, and each store writes one whole
    // `[f32; 4]`.
    unsafe {
        let col = |r: usize| _mm_loadu_ps(b.as_ptr().add(r * k + j));
        let mut acc: [[__m128; 4]; M] = [[_mm_setzero_ps(); 4]; M];
        for c in (0..full).step_by(4) {
            let av: [__m128; M] = std::array::from_fn(|q| _mm_loadu_ps(a.as_ptr().add(q * m + c)));
            let (b0, b1, b2, b3) = (col(c), col(c + 1), col(c + 2), col(c + 3));
            for (acc, &av) in acc.iter_mut().zip(&av) {
                acc[0] = _mm_add_ps(acc[0], _mm_mul_ps(b0, splat::<0x00>(av)));
                acc[1] = _mm_add_ps(acc[1], _mm_mul_ps(b1, splat::<0x55>(av)));
                acc[2] = _mm_add_ps(acc[2], _mm_mul_ps(b2, splat::<0xAA>(av)));
                acc[3] = _mm_add_ps(acc[3], _mm_mul_ps(b3, splat::<0xFF>(av)));
            }
        }
        for (q, (o, [l0, l1, l2, l3])) in out.iter_mut().zip(acc).enumerate() {
            let mut s = _mm_add_ps(_mm_add_ps(_mm_add_ps(l0, l1), l2), l3);
            for r in full..m {
                s = _mm_add_ps(s, _mm_mul_ps(col(r), _mm_set1_ps(a[q * m + r])));
            }
            _mm_storeu_ps(o.as_mut_ptr(), s);
        }
    }
    out
}

/// Lane `L / 0x55` of `v` in all four lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn splat<const L: i32>(v: std::arch::x86_64::__m128) -> std::arch::x86_64::__m128 {
    // SAFETY: SSE is part of the x86-64 baseline, so the intrinsic exists
    // on every x86-64 CPU; it touches no memory.
    unsafe { std::arch::x86_64::_mm_shuffle_ps::<L>(v, v) }
}

/// `col_dots` as a scalar loop, for targets without the x86-64 SSE2
/// baseline.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn col_dots<const M: usize>(a: &[f32], b: &[f32], k: usize, j: usize) -> [[f32; 4]; M] {
    let m = a.len() / M;
    std::array::from_fn(|q| col_dots_tail(&a[q * m..(q + 1) * m], b, k, j))
}

/// `[c] = dot(a, b[:, j + c])` for the columns from `j` to the end of the
/// row-major `b` (at most four; the rest of the result is zero), one
/// scalar lane update per element in [`dot`]'s order.
fn col_dots_tail(a: &[f32], b: &[f32], k: usize, j: usize) -> [f32; 4] {
    let m = a.len();
    let full = m / 4 * 4;
    let mut out = [0.0f32; 4];
    for (c, o) in out.iter_mut().enumerate().take(k.saturating_sub(j)) {
        let col = |r: usize| b[r * k + j + c];
        let mut lanes = [0.0f32; 4];
        for r in 0..full {
            lanes[r % 4] += col(r) * a[r];
        }
        *o = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for (r, &ar) in a.iter().enumerate().skip(full) {
            *o += col(r) * ar;
        }
    }
    out
}

/// `out[i][j] += g_t[i]·x_t[j]` over the row-major `out` (`m × k`), for the
/// rows `g_t` of `g` (`T × m`) and `x_t` of `x` (`T × k`) from the last `t`
/// to the first: one multiply and one add per term, each added onto the
/// running value. Tiles of four rows by eight columns (then four, then
/// single columns; then single rows) hold their part of `out` in
/// registers for every term.
fn rank_acc(out: &mut [f32], k: usize, g: &[f32], x: &[f32]) {
    if k == 0 {
        return;
    }
    let m = out.len() / k;
    let nt = x.len() / k;
    assert!(out.len() == m * k && g.len() == nt * m && x.len() == nt * k, "rank_acc shape");
    let (m4, k4, k8) = (m / 4 * 4, k / 4 * 4, k / 8 * 8);
    let mut tile_row = |i: usize, rows: usize| {
        for j in (0..k8).step_by(8) {
            match rows {
                4 => rank_tile::<4, 2>(out, k, i, j, g, x),
                _ => rank_tile::<1, 2>(out, k, i, j, g, x),
            }
        }
        if k8 < k4 {
            match rows {
                4 => rank_tile::<4, 1>(out, k, i, k8, g, x),
                _ => rank_tile::<1, 1>(out, k, i, k8, g, x),
            }
        }
    };
    for i in (0..m4).step_by(4) {
        tile_row(i, 4);
    }
    for i in m4..m {
        tile_row(i, 1);
    }
    for i in 0..m {
        for j in k4..k {
            let o = &mut out[i * k + j];
            for t in (0..nt).rev() {
                *o += g[t * m + i] * x[t * k + j];
            }
        }
    }
}

/// One `R × 4V` tile of `rank_acc` at row `i`, column `j`: the tile is
/// loaded once into `R·V` SSE2 vectors, each term adds `g_t[i + r]` times
/// four `x_t` values with one `mulps` and one `addps` (per lane the scalar
/// `o += g·x`, so the bits match it), and the tile is stored once.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn rank_tile<const R: usize, const V: usize>(
    out: &mut [f32],
    k: usize,
    i: usize,
    j: usize,
    g: &[f32],
    x: &[f32],
) {
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps,
    };
    let (m, nt) = (out.len() / k, x.len() / k);
    assert!(i + R <= m && j + 4 * V <= k && g.len() == nt * m && x.len() == nt * k, "rank_tile");
    // SAFETY: SSE2 is part of the x86-64 baseline, so the intrinsics exist
    // on every x86-64 CPU. Every access to `out` covers the four floats
    // `[(i + r)·k + j + 4v, … + 4)` with `r < R`, `v < V`; since
    // `i + R <= m` and `j + 4V <= k` it ends at or before `m·k = out.len()`.
    // Every load from `x` covers `[t·k + j + 4v, … + 4)` with `t < nt`,
    // ending at or before `nt·k = x.len()`, and the four-float load from
    // `g` (when `R == 4`) covers `[t·m + i, t·m + i + 4)`, ending at or
    // before `nt·m = g.len()` since `i + 4 <= m` (all asserted above).
    // `loadu` and `storeu` need no alignment.
    unsafe {
        let at = |r: usize, v: usize| (i + r) * k + j + 4 * v;
        let mut acc: [[__m128; V]; R] =
            std::array::from_fn(|r| std::array::from_fn(|v| _mm_loadu_ps(out.as_ptr().add(at(r, v)))));
        for t in (0..nt).rev() {
            let xv: [__m128; V] = std::array::from_fn(|v| _mm_loadu_ps(x.as_ptr().add(t * k + j + 4 * v)));
            let gv: [__m128; R] = match R {
                4 => {
                    let g4 = _mm_loadu_ps(g.as_ptr().add(t * m + i));
                    let s = [splat::<0x00>(g4), splat::<0x55>(g4), splat::<0xAA>(g4), splat::<0xFF>(g4)];
                    std::array::from_fn(|r| s[r])
                }
                _ => std::array::from_fn(|r| _mm_set1_ps(g[t * m + i + r])),
            };
            for (acc, &gv) in acc.iter_mut().zip(&gv) {
                for (acc, &xv) in acc.iter_mut().zip(&xv) {
                    *acc = _mm_add_ps(*acc, _mm_mul_ps(gv, xv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &acc) in acc.iter().enumerate() {
                _mm_storeu_ps(out.as_mut_ptr().add(at(r, v)), acc);
            }
        }
    }
}

/// `rank_tile` as a scalar loop, for targets without the x86-64 SSE2
/// baseline.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn rank_tile<const R: usize, const V: usize>(
    out: &mut [f32],
    k: usize,
    i: usize,
    j: usize,
    g: &[f32],
    x: &[f32],
) {
    let (m, nt) = (out.len() / k, x.len() / k);
    for r in i..i + R {
        for c in j..j + 4 * V {
            let o = &mut out[r * k + c];
            for t in (0..nt).rev() {
                *o += g[t * m + r] * x[t * k + c];
            }
        }
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

    /// `self × other`. One column (`W·x`, the seq2seq hot path) takes the
    /// four-row `matvec_rows` path; more (`Gᵀ·W`, stacked input gradients)
    /// take `dots_tn` over the rows of `self`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        trace_flops(self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(self.rows, other.cols);
        if other.cols == 1 {
            matvec_rows(&self.data, &other.data, &mut out.data, |o, d| *o = d);
        } else {
            dots_tn(&self.data, &other.data, other.cols, &mut out.data);
        }
        out
    }

    /// `selfᵀ × other` — the `Wᵀ g` backprop kernel. The matvec case
    /// streams `self` row by row through `dots_tn` (no transpose); any
    /// other shape returns [`reference::matmul_tn`]'s result.
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

    /// `self × otherᵀ`. A shared dimension above 1 (`Xᵀ·Wᵀ`, the forward
    /// projection of stacked inputs) takes `dots_nt`. A shared dimension of
    /// 1 (`g xᵀ`, an outer product) accumulates onto zeros, computing
    /// `0.0 + g_i·x_j` exactly as [`dot`] does for one element (so a `-0.0`
    /// product comes out `+0.0`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape");
        trace_flops(self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.rows);
        if self.cols == 1 {
            outer_acc(&mut out.data, &self.data, &other.data);
        } else {
            dots_nt(&self.data, &other.data, self.cols, other.rows, &mut out.data);
        }
        out
    }

    /// `self += g · xᵀ` for column vectors `g` and `x` — one step's
    /// weight-gradient outer product accumulated in place: the one-term
    /// case of [`Matrix::rank_acc`].
    pub fn rank1_acc(&mut self, g: &Matrix, x: &Matrix) {
        debug_assert!(g.data.len() == self.rows && x.data.len() == self.cols);
        nv_trace::count("nn.rank1.flops", 2 * (self.rows * self.cols) as u64);
        outer_acc(&mut self.data, &g.data, &x.data);
    }

    /// `self += Σ_t g_t · x_tᵀ` over the rows `g_t` of `g` (`T × rows`) and
    /// `x_t` of `x` (`T × cols`), one term at a time from the last row to
    /// the first — the order in which backward visits the steps of a
    /// time-batched product. Each element performs the same `+= g_i·x_j`
    /// additions, in the same order, as `T` calls to
    /// [`Matrix::rank1_acc`], so the bits match.
    pub fn rank_acc(&mut self, g: &Matrix, x: &Matrix) {
        assert!(
            g.cols == self.rows && x.cols == self.cols && g.rows == x.rows,
            "rank_acc shape"
        );
        nv_trace::count("nn.rank1.flops", 2 * (self.rows * self.cols * g.rows) as u64);
        rank_acc(&mut self.data, self.cols, &g.data, &x.data);
    }

    /// `out[i] += Σ_k self[i][k] · x[k]` — accumulating matvec for the
    /// fused affine ops. Each row's product is a full fixed-order [`dot`]
    /// (four rows at a time through `matvec_rows`) added to the existing value,
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

    /// `out += Σ_t g_t · x_tᵀ` over the rows of `g` and `x`, last row
    /// first, one element and one term at a time.
    pub fn rank_acc(out: &mut Matrix, g: &Matrix, x: &Matrix) {
        assert!(g.cols == out.rows && x.cols == out.cols && g.rows == x.rows, "rank_acc shape");
        for t in (0..g.rows).rev() {
            for i in 0..out.rows {
                for j in 0..out.cols {
                    *out.at_mut(i, j) += g.at(t, i) * x.at(t, j);
                }
            }
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
        // The time-batched model products at odd vocabularies: the
        // forward `Xᵀ·Wᵀ`, the input gradients `Gᵀ·W` and the weight
        // gradient over `T` stacked steps, at the feature widths of basic
        // (h = 32), +attention (3h = 96) and the full-scale output
        // projection (216), and at a width that is no multiple of the tile
        // width (37, with every `T` from 1 to 33). Each shape draws plain
        // values, either sign of zero or hostile values in turn.
        let draws: [fn(usize, usize, &mut StdRng) -> Matrix; 3] =
            [rand_mat, signed_zero_mat, hostile_mat];
        let widths = [37, 32, 96, 216];
        let stacked = [793, 1023, 1031].into_iter().flat_map(|v| widths.map(|k| (v, k)));
        for (n, (v, k)) in stacked.enumerate() {
            let draw = draws[n % 3];
            let steps: Vec<usize> = if n == 0 { (1..=33).collect() } else { vec![1, 2, 7, 33] };
            for t in steps {
                let (w, x, g) = (draw(v, k, &mut rng), draw(t, k, &mut rng), draw(t, v, &mut rng));
                let shape = format!("{v}x{k}, T = {t}");
                let fast = x.matmul_nt(&w);
                assert_eq!(bits(&fast), bits(&reference::matmul_nt(&x, &w)), "Xᵀ·Wᵀ {shape}");
                let fast = g.matmul(&w);
                assert_eq!(bits(&fast), bits(&reference::matmul(&g, &w)), "Gᵀ·W {shape}");
                let mut fast = draw(v, k, &mut rng);
                let mut slow = fast.clone();
                fast.rank_acc(&g, &x);
                reference::rank_acc(&mut slow, &g, &x);
                assert_eq!(bits(&fast), bits(&slow), "rank_acc {shape}");
            }
        }
    }

    /// A matrix of [`hostile`] entries.
    fn hostile_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| hostile(rng)).collect())
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
