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
//! ## Register widths
//!
//! rustc does not vectorize the four lanes on its own at the default
//! x86-64 target (it emits one scalar `mulss`/`addss` per lane), so the
//! tiles are written once, generic over a register of lanes (`Lanes`), and
//! run at one of three widths (`Simd`):
//!
//! * **SSE2**, four floats per register: the x86-64 baseline, and the
//!   fallback on an x86-64 CPU without AVX.
//! * **AVX**, eight floats per register, chosen at run time when the CPU
//!   has it (`is_x86_feature_detected!`, once per kernel call; a traced run
//!   records the width as the `nn.simd.lanes` gauge). A register holds two
//!   outputs' four `dot` lanes side by side, or eight neighbouring outputs'
//!   copies of one lane, so every output keeps `dot`'s lane assignment and
//!   order. The stacked products, the outer product and the transposed
//!   matvec run at this width; the one-vector `W·x` stays at four lanes,
//!   where eight, dispatched per call, timed faster alone but slowed
//!   training end to end.
//! * **Scalar** loops over four lanes: the kernels of other targets (x86-64
//!   runs them only in the tests).
//!
//! Every width multiplies, then adds, as two rounded operations: only
//! `avx` is enabled, never `fma`, so a product is never fused into its sum
//! and all three widths return the same bits. `scripts/ci.sh nofma` fails
//! if a fused multiply-add appears in the release binary. No build flag or
//! setting picks the width.
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
//!   weight rows at a time (`matvec_rows`, `dot_rows`: four independent
//!   lane vectors, each in [`dot`]'s exact order, sharing each load of
//!   `x`).
//! * The stacked forward `Xᵀ·Wᵀ` (`matmul_nt` with a shared dimension
//!   above 1) is `dots_nt`: `out[t][i] = dot(x_t, w_i)`, a tile of four
//!   registers of `W` rows (four rows at SSE2, eight at AVX) against two
//!   stacked vectors, so each load of `W` serves two steps and each load
//!   of `x` every row of the tile. Blocks of `W` are the outer loop, so a
//!   stacked call streams `W` from memory once, not once per step.
//! * The stacked input gradients `Gᵀ·W` (`matmul` with more than one
//!   column) are `dots_tn`: `out[t][j] = dot(g_t, w[:, j])`, walking down
//!   the rows of `W` with a register of columns (four or eight) against two
//!   stacked gradients, each output's four lanes in separate registers.
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
//!   keeps a tile of four rows by two registers of columns (8 at SSE2, 16
//!   at AVX) of `out` in registers for every term, so the gradient is read
//!   and written once per call.
//!
//! `matmul_tn` with more than one column is no model product; it returns
//! the [`reference`](mod@reference) kernel's result. Every product
//! returns a freshly allocated matrix.

use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;

/// One register of [`dot`] lanes: `WIDTH` floats, read as `WIDTH / 4`
/// groups of four. Its arithmetic is lane-wise, one rounding per
/// operation, so a tile written against it computes the same bits at
/// every width.
///
/// # Safety
///
/// Every method may execute the type's instructions (SSE2 for `Sse`, AVX
/// for `Avx`, none for `Scalar`); the caller must know the CPU has them.
/// A method that takes a pointer reads or writes floats from it, all of
/// which must be in bounds: `WIDTH` for `load` and `store`, four for
/// `dup4` and `splat4`, and four at each of `p + g·stride` for
/// `g < WIDTH / 4` for `load_groups`.
trait Lanes: Copy {
    /// Floats per register: 4 or 8.
    const WIDTH: usize;
    /// The four-float register a kernel finishes its remainder with.
    type Narrow: Lanes;
    /// `x` in every lane.
    unsafe fn set1(x: f32) -> Self;
    unsafe fn add(self, other: Self) -> Self;
    unsafe fn mul(self, other: Self) -> Self;
    /// The `WIDTH` floats from `p`.
    unsafe fn load(p: *const f32) -> Self;
    /// Group `g` holds the four floats from `p + g·stride`.
    unsafe fn load_groups(p: *const f32, stride: usize) -> Self;
    /// Every group holds the four floats from `p`.
    unsafe fn dup4(p: *const f32) -> Self;
    /// Register `l` holds `p[l]` in every lane.
    unsafe fn splat4(p: *const f32) -> [Self; 4];
    /// The `WIDTH` lanes, written from `p`.
    unsafe fn store(self, p: *mut f32);
    /// Within each group, the 4×4 transpose of four registers: lane `j` of
    /// register `v` goes to lane `v` of register `j`.
    unsafe fn transpose4(v: [Self; 4]) -> [Self; 4];
}

/// Four lanes as plain scalar loops.
#[derive(Clone, Copy)]
struct Scalar([f32; 4]);

impl Lanes for Scalar {
    const WIDTH: usize = 4;
    type Narrow = Scalar;
    #[inline(always)]
    unsafe fn set1(x: f32) -> Self {
        Scalar([x; 4])
    }
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        Scalar(std::array::from_fn(|l| self.0[l] + other.0[l]))
    }
    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        Scalar(std::array::from_fn(|l| self.0[l] * other.0[l]))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Scalar(p.cast::<[f32; 4]>().read_unaligned())
    }
    #[inline(always)]
    unsafe fn load_groups(p: *const f32, _stride: usize) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn dup4(p: *const f32) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn splat4(p: *const f32) -> [Self; 4] {
        std::array::from_fn(|l| Scalar([*p.add(l); 4]))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self.0)
    }
    #[inline(always)]
    unsafe fn transpose4(v: [Self; 4]) -> [Self; 4] {
        std::array::from_fn(|j| Scalar(std::array::from_fn(|r| v[r].0[j])))
    }
}

/// Four lanes in one SSE2 register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Sse(std::arch::x86_64::__m128);

#[cfg(target_arch = "x86_64")]
impl Lanes for Sse {
    const WIDTH: usize = 4;
    type Narrow = Sse;
    #[inline(always)]
    unsafe fn set1(x: f32) -> Self {
        Sse(std::arch::x86_64::_mm_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        Sse(std::arch::x86_64::_mm_add_ps(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        Sse(std::arch::x86_64::_mm_mul_ps(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Sse(std::arch::x86_64::_mm_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn load_groups(p: *const f32, _stride: usize) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn dup4(p: *const f32) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn splat4(p: *const f32) -> [Self; 4] {
        use std::arch::x86_64::_mm_shuffle_ps;
        let v = std::arch::x86_64::_mm_loadu_ps(p);
        [
            Sse(_mm_shuffle_ps::<0x00>(v, v)),
            Sse(_mm_shuffle_ps::<0x55>(v, v)),
            Sse(_mm_shuffle_ps::<0xAA>(v, v)),
            Sse(_mm_shuffle_ps::<0xFF>(v, v)),
        ]
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        std::arch::x86_64::_mm_storeu_ps(p, self.0)
    }
    #[inline(always)]
    unsafe fn transpose4([a, b, c, d]: [Self; 4]) -> [Self; 4] {
        use std::arch::x86_64::{_mm_shuffle_ps, _mm_unpackhi_ps, _mm_unpacklo_ps};
        let (ab0, ab2) = (_mm_unpacklo_ps(a.0, b.0), _mm_unpackhi_ps(a.0, b.0));
        let (cd0, cd2) = (_mm_unpacklo_ps(c.0, d.0), _mm_unpackhi_ps(c.0, d.0));
        [
            Sse(_mm_shuffle_ps::<0x44>(ab0, cd0)),
            Sse(_mm_shuffle_ps::<0xEE>(ab0, cd0)),
            Sse(_mm_shuffle_ps::<0x44>(ab2, cd2)),
            Sse(_mm_shuffle_ps::<0xEE>(ab2, cd2)),
        ]
    }
}

/// Eight lanes in one AVX register: two groups of four.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx(std::arch::x86_64::__m256);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    const WIDTH: usize = 8;
    type Narrow = Sse;
    #[inline(always)]
    unsafe fn set1(x: f32) -> Self {
        Avx(std::arch::x86_64::_mm256_set1_ps(x))
    }
    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_add_ps(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        Avx(std::arch::x86_64::_mm256_mul_ps(self.0, other.0))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Avx(std::arch::x86_64::_mm256_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn load_groups(p: *const f32, stride: usize) -> Self {
        Avx(std::arch::x86_64::_mm256_loadu2_m128(p.add(stride), p))
    }
    #[inline(always)]
    unsafe fn dup4(p: *const f32) -> Self {
        let v = std::arch::x86_64::_mm_loadu_ps(p);
        Avx(std::arch::x86_64::_mm256_set_m128(v, v))
    }
    #[inline(always)]
    unsafe fn splat4(p: *const f32) -> [Self; 4] {
        std::array::from_fn(|l| Avx(std::arch::x86_64::_mm256_broadcast_ss(&*p.add(l))))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        std::arch::x86_64::_mm256_storeu_ps(p, self.0)
    }
    #[inline(always)]
    unsafe fn transpose4([a, b, c, d]: [Self; 4]) -> [Self; 4] {
        use std::arch::x86_64::{_mm256_shuffle_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps};
        let (ab0, ab2) = (_mm256_unpacklo_ps(a.0, b.0), _mm256_unpackhi_ps(a.0, b.0));
        let (cd0, cd2) = (_mm256_unpacklo_ps(c.0, d.0), _mm256_unpackhi_ps(c.0, d.0));
        [
            Avx(_mm256_shuffle_ps::<0x44>(ab0, cd0)),
            Avx(_mm256_shuffle_ps::<0xEE>(ab0, cd0)),
            Avx(_mm256_shuffle_ps::<0x44>(ab2, cd2)),
            Avx(_mm256_shuffle_ps::<0xEE>(ab2, cd2)),
        ]
    }
}

/// The register width a kernel runs at. Every width returns the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Simd {
    /// Four lanes as scalar loops (targets other than x86-64).
    Scalar,
    /// Four lanes in SSE2 registers (the x86-64 baseline).
    Sse,
    /// Eight lanes in AVX registers, without FMA.
    Avx,
}

impl Simd {
    /// The widest width this CPU runs. The standard library caches the
    /// CPU query, so this costs an atomic load.
    fn detect() -> Simd {
        if Simd::Avx.available() {
            Simd::Avx
        } else if Simd::Sse.available() {
            Simd::Sse
        } else {
            Simd::Scalar
        }
    }

    /// Floats per register.
    fn lanes(self) -> u64 {
        match self {
            Simd::Scalar | Simd::Sse => 4,
            Simd::Avx => 8,
        }
    }

    /// Whether this CPU has the width's instructions.
    fn available(self) -> bool {
        match self {
            Simd::Scalar => true,
            Simd::Sse => cfg!(target_arch = "x86_64"),
            #[cfg(target_arch = "x86_64")]
            Simd::Avx => is_x86_feature_detected!("avx"),
            #[cfg(not(target_arch = "x86_64"))]
            Simd::Avx => false,
        }
    }

    /// Runs `product` at this width, recording the width as the
    /// `nn.simd.lanes` gauge of a traced run.
    fn run(self, product: Product<'_>) {
        assert!(self.available(), "this CPU lacks the {self:?} instructions");
        nv_trace::gauge_max("nn.simd.lanes", self.lanes());
        match self {
            // SAFETY: scalar lanes execute no special instructions.
            Simd::Scalar => unsafe { product.run::<Scalar>() },
            // SAFETY: SSE2 is part of the x86-64 baseline.
            #[cfg(target_arch = "x86_64")]
            Simd::Sse => unsafe { product.run::<Sse>() },
            // SAFETY: `available` found AVX on this CPU just above.
            #[cfg(target_arch = "x86_64")]
            Simd::Avx => unsafe { run_avx(product) },
            #[cfg(not(target_arch = "x86_64"))]
            Simd::Sse | Simd::Avx => unreachable!("no x86-64 width is available off x86-64"),
        }
    }
}

/// `product` at eight lanes. The kernels are `#[inline(always)]`, so their
/// whole bodies compile here, with AVX (and never FMA) enabled.
///
/// # Safety
///
/// The CPU must have AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn run_avx(product: Product<'_>) {
    product.run::<Avx>()
}

/// One call of a width-dispatched kernel, with its operands (see the
/// kernel of each variant).
enum Product<'a> {
    /// `dots_nt`: `out[t·nb + i] = dot(a_t, b_i)`.
    Nt { a: &'a [f32], b: &'a [f32], k: usize, nb: usize, out: &'a mut [f32] },
    /// `dots_tn`: `out[t·k + j] = dot(a_t, b[:, j])`.
    Tn { a: &'a [f32], b: &'a [f32], k: usize, out: &'a mut [f32] },
    /// `rank_acc`: `out += Σ_t g_t·x_tᵀ`.
    Rank { out: &'a mut [f32], k: usize, g: &'a [f32], x: &'a [f32] },
    /// `outer_acc`: `out += g·xᵀ`.
    Outer { out: &'a mut [f32], g: &'a [f32], x: &'a [f32] },
    /// `matvec_tn_rows`: `out = wᵀ·g`.
    MatvecTn { w: &'a [f32], g: &'a [f32], out: &'a mut [f32], lanes: &'a mut Vec<f32> },
}

impl Product<'_> {
    /// # Safety
    ///
    /// The CPU must have `L`'s instructions.
    #[inline(always)]
    unsafe fn run<L: Lanes>(self) {
        match self {
            Product::Nt { a, b, k, nb, out } => dots_nt::<L>(a, b, k, nb, out),
            Product::Tn { a, b, k, out } => dots_tn::<L>(a, b, k, out),
            Product::Rank { out, k, g, x } => rank_acc::<L>(out, k, g, x),
            Product::Outer { out, g, x } => outer_acc(out, g, x),
            Product::MatvecTn { w, g, out, lanes } => matvec_tn_rows(w, g, out, lanes),
        }
    }
}

/// The four-float register of this target: SSE2 on x86-64, scalar loops
/// elsewhere. The one-vector `W·x` and [`dot`] always run at this width.
#[cfg(target_arch = "x86_64")]
type Base = Sse;
#[cfg(not(target_arch = "x86_64"))]
type Base = Scalar;

/// Dot product in the canonical fixed reduction order (4 lanes over chunks
/// of 4, lanes summed in index order, sequential tail): the one-row,
/// one-vector case of `dot_rows`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length");
    let mut s = 0.0;
    // SAFETY: `Base` is the target's baseline register.
    unsafe { dot_rows::<Base, 1, 1>(a, b, |_, d| s = d[0]) };
    s
}

/// `V·G × M` [`dot`]s at once (`G = L::WIDTH / 4` groups per register):
/// `emit(q, d)` gets `d[r]`, row `r` of the contiguous length-`k` rows in
/// `rows` against row `q` of the `M` contiguous length-`k` vectors in `xs`
/// (`k = xs.len() / M`). Each pair gets its own four lane accumulators over
/// the full chunks of 4 (`lane_sums`), which are summed `((0+1)+2)+3`; the
/// `k % 4` tail elements are then added in order. The accumulator chains
/// are independent, so the adds of one output never wait on another's,
/// and each chunk load serves `M` vectors (a row) or every row (a vector).
/// A tile of four registers sums its lanes in registers: transposed, the
/// four registers hold lane 0, 1, 2 and 3 of every row, and three `add`s
/// give each row `((0+1)+2)+3`.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn dot_rows<L: Lanes, const V: usize, const M: usize>(
    rows: &[f32],
    xs: &[f32],
    mut emit: impl FnMut(usize, &[f32]),
) {
    let k = xs.len() / M;
    let n = V * L::WIDTH / 4;
    for (q, acc) in lane_sums::<L, V, M>(rows, xs).iter().enumerate() {
        let mut d = [0.0f32; 8];
        assert!(n <= d.len());
        if V == 4 {
            let [l0, l1, l2, l3] = L::transpose4(std::array::from_fn(|v| acc[v]));
            // SAFETY: the store writes `L::WIDTH = n <= 8` floats
            // (asserted) into `d`, and the caller vouches for `L`'s
            // instructions.
            unsafe { l0.add(l1).add(l2).add(l3).store(d.as_mut_ptr()) };
        } else {
            for (v, &acc) in acc.iter().enumerate() {
                let mut l = [0.0f32; 8];
                // SAFETY: as above, `L::WIDTH <= 8` floats into `l`.
                unsafe { acc.store(l.as_mut_ptr()) };
                for (g, l) in l[..L::WIDTH].chunks_exact(4).enumerate() {
                    d[g * V + v] = l[0] + l[1] + l[2] + l[3];
                }
            }
        }
        for (r, d) in d[..n].iter_mut().enumerate() {
            for i in k / 4 * 4..k {
                *d += rows[r * k + i] * xs[q * k + i];
            }
        }
        emit(q, &d[..n]);
    }
}

/// The lane accumulators of `dot_rows`: register `[q][v]` holds, in its
/// group `g`, the four lanes of row `g·V + v` against vector `q`, lane `j`
/// being `Σ_c row[4c + j]·x[4c + j]` over the full chunks `c`, accumulated
/// in chunk order from `0.0` — one `mul` and one `add` per chunk, per lane
/// the same multiply-then-add as the scalar `lane[j] += row[4c + j] *
/// x[4c + j]`, so the bits match it.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn lane_sums<L: Lanes, const V: usize, const M: usize>(
    rows: &[f32],
    xs: &[f32],
) -> [[L; V]; M] {
    let k = xs.len() / M;
    let groups = L::WIDTH / 4;
    assert!(
        rows.len() == V * groups * k && xs.len() == M * k,
        "dot_rows: {V}×{groups} rows, {M} vectors of {k}"
    );
    // SAFETY: the caller vouches for `L`'s instructions. With `c < k / 4`,
    // each `dup4` reads the four floats `[q·k + 4c, q·k + 4c + 4)` of `xs`
    // with `q < M`, and each `load_groups` the four floats
    // `[r·k + 4c, r·k + 4c + 4)` of `rows` for `r = g·V + v < V·G`; both
    // end at or before `q·k + k <= M·k = xs.len()` and
    // `r·k + k <= V·G·k = rows.len()` (asserted above).
    unsafe {
        let mut acc = [[L::set1(0.0); V]; M];
        for c in 0..k / 4 {
            let xv: [L; M] = std::array::from_fn(|q| L::dup4(xs.as_ptr().add(q * k + 4 * c)));
            for v in 0..V {
                let rv = L::load_groups(rows.as_ptr().add(v * k + 4 * c), V * k);
                for (acc, &xv) in acc.iter_mut().zip(&xv) {
                    acc[v] = acc[v].add(rv.mul(xv));
                }
            }
        }
        acc
    }
}

/// The matvec sweep shared by [`Matrix::matmul`] and
/// [`Matrix::matvec_acc`]: `emit(&mut out[i], dot(w_row_i, x))` for every
/// row of the row-major `w` (row length `x.len()`). Full blocks of four
/// rows go through `dot_rows::<Base, 4, 1>`; the `rows % 4` remainder rows
/// call [`dot`].
#[inline]
fn matvec_rows(w: &[f32], x: &[f32], out: &mut [f32], emit: impl Fn(&mut f32, f32)) {
    let k = x.len();
    let full = out.len() / 4 * 4;
    for (i, o) in out[..full].chunks_exact_mut(4).enumerate() {
        // SAFETY: `Base` is the target's baseline register.
        unsafe {
            dot_rows::<Base, 4, 1>(&w[4 * i * k..4 * (i + 1) * k], x, |_, d| {
                for (o, &d) in o.iter_mut().zip(d) {
                    emit(o, d);
                }
            })
        };
    }
    for (i, o) in out.iter_mut().enumerate().skip(full) {
        emit(o, dot(&w[i * k..(i + 1) * k], x));
    }
}

/// `out[t·nb + i] = dot(a_t, b_i)` for every row `a_t` of `a`
/// and every one of the `nb` rows `b_i` of `b`, all of length `k`
/// (`out.len() / nb` rows in `a`). Tiles of four `L` registers of `b` rows
/// (`4·G` rows) against pairs of `a` rows go through `dot_rows`; an odd
/// last `a` row takes a one-vector tile, and the rows past the last whole
/// tile take `L::Narrow`'s four-row tiles, then single rows.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn dots_nt<L: Lanes>(a: &[f32], b: &[f32], k: usize, nb: usize, out: &mut [f32]) {
    if nb == 0 {
        return;
    }
    let na = out.len() / nb;
    assert!(a.len() == na * k && b.len() == nb * k && out.len() == na * nb, "dots_nt shape");
    let i = dots_nt_from::<L, 4>(a, b, k, nb, out, 0);
    let i = dots_nt_from::<L::Narrow, 4>(a, b, k, nb, out, i);
    dots_nt_from::<L::Narrow, 1>(a, b, k, nb, out, i);
}

/// `dots_nt` over the rows of `b` from `i0` in tiles of `V` registers
/// (`V·G` rows) while a whole tile fits; returns the first row left over.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn dots_nt_from<L: Lanes, const V: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    nb: usize,
    out: &mut [f32],
    i0: usize,
) -> usize {
    let n = V * L::WIDTH / 4;
    let na = out.len() / nb;
    let (na2, end) = (na / 2 * 2, i0 + (nb - i0) / n * n);
    for i in (i0..end).step_by(n) {
        let bi = &b[i * k..(i + n) * k];
        for t in (0..na2).step_by(2) {
            dot_rows::<L, V, 2>(bi, &a[t * k..(t + 2) * k], |q, d| {
                out[(t + q) * nb + i..][..n].copy_from_slice(d)
            });
        }
        if na2 < na {
            dot_rows::<L, V, 1>(bi, &a[na2 * k..], |_, d| {
                out[na2 * nb + i..][..n].copy_from_slice(d)
            });
        }
    }
    end
}

/// `out[t·k + j] = dot(a_t, b[:, j])` for every row `a_t` of `a` and every
/// column `j` of the row-major `b` (`m × k`, `out.len() / k` rows in `a`,
/// each of length `m`): the transposed product, streaming `b` row by row
/// without transposing it. `L::WIDTH` columns of `b` against pairs of `a`
/// rows go through `col_dots::<L, 2>`, an odd last `a` row through
/// `col_dots::<L, 1>`; the columns past the last whole register take
/// `L::Narrow`'s four, and the last `k % 4` the scalar `col_dots_tail`.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn dots_tn<L: Lanes>(a: &[f32], b: &[f32], k: usize, out: &mut [f32]) {
    if k == 0 {
        return;
    }
    let (na, m) = (out.len() / k, b.len() / k);
    assert!(a.len() == na * m && b.len() == m * k && out.len() == na * k, "dots_tn shape");
    let j = dots_tn_from::<L>(a, b, k, out, 0);
    let j = dots_tn_from::<L::Narrow>(a, b, k, out, j);
    if j < k {
        for t in 0..na {
            let d = col_dots_tail(&a[t * m..(t + 1) * m], b, k, j);
            out[t * k + j..(t + 1) * k].copy_from_slice(&d[..k - j]);
        }
    }
}

/// `dots_tn` over the columns of `b` from `j0`, `L::WIDTH` at a time while
/// a whole register fits; returns the first column left over.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn dots_tn_from<L: Lanes>(
    a: &[f32],
    b: &[f32],
    k: usize,
    out: &mut [f32],
    j0: usize,
) -> usize {
    let (na, m) = (out.len() / k, b.len() / k);
    let (na2, end) = (na / 2 * 2, j0 + (k - j0) / L::WIDTH * L::WIDTH);
    for j in (j0..end).step_by(L::WIDTH) {
        for t in (0..na2).step_by(2) {
            col_dots::<L, 2>(&a[t * m..(t + 2) * m], b, k, j, &mut out[t * k..(t + 2) * k]);
        }
        if na2 < na {
            col_dots::<L, 1>(&a[na2 * m..], b, k, j, &mut out[na2 * k..]);
        }
    }
    end
}

/// `out[q·k + j + c] = dot(a_q, b[:, j + c])` for the `M` rows `a_q` of
/// `a` (each of length `m = a.len() / M`) and the `L::WIDTH` columns from
/// `j` of the row-major `b` (`m × k`). Lane `l` of an output gathers rows
/// `4c + l` of the full chunks, as in [`dot`]; each (row of `a`, lane)
/// pair is one register over the columns, updated by one `mul` and one
/// `add` per row of `b`, and the lanes are summed `((0+1)+2)+3` before the
/// `m % 4` tail rows are added in order. Per column that is exactly `dot`'s
/// sequence of operations, so the bits match it.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn col_dots<L: Lanes, const M: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    j: usize,
    out: &mut [f32],
) {
    let m = a.len() / M;
    assert!(
        a.len() == M * m && b.len() == m * k && j + L::WIDTH <= k && out.len() >= M * k,
        "col_dots shape"
    );
    let full = m / 4 * 4;
    // SAFETY: the caller vouches for `L`'s instructions. Each load from `b`
    // reads the `W = L::WIDTH` floats `[r·k + j, r·k + j + W)` with `r < m`;
    // since `j + W <= k` it ends at or before `r·k + k <= m·k = b.len()`.
    // Each `splat4` reads `[q·m + c, q·m + c + 4)` of `a` with `q < M` and
    // `c + 4 <= full <= m`, so it ends at or before `M·m = a.len()`. Each
    // store writes `[q·k + j, q·k + j + W)` with `q < M`, ending at or
    // before `M·k <= out.len()` (all asserted above).
    unsafe {
        let col = |r: usize| L::load(b.as_ptr().add(r * k + j));
        let mut acc = [[L::set1(0.0); 4]; M];
        for c in (0..full).step_by(4) {
            let (b0, b1, b2, b3) = (col(c), col(c + 1), col(c + 2), col(c + 3));
            for (q, acc) in acc.iter_mut().enumerate() {
                let [a0, a1, a2, a3] = L::splat4(a.as_ptr().add(q * m + c));
                acc[0] = acc[0].add(b0.mul(a0));
                acc[1] = acc[1].add(b1.mul(a1));
                acc[2] = acc[2].add(b2.mul(a2));
                acc[3] = acc[3].add(b3.mul(a3));
            }
        }
        for (q, [l0, l1, l2, l3]) in acc.into_iter().enumerate() {
            let mut s = l0.add(l1).add(l2).add(l3);
            for r in full..m {
                s = s.add(col(r).mul(L::set1(a[q * m + r])));
            }
            s.store(out.as_mut_ptr().add(q * k + j));
        }
    }
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
/// running value. Tiles of four rows by two `L` registers of columns (then
/// one register, then `L::Narrow`'s; then single rows; then single
/// columns) hold their part of `out` in registers for every term.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn rank_acc<L: Lanes>(out: &mut [f32], k: usize, g: &[f32], x: &[f32]) {
    if k == 0 {
        return;
    }
    let m = out.len() / k;
    let nt = x.len() / k;
    assert!(out.len() == m * k && g.len() == nt * m && x.len() == nt * k, "rank_acc shape");
    let j = rank_from::<L>(out, k, g, x, 0);
    let j = rank_from::<L::Narrow>(out, k, g, x, j);
    for i in 0..m {
        for c in j..k {
            let o = &mut out[i * k + c];
            for t in (0..nt).rev() {
                *o += g[t * m + i] * x[t * k + c];
            }
        }
    }
}

/// `rank_acc` over the columns from `j0`: tiles two registers wide while
/// they fit, then one register if it fits; returns the first column left
/// over.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn rank_from<L: Lanes>(out: &mut [f32], k: usize, g: &[f32], x: &[f32], j0: usize) -> usize {
    let (m, w) = (out.len() / k, L::WIDTH);
    let j2 = j0 + (k - j0) / (2 * w) * (2 * w);
    let end = if j2 + w <= k { j2 + w } else { j2 };
    let m4 = m / 4 * 4;
    for i in (0..m4).step_by(4) {
        for j in (j0..j2).step_by(2 * w) {
            rank_tile::<L, 4, 2>(out, k, i, j, g, x);
        }
        if j2 < end {
            rank_tile::<L, 4, 1>(out, k, i, j2, g, x);
        }
    }
    for i in m4..m {
        for j in (j0..j2).step_by(2 * w) {
            rank_tile::<L, 1, 2>(out, k, i, j, g, x);
        }
        if j2 < end {
            rank_tile::<L, 1, 1>(out, k, i, j2, g, x);
        }
    }
    end
}

/// One `R × V·L::WIDTH` tile of `rank_acc` at row `i`, column `j`: the
/// tile is loaded once into `R·V` registers, each term adds `g_t[i + r]`
/// times `L::WIDTH` `x_t` values with one `mul` and one `add` (per lane
/// the scalar `o += g·x`, so the bits match it), and the tile is stored
/// once.
///
/// # Safety
///
/// The CPU must have `L`'s instructions.
#[inline(always)]
unsafe fn rank_tile<L: Lanes, const R: usize, const V: usize>(
    out: &mut [f32],
    k: usize,
    i: usize,
    j: usize,
    g: &[f32],
    x: &[f32],
) {
    let (m, nt, w) = (out.len() / k, x.len() / k, L::WIDTH);
    assert!(i + R <= m && j + V * w <= k && g.len() == nt * m && x.len() == nt * k, "rank_tile");
    // SAFETY: the caller vouches for `L`'s instructions. Every access to
    // `out` covers the `w` floats `[(i + r)·k + j + v·w, … + w)` with
    // `r < R`, `v < V`; since `i + R <= m` and `j + V·w <= k` it ends at or
    // before `m·k = out.len()`. Every load from `x` covers
    // `[t·k + j + v·w, … + w)` with `t < nt`, ending at or before
    // `nt·k = x.len()`, and the four-float `splat4` from `g` (when
    // `R == 4`) covers `[t·m + i, t·m + i + 4)`, ending at or before
    // `nt·m = g.len()` since `i + 4 <= m` (all asserted above).
    unsafe {
        let at = |r: usize, v: usize| (i + r) * k + j + v * w;
        let mut acc: [[L; V]; R] =
            std::array::from_fn(|r| std::array::from_fn(|v| L::load(out.as_ptr().add(at(r, v)))));
        for t in (0..nt).rev() {
            let xv: [L; V] = std::array::from_fn(|v| L::load(x.as_ptr().add(t * k + j + v * w)));
            let gv: [L; R] = match R {
                4 => {
                    let s = L::splat4(g.as_ptr().add(t * m + i));
                    std::array::from_fn(|r| s[r])
                }
                _ => std::array::from_fn(|r| L::set1(g[t * m + i + r])),
            };
            for (acc, &gv) in acc.iter_mut().zip(&gv) {
                for (acc, &xv) in acc.iter_mut().zip(&xv) {
                    *acc = acc.add(gv.mul(xv));
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, &acc) in acc.iter().enumerate() {
                acc.store(out.as_mut_ptr().add(at(r, v)));
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
/// contiguous and the inner loops run along a row, where they vectorize
/// to the width of the function it is inlined into.
#[inline(always)]
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
/// `matmul_nt`'s shared-dimension-1 case. It vectorizes to the width of
/// the function it is inlined into.
#[inline(always)]
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
        self.matmul_at(Simd::detect(), other)
    }

    /// [`Matrix::matmul`] with its stacked case at width `simd`.
    fn matmul_at(&self, simd: Simd, other: &Matrix) -> Matrix {
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
            let (a, b, k) = (&self.data, &other.data, other.cols);
            simd.run(Product::Tn { a, b, k, out: &mut out.data });
        }
        out
    }

    /// `selfᵀ × other` — the `Wᵀ g` backprop kernel. The matvec case
    /// streams `self` row by row through `matvec_tn_rows` (no transpose);
    /// any other shape returns [`reference::matmul_tn`]'s result.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_at(Simd::detect(), other)
    }

    /// [`Matrix::matmul_tn`] at width `simd`.
    fn matmul_tn_at(&self, simd: Simd, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape");
        trace_flops(self.cols, self.rows, other.cols);
        if other.cols != 1 {
            return reference::matmul_tn(self, other);
        }
        let mut out = Matrix::zeros(self.cols, 1);
        LANES.with(|l| {
            let (w, g, lanes) = (&self.data, &other.data, &mut *l.borrow_mut());
            simd.run(Product::MatvecTn { w, g, out: &mut out.data, lanes });
        });
        out
    }

    /// `self × otherᵀ`. A shared dimension above 1 (`Xᵀ·Wᵀ`, the forward
    /// projection of stacked inputs) takes `dots_nt`. A shared dimension of
    /// 1 (`g xᵀ`, an outer product) accumulates onto zeros, computing
    /// `0.0 + g_i·x_j` exactly as [`dot`] does for one element (so a `-0.0`
    /// product comes out `+0.0`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_at(Simd::detect(), other)
    }

    /// [`Matrix::matmul_nt`] at width `simd`.
    fn matmul_nt_at(&self, simd: Simd, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape");
        trace_flops(self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.rows);
        let (a, b, out_data) = (&self.data, &other.data, &mut out.data);
        if self.cols == 1 {
            simd.run(Product::Outer { out: out_data, g: a, x: b });
        } else {
            simd.run(Product::Nt { a, b, k: self.cols, nb: other.rows, out: out_data });
        }
        out
    }

    /// `self += g · xᵀ` for column vectors `g` and `x` — one step's
    /// weight-gradient outer product accumulated in place: the one-term
    /// case of [`Matrix::rank_acc`].
    pub fn rank1_acc(&mut self, g: &Matrix, x: &Matrix) {
        self.rank1_acc_at(Simd::detect(), g, x)
    }

    /// [`Matrix::rank1_acc`] at width `simd`.
    fn rank1_acc_at(&mut self, simd: Simd, g: &Matrix, x: &Matrix) {
        debug_assert!(g.data.len() == self.rows && x.data.len() == self.cols);
        nv_trace::count("nn.rank1.flops", 2 * (self.rows * self.cols) as u64);
        simd.run(Product::Outer { out: &mut self.data, g: &g.data, x: &x.data });
    }

    /// `self += Σ_t g_t · x_tᵀ` over the rows `g_t` of `g` (`T × rows`) and
    /// `x_t` of `x` (`T × cols`), one term at a time from the last row to
    /// the first — the order in which backward visits the steps of a
    /// time-batched product. Each element performs the same `+= g_i·x_j`
    /// additions, in the same order, as `T` calls to
    /// [`Matrix::rank1_acc`], so the bits match.
    pub fn rank_acc(&mut self, g: &Matrix, x: &Matrix) {
        self.rank_acc_at(Simd::detect(), g, x)
    }

    /// [`Matrix::rank_acc`] at width `simd`.
    fn rank_acc_at(&mut self, simd: Simd, g: &Matrix, x: &Matrix) {
        assert!(
            g.cols == self.rows && x.cols == self.cols && g.rows == x.rows,
            "rank_acc shape"
        );
        nv_trace::count("nn.rank1.flops", 2 * (self.rows * self.cols * g.rows) as u64);
        simd.run(Product::Rank { out: &mut self.data, k: self.cols, g: &g.data, x: &x.data });
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

    /// Every width this CPU runs: the scalar lanes everywhere, SSE2 and AVX
    /// on x86-64. A width the CPU lacks is skipped, and says so.
    fn widths() -> Vec<Simd> {
        let all = [Simd::Scalar, Simd::Sse, Simd::Avx];
        all.into_iter()
            .filter(|simd| {
                let ok = simd.available();
                if !ok {
                    eprintln!("skipped the {simd:?} kernels: this CPU lacks their instructions");
                }
                ok
            })
            .collect()
    }

    #[test]
    fn detect_picks_the_widest_available_width() {
        let simd = Simd::detect();
        assert!(simd.available());
        assert_eq!(simd == Simd::Avx, Simd::Avx.available());
        assert_eq!(simd.lanes(), if Simd::Avx.available() { 8 } else { 4 });
    }

    /// The fast kernels at every width must be bit-identical to the
    /// reference kernels on every shape class (vector, outer product,
    /// general, ragged-edge) and for operands holding either sign of zero —
    /// this is the invariant that makes the NaiveOracle training path exact
    /// and a run's bits independent of the CPU's width.
    #[test]
    fn blocked_kernels_match_reference_bitwise() {
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
            (12, 20, 12),
            (23, 44, 29),
        ];
        let matvecs = matvec_shapes().into_iter().map(|(m, k)| (m, k, 1));
        let draws: [fn(usize, usize, &mut StdRng) -> Matrix; 2] = [rand_mat, signed_zero_mat];
        for simd in widths() {
            let mut rng = StdRng::seed_from_u64(11);
            for draw in draws {
                for (m, k, n) in shapes.into_iter().chain(matvecs.clone()) {
                    let a = draw(m, k, &mut rng);
                    let b = draw(k, n, &mut rng);
                    let fast = a.matmul_at(simd, &b);
                    let slow = reference::matmul(&a, &b);
                    assert_eq!(bits(&fast), bits(&slow), "{simd:?} matmul {m}x{k}x{n}");

                    let at = draw(k, m, &mut rng);
                    let fast = at.matmul_tn_at(simd, &b);
                    let slow = reference::matmul_tn(&at, &b);
                    assert_eq!(bits(&fast), bits(&slow), "{simd:?} matmul_tn {m}x{k}x{n}");

                    let bt = draw(n, k, &mut rng);
                    let fast = a.matmul_nt_at(simd, &bt);
                    let slow = reference::matmul_nt(&a, &bt);
                    assert_eq!(bits(&fast), bits(&slow), "{simd:?} matmul_nt {m}x{k}x{n}");
                }
            }
        }
        // The time-batched model products at odd vocabularies: the
        // forward `Xᵀ·Wᵀ`, the input gradients `Gᵀ·W` and the weight
        // gradient over `T` stacked steps (and its one-step
        // `rank1_acc`), at the feature widths of basic (h = 32),
        // +attention (3h = 96) and the full-scale output projection (216),
        // and at widths that leave every remainder of the eight- and
        // sixteen-column tiles (12, 20, 37 and 44: `k % 8` of 4 and 5,
        // `k % 16` of 4, 5, 12; 216 has `k % 16 = 8`). The vocabularies
        // leave 1, 4, 6 and 7 rows past the last eight-row tile, and `T`
        // runs over every count from 1 to 33 on the first shape, then over
        // 1, 2, 7 and 33. Each shape draws plain values, either sign of
        // zero or hostile values in turn.
        let draws: [fn(usize, usize, &mut StdRng) -> Matrix; 3] =
            [rand_mat, signed_zero_mat, hostile_mat];
        let widths_k = [37, 32, 96, 216, 12, 20, 44];
        let vocabs = [793, 1023, 1031, 804, 806];
        let stacked: Vec<(usize, usize)> =
            vocabs.into_iter().flat_map(|v| widths_k.map(|k| (v, k))).collect();
        for simd in widths() {
            let mut rng = StdRng::seed_from_u64(13);
            for (n, &(v, k)) in stacked.iter().enumerate() {
                let draw = draws[n % 3];
                let steps: Vec<usize> = if n == 0 { (1..=33).collect() } else { vec![1, 2, 7, 33] };
                for t in steps {
                    let w = draw(v, k, &mut rng);
                    let (x, g) = (draw(t, k, &mut rng), draw(t, v, &mut rng));
                    let shape = format!("{simd:?} {v}x{k}, T = {t}");
                    let fast = x.matmul_nt_at(simd, &w);
                    let slow = reference::matmul_nt(&x, &w);
                    assert_eq!(bits(&fast), bits(&slow), "Xᵀ·Wᵀ {shape}");
                    let fast = g.matmul_at(simd, &w);
                    assert_eq!(bits(&fast), bits(&reference::matmul(&g, &w)), "Gᵀ·W {shape}");
                    let mut fast = draw(v, k, &mut rng);
                    let mut slow = fast.clone();
                    fast.rank_acc_at(simd, &g, &x);
                    reference::rank_acc(&mut slow, &g, &x);
                    assert_eq!(bits(&fast), bits(&slow), "rank_acc {shape}");
                    if t == 1 {
                        let mut one = draw(v, k, &mut rng);
                        let mut slow = one.clone();
                        let (g1, x1) = (Matrix::col(g.data.clone()), Matrix::col(x.data.clone()));
                        one.rank1_acc_at(simd, &g1, &x1);
                        reference::rank_acc(&mut slow, &g, &x);
                        assert_eq!(bits(&one), bits(&slow), "rank1_acc {shape}");
                    }
                }
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
    /// a full block plus a tail all occur), at every width.
    #[test]
    fn transposed_matvec_small_shapes_match_reference() {
        for simd in widths() {
            let mut rng = StdRng::seed_from_u64(15);
            for m in [1, 2, 3, 7, 9, 17] {
                for k in [1, 2, 3, 5] {
                    let w = rand_mat(k, m, &mut rng);
                    let g = rand_mat(k, 1, &mut rng);
                    let fast = w.matmul_tn_at(simd, &g);
                    assert_eq!((fast.rows, fast.cols), (m, 1));
                    let slow = reference::matmul_tn(&w, &g);
                    assert_eq!(bits(&fast), bits(&slow), "{simd:?} {k}x{m}");
                }
            }
        }
    }

    /// The transposed matvec keeps its lanes in a thread-local scratch:
    /// lanes of a different size, or anything an `n > 1` call between two
    /// matvecs leaves behind, must never leak into a later one, at any
    /// width or when the width changes between calls.
    #[test]
    fn transposed_matvec_reuses_pack_scratch_exactly() {
        let mut rng = StdRng::seed_from_u64(16);
        let big = (rand_mat(37, 29, &mut rng), rand_mat(37, 1, &mut rng));
        let small = (rand_mat(7, 3, &mut rng), rand_mat(7, 1, &mut rng));
        let (a, b) = (rand_mat(12, 10, &mut rng), rand_mat(10, 9, &mut rng));
        let c = rand_mat(12, 9, &mut rng);
        for simd in widths() {
            let matvec = |(w, g): &(Matrix, Matrix)| {
                let slow = reference::matmul_tn(w, g);
                assert_eq!(bits(&w.matmul_tn_at(simd, g)), bits(&slow), "{simd:?}");
            };
            matvec(&big);
            assert_eq!(bits(&a.matmul_at(simd, &b)), bits(&reference::matmul(&a, &b)));
            assert_eq!(bits(&a.matmul_tn_at(simd, &c)), bits(&reference::matmul_tn(&a, &c)));
            matvec(&small);
            assert_eq!(bits(&a.matmul_tn_at(simd, &c)), bits(&reference::matmul_tn(&a, &c)));
            matvec(&big);
        }
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
