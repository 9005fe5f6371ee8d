//! Cache-blocked compute kernels with a pinned accumulation order.
//!
//! The paper's experiments run "no optimized linear algebra library"; the
//! first PRs kept that spirit with scalar loops. This module adds the
//! blocked kernels the scheduler deserves — packed GEMM with an `MR × NR`
//! register tile, a blocked `trsm`, and a blocked panel factorization —
//! while preserving the repository's strongest invariant: **bitwise
//! determinism**. Cross-engine tests pin the parallel applications to the
//! sequential reference byte for byte, so a kernel may reorder *memory
//! traffic* freely but must never reorder *floating-point accumulation*.
//!
//! # The determinism contract
//!
//! Every kernel computes each output element through **one
//! multiply-accumulate chain in ascending `k` order, the multiply and the
//! add rounded separately on every host**:
//!
//! * [`gemm_blocked`] loads the `C` tile into registers, accumulates over
//!   the full inner dimension (`KC = K`, no partial products merged out of
//!   order), and folds `alpha` into the packed copy of `A` — exactly the
//!   arithmetic of the scalar `ikj` loop, element for element.
//! * [`trsm_blocked`] splits the row loop into blocks: updates from already
//!   solved rows arrive via one gemm call (`k` ascending), then the
//!   diagonal triangle finishes the chain (`x -= l·b` and `x += (−l)·b`
//!   are the same IEEE-754 operation).
//! * [`panel_lu_blocked`] halves the columns recursively (factor the left
//!   half, update the right half through the trsm triangle and one gemm,
//!   factor the right half) down to 16-column strips factored unblocked.
//!   A node's update brings in `k = lo..mid` after every `k < lo` its
//!   ancestors brought in and before any `k ≥ mid` its right half will, so
//!   each element still meets its `k` in ascending order — only the blocks
//!   of `k` change, not their order — and it has met all of them before a
//!   pivot scan reads it: every pivot decision sees exactly the unblocked
//!   values. Row swaps move whole panel rows, so a row's deferred updates
//!   travel with its multipliers.
//!
//! Consequently `gemm_blocked == gemm_scalar`, `trsm_blocked == the scalar
//! solve`, and `panel_lu_blocked == the unblocked panel LU` **exactly**
//! (`==` on the `f64` bit patterns), which the proptests in
//! `tests/proptest_kernels.rs` enforce. The naive `ijk` loop
//! ([`gemm_naive`]) is kept only as the benchmark baseline and the
//! ulp-bounded oracle — its accumulation order differs, so it is *not*
//! bit-comparable.
//!
//! The third clause — separate rounding — is what lets the same source run
//! on wider vector units (below) without moving a bit. Nothing here calls
//! `mul_add`, no `#[target_feature]` names `fma`, and rustc never
//! contracts a written-out `a * b + c` into a fused multiply-add on its
//! own — which is the part that carries the weight: `avx512f` *implies*
//! `fma` in the compiler's feature table, so the widest instantiation has
//! the instruction available and does not use it. A fused chain rounds
//! once where this one rounds twice, so it would differ in the last place
//! on ordinary data; the test `a_fused_multiply_add_would_differ` holds an
//! input where it differs outright, in every lane of every tile shape, so
//! a compiler or a flag that starts fusing fails a test by name.
//!
//! # Blocking scheme
//!
//! `B` is packed once into `NR`-column panels, `A` row-panel by row-panel
//! into `MR`-row panels with `alpha` pre-multiplied; the one tile function
//! keeps an `MR × NR` accumulator tile in registers and streams both
//! packed panels with unit stride, so the compiler autovectorizes the
//! inner loop to whatever lane width it is compiled for, without any
//! arch-specific intrinsic or `asm!`. Loads and stores of the tile are
//! guarded by the tile's real extent: a partial edge tile runs the same
//! loop, its pad lanes accumulate zeros and are never written back.
//!
//! # Lanes
//!
//! That tile function is compiled three times ([`Lanes`]), and every call
//! picks the widest instantiation the CPU it runs on reports:
//!
//! | level | lanes (`f64`) | gemm tile `MR × NR` |
//! |---|---|---|
//! | [`Lanes::Baseline`] | the build target's (2 on x86-64: SSE2) | 4 × 8 |
//! | [`Lanes::Avx2`] | 4 | 4 × 8 |
//! | [`Lanes::Avx512`] | 8 | 8 × 16 |
//!
//! The tile follows the lane width: 4 × 8 under AVX-512F is four
//! accumulator registers deep — every add waits for the one before it —
//! and measured no faster than AVX2; 8 × 16 is sixteen of the thirty-two
//! 512-bit registers. The short row loops — [`trsm_view`]'s diagonal
//! triangle, and [`panel_lu_blocked`]'s strips and triangles, whose gemm
//! calls still run at the full level — run under the same dispatch but
//! never above AVX2 (`ROW_LANES`): on ≤ 64 elements the 512-bit loop
//! spends more in its remainder than it saves, and the panel's body,
//! uncapped, took 2 % longer on a 512 × 64 panel and 1 % less on the
//! sixteen panels of a 1024 × 1024 LU at `r = 64`. The scalar references
//! ([`gemm_scalar`], [`gemm_naive`], [`panel_lu_naive`]) are never
//! dispatched: they are the oracle, at the oracle's lane width, so every
//! blocked-vs-scalar test is also a wide-vs-baseline test. Virtual time never sees any of this:
//! [`uses_blocked`] and `flops::*` are functions of the shape alone.
//!
//! Why a run-time dispatch and not `-C target-cpu=native`: a `NetEngine`
//! rank runs the master's binary, possibly on an older CPU, where a
//! natively tuned build dies with `SIGILL` instead of running two lanes
//! wide; and ranks on different CPUs still agree bit for bit because the
//! contract above does not depend on the level. The price is this crate's
//! only `unsafe`: the two calls in `on_lanes`, each of a
//! `#[target_feature]` wrapper under the detection that makes it sound.
//!
//! # Blocks where they lie
//!
//! [`gemm_acc`] and [`trsm_view`] take [`MatRef`] / [`MatMut`] views — a
//! block of a larger row-major buffer, rows a leading dimension apart —
//! and the `Matrix` entry points are thin wrappers over the same cores.
//! Where a block lies changes which addresses are read, never the order
//! of an element's chain, so the contract above holds for a sub-block
//! exactly as for a whole matrix (proptests: "kernels on views").

use crate::matrix::Matrix;
use crate::view::{MatMut, MatRef};

/// The vector unit a kernel call runs on: which of the three compiled
/// copies of the tile loop (module docs, "Lanes"). Ordered narrowest to
/// widest. The level changes how many elements one instruction covers,
/// never a bit of any element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lanes {
    /// The build target's own lanes (SSE2 on x86-64). The only level that
    /// runs on a CPU without AVX2 or on another architecture, and the
    /// lane width of the scalar oracles.
    Baseline,
    /// 256-bit lanes.
    Avx2,
    /// 512-bit lanes (AVX-512F), and the taller gemm tile that fills them.
    Avx512,
}

impl Lanes {
    /// The widest level the CPU this runs on reports (one cached atomic
    /// load per feature). `Avx512` only on a CPU that also reports AVX2,
    /// so every level at or below the result is safe to run.
    pub fn detect() -> Lanes {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return if std::arch::is_x86_feature_detected!("avx512f") {
                Lanes::Avx512
            } else {
                Lanes::Avx2
            };
        }
        Lanes::Baseline
    }
}

impl std::fmt::Display for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Lanes::Baseline => "baseline",
            Lanes::Avx2 => "avx2",
            Lanes::Avx512 => "avx512f",
        })
    }
}

/// The level every kernel call in this process runs at: [`Lanes::detect`].
/// Read-only — there is nothing to set; a benchmark or a test log prints
/// it to say which instantiation its numbers came from.
pub fn lanes() -> Lanes {
    Lanes::detect()
}

/// Cap on the short row loops (the trsm triangle, the panel's strips and
/// triangles): their rows are at most a block wide, and the 512 × 64
/// panel measured slower under AVX-512F than under AVX2.
const ROW_LANES: Lanes = Lanes::Avx2;

/// A loop nest the dispatch compiles once per level. Every `run` is
/// `#[inline(always)]`: being inlined into a `#[target_feature]` wrapper
/// is what compiles its loops for that wrapper's lanes, and a closure —
/// which cannot carry the attribute, and would be called from all three
/// wrappers — is left out of line at the baseline.
trait Body {
    type Out;
    /// Run at `lanes`, the level of the wrapper this is inlined into.
    fn run(self, lanes: Lanes) -> Self::Out;
}

/// The one dispatch point: run `body` compiled for `lanes`, or for the
/// widest level this CPU has if that is narrower. Off x86-64 only the
/// unconditional tail is left, and `lanes` has nothing to select.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline(always)]
fn on_lanes<B: Body>(lanes: Lanes, body: B) -> B::Out {
    #[cfg(target_arch = "x86_64")]
    match lanes.min(Lanes::detect()) {
        // SAFETY: the level is at most `Lanes::detect()`, which returns
        // `Avx512` only if the running CPU reports avx512f.
        Lanes::Avx512 => return unsafe { with_avx512(body) },
        // SAFETY: as above — `detect()` returns `Avx2` or wider only if
        // the running CPU reports avx2.
        Lanes::Avx2 => return unsafe { with_avx2(body) },
        Lanes::Baseline => {}
    }
    // The baseline instantiation: what runs on a CPU without AVX2 or off
    // x86, at the lane width of the scalar oracles.
    body.run(Lanes::Baseline)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn with_avx512<B: Body>(body: B) -> B::Out {
    body.run(Lanes::Avx512)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2<B: Body>(body: B) -> B::Out {
    body.run(Lanes::Avx2)
}

/// Problem volume (`m·n·k`) above which [`gemm_auto`] picks the packed
/// blocked path; below it the packing traffic outweighs the reuse.
pub const BLOCK_THRESHOLD: usize = 16 * 16 * 16;

/// Whether [`gemm_auto`] runs the blocked kernel for an `m×k · k×n`
/// product. Exposed so the FLOP accounting (`flops::gemm_cost`) can charge
/// packing traffic exactly when it happens.
pub fn uses_blocked(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= BLOCK_THRESHOLD
}

// --- scalar references --------------------------------------------------------

/// Textbook `ijk` GEMM (`C = alpha·A·B + beta·C`): the *naive* baseline.
///
/// Strided walks down columns of `B` in the innermost loop make this the
/// cache-hostile reference the benchmark's "naive vs blocked" comparison
/// and the ulp-bounded proptests measure against. Accumulation is still a
/// single `k`-ascending chain per element, but intermediate sums live in a
/// scalar rather than the `C` row, so it is only *mathematically* equal to
/// the other kernels.
pub fn gemm_naive(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, kdim, n) = check_dims(a.view(), b.view(), c.view());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..kdim {
                acc += a[(i, k)] * b[(k, j)];
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

/// Scalar `ikj` GEMM: the cache-friendly fallback and the bitwise
/// reference for [`gemm_blocked`].
///
/// The innermost loop runs along contiguous rows of `B` and `C` (unit
/// stride, autovectorizable). Per element the accumulation is
/// `c += (alpha·a[i,k]) · b[k,j]` for `k` ascending — the exact chain the
/// blocked kernel reproduces.
pub fn gemm_scalar(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    scale(beta, c.as_mut_slice());
    gemm_scalar_core(alpha, a.view(), b.view(), c.view_mut());
}

/// Packed blocked GEMM (`C = alpha·A·B + beta·C`), bitwise identical to
/// [`gemm_scalar`]. See the module docs for the blocking scheme and the
/// determinism contract.
pub fn gemm_blocked(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    scale(beta, c.as_mut_slice());
    gemm_blocked_core(Lanes::detect(), alpha, a.view(), b.view(), c.view_mut());
}

/// GEMM with automatic kernel selection: blocked above
/// [`BLOCK_THRESHOLD`], scalar `ikj` below. Both paths produce identical
/// bits, so the threshold is purely a performance knob.
pub fn gemm_auto(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    scale(beta, c.as_mut_slice());
    gemm_acc(alpha, a.view(), b.view(), c.view_mut());
}

/// `C += alpha·A·B` on views — the form every in-place step takes (the LU
/// trailing update, a matmul tile), with the kernel selection of
/// [`gemm_auto`]: the operands stay where they lie, and each element of
/// `C` continues its one ascending-`k` chain.
pub fn gemm_acc(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    if uses_blocked(a.rows, b.cols, a.cols) {
        gemm_blocked_core(Lanes::detect(), alpha, a, b, c);
    } else {
        gemm_scalar_core(alpha, a, b, c);
    }
}

fn check_dims(a: MatRef<'_>, b: MatRef<'_>, c: MatRef<'_>) -> (usize, usize, usize) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!(c.rows, a.rows, "C rows");
    assert_eq!(c.cols, b.cols, "C cols");
    (a.rows, a.cols, b.cols)
}

fn scale(beta: f64, c: &mut [f64]) {
    if beta != 1.0 {
        for v in c {
            *v *= beta;
        }
    }
}

// --- cores --------------------------------------------------------------------
//
// `C += alpha·A·B` with no beta pass. Each core unpacks its views into raw
// row-major slices and leading dimensions (`ld*` = row stride) once, so
// the loops index exactly as they would over whole matrices. The blocked
// cores take the level to run at; production passes `Lanes::detect()`,
// the tests in this file every level at or below it.

/// `C += alpha·A·B` in scalar `ikj` order. Never dispatched: this is the
/// oracle, compiled for the build target's lanes only.
fn gemm_scalar_core(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    let (m, kdim, n) = check_dims(a, b, c.view());
    let (lda, ldb, ldc) = (a.ld, b.ld, c.ld);
    let (a, b, c) = (a.data, b.data, c.data);
    for i in 0..m {
        let c_row = &mut c[i * ldc..i * ldc + n];
        for k in 0..kdim {
            let aik = alpha * a[i * lda + k];
            let b_row = &b[k * ldb..k * ldb + n];
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

/// `C += alpha·A·B` through the packed tile loop at `lanes`, bitwise
/// identical to [`gemm_scalar_core`] at every level.
fn gemm_blocked_core(lanes: Lanes, alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    check_dims(a, b, c.view());
    let a = Lhs::Apart(a);
    on_lanes(lanes, PackedGemm { alpha, a, b, c });
}

/// [`gemm_blocked_core`] with `A` in the same rows as `C`: `A` is the
/// first `b.rows()` columns of `ac`, `C` the rest. The panel's `L21` and
/// the strip it updates lie so; `A` is packed straight from those rows,
/// each row panel before the tiles of the same rows are written.
fn gemm_beside_core(lanes: Lanes, alpha: f64, b: MatRef<'_>, ac: MatMut<'_>) {
    assert_eq!(ac.cols, b.rows + b.cols, "A and C side by side");
    let (a, c) = (Lhs::Beside, ac);
    on_lanes(lanes, PackedGemm { alpha, a, b, c });
}

/// Where a packed gemm reads `A`.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// A block of its own.
    Apart(MatRef<'a>),
    /// The leading `B.rows()` columns of the view `C` is in (see
    /// [`gemm_beside_core`]).
    Beside,
}

struct PackedGemm<'a> {
    alpha: f64,
    a: Lhs<'a>,
    b: MatRef<'a>,
    c: MatMut<'a>,
}

impl Body for PackedGemm<'_> {
    type Out = ();
    /// The tile shapes of the module docs' table.
    #[inline(always)]
    fn run(self, lanes: Lanes) {
        let Self { alpha, a, b, c } = self;
        match lanes {
            Lanes::Avx512 => gemm_packed::<8, 16>(alpha, a, b, c),
            Lanes::Avx2 | Lanes::Baseline => gemm_packed::<4, 8>(alpha, a, b, c),
        }
    }
}

/// The packed gemm, written once for any `MR × NR` register tile and
/// inlined into each of [`on_lanes`]' three levels: pack `B`, then per `MR`
/// rows of `A` pack them and sweep one [`tile`] per column panel.
#[inline(always)]
fn gemm_packed<const MR: usize, const NR: usize>(
    alpha: f64,
    a: Lhs<'_>,
    b: MatRef<'_>,
    c: MatMut<'_>,
) {
    let (m, kdim, n) = (c.rows, b.rows, b.cols);
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    // Column of `c`'s view where `C` starts: past `A` when it lies beside.
    let c0 = match a {
        Lhs::Apart(_) => 0,
        Lhs::Beside => kdim,
    };
    let (ldb, ldc) = (b.ld, c.ld);
    let (b, c) = (b.data, c.data);
    // Pack B once: NR-column panels, k-major, zero-padded to full NR.
    let n_panels = n.div_ceil(NR);
    let mut bp = vec![0.0f64; n_panels * kdim * NR];
    for q in 0..n_panels {
        let j0 = q * NR;
        let nr = NR.min(n - j0);
        let panel = &mut bp[q * kdim * NR..(q + 1) * kdim * NR];
        for k in 0..kdim {
            let src = &b[k * ldb + j0..k * ldb + j0 + nr];
            panel[k * NR..k * NR + nr].copy_from_slice(src);
        }
    }
    // Row-panel loop over A: pack MR rows (alpha folded in), sweep the B
    // panels, one register tile per (row panel, column panel) pair.
    let mut ap = vec![0.0f64; kdim * MR];
    for p in 0..m.div_ceil(MR) {
        let i0 = p * MR;
        let mr = MR.min(m - i0);
        if mr < MR {
            // Only the last, partial panel has pad rows; a full one
            // overwrites every element it would zero.
            ap.fill(0.0);
        }
        for i in 0..mr {
            let src = match a {
                Lhs::Apart(a) => &a.data[(i0 + i) * a.ld..][..kdim],
                Lhs::Beside => &c[(i0 + i) * ldc..][..kdim],
            };
            for (k, &v) in src.iter().enumerate() {
                ap[k * MR + i] = alpha * v;
            }
        }
        for q in 0..n_panels {
            let j0 = q * NR;
            let nr = NR.min(n - j0);
            let bpanel = &bp[q * kdim * NR..(q + 1) * kdim * NR];
            let ctile = &mut c[i0 * ldc + c0 + j0..];
            if mr == MR && nr == NR {
                // The same function with its guards known at compile time:
                // they fold away and the tile stays in registers.
                tile::<MR, NR>(kdim, &ap, bpanel, ctile, ldc, MR, NR);
            } else {
                tile::<MR, NR>(kdim, &ap, bpanel, ctile, ldc, mr, nr);
            }
        }
    }
}

/// One `MR × NR` register tile, of which `mr × nr` is real: load `C`,
/// accumulate the whole `k` range with unit-stride packed operands, store
/// back. One chain per element; pad lanes start at zero, accumulate padded
/// zeros, and are never written back.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    kdim: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
    }
    for k in 0..kdim {
        let av = &ap[k * MR..k * MR + MR];
        let bv = &bp[k * NR..k * NR + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let aik = av[i];
            for (cv, b) in row.iter_mut().zip(bv) {
                *cv += aik * b;
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        c[i * ldc..i * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

// --- blocked trsm -------------------------------------------------------------

/// Row-block size of [`trsm_blocked`].
pub const TRSM_BLOCK: usize = 32;

/// Solve `L · X = B` in place of `B` (`L` unit lower triangular, only the
/// strict lower part read), row-blocked: each block first receives the
/// update from all already-solved rows through one gemm call, then the
/// diagonal triangle finishes scalar. Per element the subtraction chain is
/// `k = 0..i` ascending — bitwise identical to the unblocked solve.
pub fn trsm_blocked(l: &Matrix, b: &mut Matrix) {
    trsm_view(l.view(), b.view_mut());
}

/// [`trsm_blocked`] on views: `L` is read and `B` solved where they lie —
/// `L11` in a token's panel, `U_kj` in the rows of its owner's column.
pub fn trsm_view(l: MatRef<'_>, b: MatMut<'_>) {
    trsm_core(Lanes::detect(), l, b);
}

/// [`trsm_view`] at `lanes`: the gemm calls at that level, the diagonal
/// triangle's row loop at no more than [`ROW_LANES`].
fn trsm_core(lanes: Lanes, l: MatRef<'_>, b: MatMut<'_>) {
    assert_eq!(l.cols, l.rows, "L must be square");
    assert_eq!(b.rows, l.rows, "dimension mismatch");
    on_lanes(lanes.min(ROW_LANES), BlockedTrsm { lanes, l, b });
}

struct BlockedTrsm<'a> {
    /// Level of the gemm calls (the body itself runs at `ROW_LANES`).
    lanes: Lanes,
    l: MatRef<'a>,
    b: MatMut<'a>,
}

impl Body for BlockedTrsm<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self, _: Lanes) {
        let Self { lanes, l, mut b } = self;
        let (n, cols, ldl, ldb) = (l.rows, b.cols, l.ld, b.ld);
        let mut i0 = 0;
        while i0 < n {
            let tb = TRSM_BLOCK.min(n - i0);
            if i0 > 0 {
                // B[i0..i0+tb] += (−1) · L[i0..i0+tb, 0..i0] · B[0..i0]
                let (solved, rest) = b.view_mut().split_rows_mut(i0);
                gemm_blocked_core(
                    lanes,
                    -1.0,
                    l.block(i0, 0, tb, i0),
                    solved.view(),
                    rest.block(0, 0, tb, cols),
                );
            }
            // Diagonal triangle: forward substitution inside the block.
            for i in i0 + 1..i0 + tb {
                for k in i0..i {
                    let lik = l.data[i * ldl + k];
                    let (top, row_i) = b.data.split_at_mut(i * ldb);
                    let row_k = &top[k * ldb..k * ldb + cols];
                    for (x, bk) in row_i[..cols].iter_mut().zip(row_k) {
                        *x -= lik * bk;
                    }
                }
            }
            i0 += tb;
        }
    }
}

// --- blocked panel factorization ---------------------------------------------

/// Width of [`panel_lu_blocked`]'s base case, and the grain of its
/// splits: every split lies on a multiple of it, so the update of a
/// panel whose width is a multiple of it runs on full gemm tiles.
const PANEL_STRIP: usize = 16;

/// Rows of a strip column updated at a time, in registers.
const STRIP_ROWS: usize = 32;

/// Unblocked rectangular panel LU with partial pivoting — the bitwise
/// reference for [`panel_lu_blocked`] and the oracle of its proptests.
/// Identical to the historical scalar loop except that zero multipliers
/// are *not* skipped, so the blocked kernel (which cannot skip inside a
/// gemm) matches it bit for bit even in signed-zero corners.
pub fn panel_lu_naive(panel: &mut Matrix) -> Vec<usize> {
    let m = panel.rows();
    let r = panel.cols();
    assert!(m >= r, "panel must be at least as tall as wide");
    let mut pivots = Vec::with_capacity(r);
    for k in 0..r {
        let p = pivot_row(panel, k, m);
        panel.swap_rows(k, p);
        pivots.push(p);
        let akk = panel[(k, k)];
        for i in k + 1..m {
            let lik = panel[(i, k)] / akk;
            panel[(i, k)] = lik;
            for j in k + 1..r {
                let upd = lik * panel[(k, j)];
                panel[(i, j)] -= upd;
            }
        }
    }
    pivots
}

/// Partial-pivot search in column `k`, rows `k..m`; panics on a singular
/// column (same contract as the historical scalar panel LU).
fn pivot_row(panel: &Matrix, k: usize, m: usize) -> usize {
    let mut p = k;
    let mut best = panel[(k, k)].abs();
    for i in k + 1..m {
        let v = panel[(i, k)].abs();
        if v > best {
            best = v;
            p = i;
        }
    }
    assert!(best > 0.0, "panel is singular at column {k}");
    p
}

/// Recursive rectangular panel LU with partial pivoting, bitwise identical
/// to [`panel_lu_naive`] (recursive LU after Toledo, 1997; LAPACK's
/// `dgetrf2`). The columns are halved at a multiple of a 16-column strip
/// until a half is one strip wide; a node factors its left half, finishes
/// the rows above its split with the trsm triangle, updates every row
/// below with one gemm whose inner dimension is the left half's width,
/// then factors its right half. A strip is factored unblocked in one
/// column-major copy per call, its row swaps applied to whole panel rows,
/// and the gemm reads `L21` where it lies. Every element still
/// accumulates in ascending `k` order, and every pivot decision sees
/// exactly the unblocked values.
pub fn panel_lu_blocked(panel: &mut Matrix) -> Vec<usize> {
    panel_lu_core(Lanes::detect(), panel)
}

/// [`panel_lu_blocked`] at `lanes`: the gemm calls at that level, the
/// strip and triangle loops at no more than [`ROW_LANES`].
fn panel_lu_core(lanes: Lanes, panel: &mut Matrix) -> Vec<usize> {
    assert!(
        panel.rows() >= panel.cols(),
        "panel must be at least as tall as wide"
    );
    on_lanes(lanes.min(ROW_LANES), RecursivePanelLu { lanes, panel })
}

struct RecursivePanelLu<'a> {
    /// Level of the gemm calls (the body itself runs at `ROW_LANES`).
    lanes: Lanes,
    panel: &'a mut Matrix,
}

impl Body for RecursivePanelLu<'_> {
    type Out = Vec<usize>;
    /// The halving tree in post-order, without recursion: a recursive
    /// function is not inlined, so its inner levels would run at the
    /// baseline instead of this wrapper's lanes. The tree's leaves are the
    /// strips `c0..c0 + PANEL_STRIP`, left to right, and the one node to
    /// update after a strip is the one whose split is where it ends.
    #[inline(always)]
    fn run(self, _: Lanes) -> Vec<usize> {
        let Self { lanes, panel } = self;
        let (m, r) = (panel.rows(), panel.cols());
        let mut pivots = Vec::with_capacity(r);
        // One column-major copy serves every strip.
        let mut strip = vec![0.0f64; m * PANEL_STRIP.min(r)];
        let mut c0 = 0;
        while c0 < r {
            let c1 = (c0 + PANEL_STRIP).min(r);
            factor_strip(panel, c0, c1, &mut strip, &mut pivots);
            if c1 < r {
                let (lo, hi) = node_split_at(r, c1);
                update_right_half(lanes, panel, lo, c1, hi);
            }
            c0 = c1;
        }
        pivots
    }
}

/// The columns `lo..hi` of the node of the halving tree over `0..r` that
/// splits at `at`, a strip boundary inside the panel. A node wider than
/// one strip splits after half its strips, rounded down; its `lo` is a
/// strip boundary, so its split is one too.
#[inline(always)]
fn node_split_at(r: usize, at: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (0, r);
    loop {
        let mid = lo + (hi - lo).div_ceil(PANEL_STRIP) / 2 * PANEL_STRIP;
        match at.cmp(&mid) {
            std::cmp::Ordering::Less => hi = mid,
            std::cmp::Ordering::Greater => lo = mid,
            std::cmp::Ordering::Equal => return (lo, hi),
        }
    }
}

/// A leaf: columns `c0..c1` of rows `c0..` factored unblocked in a
/// column-major copy, left-looking — a column takes the rest of its chains
/// (`k = c0..j`: forward substitution above the diagonal, [`STRIP_ROWS`]
/// rows at a time in registers below it) just before its pivot scan and
/// division, each run down one contiguous column. Every element gets the
/// oracle's operations in the oracle's order; only the order *between*
/// elements differs. A row swap swaps the copy's rows and the panel's
/// whole rows (the strip's own columns there are stale until the copy is
/// written back).
#[inline(always)]
fn factor_strip(
    panel: &mut Matrix,
    c0: usize,
    c1: usize,
    strip: &mut [f64],
    pivots: &mut Vec<usize>,
) {
    let r = panel.cols();
    let (h, w) = (panel.rows() - c0, c1 - c0);
    let strip = &mut strip[..h * w];
    // Eight rows at a time, so each column of the copy is written a whole
    // cache line at a time.
    let mut blocks = panel.as_slice()[c0 * r..].chunks_exact(8 * r);
    for (b, rows) in (&mut blocks).enumerate() {
        for (j, col) in strip.chunks_exact_mut(h).enumerate() {
            for (a, x) in col[8 * b..8 * b + 8].iter_mut().enumerate() {
                *x = rows[a * r + c0 + j];
            }
        }
    }
    let i0 = h - blocks.remainder().len() / r;
    for (i, row) in blocks.remainder().chunks_exact(r).enumerate() {
        for (j, &v) in row[c0..c1].iter().enumerate() {
            strip[j * h + i0 + i] = v;
        }
    }
    for j in 0..w {
        let (left, right) = strip.split_at_mut(j * h);
        let (u, lower) = right[..h].split_at_mut(j);
        // Above the diagonal: forward substitution with the strip's `L`.
        for i in 1..j {
            let (done, x) = u.split_at_mut(i);
            let mut xi = x[0];
            for (k, &uk) in done.iter().enumerate() {
                xi -= left[k * h + i] * uk;
            }
            x[0] = xi;
        }
        // From the diagonal down: the same chains, a register block of
        // rows at a time, then the rows left over.
        let mut rows = lower.chunks_exact_mut(STRIP_ROWS);
        for (c, x) in (&mut rows).enumerate() {
            let i0 = j + c * STRIP_ROWS;
            let mut acc = [0.0f64; STRIP_ROWS];
            acc.copy_from_slice(x);
            for (k, &uk) in u.iter().enumerate() {
                for (a, l) in acc.iter_mut().zip(&left[k * h + i0..][..STRIP_ROWS]) {
                    *a -= l * uk;
                }
            }
            x.copy_from_slice(&acc);
        }
        let tail = rows.into_remainder();
        let i0 = h - tail.len();
        for (t, x) in tail.iter_mut().enumerate() {
            for (k, &uk) in u.iter().enumerate() {
                *x -= left[k * h + i0 + t] * uk;
            }
        }
        let p = j + first_max(lower, c0 + j);
        pivots.push(c0 + p);
        if p != j {
            panel.swap_rows(c0 + j, c0 + p);
            for col in strip.chunks_exact_mut(h) {
                col.swap(j, p);
            }
        }
        let col = &mut strip[j * h + j..(j + 1) * h];
        let ajj = col[0];
        for x in &mut col[1..] {
            *x /= ajj;
        }
    }
    for (i, row) in panel.as_mut_slice()[c0 * r..]
        .chunks_exact_mut(r)
        .enumerate()
    {
        for (j, v) in row[c0..c1].iter_mut().enumerate() {
            *v = strip[j * h + i];
        }
    }
}

/// [`pivot_row`] on a contiguous column: the offset of its first element
/// of largest magnitude, the column named `column` if that is not above
/// zero. Two passes — a lane-wise maximum the compiler vectorizes, then
/// the first element equal to it — with `pivot_row`'s answer: a NaN is
/// never larger, so a NaN in first place is singular and one elsewhere is
/// passed over, and a tie goes to the earlier row.
#[inline(always)]
fn first_max(col: &[f64], column: usize) -> usize {
    const WAYS: usize = 8;
    let mut acc = [0.0f64; WAYS];
    let chunks = col.chunks_exact(WAYS);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (b, v) in acc.iter_mut().zip(chunk) {
            let v = v.abs();
            if v > *b {
                *b = v;
            }
        }
    }
    let best = acc
        .into_iter()
        .chain(tail.iter().map(|v| v.abs()))
        .fold(col[0].abs(), |b, v| if v > b { v } else { b });
    assert!(best > 0.0, "panel is singular at column {column}");
    col.iter()
        .position(|v| v.abs() == best)
        .expect("the maximum is an element of the column")
}

/// The update at a node's split `mid`, once its left half `lo..mid` is
/// factored: the rows `lo..mid` of its right half `mid..hi` continue their
/// chains with `k = lo..i` (the trsm triangle), and every row below takes
/// `k = lo..mid` through one gemm whose `A` is its own columns `lo..mid`.
#[inline(always)]
fn update_right_half(lanes: Lanes, panel: &mut Matrix, lo: usize, mid: usize, hi: usize) {
    let (m, r) = (panel.rows(), panel.cols());
    for i in lo + 1..mid {
        let (top, rest) = panel.as_mut_slice().split_at_mut(i * r);
        let row_i = &mut rest[..r];
        for (k, row_k) in top.chunks_exact(r).enumerate().skip(lo) {
            let lik = row_i[k];
            for (x, u) in row_i[mid..hi].iter_mut().zip(&row_k[mid..hi]) {
                *x -= lik * u;
            }
        }
    }
    let (top, below) = panel.view_mut().split_rows_mut(mid);
    gemm_beside_core(
        lanes,
        -1.0,
        top.view().block(lo, mid, mid - lo, hi - mid),
        below.block(0, lo, m - mid, hi - lo),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: element {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn blocked_gemm_is_bitwise_scalar() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 8, 8), (13, 9, 17), (32, 32, 32)] {
            let a = Matrix::random_general(m, k, 1 + (m * k) as u64);
            let b = Matrix::random_general(k, n, 2 + (k * n) as u64);
            let mut c1 = Matrix::random_general(m, n, 3);
            let mut c2 = c1.clone();
            gemm_scalar(-0.5, &a, &b, 0.25, &mut c1);
            gemm_blocked(-0.5, &a, &b, 0.25, &mut c2);
            assert_bits_eq(&c1, &c2, "gemm m×k×n");
        }
    }

    #[test]
    fn blocked_gemm_matches_naive_numerically() {
        let a = Matrix::random_general(20, 15, 4);
        let b = Matrix::random_general(15, 11, 5);
        let mut c1 = Matrix::zeros(20, 11);
        let mut c2 = Matrix::zeros(20, 11);
        gemm_naive(1.0, &a, &b, 0.0, &mut c1);
        gemm_blocked(1.0, &a, &b, 0.0, &mut c2);
        let mut d = c1.clone();
        d.sub_assign(&c2);
        assert!(d.max_abs() < 1e-12, "diff {}", d.max_abs());
    }

    #[test]
    fn trsm_blocked_is_bitwise_forward_substitution() {
        for n in [1usize, 7, 32, 33, 70] {
            let mut l = Matrix::random_general(n, n, 6 + n as u64);
            for i in 0..n {
                l[(i, i)] = 1.0;
            }
            let b0 = Matrix::random_general(n, 5, 7 + n as u64);
            let mut b1 = b0.clone();
            // Unblocked reference: plain forward substitution, k ascending.
            for i in 0..n {
                for k in 0..i {
                    let lik = l[(i, k)];
                    for j in 0..5 {
                        let upd = lik * b1[(k, j)];
                        b1[(i, j)] -= upd;
                    }
                }
            }
            let mut b2 = b0.clone();
            trsm_blocked(&l, &mut b2);
            assert_bits_eq(&b1, &b2, "trsm n");
        }
    }

    #[test]
    fn panel_lu_blocked_is_bitwise_naive() {
        for (m, r) in [(4, 4), (12, 5), (40, 16), (33, 20)] {
            let p0 = Matrix::random_general(m, r, 11 + (m + r) as u64);
            let mut p1 = p0.clone();
            let mut p2 = p0.clone();
            let piv1 = panel_lu_naive(&mut p1);
            let piv2 = panel_lu_blocked(&mut p2);
            assert_eq!(piv1, piv2, "pivots m={m} r={r}");
            assert_bits_eq(&p1, &p2, "panel m×r");
        }
    }

    #[test]
    fn gemm_auto_threshold_is_bit_invisible() {
        // Both sides of the threshold compute identical bits.
        let a = Matrix::random_general(16, 16, 21);
        let b = Matrix::random_general(16, 16, 22);
        let mut c1 = Matrix::zeros(16, 16);
        let mut c2 = Matrix::zeros(16, 16);
        gemm_scalar(1.0, &a, &b, 0.0, &mut c1);
        gemm_auto(1.0, &a, &b, 0.0, &mut c2);
        assert_bits_eq(&c1, &c2, "auto dispatch");
        assert!(uses_blocked(16, 16, 16));
        assert!(!uses_blocked(15, 15, 15));
    }

    // --- every level this host has, against the baseline oracles -----------------
    //
    // Production only ever runs `Lanes::detect()`; these run each level at
    // or below it, on blocks at `AT` inside a larger buffer (offset > 0,
    // leading dimension > cols), and compare bits with the undispatched
    // scalar code.

    fn levels() -> impl Iterator<Item = Lanes> {
        [Lanes::Baseline, Lanes::Avx2, Lanes::Avx512]
            .into_iter()
            .filter(|&l| l <= Lanes::detect())
    }

    const AT: (usize, usize) = (2, 3);

    /// A buffer with a `rows × cols` block at `AT`, one spare row below it
    /// and two spare columns to its right.
    fn framed(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::random_general(AT.0 + rows + 1, AT.1 + cols + 2, seed)
    }

    fn blk(m: &Matrix, rows: usize, cols: usize) -> MatRef<'_> {
        m.view().block(AT.0, AT.1, rows, cols)
    }

    fn blk_mut(m: &mut Matrix, rows: usize, cols: usize) -> MatMut<'_> {
        m.view_mut().block(AT.0, AT.1, rows, cols)
    }

    fn assert_frame_untouched(
        before: &Matrix,
        after: &Matrix,
        rows: usize,
        cols: usize,
        what: &str,
    ) {
        for i in 0..before.rows() {
            for j in 0..before.cols() {
                let inside = (AT.0..AT.0 + rows).contains(&i) && (AT.1..AT.1 + cols).contains(&j);
                assert!(
                    inside || before[(i, j)].to_bits() == after[(i, j)].to_bits(),
                    "{what}: ({i}, {j}) lies outside the block and changed"
                );
            }
        }
    }

    /// The CI log's record of which instantiations this runner exercised
    /// (`cargo test -p dps-linalg lanes_report -- --nocapture`).
    #[test]
    fn lanes_report() {
        let ran: Vec<String> = levels().map(|l| l.to_string()).collect();
        println!(
            "dps-linalg kernels run at `{}` on this host; levels tested: {}",
            lanes(),
            ran.join(", ")
        );
        assert_eq!(lanes(), Lanes::detect());
        assert_eq!(ran[0], "baseline");
    }

    #[test]
    fn gemm_at_every_level_is_bitwise_the_scalar_core() {
        // Shapes straddle both tile shapes (4 × 8, 8 × 16) and
        // `BLOCK_THRESHOLD`; the blocked core is called directly, so it
        // also runs the shapes `gemm_acc` would hand to the scalar one.
        for lanes in levels() {
            for m in [1, 3, 4, 7, 8, 9, 15, 16, 17, 33] {
                for n in [1, 7, 8, 9, 15, 16, 17, 31, 33] {
                    for k in [1, 2, 8, 17, 64] {
                        let seed = (m * 10_000 + n * 100 + k) as u64;
                        let a = framed(m, k, seed);
                        let b = framed(k, n, seed + 1);
                        let c0 = framed(m, n, seed + 2);
                        for alpha in [1.0, -1.0, 0.5] {
                            let what = format!("{lanes} gemm {m}×{k}×{n} alpha {alpha}");
                            let (mut want, mut got) = (c0.clone(), c0.clone());
                            let (av, bv) = (blk(&a, m, k), blk(&b, k, n));
                            gemm_scalar_core(alpha, av, bv, blk_mut(&mut want, m, n));
                            gemm_blocked_core(lanes, alpha, av, bv, blk_mut(&mut got, m, n));
                            assert_bits_eq(&want, &got, &what);
                            assert_frame_untouched(&c0, &got, m, n, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_at_every_level_is_bitwise_forward_substitution() {
        for lanes in levels() {
            for n in [1, 7, 31, 32, 33, 64, 70] {
                for cols in [1, 5, 8, 17, 33] {
                    let what = format!("{lanes} trsm n={n} cols={cols}");
                    let l = framed(n, n, 6 + n as u64);
                    let b0 = framed(n, cols, 7 + (n * cols) as u64);
                    let mut want = b0.clone();
                    for i in 0..n {
                        for k in 0..i {
                            let lik = l[(AT.0 + i, AT.1 + k)];
                            for j in 0..cols {
                                let upd = lik * want[(AT.0 + k, AT.1 + j)];
                                want[(AT.0 + i, AT.1 + j)] -= upd;
                            }
                        }
                    }
                    let mut got = b0.clone();
                    trsm_core(lanes, blk(&l, n, n), blk_mut(&mut got, n, cols));
                    assert_bits_eq(&want, &got, &what);
                    assert_frame_untouched(&b0, &got, n, cols, &what);
                }
            }
        }
    }

    #[test]
    fn gemm_beside_at_every_level_is_the_gemm_on_a_copy_of_a() {
        // `A` in the leading columns of `C`'s own rows, under a row split
        // of the buffer `B` lies above — the panel's update.
        for lanes in levels() {
            for (m, k, n) in [
                (1, 1, 1),
                (9, 16, 16),
                (33, 16, 32),
                (70, 32, 17),
                (7, 3, 40),
            ] {
                let what = format!("{lanes} gemm beside {m}×{k}×{n}");
                let w0 = framed(k + m, k + n, (m * 100 + k * 10 + n) as u64);
                let mut want = w0.clone();
                let a = want.block(AT.0 + k, AT.1, m, k);
                let (above, below) = want.view_mut().split_rows_mut(AT.0 + k);
                let b = above.view().block(AT.0, AT.1 + k, k, n);
                gemm_scalar_core(-1.0, a.view(), b, below.block(0, AT.1 + k, m, n));
                let mut got = w0.clone();
                let (above, below) = got.view_mut().split_rows_mut(AT.0 + k);
                let b = above.view().block(AT.0, AT.1 + k, k, n);
                gemm_beside_core(lanes, -1.0, b, below.block(0, AT.1, m, k + n));
                assert_bits_eq(&want, &got, &what);
                assert_frame_untouched(&w0, &got, k + m, k + n, &what);
            }
        }
    }

    #[test]
    fn panel_lu_at_every_level_is_bitwise_naive() {
        // One strip, one split, two levels, and widths off the strip grain.
        let shapes = [
            (1, 1),
            (4, 4),
            (12, 5),
            (16, 16),
            (17, 16),
            (33, 17),
            (40, 16),
            (33, 20),
            (64, 64),
            (96, 32),
            (70, 64),
            (200, 80),
            (512, 32),
            (960, 64),
            (1024, 64),
        ];
        for lanes in levels() {
            for (m, r) in shapes {
                let p0 = Matrix::random_general(m, r, 11 + (m + r) as u64);
                let (mut p1, mut p2) = (p0.clone(), p0.clone());
                let piv1 = panel_lu_naive(&mut p1);
                let piv2 = panel_lu_core(lanes, &mut p2);
                assert_eq!(piv1, piv2, "{lanes} pivots m={m} r={r}");
                assert_bits_eq(&p1, &p2, &format!("{lanes} panel {m}×{r}"));
            }
        }
    }

    /// The message a panel LU panics with, or `None` if it returns.
    fn panic_of(lu: impl FnOnce() -> Vec<usize>) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(lu)).err()?;
        Some(match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| s.to_string()),
        })
    }

    #[test]
    fn a_singular_panel_panics_at_the_naive_column() {
        // A zero column stays zero under every update (0 − l·0), so the
        // elimination reaches it with nothing to pivot on. A NaN on the
        // diagonal is never "larger" than anything, so the scan keeps it
        // and it is singular too: a NaN in row `i` of column 0 is passed
        // over there, turns row `i` NaN, and is on the diagonal at step
        // `i` (a row moves only when it is the pivot or the step's own).
        let (m, r) = (50, 40);
        for (col, nan) in [
            (0, false),
            (5, false),
            (16, false),
            (17, false),
            (39, false),
            (0, true),
            (20, true),
        ] {
            let mut p0 = Matrix::random_general(m, r, 70 + col as u64);
            if nan {
                p0[(col, 0)] = f64::NAN;
            } else {
                for i in 0..m {
                    p0[(i, col)] = 0.0;
                }
            }
            let want = panic_of(|| panel_lu_naive(&mut p0.clone()));
            assert_eq!(
                want.as_deref(),
                Some(format!("panel is singular at column {col}").as_str())
            );
            for lanes in levels() {
                let got = panic_of(|| panel_lu_core(lanes, &mut p0.clone()));
                assert_eq!(got, want, "{lanes}: column {col}, NaN {nan}");
            }
        }
    }

    #[test]
    fn a_nan_below_the_diagonal_is_passed_over_as_the_naive_scan_does() {
        // A NaN turns its whole row NaN, and a NaN row that reached the
        // diagonal would be singular there: these rows lie below the last
        // step. Ties, too: equal magnitudes go to the earlier row.
        let (m, r) = (60, 33);
        let mut p0 = Matrix::random_general(m, r, 91);
        p0[(45, 0)] = f64::NAN;
        p0[(40, 20)] = f64::NAN;
        for (i, v) in [(3, -2.0), (30, 2.0), (50, -2.0)] {
            p0[(i, 0)] = v;
        }
        for lanes in levels() {
            let (mut p1, mut p2) = (p0.clone(), p0.clone());
            let pivots = panel_lu_naive(&mut p1);
            assert_eq!(pivots[0], 3, "the first of the tied rows");
            assert_eq!(pivots, panel_lu_core(lanes, &mut p2), "{lanes}");
            for (i, (x, y)) in p1.as_slice().iter().zip(p2.as_slice()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "{lanes}: element {i} differs: {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn a_fused_multiply_add_would_differ() {
        // c + a·b with c = −1, a = 1 + 2⁻³⁰, b = 1 − 2⁻³⁰: the product is
        // 1 − 2⁻⁶⁰, which rounds to 1, so a rounded multiply then a rounded
        // add give exactly 0; a fused multiply-add keeps the 2⁻⁶⁰ and gives
        // −2⁻⁶⁰. 19 × 37 puts that input in every lane of full tiles and of
        // edge tiles of both tile shapes.
        let eps = 2.0f64.powi(-30);
        let (a, b) = (1.0 + eps, 1.0 - eps);
        assert_eq!(a * b - 1.0, 0.0);
        assert_eq!(a.mul_add(b, -1.0), -(2.0f64.powi(-60)));
        let (m, n) = (19, 37);
        let av = Matrix::from_fn(m, 1, |_, _| a);
        let bv = Matrix::from_fn(1, n, |_, _| b);
        for lanes in levels() {
            let mut c = Matrix::from_fn(m, n, |_, _| -1.0);
            gemm_blocked_core(lanes, 1.0, av.view(), bv.view(), c.view_mut());
            for (i, v) in c.as_slice().iter().enumerate() {
                assert!(
                    v.to_bits() == 0.0f64.to_bits(),
                    "{lanes}: element {i} is {v:e}, not 0: the multiply and the add were fused"
                );
            }
        }
    }
}
