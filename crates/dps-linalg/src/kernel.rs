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
//! multiply-accumulate chain in ascending `k` order**:
//!
//! * [`gemm_blocked`] loads the `C` tile into registers, accumulates over
//!   the full inner dimension (`KC = K`, no partial products merged out of
//!   order), and folds `alpha` into the packed copy of `A` — exactly the
//!   arithmetic of the scalar `ikj` loop, element for element.
//! * [`trsm_blocked`] splits the row loop into blocks: updates from already
//!   solved rows arrive via one gemm call (`k` ascending), then the
//!   diagonal triangle finishes the chain (`x -= l·b` and `x += (−l)·b`
//!   are the same IEEE-754 operation).
//! * [`panel_lu_blocked`] is right-looking with an inner column block:
//!   pivot decisions see exactly the values the unblocked elimination
//!   would, because deferred right-strip updates are applied in ascending
//!   `k` blocks before each sub-panel is factored.
//!
//! Consequently `gemm_blocked == gemm_scalar`, `trsm_blocked == the scalar
//! solve`, and `panel_lu_blocked == the unblocked panel LU` **exactly**
//! (`==` on the `f64` bit patterns), which the proptests in
//! `tests/proptest_kernels.rs` enforce. The naive `ijk` loop
//! ([`gemm_naive`]) is kept only as the benchmark baseline and the
//! ulp-bounded oracle — its accumulation order differs, so it is *not*
//! bit-comparable.
//!
//! # Blocking scheme
//!
//! `B` is packed once into `NR`-column panels, `A` row-panel by row-panel
//! into `MR`-row panels with `alpha` pre-multiplied; the microkernel keeps
//! an `MR × NR` accumulator tile in registers and streams both packed
//! panels with unit stride, so the compiler autovectorizes the inner loop
//! (two `f64` lanes on baseline x86-64) without any arch-specific
//! intrinsics. Partial edge tiles run the same loop with guarded loads and
//! stores — the pad lanes accumulate zeros and are never written back.
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

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` held in registers).
pub const NR: usize = 8;

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
    gemm_blocked_core(alpha, a.view(), b.view(), c.view_mut());
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
        gemm_blocked_core(alpha, a, b, c);
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
// the loops index exactly as they would over whole matrices.

/// `C += alpha·A·B` in scalar `ikj` order.
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

/// `C += alpha·A·B` through the packed microkernel, bitwise identical to
/// [`gemm_scalar_core`].
fn gemm_blocked_core(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: MatMut<'_>) {
    let (m, kdim, n) = check_dims(a, b, c.view());
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    let (lda, ldb, ldc) = (a.ld, b.ld, c.ld);
    let (a, b, c) = (a.data, b.data, c.data);
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
        ap.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..mr {
            let src = &a[(i0 + i) * lda..(i0 + i) * lda + kdim];
            for (k, &v) in src.iter().enumerate() {
                ap[k * MR + i] = alpha * v;
            }
        }
        for q in 0..n_panels {
            let j0 = q * NR;
            let nr = NR.min(n - j0);
            let bpanel = &bp[q * kdim * NR..(q + 1) * kdim * NR];
            let ctile = &mut c[i0 * ldc + j0..];
            if mr == MR && nr == NR {
                microkernel_full(kdim, &ap, bpanel, ctile, ldc);
            } else {
                microkernel_edge(kdim, &ap, bpanel, ctile, ldc, mr, nr);
            }
        }
    }
}

/// Full `MR × NR` register tile: load `C`, accumulate the whole `k` range
/// with unit-stride packed operands, store back. One chain per element.
#[inline]
fn microkernel_full(kdim: usize, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
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
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// Edge tile (`mr ≤ MR`, `nr ≤ NR`): same accumulation loop with guarded
/// loads and stores. Pad lanes start at zero, accumulate padded zeros, and
/// are never written back.
#[inline]
fn microkernel_edge(
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
pub fn trsm_view(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows;
    assert_eq!(l.cols, n, "L must be square");
    assert_eq!(b.rows, n, "dimension mismatch");
    let (cols, ldl, ldb) = (b.cols, l.ld, b.ld);
    let mut i0 = 0;
    while i0 < n {
        let tb = TRSM_BLOCK.min(n - i0);
        if i0 > 0 {
            // B[i0..i0+tb] += (−1) · L[i0..i0+tb, 0..i0] · B[0..i0]
            let (solved, rest) = b.view_mut().split_rows_mut(i0);
            gemm_blocked_core(
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

// --- blocked panel factorization ---------------------------------------------

/// Inner column-block width of [`panel_lu_blocked`].
pub const PANEL_BLOCK: usize = 8;

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

/// Blocked rectangular panel LU with partial pivoting, bitwise identical
/// to [`panel_lu_naive`]: right-looking over [`PANEL_BLOCK`]-wide column
/// blocks — factor the sub-panel scalar (full-width row swaps, elimination
/// confined to the block), then push the deferred right-strip updates
/// through the blocked trsm triangle and one gemm call. Every element
/// still accumulates in ascending `k` order, and every pivot decision sees
/// exactly the unblocked values.
pub fn panel_lu_blocked(panel: &mut Matrix) -> Vec<usize> {
    let m = panel.rows();
    let r = panel.cols();
    assert!(m >= r, "panel must be at least as tall as wide");
    let mut pivots = Vec::with_capacity(r);
    let mut c0 = 0;
    while c0 < r {
        let ib = PANEL_BLOCK.min(r - c0);
        // Factor the sub-panel (columns c0..c0+ib, rows c0..m).
        for k in c0..c0 + ib {
            let p = pivot_row(panel, k, m);
            panel.swap_rows(k, p);
            pivots.push(p);
            let akk = panel[(k, k)];
            for i in k + 1..m {
                let lik = panel[(i, k)] / akk;
                panel[(i, k)] = lik;
                for j in k + 1..c0 + ib {
                    let upd = lik * panel[(k, j)];
                    panel[(i, j)] -= upd;
                }
            }
        }
        let right0 = c0 + ib;
        if right0 < r {
            let rn = r - right0;
            // Deferred right-strip rows c0..c0+ib: the trsm triangle
            // (k = c0..i ascending, continuing each element's chain).
            for i in c0 + 1..c0 + ib {
                for k in c0..i {
                    let lik = panel[(i, k)];
                    for j in right0..r {
                        let upd = lik * panel[(k, j)];
                        panel[(i, j)] -= upd;
                    }
                }
            }
            // Rows below the sub-panel: one gemm with the L21 strip. The
            // strip is copied out first — it shares rows with the target
            // block — which doubles as the microkernel's packing copy.
            let rows_below = m - right0;
            if rows_below > 0 {
                let mut l21 = vec![0.0f64; rows_below * ib];
                for i in 0..rows_below {
                    for k in 0..ib {
                        l21[i * ib + k] = panel[(right0 + i, c0 + k)];
                    }
                }
                let (top, below) = panel.view_mut().split_rows_mut(right0);
                gemm_blocked_core(
                    -1.0,
                    MatRef::from_slice(&l21, rows_below, ib),
                    top.view().block(c0, right0, ib, rn),
                    below.block(0, right0, rows_below, rn),
                );
            }
        }
        c0 += ib;
    }
    pivots
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
}
