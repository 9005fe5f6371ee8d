//! LU factorization kernels: panel LU with partial pivoting, triangular
//! solves, the sequential block driver, and verification.
//!
//! Following the paper's §5 decomposition of `A` into
//! `[[A11, A12], [A21, B]]` with `A11` of size `r × r`:
//!
//! 1. rectangular LU of the panel `[A11; A21] = [L11; L21] · U11` with
//!    partial pivoting,
//! 2. `A12 = L11 · T12` solved by `trsm`, with the pivoting's row flips
//!    applied,
//! 3. `A' = B − L21 · T12`, recursively factorized.

use crate::kernel::{gemm_acc, trsm_view};
use crate::matrix::Matrix;

/// Result of a (panel or full) LU factorization: `L` is unit lower
/// triangular, `U` upper triangular, and `pivots[k] = p` means rows `k` and
/// `p` were swapped at elimination step `k` (LAPACK `ipiv` convention,
/// zero-based).
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactors {
    /// Combined factors: `U` on and above the diagonal, `L` strictly below
    /// (unit diagonal implied) — the usual packed form.
    pub lu: Matrix,
    /// Row-swap record, one entry per eliminated column.
    pub pivots: Vec<usize>,
}

impl LuFactors {
    /// Extract the unit-lower-triangular `L` (size `m × k`, `k = min(m,n)`).
    pub fn l(&self) -> Matrix {
        let (m, n) = (self.lu.rows(), self.lu.cols());
        let k = m.min(n);
        Matrix::from_fn(m, k, |i, j| match i.cmp(&j) {
            std::cmp::Ordering::Greater => self.lu[(i, j)],
            std::cmp::Ordering::Equal => 1.0,
            std::cmp::Ordering::Less => 0.0,
        })
    }

    /// Extract the upper-triangular `U` (size `k × n`, `k = min(m,n)`).
    pub fn u(&self) -> Matrix {
        let (m, n) = (self.lu.rows(), self.lu.cols());
        let k = m.min(n);
        Matrix::from_fn(k, n, |i, j| if j >= i { self.lu[(i, j)] } else { 0.0 })
    }
}

/// Rectangular LU factorization with partial pivoting of an `m × r` panel
/// (`m ≥ r`), in place. This is the paper's step 1:
/// `[A11; A21] = [L11; L21] · U11`.
///
/// Runs the blocked panel kernel
/// ([`kernel::panel_lu_blocked`](crate::kernel::panel_lu_blocked)), which
/// is bitwise identical to the unblocked elimination — same pivots, same
/// bits. Returns the pivot record. Panics if the panel is singular to
/// working precision. Partial pivoting is what keeps that from happening:
/// the LU experiments factor `Matrix::random_general` — uniform entries, no
/// diagonal dominance — so nearly every column swaps rows (only the matmul
/// operands, `Matrix::random`, are diagonally dominant).
pub fn panel_lu(panel: &mut Matrix) -> Vec<usize> {
    crate::kernel::panel_lu_blocked(panel)
}

/// Apply a pivot record (as produced by [`panel_lu`]) to the rows of `m`:
/// the row flips of step 2a. `offset` shifts the pivot indices (pivots are
/// relative to the panel's first row).
pub fn apply_row_swaps(m: &mut Matrix, pivots: &[usize], offset: usize) {
    for (k, &p) in pivots.iter().enumerate() {
        m.swap_rows(offset + k, offset + p);
    }
}

/// Solve `L · X = B` in place of `B`, where `l` is unit lower triangular
/// (only the strict lower part is read) — the BLAS `trsm` of step 2.
///
/// Runs the row-blocked kernel
/// ([`kernel::trsm_blocked`](crate::kernel::trsm_blocked)), bitwise
/// identical to plain forward substitution.
pub fn trsm_lower_unit(l: &Matrix, b: &mut Matrix) {
    crate::kernel::trsm_blocked(l, b);
}

/// Sequential block LU factorization with partial pivoting, block size `r`
/// (the paper's three steps applied recursively). Returns packed factors
/// and the global pivot record.
///
/// This is the reference implementation the parallel DPS schedule is
/// verified against.
pub fn blocked_lu(a: &Matrix, r: usize) -> LuFactors {
    let n = a.rows();
    assert_eq!(a.cols(), n, "blocked_lu expects a square matrix");
    assert!(
        r >= 1 && n.is_multiple_of(r),
        "block size must divide the order"
    );
    let mut lu = a.clone();
    let mut pivots = vec![0usize; n];

    let nb = n / r;
    for kb in 0..nb {
        let k0 = kb * r;
        let m = n - k0;
        // Step 1: panel LU of the current block column (rows k0.., cols k0..k0+r).
        let mut panel = lu.block(k0, k0, m, r);
        let ppiv = panel_lu(&mut panel);
        lu.set_block(k0, k0, &panel);
        // Record pivots globally and apply the row flips to the rest of the
        // matrix (left of the panel: step 2a's flips on previous columns;
        // right of the panel: the columns about to be updated).
        for (k, &p) in ppiv.iter().enumerate() {
            pivots[k0 + k] = k0 + p;
            if p != k {
                // swap rows k0+k and k0+p outside the panel columns
                for j in (0..k0).chain(k0 + r..n) {
                    let tmp = lu[(k0 + k, j)];
                    lu[(k0 + k, j)] = lu[(k0 + p, j)];
                    lu[(k0 + p, j)] = tmp;
                }
            }
        }
        if kb + 1 == nb {
            break;
        }
        // Steps 2 and 3 run on `lu` itself. A kernel holds its output
        // mutably and may read only rows on the other side of a split, so
        // the two blocks that share rows with an output — `L11` with
        // `A12`, `L21` with `B` — are copied out first; the trailing
        // matrix itself is never copied. (`panel_lu_blocked` reads its own
        // `L21` where it lies: inside the kernel a gemm may pack `A` from
        // the rows it updates, because it packs each row panel before it
        // writes it.)
        let (w, below) = (n - k0 - r, m - r);
        // Step 2: T12 = L11⁻¹ · A12.
        let l11 = lu.block(k0, k0, r, r);
        trsm_view(l11.view(), lu.view_mut().block(k0, k0 + r, r, w));
        // Step 3: A' = B − L21 · T12, with T12 above the split and B below.
        let l21 = lu.block(k0 + r, k0, below, r);
        let (top, bottom) = lu.view_mut().split_rows_mut(k0 + r);
        gemm_acc(
            -1.0,
            l21.view(),
            top.view().block(k0, k0 + r, r, w),
            bottom.block(0, k0 + r, below, w),
        );
    }
    LuFactors { lu, pivots }
}

/// ‖P·A − L·U‖∞ — the verification residual for an LU factorization of `a`.
pub fn lu_residual(a: &Matrix, f: &LuFactors) -> f64 {
    let mut pa = a.clone();
    apply_row_swaps(&mut pa, &f.pivots, 0);
    let recon = f.l().matmul(&f.u());
    let mut diff = pa;
    diff.sub_assign(&recon);
    diff.max_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_lu_reconstructs() {
        let a = Matrix::random(8, 3, 42);
        let mut panel = a.clone();
        let pivots = panel_lu(&mut panel);
        let f = LuFactors { lu: panel, pivots };
        assert!(
            lu_residual(&a, &f) < 1e-10,
            "residual {}",
            lu_residual(&a, &f)
        );
    }

    #[test]
    fn panel_lu_pivots_move_largest() {
        // First column is [1, 100, 2]: pivot must pick row 1.
        let mut p = Matrix::from_vec(3, 1, vec![1.0, 100.0, 2.0]);
        let piv = panel_lu(&mut p);
        assert_eq!(piv, vec![1]);
        assert_eq!(p[(0, 0)], 100.0);
    }

    #[test]
    fn trsm_solves_unit_lower() {
        let l = Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 3.0, 4.0, 1.0]);
        let x_true = Matrix::random(3, 2, 5);
        let mut b = l.matmul(&x_true);
        trsm_lower_unit(&l, &mut b);
        let mut diff = b;
        diff.sub_assign(&x_true);
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn blocked_lu_matches_direct_reconstruction() {
        for (n, r) in [(8, 2), (12, 4), (16, 16), (20, 5)] {
            let a = Matrix::random(n, n, n as u64);
            let f = blocked_lu(&a, r);
            let res = lu_residual(&a, &f);
            assert!(res < 1e-9, "n={n} r={r} residual {res}");
        }
    }

    #[test]
    fn blocked_lu_handles_general_pivoting() {
        // Non-dominant matrices force real row swaps at every step.
        for (n, r) in [(12, 3), (24, 8), (32, 4)] {
            let a = Matrix::random_general(n, n, 1000 + n as u64);
            let f = blocked_lu(&a, r);
            let res = lu_residual(&a, &f);
            assert!(res < 1e-9, "n={n} r={r} residual {res}");
            let swaps = f
                .pivots
                .iter()
                .enumerate()
                .filter(|&(i, &p)| p != i)
                .count();
            assert!(swaps > 0, "expected non-trivial pivoting");
        }
    }

    #[test]
    fn blocked_lu_bits_are_those_of_the_copying_driver() {
        // Fingerprints (FNV-1a over every element's bits, then every
        // pivot) of the driver that copied the trailing matrix out and
        // back each step, captured from the commit before the update ran
        // in place: same kernels in the same order, so the same bits.
        for (n, r, seed, expect) in [
            (64, 8, 3, 0x62b9_19bd_8751_832d_u64),
            (96, 32, 5, 0xa220_d28e_bcd8_aa70),  // n/r odd
            (160, 32, 9, 0x4408_a4ba_c44c_6afb), // n/r odd
        ] {
            let f = blocked_lu(&Matrix::random_general(n, n, seed), r);
            let mut h = dps_obs::Fnv1a::new();
            for v in f.lu.as_slice() {
                h.write_u64(v.to_bits());
            }
            for &p in &f.pivots {
                h.write_u64(p as u64);
            }
            assert_eq!(h.finish(), expect, "n={n} r={r} seed={seed}");
        }
    }

    #[test]
    fn blocked_lu_block_size_independent() {
        // The factorization (values, not just the product) must not depend
        // on the block size: same pivots, same packed LU.
        let a = Matrix::random(12, 12, 3);
        let f1 = blocked_lu(&a, 2);
        let f2 = blocked_lu(&a, 6);
        let f3 = blocked_lu(&a, 12);
        assert_eq!(f1.pivots, f2.pivots);
        assert_eq!(f2.pivots, f3.pivots);
        let d12 = {
            let mut d = f1.lu.clone();
            d.sub_assign(&f2.lu);
            d.max_abs()
        };
        let d23 = {
            let mut d = f2.lu.clone();
            d.sub_assign(&f3.lu);
            d.max_abs()
        };
        assert!(d12 < 1e-10 && d23 < 1e-10, "d12={d12} d23={d23}");
    }

    #[test]
    fn l_and_u_shapes() {
        let a = Matrix::random(6, 6, 9);
        let f = blocked_lu(&a, 3);
        let l = f.l();
        let u = f.u();
        assert_eq!((l.rows(), l.cols()), (6, 6));
        assert_eq!((u.rows(), u.cols()), (6, 6));
        for i in 0..6 {
            assert_eq!(l[(i, i)], 1.0);
            for j in i + 1..6 {
                assert_eq!(l[(i, j)], 0.0);
                assert_eq!(u[(j, i)], 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_panel_detected() {
        let mut p = Matrix::zeros(3, 2);
        panel_lu(&mut p);
    }

    #[test]
    fn apply_row_swaps_matches_pivot_semantics() {
        let a = Matrix::from_fn(3, 1, |i, _| i as f64);
        let mut b = a.clone();
        // pivots [2, 2]: swap(0,2) then swap(1,2)
        apply_row_swaps(&mut b, &[2, 2], 0);
        assert_eq!(b.as_slice(), &[2.0, 0.0, 1.0]);
    }
}
