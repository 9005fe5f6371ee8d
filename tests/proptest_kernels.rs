//! Property tests over the blocked compute kernels: the packed gemm, the
//! blocked trsm, and the blocked panel factorization must be **bitwise**
//! equal to their scalar references wherever the accumulation order is
//! pinned, and ulp-bounded against the naive `ijk` oracle (whose
//! accumulation order differs, so only mathematical equality holds).

use dps::linalg::kernel::{
    gemm_acc, gemm_auto, gemm_blocked, gemm_naive, gemm_scalar, panel_lu_blocked, panel_lu_naive,
    trsm_blocked, trsm_view,
};
use dps::linalg::Matrix;
use proptest::prelude::*;

/// Bit-level equality of two equally shaped matrices.
fn bits_eq(a: &Matrix, b: &Matrix) -> std::result::Result<(), String> {
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("element {i} differs: {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed blocked gemm is bitwise identical to the scalar `ikj`
    /// fallback for every shape (edge tiles included), alpha, and beta —
    /// the determinism contract the cross-engine byte-identity rests on.
    #[test]
    fn blocked_gemm_is_bitwise_scalar(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
        alpha in prop_oneof![Just(1.0f64), Just(-1.0), Just(0.5), Just(-2.25)],
        beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.75)],
    ) {
        let a = Matrix::random_general(m, k, seed);
        let b = Matrix::random_general(k, n, seed.wrapping_add(1));
        let mut c1 = Matrix::random_general(m, n, seed.wrapping_add(2));
        let mut c2 = c1.clone();
        gemm_scalar(alpha, &a, &b, beta, &mut c1);
        gemm_blocked(alpha, &a, &b, beta, &mut c2);
        prop_assert!(bits_eq(&c1, &c2).is_ok(),
            "m={} k={} n={}: {}", m, k, n, bits_eq(&c1, &c2).unwrap_err());
    }

    /// The dispatcher's threshold is bit-invisible: `gemm_auto` equals the
    /// scalar reference bitwise on either side of it.
    #[test]
    fn gemm_auto_is_bitwise_scalar(
        m in 1usize..36,
        k in 1usize..36,
        n in 1usize..36,
        seed in 0u64..1000,
    ) {
        let a = Matrix::random_general(m, k, seed);
        let b = Matrix::random_general(k, n, seed.wrapping_add(1));
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_scalar(1.0, &a, &b, 0.0, &mut c1);
        gemm_auto(1.0, &a, &b, 0.0, &mut c2);
        prop_assert!(bits_eq(&c1, &c2).is_ok(),
            "m={} k={} n={}: {}", m, k, n, bits_eq(&c1, &c2).unwrap_err());
    }

    /// Against the naive `ijk` oracle only a ulp bound holds: the naive
    /// loop accumulates in a scalar and applies alpha at the end, so its
    /// rounding path differs while the mathematics agree.
    #[test]
    fn blocked_gemm_is_ulp_bounded_against_naive(
        m in 1usize..32,
        k in 1usize..32,
        n in 1usize..32,
        seed in 0u64..1000,
    ) {
        let a = Matrix::random_general(m, k, seed);
        let b = Matrix::random_general(k, n, seed.wrapping_add(1));
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_naive(1.0, &a, &b, 0.0, &mut c1);
        gemm_blocked(1.0, &a, &b, 0.0, &mut c2);
        let mut d = c1.clone();
        d.sub_assign(&c2);
        // Entries lie in [-1, 1): each k-chain's rounding error is bounded
        // by k²·eps in magnitude; 32²·2⁻⁵² ≈ 2.3e-13.
        let bound = 1e-12 * (k as f64).max(1.0);
        prop_assert!(d.max_abs() <= bound,
            "m={} k={} n={}: diff {} exceeds {}", m, k, n, d.max_abs(), bound);
    }

    /// The row-blocked trsm is bitwise identical to plain forward
    /// substitution for any order (block-boundary stragglers included).
    #[test]
    fn blocked_trsm_is_bitwise_forward_substitution(
        n in 1usize..80,
        cols in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut l = Matrix::random_general(n, n, seed);
        for i in 0..n {
            l[(i, i)] = 1.0;
        }
        let b0 = Matrix::random_general(n, cols, seed.wrapping_add(1));
        let mut b1 = b0.clone();
        for i in 0..n {
            for k in 0..i {
                let lik = l[(i, k)];
                for j in 0..cols {
                    let upd = lik * b1[(k, j)];
                    b1[(i, j)] -= upd;
                }
            }
        }
        let mut b2 = b0.clone();
        trsm_blocked(&l, &mut b2);
        prop_assert!(bits_eq(&b1, &b2).is_ok(),
            "n={} cols={}: {}", n, cols, bits_eq(&b1, &b2).unwrap_err());
    }

    /// The blocked panel factorization takes the same pivoting path and
    /// produces the same bits as the unblocked elimination for any panel
    /// shape — pivot decisions see exactly the unblocked values. Widths
    /// reach past four 16-column strips: two levels of halving, and widths
    /// off the strip grain.
    #[test]
    fn blocked_panel_lu_is_bitwise_naive(
        r in 1usize..72,
        extra in 0usize..40,
        seed in 0u64..1000,
    ) {
        let m = r + extra;
        let p0 = Matrix::random_general(m, r, seed);
        let mut p1 = p0.clone();
        let mut p2 = p0.clone();
        let piv1 = panel_lu_naive(&mut p1);
        let piv2 = panel_lu_blocked(&mut p2);
        prop_assert_eq!(piv1, piv2, "pivot paths diverged for m={} r={}", m, r);
        prop_assert!(bits_eq(&p1, &p2).is_ok(),
            "m={} r={}: {}", m, r, bits_eq(&p1, &p2).unwrap_err());
    }
}

// --- kernels on views ----------------------------------------------------------
//
// An operation runs `gemm_acc` / `trsm_view` on a block where it lies — at
// an offset inside a larger buffer whose rows are longer than the block's.
// That must be the copy-out → kernel → copy-in it replaces, bit for bit,
// and must leave every element outside the block alone.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shape of the LU trailing update: `A` in a buffer of its own,
    /// `B` above a row split of the matrix whose rows below it hold `C`.
    /// Shapes straddle `BLOCK_THRESHOLD` (16³) and the `MR`/`NR` tile
    /// edges, so both cores and their edge kernels run on strided data.
    #[test]
    fn gemm_acc_on_sub_blocks_is_copy_out_scalar_copy_in(
        shape in (1usize..40, 1usize..40, 1usize..40),
        a_at in (0usize..4, 0usize..4, 0usize..4),
        bc_at in (0usize..4, 0usize..4, 0usize..3, 0usize..4),
        seed in 0u64..1000,
        alpha in prop_oneof![Just(1.0f64), Just(-1.0), Just(0.5)],
    ) {
        let ((m, k, n), (ar, ac, apad), (bc, cc, gap, pad)) = (shape, a_at, bc_at);
        let a_big = Matrix::random_general(ar + m + apad, ac + k + apad, seed);
        // Rows 0..k hold B (from column bc), `gap` rows nobody may touch,
        // then C's m rows (from column cc).
        let width = bc.max(cc) + n + pad;
        let c_row = k + gap;
        let mut w = Matrix::random_general(c_row + m + pad, width, seed.wrapping_add(1));

        let mut expect = w.clone();
        let mut c = w.block(c_row, cc, m, n);
        gemm_scalar(alpha, &a_big.block(ar, ac, m, k), &w.block(0, bc, k, n), 1.0, &mut c);
        expect.set_block(c_row, cc, &c);

        let (above, below) = w.view_mut().split_rows_mut(c_row);
        gemm_acc(
            alpha,
            a_big.view().block(ar, ac, m, k),
            above.view().block(0, bc, k, n),
            below.block(0, cc, m, n),
        );
        prop_assert!(bits_eq(&expect, &w).is_ok(),
            "m={} k={} n={}: {}", m, k, n, bits_eq(&expect, &w).unwrap_err());
    }

    /// The shape of `U_kj = L11⁻¹ · A_kj`: `L` a block inside a panel,
    /// `B` a run of rows inside a wider matrix.
    #[test]
    fn trsm_view_on_sub_blocks_is_forward_substitution(
        n in 1usize..70,
        cols in 1usize..10,
        at in (0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4),
        seed in 0u64..1000,
    ) {
        let (lr, lc, br, bc, pad) = at;
        let l_big = Matrix::random_general(lr + n + pad, lc + n + pad, seed);
        let mut w = Matrix::random_general(br + n + pad, bc + cols + pad, seed.wrapping_add(1));

        let mut expect = w.clone();
        for i in 0..n {
            for k in 0..i {
                let lik = l_big[(lr + i, lc + k)];
                for j in 0..cols {
                    let upd = lik * expect[(br + k, bc + j)];
                    expect[(br + i, bc + j)] -= upd;
                }
            }
        }

        trsm_view(
            l_big.view().block(lr, lc, n, n),
            w.view_mut().block(br, bc, n, cols),
        );
        prop_assert!(bits_eq(&expect, &w).is_ok(),
            "n={} cols={}: {}", n, cols, bits_eq(&expect, &w).unwrap_err());
    }

    /// The aliasing rule: the two halves of `split_rows_mut` share no
    /// element — a write through one is invisible through the other — and
    /// neither reaches outside the block that was split.
    #[test]
    fn split_rows_mut_halves_never_overlap(
        shape in (1usize..12, 1usize..12, 0usize..100),
        origin in (0usize..4, 0usize..4, 0usize..4),
    ) {
        let ((rows, cols, at), (r0, c0, pad)) = (shape, origin);
        let at = at % (rows + 1);
        let mut w = Matrix::zeros(r0 + rows + pad, c0 + cols + pad);
        let (mut above, mut below) = w.view_mut().block(r0, c0, rows, cols).split_rows_mut(at);
        prop_assert_eq!((above.rows(), below.rows()), (at, rows - at));
        for i in 0..above.rows() {
            above.row_mut(i).fill(1.0);
        }
        prop_assert!((0..below.rows()).all(|i| below.view().row(i).iter().all(|&v| v == 0.0)));
        for i in 0..below.rows() {
            below.row_mut(i).fill(2.0);
        }
        prop_assert!((0..above.rows()).all(|i| above.view().row(i).iter().all(|&v| v == 1.0)));
        let expect = Matrix::from_fn(w.rows(), w.cols(), |i, j| {
            let inside = (r0..r0 + rows).contains(&i) && (c0..c0 + cols).contains(&j);
            match (inside, i < r0 + at) {
                (false, _) => 0.0,
                (true, true) => 1.0,
                (true, false) => 2.0,
            }
        });
        prop_assert!(bits_eq(&expect, &w).is_ok(), "{}", bits_eq(&expect, &w).unwrap_err());
    }
}

#[test]
#[should_panic(expected = "block out of range")]
fn a_view_past_the_last_row_panics() {
    Matrix::zeros(3, 3).view().block(2, 0, 2, 3);
}

#[test]
#[should_panic(expected = "block out of range")]
fn a_mutable_view_past_the_last_column_panics() {
    Matrix::zeros(3, 3).view_mut().block(0, 2, 3, 2);
}

#[test]
#[should_panic(expected = "block out of range")]
fn a_block_of_a_view_is_checked_against_the_view_not_the_matrix() {
    // 2 × 2 at (1, 1) of a 4 × 4: row 2 of the *view* does not exist.
    Matrix::zeros(4, 4)
        .view()
        .block(1, 1, 2, 2)
        .block(1, 0, 2, 2);
}

#[test]
#[should_panic(expected = "block out of range")]
fn a_split_below_the_last_row_panics() {
    let mut m = Matrix::zeros(3, 3);
    let _ = m.view_mut().split_rows_mut(4);
}
