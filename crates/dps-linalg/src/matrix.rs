//! Dense row-major matrices and the multiply kernel.

use dps_des::SplitMix64;

use crate::view::{MatMut, MatRef};

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix from a generator function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Matrix wrapping an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Deterministic pseudo-random matrix in `[-1, 1)`, diagonally dominant
    /// when square (so LU with partial pivoting stays well-conditioned).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        random_block(cols, seed, rows == cols, (0, 0), (rows, cols))
    }

    /// Deterministic pseudo-random matrix in `[-1, 1)` with *no* diagonal
    /// dominance — partial pivoting on such matrices performs genuine row
    /// swaps, which the LU tests rely on.
    pub fn random_general(rows: usize, cols: usize, seed: u64) -> Self {
        random_block(cols, seed, false, (0, 0), (rows, cols))
    }

    /// Strip `index` of [`Matrix::random`]`(n, n, seed)` cut into strips of
    /// `width` rows or columns: a `width × n` or an `n × width` matrix,
    /// generated alone with the bits it has in the whole matrix, so no
    /// `n × n` matrix is built and no block is copied out of one.
    ///
    /// # Panics
    /// Panics unless `width` divides `n` and `index < n / width`.
    pub fn random_strip(n: usize, width: usize, seed: u64, cut: Strips, index: usize) -> Self {
        let (at, shape) = cut.block(n, width, index);
        random_block(n, seed, true, at, shape)
    }

    /// Strip `index` of [`Matrix::random_general`]`(n, n, seed)`, cut as
    /// [`Matrix::random_strip`] cuts its matrix.
    ///
    /// # Panics
    /// Panics unless `width` divides `n` and `index < n / width`.
    pub fn random_general_strip(
        n: usize,
        width: usize,
        seed: u64,
        cut: Strips,
        index: usize,
    ) -> Self {
        let (at, shape) = cut.block(n, width, index);
        random_block(n, seed, false, at, shape)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat row-major data, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Read-only view of the whole matrix; [`MatRef::block`] narrows it to a
    /// sub-block without copying.
    pub fn view(&self) -> MatRef<'_> {
        MatRef::from_slice(&self.data, self.rows, self.cols)
    }

    /// Mutable view of the whole matrix; [`MatMut::block`] and
    /// [`MatMut::split_rows_mut`] narrow it without copying.
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::from_slice(&mut self.data, self.rows, self.cols)
    }

    /// Copy of the `rows × cols` block whose top-left corner is `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of range"
        );
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let src = (r0 + i) * self.cols + c0;
            let dst = i * cols;
            out.data[dst..dst + cols].copy_from_slice(&self.data[src..src + cols]);
        }
        out
    }

    /// Overwrite the block at `(r0, c0)` with `b`.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &Matrix) {
        assert!(
            r0 + b.rows <= self.rows && c0 + b.cols <= self.cols,
            "block out of range"
        );
        for i in 0..b.rows {
            let dst = (r0 + i) * self.cols + c0;
            let src = i * b.cols;
            self.data[dst..dst + b.cols].copy_from_slice(&b.data[src..src + b.cols]);
        }
    }

    /// `self × rhs` (allocating).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm(1.0, self, rhs, 0.0, &mut out);
        out
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Largest absolute entry (∞-norm of the vectorization).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Swap rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        assert!(a < self.rows && b < self.rows, "row out of range");
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }
}

/// How [`Matrix::random_strip`] cuts an `n × n` matrix into strips of
/// `width` rows or columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strips {
    /// Strip `i` is rows `i·width..(i+1)·width`: a `width × n` matrix.
    Rows,
    /// Strip `j` is columns `j·width..(j+1)·width`: an `n × width` matrix.
    Cols,
}

impl Strips {
    /// Top-left corner and shape of strip `index` of an `n × n` matrix.
    fn block(self, n: usize, width: usize, index: usize) -> ((usize, usize), (usize, usize)) {
        assert!(
            width > 0 && n.is_multiple_of(width),
            "strip width must divide n"
        );
        assert!(index < n / width, "strip {index} of {} strips", n / width);
        match self {
            Strips::Rows => ((index * width, 0), (width, n)),
            Strips::Cols => ((0, index * width), (n, width)),
        }
    }
}

/// The one definition of the random matrices' values, for any block of
/// one: entry `(i, j)` of a `cols`-wide matrix is `SplitMix64` draw
/// `i·cols + j` of `seed`, mapped to `[-1, 1)`, plus `cols` on the
/// diagonal of a dominant (square) matrix. The generator jumps to each
/// row's first draw, so a block is made alone, bit for bit as it lies in
/// the whole matrix. Returns the `rows × width` block at `(r0, c0)`.
fn random_block(
    cols: usize,
    seed: u64,
    dominant: bool,
    (r0, c0): (usize, usize),
    (rows, width): (usize, usize),
) -> Matrix {
    let mut data = Vec::with_capacity(rows * width);
    for i in r0..r0 + rows {
        let mut rng = SplitMix64::new(seed);
        rng.jump((i * cols + c0) as u64);
        data.extend((0..width).map(|_| 2.0 * rng.next_f64() - 1.0));
        if dominant && (c0..c0 + width).contains(&i) {
            data[(i - r0) * width + i - c0] += cols as f64;
        }
    }
    Matrix::from_vec(rows, width, data)
}

impl Default for Matrix {
    /// The `0 × 0` matrix (useful for thread-state containers).
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// General matrix multiply: `C = alpha · A·B + beta · C`.
///
/// Dispatches to the packed blocked kernel
/// ([`kernel::gemm_blocked`](crate::kernel::gemm_blocked)) above
/// [`kernel::BLOCK_THRESHOLD`](crate::kernel::BLOCK_THRESHOLD) and to the
/// scalar `ikj` fallback ([`kernel::gemm_scalar`](crate::kernel::gemm_scalar))
/// below it. Both paths accumulate each element in the same ascending-`k`
/// chain, so the result is bitwise independent of the dispatch decision —
/// the determinism contract the cross-engine tests rely on.
pub fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    crate::kernel::gemm_auto(alpha, a, b, beta, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::random(5, 5, 1);
        let i = Matrix::identity(5);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::identity(2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut c = Matrix::from_vec(2, 2, vec![10.0, 10.0, 10.0, 10.0]);
        gemm(2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c.as_slice(), &[7.0, 9.0, 11.0, 13.0]);
    }

    #[test]
    fn matmul_bits_are_those_of_the_two_lane_kernel() {
        // Fingerprints (FNV-1a over every element's bits) captured from the
        // commit before the gemm tile was compiled for wider lanes. Neither
        // shape is a multiple of a tile: partial tiles in both dimensions
        // under 4 × 8 and under 8 × 16.
        for (m, k, n, seeds, expect) in [
            (100, 100, 100, (8, 9), 0x4099_bbc9_1e95_a39c_u64),
            (37, 53, 29, (10, 11), 0x4c6d_fc50_be05_508a),
        ] {
            let a = Matrix::random_general(m, k, seeds.0);
            let b = Matrix::random_general(k, n, seeds.1);
            let mut h = dps_obs::Fnv1a::new();
            for v in a.matmul(&b).as_slice() {
                h.write_u64(v.to_bits());
            }
            assert_eq!(h.finish(), expect, "{m}×{k} · {k}×{n}");
        }
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let b = m.block(2, 3, 2, 2);
        assert_eq!(b.as_slice(), &[23.0, 24.0, 33.0, 34.0]);
        let mut m2 = Matrix::zeros(6, 6);
        m2.set_block(2, 3, &b);
        assert_eq!(m2[(2, 3)], 23.0);
        assert_eq!(m2[(3, 4)], 34.0);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn block_bounds_checked() {
        Matrix::zeros(3, 3).block(2, 2, 2, 2);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_fn(3, 2, |i, _| i as f64);
        m.swap_rows(0, 2);
        assert_eq!(m.as_slice(), &[2.0, 2.0, 1.0, 1.0, 0.0, 0.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m[(1, 0)], 1.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 3, vec![3.0, -4.0, 0.0]);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn random_is_deterministic_and_dominant() {
        let a = Matrix::random(4, 4, 7);
        let b = Matrix::random(4, 4, 7);
        assert_eq!(a, b);
        for i in 0..4 {
            assert!(a[(i, i)] > 2.0, "diagonal dominance");
        }
    }

    #[test]
    fn each_strip_alone_is_its_block_of_the_random_matrices() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (n, width) in [(12, 4), (12, 1), (12, 12), (9, 3), (8, 8), (1, 1), (64, 8)] {
            let seed = (n * 31 + width) as u64;
            for (m, strip) in [
                (
                    Matrix::random(n, n, seed),
                    Matrix::random_strip as fn(usize, usize, u64, Strips, usize) -> Matrix,
                ),
                (
                    Matrix::random_general(n, n, seed),
                    Matrix::random_general_strip,
                ),
            ] {
                for k in 0..n / width {
                    let row = strip(n, width, seed, Strips::Rows, k);
                    let col = strip(n, width, seed, Strips::Cols, k);
                    assert_eq!((row.rows(), row.cols()), (width, n));
                    assert_eq!((col.rows(), col.cols()), (n, width));
                    let (want_row, want_col) = (
                        m.block(k * width, 0, width, n),
                        m.block(0, k * width, n, width),
                    );
                    assert_eq!(bits(&row), bits(&want_row), "{n}/{width} row {k}");
                    assert_eq!(bits(&col), bits(&want_col), "{n}/{width} col {k}");
                }
            }
        }
    }

    #[test]
    fn the_random_matrices_are_the_generators_stream() {
        // Position addressing leaves the values where the sequential
        // stream put them: row-major draws, `cols` added on the diagonal.
        let (n, seed) = (6, 17);
        let mut rng = SplitMix64::new(seed);
        let stream: Vec<f64> = (0..n * n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
        assert_eq!(Matrix::random_general(n, n, seed).as_slice(), &stream[..]);
        let dominant = Matrix::random(n, n, seed);
        for i in 0..n {
            for j in 0..n {
                let add = if i == j { n as f64 } else { 0.0 };
                assert_eq!(
                    dominant[(i, j)].to_bits(),
                    (stream[i * n + j] + add).to_bits()
                );
            }
        }
        // A rectangular matrix is never dominant.
        assert_eq!(Matrix::random(2, 3, seed).as_slice(), &stream[..6]);
    }

    #[test]
    #[should_panic(expected = "strip width must divide n")]
    fn strip_width_must_divide_n() {
        Matrix::random_strip(10, 4, 1, Strips::Rows, 0);
    }

    #[test]
    #[should_panic(expected = "strip 3 of 3 strips")]
    fn a_strip_index_must_be_in_range() {
        Matrix::random_general_strip(12, 4, 1, Strips::Cols, 3);
    }
}
