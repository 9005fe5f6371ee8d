//! Strided views of row-major `f64` storage: a kernel works on a block
//! where the block lies instead of on a copy of it.
//!
//! A view is a slice plus `rows`, `cols` and a *leading dimension* — the
//! distance in elements from one row's start to the next — so a sub-block
//! of a [`Matrix`](crate::Matrix), or a tile inside a token's
//! `Buffer<f64>`, is a view without moving a byte. [`MatRef`] reads,
//! [`MatMut`] writes.
//!
//! Two mutable views must never overlap, and the one rule that hands out
//! two at once keeps it so without `unsafe`: [`MatMut::split_rows_mut`]
//! cuts a view into the rows *above* a row index and the rows *below* it,
//! which are disjoint ranges of the underlying slice. That is the shape
//! every in-place step of block LU has — `U_kj` above the split, the
//! trailing rows it updates below.

/// Read-only view of a `rows × cols` block.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    /// Starts at element `(0, 0)`; row `i` starts at `i · ld`.
    pub(crate) data: &'a [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) ld: usize,
}

/// Mutable view of a `rows × cols` block.
#[derive(Debug)]
pub struct MatMut<'a> {
    /// Starts at element `(0, 0)`; row `i` starts at `i · ld`.
    pub(crate) data: &'a mut [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) ld: usize,
}

/// Slice range of the `rows × cols` block at `(r0, c0)` of a view with
/// leading dimension `ld`: from the block's first element to its last, or
/// empty for an empty block (whose corner may lie past the slice's end).
fn block_range(
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    ld: usize,
) -> std::ops::Range<usize> {
    if rows == 0 || cols == 0 {
        return 0..0;
    }
    let start = r0 * ld + c0;
    start..start + (rows - 1) * ld + cols
}

impl<'a> MatRef<'a> {
    /// View of a contiguous row-major `rows × cols` slice — a
    /// `Buffer<f64>`'s elements, say.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self {
            data,
            rows,
            cols,
            ld: cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i`: one contiguous slice of `cols` elements.
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(i < self.rows, "row out of range");
        &self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// The `rows × cols` sub-view whose top-left corner is `(r0, c0)`.
    pub fn block(self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatRef<'a> {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of range"
        );
        MatRef {
            data: &self.data[block_range(r0, c0, rows, cols, self.ld)],
            rows,
            cols,
            ld: self.ld,
        }
    }
}

impl<'a> MatMut<'a> {
    /// Mutable view of a contiguous row-major `rows × cols` slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self {
            data,
            rows,
            cols,
            ld: cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read-only view of the same block, for as long as `self` is borrowed.
    pub fn view(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// A shorter-lived mutable view of the same block (a view is consumed
    /// by the kernel it is passed to; this lends it instead).
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Row `i`: one contiguous mutable slice of `cols` elements.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row out of range");
        &mut self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// The `rows × cols` sub-view whose top-left corner is `(r0, c0)`.
    pub fn block(self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatMut<'a> {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of range"
        );
        MatMut {
            data: &mut self.data[block_range(r0, c0, rows, cols, self.ld)],
            rows,
            cols,
            ld: self.ld,
        }
    }

    /// Cut the view at row `at`: rows `0..at` and rows `at..rows`, two
    /// views that share no element — the one way to hold two mutable views
    /// of one matrix at a time.
    pub fn split_rows_mut(self, at: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(at <= self.rows, "block out of range");
        let cut = (at * self.ld).min(self.data.len());
        let (above, below) = self.data.split_at_mut(cut);
        let part = |data: &'a mut [f64], rows| MatMut {
            data,
            rows,
            cols: self.cols,
            ld: self.ld,
        };
        (part(above, at), part(below, self.rows - at))
    }

    /// Overwrite this block with `src` (same shape), row by row.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "shape mismatch"
        );
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn a_block_of_a_view_reads_the_matrix_in_place() {
        let m = Matrix::from_fn(6, 5, |i, j| (i * 10 + j) as f64);
        let v = m.view().block(2, 1, 3, 2);
        assert_eq!((v.rows(), v.cols()), (3, 2));
        assert_eq!(v.row(0), &[21.0, 22.0]);
        assert_eq!(v.row(2), &[41.0, 42.0]);
        assert!(std::ptr::eq(v.row(0).as_ptr(), &m[(2, 1)]));
        // A block of a block is relative to the outer block.
        assert_eq!(v.block(1, 1, 2, 1).row(1), &[42.0]);
    }

    #[test]
    fn empty_blocks_are_fine_anywhere_in_range() {
        let mut m = Matrix::zeros(4, 3);
        assert_eq!(m.view().block(4, 3, 0, 0).rows(), 0);
        assert_eq!(m.view().block(4, 0, 0, 3).cols(), 3);
        let (above, below) = m.view_mut().split_rows_mut(4);
        assert_eq!((above.rows(), below.rows()), (4, 0));
        let (above, below) = m.view_mut().split_rows_mut(0);
        assert_eq!((above.rows(), below.rows()), (0, 4));
    }

    #[test]
    fn split_rows_gives_disjoint_halves_of_a_strided_block() {
        let mut m = Matrix::zeros(5, 4);
        let (mut above, mut below) = m.view_mut().block(0, 1, 5, 2).split_rows_mut(2);
        above.row_mut(1).fill(1.0);
        below.row_mut(0).fill(2.0);
        assert_eq!(above.view().row(1), &[1.0, 1.0]);
        assert_eq!(below.view().row(0), &[2.0, 2.0]);
        let expect = Matrix::from_fn(5, 4, |i, j| match (i, j) {
            (1, 1 | 2) => 1.0,
            (2, 1 | 2) => 2.0,
            _ => 0.0,
        });
        assert_eq!(m, expect);
    }

    #[test]
    fn copy_from_writes_the_block_and_nothing_else() {
        let mut m = Matrix::zeros(4, 4);
        let tile = [1.0, 2.0, 3.0, 4.0];
        m.view_mut()
            .block(1, 2, 2, 2)
            .copy_from(MatRef::from_slice(&tile, 2, 2));
        assert_eq!(m.block(1, 2, 2, 2).as_slice(), &tile);
        assert_eq!(m.as_slice().iter().sum::<f64>(), 10.0);
    }
}
