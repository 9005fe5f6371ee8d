//! Per-worker band state: the distributed data structure of the Life
//! application ("the world data structure is evenly distributed between the
//! nodes, each node holding a horizontal band of the world", paper §5).

use crate::world::step_cell;

/// The horizontal band of the world owned by one worker thread, plus the
/// iteration scratch state (neighbour border rows, next-generation buffer).
#[derive(Debug, Default)]
pub struct LifeBand {
    /// First world row of this band.
    pub start_row: usize,
    /// Band cells, row-major (`rows × cols`).
    pub cells: Vec<u8>,
    /// Band height.
    pub rows: usize,
    /// World width.
    pub cols: usize,
    /// Border row received from the band above (world row `start_row − 1`).
    pub inbox_top: Option<Vec<u8>>,
    /// Border row received from the band below.
    pub inbox_bottom: Option<Vec<u8>>,
    /// Next-generation buffer under construction.
    pub next: Vec<u8>,
    /// Improved-graph phase countdown: interior compute and border compute
    /// each finish one phase; the second one commits the generation.
    pending_phases: u8,
}

impl LifeBand {
    /// Initialize from band cells.
    pub fn load(&mut self, start_row: usize, rows: usize, cols: usize, cells: Vec<u8>) {
        assert_eq!(cells.len(), rows * cols);
        self.start_row = start_row;
        self.rows = rows;
        self.cols = cols;
        self.cells = cells;
        self.next = vec![0; rows * cols];
        self.inbox_top = None;
        self.inbox_bottom = None;
        self.pending_phases = 0;
    }

    /// Borrow band row `r` (band-relative).
    pub fn row(&self, r: usize) -> &[u8] {
        &self.cells[r * self.cols..(r + 1) * self.cols]
    }

    /// First row (sent to the upper neighbour).
    pub fn top_row(&self) -> Vec<u8> {
        self.row(0).to_vec()
    }

    /// Last row (sent to the lower neighbour).
    pub fn bottom_row(&self) -> Vec<u8> {
        self.row(self.rows - 1).to_vec()
    }

    fn row_above(&self, r: usize) -> Option<&[u8]> {
        if r > 0 {
            Some(self.row(r - 1))
        } else {
            self.inbox_top.as_deref()
        }
    }

    fn row_below(&self, r: usize) -> Option<&[u8]> {
        if r + 1 < self.rows {
            Some(self.row(r + 1))
        } else {
            self.inbox_bottom.as_deref()
        }
    }

    /// Compute next state of band rows `r0..r1` into the scratch buffer;
    /// returns the number of cells updated (for cost accounting).
    pub fn compute_rows(&mut self, r0: usize, r1: usize) -> usize {
        let cols = self.cols;
        let mut out = std::mem::take(&mut self.next);
        for r in r0..r1 {
            for c in 0..cols {
                out[r * cols + c] = step_cell(self.row(r), self.row_above(r), self.row_below(r), c);
            }
        }
        self.next = out;
        (r1 - r0) * cols
    }

    /// Interior rows (those needing no remote borders): `1..rows-1`. For a
    /// one-row band the interior is empty.
    pub fn compute_interior(&mut self) -> usize {
        self.compute_interior_chunk(0, 1)
    }

    /// Compute chunk `chunk` of `chunks` of the interior rows. Splitting
    /// the interior into several operations bounds how long one operation
    /// occupies the thread, which keeps interactive service calls
    /// responsive (the testbed's OS preemption analogue).
    pub fn compute_interior_chunk(&mut self, chunk: usize, chunks: usize) -> usize {
        assert!(chunk < chunks, "chunk index out of range");
        if self.rows <= 2 {
            return 0;
        }
        let interior = self.rows - 2;
        let per = interior.div_ceil(chunks);
        let r0 = 1 + chunk * per;
        let r1 = (r0 + per).min(self.rows - 1);
        if r0 >= r1 {
            return 0;
        }
        self.compute_rows(r0, r1)
    }

    /// Border rows (first and last; needs the neighbour inboxes).
    pub fn compute_borders(&mut self) -> usize {
        let mut cells = self.compute_rows(0, 1.min(self.rows));
        if self.rows > 1 {
            cells += self.compute_rows(self.rows - 1, self.rows);
        }
        cells
    }

    /// Commit the next generation (swap buffers, clear inboxes).
    pub fn commit(&mut self) {
        std::mem::swap(&mut self.cells, &mut self.next);
        self.inbox_top = None;
        self.inbox_bottom = None;
        self.pending_phases = 0;
    }

    /// Mark one of this iteration's `total` compute phases (interior
    /// chunks + the border phase) finished; commits the generation when all
    /// are done and returns `true` in that case. All phases run on the
    /// owning thread, so the counter needs no synchronization — operation
    /// executions on one DPS thread are serialized by construction.
    pub fn finish_phase_of(&mut self, total: u8) -> bool {
        if self.pending_phases == 0 {
            self.pending_phases = total;
        }
        self.pending_phases -= 1;
        if self.pending_phases == 0 {
            self.commit();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn band_of(world: &World, start: usize, rows: usize) -> LifeBand {
        let mut b = LifeBand::default();
        let mut cells = Vec::new();
        for r in start..start + rows {
            cells.extend_from_slice(world.row(r));
        }
        b.load(start, rows, world.cols(), cells);
        b
    }

    #[test]
    fn banded_step_matches_reference() {
        let w = World::random(12, 9, 0.4, 77);
        let expect = w.step();
        // Three bands of 4 rows with manually exchanged borders.
        let mut bands: Vec<LifeBand> = (0..3).map(|t| band_of(&w, t * 4, 4)).collect();
        for t in 0..3 {
            if t > 0 {
                bands[t].inbox_top = Some(bands[t - 1].bottom_row());
            }
            if t < 2 {
                bands[t].inbox_bottom = Some(bands[t + 1].top_row());
            }
        }
        for b in &mut bands {
            b.compute_interior();
            b.compute_borders();
            b.commit();
        }
        for (t, b) in bands.iter().enumerate() {
            for r in 0..4 {
                assert_eq!(b.row(r), expect.row(t * 4 + r), "band {t} row {r}");
            }
        }
    }

    #[test]
    fn whole_band_compute_equals_split_compute() {
        let w = World::random(8, 8, 0.5, 3);
        let mut a = band_of(&w, 0, 8);
        let mut b = band_of(&w, 0, 8);
        a.compute_rows(0, 8);
        a.commit();
        b.compute_interior();
        b.compute_borders();
        b.commit();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn single_row_band() {
        let w = World::random(1, 6, 0.5, 9);
        let mut b = band_of(&w, 0, 1);
        assert_eq!(b.compute_interior(), 0);
        let cells = b.compute_borders();
        assert_eq!(cells, 6);
        b.commit();
        assert_eq!(b.cells, w.step().as_slice());
    }
}
