//! Driving a chunk policy over a concrete iteration range.

use crate::calc::{ChunkCalc, IterCounter};
use crate::policy::{ChunkPolicy, PolicyKind};

/// One scheduled chunk: the half-open iteration range
/// `start..start + len`, its position in the hand-out order, and the worker
/// the policy intends it for. The intended worker is a *hint* — a
/// load-aware route may override it when the target is congested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position in hand-out order (0-based).
    pub seq: u32,
    /// First iteration of the chunk.
    pub start: u64,
    /// Number of iterations (always ≥ 1).
    pub len: u64,
    /// Worker index the policy sized this chunk for.
    pub worker: u32,
}

impl Chunk {
    /// One past the last iteration of the chunk.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Drives a [`ChunkPolicy`] over `total` iterations and `workers` workers,
/// enforcing the partition invariants regardless of what the policy
/// returns: chunks are non-empty, contiguous, non-overlapping, and sum to
/// `total`. Workers are cycled round-robin, which is the batch order the
/// FAC/AWF family assumes (one chunk per worker per batch).
///
/// Nothing in production sizes a chunk through this: it is the reference
/// the closed-form [`ChunkCalc`] is property-tested against.
pub struct ChunkScheduler {
    policy: Box<dyn ChunkPolicy>,
    next_start: u64,
    remaining: u64,
    workers: usize,
    seq: u32,
}

impl ChunkScheduler {
    /// Set up a partitioning run. `weights` must hold one entry per worker
    /// (normalized or not — policies only use ratios); non-adaptive
    /// policies ignore it.
    pub fn new(
        mut policy: Box<dyn ChunkPolicy>,
        total: u64,
        workers: usize,
        weights: &[f64],
    ) -> Self {
        let workers = workers.max(1);
        debug_assert_eq!(weights.len(), workers);
        policy.begin(total, workers, weights);
        Self {
            policy,
            next_start: 0,
            remaining: total,
            workers,
            seq: 0,
        }
    }

    /// The next chunk, or `None` once the range is exhausted.
    pub fn next_chunk(&mut self) -> Option<Chunk> {
        if self.remaining == 0 {
            return None;
        }
        let worker = (self.seq as usize) % self.workers;
        let len = self
            .policy
            .chunk_size(self.remaining, worker)
            .clamp(1, self.remaining);
        let chunk = Chunk {
            seq: self.seq,
            start: self.next_start,
            len,
            worker: worker as u32,
        };
        self.next_start += len;
        self.remaining -= len;
        self.seq += 1;
        Some(chunk)
    }

    /// Iterations not yet handed out.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Chunks handed out so far.
    pub fn chunks_issued(&self) -> u32 {
        self.seq
    }
}

/// Assign `items` work units to workers by partitioning `0..items` with
/// `kind` and giving every unit of a chunk to the chunk's worker — the
/// schedule-derived ownership map used to place *stateful* work (LU block
/// columns, matmul result blocks) whose data must live where it is
/// processed. With AWF weights from a calibrated feedback board, fast
/// workers own proportionally more units.
pub fn partition_owners(kind: PolicyKind, items: u64, workers: usize, weights: &[f64]) -> Vec<u32> {
    let counter = IterCounter::new(ChunkCalc::new(kind, items, workers, weights));
    let mut owners = vec![0u32; items as usize];
    while let Some(c) = counter.claim() {
        for slot in &mut owners[c.start as usize..c.end() as usize] {
            *slot = c.worker;
        }
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    /// A policy that misbehaves: returns 0 and oversized chunks.
    struct Rogue;
    impl ChunkPolicy for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }
        fn begin(&mut self, _t: u64, _w: usize, _weights: &[f64]) {}
        fn chunk_size(&mut self, remaining: u64, worker: usize) -> u64 {
            if worker.is_multiple_of(2) {
                0
            } else {
                remaining * 10
            }
        }
    }

    #[test]
    fn scheduler_clamps_rogue_policies() {
        let mut s = ChunkScheduler::new(Box::new(Rogue), 10, 2, &[0.5, 0.5]);
        let mut total = 0;
        let mut prev_end = 0;
        while let Some(c) = s.next_chunk() {
            assert!(c.len >= 1);
            assert_eq!(c.start, prev_end, "contiguous, non-overlapping");
            prev_end = c.end();
            total += c.len;
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn empty_range_yields_no_chunks() {
        let mut s = ChunkScheduler::new(PolicyKind::Gss.build(), 0, 4, &[0.25; 4]);
        assert!(s.next_chunk().is_none());
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.chunks_issued(), 0);
    }

    #[test]
    fn partition_owners_covers_every_item() {
        let weights = [2.0 / 3.0, 1.0 / 3.0];
        let owners = partition_owners(PolicyKind::Awf, 12, 2, &weights);
        assert_eq!(owners.len(), 12);
        assert!(owners.iter().all(|&w| w < 2));
        let fast = owners.iter().filter(|&&w| w == 0).count();
        assert!(
            fast > 12 - fast,
            "fast worker owns the larger share: {owners:?}"
        );
    }

    #[test]
    fn workers_cycle_round_robin() {
        let mut s = ChunkScheduler::new(PolicyKind::Ss.build(), 5, 2, &[0.5, 0.5]);
        let workers: Vec<u32> = std::iter::from_fn(|| s.next_chunk())
            .map(|c| c.worker)
            .collect();
        assert_eq!(workers, vec![0, 1, 0, 1, 0]);
    }
}
