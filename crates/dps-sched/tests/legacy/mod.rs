//! The pre-sharding, mutex-based feedback board: the oracle of the
//! differential property test in `proptest_feedback.rs`, which asserts the
//! sharded `FeedbackBoard` reproduces this implementation's rates, weights
//! and statistics byte for byte over randomized report sequences.
//!
//! Three coarse mutexes guard the per-worker vectors, and every estimator is
//! the plain arithmetic over plain deques. A reference does not import what
//! it checks: the window sizes and the rate formulas are written out here.

use std::collections::VecDeque;

use dps_sched::{FeedbackSink, RateEstimator, WorkerStats};
use parking_lot::Mutex;

/// Per-worker chunk samples kept for the sample-based estimators.
const MAX_SAMPLES: usize = 64;

/// Per-worker batch totals kept for the batch-weighted estimator.
const MAX_BATCHES: usize = 32;

/// Linearly recency-weighted rate over `(iters, secs)` measurements in
/// arrival order: `rate = Σ (j+1)·iters_j / Σ (j+1)·secs_j`.
fn recency_weighted_rate<'a>(measurements: impl Iterator<Item = &'a (f64, f64)>) -> Option<f64> {
    let (mut wi, mut ws) = (0.0f64, 0.0f64);
    for (j, &(iters, secs)) in measurements.enumerate() {
        let w = (j + 1) as f64;
        wi += w * iters;
        ws += w * secs;
    }
    (ws > 0.0 && wi > 0.0).then(|| wi / ws)
}

/// Normalize per-worker rates into weights summing to 1; unmeasured workers
/// are assumed to run at the mean measured rate (uniform on a cold board).
fn weights_from_rates(rates: Vec<Option<f64>>, workers: usize) -> Vec<f64> {
    let measured: Vec<f64> = rates.iter().filter_map(|r| *r).collect();
    if measured.is_empty() {
        return vec![1.0 / workers.max(1) as f64; workers];
    }
    let mean = measured.iter().sum::<f64>() / measured.len() as f64;
    let filled: Vec<f64> = rates.into_iter().map(|r| r.unwrap_or(mean)).collect();
    let total: f64 = filled.iter().sum();
    filled.into_iter().map(|r| r / total).collect()
}

/// Per-worker batch accounting for [`RateEstimator::BatchWeighted`].
#[derive(Debug, Default, Clone)]
struct BatchTrack {
    /// Closed batches: summed `(iters, secs)` per scheduling wave.
    closed: VecDeque<(f64, f64)>,
    /// The batch currently accumulating (reports since the last
    /// weight read).
    open: (f64, f64),
}

/// The coarse-grained (three-mutex) feedback board.
#[derive(Debug)]
pub struct LegacyFeedbackBoard {
    stats: Mutex<Vec<WorkerStats>>,
    /// Recent per-chunk `(iters, secs)` samples per worker.
    samples: Mutex<Vec<VecDeque<(f64, f64)>>>,
    /// Per-wave batch totals per worker (batch-weighted estimator only).
    batches: Mutex<Vec<BatchTrack>>,
    estimator: RateEstimator,
}

impl LegacyFeedbackBoard {
    /// Empty board with an explicit rate estimator.
    pub fn with_estimator(estimator: RateEstimator) -> Self {
        Self {
            stats: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
            batches: Mutex::new(Vec::new()),
            estimator,
        }
    }

    /// Snapshot of the per-worker statistics (at least `workers` entries).
    pub fn stats(&self, workers: usize) -> Vec<WorkerStats> {
        let mut s = self.stats.lock().clone();
        if s.len() < workers {
            s.resize(workers, WorkerStats::default());
        }
        s
    }

    /// Per-worker measured rates (estimator per construction), `None` for
    /// workers with no usable reports.
    fn rates(&self, workers: usize) -> Vec<Option<f64>> {
        match self.estimator {
            RateEstimator::Aggregate => self
                .stats(workers)
                .iter()
                .take(workers)
                .map(WorkerStats::rate)
                .collect(),
            RateEstimator::ChunkWeighted => {
                let samples = self.samples.lock();
                (0..workers)
                    .map(|w| samples.get(w).and_then(|s| recency_weighted_rate(s.iter())))
                    .collect()
            }
            RateEstimator::BatchWeighted => {
                // `weights()` rolled every open batch before calling here,
                // so the closed deque is the complete measurement history.
                let batches = self.batches.lock();
                (0..workers)
                    .map(|w| {
                        batches
                            .get(w)
                            .and_then(|t| recency_weighted_rate(t.closed.iter()))
                    })
                    .collect()
            }
        }
    }

    /// Per-worker weights, normalized to sum to 1.
    pub fn weights(&self, workers: usize) -> Vec<f64> {
        if self.estimator == RateEstimator::BatchWeighted {
            self.roll_batches();
        }
        weights_from_rates(self.rates(workers), workers)
    }

    /// Close every worker's open batch (no-op for workers that reported
    /// nothing since the last close).
    fn roll_batches(&self) {
        let mut batches = self.batches.lock();
        for t in batches.iter_mut() {
            if t.open.1 > 0.0 {
                if t.closed.len() == MAX_BATCHES {
                    t.closed.pop_front();
                }
                t.closed.push_back(t.open);
                t.open = (0.0, 0.0);
            }
        }
    }

    /// Forget all reports (e.g. between benchmark configurations).
    pub fn reset(&self) {
        self.stats.lock().clear();
        self.samples.lock().clear();
        self.batches.lock().clear();
    }

    /// Total chunks reported across all workers.
    pub fn total_chunks(&self) -> u64 {
        self.stats.lock().iter().map(|s| s.chunks).sum()
    }
}

impl FeedbackSink for LegacyFeedbackBoard {
    fn report_chunk(&self, worker: usize, iters: u64, secs: f64) {
        {
            let mut stats = self.stats.lock();
            if stats.len() <= worker {
                stats.resize(worker + 1, WorkerStats::default());
            }
            let s = &mut stats[worker];
            s.chunks += 1;
            s.iters += iters;
            s.secs += secs.max(0.0);
        }
        if secs > 0.0 && iters > 0 {
            {
                let mut samples = self.samples.lock();
                if samples.len() <= worker {
                    samples.resize(worker + 1, VecDeque::new());
                }
                let q = &mut samples[worker];
                if q.len() == MAX_SAMPLES {
                    q.pop_front();
                }
                q.push_back((iters as f64, secs));
            }
            let mut batches = self.batches.lock();
            if batches.len() <= worker {
                batches.resize(worker + 1, BatchTrack::default());
            }
            batches[worker].open.0 += iters as f64;
            batches[worker].open.1 += secs;
        }
    }

    fn worker_lost(&self, worker: usize) {
        let mut stats = self.stats.lock();
        if let Some(s) = stats.get_mut(worker) {
            *s = WorkerStats::default();
        }
        drop(stats);
        let mut samples = self.samples.lock();
        if let Some(q) = samples.get_mut(worker) {
            q.clear();
        }
        drop(samples);
        let mut batches = self.batches.lock();
        if let Some(t) = batches.get_mut(worker) {
            *t = BatchTrack::default();
        }
    }
}
