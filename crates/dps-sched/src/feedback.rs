//! The chunk-completion feedback protocol.
//!
//! Engines report one [`FeedbackSink::report_chunk`] call per finished
//! chunk. The deterministic simulator reports *virtual* execution times;
//! the OS-thread engine reports *wall-clock* times. Only relative rates
//! matter downstream, so application code behaves identically on both.
//!
//! # Hot-path design
//!
//! Every chunk completion in the system funnels through one board, so the
//! report path must not serialize workers against each other. The board is
//! **sharded**: each worker owns one cache-line-padded [`Slot`] that only it
//! writes (a single-writer seqlock), so [`report_chunk`] is a wait-free
//! write into the reporter's own cache lines — no shared mutex, no
//! cross-worker cache-line traffic. All folding (rate estimation, trimming,
//! recency weighting, normalization) happens on the **read side**
//! ([`weights`](FeedbackBoard::weights) runs once per scheduling wave, not
//! once per chunk) and reproduces the pre-sharding mutex-based
//! implementation bit for bit — property-tested against that board, kept as
//! the oracle of `tests/proptest_feedback.rs`.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::policy::PolicyKind;

/// Per-worker chunk samples kept for the sample-based estimators.
const MAX_SAMPLES: usize = 64;

/// Per-worker batch totals kept for the batch-weighted estimator.
const MAX_BATCHES: usize = 32;

/// Where engines deliver per-chunk completion reports.
///
/// `worker` is the thread index within the executing collection, `iters`
/// the number of loop iterations the chunk covered, and `secs` the
/// execution time in the engine's own notion of time (virtual or wall).
pub trait FeedbackSink: Send + Sync {
    /// Record that `worker` finished a chunk of `iters` iterations in
    /// `secs` seconds.
    fn report_chunk(&self, worker: usize, iters: u64, secs: f64);

    /// Record several completed chunks of `worker` at once, in completion
    /// order. Equivalent to one [`report_chunk`](Self::report_chunk) call
    /// per entry; sinks may override it to amortize their per-report
    /// synchronization (the [`FeedbackBoard`] publishes the whole batch
    /// under one seqlock write section).
    fn report_batch(&self, worker: usize, chunks: &[(u64, f64)]) {
        for &(iters, secs) in chunks {
            self.report_chunk(worker, iters, secs);
        }
    }

    /// The engine lost `worker` (node failure): its measurements no longer
    /// describe a live resource. Default: ignore.
    fn worker_lost(&self, worker: usize) {
        let _ = worker;
    }
}

/// Lifetime statistics of one worker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Chunks completed.
    pub chunks: u64,
    /// Iterations completed.
    pub iters: u64,
    /// Total execution seconds (engine time).
    pub secs: f64,
}

impl WorkerStats {
    /// Measured execution rate in iterations per second, if any work was
    /// reported.
    pub fn rate(&self) -> Option<f64> {
        (self.secs > 0.0 && self.iters > 0).then(|| self.iters as f64 / self.secs)
    }
}

/// How a [`FeedbackBoard`] turns chunk-completion reports into per-worker
/// rates — the estimator menu behind the AWF policy family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateEstimator {
    /// `Σ iters / Σ secs` over the worker's lifetime — exact but sensitive
    /// to a single pathological sample. The classic AWF estimator.
    Aggregate,
    /// AWF-B **batch-time weighting** (Cariño & Banicescu): reports are
    /// grouped into *batches* — one batch per scheduling wave, closed each
    /// time [`weights`](FeedbackBoard::weights) is read — and batch `b`'s
    /// `(iters, secs)` totals enter the rate with weight `b + 1`, so recent
    /// waves dominate and the estimate tracks drifting node speeds.
    BatchWeighted,
    /// AWF-C **chunk-time weighting** (Cariño & Banicescu): every
    /// individual chunk report enters the rate with a weight linear in its
    /// arrival position — the finest-grained recency weighting, adapting
    /// within a wave at the cost of more variance than AWF-B.
    ChunkWeighted,
}

/// Linearly recency-weighted rate over `(iters, secs)` measurements in
/// arrival order: measurement `j` (0-based) carries weight `j + 1`, so
/// `rate = Σ (j+1)·iters_j / Σ (j+1)·secs_j` — the AWF-B/AWF-C
/// weighted-performance formula.
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

// ---------------------------------------------------------------------------
// The per-worker report slot.
// ---------------------------------------------------------------------------

/// One worker's report state: written only by that worker's reporter (the
/// single-writer seqlock discipline), folded lock-free by readers.
///
/// Alignment pads the slot to its own cache lines, so one worker's reports
/// never invalidate another worker's slot — the false-sharing half of the
/// old three-mutex bottleneck.
#[repr(align(128))]
struct Slot {
    /// Seqlock word: odd while a write section is in progress. The intended
    /// single writer claims it with one uncontended CAS; the CAS only spins
    /// if two threads misuse the same worker index concurrently (or on the
    /// rare cross-thread [`FeedbackSink::worker_lost`] / reset paths).
    seq: AtomicU32,
    /// Batch epoch the open accumulator belongs to (see
    /// [`FeedbackBoard::weights`]).
    open_epoch: AtomicU32,
    /// Lifetime totals ([`WorkerStats`]); `secs` stored as `f64` bits.
    chunks: AtomicU64,
    iters: AtomicU64,
    secs: AtomicU64,
    /// Samples ever pushed; ring position = `sample_count % MAX_SAMPLES`.
    sample_count: AtomicU64,
    sample_iters: [AtomicU64; MAX_SAMPLES],
    sample_secs: [AtomicU64; MAX_SAMPLES],
    /// Batches ever closed; ring position = `batch_count % MAX_BATCHES`.
    batch_count: AtomicU64,
    batch_iters: [AtomicU64; MAX_BATCHES],
    batch_secs: [AtomicU64; MAX_BATCHES],
    /// The batch currently accumulating (reports since the last epoch).
    open_iters: AtomicU64,
    open_secs: AtomicU64,
}

#[inline]
fn load_f64(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

#[inline]
fn store_f64(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            open_epoch: AtomicU32::new(0),
            chunks: AtomicU64::new(0),
            iters: AtomicU64::new(0),
            secs: AtomicU64::new(0),
            sample_count: AtomicU64::new(0),
            sample_iters: std::array::from_fn(|_| AtomicU64::new(0)),
            sample_secs: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_count: AtomicU64::new(0),
            batch_iters: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_secs: std::array::from_fn(|_| AtomicU64::new(0)),
            open_iters: AtomicU64::new(0),
            open_secs: AtomicU64::new(0),
        }
    }

    /// Enter a write section: one uncontended CAS for the slot's owner.
    fn write_claim(&self) -> u32 {
        loop {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    /// Leave a write section entered at sequence `s`.
    fn write_release(&self, s: u32) {
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Run `read` against a consistent snapshot of the slot (seqlock retry).
    fn read_consistent<R>(&self, mut read: impl FnMut(&Self) -> R) -> R {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let out = read(self);
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return out;
            }
        }
    }

    /// Append one report. Caller holds the write section.
    fn push(&self, iters: u64, secs: f64, epoch: u32) {
        self.chunks
            .store(self.chunks.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.iters.store(
            self.iters.load(Ordering::Relaxed) + iters,
            Ordering::Relaxed,
        );
        store_f64(&self.secs, load_f64(&self.secs) + secs.max(0.0));
        if secs > 0.0 && iters > 0 {
            // The epoch moved since this open batch started accumulating: a
            // weights() read closed the batch; retire it into the ring.
            if self.open_epoch.load(Ordering::Relaxed) != epoch {
                let open_s = load_f64(&self.open_secs);
                if open_s > 0.0 {
                    let n = self.batch_count.load(Ordering::Relaxed);
                    let at = (n % MAX_BATCHES as u64) as usize;
                    store_f64(&self.batch_iters[at], load_f64(&self.open_iters));
                    store_f64(&self.batch_secs[at], open_s);
                    self.batch_count.store(n + 1, Ordering::Relaxed);
                    store_f64(&self.open_iters, 0.0);
                    store_f64(&self.open_secs, 0.0);
                }
                self.open_epoch.store(epoch, Ordering::Relaxed);
            }
            let n = self.sample_count.load(Ordering::Relaxed);
            let at = (n % MAX_SAMPLES as u64) as usize;
            store_f64(&self.sample_iters[at], iters as f64);
            store_f64(&self.sample_secs[at], secs);
            self.sample_count.store(n + 1, Ordering::Relaxed);
            store_f64(&self.open_iters, load_f64(&self.open_iters) + iters as f64);
            store_f64(&self.open_secs, load_f64(&self.open_secs) + secs);
        }
    }

    /// Zero every measurement. Caller holds the write section.
    fn clear(&self) {
        self.chunks.store(0, Ordering::Relaxed);
        self.iters.store(0, Ordering::Relaxed);
        self.secs.store(0, Ordering::Relaxed);
        self.sample_count.store(0, Ordering::Relaxed);
        self.batch_count.store(0, Ordering::Relaxed);
        self.open_iters.store(0, Ordering::Relaxed);
        self.open_secs.store(0, Ordering::Relaxed);
    }

    /// Recent samples, oldest first (raw loads; wrap in
    /// [`read_consistent`](Self::read_consistent)).
    fn samples(&self) -> Vec<(f64, f64)> {
        let n = self.sample_count.load(Ordering::Relaxed);
        let kept = n.min(MAX_SAMPLES as u64);
        (n - kept..n)
            .map(|j| {
                let at = (j % MAX_SAMPLES as u64) as usize;
                (
                    load_f64(&self.sample_iters[at]),
                    load_f64(&self.sample_secs[at]),
                )
            })
            .collect()
    }

    /// Closed batches plus the still-open accumulator as the newest batch,
    /// oldest first, capped to the last [`MAX_BATCHES`] — exactly the view
    /// the legacy board's read-time batch roll produced. Raw loads; wrap in
    /// [`read_consistent`](Self::read_consistent).
    fn batches(&self) -> Vec<(f64, f64)> {
        let n = self.batch_count.load(Ordering::Relaxed);
        let kept = n.min(MAX_BATCHES as u64);
        let mut out: Vec<(f64, f64)> = (n - kept..n)
            .map(|j| {
                let at = (j % MAX_BATCHES as u64) as usize;
                (
                    load_f64(&self.batch_iters[at]),
                    load_f64(&self.batch_secs[at]),
                )
            })
            .collect();
        let open = (load_f64(&self.open_iters), load_f64(&self.open_secs));
        if open.1 > 0.0 {
            if out.len() == MAX_BATCHES {
                out.remove(0);
            }
            out.push(open);
        }
        out
    }

    /// Lifetime totals (raw loads; wrap in
    /// [`read_consistent`](Self::read_consistent)).
    fn stats(&self) -> WorkerStats {
        WorkerStats {
            chunks: self.chunks.load(Ordering::Relaxed),
            iters: self.iters.load(Ordering::Relaxed),
            secs: load_f64(&self.secs),
        }
    }
}

// ---------------------------------------------------------------------------
// The lock-free growable slot directory.
// ---------------------------------------------------------------------------

/// Log2 of the first segment's slot count.
const SEG0_BITS: u32 = 6;

/// Segments double in size; 26 of them cover ~2³¹ worker indices.
const NUM_SEGS: usize = 26;

/// Map a worker index to its `(segment, offset)` in the doubling directory:
/// segment `k` holds `64 << k` slots.
#[inline]
fn locate(worker: usize) -> (usize, usize) {
    let pos = worker + (1usize << SEG0_BITS);
    let seg = (pos.ilog2() - SEG0_BITS) as usize;
    (seg, pos - (1usize << (seg as u32 + SEG0_BITS)))
}

/// Aggregates chunk-completion reports into per-worker rates and the
/// normalized weights the AWF policy family consumes.
///
/// The board is shared (`Arc`) between the engine — which writes through
/// the [`FeedbackSink`] impl — and the `ScheduledSplit` operation, which
/// reads [`weights`](Self::weights) at the start of each wave.
///
/// The estimator is chosen at construction ([`RateEstimator`]);
/// [`for_policy`](Self::for_policy) picks the matching estimator for an
/// AWF-family [`PolicyKind`].
///
/// # Concurrency
///
/// Reports are wait-free writes into the reporting worker's own padded slot
/// (see the module docs); the engines uphold the single-writer discipline —
/// worker `w`'s completions are reported by one thread at a time. Violating
/// it is safe (a per-slot claim CAS serializes rogue concurrent writers)
/// but no longer wait-free. Reads ([`weights`](Self::weights),
/// [`stats`](Self::stats)) fold all slots through a seqlock and may retry
/// against an active writer; they run once per scheduling wave.
pub struct FeedbackBoard {
    /// Doubling slot segments, allocated on first touch.
    segments: [OnceLock<Box<[Slot]>>; NUM_SEGS],
    /// Highest reporter index + 1 (monotone until [`reset`](Self::reset)).
    len: AtomicUsize,
    /// Batch epoch: bumped by each batch-weighted weight read; reports
    /// carrying a stale epoch retire their open batch first.
    epoch: AtomicU32,
    estimator: RateEstimator,
}

impl std::fmt::Debug for FeedbackBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedbackBoard")
            .field("estimator", &self.estimator)
            .field("workers", &self.len.load(Ordering::Relaxed))
            .field("total_chunks", &self.total_chunks())
            .finish()
    }
}

impl Default for FeedbackBoard {
    fn default() -> Self {
        Self::with_estimator(RateEstimator::Aggregate)
    }
}

impl FeedbackBoard {
    /// Empty board with the aggregate rate estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty board with an explicit rate estimator.
    pub fn with_estimator(estimator: RateEstimator) -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            epoch: AtomicU32::new(0),
            estimator,
        }
    }

    /// The board an AWF-family policy expects: batch-time weighting for
    /// [`PolicyKind::AwfB`], chunk-time weighting for
    /// [`PolicyKind::AwfC`], the aggregate estimator otherwise.
    pub fn for_policy(kind: PolicyKind) -> Self {
        Self::with_estimator(match kind {
            PolicyKind::AwfB => RateEstimator::BatchWeighted,
            PolicyKind::AwfC => RateEstimator::ChunkWeighted,
            _ => RateEstimator::Aggregate,
        })
    }

    /// The estimator this board was constructed with.
    pub fn estimator(&self) -> RateEstimator {
        self.estimator
    }

    /// Worker `w`'s slot, allocating its segment on first touch.
    fn slot(&self, worker: usize) -> &Slot {
        let (seg, idx) = locate(worker);
        assert!(seg < NUM_SEGS, "worker index {worker} out of slot range");
        let slots = self.segments[seg].get_or_init(|| {
            (0..(1usize << (seg as u32 + SEG0_BITS)))
                .map(|_| Slot::new())
                .collect()
        });
        &slots[idx]
    }

    /// Worker `w`'s slot, if its segment was ever touched.
    fn slot_get(&self, worker: usize) -> Option<&Slot> {
        let (seg, idx) = locate(worker);
        self.segments
            .get(seg)
            .and_then(|s| s.get())
            .map(|s| &s[idx])
    }

    /// Slot of `worker` only if it has reported since the last reset.
    fn live_slot(&self, worker: usize) -> Option<&Slot> {
        if worker >= self.len.load(Ordering::Acquire) {
            return None;
        }
        self.slot_get(worker)
    }

    /// Snapshot of the per-worker statistics (at least `workers` entries).
    pub fn stats(&self, workers: usize) -> Vec<WorkerStats> {
        let n = self.len.load(Ordering::Acquire).max(workers);
        (0..n)
            .map(|w| match self.live_slot(w) {
                Some(slot) => slot.read_consistent(Slot::stats),
                None => WorkerStats::default(),
            })
            .collect()
    }

    /// Per-worker measured rates (estimator per construction), `None` for
    /// workers with no usable reports.
    fn rates(&self, workers: usize) -> Vec<Option<f64>> {
        (0..workers)
            .map(|w| {
                let slot = self.live_slot(w)?;
                match self.estimator {
                    RateEstimator::Aggregate => slot.read_consistent(Slot::stats).rate(),
                    RateEstimator::ChunkWeighted => {
                        recency_weighted_rate(slot.read_consistent(Slot::samples).iter())
                    }
                    RateEstimator::BatchWeighted => {
                        recency_weighted_rate(slot.read_consistent(Slot::batches).iter())
                    }
                }
            })
            .collect()
    }

    /// Per-worker weights, normalized to sum to 1.
    ///
    /// Workers with measured rates are weighted proportionally; workers
    /// with no reports yet are assumed to run at the mean measured rate
    /// (uniform when nothing has been measured — the AWF cold start).
    ///
    /// For the batch-weighted estimator this read also *closes the current
    /// batch*: the `ScheduledSplit` reads weights exactly once per wave, so
    /// reports between two reads form one batch. (The close is lazy — the
    /// read bumps the batch epoch and folds each worker's open batch as its
    /// newest; the worker's next report retires it into the ring.)
    pub fn weights(&self, workers: usize) -> Vec<f64> {
        if self.estimator == RateEstimator::BatchWeighted {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        weights_from_rates(self.rates(workers), workers)
    }

    /// Forget all reports (e.g. between benchmark configurations).
    pub fn reset(&self) {
        let n = self.len.load(Ordering::Acquire);
        for w in 0..n {
            if let Some(slot) = self.slot_get(w) {
                let s = slot.write_claim();
                slot.clear();
                slot.write_release(s);
            }
        }
        self.len.store(0, Ordering::Release);
    }

    /// Total chunks reported across all workers.
    pub fn total_chunks(&self) -> u64 {
        let n = self.len.load(Ordering::Acquire);
        (0..n)
            .filter_map(|w| self.slot_get(w))
            .map(|s| s.chunks.load(Ordering::Relaxed))
            .sum()
    }
}

impl FeedbackBoard {
    /// Publish `worker` as live. Steady state (the worker already reported)
    /// is one relaxed load of a shared-clean line; only a worker's first
    /// report (or the first after a reset) pays the shared RMW — an
    /// unconditional `fetch_max` here would put cross-worker cache-line
    /// ownership traffic back on the wait-free report path.
    #[inline]
    fn publish_len(&self, worker: usize) {
        if self.len.load(Ordering::Relaxed) <= worker {
            self.len.fetch_max(worker + 1, Ordering::AcqRel);
        }
    }
}

impl FeedbackSink for FeedbackBoard {
    fn report_chunk(&self, worker: usize, iters: u64, secs: f64) {
        let slot = self.slot(worker);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let s = slot.write_claim();
        slot.push(iters, secs, epoch);
        slot.write_release(s);
        self.publish_len(worker);
    }

    fn report_batch(&self, worker: usize, chunks: &[(u64, f64)]) {
        if chunks.is_empty() {
            return;
        }
        let slot = self.slot(worker);
        let epoch = self.epoch.load(Ordering::Relaxed);
        let s = slot.write_claim();
        for &(iters, secs) in chunks {
            slot.push(iters, secs, epoch);
        }
        slot.write_release(s);
        self.publish_len(worker);
    }

    fn worker_lost(&self, worker: usize) {
        if let Some(slot) = self.live_slot(worker) {
            let s = slot.write_claim();
            slot.clear();
            slot.write_release(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_board_yields_uniform_weights() {
        let b = FeedbackBoard::new();
        assert_eq!(b.weights(4), vec![0.25; 4]);
        assert_eq!(b.total_chunks(), 0);
    }

    #[test]
    fn weights_follow_measured_rates() {
        let b = FeedbackBoard::new();
        b.report_chunk(0, 100, 1.0); // 100 it/s
        b.report_chunk(1, 100, 2.0); // 50 it/s
        let w = b.weights(2);
        assert!((w[0] - 2.0 / 3.0).abs() < 1e-12, "{w:?}");
        assert!((w[1] - 1.0 / 3.0).abs() < 1e-12, "{w:?}");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unmeasured_workers_get_mean_rate() {
        let b = FeedbackBoard::new();
        b.report_chunk(0, 300, 1.0);
        b.report_chunk(1, 100, 1.0);
        // Worker 2 never reported: assume the mean (200 it/s).
        let w = b.weights(3);
        assert!((w[2] - 200.0 / 600.0).abs() < 1e-12, "{w:?}");
    }

    #[test]
    fn reports_accumulate_and_reset() {
        let b = FeedbackBoard::new();
        b.report_chunk(1, 10, 0.5);
        b.report_chunk(1, 30, 1.5);
        let s = b.stats(2)[1];
        assert_eq!(s.chunks, 2);
        assert_eq!(s.iters, 40);
        assert!((s.rate().unwrap() - 20.0).abs() < 1e-12);
        b.reset();
        assert_eq!(b.total_chunks(), 0);
        assert_eq!(b.stats(2)[1], WorkerStats::default());
    }

    #[test]
    fn zero_time_report_is_not_a_rate() {
        let b = FeedbackBoard::new();
        b.report_chunk(0, 5, 0.0);
        assert_eq!(b.stats(1)[0].rate(), None);
        assert_eq!(b.weights(1), vec![1.0]);
    }

    #[test]
    fn batch_report_equals_chunk_reports() {
        let one = FeedbackBoard::with_estimator(RateEstimator::ChunkWeighted);
        let batched = FeedbackBoard::with_estimator(RateEstimator::ChunkWeighted);
        let reports = [(10u64, 0.5f64), (30, 1.5), (20, 0.25)];
        for &(i, s) in &reports {
            one.report_chunk(3, i, s);
        }
        batched.report_batch(3, &reports);
        assert_eq!(one.stats(4), batched.stats(4));
        assert_eq!(one.weights(4), batched.weights(4));
    }

    #[test]
    fn sample_ring_keeps_the_newest_window() {
        // More reports than MAX_SAMPLES: the chunk-weighted estimator must
        // see only the newest window, so the early slow samples age out
        // entirely (any of them left would pull worker 0 below 40 it/s).
        let b = FeedbackBoard::with_estimator(RateEstimator::ChunkWeighted);
        for _ in 0..MAX_SAMPLES {
            b.report_chunk(0, 10, 1.0); // 10 it/s, will be evicted
        }
        for _ in 0..MAX_SAMPLES {
            b.report_chunk(0, 40, 1.0); // 40 it/s fills the whole ring
        }
        b.report_chunk(1, 40, 1.0);
        let w = b.weights(2);
        assert!((w[0] - 0.5).abs() < 1e-12, "old samples evicted: {w:?}");
    }

    #[test]
    fn chunk_weighting_is_the_linear_recency_formula() {
        // Worker 0: (10 it, 1 s) then (40 it, 1 s) → (1·10 + 2·40) / (1 + 2)
        // = 30 it/s, where the aggregate would say 25.
        let b = FeedbackBoard::with_estimator(RateEstimator::ChunkWeighted);
        b.report_chunk(0, 10, 1.0);
        b.report_chunk(0, 40, 1.0);
        b.report_chunk(1, 30, 1.0);
        assert_eq!(b.weights(2), vec![0.5, 0.5]);
        let agg = FeedbackBoard::new();
        agg.report_chunk(0, 10, 1.0);
        agg.report_chunk(0, 40, 1.0);
        agg.report_chunk(1, 30, 1.0);
        assert!((agg.weights(2)[0] - 25.0 / 55.0).abs() < 1e-12);
    }

    #[test]
    fn worker_lost_forgets_its_measurements() {
        let b = FeedbackBoard::new();
        b.report_chunk(0, 100, 1.0);
        b.report_chunk(1, 50, 1.0);
        b.worker_lost(0);
        assert_eq!(b.stats(2)[0], WorkerStats::default());
        // Worker 0 is back to "unmeasured": it gets the mean rate.
        let w = b.weights(2);
        assert!((w[0] - 0.5).abs() < 1e-12, "{w:?}");
    }

    #[test]
    fn for_policy_picks_the_matching_estimator() {
        assert_eq!(
            FeedbackBoard::for_policy(PolicyKind::AwfB).estimator(),
            RateEstimator::BatchWeighted
        );
        assert_eq!(
            FeedbackBoard::for_policy(PolicyKind::AwfC).estimator(),
            RateEstimator::ChunkWeighted
        );
        assert_eq!(
            FeedbackBoard::for_policy(PolicyKind::Awf).estimator(),
            RateEstimator::Aggregate
        );
    }

    /// A worker that *was* slow and sped up: the recency-weighted
    /// estimators believe the recent fast measurements over the stale slow
    /// ones, while the aggregate estimator is stuck near the lifetime mean.
    #[test]
    fn chunk_weighting_tracks_a_speed_change() {
        let agg = FeedbackBoard::new();
        let awfc = FeedbackBoard::with_estimator(RateEstimator::ChunkWeighted);
        for board in [&agg, &awfc] {
            for _ in 0..10 {
                board.report_chunk(0, 10, 1.0); // 10 it/s historically
                board.report_chunk(1, 40, 1.0); // steady 40 it/s
            }
            for _ in 0..10 {
                board.report_chunk(0, 40, 1.0); // worker 0 caught up
                board.report_chunk(1, 40, 1.0);
            }
        }
        let wa = agg.weights(2);
        let wc = awfc.weights(2);
        // Aggregate: worker 0 still looks ~25/40 as fast as worker 1.
        assert!(wa[0] < 0.45, "{wa:?}");
        // Chunk-weighted: recent parity dominates — close to 50/50.
        assert!((wc[0] - 0.5).abs() < 0.07, "{wc:?}");
        assert!(wc[0] > wa[0], "recency weighting must track the change");
    }

    /// Batch weighting groups reports between weight reads and favours
    /// recent batches, so a speed change shows up across waves.
    #[test]
    fn batch_weighting_tracks_across_waves() {
        let b = FeedbackBoard::with_estimator(RateEstimator::BatchWeighted);
        // Wave 1: worker 0 slow.
        b.report_chunk(0, 10, 1.0);
        b.report_chunk(1, 40, 1.0);
        let w1 = b.weights(2); // closes batch 1
        assert!(w1[0] < w1[1], "{w1:?}");
        // Waves 2..5: worker 0 at parity.
        for _ in 0..4 {
            b.report_chunk(0, 40, 1.0);
            b.report_chunk(1, 40, 1.0);
            let _ = b.weights(2);
        }
        let w = b.weights(2);
        assert!((w[0] - 0.5).abs() < 0.04, "recent parity dominates: {w:?}");
        // The stale slow batch still has *some* pull: strictly below 1/2.
        assert!(w[0] < 0.5, "{w:?}");
    }

    /// AWF-B weights batches, not chunks: worker 0's batches (40 it, 2 s)
    /// and (40 it, 1 s) give (1·40 + 2·40) / (1·2 + 2·1) = 30 it/s, where
    /// chunk weighting would say 31.7 and the aggregate 26.7.
    #[test]
    fn batch_weighting_is_the_linear_recency_formula() {
        let b = FeedbackBoard::with_estimator(RateEstimator::BatchWeighted);
        b.report_chunk(0, 10, 1.0);
        b.report_chunk(0, 30, 1.0);
        b.report_chunk(1, 30, 1.0);
        let _ = b.weights(2); // closes batch 1
        b.report_chunk(0, 40, 1.0);
        b.report_chunk(1, 30, 1.0);
        assert_eq!(b.weights(2), vec![0.5, 0.5]);
    }

    /// AWF-B and AWF-C estimates agree when rates are stationary.
    #[test]
    fn weighted_estimators_agree_on_stationary_rates() {
        let awfb = FeedbackBoard::with_estimator(RateEstimator::BatchWeighted);
        let awfc = FeedbackBoard::with_estimator(RateEstimator::ChunkWeighted);
        for board in [&awfb, &awfc] {
            for _ in 0..5 {
                board.report_chunk(0, 60, 1.0);
                board.report_chunk(1, 30, 1.0);
                let _ = board.weights(2);
            }
        }
        let wb = awfb.weights(2);
        let wc = awfc.weights(2);
        assert!((wb[0] - 2.0 / 3.0).abs() < 1e-9, "{wb:?}");
        assert!((wc[0] - 2.0 / 3.0).abs() < 1e-9, "{wc:?}");
    }

    #[test]
    fn slots_span_segment_boundaries() {
        // Worker indices on both sides of the first segment boundary (64)
        // land in distinct slots and fold correctly.
        let b = FeedbackBoard::new();
        b.report_chunk(63, 100, 1.0);
        b.report_chunk(64, 50, 1.0);
        b.report_chunk(200, 25, 1.0);
        let s = b.stats(201);
        assert_eq!(s[63].iters, 100);
        assert_eq!(s[64].iters, 50);
        assert_eq!(s[200].iters, 25);
        assert_eq!(b.total_chunks(), 3);
    }

    #[test]
    fn concurrent_reporters_never_lose_reports() {
        use std::sync::Arc;
        let b = Arc::new(FeedbackBoard::new());
        let threads = 8;
        let per = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..per {
                        b.report_chunk(w, 1 + (i % 7), 1.0e-3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("reporter panicked");
        }
        let stats = b.stats(threads);
        for s in &stats[..threads] {
            assert_eq!(s.chunks, per);
            let expect_iters: u64 = (0..per).map(|i| 1 + (i % 7)).sum();
            assert_eq!(s.iters, expect_iters);
            assert!((s.secs - per as f64 * 1.0e-3).abs() < 1e-9);
        }
        assert_eq!(b.total_chunks(), threads as u64 * per);
    }
}
