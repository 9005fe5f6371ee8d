//! Distributed chunk calculation (Eleliemy & Ciorba, arXiv:2101.07050).
//!
//! The central [`ChunkScheduler`](crate::ChunkScheduler) materializes every
//! chunk on the thread driving it — on a master thread that serializes the
//! whole schedule. The *distributed chunk-calculation approach* removes the
//! master from the per-chunk path: the only shared state is an atomic pair
//! `(seq, start)` — how many chunks were claimed and how many iterations
//! they covered — and each worker computes its own chunk's boundaries
//! *locally* from that pair with a closed-form (or cheap replayed) per-policy
//! expression.
//!
//! * [`ChunkCalc`] is the pure calculation: `len_at(seq, start)` returns the
//!   length of chunk `seq` given that `start` iterations are already handed
//!   out. It reproduces the central scheduler's chunk sequence **exactly**
//!   (property-tested in `tests/dls_scheduling.rs`).
//! * [`IterCounter`] is the shared state plus the claim loop: one
//!   compare-and-swap per chunk, no locks, no master.
//! * [`ChunkHub`] hands out [`IterCounter`]s under lease ids so split
//!   operations (which announce a range) and worker operations (which claim
//!   chunks) can rendezvous without tokens carrying shared pointers. Lease
//!   ids are plain `u64`s that name the rank whose hub opened them, which
//!   is what lets the multi-process engine run one hub per process: a
//!   lease lives where it was opened, only a claim made from another
//!   process crosses the wire ([`RemoteHub`](crate::remote::RemoteHub)),
//!   and an iteration is handed out exactly once cluster-wide.
//!
//! The full local cycle — announce a range, claim it down chunk by chunk:
//!
//! ```
//! use dps_sched::{ChunkCalc, ChunkHub, PolicyKind};
//!
//! let hub = ChunkHub::new();
//! // A split announces 100 iterations for 4 workers under TSS.
//! let lease = hub.open(ChunkCalc::new(PolicyKind::Tss, 100, 4, &[]));
//! // Workers claim concurrently; here one loop drains the lease.
//! let mut sizes = Vec::new();
//! while let Some(chunk) = hub.claim(lease.id) {
//!     sizes.push(chunk.len);
//! }
//! assert_eq!(sizes.iter().sum::<u64>(), 100, "every iteration exactly once");
//! assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "TSS sizes decrease");
//! assert!(!hub.close(lease.id), "already drained");
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::dir::Doubling;
use crate::policy::PolicyKind;
use crate::remote::RemoteHub;
use crate::scheduler::Chunk;

/// Low bits of the packed counter word holding the iteration index; the
/// remaining high bits hold the chunk sequence number.
const START_BITS: u32 = 40;
const START_MASK: u64 = (1 << START_BITS) - 1;

/// Closed-form chunk-from-index calculation for one scheduled range: the
/// distributed counterpart of driving a [`ChunkPolicy`] through a
/// [`ChunkScheduler`].
///
/// All parameters are fixed at construction (the central scheduler fixes
/// them in `begin` the same way), so `len_at` is a pure function of the
/// shared `(seq, start)` pair — any worker evaluates it locally and obtains
/// the byte-identical chunk the central scheduler would have produced.
///
/// Per-policy cost of one evaluation: O(1) for static/SS/GSS/TSS (closed
/// form), O(log N) for FAC/AWF (the batch recurrence halves the remaining
/// work per batch, so replaying it is logarithmic).
///
/// [`ChunkPolicy`]: crate::ChunkPolicy
/// [`ChunkScheduler`]: crate::ChunkScheduler
#[derive(Debug, Clone)]
pub struct ChunkCalc {
    pub(crate) kind: PolicyKind,
    pub(crate) total: u64,
    pub(crate) workers: u64,
    pub(crate) weights: Vec<f64>,
    /// TSS first-chunk size (as f64: the policy's arithmetic is float).
    pub(crate) tss_first: f64,
    /// TSS per-chunk linear decrement.
    pub(crate) tss_decrement: f64,
}

impl ChunkCalc {
    /// Fix a calculation for `total` iterations over `workers` workers.
    /// `weights` is consumed by AWF only (normalized per-worker rates; one
    /// entry per worker); other policies ignore it.
    pub fn new(kind: PolicyKind, total: u64, workers: usize, weights: &[f64]) -> Self {
        let workers = workers.max(1) as u64;
        // Same normalization as AdaptiveWeightedFactoring::begin — the two
        // sides must run byte-identical arithmetic.
        let weights = crate::policy::normalize_weights(weights, workers as usize);
        // TSS parameters, exactly as TrapezoidSelfScheduling::begin fixes
        // them: f = ceil(N/2P), l = 1, C = ceil(2N/(f+l)).
        let first = total.div_ceil(2 * workers).max(1);
        let last = 1u64;
        let count = (2 * total).div_ceil(first + last).max(1);
        let tss_decrement = if count > 1 {
            (first - last) as f64 / (count - 1) as f64
        } else {
            0.0
        };
        Self {
            kind,
            total,
            workers,
            weights,
            tss_first: first as f64,
            tss_decrement,
        }
    }

    /// The scheduled range length.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The worker count the calculation was fixed for.
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// The worker the policy sizes chunk `seq` for (the central scheduler's
    /// round-robin batch order) — a routing hint, not an obligation.
    pub fn worker_hint(&self, seq: u32) -> u32 {
        (seq as u64 % self.workers) as u32
    }

    /// FAC batch-size recurrence: the chunk size of batch `batch`, replayed
    /// from the full range. Identical arithmetic to [`Factoring`]
    /// (`⌈R/2P⌉`, floored at 1), so the result matches the central policy
    /// exactly for every batch that is actually issued.
    ///
    /// [`Factoring`]: crate::Factoring
    fn fac_chunk(&self, batch: u64) -> u64 {
        let mut remaining = self.total;
        let mut chunk = 1;
        for _ in 0..=batch {
            chunk = remaining.div_ceil(2 * self.workers).max(1);
            remaining = remaining.saturating_sub(self.workers.saturating_mul(chunk));
        }
        chunk
    }

    /// AWF batch recurrence: the per-worker chunk size of batch `batch`,
    /// replayed with the same float expressions as
    /// [`AdaptiveWeightedFactoring`] (`⌈R/2⌉` split ∝ weights, rounded,
    /// floored at 1).
    ///
    /// [`AdaptiveWeightedFactoring`]: crate::AdaptiveWeightedFactoring
    fn awf_size(&self, batch: u64, worker: usize) -> u64 {
        let mut remaining = self.total;
        let mut size = 1;
        for _ in 0..=batch {
            let b = remaining.div_ceil(2).max(1) as f64;
            let mut handed = 0u64;
            for (w, weight) in self.weights.iter().enumerate() {
                let s = ((b * weight).round() as u64).max(1);
                if w == worker {
                    size = s;
                }
                handed = handed.saturating_add(s);
            }
            remaining = remaining.saturating_sub(handed);
        }
        size
    }

    /// Length of chunk number `seq` given `start` iterations already handed
    /// out, clamped into `1..=remaining` exactly as the central scheduler
    /// clamps. Returns 0 once the range is exhausted.
    pub fn len_at(&self, seq: u32, start: u64) -> u64 {
        if start >= self.total {
            return 0;
        }
        let remaining = self.total - start;
        let intended = match self.kind {
            PolicyKind::Static => self.total.div_ceil(self.workers),
            PolicyKind::Ss => 1,
            PolicyKind::Gss => remaining.div_ceil(self.workers),
            PolicyKind::Tss => {
                // current_k = max(f − k·d, 1), the closed form of the
                // policy's linear descent.
                let current = (self.tss_first - seq as f64 * self.tss_decrement).max(1.0);
                current.round().max(1.0) as u64
            }
            PolicyKind::Fac => self.fac_chunk(seq as u64 / self.workers),
            PolicyKind::Awf | PolicyKind::AwfB | PolicyKind::AwfC => self.awf_size(
                seq as u64 / self.workers,
                (seq as u64 % self.workers) as usize,
            ),
        };
        intended.clamp(1, remaining)
    }

    /// Total number of chunks the policy produces over this range — what a
    /// range-announcing split posts one ticket for.
    ///
    /// Closed form for static/SS; a replay over the (logarithmically or
    /// `O(P)`-bounded) chunk sequence for the decreasing-size policies, so
    /// huge ranges stay cheap for every policy whose chunk count is sane.
    /// Chunk sequences live in `u32` ticket space end to end, so a range
    /// producing more than `u32::MAX` chunks (only SS can) is refused.
    ///
    /// # Panics
    /// For `Ss` over more than `u32::MAX` iterations (one chunk per
    /// iteration exceeds the ticket space).
    pub fn chunk_count(&self) -> u32 {
        match self.kind {
            PolicyKind::Ss => {
                assert!(
                    self.total <= u32::MAX as u64,
                    "self-scheduling over {} iterations exceeds the u32 chunk space",
                    self.total
                );
                self.total as u32
            }
            PolicyKind::Static => {
                if self.total == 0 {
                    0
                } else {
                    let chunk = self.total.div_ceil(self.workers);
                    self.total.div_ceil(chunk) as u32
                }
            }
            _ => {
                // GSS/TSS/FAC/AWF shrink geometrically or are O(P)-bounded:
                // the replay is short even for astronomically long ranges.
                let mut start = 0u64;
                let mut seq = 0u32;
                while start < self.total {
                    start += self.len_at(seq, start);
                    seq += 1;
                }
                seq
            }
        }
    }
}

/// The shared claim state: a packed atomic `(seq, start)` word when the
/// range fits (single-CAS claims, the common case), or a small mutex for
/// ranges beyond the packed word's capacity — larger totals than 2⁴⁰
/// iterations or more than 2²⁴ chunks still schedule correctly, just with
/// a lock instead of a CAS.
#[derive(Debug)]
enum ClaimState {
    Packed(AtomicU64),
    Wide(Mutex<(u64, u32)>),
}

/// The shared scheduling state of one announced range: an atomic
/// `(seq, start)` pair, claimed chunk by chunk. Workers compute their chunk
/// boundaries locally from the pair via the attached [`ChunkCalc`] — the
/// master never touches the per-chunk path.
#[derive(Debug)]
pub struct IterCounter {
    calc: ChunkCalc,
    chunks: u32,
    state: ClaimState,
}

impl IterCounter {
    /// Shared counter over `calc`'s range. Ranges that fit 40 start bits and
    /// 24 sequence bits claim with a single compare-and-swap; larger ranges
    /// fall back to a mutex-guarded pair.
    pub fn new(calc: ChunkCalc) -> Self {
        let chunks = calc.chunk_count();
        let state = if calc.total() < 1 << START_BITS && (chunks as u64) < 1 << (64 - START_BITS) {
            ClaimState::Packed(AtomicU64::new(0))
        } else {
            ClaimState::Wide(Mutex::new((0, 0)))
        };
        Self {
            calc,
            chunks,
            state,
        }
    }

    /// The fixed calculation parameters.
    pub fn calc(&self) -> &ChunkCalc {
        &self.calc
    }

    /// Total chunks this counter will hand out.
    pub fn chunk_count(&self) -> u32 {
        self.chunks
    }

    /// Chunks successfully claimed so far (the claim sequence counter).
    pub fn claimed(&self) -> u32 {
        match &self.state {
            ClaimState::Packed(word) => (word.load(Ordering::Acquire) >> START_BITS) as u32,
            ClaimState::Wide(pair) => pair.lock().1,
        }
    }

    /// Iterations not yet claimed.
    pub fn remaining(&self) -> u64 {
        let start = match &self.state {
            ClaimState::Packed(word) => word.load(Ordering::Acquire) & START_MASK,
            ClaimState::Wide(pair) => pair.lock().0,
        };
        self.calc.total().saturating_sub(start)
    }

    fn make_chunk(&self, seq: u32, start: u64, len: u64) -> Chunk {
        Chunk {
            seq,
            start,
            len,
            worker: self.calc.worker_hint(seq),
        }
    }

    /// Claim the next chunk: one CAS on the shared word (or one short lock
    /// for oversized ranges), boundaries computed locally. Returns `None`
    /// once the range is drained. The sequence of claimed chunks (in claim
    /// order) is identical to the central scheduler's hand-out sequence.
    pub fn claim(&self) -> Option<Chunk> {
        match &self.state {
            ClaimState::Packed(word) => {
                let mut cur = word.load(Ordering::Acquire);
                loop {
                    let start = cur & START_MASK;
                    let seq = (cur >> START_BITS) as u32;
                    if start >= self.calc.total() {
                        return None;
                    }
                    let len = self.calc.len_at(seq, start);
                    let next = ((seq as u64 + 1) << START_BITS) | (start + len);
                    match word.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                    {
                        Ok(_) => return Some(self.make_chunk(seq, start, len)),
                        Err(seen) => cur = seen,
                    }
                }
            }
            ClaimState::Wide(pair) => {
                let mut guard = pair.lock();
                let (start, seq) = *guard;
                if start >= self.calc.total() {
                    return None;
                }
                let len = self.calc.len_at(seq, start);
                *guard = (start + len, seq + 1);
                drop(guard);
                Some(self.make_chunk(seq, start, len))
            }
        }
    }
}

/// A lease on an announced range: the id workers quote to claim chunks, and
/// the number of chunks the range will produce (= tickets to post).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLease {
    /// Hub-unique lease id.
    pub id: u64,
    /// Chunks the range partitions into.
    pub chunks: u32,
}

/// One lease's slot in the hub directory.
#[derive(Debug, Default)]
struct LeaseSlot {
    /// Set exactly once by [`ChunkHub::open`]; read lock-free by claimers.
    counter: OnceLock<Arc<IterCounter>>,
    /// Drained or explicitly closed: claims return `None` from here on.
    closed: AtomicBool,
}

/// Bits of a lease id below the rank that issued it: `home << HOME_SHIFT | n`
/// for the hub's `n`-th lease.
const HOME_SHIFT: u32 = 40;

/// Rendezvous between range-announcing splits and chunk-claiming workers:
/// the split [`open`](Self::open)s a counter and broadcasts the lease id in
/// its tickets; each worker [`claim`](Self::claim)s against that id. Shared
/// by `Arc` between the operations of a graph (tokens stay plain data).
///
/// # Multi-range, lock-free
///
/// A hub numbers its leases densely (`fetch_add`), so the directory is a
/// doubling array of slots indexed by that number — not a locked map.
/// [`claim`](Self::claim) resolves a lease with two atomic loads (slot
/// lookup + drained check) and then claims on the lease's own
/// [`IterCounter`]: no lock is taken and no `Arc` is cloned on the
/// per-chunk path, so **any number of concurrent scheduled loops share one
/// hub without contending** with each other. [`open`](Self::open) is
/// equally lock-free (one `fetch_add` plus a `OnceLock` publication), so
/// ranges can be announced while other leases are being drained.
///
/// # A lease lives where it was opened
///
/// Every hub has a home rank — 0 for [`new`](Self::new), which is every
/// hub of a single-process engine — and issues the ids `home << 40 | n`,
/// so an id says whose directory holds its counter
/// ([`home_of`](Self::home_of)). `open` is always local; `claim` and
/// `close` of an id homed here are the path above (one shift-and-compare
/// more); only an id homed at *another* rank goes to the
/// [`RemoteHub`] delegate of a hub built with [`homed`](Self::homed), and
/// is `None` / `false` without one. Nothing of a foreign lease is kept
/// here: [`progress`](Self::progress), [`open_leases`](Self::open_leases)
/// and [`abandoned_leases`](Self::abandoned_leases) describe this hub's own
/// leases, and a rank's leases die with it.
///
/// A drained lease is marked closed by the claim that observes exhaustion
/// (in one atomic `swap` — the old map-based hub's check-then-relock window
/// between the lookup and the removal no longer exists). A wave that aborts
/// before its range drains (a run timeout, a fatal node failure) should
/// [`close`](Self::close) its lease on the recovery path. Slots themselves
/// live until the hub drops — a few hundred bytes per lease ever opened,
/// bounded by the run the hub belongs to.
pub struct ChunkHub {
    /// The slot of the hub's `n`-th lease at `n`: segments of 32, 64, …
    /// slots, 32 of them covering ~2³⁶ lease ids.
    leases: Doubling<LeaseSlot, 5, 32>,
    /// The rank this hub is home to: the high bits of every id it issues.
    home: u64,
    /// Leases issued so far; the next one's number.
    next: AtomicU64,
    /// Leases opened and not yet drained/closed.
    open: AtomicU64,
    /// Where `claim` / `close` of a lease homed at another rank go.
    foreign: Option<Arc<dyn RemoteHub>>,
    /// Metrics sink, published once by an engine when tracing is enabled.
    /// Reads cost one atomic load plus a relaxed `fetch_add` — the claim
    /// path stays lock-free whether or not a registry is attached.
    metrics: OnceLock<Arc<dps_obs::MetricsRegistry>>,
}

impl std::fmt::Debug for ChunkHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkHub")
            .field("home", &self.home)
            .field("open", &self.open.load(Ordering::Relaxed))
            .field("foreign", &self.foreign.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for ChunkHub {
    fn default() -> Self {
        Self::homed(0, None)
    }
}

impl ChunkHub {
    /// Empty hub, home rank 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty hub of process `home` of a distributed engine. Operations on
    /// leases it issued stay in its memory; `foreign` carries the `claim`s
    /// and `close`s of leases homed at other ranks to them.
    ///
    /// # Panics
    /// If `home` does not fit the 24 bits a lease id has for it.
    pub fn homed(home: u32, foreign: Option<Arc<dyn RemoteHub>>) -> Self {
        assert!(
            u64::from(home) < 1 << (64 - HOME_SHIFT),
            "home rank {home} does not fit a lease id"
        );
        Self {
            leases: Doubling::new(),
            home: u64::from(home),
            next: AtomicU64::new(0),
            open: AtomicU64::new(0),
            foreign,
            metrics: OnceLock::new(),
        }
    }

    /// The rank whose hub issued lease `id`, and holds its counter.
    pub fn home_of(id: u64) -> u32 {
        (id >> HOME_SHIFT) as u32
    }

    /// Attach a metrics registry: [`open`](Self::open) bumps `LeasesOpened`,
    /// and each lease folds its final claim count into `ChunkClaims` when it
    /// retires (drains or is [`close`](Self::close)d) — the per-claim path
    /// carries zero instrumentation. First attach wins; later calls are
    /// ignored (the hub is shared, so engines racing to attach the same
    /// collector's registry is benign).
    pub fn attach_metrics(&self, metrics: Arc<dps_obs::MetricsRegistry>) {
        let _ = self.metrics.set(metrics);
    }

    /// The id of this hub's `n`-th lease.
    fn id_of(&self, n: u64) -> u64 {
        self.home << HOME_SHIFT | n
    }

    /// Was lease `id` issued by this hub?
    #[inline]
    fn is_home(&self, id: u64) -> bool {
        id >> HOME_SHIFT == self.home
    }

    /// The slot of lease `id`, if it is homed here and its segment was ever
    /// touched.
    #[inline]
    fn slot(&self, id: u64) -> Option<&LeaseSlot> {
        if !self.is_home(id) {
            return None;
        }
        self.leases.get((id & ((1 << HOME_SHIFT) - 1)) as usize)
    }

    /// Open a counter over `calc`'s range and lease it out.
    pub fn open(&self, calc: ChunkCalc) -> ChunkLease {
        if let Some(m) = self.metrics.get() {
            m.add(dps_obs::Counter::LeasesOpened, 1);
        }
        let counter = IterCounter::new(calc);
        let chunks = counter.chunk_count();
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = self.leases.get_or_alloc(n as usize);
        let slot = slot.expect("lease id space exhausted");
        slot.counter
            .set(Arc::new(counter))
            .expect("lease ids are unique");
        self.open.fetch_add(1, Ordering::Relaxed);
        ChunkLease {
            id: self.id_of(n),
            chunks,
        }
    }

    /// Mark lease `id` drained on the way out, exactly once; returns whether
    /// this call retired it. The metrics fold happens here — one `add` of
    /// the lease counter's final claim sequence per lease, so the per-claim
    /// path carries zero instrumentation.
    fn retire(&self, slot: &LeaseSlot) -> bool {
        let was_open = !slot.closed.swap(true, Ordering::AcqRel);
        if was_open {
            self.open.fetch_sub(1, Ordering::Relaxed);
            if let (Some(m), Some(c)) = (self.metrics.get(), slot.counter.get()) {
                m.add(dps_obs::Counter::ChunkClaims, u64::from(c.claimed()));
            }
        }
        was_open
    }

    /// Claim the next chunk of lease `id`: for a lease homed here,
    /// lock-free lease resolution plus one CAS on the lease's own counter;
    /// for one homed elsewhere, whatever the delegate answers. `None` when
    /// the lease is drained, [`close`](Self::close)d, or unknown.
    pub fn claim(&self, id: u64) -> Option<Chunk> {
        if !self.is_home(id) {
            return self.foreign.as_ref()?.claim(id);
        }
        self.claim_here(id)
    }

    /// [`claim`](Self::claim) against this hub's own directory only.
    #[inline]
    pub(crate) fn claim_here(&self, id: u64) -> Option<Chunk> {
        let slot = self.slot(id)?;
        if slot.closed.load(Ordering::Acquire) {
            return None;
        }
        let counter = slot.counter.get()?;
        let chunk = counter.claim();
        if chunk.is_none() || counter.remaining() == 0 {
            self.retire(slot);
        }
        chunk
    }

    /// Close lease `id` before it drains (wave abort, node failure, lease
    /// expiry): subsequent [`claim`](Self::claim)s return `None`. Claims
    /// already past the closed check may still hand out one in-flight chunk
    /// each — closing races a concurrent claim exactly like draining does.
    /// Returns `true` if this call closed the lease (it was open).
    pub fn close(&self, id: u64) -> bool {
        if !self.is_home(id) {
            return self.foreign.as_ref().is_some_and(|f| f.close(id));
        }
        self.close_here(id)
    }

    /// [`close`](Self::close) against this hub's own directory only.
    pub(crate) fn close_here(&self, id: u64) -> bool {
        match self.slot(id) {
            Some(slot) if slot.counter.get().is_some() => self.retire(slot),
            _ => false,
        }
    }

    /// The counter behind lease `id`, if it is homed here and still open.
    pub fn counter(&self, id: u64) -> Option<Arc<IterCounter>> {
        let slot = self.slot(id)?;
        if slot.closed.load(Ordering::Acquire) {
            return None;
        }
        slot.counter.get().cloned()
    }

    /// Leases of this hub not yet drained.
    pub fn open_leases(&self) -> usize {
        self.open.load(Ordering::Relaxed) as usize
    }

    /// How many leases this hub has issued: the ids `home << 40 | n` for
    /// every `n` below it were opened at some point.
    pub fn leases_issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Progress of lease `id` regardless of open/closed state — the
    /// invariant-layer view (unlike [`counter`](Self::counter), which hides
    /// retired leases from claimers). `None` for ids that are unknown or
    /// homed elsewhere.
    pub fn progress(&self, id: u64) -> Option<LeaseProgress> {
        let slot = self.slot(id)?;
        let counter = slot.counter.get()?;
        Some(LeaseProgress {
            id,
            chunks: counter.chunk_count(),
            claimed: counter.claimed(),
            remaining: counter.remaining(),
            closed: slot.closed.load(Ordering::Acquire),
        })
    }

    /// Every lease of this hub still open (announced but neither drained
    /// nor closed), with its claim progress. Empty after a clean run — a
    /// scheduled wave that completes drains or closes all of its leases, so
    /// anything left here was **abandoned**: the range was announced and
    /// then lost, which is only legitimate downstream of an injected node
    /// failure. The simulation-testing harness checks exactly that.
    pub fn abandoned_leases(&self) -> Vec<LeaseProgress> {
        (0..self.leases_issued())
            .filter_map(|n| self.progress(self.id_of(n)))
            .filter(|p| !p.closed)
            .collect()
    }
}

/// Point-in-time claim progress of one lease (see [`ChunkHub::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseProgress {
    /// The lease id.
    pub id: u64,
    /// Chunks the range partitions into.
    pub chunks: u32,
    /// Chunks claimed so far.
    pub claimed: u32,
    /// Iterations not yet claimed.
    pub remaining: u64,
    /// Drained or explicitly closed.
    pub closed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ChunkScheduler;

    fn uniform(p: usize) -> Vec<f64> {
        vec![1.0 / p as f64; p]
    }

    /// The distributed calculation reproduces the central scheduler chunk
    /// for chunk, for every policy, on a grid of range/worker shapes.
    #[test]
    fn matches_central_scheduler_exactly() {
        for kind in PolicyKind::ALL {
            for &(n, p) in &[(0u64, 3usize), (1, 1), (7, 3), (64, 2), (100, 4), (1000, 7)] {
                let weights = uniform(p);
                let calc = ChunkCalc::new(kind, n, p, &weights);
                let counter = IterCounter::new(calc);
                let mut central = ChunkScheduler::new(kind.build(), n, p, &weights);
                let mut claimed = 0u32;
                while let Some(expect) = central.next_chunk() {
                    let got = counter.claim().unwrap_or_else(|| {
                        panic!("{kind:?} n={n} p={p}: counter drained early at {expect:?}")
                    });
                    assert_eq!(got, expect, "{kind:?} n={n} p={p}");
                    claimed += 1;
                }
                assert!(counter.claim().is_none(), "{kind:?}: counter over-issues");
                assert_eq!(counter.chunk_count(), claimed, "{kind:?}: count mismatch");
            }
        }
    }

    #[test]
    fn awf_equivalence_with_skewed_weights() {
        let weights = [0.5, 0.3, 0.2];
        let calc = ChunkCalc::new(PolicyKind::Awf, 500, 3, &weights);
        let counter = IterCounter::new(calc);
        let mut central = ChunkScheduler::new(PolicyKind::Awf.build(), 500, 3, &weights);
        while let Some(expect) = central.next_chunk() {
            assert_eq!(counter.claim(), Some(expect));
        }
        assert!(counter.claim().is_none());
    }

    #[test]
    fn concurrent_claims_partition_exactly() {
        let calc = ChunkCalc::new(PolicyKind::Gss, 10_000, 4, &uniform(4));
        let counter = Arc::new(IterCounter::new(calc));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut chunks = Vec::new();
                while let Some(chunk) = c.claim() {
                    chunks.push(chunk);
                }
                chunks
            }));
        }
        let mut all: Vec<Chunk> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("claimer panicked"))
            .collect();
        all.sort_by_key(|c| c.start);
        let mut next = 0u64;
        for c in &all {
            assert_eq!(c.start, next, "contiguous, non-overlapping");
            assert!(c.len >= 1);
            next = c.end();
        }
        assert_eq!(next, 10_000, "claims cover the range exactly");
        assert_eq!(counter.remaining(), 0);
    }

    /// Ranges beyond the packed word's 40 start bits use the mutex fallback
    /// and still claim the exact central sequence.
    #[test]
    fn oversized_ranges_fall_back_to_the_wide_counter() {
        let n = 1u64 << 41; // > 2^40: packed representation cannot hold it
        let counter = IterCounter::new(ChunkCalc::new(PolicyKind::Gss, n, 4, &uniform(4)));
        let mut central = ChunkScheduler::new(PolicyKind::Gss.build(), n, 4, &uniform(4));
        let mut claims = 0u32;
        while let Some(expect) = central.next_chunk() {
            assert_eq!(counter.claim(), Some(expect));
            claims += 1;
        }
        assert_eq!(counter.claim(), None);
        assert_eq!(counter.chunk_count(), claims);
        assert_eq!(counter.remaining(), 0);
    }

    #[test]
    fn hub_leases_rendezvous_and_drain() {
        let hub = ChunkHub::new();
        let lease = hub.open(ChunkCalc::new(PolicyKind::Static, 10, 2, &uniform(2)));
        assert_eq!(lease.chunks, 2);
        assert_eq!(hub.open_leases(), 1);
        let a = hub.claim(lease.id).expect("first chunk");
        let b = hub.claim(lease.id).expect("second chunk");
        assert_eq!((a.start, a.len, b.start, b.len), (0, 5, 5, 5));
        assert!(hub.claim(lease.id).is_none());
        assert_eq!(hub.open_leases(), 0, "drained lease dropped");
        assert!(hub.claim(lease.id).is_none(), "unknown lease is None");
    }

    #[test]
    fn empty_range_leases_zero_chunks() {
        let hub = ChunkHub::new();
        let lease = hub.open(ChunkCalc::new(PolicyKind::Awf, 0, 3, &uniform(3)));
        assert_eq!(lease.chunks, 0);
        assert!(hub.claim(lease.id).is_none());
    }

    #[test]
    fn closing_a_lease_stops_claims() {
        let hub = ChunkHub::new();
        let lease = hub.open(ChunkCalc::new(PolicyKind::Ss, 100, 2, &uniform(2)));
        assert!(hub.claim(lease.id).is_some());
        assert!(hub.close(lease.id), "open lease closes");
        assert!(hub.claim(lease.id).is_none(), "closed lease hands nothing");
        assert!(hub.counter(lease.id).is_none());
        assert_eq!(hub.open_leases(), 0);
        assert!(!hub.close(lease.id), "second close is a no-op");
        assert!(!hub.close(9999), "unknown lease cannot close");
    }

    /// Many concurrent leases on one hub (the multi-range batching shape):
    /// each drains independently and exactly.
    #[test]
    fn many_leases_drain_independently() {
        let hub = Arc::new(ChunkHub::new());
        let leases: Vec<ChunkLease> = (0..64)
            .map(|i| {
                hub.open(ChunkCalc::new(
                    PolicyKind::Gss,
                    100 + i as u64,
                    3,
                    &uniform(3),
                ))
            })
            .collect();
        assert_eq!(hub.open_leases(), 64);
        // Interleave claims across all leases from several threads.
        let mut handles = Vec::new();
        for _ in 0..4 {
            let hub = Arc::clone(&hub);
            let ids: Vec<u64> = leases.iter().map(|l| l.id).collect();
            handles.push(std::thread::spawn(move || {
                let mut got = vec![0u64; ids.len()];
                loop {
                    let mut any = false;
                    for (k, &id) in ids.iter().enumerate() {
                        if let Some(c) = hub.claim(id) {
                            got[k] += c.len;
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                }
                got
            }));
        }
        let mut totals = vec![0u64; leases.len()];
        for h in handles {
            for (k, n) in h.join().expect("claimer panicked").into_iter().enumerate() {
                totals[k] += n;
            }
        }
        for (i, &t) in totals.iter().enumerate() {
            assert_eq!(t, 100 + i as u64, "lease {i} drains exactly");
        }
        assert_eq!(hub.open_leases(), 0);
    }

    #[test]
    fn abandoned_leases_report_undrained_ranges() {
        let hub = ChunkHub::new();
        let drained = hub.open(ChunkCalc::new(PolicyKind::Ss, 4, 2, &uniform(2)));
        let stuck = hub.open(ChunkCalc::new(PolicyKind::Ss, 8, 2, &uniform(2)));
        assert_eq!(hub.leases_issued(), 2);
        while hub.claim(drained.id).is_some() {}
        let _one = hub.claim(stuck.id).expect("one chunk claimed");
        let left = hub.abandoned_leases();
        assert_eq!(left.len(), 1, "only the undrained lease is abandoned");
        assert_eq!(left[0].id, stuck.id);
        assert!(left[0].claimed >= 1 && left[0].remaining > 0);
        // Progress still answers for the retired lease, unlike `counter`.
        assert!(hub.progress(drained.id).expect("known id").closed);
        assert!(hub.counter(drained.id).is_none());
        // The recovery path closes the survivor; nothing is abandoned.
        assert!(hub.close(stuck.id));
        assert!(hub.abandoned_leases().is_empty());
    }
}
