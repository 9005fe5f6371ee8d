//! # dps-sched — dynamic loop scheduling for DPS
//!
//! The paper's split operations partition work *statically*; this crate
//! supplies the self-scheduling chunk policies from the dynamic loop
//! scheduling (DLS) literature (Mohammed et al., arXiv:1804.11115;
//! Eleliemy & Ciorba, arXiv:2101.07050) so splits can adapt chunk sizes to
//! heterogeneous and irregular workloads.
//!
//! A [`ChunkPolicy`] decides the size of the next chunk of a loop of `N`
//! iterations scheduled onto `P` workers, given the remaining iteration
//! count `R`:
//!
//! | policy | formula for the next chunk |
//! |---|---|
//! | [`StaticChunking`] | `⌈N/P⌉` — one pre-sized chunk per worker |
//! | [`SelfScheduling`] (SS) | `1` — pure work stealing granularity |
//! | [`GuidedSelfScheduling`] (GSS) | `⌈R/P⌉` — exponentially decreasing |
//! | [`TrapezoidSelfScheduling`] (TSS) | linear decrease from `f = ⌈N/2P⌉` to `l = 1` in `C = ⌈2N/(f+l)⌉` steps |
//! | [`Factoring`] (FAC) | batches of `P` chunks, each `⌈R/2P⌉` at batch start |
//! | [`AdaptiveWeightedFactoring`] (AWF) | factoring batches of `⌈R/2⌉` iterations, divided ∝ measured per-worker rates |
//! | AWF-B / AWF-C ([`PolicyKind::AwfB`]/[`PolicyKind::AwfC`]) | AWF sizing with **batch-** vs **chunk-time** recency-weighted rate estimation ([`RateEstimator`]) |
//!
//! The [`ChunkScheduler`] drives a policy object over a concrete iteration
//! range and guarantees the partition invariants: every chunk is non-empty,
//! chunks are contiguous and non-overlapping, and their lengths sum to `N`
//! (property-tested in the workspace's `proptest_schedules`). It and the six
//! policy structs are the *reference*: every chunk a running schedule
//! claims — and [`partition_owners`], the placement of stateful work — is
//! sized by the closed-form [`ChunkCalc`] below, which the proptests hold to
//! the scheduler's sequence chunk for chunk.
//!
//! ## The feedback protocol
//!
//! AWF needs to know how fast each worker actually is. Engines report one
//! [`FeedbackSink::report_chunk`] call per completed chunk — the
//! deterministic simulator reports *virtual* completion times, the
//! OS-thread engine reports *wall-clock* times; only the relative rates
//! matter, so the same application code adapts identically on both. The
//! [`FeedbackBoard`] aggregates those reports into per-worker rates and
//! turns them into the normalized weights AWF consumes on its next wave.
//!
//! ## Distributed chunk calculation
//!
//! Driving a policy centrally would serialize every chunk on one thread.
//! The `calc` module removes that master bottleneck (Eleliemy & Ciorba,
//! arXiv:2101.07050): a [`ChunkCalc`] evaluates any chunk's boundaries
//! *closed-form from its sequence number*, an [`IterCounter`] shares the
//! claim state as one atomic word, and a [`ChunkHub`] leases counters to
//! the workers of a flow graph. The distributed chunk sequence is
//! byte-identical to the central scheduler's (property-tested).
//!
//! ## The lock-free hot path
//!
//! The per-chunk path — claim a chunk, execute it, report its completion —
//! takes no locks: [`ChunkHub::claim`] resolves leases through a doubling
//! slot directory (many concurrent scheduled loops share one hub without
//! contending) and [`FeedbackBoard`] reports are wait-free single-writer
//! seqlock writes into per-worker cache-line-padded slots; all rate
//! estimation folds on the infrequent read side. The pre-sharding
//! mutex-based board survives under `tests/` only, as the oracle of the
//! differential proptest.
//!
//! This crate is engine-independent: `dps-core`'s `ScheduledSplit`
//! operation plugs these policies into flow graphs.

mod calc;
mod dir;
mod feedback;
mod policy;
pub mod remote;
mod scheduler;

pub use calc::{ChunkCalc, ChunkHub, ChunkLease, IterCounter, LeaseProgress};
pub use feedback::{FeedbackBoard, FeedbackSink, RateEstimator, WorkerStats};
pub use policy::{
    AdaptiveWeightedFactoring, ChunkPolicy, Distribution, Factoring, GuidedSelfScheduling,
    PolicyKind, SelfScheduling, StaticChunking, TrapezoidSelfScheduling,
};
pub use scheduler::{partition_owners, Chunk, ChunkScheduler};
