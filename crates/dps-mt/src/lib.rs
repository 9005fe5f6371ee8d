//! # dps-mt — real-parallelism execution engine for DPS flow graphs
//!
//! Runs the same flow graphs as [`dps_core::SimEngine`] on **real OS
//! threads** with channels: every DPS thread of every thread collection maps
//! to one operating-system thread with its own token queue, exactly as in
//! the paper ("DPS threads are mapped to operating system threads", §2).
//! This demonstrates that the framework is a genuine pipelined multithreaded
//! runtime, not only a simulation veneer: operations on different threads
//! execute concurrently, tokens flow as soon as they are posted, and merges
//! assemble waves whose tokens arrive in nondeterministic order.
//!
//! Virtual *nodes* group threads into address spaces: tokens crossing a node
//! boundary can be forced through the full serialize/deserialize networking
//! path — the paper's several-kernels-on-one-host debugging mode (§4).
//!
//! Differences from the virtual-time engine, all documented per item:
//!
//! * Wall-clock timing; runs are **not** deterministic (merge `consume`
//!   order varies between runs — merge operations must be commutative, as
//!   in any real DPS deployment).
//! * Flow control is credit-driven without stalling the posting OS thread;
//!   the window bound on in-flight tokens per split/merge pair holds.
//! * A run is driven through [`dps_core::Engine`]: `submit`, `run_to_idle`
//!   (wait for a number of outputs, or the run timeout), `take_outputs`.

mod engine;
mod worker;

pub use engine::{FailHandle, MtConfig, MtEngine};
pub use worker::{Answers, Foreign, Forward, Replies, Reply, Serving};
