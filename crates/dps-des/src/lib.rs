//! # dps-des — deterministic discrete-event simulation engine
//!
//! The DPS paper evaluated its runtime on a cluster of eight bi-Pentium-III
//! nodes with Gigabit Ethernet. To reproduce the paper's multi-node timing
//! experiments on a single machine, the DPS runtime semantics are executed in
//! **virtual time** on this engine: operations occupy virtual CPUs, token
//! transfers occupy virtual network interfaces, and the event loop advances a
//! simulated clock deterministically.
//!
//! Contents:
//!
//! * [`SimTime`] / [`SimSpan`] — integer-nanosecond instants and durations
//!   (floating-point clocks are not associative and would break determinism).
//! * [`Sim`] — the event loop: a priority queue of `(time, seq)`-ordered
//!   events holding closures over a user *world* type; ties fire in
//!   scheduling order, so identical inputs produce identical traces.
//! * [`Pool`] — a k-server resource with FIFO queueing and continuation
//!   callbacks (virtual CPUs of a cluster node).
//! * [`Timeline`] / [`MultiTimeline`] — reservation-based resources for flows
//!   whose durations are known at request time (NIC directions, disk arms).
//! * [`SplitMix64`] — a tiny deterministic RNG for workload generation inside
//!   simulations (seeded, stream-splittable).
//! * [`stats`] — counters and time-weighted statistics used by the harness.
//!
//! The engine is deliberately single-threaded: determinism is the property
//! the experiment harness relies on (`same seed ⇒ identical virtual-time
//! results`), and all *real* parallelism lives in `dps-mt`.

mod pool;
mod rng;
mod sim;
pub mod stats;
mod time;
mod timeline;

pub use pool::{Pool, PoolId};
pub use rng::SplitMix64;
pub use sim::{RunLimit, RunStats, Sim};
pub use time::{SimSpan, SimTime};
pub use timeline::{MultiTimeline, Timeline};
