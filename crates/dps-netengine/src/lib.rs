//! # dps-netengine — multi-process network backend for DPS flow graphs
//!
//! The third execution engine: the same flow graphs that run on the
//! virtual-time simulator (`dps_core::SimEngine`) and on OS threads
//! (`dps_mt::MtEngine`) run here across **real processes over real
//! sockets** — the paper's deployment model of one DPS kernel per cluster
//! node.
//!
//! Every process runs the *same* SPMD driver code against a [`NetEngine`]:
//!
//! * The **master** (rank 0) embeds an `MtEngine` that routes every token,
//!   pins every wave, holds every flow and its credits, makes the service
//!   calls, and serves node 0's threads; an arrival for a thread of node
//!   `n` goes to worker rank `n` (`dps_mt::Forward`), and one master thread
//!   per rank applies what comes back (`dps_mt::Replies`).
//! * **Workers** declare on an `MtEngine` of their own (verified against
//!   the master's by signature at the sync barrier), which serves their
//!   node's threads for the master's engine (`dps_mt::Serving`): each
//!   arrival runs on its thread's own `mt` worker loop — `kernel::serve`,
//!   then the operation, with real per-thread state — and its answer goes
//!   back as a `Done` (`dps_mt::Answers`). They claim scheduled-loop
//!   chunks from the [`ChunkHub`](dps_sched::ChunkHub) of the rank that
//!   opened the lease — their own memory for a lease they opened, the wire
//!   otherwise — and receive every run's outputs in the frame that
//!   releases the run, so SPMD asserts hold on all kernels.
//!
//! Kernel `kernel0` is the master; worker rank `n` is kernel `kernel{n}`
//! and hosts cluster node `n`. Frames travel over
//! a pluggable [`Transport`] — real TCP between processes
//! ([`NetEngine::from_env`]), an in-memory loopback with identical
//! semantics between the ranks [`NetEngine::loopback`] runs on threads of
//! one process, each the same master or worker role a process runs — and
//! every rank, connection reader and DPS thread is an OS thread of its
//! own. Each connection keeps a table of the shared `Buffer`s it has
//! carried, so a block many tasks hold crosses it once (see [`proto`]).
//!
//! The driver below runs unchanged on all three engines; only the
//! constructor differs:
//!
//! ```
//! use dps_core::prelude::*;
//! use dps_core::Engine;
//! use dps_netengine::{NetEngine, NetEngineConfig};
//!
//! dps_token! { pub struct Job { pub shards: u32 } }
//! dps_token! { pub struct Shard { pub value: u64 } }
//! dps_token! { pub struct Total { pub sum: u64 } }
//!
//! struct Fan;
//! impl SplitOperation for Fan {
//!     type Thread = (); type In = Job; type Out = Shard;
//!     fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, j: Job) {
//!         for value in 0..u64::from(j.shards) { ctx.post(Shard { value }); }
//!     }
//! }
//! #[derive(Default)]
//! struct Sum { sum: u64 }
//! impl MergeOperation for Sum {
//!     type Thread = (); type In = Shard; type Out = Total;
//!     fn consume(&mut self, _c: &mut OpCtx<'_, (), Total>, s: Shard) { self.sum += s.value; }
//!     fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
//!         ctx.post(Total { sum: self.sum });
//!     }
//! }
//!
//! // The master and one worker rank, each running this driver on a thread
//! // of its own; `NetEngine::from_env` runs the ranks as processes over TCP.
//! let sum = NetEngine::loopback(2, NetEngineConfig::default(), |eng| {
//!     let app = eng.app("sum");
//!     // One thread on each cluster node: the leaf work runs on the worker.
//!     let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0 node1").unwrap();
//!     let mut b = GraphBuilder::new("sum");
//!     let s = b.split(&tc, || ToThread(0), || Fan);
//!     // Routing the merge to thread 1 puts it on node1 — the whole wave is
//!     // consumed in the worker and only the sum comes back.
//!     let m = b.merge(&tc, || ToThread(1), Sum::default);
//!     b.add(s >> m);
//!     let g = eng.build_graph(b).unwrap();
//!     eng.submit(g, Box::new(Job { shards: 10 })).unwrap();
//!     eng.run_to_idle(g, 1).unwrap();
//!     let out = eng.take_outputs(g).pop().unwrap();
//!     downcast::<Total>(out).unwrap().sum
//! });
//! assert_eq!(sum, 45);
//! ```
//!
//! The engine is **fault-tolerant**: `Ping`/`Pong` heartbeats plus
//! EOF/reset classification in the connection readers detect a dead or
//! wedged worker within a bounded budget ([`NetTimeouts`]), tombstone its
//! rank, expire its open chunk leases back to the survivors, and degrade
//! exactly like `MtEngine::fail_node` — completion on the survivors or a
//! clean `NodeDown`, never a hang. The [`fault`] module injects seeded wire
//! faults ([`WireFaults`]) and scheduled kills ([`NetKill`]) for testing.
//!
//! The full protocol (frames, sync barrier, run release, hub
//! forwarding) is documented in [`proto`] and in the repository's
//! `docs/ARCHITECTURE.md`.

mod engine;
mod exec;
pub mod fault;
pub mod proto;
pub mod transport;

pub use engine::{NetEngine, NetEngineConfig, NetTimeouts};
pub use fault::{NetKill, WireFaults};
pub use transport::{
    Acceptor, Duplex, FrameRx, FrameTx, LoopbackTransport, TcpTransport, Transport,
};
