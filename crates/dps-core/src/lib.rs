//! # dps-core — Dynamic Parallel Schedules
//!
//! A Rust reproduction of the DPS framework (Gerlach & Hersch, *DPS —
//! Dynamic Parallel Schedules*, HIPS/IPDPS 2003): high-level development of
//! parallel applications as **compositional split–compute–merge flow
//! graphs** (directed acyclic graphs) whose operations are mapped onto
//! collections of threads spread across cluster nodes.
//!
//! ## The model
//!
//! * **Data objects** ([`Token`]) circulate through the graph; declare them
//!   with [`dps_token!`].
//! * **Operations** process data objects: [`SplitOperation`] (1 → many),
//!   [`LeafOperation`] (1 → 1), [`MergeOperation`] (many → 1, with automatic
//!   token accounting — "the programmer does not have to know how many data
//!   objects arrive"), and [`StreamOperation`] (merge + split combined, for
//!   pipelining successive parallel constructs).
//! * **Thread collections** ([`ThreadCollection`]) hold per-thread state —
//!   that is how distributed data structures are built — and are mapped to
//!   cluster nodes with strings like `"nodeA*2 nodeB"`.
//! * **Routing functions** ([`Route`], [`route!`]) pick the thread instance
//!   that executes each data object's next operation.
//! * **Flow graphs** are built with the [`GraphBuilder`] and the overloaded
//!   `>>` operator; incompatible connections are compile-time errors.
//!   Multi-path graphs select the path by the posted token's runtime type
//!   (paper Fig. 3). Graphs are named, can be built dynamically to fit the
//!   problem (LU factorization), and can be exposed as **parallel services**
//!   callable from other applications' graphs.
//! * **Execution** is pipelined and multithreaded by construction, with
//!   flow control bounding the tokens in circulation between each
//!   split/merge pair.
//!
//! ## Engines
//!
//! A flow graph is independent of the machinery that executes it. The
//! [`Engine`] trait is that machinery's contract — declare applications,
//! collections and graphs; submit tokens; run to idle; drain outputs — and
//! the [`Application`] wrapper is the typed front door over it
//! (`app.call(&mut engine, input)`), so drivers are written **once** and
//! run on every backend:
//!
//! * [`SimEngine`] executes schedules deterministically in *virtual time*
//!   on a simulated cluster (calibrated to the paper's testbed) — this is
//!   what the experiment harness uses to regenerate the paper's figures.
//! * The `dps-mt` crate's `MtEngine` executes the same graphs on real OS
//!   threads (wall-clock time, nondeterministic merge order).
//! * The `dps-netengine` crate's `NetEngine` executes them across OS
//!   processes — one DPS kernel per cluster node over TCP, the paper's
//!   deployment model — with an `MtEngine` as the master's control plane.
//!
//! What a graph *means* on all three — wave counting, merge completion,
//! flow-control credits, wave pinning, graph exits, the path of a token —
//! is written once, in the `kernel` module they share (`docs/ARCHITECTURE.md` §1).
//!
//! Engine-specific features (failure injection, thread-state access,
//! virtual-time scheduling) stay on the concrete types; the
//! [`EngineCaps`] probe tells generic code what the engine behind it
//! offers.

mod api;
mod builder;
mod decls;
mod engine;
mod envelope;
mod error;
mod graph;
mod kernel;
mod ops;
mod route;
pub mod sched;
mod threads;
mod token;

pub use api::{Application, Engine, EngineCaps};
pub use builder::{GraphBuilder, NodeRef, Path};
pub use decls::{AppDecl, AppHandle, DataFactory, Decls, GraphHandle, TcDecl};
pub use engine::{EngineConfig, SimEngine};
pub use envelope::{CallFrame, Envelope, Frame, FrameKey, Frames, GNodeId, WaveKey};
pub use error::{DpsError, Result};
pub use graph::{Flowgraph, GraphNode, OpKind};
pub use ops::{
    ExecInfo, LeafOperation, MergeOperation, OpCtx, OpOutput, Post, SplitOperation,
    StreamOperation, ThreadData,
};
pub use route::{ByKey, LeastLoaded, RoundRobin, Route, RouteInfo, ToThread};
pub use threads::ThreadCollection;
pub use token::{downcast, register_token, wire_roundtrip, Token, TokenBox, TokenRegistry};

/// Re-export of the serialization substrate for macro use and token
/// declarations.
pub use dps_serial as serial;

/// Re-export of the dynamic loop-scheduling policies consumed by
/// [`sched::ScheduledSplit`] (chunk policies, feedback board).
pub use dps_sched;

/// Engine-facing internals shared with alternative execution engines
/// (`dps-mt`). Not part of the stable public API.
#[doc(hidden)]
pub mod internal {
    /// The rules of a wave and the path of a token, shared by every engine.
    pub mod kernel {
        pub use crate::kernel::*;
    }
    pub use crate::ops::{DynOp, ExecInfo, OpOutput};
    pub use crate::route::DynRoute;
}

/// Everything needed to write a DPS application.
pub mod prelude {
    pub use crate::api::{Application, Engine, EngineCaps};
    pub use crate::builder::GraphBuilder;
    pub use crate::decls::{AppHandle, GraphHandle};
    pub use crate::dps_token;
    pub use crate::engine::{EngineConfig, SimEngine};
    pub use crate::error::{DpsError, Result};
    pub use crate::ops::{LeafOperation, MergeOperation, OpCtx, SplitOperation, StreamOperation};
    pub use crate::route;
    pub use crate::route::{ByKey, LeastLoaded, RoundRobin, Route, RouteInfo, ToThread};
    pub use crate::threads::ThreadCollection;
    pub use crate::token::{downcast, Token, TokenBox};
    pub use dps_des::{SimSpan, SimTime};
}
