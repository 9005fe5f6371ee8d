//! The unified engine API: write an application once, run it anywhere.
//!
//! The paper's promise is that a flow graph is *independent of the machinery
//! that executes it*. The [`Engine`] trait is that machinery's contract:
//! [`SimEngine`](crate::SimEngine) (deterministic virtual time),
//! `dps_mt::MtEngine` (real OS threads) and `dps_netengine::NetEngine`
//! (OS processes over sockets) implement it, so application crates,
//! examples and tests write **one** generic driver
//! (`fn run<E: Engine>(eng: &mut E, …)`) instead of per-engine code paths.
//!
//! On top of the trait, [`Application`] is a small typed front door: it pairs
//! a built graph with its entry/exit token types so user code calls
//! [`call`](Application::call) / [`stream`](Application::stream) and never
//! touches raw [`TokenBox`]es or engine-specific run loops.
//!
//! Thread state reaches its threads only through graphs: an application
//! loads its distributed data with a loader graph and reads it back with a
//! read or dump graph, so the same driver runs on every engine.
//!
//! An engine is driven one way. Declaring, submitting, running, taking
//! outputs and attaching sinks are the trait's methods, implemented once
//! each in the engine's `impl Engine`; no engine keeps an inherent twin of
//! one. What only one engine has stays on its concrete type:
//!
//! * [`SimEngine`](crate::SimEngine): injection at a later virtual instant
//!   (`inject_at`), single steps (`step_once`, `outputs_count`, `now` — the
//!   way to read the instant an output left), `run_until_idle`,
//!   `fail_node` and the simulation-testing hooks (delivery shuffle, net
//!   faults, scheduled kills);
//! * `dps_mt::MtEngine`: `fail_node`, `fail_handle`, `shutdown` and the
//!   seams a network engine builds on (`set_forward`, `replies`,
//!   `serve_for`).
//!
//! The [`caps`](Engine::caps) probe tells generic code whether the engine
//! behind it reports virtual time.

use std::fmt::Debug;
use std::sync::Arc;

use dps_sched::FeedbackSink;

use crate::builder::GraphBuilder;
use crate::decls::{AppHandle, Decls, GraphHandle};
use crate::error::{DpsError, Result};
use crate::ops::ThreadData;
use crate::threads::ThreadCollection;
use crate::token::{downcast, Token, TokenBox};

/// What an [`Engine`] can do beyond the portable core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCaps {
    /// [`Engine::now_secs`] reports simulated virtual time (calibrated to
    /// the modelled cluster) rather than host wall-clock time.
    pub virtual_time: bool,
}

/// One execution engine for DPS flow graphs.
///
/// The portable subset of the engine lifecycle: declare applications,
/// collections and graphs; submit tokens; drive to idle; drain outputs.
/// Generic drivers written against this trait run unchanged on the
/// deterministic simulator and on real OS threads.
///
/// Two rules keep a driver portable:
///
/// * The `mt` and `net` engines reject declarations (`app`,
///   `thread_collection`, `build_graph`, `expose_service`,
///   `set_feedback_sink`, `set_trace_sink`) after the first
///   [`submit`](Self::submit); the simulator accepts them at any time.
///   Portable setup code declares everything first, then runs.
/// * Only the simulator fixes the order in which a merge consumes its
///   tokens (and reports virtual time). On wall-clock engines the consume
///   order is nondeterministic, so only commutative merges give the same
///   result everywhere.
///
/// ```
/// use dps_core::prelude::*;
/// use dps_core::Engine;
/// use dps_cluster::ClusterSpec;
///
/// dps_token! { pub struct Job { pub shards: u32 } }
/// dps_token! { pub struct Shard { pub value: u64 } }
/// dps_token! { pub struct Total { pub sum: u64 } }
///
/// struct Fan;
/// impl SplitOperation for Fan {
///     type Thread = (); type In = Job; type Out = Shard;
///     fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, j: Job) {
///         for value in 0..u64::from(j.shards) { ctx.post(Shard { value }); }
///     }
/// }
/// #[derive(Default)]
/// struct Sum { sum: u64 }
/// impl MergeOperation for Sum {
///     type Thread = (); type In = Shard; type Out = Total;
///     fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Total>, s: Shard) { self.sum += s.value; }
///     fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
///         ctx.post(Total { sum: self.sum });
///     }
/// }
///
/// /// One driver, any engine: the whole point of the unified API.
/// fn total_on<E: Engine>(eng: &mut E) -> u64 {
///     let app = eng.app("sum");
///     let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
///     let mut b = GraphBuilder::new("sum");
///     let s = b.split(&main, || ToThread(0), || Fan);
///     let m = b.merge(&main, || ToThread(0), Sum::default);
///     b.add(s >> m);
///     let g = eng.build_graph(b).unwrap();
///     eng.submit(g, Box::new(Job { shards: 10 })).unwrap();
///     eng.run_to_idle(g, 1).unwrap();
///     let out = eng.take_outputs(g).pop().unwrap();
///     downcast::<Total>(out).unwrap().sum
/// }
///
/// let mut sim = SimEngine::new(ClusterSpec::paper_testbed(2));
/// assert_eq!(total_on(&mut sim), 45);
/// ```
pub trait Engine {
    /// Short engine name for diagnostics and tables (e.g. `"sim"`, `"mt"`).
    fn name(&self) -> &'static str;

    /// What this engine can do beyond the portable core.
    fn caps(&self) -> EngineCaps;

    /// Run `f` on the engine's declaration table: the one declaration hook
    /// an engine implements. The five declaration steps below are provided
    /// over it and written once, in [`Decls`]. The `mt` and `net` engines
    /// panic here once a run has begun.
    fn declare<R>(&mut self, f: impl FnOnce(&mut Decls) -> R) -> R;

    /// Register a parallel application.
    fn app(&mut self, name: &str) -> AppHandle {
        self.declare(|d| d.app(name))
    }

    /// Pre-start `app`'s instance everywhere it could run, skipping lazy
    /// launch delays (steady-state measurement, as the paper reports its
    /// experiments). A no-op on engines without an instance-launch model.
    fn preload_app(&mut self, app: AppHandle) {
        let _ = app;
    }

    /// Register token type `T` with `app`'s deserialization factory
    /// (needed when serialization enforcement is on).
    fn register_token<T>(&mut self, app: AppHandle)
    where
        T: dps_serial::Wire + dps_serial::Identified + Clone + Debug + Send + 'static,
    {
        self.declare(|d| d.register_token::<T>(app))
    }

    /// Create and map a thread collection (`"node0*2 node1"` syntax).
    fn thread_collection<Td: ThreadData>(
        &mut self,
        app: AppHandle,
        name: &str,
        mapping: &str,
    ) -> Result<ThreadCollection<Td>> {
        let _ = name;
        self.declare(|d| d.thread_collection(app, mapping))
    }

    /// Validate a built graph and install it into its application. A node on
    /// a collection the application never declared is
    /// [`DpsError::UnmappedCollection`], one whose operation expects another
    /// thread-data type than its collection holds [`DpsError::InvalidGraph`]
    /// — here, on every engine, before anything runs.
    fn build_graph(&mut self, builder: GraphBuilder) -> Result<GraphHandle> {
        self.declare(|d| d.build_graph(builder))
    }

    /// Expose a graph as a named parallel service callable from other
    /// applications' graphs.
    fn expose_service(&mut self, graph: GraphHandle, name: &str) {
        self.declare(|d| d.expose_service(graph, name))
    }

    /// Register the sink receiving per-chunk completion reports (dynamic
    /// loop scheduling). The simulator reports virtual times, the threaded
    /// engine wall-clock times; only relative rates matter downstream.
    fn set_feedback_sink(&mut self, sink: Arc<dyn FeedbackSink>);

    /// Attach a trace sink: the engine records its events
    /// ([`dps_obs::EventKind`]) and metrics into `sink` from now on. On
    /// the `mt` and `net` engines the sink must be attached before the
    /// first [`submit`](Self::submit), like every other declaration. The
    /// default implementation ignores the sink (tracing is
    /// strictly opt-in and engines without instrumentation stay valid).
    fn set_trace_sink(&mut self, sink: Arc<dps_obs::TraceCollector>) {
        let _ = sink;
    }

    /// Submit a token into a graph's entry.
    fn submit(&mut self, graph: GraphHandle, token: TokenBox) -> Result<()>;

    /// Drive execution until `graph` has produced at least
    /// `expected_outputs` undrained outputs. The simulator drains its event
    /// queue; the threaded engine blocks until the outputs arrive (or its
    /// run timeout reports the DPS deadlock analogue).
    fn run_to_idle(&mut self, graph: GraphHandle, expected_outputs: usize) -> Result<()>;

    /// Drain the tokens that left `graph`. Output order is deterministic on
    /// virtual-time engines and unspecified on wall-clock engines.
    fn take_outputs(&mut self, graph: GraphHandle) -> Vec<TokenBox>;

    /// Seconds elapsed in the engine's own notion of time (virtual seconds
    /// on the simulator, wall-clock seconds on OS threads). Meaningful as
    /// differences around submitted work.
    fn now_secs(&self) -> f64;

    /// The [`ChunkHub`](dps_sched::ChunkHub) scheduled applications should
    /// announce ranges to and claim chunks from. Shared-memory engines
    /// return a fresh private hub per call: each scheduled setup owns its
    /// leases. Distributed engines return the process's own hub, homed at
    /// its rank: a lease lives where it was opened, and a claim from another
    /// process travels to that home, so the split that announces a range and
    /// the workers that claim its chunks meet across process boundaries.
    /// Portable setup code obtains its hub here, never by constructing one.
    fn chunk_hub(&mut self) -> Arc<dps_sched::ChunkHub> {
        Arc::new(dps_sched::ChunkHub::new())
    }
}

/// A typed application front door: a built flow graph taking `In` at its
/// entry and producing `Out` at its exit, driven through any [`Engine`]
/// without touching raw [`TokenBox`]es.
///
/// ```
/// use dps_core::prelude::*;
/// use dps_core::{Application, Engine};
/// use dps_cluster::ClusterSpec;
///
/// dps_token! { pub struct Ask { pub n: u64 } }
/// dps_token! { pub struct Squared { pub n: u64 } }
///
/// struct Sq;
/// impl LeafOperation for Sq {
///     type Thread = (); type In = Ask; type Out = Squared;
///     fn execute(&mut self, ctx: &mut OpCtx<'_, (), Squared>, a: Ask) {
///         ctx.post(Squared { n: a.n * a.n });
///     }
/// }
///
/// fn square_on<E: Engine>(eng: &mut E, n: u64) -> u64 {
///     let app = eng.app("square");
///     let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0").unwrap();
///     let mut b = GraphBuilder::new("square");
///     let _ = b.leaf(&tc, || ToThread(0), || Sq);
///     let sq: Application<E, Ask, Squared> = Application::build(eng, b).unwrap();
///     sq.call(eng, Ask { n }).unwrap().n
/// }
///
/// let mut sim = SimEngine::new(ClusterSpec::paper_testbed(1));
/// assert_eq!(square_on(&mut sim, 7), 49);
/// ```
pub struct Application<E: Engine, In: Token, Out: Token> {
    graph: GraphHandle,
    name: String,
    _m: std::marker::PhantomData<fn(&mut E, In) -> Out>,
}

impl<E: Engine, In, Out> Application<E, In, Out>
where
    In: Token + dps_serial::Identified,
    Out: Token,
{
    /// Validate and install `builder` into `eng`, checking that the graph's
    /// entry consumes `In` tokens.
    pub fn build(eng: &mut E, builder: GraphBuilder) -> Result<Self> {
        let name = builder.name().to_string();
        if let Some((entry_name, entry_in)) = builder.entry_signature() {
            if entry_in != <In as dps_serial::Identified>::wire_id() {
                return Err(DpsError::InvalidGraph {
                    reason: format!(
                        "application {name}: entry operation {entry_name} does not consume \
                         {} tokens",
                        In::WIRE_NAME
                    ),
                });
            }
        }
        let graph = eng.build_graph(builder)?;
        Ok(Self {
            graph,
            name,
            _m: std::marker::PhantomData,
        })
    }

    /// The underlying graph handle, for engine-specific operations.
    pub fn graph(&self) -> GraphHandle {
        self.graph
    }

    /// The graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-shot wave: submit `input`, run to completion, return the single
    /// `Out` the graph produced. Errors if the graph emits no output, more
    /// than one, or one of a different type.
    pub fn call(&self, eng: &mut E, input: In) -> Result<Box<Out>> {
        let mut outs = self.stream(eng, [input])?;
        if outs.len() != 1 {
            return Err(DpsError::OperationContract {
                node: self.name.clone(),
                reason: format!("call expected exactly one output, got {}", outs.len()),
            });
        }
        Ok(outs.pop().expect("length checked"))
    }

    /// Pipelined submission: submit every input up front (the engine
    /// overlaps their waves), run until one output per input has left the
    /// graph, and return them — in exit order on deterministic engines,
    /// unspecified order on wall-clock engines.
    pub fn stream(
        &self,
        eng: &mut E,
        inputs: impl IntoIterator<Item = In>,
    ) -> Result<Vec<Box<Out>>> {
        let mut n = 0usize;
        for input in inputs {
            eng.submit(self.graph, Box::new(input))?;
            n += 1;
        }
        eng.run_to_idle(self.graph, n)?;
        eng.take_outputs(self.graph)
            .into_iter()
            .map(|tok| {
                downcast::<Out>(tok).map_err(|t| DpsError::OperationContract {
                    node: self.name.clone(),
                    reason: format!(
                        "application output type mismatch: expected {}, got {}",
                        std::any::type_name::<Out>(),
                        t.type_name()
                    ),
                })
            })
            .collect()
    }
}
