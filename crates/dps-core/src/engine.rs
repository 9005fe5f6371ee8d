//! The deterministic simulation engine: executes parallel schedules on the
//! virtual cluster in virtual time.
//!
//! This engine implements the paper's runtime semantics — per-thread token
//! queues, automatic pipelining, split/merge token accounting, flow control,
//! lazy connections and lazy application-instance launch — on top of the
//! [`dps_des`] event loop and the [`dps_cluster`] world model. User
//! operation code runs *for real* (results are genuine and checkable); only
//! *time* is simulated, so 8-node speedup curves reproduce deterministically
//! on any host.
//!
//! The companion `dps-mt` crate runs the same graphs on real OS threads.

use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dps_cluster::{resolve_mapping, AppId, Cluster, ClusterSpec};
use dps_des::{PoolId, Sim, SimSpan, SimTime};
use dps_net::NodeId;
use dps_obs::{Counter, EventKind, LabelId, TraceCollector, TraceWriter};
use dps_sched::FeedbackSink;

use crate::builder::GraphBuilder;
use crate::envelope::{Envelope, GNodeId, WaveKey};
use crate::error::{DpsError, Result};
use crate::graph::{Flowgraph, OpKind};
use crate::kernel::{self, CallReturn, CloseTo, Exit, Flow, Instances, Pins, Routed, Wave};
use crate::ops::{ExecInfo, OpOutput, ThreadData};
use crate::route::{DynRoute, RouteInfo};
use crate::threads::ThreadCollection;
use crate::token::{register_token, wire_roundtrip, Token, TokenBox, TokenRegistry};

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum tokens in circulation between one split/merge pair
    /// (paper §3, *Flow control*). `0` disables the bound.
    pub flow_window: u32,
    /// Fixed framework overhead charged to every operation execution
    /// (queue handling, dispatch, control structures).
    pub op_overhead: SimSpan,
    /// Force every cross-node token through a full serialize/deserialize
    /// round trip (the paper's multi-kernel debugging mode). Requires all
    /// token types to be registered with the owning application.
    pub enforce_serialization: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            // Wide enough that typical fan-outs are not throttled; the
            // paper's feedback bound protects memory, not parallelism.
            flow_window: 64,
            op_overhead: SimSpan::from_micros(25),
            enforce_serialization: false,
        }
    }
}

/// Handle to an application registered with an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppHandle {
    pub(crate) app: u32,
}

/// Handle to a built graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphHandle {
    pub(crate) app: u32,
    pub(crate) graph: u32,
}

/// Address of one DPS thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ThreadKey {
    app: u32,
    tc: u32,
    thread: u32,
}

enum Payload {
    /// A data object.
    Token(TokenBox),
    /// Wave-close control info: the producer finished; the wave holds
    /// `total` tokens. Sent only when the final data object was already in
    /// flight before the producer knew the count.
    Close { total: u32 },
}

struct Delivery {
    graph: u32,
    node: GNodeId,
    kind: OpKind,
    interactive: bool,
    payload: Payload,
    env: Envelope,
}

#[derive(Default)]
struct ThreadRt {
    queue: VecDeque<Delivery>,
    running: bool,
    stalls: u32,
    /// Deliveries routed to this thread and not yet finished — the load
    /// signal for [`LeastLoaded`](crate::LeastLoaded) routing. Queue depth
    /// alone is blind to in-flight tokens: a burst routed before any
    /// delivery lands would all pick the same thread.
    assigned: u32,
}

struct TcRt {
    td_type: TypeId,
    nodes: Vec<NodeId>,
    data: Vec<Box<dyn Any + Send>>,
    threads: Vec<ThreadRt>,
}

/// One wave's posts on their way out, in virtual time.
struct FlowRt {
    /// Each pending post waits for its virtual send instant.
    flow: Flow<(SimTime, TokenBox)>,
    /// Cluster node of the producing thread.
    src: NodeId,
    /// The split's thread, stalled while posts are flow-blocked.
    stalled_thread: Option<ThreadKey>,
    pump_scheduled: bool,
}

impl FlowRt {
    fn new(flow: Flow<(SimTime, TokenBox)>, src: NodeId) -> Self {
        Self {
            flow,
            src,
            stalled_thread: None,
            pump_scheduled: false,
        }
    }
}

struct GraphRt {
    def: Flowgraph,
    routes: Vec<Box<dyn DynRoute>>,
    /// Operation instances of the whole graph: split/leaf slots are
    /// `(node, thread)`; a wave is entered when its first token is routed
    /// (that is where a stream's output wave id is allocated).
    inst: Instances,
    pins: Pins,
    /// Keyed by `(producing node, wave)`.
    flows: HashMap<(u32, u64), FlowRt>,
}

struct AppRt {
    id: AppId,
    home: NodeId,
    registry: TokenRegistry,
    tcs: Vec<TcRt>,
    graphs: Vec<GraphRt>,
}

struct Rt {
    cluster: Cluster,
    cfg: EngineConfig,
    apps: Vec<AppRt>,
    services: HashMap<String, GraphHandle>,
    node_pools: Vec<PoolId>,
    next_wave: u64,
    next_call: u64,
    pending_calls: HashMap<u64, CallReturn>,
    outputs: HashMap<(u32, u32), Vec<(SimTime, TokenBox)>>,
    fatal: Option<DpsError>,
    /// Chunk-completion reports (virtual time) go here, if registered —
    /// the dynamic loop-scheduling feedback channel (`dps-sched`).
    feedback: Option<Arc<dyn FeedbackSink>>,
    /// Collections `(app, tc)` that have reported chunks to the sink — the
    /// index space `fail_node` translates dead nodes into.
    feedback_tcs: Vec<(u32, u32)>,
    /// Deliveries re-routed away from failed nodes (graceful degradation).
    requeued: u64,
    /// Attached trace sink: the simulator records every track through one
    /// writer (single-threaded), stamping *virtual* nanoseconds.
    trace: Option<SimTrace>,
    /// Flow ids linking each `TokenEnqueue` to its `TokenDeliver`.
    next_flow: u64,
    /// Seeded network fault injection (simulation testing): consulted once
    /// per cross-node transfer, perturbing delivery timing and wire cost —
    /// never payloads (the modeled transport is reliable).
    faults: Option<dps_net::FaultInjector>,
}

struct SimTrace {
    collector: Arc<TraceCollector>,
    writer: TraceWriter,
}

impl Rt {
    fn thread(&mut self, tk: ThreadKey) -> &mut ThreadRt {
        &mut self.apps[tk.app as usize].tcs[tk.tc as usize].threads[tk.thread as usize]
    }

    fn graph(&mut self, app: u32, graph: u32) -> &mut GraphRt {
        &mut self.apps[app as usize].graphs[graph as usize]
    }

    fn fail(&mut self, e: DpsError) {
        if self.fatal.is_none() {
            self.fatal = Some(e);
        }
    }

    /// Record a trace event at virtual time `at` on track `(node, thread)`
    /// — a no-op without an attached sink.
    fn trace_on(&mut self, at: SimTime, node: u16, thread: u16, kind: EventKind) {
        if let Some(t) = &mut self.trace {
            t.writer.record_on(at.as_nanos(), node, thread, kind);
        }
    }

    /// Intern `name` into the attached sink's label table.
    fn trace_label(&self, name: &str) -> LabelId {
        self.trace
            .as_ref()
            .map_or(LabelId(0), |t| t.collector.label(name))
    }

    /// The interned label of a graph's name.
    fn graph_label(&self, app: u32, graph: u32) -> LabelId {
        self.trace_label(self.apps[app as usize].graphs[graph as usize].def.name())
    }

    /// Bump a metrics counter on the attached sink.
    fn trace_add(&self, c: Counter, n: u64) {
        if let Some(t) = &self.trace {
            t.collector.metrics().add(c, n);
        }
    }

    /// Drain writer rings into the sink's log (called at wave boundaries so
    /// the 16k-event rings never wrap on long runs).
    fn trace_drain(&self) {
        if let Some(t) = &self.trace {
            t.collector.drain();
        }
    }
}

/// The deterministic simulation engine.
///
/// ```
/// use dps_core::prelude::*;
/// use dps_cluster::ClusterSpec;
///
/// dps_token! { pub struct Work { pub items: u32 } }
/// dps_token! { pub struct Item { pub i: u32 } }
/// dps_token! { pub struct Done { pub sum: u32 } }
///
/// struct Fan;
/// impl SplitOperation for Fan {
///     type Thread = (); type In = Work; type Out = Item;
///     fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, w: Work) {
///         for i in 0..w.items { ctx.post(Item { i }); }
///     }
/// }
/// struct Sq;
/// impl LeafOperation for Sq {
///     type Thread = (); type In = Item; type Out = Item;
///     fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
///         ctx.post(Item { i: t.i * t.i });
///     }
/// }
/// #[derive(Default)]
/// struct Gather { sum: u32 }
/// impl MergeOperation for Gather {
///     type Thread = (); type In = Item; type Out = Done;
///     fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Done>, t: Item) { self.sum += t.i; }
///     fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Done>) {
///         ctx.post(Done { sum: self.sum });
///     }
/// }
///
/// let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));
/// let app = eng.app("demo");
/// let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
/// let workers: ThreadCollection<()> =
///     eng.thread_collection(app, "proc", "node0 node1 node2 node3").unwrap();
///
/// let mut b = GraphBuilder::new("sumsq");
/// let split = b.split(&main, || ToThread(0), || Fan);
/// let leaf = b.leaf(&workers, RoundRobin::new, || Sq);
/// let merge = b.merge(&main, || ToThread(0), Gather::default);
/// b.add(split >> leaf >> merge);
/// let g = eng.build_graph(b).unwrap();
///
/// eng.inject(g, Work { items: 10 }).unwrap();
/// eng.run_until_idle().unwrap();
/// let out = eng.take_outputs(g);
/// assert_eq!(out.len(), 1);
/// let done = dps_core::downcast::<Done>(out.into_iter().next().unwrap().1).unwrap();
/// assert_eq!(done.sum, (0..10).map(|i| i * i).sum::<u32>());
/// ```
pub struct SimEngine {
    sim: Sim<Rt>,
}

impl SimEngine {
    /// Engine over `spec` with default configuration.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_config(spec, EngineConfig::default())
    }

    /// Engine over `spec` with explicit configuration.
    pub fn with_config(spec: ClusterSpec, cfg: EngineConfig) -> Self {
        let cluster = Cluster::new(spec);
        let n = cluster.len();
        let rt = Rt {
            cluster,
            cfg,
            apps: Vec::new(),
            services: HashMap::new(),
            node_pools: Vec::new(),
            next_wave: 0,
            next_call: 0,
            pending_calls: HashMap::new(),
            outputs: HashMap::new(),
            fatal: None,
            feedback: None,
            feedback_tcs: Vec::new(),
            requeued: 0,
            trace: None,
            next_flow: 0,
            faults: None,
        };
        let mut sim = Sim::new(rt);
        for i in 0..n {
            let cpus = sim.world.cluster.spec().node(NodeId(i as u32)).cpus;
            let pool = sim.add_pool(cpus);
            sim.world.node_pools.push(pool);
        }
        Self { sim }
    }

    /// Register a parallel application. Its instance on the *home node*
    /// (node 0) is preloaded — that is where the user started the binary;
    /// instances on other nodes launch lazily when the first token arrives.
    pub fn app(&mut self, _name: &str) -> AppHandle {
        let idx = self.sim.world.apps.len() as u32;
        let id = AppId(idx);
        let home = NodeId(0);
        self.sim.world.cluster.deploy.preload(id, home);
        self.sim.world.apps.push(AppRt {
            id,
            home,
            registry: TokenRegistry::new(),
            tcs: Vec::new(),
            graphs: Vec::new(),
        });
        AppHandle { app: idx }
    }

    /// Pre-start `app`'s instance on every cluster node, skipping the lazy
    /// launch delay for subsequent tokens. Benchmarks use this to measure
    /// steady state, as the paper does (its ≈1 s start-up on 8 nodes is
    /// reported separately from the experiment timings).
    pub fn preload_app(&mut self, app: AppHandle) {
        let id = self.sim.world.apps[app.app as usize].id;
        let nodes: Vec<_> = self.sim.world.cluster.spec().node_ids().collect();
        for node in nodes {
            self.sim.world.cluster.deploy.preload(id, node);
        }
    }

    /// Register token type `T` with `app`'s deserialization factory
    /// (needed only when `enforce_serialization` is on).
    pub fn register_token<T>(&mut self, app: AppHandle)
    where
        T: dps_serial::Wire + dps_serial::Identified + Clone + std::fmt::Debug + Send + 'static,
    {
        register_token::<T>(&mut self.sim.world.apps[app.app as usize].registry);
    }

    /// Create and map a thread collection in one step (paper §3:
    /// `new ThreadCollection<ComputeThread>("proc")` followed by
    /// `map("nodeA*2 nodeB")`).
    pub fn thread_collection<Td: ThreadData>(
        &mut self,
        app: AppHandle,
        _name: &str,
        mapping: &str,
    ) -> Result<ThreadCollection<Td>> {
        let nodes = resolve_mapping(self.sim.world.cluster.spec(), mapping)?;
        let a = &mut self.sim.world.apps[app.app as usize];
        let tc_idx = a.tcs.len() as u32;
        let count = nodes.len();
        a.tcs.push(TcRt {
            td_type: TypeId::of::<Td>(),
            data: (0..count)
                .map(|_| Box::new(Td::default()) as Box<dyn Any + Send>)
                .collect(),
            threads: (0..count).map(|_| ThreadRt::default()).collect(),
            nodes,
        });
        Ok(ThreadCollection {
            app: app.app,
            tc: tc_idx,
            threads: count,
            _m: std::marker::PhantomData,
        })
    }

    /// Validate a built graph and install it into its application.
    pub fn build_graph(&mut self, builder: GraphBuilder) -> Result<GraphHandle> {
        let app = builder.app.ok_or_else(|| DpsError::InvalidGraph {
            reason: "graph has no nodes".into(),
        })?;
        let GraphBuilder {
            name,
            nodes,
            edges,
            interactive,
            serving,
            registrations,
            ..
        } = builder;
        // Cross-check collections exist and thread-data types line up.
        {
            let a = &self.sim.world.apps[app as usize];
            for n in &nodes {
                let tc = a
                    .tcs
                    .get(n.tc as usize)
                    .ok_or_else(|| DpsError::UnmappedCollection {
                        name: format!("tc#{}", n.tc),
                    })?;
                if tc.td_type != n.td_type {
                    return Err(DpsError::InvalidGraph {
                        reason: format!(
                            "node {} expects a different thread-data type than collection tc#{}",
                            n.name, n.tc
                        ),
                    });
                }
            }
        }
        let mut def = Flowgraph::assemble(name, nodes, &edges, serving)?;
        def.set_interactive(interactive);
        def.set_registrations(registrations);
        let routes = def.nodes().iter().map(|n| (n.route_factory)()).collect();
        let a = &mut self.sim.world.apps[app as usize];
        def.register_tokens(&mut a.registry);
        let graph = a.graphs.len() as u32;
        a.graphs.push(GraphRt {
            def,
            routes,
            inst: Instances::default(),
            pins: Pins::default(),
            flows: HashMap::new(),
        });
        Ok(GraphHandle { app, graph })
    }

    /// Expose a graph as a named parallel service callable from other
    /// applications' graphs (paper §5, *Exposing the Game of Life as a
    /// parallel service*).
    pub fn expose_service(&mut self, graph: GraphHandle, name: &str) {
        self.sim.world.services.insert(name.to_string(), graph);
    }

    /// Inject a token into a graph's entry at the current virtual time.
    pub fn inject<T: Token>(&mut self, graph: GraphHandle, token: T) -> Result<()> {
        self.inject_boxed_at(self.sim.now(), graph, Box::new(token))
    }

    /// Inject a token at a future virtual instant.
    pub fn inject_at<T: Token>(&mut self, at: SimTime, graph: GraphHandle, token: T) -> Result<()> {
        self.inject_boxed_at(at, graph, Box::new(token))
    }

    /// Inject an already-boxed token at a future virtual instant.
    pub fn inject_boxed_at(
        &mut self,
        at: SimTime,
        graph: GraphHandle,
        token: TokenBox,
    ) -> Result<()> {
        let src = self.sim.world.apps[graph.app as usize].home;
        self.sim.schedule_at(at, move |sim| {
            inject_internal(sim, graph.app, graph.graph, token, Envelope::root(), src);
        });
        Ok(())
    }

    /// Run until the event queue drains; fails if a runtime contract was
    /// violated or waves are left incomplete (the DPS deadlock analogue).
    pub fn run_until_idle(&mut self) -> Result<()> {
        self.sim.run();
        self.sim.world.trace_drain();
        if let Some(e) = self.sim.world.fatal.take() {
            return Err(e);
        }
        let mut stuck: Vec<String> = Vec::new();
        for a in &self.sim.world.apps {
            for g in &a.graphs {
                for (key, wave) in &g.inst.waves {
                    let node = g.def.node(key.src);
                    stuck.push(format!(
                        "graph {} wave at {} from {}: received {}, expected {:?}",
                        g.def.name(),
                        node.name,
                        key.src,
                        wave.received(),
                        wave.expected()
                    ));
                }
                for ((node, wv), f) in &g.flows {
                    if f.flow.pending() > 0 {
                        stuck.push(format!(
                            "graph {} flow from node g{node} wave {wv}: {} posts undelivered",
                            g.def.name(),
                            f.flow.pending()
                        ));
                    }
                }
            }
        }
        if !stuck.is_empty() {
            stuck.sort();
            return Err(DpsError::IncompleteWaves { waves: stuck });
        }
        Ok(())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Fire a single simulation event; returns `false` once the event queue
    /// is empty. Use together with [`outputs_count`](Self::outputs_count)
    /// to interleave concurrently running applications (e.g. the paper's
    /// Table 2 experiment drives Life iterations while injecting service
    /// calls from a client application in a closed loop).
    pub fn step_once(&mut self) -> Result<bool> {
        let more = self.sim.step();
        if let Some(e) = self.sim.world.fatal.take() {
            return Err(e);
        }
        Ok(more)
    }

    /// Number of outputs `graph` has produced so far (not yet drained).
    pub fn outputs_count(&self, graph: GraphHandle) -> usize {
        self.sim
            .world
            .outputs
            .get(&(graph.app, graph.graph))
            .map(Vec::len)
            .unwrap_or(0)
    }

    /// Drain the tokens that left `graph` (with their exit timestamps, in
    /// nondecreasing order).
    pub fn take_outputs(&mut self, graph: GraphHandle) -> Vec<(SimTime, TokenBox)> {
        self.sim
            .world
            .outputs
            .remove(&(graph.app, graph.graph))
            .unwrap_or_default()
    }

    /// Inspect/mutate the thread-local state of one thread (e.g. to preload
    /// a distributed matrix, or to read results after a run).
    pub fn thread_data_mut<Td: ThreadData>(
        &mut self,
        tc: &ThreadCollection<Td>,
        thread: usize,
    ) -> &mut Td {
        self.sim.world.apps[tc.app as usize].tcs[tc.tc as usize].data[thread]
            .downcast_mut::<Td>()
            .expect("thread data type enforced at collection creation")
    }

    /// The virtual cluster (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.sim.world.cluster
    }

    /// The virtual cluster (mutable — e.g. for failure injection).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.sim.world.cluster
    }

    /// Inject a node failure *and re-queue the stranded work*: the node's
    /// kernel unregisters ([`Cluster::fail_node`]), the registered feedback
    /// sink is told the worker is lost, and every delivery queued on (or in
    /// flight to) the dead node's threads is routed again — load-aware
    /// routes such as [`ChunkRoute`](crate::sched::ChunkRoute) see the dead
    /// threads at infinite load and shed the work to live ones, so a
    /// scheduled wave completes with correct results despite the loss.
    ///
    /// Work that *cannot* move — tokens pinned by a stateful affinity route,
    /// or merge waves whose partial state lived on the dead node — surfaces
    /// as [`DpsError::NodeDown`].
    pub fn fail_node(&mut self, node: NodeId) -> Result<()> {
        fail_node_internal(&mut self.sim, node);
        if let Some(e) = self.sim.world.fatal.take() {
            return Err(e);
        }
        Ok(())
    }

    /// Schedule a [`fail_node`](Self::fail_node) at virtual time `at` —
    /// the simulation-testing harness's way of killing a node *mid-wave*,
    /// between whatever deliveries happen to straddle that instant. Errors
    /// the failure provokes surface from the enclosing
    /// [`run_until_idle`](Self::run_until_idle) / [`step_once`](Self::step_once).
    pub fn schedule_fail_node(&mut self, at: SimTime, node: NodeId) {
        let at = at.max(self.sim.now());
        self.sim
            .schedule_at(at, move |sim| fail_node_internal(sim, node));
    }

    /// Deliveries re-routed away from failed nodes so far.
    pub fn requeued(&self) -> u64 {
        self.sim.world.requeued
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.sim.world.cfg
    }

    /// Register the sink receiving per-chunk completion reports (dynamic
    /// loop scheduling, see [`crate::sched`]). The simulator reports
    /// *virtual* execution times at the chunk's virtual completion instant,
    /// so adaptive policies behave deterministically. Typically the sink is
    /// the same [`FeedbackBoard`](dps_sched::FeedbackBoard) the graph's
    /// [`ScheduledSplit`](crate::sched::ScheduledSplit) reads weights from.
    pub fn set_feedback_sink(&mut self, sink: Arc<dyn FeedbackSink>) {
        self.sim.world.feedback = Some(sink);
    }

    /// Attach a trace sink: from now on the engine records its schedule —
    /// waves, op spans, token movement, chunk completions, failures — into
    /// `sink` with **virtual** timestamps. Because the simulator is
    /// deterministic, the recorded event stream (and its
    /// [`dps_obs::schedule_hash`]) is identical across replays of the same
    /// seeded workload.
    pub fn set_trace_sink(&mut self, sink: Arc<TraceCollector>) {
        let writer = sink.writer(0, 0);
        self.sim.world.trace = Some(SimTrace {
            collector: sink,
            writer,
        });
    }

    /// The attached trace sink, if any.
    pub fn trace_collector(&self) -> Option<Arc<TraceCollector>> {
        self.sim
            .world
            .trace
            .as_ref()
            .map(|t| Arc::clone(&t.collector))
    }

    /// Perturb delivery interleaving: install a seeded tie-break on the
    /// event queue so simultaneous events fire in a deterministic *shuffled*
    /// order instead of scheduling order. Events at different instants are
    /// untouched (causality holds); the same seed replays the same
    /// interleaving exactly. This is the simulation-testing harness's
    /// cheapest perturbation — it explores the orderings a real concurrent
    /// engine could exhibit without moving a single virtual timestamp.
    pub fn set_delivery_shuffle(&mut self, seed: u64) {
        let mut rng = dps_des::SplitMix64::new(seed);
        self.sim.set_tie_break(move |seq| rng.next_u64() ^ seq);
    }

    /// Inject seeded network faults: every cross-node transfer consults a
    /// [`dps_net::FaultInjector`], which may add retransmit timeouts
    /// (modeled drops), delay jitter, or duplicate wire copies. The modeled
    /// transport stays reliable — payloads are never lost or corrupted — so
    /// outputs must remain byte-identical; only timing, interleaving and
    /// wire cost move. Each injected fault leaves an
    /// [`EventKind::Fault`] breadcrumb on the trace.
    pub fn set_net_faults(&mut self, cfg: dps_net::FaultConfig, seed: u64) {
        self.sim.world.faults = if cfg.is_none() {
            None
        } else {
            Some(dps_net::FaultInjector::new(cfg, seed))
        };
    }

    /// `(transfers consulted, transfers perturbed)` by the active fault
    /// injector, if one is installed.
    pub fn net_fault_stats(&self) -> Option<(u64, u64)> {
        self.sim
            .world
            .faults
            .as_ref()
            .map(|f| (f.decisions(), f.faults()))
    }

    /// Deliveries sitting in thread queues right now — zero once the engine
    /// is idle (the no-stranded-deliveries invariant; `run_until_idle`
    /// reports the stuck waves themselves, this counts the raw queue
    /// residue).
    pub fn queued_deliveries(&self) -> usize {
        self.sim
            .world
            .apps
            .iter()
            .flat_map(|a| &a.tcs)
            .flat_map(|tc| &tc.threads)
            .map(|t| t.queue.len())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Execution internals (free functions over Sim<Rt>).
//
// What a wave *means* — counting, completion, numbering, the flow window,
// pinning, graph exits — is `crate::kernel`. What is written here is the
// simulator's substrate: which virtual instant each step happens at, the
// per-thread queues, CPU pools and stalls, the modeled network, tracing.
// ---------------------------------------------------------------------------

impl Rt {
    /// `DpsError::NodeDown` for work bound to `thread` of collection `tc`,
    /// whose node is dead, at graph node `target`.
    fn node_down(&self, app: u32, tc: u32, thread: u32, graph: u32, target: GNodeId) -> DpsError {
        let a = &self.apps[app as usize];
        let host = a.tcs[tc as usize].nodes[thread as usize];
        DpsError::NodeDown {
            node: self.cluster.spec().node(host).name.clone(),
            target: a.graphs[graph as usize].def.node(target).name.clone(),
        }
    }
}

/// The body of [`SimEngine::fail_node`], callable from a scheduled event
/// (errors land in `world.fatal` and surface from the run loop).
fn fail_node_internal(sim: &mut Sim<Rt>, node: NodeId) {
    sim.world.cluster.fail_node(node);
    let now = sim.now();
    sim.world.trace_on(
        now,
        node.0 as u16,
        0,
        EventKind::NodeDown {
            node: node.0 as u16,
        },
    );
    sim.world.trace_add(Counter::NodesDown, 1);
    if let Some(sink) = &sim.world.feedback {
        let apps = &sim.world.apps;
        let hosts = |app: u32, tc: u32| &apps[app as usize].tcs[tc as usize].nodes[..];
        for worker in kernel::lost_workers(&sim.world.feedback_tcs, hosts, &node) {
            sink.worker_lost(worker);
        }
    }
    // Drain every queue of every thread hosted on the dead node.
    // Tokens re-route first — a fresh merge wave's first re-routed
    // token re-pins the wave to a live thread — and wave-close messages
    // re-deliver after, so they follow their wave to its new home.
    let mut tokens: Vec<(u32, Delivery)> = Vec::new();
    let mut closes: Vec<(u32, Delivery)> = Vec::new();
    for (app_idx, app) in sim.world.apps.iter_mut().enumerate() {
        for tc in &mut app.tcs {
            for (thread, rt) in tc.threads.iter_mut().enumerate() {
                if tc.nodes[thread] == node {
                    rt.assigned = 0;
                    for d in rt.queue.drain(..) {
                        match d.payload {
                            Payload::Token(_) => tokens.push((app_idx as u32, d)),
                            Payload::Close { .. } => closes.push((app_idx as u32, d)),
                        }
                    }
                }
            }
        }
    }
    let stranded = tokens.len() as u32;
    if stranded > 0 {
        sim.world.trace_on(
            now,
            node.0 as u16,
            0,
            EventKind::Requeue { tokens: stranded },
        );
        sim.world.trace_add(Counter::Requeues, stranded as u64);
    }
    // The kill itself leaves a breadcrumb even when nothing was stranded —
    // a perturbed run's Chrome trace shows *where* the harness struck.
    sim.world.trace_on(
        now,
        node.0 as u16,
        0,
        EventKind::Fault {
            code: dps_obs::fault_code::NODE_KILL,
            detail: stranded as u64,
        },
    );
    for (app, d) in tokens {
        let Payload::Token(token) = d.payload else {
            unreachable!("partitioned above");
        };
        sim.world.requeued += 1;
        let src = sim.world.apps[app as usize].home;
        route_and_send(sim, app, d.graph, d.node, src, token, d.env);
    }
    for (app, d) in closes {
        let Payload::Close { total } = d.payload else {
            unreachable!("partitioned above");
        };
        if deliver_close(sim, app, d.graph, d.env, total) {
            sim.world.requeued += 1;
        }
    }
}

fn inject_internal(
    sim: &mut Sim<Rt>,
    app: u32,
    graph: u32,
    token: TokenBox,
    env: Envelope,
    src: NodeId,
) {
    if sim.world.fatal.is_some() {
        return;
    }
    let entry = sim.world.graph(app, graph).def.entry();
    route_and_send(sim, app, graph, entry, src, token, env);
}

/// Deliver `token` to graph node `to` (already chosen): route to a thread,
/// plan the network transfer, and enqueue the delivery.
fn route_and_send(
    sim: &mut Sim<Rt>,
    app: u32,
    graph: u32,
    to: GNodeId,
    src: NodeId,
    token: TokenBox,
    env: Envelope,
) {
    let now = sim.now();
    // Routing: build load info, run the route, apply the wave pin.
    let (tc_idx, kind, interactive) = {
        let g = sim.world.graph(app, graph);
        let n = g.def.node(to);
        (n.tc, n.kind, g.def.is_interactive())
    };
    // Threads on failed nodes report infinite load so load-aware routes
    // (LeastLoaded, ChunkRoute) steer work away from them.
    let load: Vec<u32> = {
        let tc = &sim.world.apps[app as usize].tcs[tc_idx as usize];
        tc.threads
            .iter()
            .zip(&tc.nodes)
            .map(|(t, &n)| {
                if sim.world.cluster.is_alive(n) {
                    t.assigned
                } else {
                    u32::MAX
                }
            })
            .collect()
    };
    let routed = {
        let g = sim.world.graph(app, graph);
        let info = RouteInfo {
            thread_count: load.len(),
            load: Some(&load),
        };
        g.routes[to.0 as usize].route_dyn(token.as_ref(), &info, &g.def.node(to).name)
    };
    let mut thread = match routed {
        Ok(i) => i as u32,
        Err(e) => {
            sim.world.fail(e);
            return;
        }
    };

    // Merge/stream waves: all tokens of one wave execute on one thread
    // instance (kernel rule 6).
    if matches!(kind, OpKind::Merge | OpKind::Stream) {
        let key = env.wave_key().expect("validated: merges are under a split");
        let world = &mut sim.world;
        let a = &mut world.apps[app as usize];
        let g = &mut a.graphs[graph as usize];
        let (cluster, hosts) = (&world.cluster, &a.tcs[tc_idx as usize].nodes);
        let alive = |t: u32| cluster.is_alive(hosts[t as usize]);
        let fresh = || g.inst.waves.get(&key).is_none_or(Wave::is_fresh);
        match g.pins.route(&key, thread, alive, fresh) {
            Ok(Routed::Follow(pinned)) => thread = pinned,
            Ok(Routed::Pinned { parked }) => {
                // The wave's record outlives a move; a new one takes the
                // next wave id for its stream output.
                let wave = g.inst.waves.entry(key).or_insert_with(|| {
                    let out_wave = world.next_wave;
                    world.next_wave += 1;
                    Wave::new(graph, to, out_wave)
                });
                if let Some(total) = parked {
                    if let Err(e) = wave.close(total, &g.def.node(to).name) {
                        world.fail(e);
                        return;
                    }
                }
            }
            Err(dead) => {
                let e = world.node_down(app, tc_idx, dead, graph, to);
                world.fail(e);
                return;
            }
        }
    }

    let tk = ThreadKey {
        app,
        tc: tc_idx,
        thread,
    };
    let dst = sim.world.apps[app as usize].tcs[tc_idx as usize].nodes[thread as usize];
    if !sim.world.cluster.is_alive(dst) {
        // The route insisted on a dead thread (stateful affinity, or the
        // whole collection is down): the work cannot be re-queued.
        let e = sim.world.node_down(app, tc_idx, thread, graph, to);
        sim.world.fail(e);
        return;
    }
    let bytes = (token.payload_size() + env.wire_bytes() + 10) as u64;

    // The multi-kernel debugging mode: force the full networking code path.
    let token = if sim.world.cfg.enforce_serialization && src != dst {
        match wire_roundtrip(token.as_ref(), &sim.world.apps[app as usize].registry) {
            Ok(t) => t,
            Err(e) => {
                sim.world.fail(e);
                return;
            }
        }
    } else {
        token
    };

    sim.world.thread(tk).assigned += 1;
    let app_id = sim.world.apps[app as usize].id;
    // Tracing: one flow id ties this enqueue to its delivery below.
    let flow_trace = if sim.world.trace.is_some() {
        let flow = sim.world.next_flow;
        sim.world.next_flow += 1;
        let label = sim.world.trace_label(token.type_name());
        let wave = env.frames.last().map_or(0, |f| f.wave as u32);
        sim.world.trace_on(
            now,
            src.0 as u16,
            0,
            EventKind::TokenEnqueue {
                token: label,
                wave,
                flow,
            },
        );
        sim.world.trace_add(Counter::TokensEnqueued, 1);
        Some((label, wave, flow))
    } else {
        None
    };
    let mut plan = sim
        .world
        .cluster
        .deliver_token(now, app_id, src, dst, bytes);
    // Seeded fault injection: drops become retransmit timeouts, delays add
    // jitter, duplicates cost wire bytes — the payload itself always
    // arrives (reliable transport), so correctness invariants still bind.
    if src != dst {
        if let Some(inj) = &mut sim.world.faults {
            let d = inj.decide();
            if d.faulted() {
                plan.delivered += d.extra_delay;
                let extra_copies = (d.retransmits + d.duplicates) as u64;
                if extra_copies > 0 && plan.wire_bytes > 0 {
                    sim.world
                        .trace_add(Counter::WireBytesSent, extra_copies * plan.wire_bytes);
                }
                if d.retransmits > 0 {
                    sim.world.trace_on(
                        now,
                        src.0 as u16,
                        0,
                        EventKind::Fault {
                            code: dps_obs::fault_code::NET_DROP,
                            detail: d.retransmits as u64,
                        },
                    );
                }
                if d.duplicates > 0 {
                    sim.world.trace_on(
                        now,
                        src.0 as u16,
                        0,
                        EventKind::Fault {
                            code: dps_obs::fault_code::NET_DUP,
                            detail: d.duplicates as u64,
                        },
                    );
                }
                if d.extra_delay > SimSpan::ZERO && d.retransmits == 0 {
                    sim.world.trace_on(
                        now,
                        src.0 as u16,
                        0,
                        EventKind::Fault {
                            code: dps_obs::fault_code::NET_DELAY,
                            detail: d.extra_delay.as_nanos(),
                        },
                    );
                }
            }
        }
    }
    // Bridge the network model's transfer accounting into the trace: one
    // FrameSend/FrameRecv pair per cross-node hop, with the model's own
    // wire-byte count (payload + DPS header), so the trace metrics agree
    // with `NetworkModel::wire_bytes_total` to the byte.
    if let Some((label, _, _)) = flow_trace {
        if plan.wire_bytes > 0 {
            sim.world.trace_on(
                plan.sender_done,
                src.0 as u16,
                0,
                EventKind::FrameSend {
                    frame: label,
                    bytes: plan.wire_bytes,
                },
            );
            sim.world.trace_on(
                plan.delivered,
                dst.0 as u16,
                0,
                EventKind::FrameRecv {
                    frame: label,
                    bytes: plan.wire_bytes,
                },
            );
            sim.world.trace_add(Counter::FramesSent, 1);
            sim.world.trace_add(Counter::FramesRecv, 1);
            sim.world.trace_add(Counter::WireBytesSent, plan.wire_bytes);
            sim.world.trace_add(Counter::WireBytesRecv, plan.wire_bytes);
        }
    }
    sim.schedule_at(plan.delivered, move |sim| {
        if sim.world.fatal.is_some() {
            return;
        }
        if !sim.world.cluster.is_alive(dst) {
            // The node failed while the token was in flight: hand the
            // delivery back to the router, which now sees the death and
            // sheds the work to a live thread.
            let t = sim.world.thread(tk);
            t.assigned = t.assigned.saturating_sub(1);
            sim.world.requeued += 1;
            let at = sim.now();
            sim.world.trace_on(
                at,
                dst.0 as u16,
                tk.thread as u16,
                EventKind::Requeue { tokens: 1 },
            );
            sim.world.trace_add(Counter::Requeues, 1);
            route_and_send(sim, app, graph, to, src, token, env);
            return;
        }
        if let Some((label, wave, flow)) = flow_trace {
            let at = sim.now();
            sim.world.trace_on(
                at,
                dst.0 as u16,
                tk.thread as u16,
                EventKind::TokenDeliver {
                    token: label,
                    wave,
                    flow,
                },
            );
            sim.world.trace_add(Counter::TokensDelivered, 1);
        }
        sim.world.thread(tk).queue.push_back(Delivery {
            graph,
            node: to,
            kind,
            interactive,
            payload: Payload::Token(token),
            env,
        });
        kick_thread(sim, tk);
    });
}

/// Start the next queued delivery on a thread if one is eligible.
///
/// A thread whose previous split still has flow-blocked posts is *stalled*
/// (paper §3: "the split operation is simply stalled until data objects have
/// arrived and been processed by the corresponding merge"): it will not
/// start another split execution, but it keeps processing merge/leaf/stream
/// deliveries — otherwise a merge mapped to the same thread as its split
/// (the paper's MainThread pattern) could never return the flow-control
/// credits and the schedule would deadlock.
fn kick_thread(sim: &mut Sim<Rt>, tk: ThreadKey) {
    if sim.world.fatal.is_some() {
        return;
    }
    {
        // A failed node executes nothing; its queue is drained by
        // `fail_node` and new deliveries are re-routed before they land.
        let host = sim.world.apps[tk.app as usize].tcs[tk.tc as usize].nodes[tk.thread as usize];
        if !sim.world.cluster.is_alive(host) {
            return;
        }
    }
    let (node, delivery) = {
        let stalled = sim.world.thread(tk).stalls > 0;
        let t = sim.world.thread(tk);
        if t.running {
            return;
        }
        // Interactive (service) deliveries overtake batch work: the model
        // analogue of the testbed OS preempting long compute operations to
        // answer short service requests.
        let eligible = |d: &Delivery| !stalled || d.kind != OpKind::Split;
        let pos = t
            .queue
            .iter()
            .position(|d| d.interactive && eligible(d))
            .or_else(|| t.queue.iter().position(eligible));
        let Some(pos) = pos else { return };
        let delivery = t.queue.remove(pos).expect("position is valid");
        t.running = true;
        (
            sim.world.apps[tk.app as usize].tcs[tk.tc as usize].nodes[tk.thread as usize],
            delivery,
        )
    };
    let pool = sim.world.node_pools[node.index()];
    sim.pool_acquire(pool, move |sim| run_delivery(sim, tk, node, delivery));
}

/// Execute one delivery on its thread; returns the CPU hold span.
fn run_delivery(sim: &mut Sim<Rt>, tk: ThreadKey, node: NodeId, d: Delivery) -> SimSpan {
    if sim.world.fatal.is_some() {
        return SimSpan::ZERO;
    }
    let start = sim.now();
    match d.kind {
        OpKind::Split | OpKind::Leaf => run_exec(sim, tk, node, d, start),
        OpKind::Merge | OpKind::Stream => run_wave(sim, tk, node, d, start),
        OpKind::Call | OpKind::CallSplit => run_call(sim, tk, node, d, start),
    }
}

fn exec_info(sim: &Sim<Rt>, tk: ThreadKey, node: NodeId, start: SimTime) -> ExecInfo {
    ExecInfo {
        thread_index: tk.thread as usize,
        thread_count: sim.world.apps[tk.app as usize].tcs[tk.tc as usize]
            .threads
            .len(),
        node_flops: sim.world.cluster.spec().node(node).flops,
        start_nanos: start.as_nanos(),
    }
}

/// Record the span `[start, end]` of the operation at graph node `gnode`
/// on track `(node, tk.thread)`.
fn trace_op(
    sim: &mut Sim<Rt>,
    tk: ThreadKey,
    node: NodeId,
    (graph, gnode): (u32, GNodeId),
    wave: u32,
    (start, end): (SimTime, SimTime),
) {
    if sim.world.trace.is_none() {
        return;
    }
    let a = &sim.world.apps[tk.app as usize];
    let op = sim
        .world
        .trace_label(&a.graphs[graph as usize].def.node(gnode).name);
    let track = (node.0 as u16, tk.thread as u16);
    for (at, kind) in [
        (start, EventKind::OpStart { op, wave }),
        (end, EventKind::OpEnd { op, wave }),
    ] {
        sim.world.trace_on(at, track.0, track.1, kind);
    }
}

/// Split/leaf execution.
fn run_exec(
    sim: &mut Sim<Rt>,
    tk: ThreadKey,
    node: NodeId,
    d: Delivery,
    start: SimTime,
) -> SimSpan {
    let info = exec_info(sim, tk, node, start);
    let Payload::Token(in_token) = d.payload else {
        unreachable!("closes only target merge/stream nodes");
    };
    let mut out = OpOutput::default();
    let res = {
        let a = &mut sim.world.apps[tk.app as usize];
        let g = &mut a.graphs[d.graph as usize];
        let gnode = g.def.node(d.node);
        let data = a.tcs[tk.tc as usize].data[tk.thread as usize].as_mut();
        g.inst
            .node_op((d.node.0, tk.thread), gnode)
            .and_then(|op| op.on_token(&mut out, data, info, &gnode.name, in_token))
    };
    if let Err(e) = res {
        sim.world.fail(e);
        return SimSpan::ZERO;
    }

    let overhead = sim.world.cfg.op_overhead;
    let hold = overhead + out.charged;
    report_completion(sim, tk, &out, hold, start);
    let env_wave = d.env.frames.last().map_or(0, |f| f.wave as u32);
    let (at, span) = ((d.graph, d.node), (start, start + hold));
    trace_op(sim, tk, node, at, env_wave, span);

    let split_flow = match d.kind {
        OpKind::Split => {
            // Open a wave: flow control meters its posts out; the split's
            // thread stalls while posts are blocked (paper §3).
            let wave = sim.world.next_wave;
            sim.world.next_wave += 1;
            if sim.world.trace.is_some() {
                let graph_label = sim.world.graph_label(tk.app, d.graph);
                sim.world.trace_on(start, node.0 as u16, tk.thread as u16, {
                    EventKind::WaveStart {
                        graph: graph_label,
                        wave: wave as u32,
                    }
                });
            }
            let g = sim.world.graph(tk.app, d.graph);
            let posts = out
                .posts
                .into_iter()
                .map(|post| (start + overhead + post.offset, post.token));
            let flow = kernel::open_wave(&g.def, d.node, wave, &d.env, posts);
            g.flows.insert((d.node.0, wave), FlowRt::new(flow, node));
            pump_flow(sim, tk.app, d.graph, (d.node.0, wave));
            Some((d.node.0, wave))
        }
        OpKind::Leaf => {
            let post = out.posts.pop().expect("leaf contract checked");
            let send_at = start + overhead + post.offset;
            let (graph, from, env) = (d.graph, d.node, d.env);
            sim.schedule_at(send_at, move |sim| {
                emit(sim, tk.app, graph, from, node, post.token, env);
            });
            None
        }
        _ => unreachable!("run_exec handles split/leaf only"),
    };
    // At op completion: free the thread, stalling it if it opened a wave
    // that still has blocked posts.
    sim.schedule_at(start + hold, move |sim| {
        finish_exec(sim, tk, d.graph, split_flow);
    });
    hold
}

/// One step of a merge/stream wave: consume a token of it, or take its
/// wave-close; finalize when that completes the wave (kernel rule 1).
fn run_wave(
    sim: &mut Sim<Rt>,
    tk: ThreadKey,
    node: NodeId,
    mut d: Delivery,
    start: SimTime,
) -> SimSpan {
    let info = exec_info(sim, tk, node, start);
    let overhead = sim.world.cfg.op_overhead;
    let key = d.env.wave_key().expect("validated depth >= 1");
    let frame = d.env.pop().expect("validated depth >= 1");
    let (graph, from, parent_env) = (d.graph, d.node, d.env);
    let consumed = matches!(d.payload, Payload::Token(_));

    let mut out = OpOutput::default();
    let res = {
        let a = &mut sim.world.apps[tk.app as usize];
        let g = &mut a.graphs[graph as usize];
        let gnode = g.def.node(from);
        let name = &gnode.name;
        let data = a.tcs[tk.tc as usize].data[tk.thread as usize].as_mut();
        let wave = g.inst.waves.get_mut(&key).expect("wave entered at routing");
        let counted = match d.payload {
            Payload::Token(_) => wave.admit(frame.total, name),
            Payload::Close { total } => wave.close(total, name),
        };
        counted.and_then(|completes| {
            if let Payload::Token(token) = d.payload {
                wave.op(gnode)?
                    .on_token(&mut out, data, info, name, token)?;
            }
            if completes {
                wave.op(gnode)?.on_finalize(&mut out, data, info, name)?;
            }
            Ok(completes)
        })
    };
    let completes = match res {
        Ok(completes) => completes,
        Err(e) => {
            sim.world.fail(e);
            return SimSpan::ZERO;
        }
    };
    if !consumed && !completes {
        // The finalize waits for the remaining data objects.
        sim.schedule_at(start + overhead, move |sim| {
            finish_exec(sim, tk, graph, None);
        });
        return overhead;
    }

    let hold = overhead + out.charged;
    let (at, span, wave32) = ((graph, from), (start, start + hold), frame.wave as u32);
    // A consume's span is recorded before its posts leave, a close's after:
    // recorded schedules (and their hashes) keep their event order.
    if consumed {
        report_completion(sim, tk, &out, hold, start);
        trace_op(sim, tk, node, at, wave32, span);
    }
    match d.kind {
        OpKind::Merge => {
            if completes {
                let post = out.posts.pop().expect("merge contract checked");
                let send_at = start + overhead + post.offset;
                sim.schedule_at(send_at, move |sim| {
                    emit(sim, tk.app, graph, from, node, post.token, parent_env);
                });
            }
        }
        OpKind::Stream => {
            let posted = stream_posts(
                sim,
                tk,
                graph,
                from,
                node,
                &key,
                out.posts,
                &parent_env,
                completes,
                start + overhead,
            );
            if let Err(e) = posted {
                sim.world.fail(e);
                return SimSpan::ZERO;
            }
        }
        _ => unreachable!("run_wave handles merge/stream only"),
    }
    if !consumed {
        trace_op(sim, tk, node, at, wave32, span);
    }
    if completes {
        if sim.world.trace.is_some() {
            let wave_end = EventKind::WaveEnd {
                graph: sim.world.graph_label(tk.app, graph),
                wave: wave32,
            };
            sim.world
                .trace_on(span.1, node.0 as u16, tk.thread as u16, wave_end);
            sim.world.trace_drain();
        }
        let g = sim.world.graph(tk.app, graph);
        g.inst.waves.remove(&key);
        g.pins.remove(&key);
    }
    if consumed {
        // Credit the producing flow: one token of (frame.src, frame.wave)
        // has been consumed by its matching merge/stream.
        credit_flow(sim, tk.app, graph, (frame.src.0, frame.wave));
    }
    sim.schedule_at(start + hold, move |sim| {
        finish_exec(sim, tk, graph, None);
    });
    hold
}

/// A call node forwards the token into the callee service graph.
fn run_call(
    sim: &mut Sim<Rt>,
    tk: ThreadKey,
    node: NodeId,
    d: Delivery,
    start: SimTime,
) -> SimSpan {
    let service = sim
        .world
        .graph(tk.app, d.graph)
        .def
        .node(d.node)
        .service
        .clone()
        .expect("call nodes carry a service name");
    let Some(&target) = sim.world.services.get(&service) else {
        sim.world.fail(DpsError::UnknownService { name: service });
        return SimSpan::ZERO;
    };
    let call_id = sim.world.next_call;
    sim.world.next_call += 1;
    let (ret, callee_env) = kernel::call(call_id, tk.app, d.graph, d.node, d.env);
    sim.world.pending_calls.insert(call_id, ret);
    let hold = sim.world.cfg.op_overhead;
    let Payload::Token(token) = d.payload else {
        unreachable!("closes only target merge/stream nodes");
    };
    sim.schedule_at(start + hold, move |sim| {
        inject_internal(sim, target.app, target.graph, token, callee_env, node);
    });
    let graph = d.graph;
    sim.schedule_at(start + hold, move |sim| {
        finish_exec(sim, tk, graph, None);
    });
    hold
}

/// Queue a stream's posts on its output-wave flow (kernel rule 3), each
/// leaving `posted_at` plus its own offset into the operation; a total that
/// no pending post can carry goes out as a wave-close.
#[allow(clippy::too_many_arguments)]
fn stream_posts(
    sim: &mut Sim<Rt>,
    tk: ThreadKey,
    graph: u32,
    gnode: GNodeId,
    src: NodeId,
    key: &WaveKey,
    posts: Vec<crate::ops::Post>,
    parent_env: &Envelope,
    completes: bool,
    posted_at: SimTime,
) -> Result<()> {
    if posts.is_empty() && !completes {
        return Ok(());
    }
    let g = sim.world.graph(tk.app, graph);
    let wave = g.inst.waves.get_mut(key).expect("consuming it right now");
    let flow_key = (gnode.0, wave.out_wave());
    let f = g
        .flows
        .entry(flow_key)
        .or_insert_with(|| FlowRt::new(Flow::stream(), src));
    let posts = posts
        .into_iter()
        .map(|post| (posted_at + post.offset, post.token));
    let close = wave.append(&mut f.flow, g.def.node(gnode), parent_env, posts, completes)?;
    if let Some((close_env, total)) = close {
        deliver_close(sim, tk.app, graph, close_env, total);
    }
    pump_flow(sim, tk.app, graph, flow_key);
    Ok(())
}

/// Hand a wave-close (final token count) to the thread its wave is pinned
/// on, or park it until the wave has one (kernel rule 6). `false` when the
/// wave's partial state died with its node — the run fails `NodeDown`.
fn deliver_close(sim: &mut Sim<Rt>, app: u32, graph: u32, env: Envelope, total: u32) -> bool {
    let key = env
        .wave_key()
        .expect("close envelopes carry the wave frame");
    let merge_node = match kernel::close_node(&sim.world.graph(app, graph).def, &key) {
        Ok(n) => n,
        Err(e) => {
            sim.world.fail(e);
            return false;
        }
    };
    let world = &mut sim.world;
    let a = &mut world.apps[app as usize];
    let g = &mut a.graphs[graph as usize];
    let gnode = g.def.node(merge_node);
    let (tc, kind) = (gnode.tc, gnode.kind);
    let (cluster, hosts) = (&world.cluster, &a.tcs[tc as usize].nodes);
    let alive = |t: u32| cluster.is_alive(hosts[t as usize]);
    let fresh = || g.inst.waves.get(&key).is_none_or(Wave::is_fresh);
    match g.pins.close(&key, total, alive, fresh) {
        Ok(CloseTo::Deliver(thread)) => {
            let interactive = g.def.is_interactive();
            let tk = ThreadKey { app, tc, thread };
            let t = world.thread(tk);
            t.assigned += 1;
            t.queue.push_back(Delivery {
                graph,
                node: merge_node,
                kind,
                interactive,
                payload: Payload::Close { total },
                env,
            });
            kick_thread(sim, tk);
            true
        }
        Ok(CloseTo::Parked) => true,
        Err(dead) => {
            let e = world.node_down(app, tc, dead, graph, merge_node);
            world.fail(e);
            false
        }
    }
}

/// If the finished execution marked a scheduled chunk complete, report its
/// virtual execution time to the registered feedback sink at the chunk's
/// virtual completion instant (paper-model analogue of the DLS literature's
/// per-chunk completion messages).
fn report_completion(
    sim: &mut Sim<Rt>,
    tk: ThreadKey,
    out: &OpOutput,
    hold: SimSpan,
    start: SimTime,
) {
    let Some(iters) = out.completed_iters else {
        return;
    };
    let host = sim.world.apps[tk.app as usize].tcs[tk.tc as usize].nodes[tk.thread as usize];
    sim.world.trace_on(
        start + hold,
        host.0 as u16,
        tk.thread as u16,
        EventKind::ChunkExec {
            iters,
            nanos: hold.as_nanos(),
        },
    );
    let Some(sink) = sim.world.feedback.clone() else {
        return;
    };
    kernel::note_reporter(&mut sim.world.feedback_tcs, tk.app, tk.tc);
    let worker = tk.thread as usize;
    let secs = hold.as_secs_f64();
    let nanos = hold.as_nanos();
    sim.schedule_at(start + hold, move |sim| {
        // A report from a node that failed mid-execution is dropped: the
        // chunk's virtual completion never happened, and it must not
        // repopulate measurements `worker_lost` just cleared.
        if sim.world.cluster.is_alive(host) {
            sink.report_chunk(worker, iters, secs);
            let at = sim.now();
            sim.world.trace_on(
                at,
                host.0 as u16,
                worker as u16,
                EventKind::ChunkReport {
                    worker: worker as u32,
                    iters,
                    nanos,
                },
            );
            sim.world.trace_add(Counter::ChunkReports, 1);
        }
    });
}

/// Op completion: free the thread (stalling it if a split wave still has
/// flow-blocked posts) and start the next queued delivery.
fn finish_exec(sim: &mut Sim<Rt>, tk: ThreadKey, graph: u32, split_flow: Option<(u32, u64)>) {
    if let Some(key) = split_flow {
        let g = sim.world.graph(tk.app, graph);
        if let Some(f) = g.flows.get_mut(&key).filter(|f| f.flow.pending() > 0) {
            f.stalled_thread = Some(tk);
            sim.world.thread(tk).stalls += 1;
        }
    }
    let t = sim.world.thread(tk);
    t.running = false;
    t.assigned = t.assigned.saturating_sub(1);
    kick_thread(sim, tk);
}

/// Release the posts of flow `key` (its producing node, its wave) that the
/// window admits and whose virtual send instant has come.
fn pump_flow(sim: &mut Sim<Rt>, app: u32, graph: u32, key: (u32, u64)) {
    if sim.world.fatal.is_some() {
        return;
    }
    let now = sim.now();
    let window = sim.world.cfg.flow_window;
    loop {
        let g = sim.world.graph(app, graph);
        let Some(f) = g.flows.get_mut(&key) else {
            return;
        };
        let Some(&(send_at, _)) = f.flow.front(window) else {
            break;
        };
        if send_at > now {
            if !f.pump_scheduled {
                f.pump_scheduled = true;
                sim.schedule_at(send_at, move |sim| {
                    if let Some(f) = sim.world.graph(app, graph).flows.get_mut(&key) {
                        f.pump_scheduled = false;
                    }
                    pump_flow(sim, app, graph, key);
                });
            }
            break;
        }
        let ((_, token), env) = f.flow.pop(window).expect("front admitted it");
        let src = f.src;
        emit(sim, app, graph, GNodeId(key.0), src, token, env);
    }
    // Drain: unstall the producing thread and drop exhausted flows.
    let g = sim.world.graph(app, graph);
    if let Some(f) = g.flows.get_mut(&key) {
        if f.flow.is_flushed() {
            let unstall = f.stalled_thread.take();
            if f.flow.is_drained() {
                g.flows.remove(&key);
            }
            if let Some(tk) = unstall {
                sim.world.thread(tk).stalls -= 1;
                kick_thread(sim, tk);
            }
        }
    }
}

/// A merge consumed one token of flow `key`: return a credit.
fn credit_flow(sim: &mut Sim<Rt>, app: u32, graph: u32, key: (u32, u64)) {
    if let Some(f) = sim.world.graph(app, graph).flows.get_mut(&key) {
        f.flow.credit();
        pump_flow(sim, app, graph, key);
    }
}

/// A token leaves node `from`: on to its successor, out as a graph output,
/// or back into the calling graph (kernel rule 5).
fn emit(
    sim: &mut Sim<Rt>,
    mut app: u32,
    mut graph: u32,
    mut from: GNodeId,
    src: NodeId,
    token: TokenBox,
    mut env: Envelope,
) {
    if sim.world.fatal.is_some() {
        return;
    }
    loop {
        let world = &sim.world;
        let def = &world.apps[app as usize].graphs[graph as usize].def;
        let returns = |id: u64| world.pending_calls.get(&id).cloned();
        match kernel::exit(def, from, token.as_ref(), &env, returns) {
            Ok(Exit::To(next)) => return route_and_send(sim, app, graph, next, src, token, env),
            Ok(Exit::Return(ret)) => {
                (app, graph, from, env) = (ret.app, ret.graph, ret.node, ret.env)
            }
            Ok(Exit::Output) => {
                let now = sim.now();
                let outputs = sim.world.outputs.entry((app, graph)).or_default();
                return outputs.push((now, token));
            }
            Err(e) => return sim.world.fail(e),
        }
    }
}
