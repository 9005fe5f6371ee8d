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

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dps_cluster::{AppId, Cluster, ClusterSpec};
use dps_des::{Event, Reserved, Sim, SimSpan, SimTime};
use dps_net::NodeId;
use dps_obs::{Counter, EventKind, TraceCollector};
use dps_sched::FeedbackSink;

use crate::api::{Engine, EngineCaps};
use crate::decls::{AppHandle, Decls, GraphHandle};
use crate::envelope::{Envelope, WaveKey};
use crate::error::{DpsError, Result};
use crate::graph::OpKind;
use crate::kernel::{
    self, Arrival, At, CallReturn, Death, FlowKey, Flows, IdMap, Instances, On, Pins, Rec, Sent,
    Serve, Substrate, Tracer,
};
use crate::ops::{ExecInfo, OpOutput, Post};
use crate::route::{DynRoute, RouteInfo};
use crate::token::{Carried, Token, TokenBox};

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

/// Where the user started every application's binary: its instance there is
/// preloaded, and tokens injected from outside enter from it.
const HOME: NodeId = NodeId(0);

/// Address of one DPS thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ThreadKey {
    app: u32,
    tc: u32,
    thread: u32,
}

struct Delivery {
    to: At,
    kind: OpKind,
    interactive: bool,
    what: Arrival,
    env: Envelope,
}

#[derive(Default)]
struct ThreadRt {
    queue: VecDeque<Delivery>,
    /// How many of `queue` are interactive: with none, a thread looking for
    /// one to start does not scan its queue ([`kick_thread`]).
    interactive: u32,
    running: bool,
    stalls: u32,
    /// Deliveries routed to this thread and not yet finished — the load
    /// signal for [`LeastLoaded`](crate::LeastLoaded) routing. Queue depth
    /// alone is blind to in-flight tokens: a burst routed before any
    /// delivery lands would all pick the same thread.
    assigned: u32,
    /// This thread's op instances and the waves it consumes.
    inst: Instances,
}

impl ThreadRt {
    /// Queue `d` behind what the thread already holds.
    fn push(&mut self, d: Delivery) {
        self.interactive += u32::from(d.interactive);
        self.queue.push_back(d);
    }
}

/// The running half of a declared collection.
struct TcRt {
    data: Vec<Box<dyn Any + Send>>,
    threads: Vec<ThreadRt>,
}

/// What the simulator keeps per flow: each pending post also waits for its
/// virtual send instant.
#[derive(Default)]
struct FlowRt {
    /// The split's thread, stalled while posts are flow-blocked.
    stalled_thread: Option<ThreadKey>,
    pump_scheduled: bool,
}

/// The running half of a declared graph.
struct GraphRt {
    routes: Vec<Box<dyn DynRoute>>,
    /// The kernel borrows the two tables through `&self` (a mutex on
    /// `dps-mt`), next to what it asks about liveness.
    pins: RefCell<Pins>,
    flows: RefCell<Flows<SimRt>>,
}

/// The running half of a declared application.
#[derive(Default)]
struct AppRt {
    tcs: Vec<TcRt>,
    graphs: Vec<GraphRt>,
}

/// A cluster node's CPUs: how many, how many are held, and the executions
/// waiting for one, first come first served.
struct Cpus {
    servers: usize,
    busy: usize,
    queue: VecDeque<(ThreadKey, Delivery)>,
}

struct Rt {
    cluster: Cluster,
    cfg: EngineConfig,
    /// What was declared; `apps` mirrors its shape.
    decls: Decls,
    apps: Vec<AppRt>,
    /// Per cluster node.
    cpus: Vec<Cpus>,
    /// The executions running now, innermost last (a delivery an execution
    /// hands to an idle thread with a free CPU runs inside it): what each
    /// holds for its end instant.
    holds: Vec<Hold>,
    next_wave: u64,
    next_call: u64,
    pending_calls: IdMap<u64, CallReturn>,
    outputs: HashMap<(u32, u32), Vec<TokenBox>>,
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
    /// writer (single-threaded), stamping *virtual* nanoseconds. Lent to
    /// the kernel through `&self`.
    tracer: RefCell<Option<Tracer>>,
    /// Seeded network fault injection (simulation testing): consulted once
    /// per cross-node transfer, perturbing delivery timing and wire cost —
    /// never payloads (the modeled transport is reliable).
    faults: Option<dps_net::FaultInjector>,
    /// What the operation running now posts: one buffer, reused by every
    /// execution (`run` takes it out while the kernel applies the posts).
    out: OpOutput,
}

impl Rt {
    /// Give whatever was declared since the last call its running half: an
    /// application's home instance is preloaded — instances on other nodes
    /// launch lazily when the first token arrives — a collection gets its
    /// threads' state and queues, a graph its routes and tables.
    fn materialise(&mut self) {
        for (i, decl) in self.decls.apps().iter().enumerate() {
            if i == self.apps.len() {
                self.cluster.deploy.preload(AppId(i as u32), HOME);
                self.apps.push(AppRt::default());
            }
            let a = &mut self.apps[i];
            for tc in &decl.tcs[a.tcs.len()..] {
                a.tcs.push(TcRt {
                    data: tc.nodes.iter().map(|_| (tc.factory)()).collect(),
                    threads: tc.nodes.iter().map(|_| ThreadRt::default()).collect(),
                });
            }
            for def in &decl.graphs[a.graphs.len()..] {
                a.graphs.push(GraphRt {
                    routes: def.nodes().iter().map(|n| n.make_route()).collect(),
                    pins: RefCell::default(),
                    flows: RefCell::default(),
                });
            }
        }
    }

    /// The cluster node hosting a thread.
    fn host(&self, tk: ThreadKey) -> NodeId {
        NodeId(self.decls.host(tk.app, tk.tc, tk.thread))
    }

    fn thread(&mut self, tk: ThreadKey) -> &mut ThreadRt {
        &mut self.apps[tk.app as usize].tcs[tk.tc as usize].threads[tk.thread as usize]
    }

    fn graph(&mut self, app: u32, graph: u32) -> &mut GraphRt {
        &mut self.apps[app as usize].graphs[graph as usize]
    }

    fn g(&self, app: u32, graph: u32) -> &GraphRt {
        &self.apps[app as usize].graphs[graph as usize]
    }

    fn fail(&mut self, e: DpsError) {
        if self.fatal.is_none() {
            self.fatal = Some(e);
        }
    }

    /// Record a trace event at virtual time `at` on track `(node, thread)`
    /// — a no-op without an attached sink.
    fn trace_on(&mut self, at: SimTime, node: u16, thread: u16, kind: EventKind) {
        if let Some(t) = self.tracer.get_mut() {
            t.writer().record_on(at.as_nanos(), node, thread, kind);
        }
    }

    /// Bump a metrics counter on the attached sink.
    fn trace_add(&self, c: Counter, n: u64) {
        if let Some(t) = &*self.tracer.borrow() {
            t.collector().metrics().add(c, n);
        }
    }

    /// Drain writer rings into the sink's log (called at wave boundaries so
    /// the 16k-event rings never wrap on long runs).
    fn trace_drain(&self) {
        if let Some(t) = &*self.tracer.borrow() {
            t.collector().drain();
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
/// eng.submit(g, Box::new(Work { items: 10 })).unwrap();
/// eng.run_to_idle(g, 1).unwrap();
/// let done = dps_core::downcast::<Done>(eng.take_outputs(g).pop().unwrap()).unwrap();
/// assert_eq!(done.sum, (0..10).map(|i| i * i).sum::<u32>());
/// assert!(eng.now() > SimTime::ZERO); // the wave took virtual time
/// ```
///
/// It is driven through [`Engine`] like every engine; what it has beyond
/// the trait is its own: injection at a later virtual instant
/// ([`inject_at`](Self::inject_at)), single steps
/// ([`step_once`](Self::step_once), [`outputs_count`](Self::outputs_count),
/// [`now`](Self::now)), node failure and the simulation-testing hooks.
pub struct SimEngine {
    sim: SimRt,
}

impl SimEngine {
    /// Engine over `spec` with default configuration.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_config(spec, EngineConfig::default())
    }

    /// Engine over `spec` with explicit configuration.
    pub fn with_config(spec: ClusterSpec, cfg: EngineConfig) -> Self {
        let decls = Decls::new(spec.clone());
        let cpus = spec.node_ids().map(|n| Cpus {
            servers: spec.node(n).cpus,
            busy: 0,
            queue: VecDeque::new(),
        });
        let cpus = cpus.collect();
        let cluster = Cluster::new(spec);
        let rt = Rt {
            cluster,
            cfg,
            decls,
            apps: Vec::new(),
            cpus,
            holds: Vec::new(),
            next_wave: 0,
            next_call: 0,
            pending_calls: IdMap::default(),
            outputs: HashMap::new(),
            fatal: None,
            feedback: None,
            feedback_tcs: Vec::new(),
            requeued: 0,
            tracer: RefCell::new(None),
            faults: None,
            out: OpOutput::default(),
        };
        Self {
            sim: Sim::typed(rt),
        }
    }

    /// Inject a token at a future virtual instant.
    pub fn inject_at<T: Token>(&mut self, at: SimTime, graph: GraphHandle, token: T) -> Result<()> {
        schedule(&mut self.sim, at, Ev::Inject(graph, Carried::new(token)));
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
        let world = &self.sim.world;
        for (a, decl) in world.apps.iter().zip(world.decls.apps()) {
            let threads = a.tcs.iter().flat_map(|tc| &tc.threads);
            for (key, wave) in threads.flat_map(|t| &t.inst.waves) {
                let def = &decl.graphs[wave.graph as usize];
                stuck.push(format!(
                    "graph {} wave at {} from {}: received {}, expected {:?}",
                    def.name(),
                    def.node(key.src).name,
                    key.src,
                    wave.received(),
                    wave.expected()
                ));
            }
            for (g, def) in a.graphs.iter().zip(&decl.graphs) {
                for ((node, wv), f) in g.flows.borrow().iter() {
                    if f.pending() > 0 {
                        stuck.push(format!(
                            "graph {} flow from node g{node} wave {wv}: {} posts undelivered",
                            def.name(),
                            f.pending()
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
    /// as [`DpsError::NodeDown`]. The first kill of a node wins: a second is
    /// a no-op. A node the cluster does not have is
    /// [`DpsError::InvalidGraph`].
    pub fn fail_node(&mut self, node: NodeId) -> Result<()> {
        fail_node_internal(&mut self.sim, node);
        self.sim.world.fatal.take().map_or(Ok(()), Err)
    }

    /// Schedule a [`fail_node`](Self::fail_node) at virtual time `at` —
    /// the simulation-testing harness's way of killing a node *mid-wave*,
    /// between whatever deliveries happen to straddle that instant. Errors
    /// the failure provokes surface from the enclosing
    /// [`run_until_idle`](Self::run_until_idle) / [`step_once`](Self::step_once).
    pub fn schedule_fail_node(&mut self, at: SimTime, node: NodeId) {
        let at = at.max(self.sim.now());
        schedule(&mut self.sim, at, Ev::Kill(node));
    }

    /// Deliveries re-routed away from failed nodes so far.
    pub fn requeued(&self) -> u64 {
        self.sim.world.requeued
    }

    /// The attached trace sink, if any.
    pub fn trace_collector(&self) -> Option<Arc<TraceCollector>> {
        let tracer = self.sim.world.tracer.borrow();
        tracer.as_ref().map(|t| Arc::clone(t.collector()))
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

    /// Deliveries sitting in thread queues or waiting for a CPU right now —
    /// zero once the engine is idle (the no-stranded-deliveries invariant;
    /// `run_until_idle` reports the stuck waves themselves, this counts the
    /// raw queue residue).
    pub fn queued_deliveries(&self) -> usize {
        let world = &self.sim.world;
        let threads = world.apps.iter().flat_map(|a| &a.tcs);
        let queued: usize = threads
            .flat_map(|tc| &tc.threads)
            .map(|t| t.queue.len())
            .sum();
        queued + world.cpus.iter().map(|c| c.queue.len()).sum::<usize>()
    }
}

/// The unified engine API ([`Engine`]): the deterministic virtual-time
/// backend. Declarations are welcome at any time.
impl Engine for SimEngine {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps { virtual_time: true }
    }

    /// What `f` declared can run as soon as this returns.
    fn declare<R>(&mut self, f: impl FnOnce(&mut Decls) -> R) -> R {
        let world = &mut self.sim.world;
        let r = f(&mut world.decls);
        world.materialise();
        r
    }

    /// Pre-start `app`'s instance on every cluster node, skipping the lazy
    /// launch delay for subsequent tokens. Benchmarks use this to measure
    /// steady state, as the paper does (its ≈1 s start-up on 8 nodes is
    /// reported separately from the experiment timings).
    fn preload_app(&mut self, app: AppHandle) {
        let world = &mut self.sim.world;
        for node in world.cluster.spec().node_ids().collect::<Vec<_>>() {
            world.cluster.deploy.preload(AppId(app.app), node);
        }
    }

    /// The simulator reports *virtual* execution times at the chunk's
    /// virtual completion instant, so adaptive policies behave
    /// deterministically. Typically the sink is the same
    /// [`FeedbackBoard`](dps_sched::FeedbackBoard) the graph's
    /// [`ScheduledSplit`](crate::sched::ScheduledSplit) reads weights from.
    fn set_feedback_sink(&mut self, sink: Arc<dyn FeedbackSink>) {
        self.sim.world.feedback = Some(sink);
    }

    /// Events carry **virtual** timestamps. Because the simulator is
    /// deterministic, the recorded event stream (and its
    /// [`dps_obs::schedule_hash`]) is identical across replays of the same
    /// seeded workload.
    fn set_trace_sink(&mut self, sink: Arc<TraceCollector>) {
        *self.sim.world.tracer.get_mut() = Some(Tracer::new(sink, (0, 0)));
    }

    /// The token enters at the current virtual time (see
    /// [`SimEngine::inject_at`] for a later instant).
    fn submit(&mut self, graph: GraphHandle, token: TokenBox) -> Result<()> {
        let now = self.now();
        schedule(
            &mut self.sim,
            now,
            Ev::Inject(graph, Carried::from_box(token)),
        );
        Ok(())
    }

    fn run_to_idle(&mut self, graph: GraphHandle, expected_outputs: usize) -> Result<()> {
        self.run_until_idle()?;
        let have = self.outputs_count(graph);
        if have < expected_outputs {
            return Err(DpsError::IncompleteWaves {
                waves: vec![format!(
                    "event queue drained with {have} of {expected_outputs} expected outputs"
                )],
            });
        }
        Ok(())
    }

    /// In exit order.
    fn take_outputs(&mut self, graph: GraphHandle) -> Vec<TokenBox> {
        let outputs = &mut self.sim.world.outputs;
        outputs
            .remove(&(graph.app, graph.graph))
            .unwrap_or_default()
    }

    fn now_secs(&self) -> f64 {
        self.now().as_secs_f64()
    }

    fn chunk_hub(&mut self) -> Arc<dps_sched::ChunkHub> {
        let hub = Arc::new(dps_sched::ChunkHub::new());
        if let Some(c) = self.trace_collector() {
            hub.attach_metrics(c.metrics_arc());
        }
        hub
    }
}

// ---------------------------------------------------------------------------
// Execution internals (free functions over the simulation).
//
// What a wave *means*, and the path of a token between two operations, is
// `crate::kernel`. What is written here is the simulator's substrate: which
// virtual instant each step happens at, the per-thread queues, the CPUs and
// stalls, the modeled network, tracing.
// ---------------------------------------------------------------------------

/// The simulation the engine runs: its world and its events.
type SimRt = Sim<Rt, Ev>;

/// Everything the simulator schedules.
enum Ev {
    /// A token injected from outside enters its graph from the home node.
    Inject(GraphHandle, Carried),
    /// A scheduled [`SimEngine::fail_node`].
    Kill(NodeId),
    /// The first held-back post of flow `(app, graph, key)` is due.
    Pump(u32, u32, FlowKey),
    /// A post leaves its node at an instant other than its execution's end.
    Leave(Leave),
    /// A token lands on its thread.
    Land(Land),
    /// A graph call's token enters the callee, its overhead past.
    Call(Call),
    /// An execution ends, with what it held for that instant.
    End(End),
}

impl Event<Rt> for Ev {
    fn fire(self, sim: &mut SimRt) {
        match self {
            Ev::Inject(GraphHandle { app, graph }, token) => {
                if sim.world.fatal.is_none() {
                    let node = sim.world.decls.def(app, graph).entry();
                    let entry = At { app, graph, node };
                    kernel::deliver(sim, entry, HOME.0, token, Envelope::root());
                }
            }
            Ev::Kill(node) => fail_node_internal(sim, node),
            Ev::Pump(app, graph, key) => {
                let flows = sim.world.graph(app, graph).flows.get_mut();
                if let Some(f) = flows.get_mut(&key) {
                    f.ext.pump_scheduled = false;
                }
                kernel::pump(sim, app, graph, key);
            }
            Ev::Leave(post) => post.fire(sim),
            Ev::Land(land) => land.fire(sim),
            Ev::Call(Call {
                to,
                host,
                token,
                env,
            }) => {
                if sim.world.fatal.is_none() {
                    kernel::deliver(sim, to, host, token, env);
                }
            }
            Ev::End(end) => end.fire(sim),
        }
    }
}

/// Schedule `ev` at `at`, after [`flush`].
fn schedule(sim: &mut SimRt, at: SimTime, ev: Ev) {
    flush(sim, at);
    sim.event_at(at, ev);
}

/// Queue the end `held` at `at`, after [`flush`].
fn commit(sim: &mut SimRt, held: Reserved, at: SimTime) {
    flush(sim, at);
    sim.commit(held, at);
}

/// Something is about to be queued for instant `at`. Events at one instant
/// fire in the order they were scheduled, so what a running execution holds
/// for its end at `at` — due before it, had it been scheduled when held — is
/// queued first, and the execution holds a fresh end for what follows.
fn flush(sim: &mut SimRt, at: SimTime) {
    if !sim.world.holds.iter().any(|h| h.at == at) {
        return;
    }
    let mut holds = std::mem::take(&mut sim.world.holds);
    for hold in holds.iter_mut().filter(|h| h.at == at) {
        if !end_of(sim, &hold.end).is_empty() {
            let fresh = sim.reserve(Ev::End(End::default()));
            sim.commit(std::mem::replace(&mut hold.end, fresh), at);
        }
    }
    sim.world.holds = holds;
}

/// The end reserved in `held`.
fn end_of<'a>(sim: &'a mut SimRt, held: &Reserved) -> &'a mut End {
    match sim.reserved(held) {
        Ev::End(end) => end,
        _ => unreachable!("an execution reserves an end"),
    }
}

/// Lend `f` the end the innermost running execution holds, if it ends at
/// `at`; `None`, with `f` not called, if it ends at another instant.
fn with_held<R>(sim: &mut SimRt, at: SimTime, f: impl FnOnce(&mut End) -> R) -> Option<R> {
    let hold = sim.world.holds.pop()?;
    let r = (hold.at == at).then(|| f(end_of(sim, &hold.end)));
    sim.world.holds.push(hold);
    r
}

/// What a running execution holds for its end instant `at`: an end
/// reserved in the event queue, queued when the execution is over.
struct Hold {
    at: SimTime,
    end: Reserved,
}

/// The effects of one execution's end, in the order they fire (each is
/// absent once [`flush`] sent it ahead, or if the execution has none):
/// the chunk it marked is reported, its post that leaves at the end
/// instant leaves, the thread is freed, the CPU released.
#[derive(Default)]
struct End {
    report: Option<Report>,
    post: Option<Leave>,
    finish: Option<Finish>,
    release: Option<NodeId>,
}

impl End {
    fn is_empty(&self) -> bool {
        let End {
            report,
            post,
            finish,
            release,
        } = self;
        report.is_none() && post.is_none() && finish.is_none() && release.is_none()
    }

    fn fire(self, sim: &mut SimRt) {
        if let Some(report) = self.report {
            report.fire(sim);
        }
        if let Some(post) = self.post {
            post.fire(sim);
        }
        if let Some(Finish { tk, graph, flow }) = self.finish {
            finish_exec(sim, tk, graph, flow);
        }
        if let Some(node) = self.release {
            release(sim, node);
        }
    }
}

/// A chunk's virtual execution time, for the feedback sink the world holds
/// when it fires.
struct Report {
    worker: u32,
    host: NodeId,
    iters: u64,
    hold: SimSpan,
}

impl Report {
    fn fire(self, sim: &mut SimRt) {
        let Report {
            worker,
            host,
            iters,
            hold,
        } = self;
        let Some(sink) = &sim.world.feedback else {
            return;
        };
        // A report from a node that failed mid-execution is dropped: the
        // chunk's virtual completion never happened, and it must not
        // repopulate measurements `worker_lost` just cleared.
        if sim.world.cluster.is_alive(host) {
            sink.report_chunk(worker as usize, iters, hold.as_secs_f64());
            let at = sim.now();
            let report = EventKind::ChunkReport {
                worker,
                iters,
                nanos: hold.as_nanos(),
            };
            sim.world.trace_on(at, host.0 as u16, worker as u16, report);
            sim.world.trace_add(Counter::ChunkReports, 1);
        }
    }
}

/// A post leaving node `from` of cluster node `src`.
struct Leave {
    from: At,
    src: u32,
    token: Carried,
    env: Envelope,
}

impl Leave {
    fn fire(self, sim: &mut SimRt) {
        if sim.world.fatal.is_none() {
            kernel::emit(sim, self.from, self.src, self.token, self.env);
        }
    }
}

/// The thread an execution ran on, the graph, and the flow its split opened.
struct Finish {
    tk: ThreadKey,
    graph: u32,
    flow: Option<FlowKey>,
}

/// A call's token on its way into the callee's entry `to`.
struct Call {
    to: At,
    host: u32,
    token: Carried,
    env: Envelope,
}

/// The body of [`SimEngine::fail_node`], callable from a scheduled event
/// (errors land in `world.fatal` and surface from the run loop): every
/// thread hosted on the dead node stops, and the kernel takes its instances,
/// its queue and what waited for the node's CPUs. The stranded work is
/// re-sent from the home node.
fn fail_node_internal(sim: &mut SimRt, node: NodeId) {
    let world = &mut sim.world;
    if let Err(e) = kernel::known_node(&world.decls, node.0) {
        return world.fail(e);
    }
    if !world.cluster.is_alive(node) {
        return;
    }
    world.cluster.fail_node(node);
    let (mut lanes, mut stranded) = (Vec::new(), Vec::new());
    for (tk, d) in std::mem::take(&mut world.cpus[node.index()].queue) {
        world.thread(tk).running = false;
        stranded.push((d.to, d.what, d.env));
    }
    let declared = world.decls.apps().iter().map(|app| &app.tcs);
    let running = world.apps.iter_mut().map(|app| &mut app.tcs);
    for (app, (tcs, decls)) in running.zip(declared).enumerate() {
        for (tc, decl) in tcs.iter_mut().zip(decls) {
            for (thread, (rt, &host)) in tc.threads.iter_mut().zip(&decl.nodes).enumerate() {
                if host == node.0 {
                    (rt.assigned, rt.interactive) = (0, 0);
                    stranded.extend(rt.queue.drain(..).map(|d| (d.to, d.what, d.env)));
                    lanes.push((app as u32, thread as u32, std::mem::take(&mut rt.inst)));
                }
            }
        }
    }
    world.requeued += stranded.len() as u64;
    let (sink, reporters) = (world.feedback.clone(), world.feedback_tcs.clone());
    let feedback = sink.as_deref().map(|sink| (sink, &reporters[..]));
    kernel::bury(sim, Death::Node(node.0, feedback), lanes, stranded, HOME.0);
}

/// One execution in virtual time: where it ran, from when, for how long.
struct Ran {
    tk: ThreadKey,
    host: NodeId,
    start: SimTime,
    hold: SimSpan,
}

impl Substrate for SimRt {
    type Post = (SimTime, Carried);
    type FlowExt = FlowRt;
    type Lane = Ran;

    fn decls(&self) -> &Decls {
        &self.world.decls
    }

    fn node_up(&self, node: u32) -> bool {
        self.world.cluster.is_alive(NodeId(node))
    }

    fn load(&self, app: u32, tc: u32, load: &mut [u32]) {
        let world = &self.world;
        let hosts = &world.decls.apps()[app as usize].tcs[tc as usize].nodes;
        let threads = &world.apps[app as usize].tcs[tc as usize].threads;
        for (slot, (t, &n)) in load.iter_mut().zip(threads.iter().zip(hosts)) {
            *slot = match world.cluster.is_alive(NodeId(n)) {
                true => t.assigned,
                false => u32::MAX,
            };
        }
    }

    fn route(&mut self, to: At, token: &dyn Token, info: &RouteInfo<'_>) -> Result<usize> {
        let world = &mut self.world;
        let name = &world.decls.def(to.app, to.graph).node(to.node).name;
        let g = &mut world.apps[to.app as usize].graphs[to.graph as usize];
        g.routes[to.node.0 as usize].route_dyn(token, info, name)
    }

    fn enforce_serialization(&self) -> bool {
        self.world.cfg.enforce_serialization
    }

    fn remember_call(&mut self, ret: CallReturn) -> u64 {
        self.world.next_call += 1;
        let id = self.world.next_call - 1;
        self.world.pending_calls.insert(id, ret);
        id
    }

    fn call_return(&self, id: u64) -> Option<CallReturn> {
        self.world.pending_calls.get(&id).cloned()
    }

    fn pins<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Pins) -> R) -> R {
        f(&mut self.world.g(app, graph).pins.borrow_mut())
    }

    fn flows<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Flows<Self>) -> R) -> R {
        f(&mut self.world.g(app, graph).flows.borrow_mut())
    }

    fn send(&mut self, to: At, thread: u32, src: u32, what: Arrival, env: Envelope, sent: Sent) {
        let def = self.world.decls.def(to.app, to.graph);
        let gnode = def.node(to.node);
        let tk = ThreadKey {
            app: to.app,
            tc: gnode.tc,
            thread,
        };
        let d = Delivery {
            to,
            kind: gnode.kind,
            interactive: def.is_interactive(),
            what,
            env,
        };
        self.world.thread(tk).assigned += 1;
        match d.what {
            Arrival::Token(_) => send_token(self, tk, NodeId(src), d, sent),
            // Control info of the wave's own node: it lands at once.
            Arrival::Close(_) => {
                self.world.thread(tk).push(d);
                kick_thread(self, tk);
            }
        }
    }

    /// A post also waits for its virtual send instant, and a flow with
    /// nothing left to release unstalls its split's thread.
    fn next_post(
        &mut self,
        app: u32,
        graph: u32,
        key: FlowKey,
        credit: bool,
    ) -> Option<(Carried, Envelope, u32)> {
        let (now, window) = (self.now(), self.world.cfg.flow_window);
        let fatal = self.world.fatal.is_some();
        let flows = self.world.graph(app, graph).flows.get_mut();
        let f = flows.get_mut(&key)?;
        if credit {
            f.credit();
        }
        if fatal {
            return None;
        }
        match f.front(window) {
            Some(&(send_at, _)) if send_at > now => {
                if !std::mem::replace(&mut f.ext.pump_scheduled, true) {
                    schedule(self, send_at, Ev::Pump(app, graph, key));
                }
                return None;
            }
            Some(_) => {
                let ((_, token), env) = f.pop(window).expect("front admitted it");
                return Some((token, env, f.src));
            }
            None => {}
        }
        if f.is_flushed() {
            let unstall = f.ext.stalled_thread.take();
            if f.is_drained() {
                flows.remove(&key);
            }
            if let Some(tk) = unstall {
                self.world.thread(tk).stalls -= 1;
                kick_thread(self, tk);
            }
        }
        None
    }

    /// A post that leaves when its execution ends leaves with the end.
    fn leave(&mut self, (send_at, token): Self::Post, from: At, src: u32, env: Envelope) {
        let mut post = Some(Leave {
            from,
            src,
            token,
            env,
        });
        with_held(self, send_at, |end| {
            if end.post.is_none() {
                end.post = post.take();
            }
        });
        if let Some(post) = post {
            schedule(self, send_at, Ev::Leave(post));
        }
    }

    /// The token leaves in a box: the one it came in, or a new one.
    fn output(&mut self, app: u32, graph: u32, token: Carried) {
        let outputs = self.world.outputs.entry((app, graph)).or_default();
        outputs.push(token.into_box());
    }

    fn fail(&mut self, _app: u32, e: DpsError) {
        self.world.fail(e);
    }

    /// The chunk's virtual execution time goes to the registered feedback
    /// sink at its virtual completion instant (paper-model analogue of the
    /// DLS literature's per-chunk completion messages): the end of the
    /// execution that runs on `ran`.
    fn report(&mut self, ran: &mut Ran, iters: u64) {
        if self.world.feedback.is_none() {
            return;
        }
        kernel::note_reporter(&mut self.world.feedback_tcs, ran.tk.app, ran.tk.tc);
        let report = Report {
            worker: ran.tk.thread,
            host: ran.host,
            iters,
            hold: ran.hold,
        };
        let done = ran.start + ran.hold;
        let held = with_held(self, done, |end| end.report = Some(report));
        held.expect("a report comes from the execution running now, at its end");
    }

    /// Virtual stamps: an execution's start and end, and now; one writer
    /// for every track.
    fn trace<R>(&self, on: On<'_, Ran>, f: impl FnOnce(Rec<'_>) -> R) -> Option<R> {
        let mut tracer = self.world.tracer.borrow_mut();
        let (tracer, now) = (tracer.as_mut()?, self.now().as_nanos());
        Some(f(match on {
            On::Lane(ran) => {
                let (start, end) = (ran.start, ran.start + ran.hold);
                let track = (ran.host.0 as u16, ran.tk.thread as u16);
                Rec::at(tracer, track, now).op(start.as_nanos(), end.as_nanos())
            }
            On::Node(node) => Rec::at(tracer, (node as u16, 0), now),
        }))
    }

    fn opened(&mut self, _ran: &mut Ran, _at: At) -> u64 {
        self.world.next_wave += 1;
        self.world.next_wave - 1
    }

    fn wave_done(&mut self, ran: &mut Ran, _at: At, key: &WaveKey) {
        self.world.thread(ran.tk).inst.waves.remove(key);
    }
}

/// Move the token of `d` from cluster node `src` to thread `tk` of node
/// `to`: plan the network transfer (with its seeded wire faults), trace its
/// frames, and enqueue the delivery when it lands.
fn send_token(sim: &mut SimRt, tk: ThreadKey, src: NodeId, d: Delivery, sent: Sent) {
    let Arrival::Token(token) = &d.what else {
        unreachable!("closes land at once");
    };
    let now = sim.now();
    let dst = sim.world.host(tk);
    let bytes = (token.payload_size() + d.env.wire_bytes() + 10) as u64;
    // A traced token's frames carry its type's label, as its flow does.
    let label = (sim.world.tracer.get_mut().as_mut()).map(|t| t.token(&**token));
    sim.world.trace_add(Counter::TokensEnqueued, 1);
    let mut plan = sim
        .world
        .cluster
        .deliver_token(now, AppId(tk.app), src, dst, bytes);
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
                use dps_obs::fault_code::{NET_DELAY, NET_DROP, NET_DUP};
                let delayed = d.extra_delay > SimSpan::ZERO && d.retransmits == 0;
                for (code, detail) in [
                    (NET_DROP, d.retransmits as u64),
                    (NET_DUP, d.duplicates as u64),
                    (NET_DELAY, d.extra_delay.as_nanos() * delayed as u64),
                ] {
                    if detail > 0 {
                        let fault = EventKind::Fault { code, detail };
                        sim.world.trace_on(now, src.0 as u16, 0, fault);
                    }
                }
            }
        }
    }
    // Bridge the network model's transfer accounting into the trace: one
    // FrameSend/FrameRecv pair per cross-node hop, with the model's own
    // wire-byte count (payload + DPS header), so the trace metrics agree
    // with `NetworkModel::wire_bytes_total` to the byte.
    if let (Some(frame), bytes @ 1..) = (label, plan.wire_bytes) {
        let send = EventKind::FrameSend { frame, bytes };
        let recv = EventKind::FrameRecv { frame, bytes };
        sim.world.trace_on(plan.sender_done, src.0 as u16, 0, send);
        sim.world.trace_on(plan.delivered, dst.0 as u16, 0, recv);
        for counter in [Counter::FramesSent, Counter::FramesRecv] {
            sim.world.trace_add(counter, 1);
        }
        for counter in [Counter::WireBytesSent, Counter::WireBytesRecv] {
            sim.world.trace_add(counter, bytes);
        }
    }
    let land = Land {
        tk,
        src,
        dst,
        d,
        sent,
    };
    schedule(sim, plan.delivered, Ev::Land(land));
}

/// A token on its way from cluster node `src` to thread `tk` of node `dst`.
struct Land {
    tk: ThreadKey,
    src: NodeId,
    dst: NodeId,
    d: Delivery,
    sent: Sent,
}

impl Land {
    /// The token lands on its thread: a lane of zero hold there.
    fn fire(self, sim: &mut SimRt) {
        if sim.world.fatal.is_some() {
            return;
        }
        let Land {
            tk,
            src,
            dst,
            d,
            sent,
        } = self;
        let mut taker = Ran {
            tk,
            host: dst,
            start: sim.now(),
            hold: SimSpan::ZERO,
        };
        if !sim.world.cluster.is_alive(dst) {
            // The node failed while the token was in flight: hand the
            // delivery back to the router, which now sees the death and
            // sheds the work to a live thread.
            let t = sim.world.thread(tk);
            t.assigned = t.assigned.saturating_sub(1);
            sim.world.requeued += 1;
            let stranded = vec![(d.to, d.what, d.env)];
            return kernel::bury(sim, Death::Lane(&mut taker), Vec::new(), stranded, src.0);
        }
        if let Arrival::Token(token) = &d.what {
            kernel::taken(sim, &mut taker, &**token, &d.env, sent);
        }
        sim.world.trace_add(Counter::TokensDelivered, 1);
        sim.world.thread(tk).push(d);
        kick_thread(sim, tk);
    }
}

/// Start the next queued delivery on a thread if one is eligible, on a CPU
/// of its node — at once if one is free, else when one is released to it.
///
/// A thread whose previous split still has flow-blocked posts is *stalled*
/// (paper §3: "the split operation is simply stalled until data objects have
/// arrived and been processed by the corresponding merge"): it will not
/// start another split execution, but it keeps processing merge/leaf/stream
/// deliveries — otherwise a merge mapped to the same thread as its split
/// (the paper's MainThread pattern) could never return the flow-control
/// credits and the schedule would deadlock.
fn kick_thread(sim: &mut SimRt, tk: ThreadKey) {
    if sim.world.fatal.is_some() {
        return;
    }
    // A failed node executes nothing; its queues are drained by `fail_node`
    // and new deliveries are re-routed before they land.
    let node = sim.world.host(tk);
    if !sim.world.cluster.is_alive(node) {
        return;
    }
    let delivery = {
        let t = sim.world.thread(tk);
        if t.running {
            return;
        }
        // Interactive (service) deliveries overtake batch work: the model
        // analogue of the testbed OS preempting long compute operations to
        // answer short service requests.
        let stalled = t.stalls > 0;
        let eligible = |d: &Delivery| !stalled || d.kind != OpKind::Split;
        let pos = (t.interactive > 0)
            .then(|| t.queue.iter().position(|d| d.interactive && eligible(d)))
            .flatten()
            .or_else(|| t.queue.iter().position(eligible));
        let Some(pos) = pos else { return };
        let delivery = t.queue.remove(pos).expect("position is valid");
        t.interactive -= u32::from(delivery.interactive);
        t.running = true;
        delivery
    };
    let cpus = &mut sim.world.cpus[node.index()];
    if cpus.busy < cpus.servers {
        cpus.busy += 1;
        run(sim, tk, node, delivery);
    } else {
        cpus.queue.push_back((tk, delivery));
    }
}

/// An execution on `node` ended: its CPU passes straight to the next
/// execution waiting for one, or becomes free.
fn release(sim: &mut SimRt, node: NodeId) {
    let cpus = &mut sim.world.cpus[node.index()];
    match cpus.queue.pop_front() {
        Some((tk, delivery)) => run(sim, tk, node, delivery),
        None => cpus.busy -= 1,
    }
}

/// Execute one delivery on its thread, which holds a CPU of `host`, and
/// schedule its end: the thread is freed and the CPU released when its
/// virtual hold is over. An execution that fails, or finds the run failed,
/// frees its thread and releases the CPU at once, as `mt` does, so a later
/// run can use the thread; a report or a post it already made still
/// happens at its own instant.
fn run(sim: &mut SimRt, tk: ThreadKey, host: NodeId, d: Delivery) {
    let (start, depth, graph) = (sim.now(), sim.world.holds.len(), d.to.graph);
    let ran = exec(sim, tk, host, d);
    let held = (sim.world.holds.len() > depth).then(|| sim.world.holds.pop().expect("pushed"));
    let (at, flow) = match ran {
        Ok(Some((at, flow))) => (at, flow),
        Ok(None) => (start, None),
        Err(e) => {
            sim.world.fail(e);
            (start, None)
        }
    };
    let held = match held {
        // A failed execution frees its thread and releases its CPU now, and
        // what it held happens at its own instant.
        Some(hold) if hold.at != at && !end_of(sim, &hold.end).is_empty() => {
            commit(sim, hold.end, hold.at);
            None
        }
        held => held.map(|hold| hold.end),
    };
    let held = held.unwrap_or_else(|| sim.reserve(Ev::End(End::default())));
    let end = end_of(sim, &held);
    (end.finish, end.release) = (Some(Finish { tk, graph, flow }), Some(host));
    commit(sim, held, at);
}

/// The body of [`run`]: run the operation the kernel says the delivery
/// calls for at its start, its posts leaving after the framework overhead
/// plus their own offsets; deliver a call's token once the overhead has
/// passed. Returns the execution's end instant and the flow a split opened;
/// `None` if the run had already failed. An operation that ran holds what
/// happens at its end ([`Hold`]) from the moment its hold is known.
fn exec(
    sim: &mut SimRt,
    tk: ThreadKey,
    host: NodeId,
    d: Delivery,
) -> Result<Option<(SimTime, Option<FlowKey>)>> {
    if sim.world.fatal.is_some() {
        return Ok(None);
    }
    let start = sim.now();
    let info = ExecInfo {
        thread_index: tk.thread as usize,
        thread_count: sim.world.decls.threads(tk.app, tk.tc),
        node_flops: sim.world.cluster.spec().node(host).flops,
        start_nanos: start.as_nanos(),
    };
    let overhead = sim.world.cfg.op_overhead;
    let world = &mut sim.world;
    let tc = &mut world.apps[tk.app as usize].tcs[tk.tc as usize];
    let data = tc.data[tk.thread as usize].as_mut();
    let inst = &mut tc.threads[tk.thread as usize].inst;
    let out_wave = || {
        world.next_wave += 1;
        world.next_wave - 1
    };
    match kernel::serve(&world.decls, inst, d.to, d.what, d.env, out_wave)? {
        Serve::Run(ready, then) => {
            let mut out = std::mem::take(&mut world.out);
            let applied = ready.run(data, info, &mut out).and_then(|()| {
                let hold = overhead + out.charged;
                let end = sim.reserve(Ev::End(End::default()));
                sim.world.holds.push(Hold {
                    at: start + hold,
                    end,
                });
                let marked = out.completed_iters;
                let mut ran = Ran {
                    tk,
                    host,
                    start,
                    hold,
                };
                // Each post leaves after the framework overhead plus its own
                // offset. A wide split's buffer becomes its flow's queue.
                let timed = |p: Post| (start + overhead + p.offset, p.token);
                let flow = match out.take_wide() {
                    Some(wide) => {
                        let posts: Vec<_> = wide.into_iter().map(timed).collect();
                        kernel::then(sim, &mut ran, then, host.0, posts, marked)?
                    }
                    None => {
                        let posts = out.posts.drain(..).map(timed);
                        kernel::then(sim, &mut ran, then, host.0, posts, marked)?
                    }
                };
                Ok(Some((start + hold, flow)))
            });
            sim.world.out = out;
            applied
        }
        Serve::Call(at, env, token) => {
            let (to, env) = kernel::call(sim, at, env)?;
            let call = Call {
                to,
                host: host.0,
                token,
                env,
            };
            schedule(sim, start + overhead, Ev::Call(call));
            Ok(Some((start + overhead, None)))
        }
        Serve::Wait => Ok(Some((start + overhead, None))),
    }
}

/// Op completion: free the thread (stalling it if a split wave still has
/// flow-blocked posts) and start the next queued delivery.
fn finish_exec(sim: &mut SimRt, tk: ThreadKey, graph: u32, split_flow: Option<FlowKey>) {
    if let Some(key) = split_flow {
        let g = sim.world.graph(tk.app, graph);
        let blocked = |f: &&mut kernel::Flow<_, _>| f.pending() > 0;
        if let Some(f) = g.flows.get_mut().get_mut(&key).filter(blocked) {
            f.ext.stalled_thread = Some(tk);
            sim.world.thread(tk).stalls += 1;
        }
    }
    let t = sim.world.thread(tk);
    t.running = false;
    t.assigned = t.assigned.saturating_sub(1);
    kick_thread(sim, tk);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread's queue slot is one `Delivery` and a slot of the event
    /// queue one `Ev`; a token-bound run holds tens of thousands of each.
    /// The envelope is 32 bytes, and an execution's end reads the feedback
    /// sink from the world rather than holding it.
    #[test]
    fn a_delivery_is_88_bytes_and_an_event_168() {
        use std::mem::size_of;
        assert_eq!(size_of::<Delivery>(), 88);
        assert_eq!(size_of::<Leave>(), 88);
        assert_eq!(size_of::<Ev>(), 168);
    }
}
