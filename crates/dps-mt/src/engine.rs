//! Engine lifecycle: declaration phase, thread spawning, run driving.

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dps_sched::FeedbackSink;

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::utils::CachePadded;
use dps_cluster::ClusterSpec;
use dps_core::internal::kernel::{self, Death, Tracer};
use dps_core::{AppHandle, Decls, DpsError, Engine, GraphHandle, Result, TokenBox};
use parking_lot::Mutex;

use crate::worker::{
    worker_loop, Answers, Followed, Forward, Msg, Output, Replies, Seam, Serving, Shared,
    SharedApp, SharedGraph, SharedTc,
};

/// Tunables of the threaded engine.
#[derive(Debug, Clone)]
pub struct MtConfig {
    /// Max tokens in flight per split/merge pair (0 = unlimited). The default
    /// is 8, not the simulator's 64: here a released token is memory and a
    /// queue slot now, not a virtual instant. Measured on the repo benchmark,
    /// 64 left `lu_mt` and `lu_net` unresolved and cost `matmul_net` (2 MiB
    /// tasks) 0.119 → 0.138 s and 0.127 → 0.140 s.
    pub flow_window: u32,
    /// Force serialize/deserialize round trips across virtual node
    /// boundaries (the paper's multi-kernel debugging mode).
    pub enforce_serialization: bool,
    /// How long a run ([`Engine::run_to_idle`]) waits for outputs before
    /// reporting a deadlock.
    pub run_timeout: Duration,
}

impl Default for MtConfig {
    fn default() -> Self {
        Self {
            flow_window: 8,
            enforce_serialization: false,
            run_timeout: Duration::from_secs(30),
        }
    }
}

/// The threaded execution engine.
///
/// Lifecycle: declare applications, thread collections and graphs; the
/// worker threads spawn on the first [`submit`](Engine::submit) call;
/// [`shutdown`](Self::shutdown) joins them. It is driven through
/// [`Engine`] like every engine; what it has beyond the trait is its own:
/// node failure ([`fail_node`](Self::fail_node),
/// [`fail_handle`](Self::fail_handle)), [`shutdown`](Self::shutdown) and
/// the seams a network engine builds on ([`set_forward`](Self::set_forward),
/// [`replies`](Self::replies), [`serve_for`](Self::serve_for)).
pub struct MtEngine {
    cfg: MtConfig,
    /// What was declared. The worker threads share it while they run, which
    /// is what closes it to further declarations.
    decls: Arc<Decls>,
    shared: Option<Arc<Shared>>,
    /// The workers' outputs and errors, in the order they happened.
    output_rx: Option<Receiver<Result<Output>>>,
    out_buf: HashMap<(u32, u32), Vec<TokenBox>>,
    /// An error met while taking outputs: the next run returns it.
    failed: Option<DpsError>,
    handles: Vec<std::thread::JoinHandle<()>>,
    started_at: Instant,
    feedback: Option<Arc<dyn FeedbackSink>>,
    seam: Option<(u32, Seam)>,
    trace: Option<Arc<dps_obs::TraceCollector>>,
}

impl MtEngine {
    /// Engine with `nodes` virtual nodes (named `node0..`) — each node is a
    /// distinct address space for the serialization-enforcement mode.
    pub fn new(nodes: usize) -> Self {
        Self::with_config(nodes, MtConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(nodes: usize, cfg: MtConfig) -> Self {
        Self {
            cfg,
            decls: Arc::new(Decls::new(ClusterSpec::uniform(nodes, 1))),
            shared: None,
            output_rx: None,
            out_buf: HashMap::new(),
            failed: None,
            handles: Vec::new(),
            started_at: Instant::now(),
            feedback: None,
            seam: None,
            trace: None,
        }
    }

    /// The attached trace sink, if any.
    pub fn trace_collector(&self) -> Option<Arc<dps_obs::TraceCollector>> {
        self.trace.clone()
    }

    /// The name `app` was declared with; it also qualifies the node names in
    /// this engine's runtime errors (`app:node`).
    pub fn app_name(&self, app: AppHandle) -> &str {
        self.decls.app_name(app.app)
    }

    /// Serve the threads of cluster node `here` alone: an arrival for a
    /// thread of any other node goes to `hook`, and the process serving it
    /// answers through [`replies`](Self::replies). Routing, pins, flows and
    /// credits stay in this engine; no OS thread is started for a thread
    /// served elsewhere. Call before the first run.
    pub fn set_forward(&mut self, here: u32, hook: Arc<dyn Forward>) {
        assert!(
            self.shared.is_none(),
            "install the forward hook before the first run"
        );
        self.seam = Some((here, Seam::Forward(hook)));
    }

    /// Serve the threads of cluster node `here` for an engine that routes
    /// ([`set_forward`](Self::set_forward)): each arrival it forwards for
    /// one of them is handed to the [`Serving`] this returns, served on the
    /// thread's own worker in the order handed in, and answered through
    /// `hook` with what that engine's [`Replies::apply`] takes. This engine
    /// routes nothing: what an operation posts goes back in its answer.
    /// Starts the engine.
    pub fn serve_for(&mut self, here: u32, hook: Arc<dyn Answers>) -> Serving {
        assert!(
            self.shared.is_none(),
            "serve for another engine before the first run"
        );
        self.seam = Some((here, Seam::Answer(hook)));
        Serving {
            shared: self.started(),
        }
    }

    /// Where the replies of node `node`'s threads are applied, in the order
    /// they come ([`set_forward`](Self::set_forward)). Starts the engine.
    pub fn replies(&mut self, node: u32) -> Replies {
        let shared = self.started();
        let lanes = Default::default();
        Replies {
            shared,
            node,
            lanes,
        }
    }

    fn ensure_started(&mut self) {
        if self.shared.is_some() {
            return;
        }
        let (output_tx, output_rx) = unbounded();
        let mut shared_apps = Vec::new();
        let mut receivers: Vec<Vec<Vec<Receiver<Msg>>>> = Vec::new();
        for a in self.decls.apps() {
            let mut tcs = Vec::new();
            let mut app_rx = Vec::new();
            for tc in &a.tcs {
                let (senders, rxs): (Vec<Sender<Msg>>, Vec<_>) =
                    tc.nodes.iter().map(|_| unbounded()).unzip();
                let queued = (0..tc.nodes.len())
                    .map(|_| CachePadded::new(AtomicU32::new(0)))
                    .collect();
                tcs.push(SharedTc {
                    senders,
                    queued,
                    metrics: self.trace.as_ref().map(|c| c.metrics_arc()),
                });
                app_rx.push(rxs);
            }
            let graphs = a
                .graphs
                .iter()
                .map(|def| SharedGraph {
                    routes: def
                        .nodes()
                        .iter()
                        .map(|n| crate::worker::RouteCell::install(n.make_route()))
                        .collect(),
                    pins: Mutex::default(),
                    followed: Followed::new(),
                    flows: Mutex::default(),
                })
                .collect();
            shared_apps.push(SharedApp { tcs, graphs });
            receivers.push(app_rx);
        }
        let shared = Arc::new(Shared {
            flow_window: self.cfg.flow_window,
            enforce_serialization: self.cfg.enforce_serialization,
            apps: shared_apps,
            decls: Arc::clone(&self.decls),
            wave_counter: CachePadded::new(AtomicU64::new(0)),
            output_tx,
            feedback: self.feedback.clone(),
            seam: self.seam.clone(),
            trace: self.trace.clone(),
            // A track no cluster node has: its flow ids are its own.
            outside: (self.trace.clone()).map(|c| Mutex::new(Tracer::new(c, (u16::MAX, 0)))),
            dead: (0..self.decls.nodes())
                .map(|_| AtomicBool::new(false))
                .collect(),
            rare: CachePadded::default(),
        });
        // Spawn one OS thread per DPS thread served here.
        for (app_idx, app_rx) in receivers.into_iter().enumerate() {
            for (tc_idx, rxs) in app_rx.into_iter().enumerate() {
                for (th_idx, rx) in rxs.into_iter().enumerate() {
                    let host = self.decls.apps()[app_idx].tcs[tc_idx].nodes[th_idx];
                    if shared.served_elsewhere(host) {
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    let data = (self.decls.apps()[app_idx].tcs[tc_idx].factory)();
                    let handle = std::thread::Builder::new()
                        .name(format!("dps-a{app_idx}t{tc_idx}i{th_idx}"))
                        .spawn(move || {
                            worker_loop(
                                shared,
                                app_idx as u32,
                                tc_idx as u32,
                                th_idx as u32,
                                data,
                                rx,
                            )
                        })
                        .expect("spawn DPS worker thread");
                    self.handles.push(handle);
                }
            }
        }
        self.shared = Some(shared);
        self.output_rx = Some(output_rx);
    }

    /// The running half, started if need be.
    pub(crate) fn started(&mut self) -> Arc<Shared> {
        self.ensure_started();
        Arc::clone(self.shared.as_ref().expect("started"))
    }

    fn buffered(&self, graph: GraphHandle) -> usize {
        (self.out_buf.get(&(graph.app, graph.graph))).map_or(0, Vec::len)
    }

    /// Kill cluster node `node` mid-run: the node's worker threads turn
    /// into *tombstones* — they stay on their channels (so late sends are
    /// never lost) but abandon their partial wave state and re-route
    /// everything they drain to live threads. Load-aware routes see the
    /// dead threads at infinite load and shed work to survivors, the
    /// registered feedback sink is told which workers it lost, and — as on
    /// the simulator — work that *cannot* move (stateful-affinity routes,
    /// merge waves whose partial state died with the node) surfaces as
    /// [`DpsError::NodeDown`] from the run. A node served elsewhere has
    /// nothing here to drain (`kernel::lose_served`).
    ///
    /// The kill is the kernel's, as `SimEngine::fail_node`'s: the same fault
    /// schedule applied to either engine leaves the same surviving output
    /// set (differentially tested in the workspace's `vopr` tests). The
    /// first kill of a node wins; an unknown node is `InvalidGraph`.
    pub fn fail_node(&mut self, node: u32) -> Result<()> {
        self.fail_handle().fail_node(node)
    }

    /// A [`Send`]`+`[`Sync`] handle that can tombstone cluster nodes from
    /// *other* threads while this engine runs. Layered engines use it to
    /// turn an asynchronous failure signal (a heartbeat miss, a socket
    /// EOF) into the same [`fail_node`](Self::fail_node) degradation the
    /// scripted call performs — without needing `&mut MtEngine` on the
    /// detecting thread. Spawns the worker threads if needed.
    pub fn fail_handle(&mut self) -> FailHandle {
        FailHandle {
            shared: self.started(),
        }
    }

    /// Stop all worker threads and join them.
    pub fn shutdown(&mut self) {
        if let Some(shared) = &self.shared {
            for app in &shared.apps {
                for tc in &app.tcs {
                    for tx in &tc.senders {
                        let _ = tx.send(Msg::Stop);
                    }
                }
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.shared = None;
    }

    /// Wall-clock time since the engine was created. Monotonic across the
    /// whole lifecycle — in particular it does **not** rebase when the
    /// worker threads spawn on the first submit, so `now_secs()` intervals
    /// taken around a run measure that run alone.
    pub fn elapsed(&self) -> Duration {
        self.started_at.elapsed()
    }
}

/// Buffer an output of any graph; an error is handed back.
fn keep(buf: &mut HashMap<(u32, u32), Vec<TokenBox>>, out: Result<Output>) -> Result<()> {
    let out = out?;
    buf.entry((out.app, out.graph)).or_default().push(out.token);
    Ok(())
}

impl Drop for MtEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Thread-safe node-failure injector detached from the engine borrow (see
/// [`MtEngine::fail_handle`]). Cloning is cheap; every clone tombstones the
/// same engine. Idempotent per node: the first caller wins, later calls on
/// an already-dead node are no-ops.
#[derive(Clone)]
pub struct FailHandle {
    shared: Arc<Shared>,
}

impl FailHandle {
    /// Tombstone cluster node `node`: exactly the semantics of
    /// [`MtEngine::fail_node`], callable from any thread.
    pub fn fail_node(&self, node: u32) -> Result<()> {
        let mut shared: &Shared = &self.shared;
        kernel::known_node(&shared.decls, node)?;
        if shared.dead[node as usize].swap(true, Ordering::AcqRel) {
            return Ok(()); // the first caller won
        }
        // A followed pin on the dead node is refused from the flag alone;
        // dropping every graph's note as well leaves no trace of it.
        for graph in shared.apps.iter().flat_map(|app| &app.graphs) {
            graph.followed.reset();
        }
        // The node's workers hold what it had: each hands its waves and what
        // it drains to the kernel itself, as a tombstone.
        let reporters = shared.rare.feedback_tcs.lock().clone();
        let feedback = (shared.feedback.as_deref()).map(|sink| (sink, &reporters[..]));
        let died = Death::Node(node, feedback);
        kernel::bury(&mut shared, died, Vec::new(), Vec::new(), node);
        if shared.served_elsewhere(node) {
            // Paired with `forward`'s: a token counted too late for this is
            // failed by its own send.
            fence(Ordering::SeqCst);
            let owed = shared.owed(node);
            kernel::lose_served(&mut shared, node, owed);
        }
        // Wake them (raw sends: a wake-up is not a counted backlog message).
        for (app, decl) in shared.apps.iter().zip(shared.decls.apps()) {
            for (tc, decl) in app.tcs.iter().zip(&decl.tcs) {
                for (t, &host) in decl.nodes.iter().enumerate() {
                    if host == node {
                        let _ = tc.senders[t].send(Msg::Fail);
                    }
                }
            }
        }
        Ok(())
    }

    /// True when `node` has already been tombstoned.
    pub fn is_dead(&self, node: u32) -> bool {
        self.shared
            .dead
            .get(node as usize)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

/// The unified engine API ([`dps_core::Engine`]): the same generic driver
/// code that runs on the deterministic simulator drives this engine's OS
/// threads. Declarations must precede the first
/// [`submit`](Engine::submit).
impl Engine for MtEngine {
    fn name(&self) -> &'static str {
        "mt"
    }

    fn caps(&self) -> dps_core::EngineCaps {
        dps_core::EngineCaps {
            virtual_time: false,
        }
    }

    /// The table is shared with the worker threads from the first run on,
    /// and closed to declarations while it is.
    fn declare<R>(&mut self, f: impl FnOnce(&mut Decls) -> R) -> R {
        f(Arc::get_mut(&mut self.decls).expect("declarations precede the first run"))
    }

    /// This engine reports *wall-clock* execution times; only relative
    /// rates matter, so the same application code adapts identically here
    /// and on the simulator.
    fn set_feedback_sink(&mut self, sink: Arc<dyn FeedbackSink>) {
        assert!(
            self.shared.is_none(),
            "register the feedback sink before the first run"
        );
        self.feedback = Some(sink);
    }

    /// Each worker thread records its wave, op and chunk events
    /// (wall-clock timestamps) through its own lock-free writer.
    fn set_trace_sink(&mut self, sink: Arc<dps_obs::TraceCollector>) {
        assert!(
            self.shared.is_none(),
            "register the trace sink before the first run"
        );
        self.trace = Some(sink);
    }

    /// Starts the worker threads on first use.
    fn submit(&mut self, graph: GraphHandle, token: TokenBox) -> Result<()> {
        let shared = self.started();
        let token = dps_core::internal::Carried::from_box(token);
        crate::worker::inject(&shared, graph.app, graph.graph, token, 0);
        Ok(())
    }

    /// Blocks until `graph` has the outputs, a worker reports an error, or
    /// the run timeout expires (the DPS deadlock analogue). Enough outputs
    /// win over an error that came with them.
    fn run_to_idle(&mut self, graph: GraphHandle, expected_outputs: usize) -> Result<()> {
        self.ensure_started();
        let rx = self.output_rx.as_ref().expect("started");
        let deadline = Instant::now() + self.cfg.run_timeout;
        while self.buffered(graph) < expected_outputs {
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Ok(out) = rx.recv_timeout(remaining) else {
                return Err(DpsError::IncompleteWaves {
                    waves: vec![format!(
                        "application {}: timed out after {:?} waiting for {} outputs \
                         ({} received)",
                        self.decls.app_name(graph.app),
                        self.cfg.run_timeout,
                        expected_outputs,
                        self.buffered(graph)
                    )],
                });
            };
            keep(&mut self.out_buf, out)?;
        }
        Ok(())
    }

    /// Unordered. Takes what already sits in the channel too, up to an
    /// error, which the next run returns.
    fn take_outputs(&mut self, graph: GraphHandle) -> Vec<TokenBox> {
        while self.failed.is_none() {
            let Some(out) = (self.output_rx.as_ref()).and_then(|rx| rx.try_recv().ok()) else {
                break;
            };
            self.failed = keep(&mut self.out_buf, out).err();
        }
        (self.out_buf.remove(&(graph.app, graph.graph))).unwrap_or_default()
    }

    fn now_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    fn chunk_hub(&mut self) -> Arc<dps_sched::ChunkHub> {
        let hub = Arc::new(dps_sched::ChunkHub::new());
        if let Some(c) = &self.trace {
            hub.attach_metrics(c.metrics_arc());
        }
        hub
    }
}
