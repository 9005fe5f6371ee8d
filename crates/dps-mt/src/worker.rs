//! Worker threads: one OS thread per DPS thread, driving operations from a
//! token queue — the paper's macro data flow execution.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dps_sched::FeedbackSink;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use crossbeam::utils::CachePadded;
use dps_core::internal::kernel::{
    self, CallReturn, CloseTo, Exit, Flow, Instances, Pins, Routed, Wave,
};
use dps_core::internal::{DynRoute, ExecInfo, OpOutput};
use dps_core::{
    wire_roundtrip, DpsError, Envelope, Flowgraph, GNodeId, OpKind, RouteInfo, Token, TokenBox,
    TokenRegistry, WaveKey,
};
use dps_obs::{Counter, EventKind, Gauge, TraceCollector, TraceWriter};
use parking_lot::Mutex;

use crate::remote::{remote_for, RemoteExec, RemoteKind, RemotePending, RemoteTask};

/// Message to a worker thread.
pub(crate) enum Msg {
    /// Process a token at a graph node.
    Deliver {
        graph: u32,
        node: GNodeId,
        token: TokenBox,
        env: Envelope,
    },
    /// Wave-close control info: the producer of the wave identified by
    /// `env` finished after its final data object was already in flight;
    /// `total` is the wave size.
    Close {
        graph: u32,
        node: GNodeId,
        env: Envelope,
        total: u32,
    },
    /// Terminate the worker.
    Stop,
    /// Wakeup after the worker's node was marked dead (`fail_node`): the
    /// worker re-checks the dead set and enters tombstone mode. Sent *raw*
    /// on the channel (never through [`SharedTc::enqueue`]), so it is not
    /// counted in the thread's backlog and must not decrement it.
    Fail,
}

/// A token that left a graph.
pub(crate) struct Output {
    pub app: u32,
    pub graph: u32,
    pub token: TokenBox,
}

pub(crate) struct SharedTc {
    pub nodes: Vec<u32>,
    pub senders: Vec<Sender<Msg>>,
    /// Live per-thread backlog (messages sent and not yet fully processed)
    /// — the load signal for `LeastLoaded`/`ChunkRoute` routing and the
    /// AWF feedback loop on real OS threads. Each counter is padded to its
    /// own cache line: every delivery bumps exactly one thread's counter,
    /// and unpadded neighbours would drag every other thread's line along
    /// (false sharing on the per-delivery hot path).
    pub queued: Vec<CachePadded<AtomicU32>>,
    /// Metrics registry of the attached trace sink (None = no accounting).
    pub metrics: Option<Arc<dps_obs::MetricsRegistry>>,
}

impl SharedTc {
    fn enqueue(&self, thread: usize, msg: Msg) {
        let depth = self.queued[thread].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(m) = &self.metrics {
            m.add(Counter::TokensEnqueued, 1);
            m.gauge_max(Gauge::QueueDepthPeak, depth as u64);
        }
        if self.senders[thread].send(msg).is_err() {
            // Worker already stopped (shutdown path): roll the count back.
            self.queued[thread].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Per-thread backlog with dead-node awareness: threads hosted on a
    /// failed node report infinite load, so load-aware routes
    /// (`LeastLoaded`, `ChunkRoute`) shed their work to live threads —
    /// the same signal shape the simulator's `fail_node` produces.
    fn load_snapshot(&self, dead: &[AtomicBool]) -> Vec<u32> {
        self.queued
            .iter()
            .zip(&self.nodes)
            .map(|(q, &n)| {
                if dead
                    .get(n as usize)
                    .is_some_and(|d| d.load(Ordering::Acquire))
                {
                    u32::MAX
                } else {
                    q.load(Ordering::Relaxed)
                }
            })
            .collect()
    }
}

/// One wave's posts on their way out (keyed by producing node and wave).
pub(crate) struct MtFlow {
    flow: Flow<TokenBox>,
    /// Cluster node of the producing thread.
    src_node: u32,
}

/// One graph node's installed route. Stateless routes (declared via
/// [`Route::STATELESS`](dps_core::Route::STATELESS)) are shared across the
/// delivery threads and called through `&self` — no per-delivery lock;
/// stateful routes (round-robin counters and friends) keep the mutex.
pub(crate) enum RouteCell {
    Stateless(Box<dyn DynRoute>),
    Stateful(Mutex<Box<dyn DynRoute>>),
}

impl RouteCell {
    pub(crate) fn install(route: Box<dyn DynRoute>) -> Self {
        if route.is_stateless() {
            RouteCell::Stateless(route)
        } else {
            RouteCell::Stateful(Mutex::new(route))
        }
    }

    fn route(
        &self,
        token: &dyn Token,
        info: &RouteInfo<'_>,
        node_name: &str,
    ) -> dps_core::Result<usize> {
        match self {
            RouteCell::Stateless(r) => r.route_dyn_shared(token, info, node_name),
            RouteCell::Stateful(m) => m.lock().route_dyn(token, info, node_name),
        }
    }
}

pub(crate) struct SharedGraph {
    pub routes: Vec<RouteCell>,
    /// Which thread each live wave consumes on, and the wave totals still
    /// waiting for their wave to get one: the two change together.
    pub pins: Mutex<Pins>,
    pub flows: Mutex<HashMap<(u32, u64), MtFlow>>,
}

pub(crate) struct SharedApp {
    pub tcs: Vec<SharedTc>,
    pub graphs: Vec<SharedGraph>,
}

pub(crate) struct Shared {
    pub flow_window: u32,
    pub enforce_serialization: bool,
    pub apps: Vec<SharedApp>,
    /// Declared application names, surfaced in runtime error messages
    /// (matching `SimEngine::app` semantics).
    pub app_names: Vec<String>,
    pub defs: Vec<Vec<Arc<Flowgraph>>>,
    pub registries: Vec<TokenRegistry>,
    pub services: HashMap<String, (u32, u32)>,
    pub wave_counter: AtomicU64,
    pub call_counter: AtomicU64,
    pub pending_calls: Mutex<HashMap<u64, CallReturn>>,
    pub output_tx: Sender<Output>,
    pub error_tx: Sender<DpsError>,
    /// Chunk-completion reports (wall-clock) go here, if registered — the
    /// dynamic loop-scheduling feedback channel (`dps-sched`).
    pub feedback: Option<Arc<dyn FeedbackSink>>,
    /// Calibrated host compute rate (FLOP/s) for `charge_flops` cost models.
    pub node_flops: f64,
    /// Remote-execution hook: when installed, operations of threads whose
    /// cluster node it claims run in another process (see `crate::remote`).
    pub remote: Option<Arc<dyn RemoteExec>>,
    /// Attached trace sink (wall-clock timestamps); each worker thread
    /// registers its own writer at startup.
    pub trace: Option<Arc<TraceCollector>>,
    /// One flag per cluster node: `fail_node` marks a node dead here and
    /// its workers turn into tombstones (they keep draining their queues,
    /// re-routing stranded work, so no message is ever lost to a closed
    /// channel).
    pub dead: Vec<AtomicBool>,
    /// Declared cluster node names (`node0..`), for NodeDown diagnostics.
    pub node_names: Vec<String>,
    /// Collections that have actually reported to the feedback sink —
    /// `fail_node` translates a dead node into *these* collections' thread
    /// indices for `FeedbackSink::worker_lost` (an unrelated collection on
    /// the dead node must not wipe a live worker sharing a thread index).
    pub feedback_tcs: Mutex<Vec<(u32, u32)>>,
}

impl Shared {
    /// True when cluster node `node` was killed by `fail_node`.
    pub(crate) fn node_dead(&self, node: u32) -> bool {
        self.dead
            .get(node as usize)
            .is_some_and(|d| d.load(Ordering::Acquire))
    }

    fn node_name(&self, node: u32) -> String {
        self.node_names
            .get(node as usize)
            .cloned()
            .unwrap_or_else(|| format!("node{node}"))
    }
}

/// Per-worker mutable state.
struct Worker {
    app: u32,
    tc: u32,
    thread: u32,
    node: u32,
    data: Box<dyn Any + Send>,
    /// This thread's op instances and the waves it consumes. Where the
    /// remote hook claims the thread, the instances live in the hosting
    /// process and only the waves' accounting is kept here.
    inst: Instances,
    /// The remote-execution hook, when it claims this thread's node: the
    /// thread is then a proxy, and its operations run in another process.
    remote: Option<Arc<dyn RemoteExec>>,
    /// This thread's trace writer (one SPSC ring), when a sink is attached.
    trace: Option<TraceWriter>,
}

impl Worker {
    /// Record a trace event on this worker's track (no-op without a sink).
    fn trace(&mut self, shared: &Shared, kind: EventKind) {
        if let (Some(w), Some(c)) = (self.trace.as_mut(), shared.trace.as_ref()) {
            w.record(c.now_nanos(), kind);
        }
    }
}

/// Report a runtime error, qualifying node names with the owning
/// application's declared name (`app:node`) so multi-application runs
/// produce attributable diagnostics.
pub(crate) fn send_error(shared: &Shared, app: u32, e: DpsError) {
    let name = shared
        .app_names
        .get(app as usize)
        .map(String::as_str)
        .unwrap_or("?");
    let tag = |node: String| format!("{name}:{node}");
    let e = match e {
        DpsError::NoRoute { node, token_type } => DpsError::NoRoute {
            node: tag(node),
            token_type,
        },
        DpsError::OperationContract { node, reason } => DpsError::OperationContract {
            node: tag(node),
            reason,
        },
        DpsError::RouteOutOfRange {
            node,
            index,
            thread_count,
        } => DpsError::RouteOutOfRange {
            node: tag(node),
            index,
            thread_count,
        },
        DpsError::InvalidGraph { reason } => DpsError::InvalidGraph {
            reason: format!("application {name}: {reason}"),
        },
        other => other,
    };
    // Terminal failure events go straight into the collector's merged log
    // (the failing thread may have no writer, and rings could be lost).
    if let Some(c) = &shared.trace {
        c.record_now(
            0,
            0,
            EventKind::OpFailed {
                op: c.label(&e.to_string()),
            },
        );
    }
    let _ = shared.error_tx.send(e);
}

/// Inject a token into a graph entry from outside (the run driver).
pub(crate) fn inject(shared: &Arc<Shared>, app: u32, graph: u32, token: TokenBox, src_node: u32) {
    let entry = shared.defs[app as usize][graph as usize].entry();
    route_and_send(shared, app, graph, entry, src_node, token, Envelope::root());
}

/// How many remote operations one worker thread ships before it waits for
/// the reply of the oldest. It bounds what a lane of the hosting process
/// has queued ahead of it (tokens held encoded over there, posts held back
/// over here), not how much overlap there is: that saturates once the lane
/// never runs dry between two replies.
const REMOTE_PIPELINE_DEPTH: usize = 16;

/// What phase 2 of a shipped operation needs from its phase 1.
enum Cont {
    /// A split/leaf execution: its posts leave under `env`.
    Exec {
        graph: u32,
        node: GNodeId,
        env: Envelope,
    },
    /// One step of the merge/stream wave `key`: a consume (`consumed`, it
    /// returns a flow credit) or the finalize a late close triggers.
    Wave {
        graph: u32,
        node: GNodeId,
        key: WaveKey,
        parent_env: Envelope,
        completes: bool,
        consumed: bool,
    },
}

/// How phase 1 of a message left it.
enum Begun {
    /// Nothing is owed: the operation ran here and went through phase 2, or
    /// the message needed none.
    Finished,
    /// The operation was shipped; its phase 2 waits in the FIFO.
    InFlight,
}

/// The remote operations a worker thread has shipped and not yet finished,
/// oldest first. Each entry is one message still counted in the thread's
/// backlog.
type InFlight = VecDeque<(Box<dyn RemotePending>, Cont)>;

/// The worker main loop.
///
/// Every operation is handled in two phases. Phase 1 (`begin_*`) does the
/// wave accounting and either runs the operation here or ships it; phase 2
/// (`finish_*`) applies its posts. A local operation goes through both back
/// to back. A shipped one parks between them in a FIFO while the loop runs
/// phase 1 of the messages already queued behind it, and phase 2 always
/// takes the oldest entry — the hosting process executes and replies in
/// shipping order (the [`RemoteExec`] contract), so what this thread does,
/// posts and accounts, and in which order, is the same as waiting out every
/// round trip.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    app: u32,
    tc: u32,
    thread: u32,
    data: Box<dyn Any + Send>,
    rx: Receiver<Msg>,
) {
    let node = shared.apps[app as usize].tcs[tc as usize].nodes[thread as usize];
    let mut w = Worker {
        app,
        tc,
        thread,
        node,
        data,
        inst: Instances::default(),
        remote: remote_for(&shared.remote, node),
        trace: shared
            .trace
            .as_ref()
            .map(|c| c.writer(node as u16, thread as u16)),
    };
    let mut inflight = InFlight::new();
    let mut stopped = false;
    let mut dead = false;
    loop {
        // With replies owed, only a message that is already here is worth
        // another phase 1; otherwise the oldest reply is what to wait for.
        let next = if inflight.is_empty() {
            rx.recv().map_err(|_| TryRecvError::Disconnected)
        } else if inflight.len() < REMOTE_PIPELINE_DEPTH {
            rx.try_recv()
        } else {
            Err(TryRecvError::Empty)
        };
        let msg = match next {
            Ok(msg) => msg,
            Err(TryRecvError::Empty) => {
                finish_oldest(&shared, &mut w, &mut inflight);
                continue;
            }
            Err(TryRecvError::Disconnected) => break,
        };
        if !dead && shared.node_dead(node) {
            // The node was killed: become a tombstone. The thread stays
            // alive so late sends never hit a closed channel; it abandons
            // its partial wave state and from now on re-routes everything
            // it drains to live threads. What was already shipped is
            // finished first (a dead host fails those waits at once), so
            // no phase 2 finds its wave gone.
            finish_all(&shared, &mut w, &mut inflight);
            dead = true;
            abandon_waves(&shared, &mut w);
        }
        let begun = match msg {
            Msg::Stop => {
                stopped = true;
                break;
            }
            // A bare wakeup (sent raw, not counted in the backlog): the
            // dead-set re-check above did the work.
            Msg::Fail => continue,
            Msg::Deliver {
                graph,
                node: gnode,
                token,
                env,
            } => {
                if dead {
                    // Stranded delivery: hand it back to the router, which
                    // sees this node's threads at infinite load and (for
                    // fresh merge waves) re-pins the wave elsewhere.
                    route_and_send(&shared, app, graph, gnode, node, token, env);
                    Ok(Begun::Finished)
                } else {
                    match shared.defs[app as usize][graph as usize].node(gnode).kind {
                        OpKind::Split | OpKind::Leaf => {
                            begin_exec(&shared, &mut w, &mut inflight, graph, gnode, token, env)
                        }
                        OpKind::Merge | OpKind::Stream => {
                            let token = Arrival::Token(token);
                            begin_wave(&shared, &mut w, &mut inflight, graph, gnode, env, token)
                        }
                        OpKind::Call | OpKind::CallSplit => {
                            // A call has no remote half: it goes out behind
                            // the posts of everything shipped before it.
                            finish_all(&shared, &mut w, &mut inflight);
                            handle_call(&shared, &mut w, graph, gnode, token, env)
                                .map(|()| Begun::Finished)
                        }
                    }
                }
            }
            Msg::Close {
                graph,
                node: gnode,
                env,
                total,
            } => {
                if dead {
                    // Wave-close messages follow their wave to its new home
                    // (or park until a re-routed token re-pins it).
                    send_close(&shared, app, graph, env, total);
                    Ok(Begun::Finished)
                } else {
                    let close = Arrival::Close(total);
                    begin_wave(&shared, &mut w, &mut inflight, graph, gnode, env, close)
                }
            }
        };
        match begun {
            Ok(Begun::InFlight) => {
                // Still counted in the backlog until its phase 2 ends, so
                // load-aware routes keep seeing what the host has queued.
                if let Some(m) = &shared.apps[app as usize].tcs[tc as usize].metrics {
                    m.gauge_max(Gauge::RemoteInFlightPeak, inflight.len() as u64);
                }
                continue;
            }
            Ok(Begun::Finished) => {}
            Err(e) => send_error(&shared, app, e),
        }
        retire(&shared, &w);
    }
    // Stop, or the channel died: every reply still owed is consumed first.
    finish_all(&shared, &mut w, &mut inflight);
    if !stopped {
        // The channel died under the worker (abnormal teardown): record the
        // thread's death as a terminal node-down event.
        if let Some(c) = &shared.trace {
            c.record_now(
                node as u16,
                thread as u16,
                EventKind::NodeDown { node: node as u16 },
            );
            c.metrics().add(Counter::NodesDown, 1);
        }
    }
}

/// A message is fully processed: drop it from this thread's backlog (the
/// live load signal used by routing functions).
fn retire(shared: &Shared, w: &Worker) {
    shared.apps[w.app as usize].tcs[w.tc as usize].queued[w.thread as usize]
        .fetch_sub(1, Ordering::Relaxed);
}

/// Wait for the oldest shipped operation and run its phase 2.
fn finish_oldest(shared: &Arc<Shared>, w: &mut Worker, inflight: &mut InFlight) {
    let Some((pending, cont)) = inflight.pop_front() else {
        return;
    };
    let done = pending.wait().and_then(|outcome| {
        apply_reports(shared, w.app, w.tc, w.thread, &outcome.reports);
        finish(shared, w, cont, outcome.posts)
    });
    if let Err(e) = done {
        send_error(shared, w.app, e);
    }
    retire(shared, w);
}

/// Finish everything shipped, in order, before a step that must not
/// overtake it.
fn finish_all(shared: &Arc<Shared>, w: &mut Worker, inflight: &mut InFlight) {
    while !inflight.is_empty() {
        finish_oldest(shared, w, inflight);
    }
}

/// A worker whose node was killed enters tombstone mode: every wave this
/// thread had heard of is unrecoverable (its op instance and counts die
/// here) and surfaces as [`DpsError::NodeDown`]; its pin is removed, so what
/// is still pinned on a dead node afterwards is a wave nothing was consumed
/// of — the one kind that can move (kernel rule 6).
fn abandon_waves(shared: &Arc<Shared>, w: &mut Worker) {
    let inst = std::mem::take(&mut w.inst);
    for (key, wave) in inst.waves {
        let target = &shared.defs[w.app as usize][wave.graph as usize].node(wave.node);
        let g = &shared.apps[w.app as usize].graphs[wave.graph as usize];
        g.pins.lock().remove(&key);
        send_error(shared, w.app, node_down(shared, w.node, &target.name));
    }
}

/// If the finished execution marked a scheduled chunk complete, report its
/// wall-clock execution time to the registered feedback sink — the
/// real-thread half of the dynamic loop-scheduling feedback channel.
fn report_completion(shared: &Shared, w: &mut Worker, out: &OpOutput, started: Instant) {
    let Some(iters) = out.completed_iters else {
        return;
    };
    let nanos = started.elapsed().as_nanos() as u64;
    w.trace(shared, EventKind::ChunkExec { iters, nanos });
    if let Some(sink) = shared.feedback.as_ref() {
        kernel::note_reporter(&mut shared.feedback_tcs.lock(), w.app, w.tc);
        sink.report_chunk(w.thread as usize, iters, started.elapsed().as_secs_f64());
        w.trace(
            shared,
            EventKind::ChunkReport {
                worker: w.thread,
                iters,
                nanos,
            },
        );
        if let Some(c) = &shared.trace {
            c.metrics().add(Counter::ChunkReports, 1);
        }
    }
}

/// Apply remotely-measured chunk completions to the master's feedback sink
/// under the executing thread's index — the distributed counterpart of
/// [`report_completion`] (the remote host measured the wall-clock time).
fn apply_reports(shared: &Shared, app: u32, tc: u32, thread: u32, reports: &[(u64, f64)]) {
    if let (false, Some(sink)) = (reports.is_empty(), shared.feedback.as_ref()) {
        kernel::note_reporter(&mut shared.feedback_tcs.lock(), app, tc);
        sink.report_batch(thread as usize, reports);
    }
}

fn exec_info(shared: &Shared, w: &Worker) -> ExecInfo {
    ExecInfo {
        thread_index: w.thread as usize,
        thread_count: shared.apps[w.app as usize].tcs[w.tc as usize].senders.len(),
        // Wall-clock engine: charges don't advance a clock, but cost models
        // calling charge_flops see the calibrated host rate.
        node_flops: shared.node_flops,
        start_nanos: 0,
    }
}

/// Record the op span `[start, now]` on this worker's track.
fn trace_op(shared: &Shared, w: &mut Worker, name: &str, wave: u32, start: Option<u64>) {
    if let (Some(start), Some(c)) = (start, shared.trace.as_ref()) {
        let op = c.label(name);
        let end = c.now_nanos();
        if let Some(wtr) = w.trace.as_mut() {
            wtr.record(start, EventKind::OpStart { op, wave });
            wtr.record(end, EventKind::OpEnd { op, wave });
        }
    }
}

/// Phase 1 of a split/leaf delivery: ship the operation, or run it and go
/// straight on to phase 2.
fn begin_exec(
    shared: &Arc<Shared>,
    w: &mut Worker,
    inflight: &mut InFlight,
    graph: u32,
    node: GNodeId,
    token: TokenBox,
    env: Envelope,
) -> Result<Begun, DpsError> {
    let gnode = shared.defs[w.app as usize][graph as usize].node(node);
    match &w.remote {
        Some(r) => {
            let pending = r.begin(RemoteTask {
                app: w.app,
                tc: w.tc,
                thread: w.thread,
                graph,
                node,
                kind: RemoteKind::Exec,
                token: Some(token),
                env: env.clone(),
            });
            inflight.push_back((pending, Cont::Exec { graph, node, env }));
            Ok(Begun::InFlight)
        }
        None => {
            let info = exec_info(shared, w);
            let t0n = shared.trace.as_ref().map(|c| c.now_nanos());
            let op = w.inst.node_op((graph, node.0), gnode)?;
            let mut out = OpOutput::default();
            let t0 = Instant::now();
            op.on_token(&mut out, w.data.as_mut(), info, &gnode.name, token)?;
            report_completion(shared, w, &out, t0);
            let wave = env.frames.last().map_or(0, |f| f.wave as u32);
            trace_op(shared, w, &gnode.name, wave, t0n);
            let posts = out.posts.into_iter().map(|p| p.token).collect();
            finish_exec(shared, w, graph, node, env, posts)?;
            Ok(Begun::Finished)
        }
    }
}

/// Phase 2 of a split/leaf delivery: a split's posts open a wave behind the
/// flow window, a leaf's single post moves on.
fn finish_exec(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    env: Envelope,
    mut posts: Vec<TokenBox>,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let gnode = def.node(node);
    match gnode.kind {
        OpKind::Split => {
            let wave = shared.wave_counter.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = shared.trace.as_ref() {
                let graph_label = c.label(def.name());
                w.trace(
                    shared,
                    EventKind::WaveStart {
                        graph: graph_label,
                        wave: wave as u32,
                    },
                );
            }
            let flow = MtFlow {
                flow: kernel::open_wave(def, node, wave, &env, posts.into_iter()),
                src_node: w.node,
            };
            let g = &shared.apps[w.app as usize].graphs[graph as usize];
            g.flows.lock().insert((node.0, wave), flow);
            pump_flow(shared, w.app, graph, (node.0, wave));
        }
        OpKind::Leaf => {
            // Local leaves are held to this by their adapter; a remote one
            // is only as good as the process that answered.
            if posts.len() != 1 {
                return Err(DpsError::OperationContract {
                    node: gnode.name.clone(),
                    reason: format!(
                        "leaf execution returned {} posts (exactly 1 required)",
                        posts.len()
                    ),
                });
            }
            let post = posts.pop().expect("length checked");
            emit(shared, w.app, graph, node, w.node, post, env);
        }
        _ => unreachable!("only splits and leaves execute"),
    }
    Ok(())
}

/// What reaches a merge/stream wave: one of its tokens, or its wave-close
/// carrying the total.
enum Arrival {
    Token(TokenBox),
    Close(u32),
}

/// Phase 1 of a merge/stream delivery: account for what arrived (kernel
/// rule 1), then ship the step it calls for — a consume, with the finalize
/// if it completes the wave; for a close, the finalize alone, once every
/// data object was consumed — or run it and go straight on to phase 2.
fn begin_wave(
    shared: &Arc<Shared>,
    w: &mut Worker,
    inflight: &mut InFlight,
    graph: u32,
    node: GNodeId,
    mut env: Envelope,
    arrival: Arrival,
) -> Result<Begun, DpsError> {
    let gnode = shared.defs[w.app as usize][graph as usize].node(node);
    let name = &gnode.name;
    let info = exec_info(shared, w);
    let key = env.wave_key().expect("validated depth >= 1");
    let wave = w.inst.waves.entry(key.clone()).or_insert_with(|| {
        Wave::new(
            graph,
            node,
            shared.wave_counter.fetch_add(1, Ordering::Relaxed),
        )
    });
    let (token, completes) = match arrival {
        Arrival::Token(token) => {
            let inline_total = env.top().and_then(|f| f.total);
            (Some(token), wave.admit(inline_total, name)?)
        }
        Arrival::Close(total) => {
            if !wave.close(total, name)? {
                // The finalize waits for the remaining data objects.
                return Ok(Begun::Finished);
            }
            (None, true)
        }
    };
    let consumed = token.is_some();
    // The wave stays in the table until phase 2: steps of it that are still
    // in flight ahead of a finalize advance its stream numbering.
    match &w.remote {
        Some(r) => {
            let kind = match consumed {
                true => RemoteKind::Consume { completes },
                false => RemoteKind::Finalize,
            };
            // The remote side re-derives the wave identity from the
            // envelope, so it is sent the frame popped below.
            let pending = r.begin(RemoteTask {
                app: w.app,
                tc: w.tc,
                thread: w.thread,
                graph,
                node,
                kind,
                token,
                env: env.clone(),
            });
            env.pop();
            let cont = Cont::Wave {
                graph,
                node,
                key,
                parent_env: env,
                completes,
                consumed,
            };
            inflight.push_back((pending, cont));
            Ok(Begun::InFlight)
        }
        None => {
            env.pop();
            let t0n = shared.trace.as_ref().map(|c| c.now_nanos());
            let op = wave.op(gnode)?;
            let mut out = OpOutput::default();
            let t0 = Instant::now();
            if let Some(token) = token {
                op.on_token(&mut out, w.data.as_mut(), info, name, token)?;
            }
            if completes {
                op.on_finalize(&mut out, w.data.as_mut(), info, name)?;
            }
            report_completion(shared, w, &out, t0);
            trace_op(shared, w, name, key.wave as u32, t0n);
            let posts = out.posts.into_iter().map(|p| p.token).collect();
            finish_wave(
                shared, w, graph, node, &key, env, completes, consumed, posts,
            )?;
            Ok(Begun::Finished)
        }
    }
}

/// Phase 2 of a shipped operation: apply the posts it came back with.
fn finish(
    shared: &Arc<Shared>,
    w: &mut Worker,
    cont: Cont,
    posts: Vec<TokenBox>,
) -> Result<(), DpsError> {
    match cont {
        Cont::Exec { graph, node, env } => finish_exec(shared, w, graph, node, env, posts),
        Cont::Wave {
            graph,
            node,
            key,
            parent_env,
            completes,
            consumed,
        } => finish_wave(
            shared, w, graph, node, &key, parent_env, completes, consumed, posts,
        ),
    }
}

/// Phase 2 of a consume (`consumed`) or finalize: a completed merge emits
/// its output, a stream queues its posts; a completed wave leaves the
/// table, a consumed token returns its flow credit.
#[allow(clippy::too_many_arguments)]
fn finish_wave(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    key: &WaveKey,
    parent_env: Envelope,
    completes: bool,
    consumed: bool,
    mut posts: Vec<TokenBox>,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let gnode = def.node(node);
    match gnode.kind {
        OpKind::Merge => {
            if completes {
                let post = posts.pop().ok_or_else(|| DpsError::OperationContract {
                    node: gnode.name.clone(),
                    reason: "merge wave completed without an output".into(),
                })?;
                emit(shared, w.app, graph, node, w.node, post, parent_env);
            }
        }
        OpKind::Stream => {
            if !posts.is_empty() || completes {
                finish_stream(shared, w, graph, node, key, &parent_env, completes, posts)?;
            }
        }
        _ => unreachable!("only merges and streams consume waves"),
    }
    if completes {
        if let Some(c) = shared.trace.as_ref() {
            let graph_label = c.label(def.name());
            w.trace(
                shared,
                EventKind::WaveEnd {
                    graph: graph_label,
                    wave: key.wave as u32,
                },
            );
            c.drain();
        }
        w.inst.waves.remove(key);
        let g = &shared.apps[w.app as usize].graphs[graph as usize];
        g.pins.lock().remove(key);
    }
    if consumed {
        credit_flow(shared, w.app, graph, (key.src.0, key.wave));
    }
    Ok(())
}

/// Queue a stream's posts on its output flow (kernel rule 3); a total that
/// no pending post can carry goes out as a wave-close.
///
/// The wave's numbering is read and advanced here, in phase 2, and nowhere
/// else: two consumes of one wave can be in flight together, and numbering
/// their posts in phase 1 would start both from the same base.
#[allow(clippy::too_many_arguments)]
fn finish_stream(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    key: &WaveKey,
    parent_env: &Envelope,
    completes: bool,
    posts: Vec<TokenBox>,
) -> Result<(), DpsError> {
    let gnode = shared.defs[w.app as usize][graph as usize].node(node);
    let Some(wave) = w.inst.waves.get_mut(key) else {
        return Err(DpsError::OperationContract {
            node: gnode.name.clone(),
            reason: "stream wave was completed twice".into(),
        });
    };
    let flow_key = (node.0, wave.out_wave());
    let close = {
        let g = &shared.apps[w.app as usize].graphs[graph as usize];
        let mut flows = g.flows.lock();
        let f = flows.entry(flow_key).or_insert_with(|| MtFlow {
            flow: Flow::stream(),
            src_node: w.node,
        });
        wave.append(&mut f.flow, gnode, parent_env, posts, completes)?
    };
    if let Some((close_env, total)) = close {
        send_close(shared, w.app, graph, close_env, total);
    }
    pump_flow(shared, w.app, graph, flow_key);
    Ok(())
}

fn handle_call(
    shared: &Arc<Shared>,
    w: &mut Worker,
    graph: u32,
    node: GNodeId,
    token: TokenBox,
    env: Envelope,
) -> Result<(), DpsError> {
    let def = &shared.defs[w.app as usize][graph as usize];
    let service = def
        .node(node)
        .service
        .clone()
        .expect("call nodes carry a service name");
    let Some(&(t_app, t_graph)) = shared.services.get(&service) else {
        return Err(DpsError::UnknownService { name: service });
    };
    let call_id = shared.call_counter.fetch_add(1, Ordering::Relaxed);
    let (ret, callee_env) = kernel::call(call_id, w.app, graph, node, env);
    shared.pending_calls.lock().insert(call_id, ret);
    let entry = shared.defs[t_app as usize][t_graph as usize].entry();
    route_and_send(shared, t_app, t_graph, entry, w.node, token, callee_env);
    Ok(())
}

/// `DpsError::NodeDown` for work bound to dead cluster node `node` at graph
/// node `target`.
fn node_down(shared: &Shared, node: u32, target: &str) -> DpsError {
    DpsError::NodeDown {
        node: shared.node_name(node),
        target: target.to_string(),
    }
}

/// Send a wave-close to the thread its wave is pinned on, or park it until
/// the wave has one (kernel rule 6).
fn send_close(shared: &Arc<Shared>, app: u32, graph: u32, close_env: Envelope, total: u32) {
    let key = close_env
        .wave_key()
        .expect("close envelopes carry the wave frame");
    let def = &shared.defs[app as usize][graph as usize];
    let merge_node = match kernel::close_node(def, &key) {
        Ok(n) => n,
        Err(e) => return send_error(shared, app, e),
    };
    let gnode = def.node(merge_node);
    let shared_tc = &shared.apps[app as usize].tcs[gnode.tc as usize];
    let alive = |t: u32| !shared.node_dead(shared_tc.nodes[t as usize]);
    // Tombstones remove the pins of the waves they held state for, so a pin
    // still on a dead node is a fresh wave's.
    let to = shared.apps[app as usize].graphs[graph as usize]
        .pins
        .lock()
        .close(&key, total, alive, || true);
    match to {
        Ok(CloseTo::Deliver(thread)) => shared_tc.enqueue(
            thread as usize,
            Msg::Close {
                graph,
                node: merge_node,
                env: close_env,
                total,
            },
        ),
        Ok(CloseTo::Parked) => {}
        Err(dead) => {
            let e = node_down(shared, shared_tc.nodes[dead as usize], &gnode.name);
            send_error(shared, app, e)
        }
    }
}

/// A token leaves node `from` of `graph`: on to its successor, out as a
/// graph output, or back into the calling graph (kernel rule 5).
fn emit(
    shared: &Arc<Shared>,
    mut app: u32,
    mut graph: u32,
    mut from: GNodeId,
    src_node: u32,
    token: TokenBox,
    mut env: Envelope,
) {
    loop {
        let def = &shared.defs[app as usize][graph as usize];
        let returns = |id: u64| shared.pending_calls.lock().get(&id).cloned();
        match kernel::exit(def, from, token.as_ref(), &env, returns) {
            Ok(Exit::To(next)) => {
                return route_and_send(shared, app, graph, next, src_node, token, env)
            }
            Ok(Exit::Return(ret)) => {
                (app, graph, from, env) = (ret.app, ret.graph, ret.node, ret.env)
            }
            Ok(Exit::Output) => {
                let _ = shared.output_tx.send(Output { app, graph, token });
                return;
            }
            Err(e) => return send_error(shared, app, e),
        }
    }
}

fn route_and_send(
    shared: &Arc<Shared>,
    app: u32,
    graph: u32,
    to: GNodeId,
    src_node: u32,
    token: TokenBox,
    env: Envelope,
) {
    let def = &shared.defs[app as usize][graph as usize];
    let gnode = def.node(to);
    let g = &shared.apps[app as usize].graphs[graph as usize];
    let shared_tc = &shared.apps[app as usize].tcs[gnode.tc as usize];
    let thread_count = shared_tc.senders.len();
    // Live per-thread backlog: load-balancing routes on real OS threads see
    // the same signal shape as on the simulator. Single-thread collections
    // (masters, merge homes) skip the snapshot — routing there is forced.
    let load = (thread_count > 1).then(|| shared_tc.load_snapshot(&shared.dead));
    let info = RouteInfo {
        thread_count,
        load: load.as_deref(),
    };
    let routed = g.routes[to.0 as usize].route(token.as_ref(), &info, &gnode.name);
    let mut thread = match routed {
        Ok(i) => i as u32,
        Err(e) => {
            send_error(shared, app, e);
            return;
        }
    };
    if matches!(gnode.kind, OpKind::Merge | OpKind::Stream) {
        let key = env.wave_key().expect("validated: merges are under a split");
        let alive = |t: u32| !shared.node_dead(shared_tc.nodes[t as usize]);
        // A pin still on a dead node is a fresh wave's (see `send_close`).
        let pin = g.pins.lock().route(&key, thread, alive, || true);
        match pin {
            Ok(Routed::Follow(pinned)) => thread = pinned,
            Ok(Routed::Pinned { parked: None }) => {}
            Ok(Routed::Pinned {
                parked: Some(total),
            }) => {
                // A close got ahead of the wave's first token: it goes to
                // the wave's new home ahead of that token.
                let mut close_env = env.clone();
                if let Some(f) = close_env.frames.last_mut() {
                    f.total = Some(total);
                }
                let close = Msg::Close {
                    graph,
                    node: to,
                    env: close_env,
                    total,
                };
                shared_tc.enqueue(thread as usize, close);
            }
            Err(dead) => {
                let e = node_down(shared, shared_tc.nodes[dead as usize], &gnode.name);
                return send_error(shared, app, e);
            }
        }
    }
    let dst_node = shared_tc.nodes[thread as usize];
    if shared.node_dead(dst_node) {
        // The route insisted on a dead thread (stateful affinity, or the
        // whole collection is down): the work cannot be re-queued.
        return send_error(shared, app, node_down(shared, dst_node, &gnode.name));
    }
    let token = if shared.enforce_serialization && src_node != dst_node {
        match wire_roundtrip(token.as_ref(), &shared.registries[app as usize]) {
            Ok(t) => t,
            Err(e) => {
                send_error(shared, app, e);
                return;
            }
        }
    } else {
        token
    };
    shared_tc.enqueue(
        thread as usize,
        Msg::Deliver {
            graph,
            node: to,
            token,
            env,
        },
    );
}

/// Release the pending posts of flow `key` (its producing node, its wave)
/// that the window admits, and drop the flow once it is drained.
fn pump_flow(shared: &Arc<Shared>, app: u32, graph: u32, key: (u32, u64)) {
    let g = &shared.apps[app as usize].graphs[graph as usize];
    loop {
        let (token, env, src_node) = {
            let mut flows = g.flows.lock();
            let Some(f) = flows.get_mut(&key) else {
                return;
            };
            let Some((token, env)) = f.flow.pop(shared.flow_window) else {
                if f.flow.is_drained() {
                    flows.remove(&key);
                }
                return;
            };
            (token, env, f.src_node)
        };
        emit(shared, app, graph, GNodeId(key.0), src_node, token, env);
    }
}

/// A merge consumed one token of flow `key`: return a credit.
fn credit_flow(shared: &Arc<Shared>, app: u32, graph: u32, key: (u32, u64)) {
    {
        let g = &shared.apps[app as usize].graphs[graph as usize];
        let mut flows = g.flows.lock();
        let Some(f) = flows.get_mut(&key) else {
            return;
        };
        f.flow.credit();
    }
    pump_flow(shared, app, graph, key);
}
