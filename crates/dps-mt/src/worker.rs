//! Worker threads: one OS thread per DPS thread, driving operations from a
//! token queue — the paper's macro data flow execution.
//!
//! The path of a token between two operations is `dps_core`'s kernel
//! driver. This file is its [`Substrate`] on OS threads — channels, atomic
//! counters, one mutex per table, wall-clock tracing — and the worker loop
//! with its two-phase remote pipeline.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dps_sched::FeedbackSink;

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use crossbeam::utils::CachePadded;
use dps_core::internal::kernel::{
    self, Arrival, At, CallReturn, Flow, FlowKey, Flows, Instances, Pins, Served, Substrate, Wave,
    WaveStep,
};
use dps_core::internal::{DynRoute, ExecInfo};
use dps_core::{Decls, DpsError, Envelope, GNodeId, OpKind, RouteInfo, Token, TokenBox, WaveKey};
use dps_obs::{Counter, EventKind, Gauge, TraceCollector, TraceWriter};
use parking_lot::Mutex;

use crate::remote::{remote_for, RemoteExec, RemoteKind, RemotePending, RemoteTask};

/// Message to a worker thread.
pub(crate) enum Msg {
    /// A token to process at a node of a graph of the receiving thread's
    /// application (`At` less the `app`: the queues of a token-bound run
    /// hold one of these per token), or the close of a wave consumed there.
    Arrive(u32, GNodeId, Arrival, Envelope),
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
    pub flows: Mutex<HashMap<FlowKey, Flow<TokenBox>>>,
}

pub(crate) struct SharedApp {
    pub tcs: Vec<SharedTc>,
    pub graphs: Vec<SharedGraph>,
}

pub(crate) struct Shared {
    pub flow_window: u32,
    pub enforce_serialization: bool,
    /// The running half of `decls`, same shape: queues per collection,
    /// routes and tables per graph.
    pub apps: Vec<SharedApp>,
    /// What was declared, frozen for the run.
    pub decls: Arc<Decls>,
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
}

/// Per-worker mutable state.
pub(crate) struct Worker {
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
    /// The operation that just ran *here*, from phase 1 until the kernel
    /// has its span recorded; `None` for one the remote host ran and timed.
    span: Option<Span>,
}

/// A local operation's wall-clock start and the wave it is traced under.
struct Span {
    t0: Instant,
    t0n: Option<u64>,
    wave: u32,
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
    let name = shared.decls.app_name(app);
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
pub(crate) fn inject(mut shared: &Shared, app: u32, graph: u32, token: TokenBox, src_node: u32) {
    let node = shared.decls.def(app, graph).entry();
    let entry = At { app, graph, node };
    kernel::deliver(&mut shared, entry, src_node, token, Envelope::root());
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
    Exec { at: At, env: Envelope },
    /// One step of a merge/stream wave.
    Wave(WaveStep),
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
    let mut shared: &Shared = &shared;
    let node = shared.decls.host(app, tc, thread);
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
        span: None,
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
                finish_oldest(shared, &mut w, &mut inflight);
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
            finish_all(shared, &mut w, &mut inflight);
            dead = true;
            abandon_waves(shared, &mut w);
        }
        let (at, what, env) = match msg {
            Msg::Stop => {
                stopped = true;
                break;
            }
            // A bare wakeup (sent raw, not counted in the backlog): the
            // dead-set re-check above did the work.
            Msg::Fail => continue,
            Msg::Arrive(graph, node, what, env) => (At { app, graph, node }, what, env),
        };
        let kind = shared.decls.def(app, at.graph).node(at.node).kind;
        let begun = match (what, kind) {
            // Stranded on a tombstone: back to the router, which sees this
            // node's threads at infinite load.
            (what, _) if dead => {
                kernel::reroute(&mut shared, at, node, what, env);
                Ok(Begun::Finished)
            }
            (Arrival::Token(token), OpKind::Split | OpKind::Leaf) => {
                begin_exec(shared, &mut w, &mut inflight, at, token, env)
            }
            (Arrival::Token(token), OpKind::Call | OpKind::CallSplit) => {
                // A call has no remote half: it goes out behind the posts
                // of everything shipped before it.
                finish_all(shared, &mut w, &mut inflight);
                kernel::call(&mut shared, at, env).map(|(entry, callee_env)| {
                    kernel::deliver(&mut shared, entry, node, token, callee_env);
                    Begun::Finished
                })
            }
            (what, _) => begin_wave(shared, &mut w, &mut inflight, at, env, what),
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
            Err(e) => send_error(shared, app, e),
        }
        retire(shared, &w);
    }
    // Stop, or the channel died: every reply still owed is consumed first.
    finish_all(shared, &mut w, &mut inflight);
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
fn finish_oldest(shared: &Shared, w: &mut Worker, inflight: &mut InFlight) {
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
fn finish_all(shared: &Shared, w: &mut Worker, inflight: &mut InFlight) {
    while !inflight.is_empty() {
        finish_oldest(shared, w, inflight);
    }
}

/// A worker whose node was killed enters tombstone mode: every wave this
/// thread had heard of is unrecoverable (its op instance and counts die
/// here) and surfaces as [`DpsError::NodeDown`]; its pin is removed, so what
/// is still pinned on a dead node afterwards is a wave nothing was consumed
/// of — the one kind that can move (kernel rule 6).
fn abandon_waves(shared: &Shared, w: &mut Worker) {
    let inst = std::mem::take(&mut w.inst);
    for (key, wave) in inst.waves {
        let target = shared.decls.def(w.app, wave.graph).node(wave.node);
        let g = &shared.apps[w.app as usize].graphs[wave.graph as usize];
        g.pins.lock().remove(&key);
        let down = DpsError::NodeDown {
            node: shared.decls.node_name(w.node).to_string(),
            target: target.name.clone(),
        };
        send_error(shared, w.app, down);
    }
}

/// Apply remotely-measured chunk completions to the master's feedback sink
/// under the executing thread's index — the distributed counterpart of
/// `Substrate::report` (the remote host measured the wall-clock time).
fn apply_reports(shared: &Shared, app: u32, tc: u32, thread: u32, reports: &[(u64, f64)]) {
    if let (false, Some(sink)) = (reports.is_empty(), shared.feedback.as_ref()) {
        kernel::note_reporter(&mut shared.feedback_tcs.lock(), app, tc);
        sink.report_batch(thread as usize, reports);
    }
}

fn exec_info(shared: &Shared, w: &Worker) -> ExecInfo {
    ExecInfo {
        thread_index: w.thread as usize,
        thread_count: shared.decls.threads(w.app, w.tc),
        // Wall-clock engine: charges don't advance a clock, but cost models
        // calling charge_flops see the calibrated host rate.
        node_flops: shared.node_flops,
        start_nanos: 0,
    }
}

/// Run the operation `served` picks, here, and note its span for the kernel
/// to record (`env_wave`: the wave it is traced under).
fn run_here(
    shared: &Shared,
    span: &mut Option<Span>,
    env_wave: u32,
    run: impl FnOnce() -> Result<dps_core::internal::OpOutput, DpsError>,
) -> Result<(Vec<TokenBox>, Option<u64>), DpsError> {
    let started = Span {
        t0n: shared.trace.as_ref().map(|c| c.now_nanos()),
        t0: Instant::now(),
        wave: env_wave,
    };
    let out = run()?;
    *span = Some(started);
    let posts = out.posts.into_iter().map(|p| p.token).collect();
    Ok((posts, out.completed_iters))
}

/// Phase 1 of a split/leaf delivery: ship the operation, or run it and go
/// straight on to phase 2.
fn begin_exec(
    mut shared: &Shared,
    w: &mut Worker,
    inflight: &mut InFlight,
    at: At,
    token: TokenBox,
    env: Envelope,
) -> Result<Begun, DpsError> {
    if let Some(r) = &w.remote {
        let pending = r.begin(RemoteTask {
            app: w.app,
            tc: w.tc,
            thread: w.thread,
            graph: at.graph,
            node: at.node,
            kind: RemoteKind::Exec,
            token: Some(token),
            env: env.clone(),
        });
        inflight.push_back((pending, Cont::Exec { at, env }));
        return Ok(Begun::InFlight);
    }
    let gnode = shared.decls.def(w.app, at.graph).node(at.node);
    let info = exec_info(shared, w);
    let env_wave = env.frames.last().map_or(0, |f| f.wave as u32);
    let slot = Served::Node(&mut w.inst, (at.graph, at.node.0));
    let data = w.data.as_mut();
    let (posts, marked) = run_here(shared, &mut w.span, env_wave, || {
        kernel::step(slot, gnode, Some(token), false, data, info)
    })?;
    kernel::after_exec(&mut shared, w, at, w.node, env, posts, marked)?;
    Ok(Begun::Finished)
}

/// Phase 1 of a merge/stream delivery: account for what arrived (kernel
/// rule 1), then ship the step it calls for — a consume, with the finalize
/// if it completes the wave; for a close, the finalize alone, once every
/// data object was consumed — or run it and go straight on to phase 2.
fn begin_wave(
    mut shared: &Shared,
    w: &mut Worker,
    inflight: &mut InFlight,
    at: At,
    env: Envelope,
    arrival: Arrival,
) -> Result<Begun, DpsError> {
    let gnode = shared.decls.def(w.app, at.graph).node(at.node);
    let info = exec_info(shared, w);
    let key = env.wave_key().expect("validated depth >= 1");
    let wave = w.inst.waves.entry(key.clone()).or_insert_with(|| {
        let out_wave = shared.wave_counter.fetch_add(1, Ordering::Relaxed);
        Wave::new(at.graph, at.node, out_wave)
    });
    // The remote side re-derives the wave identity from the envelope, so it
    // is sent the frame `arrive` pops.
    let task_env = w.remote.is_some().then(|| env.clone());
    // The wave stays in the table until phase 2 removes it.
    let Some((token, step)) = wave.arrive(at, w.node, &gnode.name, arrival, env, key)? else {
        // The finalize waits for the remaining data objects.
        return Ok(Begun::Finished);
    };
    let completes = step.completes;
    if let (Some(r), Some(env)) = (&w.remote, task_env) {
        let kind = match step.consumed {
            true => RemoteKind::Consume { completes },
            false => RemoteKind::Finalize,
        };
        let pending = r.begin(RemoteTask {
            app: w.app,
            tc: w.tc,
            thread: w.thread,
            graph: at.graph,
            node: at.node,
            kind,
            token,
            env,
        });
        inflight.push_back((pending, Cont::Wave(step)));
        return Ok(Begun::InFlight);
    }
    let data = w.data.as_mut();
    let (posts, marked) = run_here(shared, &mut w.span, step.key.wave as u32, || {
        kernel::step(Served::Wave(wave), gnode, token, completes, data, info)
    })?;
    kernel::after_wave(&mut shared, w, step, posts, marked)?;
    Ok(Begun::Finished)
}

/// Phase 2 of a shipped operation: apply the posts it came back with. The
/// numbering of a stream's posts advances here and nowhere else — two
/// consumes of one wave can be in flight together.
fn finish(
    mut shared: &Shared,
    w: &mut Worker,
    cont: Cont,
    posts: Vec<TokenBox>,
) -> Result<(), DpsError> {
    match cont {
        Cont::Exec { at, env } => {
            kernel::after_exec(&mut shared, w, at, w.node, env, posts, None).map(drop)
        }
        Cont::Wave(step) => kernel::after_wave(&mut shared, w, step, posts, None),
    }
}

/// The kernel's substrate on OS threads. Everything shared is behind
/// `&Shared`: a table is locked for the kernel call alone, and a move is a
/// channel send with no lock held.
impl Substrate for &Shared {
    type Post = TokenBox;
    type FlowExt = ();
    type Lane = Worker;

    fn decls(&self) -> &Decls {
        &self.decls
    }

    fn node_up(&self, node: u32) -> bool {
        !self.node_dead(node)
    }

    /// The live per-thread backlog.
    fn load(&self, app: u32, tc: u32) -> Vec<u32> {
        let hosts = &self.decls.apps()[app as usize].tcs[tc as usize].nodes;
        let backlog = |(q, &n): (&CachePadded<AtomicU32>, &u32)| match self.node_dead(n) {
            true => u32::MAX,
            false => q.load(Ordering::Relaxed),
        };
        let queued = &self.apps[app as usize].tcs[tc as usize].queued;
        queued.iter().zip(hosts).map(backlog).collect()
    }

    fn route(
        &mut self,
        to: At,
        token: &dyn Token,
        info: &RouteInfo<'_>,
    ) -> dps_core::Result<usize> {
        let name = &self.decls.def(to.app, to.graph).node(to.node).name;
        let g = &self.apps[to.app as usize].graphs[to.graph as usize];
        g.routes[to.node.0 as usize].route(token, info, name)
    }

    fn enforce_serialization(&self) -> bool {
        self.enforce_serialization
    }

    fn remember_call(&mut self, ret: CallReturn) -> u64 {
        let id = self.call_counter.fetch_add(1, Ordering::Relaxed);
        self.pending_calls.lock().insert(id, ret);
        id
    }

    fn call_return(&self, id: u64) -> Option<CallReturn> {
        self.pending_calls.lock().get(&id).cloned()
    }

    fn pins<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Pins) -> R) -> R {
        f(&mut self.apps[app as usize].graphs[graph as usize].pins.lock())
    }

    fn flows<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Flows<Self>) -> R) -> R {
        f(&mut self.apps[app as usize].graphs[graph as usize].flows.lock())
    }

    /// Tombstones raise `NodeDown` for the waves they held state for and
    /// remove their pins, so a pin still on a dead node is a fresh wave's.
    fn fresh(&self, _app: u32, _graph: u32, _key: &WaveKey) -> bool {
        true
    }

    /// The wave's record is entered by the thread that consumes it.
    fn pinned(&mut self, _: At, _: WaveKey, parked: Option<u32>) -> dps_core::Result<Option<u32>> {
        Ok(parked)
    }

    fn send(&mut self, to: At, thread: u32, _src: u32, what: Arrival, env: Envelope) {
        let tc = self.decls.def(to.app, to.graph).node(to.node).tc;
        let msg = Msg::Arrive(to.graph, to.node, what, env);
        self.apps[to.app as usize].tcs[tc as usize].enqueue(thread as usize, msg);
    }

    fn next_post(
        &mut self,
        app: u32,
        graph: u32,
        key: FlowKey,
    ) -> Option<(TokenBox, Envelope, u32)> {
        let mut flows = self.apps[app as usize].graphs[graph as usize].flows.lock();
        let f = flows.get_mut(&key)?;
        let Some((token, env)) = f.pop(self.flow_window) else {
            if f.is_drained() {
                flows.remove(&key);
            }
            return None;
        };
        Some((token, env, f.src))
    }

    fn leave(&mut self, post: TokenBox, from: At, src: u32, env: Envelope) {
        kernel::emit(self, from, src, post, env);
    }

    fn output(&mut self, app: u32, graph: u32, token: TokenBox) {
        let _ = self.output_tx.send(Output { app, graph, token });
    }

    fn fail(&mut self, app: u32, e: DpsError) {
        send_error(self, app, e);
    }

    /// The wall-clock execution time of the chunk goes to the registered
    /// feedback sink — the real-thread half of the dynamic loop-scheduling
    /// feedback channel. (A remote host's reports come back with its posts.)
    fn report(&mut self, w: &mut Worker, iters: u64) {
        let Some(started) = w.span.as_ref().map(|span| span.t0) else {
            return;
        };
        let nanos = started.elapsed().as_nanos() as u64;
        w.trace(self, EventKind::ChunkExec { iters, nanos });
        if let Some(sink) = self.feedback.as_ref() {
            kernel::note_reporter(&mut self.feedback_tcs.lock(), w.app, w.tc);
            sink.report_chunk(w.thread as usize, iters, started.elapsed().as_secs_f64());
            let worker = w.thread;
            w.trace(
                self,
                EventKind::ChunkReport {
                    worker,
                    iters,
                    nanos,
                },
            );
            if let Some(c) = &self.trace {
                c.metrics().add(Counter::ChunkReports, 1);
            }
        }
    }

    fn span(&mut self, w: &mut Worker, at: At) {
        let Some(span) = w.span.take() else {
            return;
        };
        if let (Some(start), Some(c), Some(wtr)) = (span.t0n, &self.trace, &mut w.trace) {
            let op = c.label(&self.decls.def(at.app, at.graph).node(at.node).name);
            let wave = span.wave;
            wtr.record(start, EventKind::OpStart { op, wave });
            wtr.record(c.now_nanos(), EventKind::OpEnd { op, wave });
        }
    }

    fn opened(&mut self, w: &mut Worker, at: At) -> u64 {
        let id = self.wave_counter.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.trace {
            let (graph, wave) = (c.label(self.decls.def(at.app, at.graph).name()), id as u32);
            w.trace(self, EventKind::WaveStart { graph, wave });
        }
        id
    }

    fn wave_done(&mut self, w: &mut Worker, at: At, key: &WaveKey) {
        if let Some(c) = &self.trace {
            let graph = c.label(self.decls.def(at.app, at.graph).name());
            let wave = key.wave as u32;
            w.trace(self, EventKind::WaveEnd { graph, wave });
            c.drain();
        }
        w.inst.waves.remove(key);
    }
}
