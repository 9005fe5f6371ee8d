//! Worker threads: one OS thread per DPS thread, driving operations from a
//! token queue — the paper's macro data flow execution.
//!
//! The path of a token between two operations is `dps_core`'s kernel
//! driver. This file is its [`Substrate`] on OS threads — channels, atomic
//! counters, one mutex per table (and one word in front of the pin table's,
//! so a token following its wave takes none), a wall clock and one trace
//! writer per worker — the worker loop, and the seam of a thread that
//! another engine serves: on the engine that routes, [`Forward`] takes its
//! arrivals there and [`Replies`] applies what comes back; on the engine
//! that serves it, [`Serving`] takes them in and [`Answers`] sends back
//! what the thread's own worker loop made of each.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dps_sched::FeedbackSink;

use crossbeam::channel::{Receiver, Sender};
use crossbeam::utils::CachePadded;
use dps_core::internal::kernel::{
    self, Arrival, At, CallReturn, Death, Flow, FlowKey, Flows, IdMap, Instances, On, Pins, Rec,
    Routed, Sent, Serve, Substrate, Then, Tracer,
};
use dps_core::internal::{Carried, DynRoute, ExecInfo, OpOutput};
use dps_core::{Decls, DpsError, Envelope, GNodeId, OpKind, RouteInfo, Token, TokenBox, WaveKey};
use dps_obs::{Counter, EventKind, Gauge, TraceCollector};
use dps_serial::impl_wire_enum;
use parking_lot::Mutex;

/// Message to a worker thread.
pub(crate) enum Msg {
    /// A token to process at a node of a graph of the receiving thread's
    /// application (`At` less the `app`: the queues of a token-bound run
    /// hold one of these per token), or the close of a wave consumed there;
    /// with a traced token's flow.
    Arrive(u32, GNodeId, Arrival, Envelope, Sent),
    /// An arrival another engine forwarded, to be served here and answered
    /// there ([`Serving`]), or in its place why its data object could not be
    /// taken in. Boxed: it is rare beside `Arrive`, and a wider message would
    /// widen every queue slot of a token-bound run.
    Served(Box<Result<Foreign, String>>),
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
    fn count(&self, thread: usize) {
        let depth = self.queued[thread].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(m) = &self.metrics {
            m.add(Counter::TokensEnqueued, 1);
            m.gauge_max(Gauge::QueueDepthPeak, depth as u64);
        }
    }

    fn enqueue(&self, thread: usize, msg: Msg) {
        self.count(thread);
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

/// The wave most recently pinned or followed in one graph and the thread it
/// is pinned on, in one word: what the pin table last answered, kept in
/// front of its mutex so the 2nd…n-th token of a wave asks no table.
///
/// A wave is named by its id alone: every id a graph of this engine sees was
/// issued by the engine's one `wave_counter`, never twice. The word is set
/// only under the graph's `pins` mutex, to what [`Pins::route`] just said,
/// and cleared — by whoever removes that wave's pin, or kills a node —
/// without it; a reader trusts it only while the thread's node is up, which
/// is the one way a pin changes under a live wave (rule 6). `Release` stores
/// pair with the reader's `Acquire` load; the word publishes nothing but
/// itself.
pub(crate) struct Followed(CachePadded<AtomicU64>);

impl Followed {
    const THREAD_BITS: u32 = 16;
    const NONE: u64 = u64::MAX;

    pub(crate) fn new() -> Self {
        Followed(CachePadded::new(AtomicU64::new(Self::NONE)))
    }

    /// `(wave, thread)` as one word, or `None` for a pair that does not fit
    /// (such a wave is simply never cached).
    fn pack(wave: u64, thread: u32) -> Option<u64> {
        let fits = wave < Self::NONE >> Self::THREAD_BITS && thread >> Self::THREAD_BITS == 0;
        let word = fits.then_some(wave << Self::THREAD_BITS | u64::from(thread))?;
        debug_assert_eq!(Self::unpack(word), Some((wave, thread)));
        Some(word)
    }

    fn unpack(word: u64) -> Option<(u64, u32)> {
        let thread = (word & ((1 << Self::THREAD_BITS) - 1)) as u32;
        (word != Self::NONE).then_some((word >> Self::THREAD_BITS, thread))
    }

    /// The thread `wave` was last seen pinned on, if it is the wave noted.
    fn thread_of(&self, wave: u64) -> Option<u32> {
        let (noted, thread) = Self::unpack(self.0.load(Ordering::Acquire))?;
        (noted == wave).then_some(thread)
    }

    /// The pin table just said `wave` is pinned on `thread`. Call with the
    /// table's mutex held.
    fn note(&self, wave: u64, thread: u32) {
        if let Some(word) = Self::pack(wave, thread) {
            self.0.store(word, Ordering::Release);
        }
    }

    /// The pin of `wave` is being removed: forget it if it is the one noted.
    fn forget(&self, wave: u64) {
        let word = self.0.load(Ordering::Acquire);
        if Self::unpack(word).is_some_and(|(noted, _)| noted == wave) {
            // Lost to a newer note: that one is right.
            let _ =
                (self.0).compare_exchange(word, Self::NONE, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    /// A node died: whatever is noted goes back through the table once.
    pub(crate) fn reset(&self) {
        self.0.store(Self::NONE, Ordering::Release);
    }
}

pub(crate) struct SharedGraph {
    pub routes: Vec<RouteCell>,
    /// Which thread each live wave consumes on, and the wave totals still
    /// waiting for their wave to get one: the two change together.
    pub pins: Mutex<Pins>,
    /// The last `Follow` / `Pinned` answer of `pins`, on a line of its own.
    pub followed: Followed,
    pub flows: Mutex<IdMap<FlowKey, Flow<Carried>>>,
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
    pub wave_counter: CachePadded<AtomicU64>,
    /// What left a graph, or a runtime error: one channel, so the run
    /// meets them in the order they happened.
    pub output_tx: Sender<Result<Output, DpsError>>,
    /// Chunk-completion reports (wall-clock) go here, if registered — the
    /// dynamic loop-scheduling feedback channel (`dps-sched`).
    pub feedback: Option<Arc<dyn FeedbackSink>>,
    /// The one cluster node served here and how this engine meets the
    /// others; `None`: every node is served here.
    pub seam: Option<(u32, Seam)>,
    /// Attached trace sink (wall-clock timestamps); each worker thread
    /// registers its own writer at startup ([`TRACER`]).
    pub trace: Option<Arc<TraceCollector>>,
    /// The tracer of the threads that run no worker, taken under its lock:
    /// the driver's `submit` records the start of its token's flow here.
    pub outside: Option<Mutex<Tracer>>,
    /// One flag per cluster node: `fail_node` marks a node dead here and
    /// its workers turn into tombstones (they keep draining their queues,
    /// re-routing stranded work, so no message is ever lost to a closed
    /// channel).
    pub dead: Vec<AtomicBool>,
    /// Everything above but `wave_counter` is only read while tokens move
    /// (`dead`, `decls` and `apps` by every delivery). What a run writes
    /// once per graph call or per worker sits together on lines of its own,
    /// so such a write never takes a line those reads hit.
    pub rare: CachePadded<Rare>,
}

/// The rarely written part of [`Shared`].
#[derive(Default)]
pub(crate) struct Rare {
    pub call_counter: AtomicU64,
    pub pending_calls: Mutex<IdMap<u64, CallReturn>>,
    /// Collections that have actually reported to the feedback sink —
    /// `fail_node` translates a dead node into *these* collections' thread
    /// indices for `FeedbackSink::worker_lost` (an unrelated collection on
    /// the dead node must not wipe a live worker sharing a thread index).
    /// Each worker notes its collection once, ahead of its first report.
    pub feedback_tcs: Mutex<Vec<(u32, u32)>>,
}

impl Shared {
    /// True when cluster node `node` was killed by `fail_node`.
    pub(crate) fn node_dead(&self, node: u32) -> bool {
        self.dead
            .get(node as usize)
            .is_some_and(|d| d.load(Ordering::Acquire))
    }

    pub(crate) fn served_elsewhere(&self, node: u32) -> bool {
        self.seam.as_ref().is_some_and(|(here, _)| *here != node)
    }

    pub(crate) fn queued(&self, app: u32, tc: u32, thread: u32) -> &AtomicU32 {
        &self.apps[app as usize].tcs[tc as usize].queued[thread as usize]
    }

    /// The first thread of node `node`, by `(app, tc, thread)`, that was
    /// sent data objects it has not answered, and how many.
    pub(crate) fn owed(&self, node: u32) -> Option<((u32, u32, u32), u32)> {
        let d = &self.decls;
        let threads = (0..).zip(d.apps()).flat_map(|(app, a)| {
            (0..).zip(&a.tcs).flat_map(move |(tc, c)| {
                let hosted = (0..).zip(&c.nodes).filter(move |&(_, &host)| host == node);
                hosted.map(move |(thread, _)| (app, tc, thread))
            })
        });
        threads.into_iter().find_map(|(app, tc, thread)| {
            let n = self.queued(app, tc, thread).load(Ordering::Relaxed);
            (n > 0).then_some(((app, tc, thread), n))
        })
    }

    /// A message of thread `(app, tc, thread)` is fully processed: it leaves
    /// the thread's backlog (the live load signal routing functions read).
    pub(crate) fn retire(&self, (app, tc, thread): (u32, u32, u32)) {
        self.queued(app, tc, thread).fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    /// The tracer of the worker this thread runs, when a sink is attached:
    /// one SPSC ring, through which a token the worker sends also has its
    /// flow's start recorded, in order.
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Per-worker mutable state: a DPS thread as the kernel's hooks see it, on
/// its OS thread or, served elsewhere, in [`Replies`].
pub(crate) struct Worker {
    app: u32,
    tc: u32,
    thread: u32,
    node: u32,
    /// Its trace track: its node, and its index among that node's threads.
    track: (u16, u16),
    data: Box<dyn Any + Send>,
    /// This thread's op instances and the waves it consumes (none for a
    /// thread another process serves: they live there).
    inst: Instances,
    /// The operation whose posts the kernel is applying, timed.
    span: Option<Span>,
    /// This thread's collection is in `feedback_tcs`.
    reports: bool,
}

/// When an operation started and, if it ran here, how long it took — the
/// one reading the trace and the feedback sink share (taken only when one of
/// them is attached, its end only when a trace is or the operation marked a
/// chunk).
struct Span {
    t0: Instant,
    took: Option<Duration>,
}

impl Worker {
    fn new(shared: &Shared, (app, tc, thread): (u32, u32, u32), data: Box<dyn Any + Send>) -> Self {
        let node = shared.decls.host(app, tc, thread);
        let index = shared.decls.node_thread(app, tc, thread);
        Worker {
            app,
            tc,
            thread,
            node,
            track: (node as u16, index as u16),
            data,
            inst: Instances::default(),
            span: None,
            reports: false,
        }
    }

    /// The feedback sink, for a chunk report under this thread's index —
    /// measured here or by the process serving the thread. Its collection
    /// is noted for `fail_node` (kernel rule 8) ahead of the first one.
    fn sink<'a>(&mut self, shared: &'a Shared) -> Option<&'a dyn FeedbackSink> {
        let sink = shared.feedback.as_deref()?;
        if !std::mem::replace(&mut self.reports, true) {
            kernel::note_reporter(&mut shared.rare.feedback_tcs.lock(), self.app, self.tc);
        }
        Some(sink)
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
    let _ = shared.output_tx.send(Err(e));
}

/// Inject a token into a graph entry from outside (the run driver).
pub(crate) fn inject(mut shared: &Shared, app: u32, graph: u32, token: Carried, src_node: u32) {
    let node = shared.decls.def(app, graph).entry();
    let entry = At { app, graph, node };
    kernel::deliver(&mut shared, entry, src_node, token, Envelope::root());
}

/// The worker main loop: [`kernel::serve`] on each message, then what it
/// calls for — the operation runs here and [`kernel::then`] applies its
/// posts, or a call is made.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    app: u32,
    tc: u32,
    thread: u32,
    data: Box<dyn Any + Send>,
    rx: Receiver<Msg>,
) {
    let mut shared: &Shared = &shared;
    let mut w = Worker::new(shared, (app, tc, thread), data);
    let node = w.node;
    TRACER.set(shared.trace.clone().map(|c| Tracer::new(c, w.track)));
    let info = ExecInfo::wall_clock(thread as usize, shared.decls.threads(app, tc));
    // What the operations this thread runs post, reused from run to run.
    let mut out = OpOutput::default();
    loop {
        // The senders of `shared`, which this thread holds, include the one
        // of its own channel.
        let msg = rx.recv().expect("a worker's channel outlives it");
        if shared.node_dead(node) {
            match tombstone(shared, &mut w, msg) {
                true => continue,
                false => break,
            }
        }
        let (at, what, env) = match msg {
            Msg::Stop => break,
            Msg::Fail => unreachable!("a wake-up is sent once the node is dead"),
            Msg::Served(served) => {
                answer(shared, &mut w, info, &mut out, *served);
                shared.retire((app, tc, thread));
                continue;
            }
            Msg::Arrive(graph, node, what, env, sent) => {
                if let Arrival::Token(token) = &what {
                    kernel::taken(&shared, &mut w, &**token, &env, sent);
                }
                (At { app, graph, node }, what, env)
            }
        };
        let out_wave = || shared.wave_counter.fetch_add(1, Ordering::Relaxed);
        let done = match kernel::serve(&shared.decls, &mut w.inst, at, what, env, out_wave) {
            Ok(Serve::Run(ready, then)) => {
                let data = w.data.as_mut();
                let timed = (shared.trace.is_some(), shared.feedback.is_some());
                run_here(timed, &mut w.span, || {
                    ready
                        .run(data, info, &mut out)
                        .map(|()| out.completed_iters)
                })
                // A post's virtual-time offset means nothing on the wall
                // clock. A wide split's buffer becomes its flow's queue.
                .and_then(|marked| match out.take_wide() {
                    Some(wide) => {
                        let posts: Vec<Carried> = wide.into_iter().map(|p| p.token).collect();
                        kernel::then(&mut shared, &mut w, then, node, posts, marked)
                    }
                    None => {
                        let posts = out.posts.drain(..).map(|p| p.token);
                        kernel::then(&mut shared, &mut w, then, node, posts, marked)
                    }
                })
                .map(drop)
            }
            Ok(Serve::Call(at, env, token)) => call(shared, at, env, token, node),
            Ok(Serve::Wait) => Ok(()),
            Err(e) => Err(e),
        };
        if let Err(e) = done {
            send_error(shared, app, e);
        }
        shared.retire((app, tc, thread));
    }
}

/// A token reached call node `at`, under `env`, on cluster node `node`:
/// make the call and deliver the token to the callee's entry.
fn call(mut s: &Shared, at: At, env: Envelope, token: Carried, node: u32) -> Result<(), DpsError> {
    let (entry, callee_env) = kernel::call(&mut s, at, env)?;
    kernel::deliver(&mut s, entry, node, token, callee_env);
    Ok(())
}

/// `msg` reached a thread whose node was killed: the thread is a tombstone,
/// which stays on its channel so a late send never hits a closed one. The
/// kernel takes its waves (the first time; none is noted before a pin table
/// after that) and what `msg` carries. `false` once `msg` is `Stop`.
#[cold]
fn tombstone(mut shared: &Shared, w: &mut Worker, msg: Msg) -> bool {
    let lane = std::mem::take(&mut w.inst);
    for (key, wave) in &lane.waves {
        let g = &shared.apps[w.app as usize].graphs[wave.graph as usize];
        g.followed.forget(key.wave);
    }
    let (app, lanes, from) = (w.app, vec![(w.app, w.thread, lane)], w.node);
    let stop = matches!(msg, Msg::Stop);
    // A wake-up is sent raw: it is not counted in the backlog. (A serving
    // engine's node is never killed: its arrivals die with the process.)
    let counted = matches!(msg, Msg::Arrive(..) | Msg::Served(_));
    let stranded = match msg {
        Msg::Arrive(graph, node, what, env, _) => vec![(At { app, graph, node }, what, env)],
        Msg::Served(_) | Msg::Fail | Msg::Stop => Vec::new(),
    };
    kernel::bury(&mut shared, Death::Lane(w), lanes, stranded, from);
    if counted {
        shared.retire((w.app, w.tc, w.thread));
    }
    !stop
}

/// Run the operation [`kernel::serve`] picked, here, and time it for the
/// kernel if anything reads the time: `(traced, sink)` says whether a trace
/// and a feedback sink are attached. With neither, the clock is not read;
/// with a sink alone, the end is read only for an operation that marked a
/// chunk. `run` returns the chunk it marked complete, if any.
fn run_here(
    (traced, sink): (bool, bool),
    span: &mut Option<Span>,
    run: impl FnOnce() -> Result<Option<u64>, DpsError>,
) -> Result<Option<u64>, DpsError> {
    let t0 = (traced || sink).then(Instant::now);
    let marked = run()?;
    *span = t0.map(|t0| {
        let took = (traced || marked.is_some()).then(|| t0.elapsed());
        Span { t0, took }
    });
    Ok(marked)
}

/// Serve an arrival another engine forwarded ([`Serving`]) as a local one
/// is served — [`kernel::taken`], [`kernel::serve`], the operation — but
/// answer it through the [`Answers`] hook where a local one has
/// [`kernel::then`] apply its posts: the operation's span is recorded here,
/// a completed wave's record dropped here, and a close that waits is not
/// answered. An operation that marks a chunk is always timed, since the
/// engine that applies the answer feeds its feedback sink the seconds. A
/// data object that could not be taken in, and an arrival for a graph node
/// this engine has not declared, are answered `Failed` unserved, in their
/// turn. Kept out of line: an engine that routes never takes this arm of
/// the worker loop, whose body stays what it was for a local arrival.
#[inline(never)]
fn answer(
    shared: &Shared,
    w: &mut Worker,
    info: ExecInfo,
    out: &mut OpOutput,
    served: Result<Foreign, String>,
) {
    let Some((_, Seam::Answer(hook))) = &shared.seam else {
        unreachable!("only a serving engine is handed arrivals");
    };
    let lane = (w.app, w.tc, w.thread);
    let a = match served {
        Ok(a) => a,
        Err(error) => {
            let failed = Reply::Failed { token: true, error };
            return hook.answer(lane, failed, Vec::new(), &[]);
        }
    };
    let (at, token) = (a.to, matches!(a.what, Arrival::Token(_)));
    let app = shared.decls.apps().get(at.app as usize);
    let def = app.and_then(|app| app.graphs.get(at.graph as usize));
    if def.is_none_or(|def| def.nodes().len() <= at.node.0 as usize) {
        return hook.answer(lane, undeclared(token), Vec::new(), &[]);
    }
    if let Arrival::Token(tok) = &a.what {
        kernel::taken(&shared, w, &**tok, &a.env, a.sent);
    }
    let wave = kernel::env_wave(&a.env);
    let served = kernel::serve(&shared.decls, &mut w.inst, at, a.what, a.env, || a.out_wave);
    let failed = |e: DpsError| {
        let error = e.to_string();
        (Reply::Failed { token, error }, Vec::new(), None)
    };
    let (reply, posts, report) = match served {
        Ok(Serve::Run(ready, then)) => {
            let data = w.data.as_mut();
            let timed = (shared.trace.is_some(), true);
            let ran = run_here(timed, &mut w.span, || {
                ready.run(data, info, out).map(|()| out.completed_iters)
            });
            match ran {
                Ok(marked) => {
                    if let Some(key) = then.completed() {
                        w.inst.waves.remove(key);
                    }
                    let name = &shared.decls.def(at.app, at.graph).node(at.node).name;
                    shared.trace(On::Lane(w), |rec| kernel::ran(rec, at, name, wave, marked));
                    let took = w.span.as_ref().and_then(|s| s.took);
                    let report = marked.zip(took).map(|(iters, t)| (iters, t.as_secs_f64()));
                    let posts = out.posts.drain(..).map(|p| p.token).collect();
                    (Reply::Ran { then }, posts, report)
                }
                Err(e) => failed(e),
            }
        }
        Ok(Serve::Call(at, env, token)) => (Reply::Call { at, env }, vec![token], None),
        Ok(Serve::Wait) => return,
        Err(e) => failed(e),
    };
    hook.answer(lane, reply, posts, report.as_slice());
}

/// An arrival for thread `thread` of collection `tc`, which the process of
/// cluster node `node` serves, as [`Forward`] is handed it and [`Serving`]
/// takes it in.
pub struct Foreign {
    /// Where it arrives.
    pub to: At,
    /// `to`'s collection.
    pub tc: u32,
    /// The thread within it.
    pub thread: u32,
    /// The node serving the thread.
    pub node: u32,
    /// A data object, or a wave's close.
    pub what: Arrival,
    /// The envelope it travels under.
    pub env: Envelope,
    /// A traced token's flow, whose delivery the serving process records.
    pub sent: Sent,
    /// At a stream, a fresh id from this engine's one wave counter: the one
    /// a wave the arrival enters there has its posts travel under (else 0).
    pub out_wave: u64,
}

/// What the process serving a thread answers one of its arrivals with: what
/// [`kernel::serve`] made of it there ([`Replies::apply`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The operation ran: its posts are applied as `then` says.
    Ran {
        /// The step, from `serve`.
        then: Then,
    },
    /// The token reached call node `at` under `env`: the call is made here,
    /// with the token as the one post.
    Call {
        /// The call node.
        at: At,
        /// The envelope of the call.
        env: Envelope,
    },
    /// It failed there with `error`.
    Failed {
        /// It was a data object, not a close.
        token: bool,
        /// The error, as it reads.
        error: String,
    },
}

impl_wire_enum!(Reply {
    0 => Ran { then },
    1 => Call { at, env },
    2 => Failed { token, error },
});

/// Takes an arrival for a thread of another node to the process serving it
/// ([`MtEngine::set_forward`](crate::MtEngine::set_forward)), which serves
/// a thread's arrivals in order and answers each but a close that waits, in
/// order, with a [`Reply`] for this engine's [`Replies`] (an engine there
/// does so through [`Serving`] and [`Answers`]).
pub trait Forward: Send + Sync {
    /// Send `arrival` on its way; an error fails the run.
    fn forward(&self, arrival: Foreign) -> Result<(), DpsError>;
}

/// Takes what a thread this engine serves for another answers each of its
/// arrivals with ([`MtEngine::serve_for`](crate::MtEngine::serve_for)), in
/// the order the thread served them: what that engine's [`Replies::apply`]
/// takes.
pub trait Answers: Send + Sync {
    /// Thread `lane`, `(app, tc, thread)`, answers `reply`, with the data
    /// objects its operation posted, in post order (a call's: its token),
    /// and the `(iters, secs)` of the chunk it completed.
    fn answer(
        &self,
        lane: (u32, u32, u32),
        reply: Reply,
        posts: Vec<Carried>,
        reports: &[(u64, f64)],
    );
}

/// How an engine that serves one cluster node meets those serving the
/// others.
#[derive(Clone)]
pub(crate) enum Seam {
    /// It routes: an arrival for a thread of another node goes to the hook.
    Forward(Arc<dyn Forward>),
    /// It serves its node for an engine that routes, and answers there.
    Answer(Arc<dyn Answers>),
}

/// Where the arrivals another engine forwards to the threads this one serves
/// come in ([`MtEngine::serve_for`](crate::MtEngine::serve_for)).
#[derive(Clone)]
pub struct Serving {
    pub(crate) shared: Arc<Shared>,
}

impl Serving {
    /// What the engine runs, frozen for the run.
    pub fn decls(&self) -> &Arc<Decls> {
        &self.shared.decls
    }

    /// The attached trace sink, if any.
    pub fn trace_collector(&self) -> Option<&Arc<TraceCollector>> {
        self.shared.trace.as_ref()
    }

    /// Serve `arrival` on its thread's worker, behind the arrivals handed in
    /// before it. One for a thread or graph node this engine has not
    /// declared on its node — the two engines' declarations diverged, or the
    /// wire lied — is answered `Failed` unserved.
    pub fn arrive(&self, arrival: Foreign) {
        let lane = (arrival.to.app, arrival.tc, arrival.thread);
        self.queue(lane, Ok(arrival));
    }

    /// Answer a data object for thread `lane`, `(app, tc, thread)`, that
    /// could not be taken in — its token did not decode — `Failed` with
    /// `error`, behind the arrivals handed in before it.
    pub fn refuse(&self, lane: (u32, u32, u32), error: String) {
        self.queue(lane, Err(error));
    }

    /// Queue `served` on thread `lane`'s worker, if this engine serves that
    /// thread; answer it at once, `Failed`, if not.
    fn queue(&self, (app, tc, thread): (u32, u32, u32), served: Result<Foreign, String>) {
        let s = &self.shared;
        let Some((here, Seam::Answer(hook))) = &s.seam else {
            unreachable!("a serving engine's seam answers");
        };
        let app_decl = s.decls.apps().get(app as usize);
        let host = app_decl.and_then(|a| a.tcs.get(tc as usize)?.nodes.get(thread as usize));
        if host == Some(here) {
            let queues = &s.apps[app as usize].tcs[tc as usize];
            return queues.enqueue(thread as usize, Msg::Served(Box::new(served)));
        }
        let reply = match served {
            Ok(a) => undeclared(matches!(a.what, Arrival::Token(_))),
            Err(error) => Reply::Failed { token: true, error },
        };
        hook.answer((app, tc, thread), reply, Vec::new(), &[]);
    }
}

/// The answer to an arrival for a thread or graph node the serving engine
/// has not declared.
fn undeclared(token: bool) -> Reply {
    let error = "an arrival for an undeclared thread (SPMD declarations diverged)".into();
    Reply::Failed { token, error }
}

/// Hand `arrival` to `hook`. A data object stays in its thread's backlog
/// until its reply is applied ([`Replies`]), so load-aware routes see what
/// the serving process holds; a close is not counted.
fn forward(shared: &Shared, hook: &dyn Forward, arrival: Foreign) {
    let (to, tc, thread) = (arrival.to, arrival.tc, arrival.thread);
    let token = matches!(arrival.what, Arrival::Token(_));
    if token {
        shared.apps[to.app as usize].tcs[tc as usize].count(thread as usize);
        // Paired with `fail_node`'s: it counts this token, or the check below
        // sees the node dead.
        fence(Ordering::SeqCst);
    }
    let sent = match shared.node_dead(arrival.node) {
        true => Err(kernel::node_down(&shared, to, tc, thread)),
        false => hook.forward(arrival),
    };
    if let Err(e) = sent {
        if token {
            shared.retire((to.app, tc, thread));
        }
        send_error(shared, to.app, e);
    }
}

/// What the process serving one node's threads answers ([`Reply`]), applied
/// in the order it comes. From [`MtEngine::replies`](crate::MtEngine::replies).
pub struct Replies {
    pub(crate) shared: Arc<Shared>,
    pub(crate) node: u32,
    /// The threads answered so far, as the kernel's hooks see them.
    pub(crate) lanes: IdMap<(u32, u32, u32), Worker>,
}

impl Replies {
    /// What the engine runs, frozen for the run.
    pub fn decls(&self) -> &Arc<Decls> {
        &self.shared.decls
    }

    /// Apply what thread `lane`, `(app, tc, thread)`, answered: `reply`, its
    /// posts (decoded, or why not), the `(iters, secs)` of the chunks it
    /// completed. A data object it answers leaves the thread's backlog.
    pub fn apply(
        &mut self,
        lane: (u32, u32, u32),
        reply: Reply,
        posts: Result<Vec<TokenBox>, DpsError>,
        reports: &[(u64, f64)],
    ) {
        let mut shared: &Shared = &self.shared;
        let token = match &reply {
            Reply::Ran { then } => then.took_token(),
            Reply::Call { .. } => true,
            Reply::Failed { token, .. } => *token,
        };
        let contract = |reason| DpsError::OperationContract {
            node: shared.decls.node_name(self.node).to_string(),
            reason,
        };
        let failed = match (reply, posts) {
            (Reply::Ran { then }, Ok(posts)) => {
                let w = self.lanes.entry(lane).or_insert_with(|| {
                    // This OS thread records under a tracer of its own, whose
                    // track no DPS thread has (so its flow ids are its own);
                    // a lane's events go on the lane's track.
                    TRACER.with_borrow_mut(|t| {
                        let track = (u16::MAX, self.node as u16);
                        let own = || shared.trace.clone().map(|c| Tracer::new(c, track));
                        *t = t.take().or_else(own);
                    });
                    Worker::new(shared, lane, Box::new(()))
                });
                if let (false, Some(sink)) = (reports.is_empty(), w.sink(shared)) {
                    sink.report_batch(w.thread as usize, reports);
                }
                let posts = posts.into_iter().map(Carried::from_box);
                kernel::then(&mut shared, w, then, self.node, posts, None).err()
            }
            (Reply::Call { at, env }, Ok(mut posts)) if posts.len() == 1 => {
                let token = Carried::from_box(posts.remove(0));
                call(shared, at, env, token, self.node).err()
            }
            (Reply::Failed { error, .. }, _) => Some(contract(error)),
            (_, Err(e)) => Some(e),
            (Reply::Call { .. }, Ok(_)) => Some(contract("a call came without its token".into())),
        };
        if let Some(e) = failed {
            send_error(shared, lane.0, e);
        }
        if token {
            shared.retire(lane);
        }
    }

    /// The run fails with `e`, for application `app`.
    pub fn fail(&self, app: u32, e: DpsError) {
        send_error(&self.shared, app, e);
    }

    /// A data object sent to a thread of the node is still unanswered.
    pub fn owed(&self) -> bool {
        self.shared.owed(self.node).is_some()
    }
}

/// The kernel's substrate on OS threads. Everything shared is behind
/// `&Shared`: a table is locked for the kernel call alone — the pin table not
/// at all for a token that follows the wave noted in [`Followed`] — and a
/// move is a channel send with no lock held.
impl Substrate for &Shared {
    type Post = Carried;
    type FlowExt = ();
    type Lane = Worker;

    fn decls(&self) -> &Decls {
        &self.decls
    }

    fn node_up(&self, node: u32) -> bool {
        !self.node_dead(node)
    }

    /// The live per-thread backlog.
    fn load(&self, app: u32, tc: u32, load: &mut [u32]) {
        let hosts = &self.decls.apps()[app as usize].tcs[tc as usize].nodes;
        let queued = &self.apps[app as usize].tcs[tc as usize].queued;
        for (slot, (q, &n)) in load.iter_mut().zip(queued.iter().zip(hosts)) {
            *slot = match self.node_dead(n) {
                true => u32::MAX,
                false => q.load(Ordering::Relaxed),
            };
        }
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
        let id = self.rare.call_counter.fetch_add(1, Ordering::Relaxed);
        self.rare.pending_calls.lock().insert(id, ret);
        id
    }

    fn call_return(&self, id: u64) -> Option<CallReturn> {
        self.rare.pending_calls.lock().get(&id).cloned()
    }

    fn pins<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Pins) -> R) -> R {
        f(&mut self.apps[app as usize].graphs[graph as usize].pins.lock())
    }

    fn flows<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Flows<Self>) -> R) -> R {
        f(&mut self.apps[app as usize].graphs[graph as usize].flows.lock())
    }

    /// The wave noted in front of the table is followed without the table's
    /// lock while its thread's node is up; anything else — another wave, a
    /// new one, a dead pin — asks the table, and what it says is noted.
    fn pin(&self, to: At, tc: u32, key: &WaveKey, routed: u32) -> Routed {
        let g = &self.apps[to.app as usize].graphs[to.graph as usize];
        let up = |t: &u32| !self.node_dead(self.decls.host(to.app, tc, *t));
        if let Some(thread) = g.followed.thread_of(key.wave).filter(up) {
            return Routed::Follow(thread);
        }
        let mut pins = g.pins.lock();
        let answer = kernel::route_pin(self, &mut pins, to, tc, key, routed);
        match answer {
            Routed::Follow(thread) => g.followed.note(key.wave, thread),
            Routed::Pinned { .. } => g.followed.note(key.wave, routed),
        }
        answer
    }

    /// A thread served here is sent the message on its channel; one another
    /// process serves, through the [`Forward`] hook.
    fn send(&mut self, to: At, thread: u32, _src: u32, what: Arrival, env: Envelope, sent: Sent) {
        let gnode = self.decls.def(to.app, to.graph).node(to.node);
        let tc = gnode.tc;
        if let Some((_, Seam::Forward(hook))) = &self.seam {
            let node = self.decls.host(to.app, tc, thread);
            if self.served_elsewhere(node) {
                let out_wave = match gnode.kind {
                    OpKind::Stream => self.wave_counter.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
                let arrival = Foreign {
                    to,
                    tc,
                    thread,
                    node,
                    what,
                    env,
                    sent,
                    out_wave,
                };
                return forward(self, hook.as_ref(), arrival);
            }
        }
        let msg = Msg::Arrive(to.graph, to.node, what, env, sent);
        self.apps[to.app as usize].tcs[tc as usize].enqueue(thread as usize, msg);
    }

    /// One lock of the flow table for a credit and the release it admits.
    fn next_post(
        &mut self,
        app: u32,
        graph: u32,
        key: FlowKey,
        credit: bool,
    ) -> Option<(Carried, Envelope, u32)> {
        let mut flows = self.apps[app as usize].graphs[graph as usize].flows.lock();
        let f = flows.get_mut(&key)?;
        if credit {
            f.credit();
        }
        let Some((token, env)) = f.pop(self.flow_window) else {
            if f.is_drained() {
                flows.remove(&key);
            }
            return None;
        };
        Some((token, env, f.src))
    }

    fn leave(&mut self, post: Carried, from: At, src: u32, env: Envelope) {
        kernel::emit(self, from, src, post, env);
    }

    /// The token leaves in a box: the one it came in, or a new one.
    fn output(&mut self, app: u32, graph: u32, token: Carried) {
        let token = token.into_box();
        let _ = self.output_tx.send(Ok(Output { app, graph, token }));
    }

    fn fail(&mut self, app: u32, e: DpsError) {
        send_error(self, app, e);
    }

    /// The chunk's wall-clock execution time goes to the feedback sink (a
    /// remote host's reports come back with its posts).
    fn report(&mut self, w: &mut Worker, iters: u64) {
        let (Some(took), Some(sink)) = (w.span.as_ref().and_then(|s| s.took), w.sink(self)) else {
            return;
        };
        sink.report_chunk(w.thread as usize, iters, took.as_secs_f64());
        let (worker, nanos) = (w.thread, took.as_nanos() as u64);
        TRACER.with_borrow_mut(|t| {
            let Some(t) = t else { return };
            let at = t.collector().now_nanos();
            let report = EventKind::ChunkReport {
                worker,
                iters,
                nanos,
            };
            t.writer().record(at, report);
            t.collector().metrics().add(Counter::ChunkReports, 1);
        });
    }

    /// Wall-clock stamps, and the writer of the worker this thread runs —
    /// a token a worker sends has its flow's start recorded on its own ring
    /// — or of the [`Replies`] it applies, or, on any other thread, the
    /// `outside` one. A lane's events go on its DPS thread's track.
    fn trace<R>(&self, on: On<'_, Worker>, f: impl FnOnce(Rec<'_>) -> R) -> Option<R> {
        let c = self.trace.as_ref()?;
        let now = c.now_nanos();
        TRACER.with_borrow_mut(|own| {
            let mut outside = self
                .outside
                .as_ref()
                .filter(|_| own.is_none())
                .map(|t| t.lock());
            let tracer = own.as_mut().or(outside.as_deref_mut())?;
            Some(f(match on {
                On::Node(node) => Rec::at(tracer, (node as u16, 0), now),
                On::Lane(Worker {
                    span:
                        Some(Span {
                            t0,
                            took: Some(took),
                        }),
                    track,
                    ..
                }) => {
                    let start = c.stamp(*t0);
                    Rec::at(tracer, *track, now).op(start, start + took.as_nanos() as u64)
                }
                On::Lane(w) => Rec::at(tracer, w.track, now),
            }))
        })
    }

    fn opened(&mut self, _w: &mut Worker, _at: At) -> u64 {
        self.wave_counter.fetch_add(1, Ordering::Relaxed)
    }

    fn wave_done(&mut self, w: &mut Worker, at: At, key: &WaveKey) {
        w.inst.waves.remove(key);
        let g = &self.apps[at.app as usize].graphs[at.graph as usize];
        g.followed.forget(key.wave);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MtEngine;
    use dps_core::prelude::*;
    use dps_core::sched::{ChunkRoute, ChunkWorker, CollectChunks, IterRange, ScheduledSplit};
    use dps_core::{Calls, Engine, Frames};

    dps_token! { pub struct Job { pub n: u32 } }
    dps_token! { pub struct Piece { pub i: u32 } }

    struct Fan;
    impl SplitOperation for Fan {
        type Thread = ();
        type In = Job;
        type Out = Piece;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, j: Job) {
            (0..j.n).for_each(|i| ctx.post(Piece { i }));
        }
    }
    #[derive(Default)]
    struct Count(u32);
    impl MergeOperation for Count {
        type Thread = ();
        type In = Piece;
        type Out = Job;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Job>, _p: Piece) {
            self.0 += 1;
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Job>) {
            ctx.post(Job { n: self.0 });
        }
    }

    /// A started two-node engine over split (node0) → merge on `node0 node1`,
    /// and where a token of wave `wave` asks for its pin.
    struct Rig {
        eng: MtEngine,
        shared: Arc<Shared>,
        graph: GraphHandle,
        merge: At,
        tc: u32,
    }

    impl Rig {
        fn new() -> Self {
            let mut eng = MtEngine::new(2);
            let app = eng.app("pins");
            let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
            let sinks: ThreadCollection<()> =
                eng.thread_collection(app, "s", "node0 node1").unwrap();
            let mut b = GraphBuilder::new("pins");
            let split = b.split(&main, || ToThread(0), || Fan);
            let merge = b.merge(&sinks, LeastLoaded::new, Count::default);
            b.add(split >> merge);
            let graph = eng.build_graph(b).unwrap();
            let shared = eng.started();
            let merge = At {
                app: graph.app,
                graph: graph.graph,
                node: GNodeId(1),
            };
            let tc = shared.decls.def(merge.app, merge.graph).node(merge.node).tc;
            Rig {
                eng,
                shared,
                graph,
                merge,
                tc,
            }
        }

        fn key(wave: u64) -> WaveKey {
            WaveKey {
                src: GNodeId(0),
                wave,
                parents: Frames::new(),
                calls: Calls::default(),
            }
        }

        /// A token of `wave` that its route sent to `routed` asks for its pin.
        fn pin(&self, wave: u64, routed: u32) -> Routed {
            let shared: &Shared = &self.shared;
            shared.pin(self.merge, self.tc, &Self::key(wave), routed)
        }

        fn g(&self) -> &SharedGraph {
            &self.shared.apps[self.merge.app as usize].graphs[self.merge.graph as usize]
        }
    }

    /// Forwards every piece but the last of a `Job { n: 4 }`.
    struct DropLast;
    impl StreamOperation for DropLast {
        type Thread = ();
        type In = Piece;
        type Out = Piece;
        fn consume(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
            if p.i != 3 {
                ctx.post(p);
            }
        }
        fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Piece>) {}
    }

    /// Where an engine that routes forwards, and one that serves answers.
    struct To<T>(Mutex<std::sync::mpsc::Sender<T>>);
    impl Forward for To<Foreign> {
        fn forward(&self, arrival: Foreign) -> dps_core::Result<()> {
            self.0.lock().send(arrival).unwrap();
            Ok(())
        }
    }
    type Answer = ((u32, u32, u32), Reply, Vec<Carried>, Vec<(u64, f64)>);
    impl Answers for To<Answer> {
        fn answer(&self, lane: (u32, u32, u32), r: Reply, p: Vec<Carried>, t: &[(u64, f64)]) {
            self.0.lock().send((lane, r, p, t.to_vec())).unwrap();
        }
    }

    /// The thread that serves a merge for another engine drops the record of
    /// the wave it completed: three consumes open it, and the close that
    /// finalizes it leaves the thread's instances with no wave. (The test
    /// serves the arrivals on a worker of its own over the serving engine.)
    #[test]
    fn a_served_wave_is_dropped_where_it_completed() {
        let declare = |eng: &mut MtEngine| {
            let app = eng.app("served");
            let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
            let far: ThreadCollection<()> = eng.thread_collection(app, "f", "node1").unwrap();
            let mut b = GraphBuilder::new("g");
            let split = b.split(&main, || ToThread(0), || Fan);
            let drop = b.stream(&main, || ToThread(0), || DropLast);
            let merge = b.merge(&far, || ToThread(0), Count::default);
            b.add(split >> drop >> merge);
            eng.build_graph(b).unwrap()
        };
        let (mut eng, mut far) = (MtEngine::new(2), MtEngine::new(2));
        let (fwd, arrivals) = std::sync::mpsc::channel();
        eng.set_forward(0, Arc::new(To(Mutex::new(fwd))));
        let g = declare(&mut eng);
        declare(&mut far);
        let (back, answers) = std::sync::mpsc::channel();
        let serving = far.serve_for(1, Arc::new(To(Mutex::new(back))));
        eng.submit(g, Box::new(Job { n: 4 })).unwrap();
        let patience = Duration::from_secs(60);
        let arrived: Vec<Foreign> = (0..4)
            .map(|_| arrivals.recv_timeout(patience).unwrap())
            .collect();
        assert!(
            matches!(arrived[3].what, Arrival::Close(3)),
            "the close came last"
        );

        let shared = &serving.shared;
        let lane = (g.app, arrived[0].tc, 0);
        let mut w = Worker::new(shared, lane, Box::new(()));
        let (info, mut out) = (ExecInfo::wall_clock(0, 1), OpOutput::default());
        for (i, a) in arrived.into_iter().enumerate() {
            answer(shared, &mut w, info, &mut out, Ok(a));
            assert_eq!(w.inst.waves.is_empty(), i == 3, "after arrival {i}");
        }
        let mut replies = eng.replies(1);
        for _ in 0..4 {
            let (lane, reply, posts, reports) = answers.recv_timeout(patience).unwrap();
            let posts = posts.into_iter().map(Carried::into_box).collect();
            replies.apply(lane, reply, Ok(posts), &reports);
        }
        eng.run_to_idle(g, 1).unwrap();
        let out = eng.take_outputs(g).pop().unwrap();
        assert_eq!(downcast::<Job>(out).unwrap().n, 3);
        eng.shutdown();
        far.shutdown();
    }

    /// A queue slot is one `Msg`, and a token-bound run queues tens of
    /// thousands at once: a forwarded arrival, boxed, keeps a slot the width
    /// of a local one, whose envelope is 32 bytes.
    #[test]
    fn a_message_is_88_bytes() {
        assert_eq!(std::mem::size_of::<Msg>(), 88);
    }

    #[test]
    fn the_word_holds_what_fits_and_nothing_else() {
        let f = Followed::new();
        assert_eq!(f.thread_of(0), None);
        f.note(0, 3);
        assert_eq!(f.thread_of(0), Some(3));
        assert_eq!(f.thread_of(1), None);
        // A wave id or a thread index too wide for the word is not noted —
        // and does not disturb what is.
        for (wave, thread) in [
            (1 << 48, 0),
            (u64::MAX, 0),
            (u64::MAX >> 16, 0xffff),
            (7, 1 << 16),
        ] {
            f.note(wave, thread);
            assert_eq!(f.thread_of(wave), None, "{wave:#x} {thread:#x}");
            assert_eq!(f.thread_of(0), Some(3));
        }
        let widest = (u64::MAX >> 16) - 1;
        f.note(widest, 0xffff);
        assert_eq!(f.thread_of(widest), Some(0xffff));
        f.forget(0);
        assert_eq!(f.thread_of(widest), Some(0xffff), "another wave's removal");
        f.forget(widest);
        assert_eq!(f.thread_of(widest), None);
    }

    /// (a) The 2nd…n-th token of a wave takes no lock: with the pin table's
    /// mutex held by this thread, a locking lookup would never return.
    #[test]
    fn a_followed_wave_is_answered_with_the_pin_table_locked() {
        let rig = Rig::new();
        assert_eq!(rig.pin(1, 1), Routed::Pinned { parked: None });
        let held = rig.g().pins.lock();
        assert_eq!(rig.pin(1, 0), Routed::Follow(1));
        assert_eq!(rig.pin(1, 1), Routed::Follow(1));
        drop(held);
    }

    /// (b) Another wave, and a wave whose pin was removed, ask the table.
    #[test]
    fn another_wave_and_a_removed_one_ask_the_table() {
        let mut rig = Rig::new();
        assert_eq!(rig.pin(1, 1), Routed::Pinned { parked: None });
        assert_eq!(rig.pin(2, 0), Routed::Pinned { parked: None });
        // The table has both; the word has the later one, and wave 1's next
        // token is a miss that the table answers.
        assert_eq!(rig.g().followed.thread_of(1), None);
        assert_eq!(rig.pin(1, 0), Routed::Follow(1));
        assert_eq!(rig.g().followed.thread_of(1), Some(1));

        // Wave 1 completes on its thread: `wave_done`, then the kernel's
        // removal of the pin. A token of that id (there is none in a real
        // run) would find neither the word nor the table.
        let mut shared: &Shared = &rig.shared;
        let mut lane = Worker::new(shared, (rig.merge.app, rig.tc, 1), Box::new(()));
        shared.wave_done(&mut lane, rig.merge, &Rig::key(1));
        shared.pins(rig.merge.app, rig.merge.graph, |p| p.remove(&Rig::key(1)));
        assert_eq!(rig.g().followed.thread_of(1), None);
        assert_eq!(rig.pin(1, 0), Routed::Pinned { parked: None });
        rig.eng.shutdown();
    }

    /// (b) The pinned thread's node dies before the wave consumed anything:
    /// the word is not honoured, the table re-pins the wave on the thread the
    /// route picked, and the tokens after that follow it *there*.
    #[test]
    fn a_dead_pin_is_never_followed() {
        let mut rig = Rig::new();
        assert_eq!(rig.pin(1, 1), Routed::Pinned { parked: None });
        assert_eq!(rig.pin(1, 0), Routed::Follow(1));
        let fail = rig.eng.fail_handle();
        fail.fail_node(1).unwrap();
        assert_eq!(rig.g().followed.thread_of(1), None, "dropped by fail_node");
        assert_eq!(rig.pin(1, 0), Routed::Pinned { parked: None });
        for routed in [1, 0, 1] {
            assert_eq!(rig.pin(1, routed), Routed::Follow(0));
        }
        // Even a note that names the tombstone (one set by a delivery that
        // looked the thread up just before the node died) is refused.
        rig.g().followed.note(1, 1);
        assert_eq!(rig.pin(1, 0), Routed::Follow(0));
        assert_eq!(rig.g().followed.thread_of(1), Some(0));
    }

    /// (c) The word belongs to one graph of one engine: a second engine in
    /// the process that issues the same wave id sees nothing of it.
    #[test]
    fn two_engines_do_not_share_a_word() {
        let (a, b) = (Rig::new(), Rig::new());
        assert_eq!(a.pin(1, 1), Routed::Pinned { parked: None });
        assert_eq!(b.g().followed.thread_of(1), None);
        assert_eq!(b.pin(1, 0), Routed::Pinned { parked: None });
        assert_eq!(a.pin(1, 0), Routed::Follow(1));
        assert_eq!(b.pin(1, 1), Routed::Follow(0));
    }

    /// A whole run leaves the word empty, as it leaves the tables.
    #[test]
    fn a_completed_run_forgets_its_waves() {
        let mut rig = Rig::new();
        for n in [1, 5, 64] {
            rig.eng.submit(rig.graph, Box::new(Job { n })).unwrap();
            rig.eng.run_to_idle(rig.graph, 1).unwrap();
            let out = rig.eng.take_outputs(rig.graph).pop().unwrap();
            assert_eq!(downcast::<Job>(out).unwrap().n, n);
        }
        // An output leaves ahead of its wave's removal: join the threads.
        rig.eng.shutdown();
        assert!(rig.g().pins.lock().is_empty());
        assert_eq!(rig.g().followed.0.load(Ordering::Acquire), Followed::NONE);
    }

    /// What the feedback sink was told, per report.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(usize, u64, f64)>>);
    impl FeedbackSink for Recorder {
        fn report_chunk(&self, worker: usize, iters: u64, secs: f64) {
            self.0.lock().push((worker, iters, secs));
        }
    }

    /// One reading of the clock per chunk: the duration on the trace is the
    /// duration the sink was given. And a worker notes its collection once.
    #[test]
    fn the_trace_and_the_sink_see_one_duration_per_chunk() {
        const CHUNKS: u64 = 200;
        let mut eng = MtEngine::new(2);
        let (sink, trace) = (Arc::new(Recorder::default()), TraceCollector::new());
        eng.set_feedback_sink(sink.clone());
        eng.set_trace_sink(trace.clone());
        let app = eng.app("dls");
        let master: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
        let workers: ThreadCollection<()> = eng.thread_collection(app, "w", "node0 node1").unwrap();
        let hub = eng.chunk_hub();
        let mut b = GraphBuilder::new("dls");
        let split_hub = hub.clone();
        let split = b.split(
            &master,
            || ToThread(0),
            move || ScheduledSplit::new(dps_sched::PolicyKind::Ss, 2, split_hub.clone()),
        );
        let work = b.leaf(&workers, ChunkRoute::new, move || {
            ChunkWorker::uniform(1.0, hub.clone())
        });
        let merge = b.merge(&master, || ToThread(0), CollectChunks::default);
        b.add(split >> work >> merge);
        let g = eng.build_graph(b).unwrap();
        let range = IterRange {
            start: 0,
            len: CHUNKS,
            step: 0,
        };
        eng.submit(g, Box::new(range)).unwrap();
        eng.run_to_idle(g, 1).unwrap();
        let shared = eng.started();
        // The workers are the application's second collection.
        assert_eq!(*shared.rare.feedback_tcs.lock(), [(app.app, 1)]);
        eng.shutdown();

        let mut told: Vec<(u32, u64)> = sink
            .0
            .lock()
            .iter()
            .map(|r| (r.0 as u32, (r.2 * 1e9).round() as u64))
            .collect();
        let mut traced: Vec<(u32, u64)> = trace
            .take_log()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChunkReport { worker, nanos, .. } => Some((worker, nanos)),
                _ => None,
            })
            .collect();
        assert_eq!(told.len() as u64, CHUNKS);
        assert_eq!(traced.len() as u64, CHUNKS);
        told.sort_unstable();
        traced.sort_unstable();
        for (told, traced) in told.iter().zip(&traced) {
            assert_eq!(told.0, traced.0);
            assert!(
                told.1.abs_diff(traced.1) <= 1,
                "sink {told:?}, trace {traced:?}"
            );
        }
    }
}
