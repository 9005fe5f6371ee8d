//! The network engine: one master kernel plus worker kernels, every process
//! running the same SPMD driver.
//!
//! Every rank holds an [`MtEngine`] and declares on it. The master's routes
//! every token, pins every wave, holds every flow and its credits, makes the
//! service calls, and serves cluster node 0's threads. An arrival for a thread of node `n` goes to worker rank `n` as a
//! [`Frame::Exec`] ([`Forward`]); the worker's engine serves node `n` for
//! the master's ([`Serving`]): the thread's own `mt` worker loop runs it and
//! answers with a [`Frame::Done`] ([`Answers`]), and one master thread per
//! rank applies those in order ([`Replies`]). Workers run the same driver
//! code: the master checks their tables' [signature](Decls::signature)
//! against its own at the sync barrier, their `submit`s are no-ops, and
//! their `run_to_idle`s block until the master's [`Frame::Release`] of the
//! run brings its outputs — so driver-side asserts after a run observe
//! identical outputs on every kernel.

use std::collections::HashMap;
use std::io;
use std::num::NonZeroU64;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dps_core::internal::kernel::{Arrival, At};
use dps_core::internal::Carried;
use dps_core::{Decls, DpsError, Engine as _, GraphHandle, Result, TokenBox};
use dps_mt::{Answers, FailHandle, Foreign, Forward, MtConfig, MtEngine, Replies, Serving};
use dps_obs::{TraceCollector, TraceLog};
use dps_sched::{ChunkHub, FeedbackSink};
use dps_serial::{Bytes, Captured, RecvTable};

use crate::exec::{Conn, HubLink, HubRouter, WireMeter};
use crate::fault::{arm_duplex, KillTx, NetKill, WireFaults};
use crate::proto::{self, send_frame, Frame, Payload, Reply, WireLog};
use crate::transport::{Duplex, FrameRx, LoopbackTransport, TcpTransport, Transport};

/// Every deadline the network engine enforces, in one place. An SPMD
/// driver builds the same [`NetEngineConfig`] on every rank, so every
/// kernel holds the same values, and every timeout error message names the
/// field that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTimeouts {
    /// Connection setup: workers connecting to the master, the master
    /// collecting every worker's declaration sync, and the per-run trace
    /// round.
    pub connect: Duration,
    /// How long a worker rank that owes a reply (a data object it was sent)
    /// may go without sending one before it is declared dead; also how long
    /// a chunk-hub operation waits for its answer.
    pub exec: Duration,
    /// Heartbeat period: the master pings every live worker this often.
    pub heartbeat_interval: Duration,
    /// Consecutive silent heartbeat intervals before a worker is declared
    /// dead. The detection budget — `heartbeat_interval ×
    /// heartbeat_misses` — must stay well under `exec`, so a dead worker
    /// is tombstoned long before an in-flight execution would time out.
    pub heartbeat_misses: u32,
}

impl Default for NetTimeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(20),
            exec: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_misses: 8,
        }
    }
}

impl NetTimeouts {
    /// The worker-death detection bound: a worker silent for this long is
    /// declared dead. Well under [`exec`](Self::exec) by default.
    pub fn detection_budget(&self) -> Duration {
        self.heartbeat_interval * self.heartbeat_misses.max(1)
    }

    /// How long a worker's `run_to_idle` waits for the master's `Release`
    /// when a master run may last `run` ([`MtConfig::run_timeout`], which
    /// bounds the master's wait for the run's outputs): one gather
    /// ([`connect`](Self::connect): the sync barrier, or the previous run's
    /// trace round), the run, and one more `connect` of margin. 70 s by
    /// default. [`exec`](Self::exec) bounds one execution, not a run.
    pub fn release(&self, run: Duration) -> Duration {
        self.connect + run + self.connect
    }
}

/// Configuration of a [`NetEngine`].
#[derive(Debug, Clone, Default)]
pub struct NetEngineConfig {
    /// Configuration of the master's embedded control-plane engine (flow
    /// window, serialization enforcement, run timeout).
    pub mt: MtConfig,
    /// Every deadline the engine enforces (see [`NetTimeouts`]).
    pub timeouts: NetTimeouts,
    /// Arguments the master passes when re-executing the current binary as
    /// worker processes. `None` re-uses this process's own arguments (the
    /// SPMD default); tests set an explicit filter so the child runs only
    /// the calling test.
    pub worker_args: Option<Vec<String>>,
    /// Deterministic wire faults (drops-as-delay, jitter, duplicates) on
    /// every master↔worker connection. SPMD: master and workers must
    /// construct the same value. `None` = clean wire.
    pub wire_faults: Option<WireFaults>,
    /// Scheduled worker kills, applied by the master (workers ignore this
    /// field). Each entry crashes one rank after a fixed number of
    /// outbound frames.
    pub kills: Vec<NetKill>,
}

/// The multi-process execution engine (see the module docs).
pub struct NetEngine {
    role: Role,
}

enum Role {
    Master(Box<Master>),
    Worker(Box<Worker>),
}

/// A worker's [`Frame::Trace`]: the run, the worker collector's clock, the
/// log.
type TraceReply = (u64, (u64, u64), TraceLog);

/// A worker's [`Frame::Release`]: the run, its error, its outputs as views
/// into the frame, and what the frame captured of the connection's buffer
/// table, which they decode against.
type Released = (u64, Option<String>, Vec<Bytes>, Captured);

/// A received [`Frame::Done`], on its way from the connection's reader to
/// the rank's reply thread: its posts are views into the frame, decoded
/// there against what the frame captured of the connection's buffer table.
struct Answer {
    lane: (u32, u32, u32),
    reply: Reply,
    posts: Vec<Bytes>,
    reports: Vec<(u64, f64)>,
    captured: Captured,
}

/// Master-side state shared with connection readers, the heartbeat monitor,
/// the reply threads and the embedded engine (as its [`Forward`] hook).
struct MasterShared {
    /// Writer of the connection to worker rank `r` at index `r - 1`.
    conns: Vec<Arc<Conn>>,
    /// Counts every frame through rank 0 once a trace sink is attached.
    meter: Arc<WireMeter>,
    /// Rank 0's chunk hub: the leases opened in this process live here.
    hub: Arc<ChunkHub>,
    /// Every [`Frame::Hub`] passes here: served from `hub`, or relayed to
    /// the worker the lease is homed at. Also `hub`'s own way to those.
    router: Arc<HubRouter>,
    /// Every deadline the engine enforces.
    timeouts: NetTimeouts,
    /// Tombstone flags: `dead[r - 1]` is set once rank `r` is declared
    /// dead (EOF, protocol corruption, or a missed heartbeat budget).
    /// Shared with `router`.
    dead: Arc<[AtomicBool]>,
    /// Liveness clock per rank: milliseconds since `epoch` of the last
    /// inbound frame, updated by the connection readers.
    last_rx: Vec<AtomicU64>,
    /// Base instant of the `last_rx` clock.
    epoch: Instant,
    /// Thread-safe tombstoning into the embedded control plane, installed
    /// at the first-run barrier (`ensure_net_ready`).
    fail: OnceLock<FailHandle>,
    /// Set at the start of a clean shutdown: connection teardown is
    /// expected from here on and must not be classified as worker death.
    closing: AtomicBool,
    /// Held while a rank is declared dead; `buried` wakes whoever waits
    /// for a death (`fail_worker`) once the burial is complete.
    burial: Mutex<()>,
    buried: Condvar,
}

impl MasterShared {
    /// Record an inbound frame from `rank` (any frame proves liveness).
    fn touch(&self, rank: u32) {
        if let Some(slot) = self.last_rx.get((rank - 1) as usize) {
            slot.store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
    }

    /// How long rank `rank` has been silent.
    fn idle(&self, rank: u32) -> Duration {
        let last = self.last_rx[(rank - 1) as usize].load(Ordering::Relaxed);
        Duration::from_millis((self.epoch.elapsed().as_millis() as u64).saturating_sub(last))
    }

    /// Has `rank` been declared dead?
    fn rank_dead(&self, rank: u32) -> bool {
        rank >= 1
            && self
                .dead
                .get((rank - 1) as usize)
                .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Declare worker `rank` dead: answer every hub operation relayed to it
    /// (its leases died with it), and tombstone its node in the embedded
    /// engine (`FailHandle::fail_node`, the kernel's kill, which fails the
    /// run `NodeDown` if the rank owed anything). Idempotent; a no-op
    /// during clean shutdown.
    fn declare_dead(&self, rank: u32, why: &str) -> bool {
        if self.closing.load(Ordering::Acquire) || rank == 0 {
            return false;
        }
        let Some(flag) = self.dead.get((rank - 1) as usize) else {
            return false;
        };
        let burial = self.burial.lock().unwrap_or_else(|e| e.into_inner());
        if flag.swap(true, Ordering::AcqRel) {
            return false;
        }
        eprintln!("dps-netengine: worker rank {rank} is down: {why}");
        // Ops parked on a claim relayed to the dead rank are answered now.
        self.router.rank_down(rank);
        if let Some(fail) = self.fail.get() {
            let _ = fail.fail_node(rank);
        }
        drop(burial);
        self.buried.notify_all();
        true
    }

    /// Wait until `rank` is declared dead, at most the detection budget.
    fn await_death(&self, rank: u32) {
        let burial = self.burial.lock().unwrap_or_else(|e| e.into_inner());
        let budget = self.timeouts.detection_budget();
        let _ = (self.buried).wait_timeout_while(burial, budget, |_| !self.rank_dead(rank));
    }
}

struct Master {
    mt: MtEngine,
    shared: Arc<MasterShared>,
    /// The `Done`s rank `r`'s reader receives, at index `r - 1`: taken by
    /// the rank's reply thread, which starts with the first run.
    dones: Vec<Receiver<Answer>>,
    /// `(rank, (signature, frame bytes))` of each worker's `Sync`.
    sync_rx: Receiver<(u32, (u64, usize))>,
    ready: bool,
    run_seq: u64,
    out_buf: HashMap<(u32, u32), Vec<TokenBox>>,
    children: Vec<Child>,
    threads: Vec<JoinHandle<()>>,
    /// Dropped at shutdown: the heartbeat monitor's wait for its next tick
    /// ends the moment the channel closes.
    hb_stop: Option<Sender<()>>,
    down: bool,
    /// The attached trace collector, driving the per-run trace round.
    trace: Option<Arc<TraceCollector>>,
    /// `Trace` replies routed from the connection readers, with the rank
    /// that sent each.
    trace_rx: Receiver<(u32, TraceReply)>,
    /// Ranks the run kills: by [`NetEngine::fail_worker`], or by a
    /// scheduled kill ([`NetEngineConfig::kills`]), which may fire at any
    /// point — including between run completion and shutdown. These ranks
    /// may die without their end counting as a worker failure.
    killed: Vec<u32>,
}

struct Worker {
    rank: u32,
    /// What this rank declares, and serves its node's threads on.
    mt: MtEngine,
    /// Where the reader hands each `Exec`: connected before this rank's
    /// `Sync` goes out, and the master sends no `Exec` before every `Sync`
    /// arrived.
    serving: Arc<OnceLock<Serving>>,
    writer: Arc<Conn>,
    /// This rank's chunk hub: the leases its ops open live here, the
    /// others are a [`HubLink`] round trip away.
    hub: Arc<ChunkHub>,
    /// The outputs of released runs, per `(app, graph)`, until
    /// `take_outputs` drains them.
    outputs: HashMap<(u32, u32), Vec<TokenBox>>,
    release_rx: Receiver<Released>,
    shutdown_rx: Receiver<()>,
    synced: bool,
    run_seq: u64,
    release_timeout: Duration,
    threads: Vec<JoinHandle<()>>,
    down: bool,
}

// ---------------------------------------------------------------------------
// Threads the workers serve
// ---------------------------------------------------------------------------

fn node_down(host: u32, target: String) -> DpsError {
    DpsError::NodeDown {
        node: format!("kernel{host}"),
        target,
    }
}

/// Node 0 lives in the master, node `n` in worker rank `n` (`kernel{n}`):
/// an arrival for a thread of node `n` is one `Exec` on rank `n`'s FIFO
/// connection, served by the thread's worker there in order and answered in
/// order.
impl Forward for MasterShared {
    fn forward(&self, a: Foreign) -> Result<()> {
        let conn = (a.node.checked_sub(1)).and_then(|i| self.conns.get(i as usize));
        let conn = conn.ok_or_else(|| node_down(a.node, "no worker process serves it".into()))?;
        let (token, close) = match &a.what {
            Arrival::Token(token) => (Payload::Token(&**token), None),
            Arrival::Close(total) => (Payload::empty(), Some(*total)),
        };
        // The token is encoded once, straight into the frame.
        let frame = Frame::Exec {
            app: a.to.app,
            tc: a.tc,
            thread: a.thread,
            graph: a.to.graph,
            node: a.to.node,
            token,
            close,
            env: a.env,
            out_wave: a.out_wave,
            flow: a.sent.map_or(0, |flow| flow.get()),
        };
        (conn.send(&frame)).map_err(|e| node_down(a.node, format!("send failed: {e}")))
    }
}

/// Worker rank `rank`'s replies, applied in wire order. Never a connection
/// reader: applying a reply sends frames, and a reader blocked writing one
/// while its peer blocks writing behind a reply would wedge both. A rank
/// that owes a reply and sends none for [`NetTimeouts::exec`] is declared
/// dead; a reply after its death is dropped.
fn reply_loop(shared: Arc<MasterShared>, rank: u32, mut replies: Replies, dones: Receiver<Answer>) {
    let exec = shared.timeouts.exec;
    // The rank owed a reply when the last wait for one timed out.
    let mut owing = false;
    loop {
        let answer = match dones.recv_timeout(exec) {
            Ok(answer) => answer,
            Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {
                // Owing at both ends of a whole wait: silent for `exec`.
                let was = std::mem::replace(&mut owing, replies.owed() && !shared.rank_dead(rank));
                if was && owing {
                    // The run fails naming the timeout first; the death that
                    // follows finds what the rank still owes.
                    let why = format!("no reply within exec timeout {exec:?} (NetTimeouts::exec)");
                    replies.fail(0, node_down(rank, why.clone()));
                    shared.declare_dead(rank, &why);
                }
                continue;
            }
        };
        owing = false;
        if shared.rank_dead(rank) {
            continue;
        }
        let registry = replies.decls().registry(answer.lane.0);
        let posts = (answer.posts.iter())
            .map(|b| proto::decode_received(registry, b, &answer.captured))
            .collect::<Result<Vec<_>>>();
        replies.apply(answer.lane, answer.reply, posts, &answer.reports);
    }
}

// ---------------------------------------------------------------------------
// Connection readers
// ---------------------------------------------------------------------------

/// Master-side reader of one worker connection: hands each `Done` to the
/// rank's reply thread, serves or relays hub traffic, forwards the sync
/// signature and the trace logs — and feeds the liveness layer: every
/// inbound frame refreshes the rank's heartbeat clock, and a connection
/// error (EOF, reset) or protocol corruption declares the rank dead on the
/// spot.
fn master_reader(
    shared: Arc<MasterShared>,
    rank: u32,
    mut rx: Box<dyn FrameRx>,
    sync_tx: Sender<(u32, (u64, usize))>,
    trace_tx: Sender<(u32, TraceReply)>,
    done_tx: Sender<Answer>,
) {
    let mut table = RecvTable::default();
    loop {
        let bytes = match rx.recv() {
            Ok(bytes) => bytes,
            Err(e) => {
                // ErrorKind classification: a clean close (the process
                // exited) reads as EOF, a crash mid-write as reset/aborted;
                // either way the worker is gone.
                let why = match e.kind() {
                    io::ErrorKind::UnexpectedEof => format!("connection closed (EOF): {e}"),
                    kind => format!("connection error ({kind:?}): {e}"),
                };
                shared.declare_dead(rank, &why);
                break;
            }
        };
        shared.touch(rank);
        let len = bytes.len();
        let frame = proto::decode_frame_on(bytes, &mut table);
        // A worker's `Sync` may land before the trace sink is attached; it
        // is counted where the first run consumes it (`ensure_net_ready`).
        if !matches!(frame, Ok((Frame::Sync { .. }, _))) {
            shared.meter.count(len);
        }
        match frame {
            Ok((
                Frame::Done {
                    app,
                    tc,
                    thread,
                    reply,
                    posts,
                    reports,
                },
                captured,
            )) => {
                let _ = done_tx.send(Answer {
                    lane: (app, tc, thread),
                    reply,
                    posts: posts.into_iter().map(Payload::into_bytes).collect(),
                    reports,
                    captured,
                });
            }
            Ok((Frame::Hub { req, body }, _)) => shared.router.route(&shared.hub, rank, req, body),
            Ok((Frame::HubReply { req, body }, _)) => shared.router.complete(req, body),
            Ok((Frame::Sync { sig }, _)) => {
                let _ = sync_tx.send((rank, (sig, len)));
            }
            Ok((Frame::Trace { run, clock, log }, _)) => {
                let _ = trace_tx.send((rank, (run, clock, log.0)));
            }
            // Pong (and anything else): the `touch` above already reset
            // the heartbeat clock.
            Ok(_) => {}
            Err(_) => {
                shared.declare_dead(rank, "sent an undecodable frame (protocol corruption)");
                break;
            }
        }
    }
}

/// The master's heartbeat monitor: pings every live worker each interval
/// and declares dead any rank silent for a whole miss budget. Runs until
/// shutdown drops the sending half of `stop`, which ends the wait for the
/// next tick at once.
fn heartbeat_monitor(shared: Arc<MasterShared>, stop: Receiver<()>) {
    let interval = shared.timeouts.heartbeat_interval;
    let budget = shared.timeouts.detection_budget();
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        for rank in 1..=shared.conns.len() as u32 {
            if shared.rank_dead(rank) {
                continue;
            }
            if shared.idle(rank) > budget {
                shared.declare_dead(
                    rank,
                    &format!(
                        "missed the heartbeat budget ({} × {interval:?}; \
                         NetTimeouts::heartbeat_interval × heartbeat_misses)",
                        shared.timeouts.heartbeat_misses
                    ),
                );
                continue;
            }
            if shared.conns[(rank - 1) as usize]
                .send(&Frame::Ping)
                .is_err()
            {
                shared.declare_dead(rank, "ping send failed (connection closed)");
            }
        }
    }
}

/// Worker-side reader of the master connection. An `Exec` is decoded here
/// and handed to the thread's worker ([`arrive`]). A `Die` ends a worker
/// process at once; an `in_process` rank (see [`NetEngine::loopback`])
/// dies instead as the kernel buries a killed process: its connection
/// closes, so the master reads end-of-file, and nothing more is served.
#[allow(clippy::too_many_arguments)]
fn worker_reader(
    mut rx: Box<dyn FrameRx>,
    rank: u32,
    serving: Arc<OnceLock<Serving>>,
    hub: Arc<ChunkHub>,
    hub_link: Arc<HubLink>,
    writer: Arc<Conn>,
    release_tx: Sender<Released>,
    shutdown_tx: Sender<()>,
    in_process: bool,
) {
    let mut table = RecvTable::default();
    while let Ok(bytes) = rx.recv() {
        match proto::decode_frame_on(bytes, &mut table) {
            Ok((exec @ Frame::Exec { .. }, captured)) => {
                arrive(serving.get(), rank, exec, &captured, &writer);
            }
            Ok((Frame::Hub { req, body }, _)) => {
                // A claim on a lease opened here, relayed by the master.
                let body = body.serve(&hub);
                let _ = writer.send(&Frame::HubReply { req, body });
            }
            Ok((Frame::HubReply { req, body }, _)) => hub_link.complete(req, body),
            Ok((
                Frame::Release {
                    run,
                    error,
                    outputs,
                },
                captured,
            )) => {
                // A traced worker answers a successful release with its log
                // of the run, taken (so drained) before the run returns here.
                let traced = serving.get().and_then(Serving::trace_collector);
                if let (None, Some(c)) = (&error, traced) {
                    let clock = c.clock();
                    let log = WireLog(c.take_log());
                    let _ = writer.send(&Frame::Trace { run, clock, log });
                }
                let outputs = outputs.into_iter().map(Payload::into_bytes).collect();
                let _ = release_tx.send((run, error, outputs, captured));
            }
            Ok((Frame::Ping, _)) => {
                let _ = writer.send(&Frame::Pong);
            }
            Ok((Frame::Die, _)) if in_process => {
                // No Release handshake, no engine teardown: its threads fail
                // their next send.
                writer.close();
                return;
            }
            Ok((Frame::Die, _)) => {
                // Scheduled crash: die *abruptly* — no Release handshake, no
                // engine teardown — so the master's death detection is
                // exercised against a real disappearance.
                std::process::exit(86);
            }
            Ok((Frame::Shutdown, _)) => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let _ = shutdown_tx.send(());
}

/// Hand `exec`, an `Exec` frame from the master, to worker rank `rank`'s
/// engine, its token decoded against what the frame `captured` of the
/// connection's buffer table. One that does not decode is refused, and so
/// answered `Failed` behind its thread's earlier arrivals.
fn arrive(
    serving: Option<&Serving>,
    rank: u32,
    exec: Frame<'_>,
    captured: &Captured,
    writer: &Conn,
) {
    let Frame::Exec {
        app,
        tc,
        thread,
        graph,
        node,
        token,
        close,
        env,
        out_wave,
        flow,
    } = exec
    else {
        unreachable!("only an Exec frame carries an arrival");
    };
    // Set before this rank's `Sync`, which precedes every `Exec` of a master
    // that keeps to the protocol.
    let Some(serving) = serving else {
        let error = "an Exec ahead of this rank's Sync".into();
        let reply = Reply::Failed {
            token: close.is_none(),
            error,
        };
        return writer.answer((app, tc, thread), reply, Vec::new(), &[]);
    };
    let refuse = |error: String| serving.refuse((app, tc, thread), error);
    let what = match (close, serving.decls().apps().get(app as usize)) {
        (Some(total), _) => Arrival::Close(total),
        (None, Some(a)) => {
            let decoded = proto::decode_received(&a.registry, &token.into_bytes(), captured);
            match decoded {
                Ok(token) => Arrival::Token(Carried::from_box(token)),
                Err(e) => return refuse(e.to_string()),
            }
        }
        (None, None) => return refuse(format!("a token of undeclared application {app}")),
    };
    serving.arrive(Foreign {
        to: At { app, graph, node },
        tc,
        thread,
        node: rank,
        what,
        env,
        sent: NonZeroU64::new(flow),
        out_wave,
    });
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

impl NetEngine {
    /// One process, `nodes` kernels: runs the SPMD `program` once per rank
    /// over the in-memory [`LoopbackTransport`] and returns rank 0's
    /// result. Rank 0 is the master, on the calling thread; each rank
    /// `1..nodes` is the worker role a worker process of
    /// [`from_env`](Self::from_env) runs after its handshake, on a thread
    /// of its own. So the sync barrier, the trace round and the chunk-hub
    /// protocol cross the connections as they do between processes, and a
    /// killed rank closes its connection where a process would exit.
    ///
    /// Rank 0 shuts down before the worker threads are joined. A worker's
    /// panic fails the call, unless the run killed that rank or declared it
    /// dead.
    pub fn loopback<R>(
        nodes: usize,
        cfg: NetEngineConfig,
        program: impl Fn(&mut NetEngine) -> R + Sync,
    ) -> R {
        assert!(nodes >= 1, "the cluster needs at least the master node");
        let transport = LoopbackTransport::new();
        let (addr, mut acceptor) = transport.bind().expect("loopback bind");
        let mut links = Vec::new();
        let mut workers = Vec::new();
        for rank in 1..nodes as u32 {
            let mut worker_side = transport.connect(&addr).expect("loopback connect");
            let mut master_side = acceptor.accept().expect("loopback accept");
            // Both ends armed, as a worker process arms its own.
            if let Some(wf) = &cfg.wire_faults {
                master_side = arm_duplex(master_side, wf.cfg, wf.stream(rank, 0));
                worker_side = arm_duplex(worker_side, wf.cfg, wf.stream(rank, 1));
            }
            links.push(master_side);
            workers.push(Worker::start(&cfg, nodes, rank, worker_side, true));
        }
        let master = Master::start(&cfg, nodes, links, Vec::new(), Vec::new());
        let program = &program;
        std::thread::scope(|s| {
            let ranks: Vec<_> = (workers.into_iter())
                .map(|w| {
                    let builder =
                        std::thread::Builder::new().name(format!("dps-net-rank{}", w.rank));
                    let rank = move || {
                        program(&mut NetEngine {
                            role: Role::Worker(Box::new(w)),
                        });
                    };
                    builder
                        .spawn_scoped(s, rank)
                        .expect("spawn a loopback rank")
                })
                .collect();
            let mut eng = NetEngine {
                role: Role::Master(Box::new(master)),
            };
            let out = program(&mut eng);
            let Role::Master(m) = &eng.role else {
                unreachable!("rank 0 is the master")
            };
            let excused: Vec<bool> = (1..nodes as u32).map(|rank| m.excused(rank)).collect();
            drop(eng);
            for (rank, excused) in ranks.into_iter().zip(excused) {
                match rank.join() {
                    Err(panic) if !excused => std::panic::resume_unwind(panic),
                    _ => {}
                }
            }
            out
        })
    }

    /// Multi-process engine: the master role binds a TCP endpoint and
    /// re-executes the current binary once per worker node; worker
    /// processes (recognized through the `DPS_NET_ROLE` environment) attach
    /// to the master instead. Every process then runs the same SPMD driver
    /// code against the engine this returns.
    pub fn from_env(nodes: usize, cfg: NetEngineConfig) -> io::Result<Self> {
        match std::env::var("DPS_NET_ROLE").as_deref() {
            Ok("worker") => {
                let rank = std::env::var("DPS_NET_RANK")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "DPS_NET_RANK not set")
                    })?;
                let addr = std::env::var("DPS_NET_MASTER").map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, "DPS_NET_MASTER not set")
                })?;
                Self::worker_tcp(nodes, cfg, rank, &addr)
            }
            _ => Self::master_tcp(nodes, cfg),
        }
    }

    fn master_tcp(nodes: usize, cfg: NetEngineConfig) -> io::Result<Self> {
        assert!(nodes >= 1, "the cluster needs at least the master node");
        let (addr, mut acceptor) = TcpTransport.bind()?;
        let worker_count = nodes - 1;

        // Spawn the workers: the same binary, same arguments, worker role
        // in the environment.
        let exe = std::env::current_exe()?;
        let args: Vec<String> = cfg
            .worker_args
            .clone()
            .unwrap_or_else(|| std::env::args().skip(1).collect());
        let mut children = Vec::new();
        for rank in 1..=worker_count as u32 {
            match Command::new(&exe)
                .args(&args)
                .env("DPS_NET_ROLE", "worker")
                .env("DPS_NET_RANK", rank.to_string())
                .env("DPS_NET_MASTER", &addr)
                .spawn()
            {
                Ok(child) => children.push(child),
                Err(e) => {
                    kill_children(&mut children);
                    return Err(e);
                }
            }
        }

        // Accept on a thread so the timeout stays enforceable, collect the
        // Hello of each worker, and slot connections by rank.
        let (acc_tx, acc_rx) = unbounded();
        let accept_thread = spawn("dps-net-accept".into(), move || {
            for _ in 0..worker_count {
                let Ok(mut duplex) = acceptor.accept() else {
                    break;
                };
                let Ok(bytes) = duplex.rx.recv() else {
                    continue;
                };
                let Ok(Frame::Hello { rank }) = proto::decode_frame(bytes) else {
                    continue;
                };
                if acc_tx.send((rank, duplex)).is_err() {
                    break;
                }
            }
        });
        let mut slots: Vec<Option<Duplex>> = (0..worker_count).map(|_| None).collect();
        let deadline = Instant::now() + cfg.timeouts.connect;
        for _ in 0..worker_count {
            let left = deadline.saturating_duration_since(Instant::now());
            let (rank, duplex) = match acc_rx.recv_timeout(left) {
                Ok(pair) => pair,
                Err(_) => {
                    kill_children(&mut children);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "not all {worker_count} workers connected within connect \
                             timeout {:?} (NetTimeouts::connect)",
                            cfg.timeouts.connect
                        ),
                    ));
                }
            };
            let slot = rank
                .checked_sub(1)
                .map(|r| r as usize)
                .filter(|&r| r < worker_count && slots[r].is_none());
            match slot {
                Some(r) => slots[r] = Some(duplex),
                None => {
                    kill_children(&mut children);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected worker rank {rank}"),
                    ));
                }
            }
        }

        let mut links = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let mut duplex = slot.expect("every slot filled above");
            let rank = i as u32 + 1;
            // The Welcome travels raw: the handshake happens below the fault
            // layer on both ends (the worker arms its side only after
            // decoding it).
            let welcome = Frame::Welcome {
                nodes: nodes as u32,
            };
            send_frame(&mut *duplex.tx, &welcome)?;
            if let Some(wf) = &cfg.wire_faults {
                duplex = arm_duplex(duplex, wf.cfg, wf.stream(rank, 0));
            }
            links.push(duplex);
        }

        let master = Master::start(&cfg, nodes, links, vec![accept_thread], children);
        Ok(NetEngine {
            role: Role::Master(Box::new(master)),
        })
    }

    fn worker_tcp(nodes: usize, cfg: NetEngineConfig, rank: u32, addr: &str) -> io::Result<Self> {
        let deadline = Instant::now() + cfg.timeouts.connect;
        let mut duplex = loop {
            match TcpTransport.connect(addr) {
                Ok(d) => break d,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        send_frame(&mut *duplex.tx, &Frame::Hello { rank })?;
        let bytes = duplex.rx.recv()?;
        let wire_nodes = match proto::decode_frame(bytes) {
            Ok(Frame::Welcome { nodes }) => nodes,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Welcome, got {other:?}"),
                ))
            }
        };
        if wire_nodes as usize != nodes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("master runs {wire_nodes} nodes, this worker was built for {nodes}"),
            ));
        }
        // Handshake done — arm this end of the fault layer (the master armed
        // its end right after sending the Welcome). Workers ignore `kills`:
        // the kill switch lives on the master's writer.
        if let Some(wf) = &cfg.wire_faults {
            duplex = arm_duplex(duplex, wf.cfg, wf.stream(rank, 1));
        }
        let worker = Worker::start(&cfg, nodes, rank, duplex, false);
        Ok(NetEngine {
            role: Role::Worker(Box::new(worker)),
        })
    }

    /// Is this the master kernel? (Exactly one process per run is; drivers
    /// gate output printing and result persistence on it.)
    pub fn is_master(&self) -> bool {
        matches!(self.role, Role::Master(_))
    }

    /// The attached trace collector: on the master the cluster-merged one
    /// (worker logs land in it at the end of every traced run), on a worker
    /// its local collector. `None` until `set_trace_sink`.
    pub fn trace_collector(&self) -> Option<Arc<TraceCollector>> {
        match &self.role {
            Role::Master(m) => m.trace.clone(),
            Role::Worker(w) => w.mt.trace_collector(),
        }
    }

    /// This kernel's rank: 0 on the master, the worker's 1-based rank
    /// otherwise.
    pub fn rank(&self) -> u32 {
        match &self.role {
            Role::Master(_) => 0,
            Role::Worker(w) => w.rank,
        }
    }

    /// Kill worker `rank` (1-based) mid-run. On the master a worker
    /// process is killed outright (SIGKILL) and an in-process rank is sent
    /// [`Frame::Die`], which closes its connection; either way the rank's
    /// reader sees end-of-file. Detection runs the engine's *natural*
    /// liveness path — nothing is tombstoned here directly — and this
    /// returns once it has, or after the detection budget. A no-op on
    /// worker roles, so SPMD drivers call it unconditionally.
    pub fn fail_worker(&mut self, rank: u32) -> Result<()> {
        match &mut self.role {
            Role::Master(m) => m.fail_worker(rank),
            Role::Worker(_) => Ok(()),
        }
    }

    /// Liveness observability: has worker `rank` been declared dead
    /// (tombstoned)? Detection of a death the engine did not inflict is
    /// asynchronous — EOF classification or the heartbeat budget — so such
    /// a rank reads `false` until the liveness layer catches it. Always
    /// `false` on worker roles and for out-of-range ranks.
    pub fn worker_down(&self, rank: u32) -> bool {
        match &self.role {
            Role::Master(m) => {
                rank >= 1 && rank as usize <= m.shared.conns.len() && m.shared.rank_dead(rank)
            }
            Role::Worker(_) => false,
        }
    }

    /// Tear the engine down: the master stops its control plane, tells
    /// every worker to exit and reaps the worker processes (panicking if
    /// one failed); a worker waits for that signal so the master never
    /// loses a connection mid-run. Also runs on drop.
    pub fn shutdown(&mut self) {
        match &mut self.role {
            Role::Master(m) => m.shutdown(),
            Role::Worker(w) => w.shutdown(),
        }
    }
}

impl Drop for NetEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run `f` on an OS thread of its own named `name`.
fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let builder = std::thread::Builder::new().name(name);
    builder.spawn(f).expect("spawn a network-engine thread")
}

fn kill_children(children: &mut Vec<Child>) {
    for mut child in children.drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

// ---------------------------------------------------------------------------
// Master role
// ---------------------------------------------------------------------------

impl Master {
    /// The master role of a `nodes`-node cluster over established worker
    /// connections (`links[r - 1]` is the master's side of rank `r`'s,
    /// fault layer already armed): arms the scheduled kills, then starts
    /// one reader per connection and the heartbeat monitor. `children` are
    /// the worker processes (none when the ranks run in this process).
    fn start(
        cfg: &NetEngineConfig,
        nodes: usize,
        links: Vec<Duplex>,
        mut threads: Vec<JoinHandle<()>>,
        children: Vec<Child>,
    ) -> Master {
        let worker_count = links.len();
        let meter = Arc::new(WireMeter::default());
        let mut conns = Vec::new();
        let mut rxs = Vec::new();
        for (i, link) in links.into_iter().enumerate() {
            let rank = i as u32 + 1;
            // The kill switch goes outermost on the master's writer so the
            // scheduled `Die` passes through the fault layer like any other
            // frame.
            let tx = match cfg.kills.iter().find(|k| k.rank == rank) {
                Some(kill) => Box::new(KillTx::new(link.tx, kill.after_frames)),
                None => link.tx,
            };
            conns.push(Arc::new(Conn::new(tx, meter.clone())));
            rxs.push(link.rx);
        }

        let dead: Arc<[AtomicBool]> = (0..worker_count).map(|_| AtomicBool::new(false)).collect();
        let router = Arc::new(HubRouter::new(
            conns.clone(),
            dead.clone(),
            cfg.timeouts.exec,
        ));
        let shared = Arc::new(MasterShared {
            conns,
            meter,
            hub: Arc::new(ChunkHub::homed(0, Some(router.clone()))),
            router,
            timeouts: cfg.timeouts,
            dead,
            last_rx: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            fail: OnceLock::new(),
            closing: AtomicBool::new(false),
            burial: Mutex::new(()),
            buried: Condvar::new(),
        });
        let (sync_tx, sync_rx) = unbounded();
        let (trace_tx, trace_rx) = unbounded();
        let mut dones = Vec::new();
        for (i, rx) in rxs.into_iter().enumerate() {
            let shared = shared.clone();
            let sync_tx = sync_tx.clone();
            let trace_tx = trace_tx.clone();
            let (done_tx, done_rx) = unbounded();
            dones.push(done_rx);
            threads.push(spawn(format!("dps-net-reader{}", i + 1), move || {
                master_reader(shared, i as u32 + 1, rx, sync_tx, trace_tx, done_tx)
            }));
        }
        let (hb_stop, hb_stopped) = unbounded();
        if worker_count > 0 {
            let hb = shared.clone();
            threads.push(spawn("dps-net-heartbeat".into(), move || {
                heartbeat_monitor(hb, hb_stopped)
            }));
        }

        Master {
            mt: MtEngine::with_config(nodes, cfg.mt.clone()),
            shared,
            dones,
            sync_rx,
            ready: false,
            run_seq: 0,
            out_buf: HashMap::new(),
            children,
            threads,
            hb_stop: Some(hb_stop),
            down: false,
            trace: None,
            trace_rx,
            killed: cfg.kills.iter().map(|k| k.rank).collect(),
        }
    }

    /// First-submit barrier: wait for every worker's declaration signature,
    /// refuse divergent schedules, then have the embedded engine serve node
    /// 0 alone and forward the rest, and start one reply thread per worker
    /// rank.
    fn ensure_net_ready(&mut self) -> Result<()> {
        if self.ready {
            return Ok(());
        }
        // The table is still open: the engine starts below.
        let expect = self.mt.declare(|d| d.signature());
        let owed = vec![true; self.shared.conns.len()];
        let missing = self.gather(owed, &self.sync_rx, |rank, (sig, bytes)| {
            self.shared.meter.count(bytes);
            if sig != expect {
                return Err(DpsError::InvalidGraph {
                    reason: format!(
                        "worker {rank} declared a different schedule \
                         (signature {sig:#018x}, master {expect:#018x}); \
                         SPMD kernels must run identical declarations"
                    ),
                });
            }
            Ok(true)
        })?;
        if missing > 0 {
            return Err(DpsError::NodeDown {
                node: format!("{missing} worker(s)"),
                target: format!(
                    "declaration sync (connect timeout {:?}; NetTimeouts::connect)",
                    self.shared.timeouts.connect
                ),
            });
        }
        if !self.shared.conns.is_empty() {
            self.mt.set_forward(0, self.shared.clone());
            for (rank, dones) in (1..).zip(std::mem::take(&mut self.dones)) {
                let (shared, replies) = (self.shared.clone(), self.mt.replies(rank));
                self.threads
                    .push(spawn(format!("dps-net-replies{rank}"), move || {
                        reply_loop(shared, rank, replies, dones)
                    }));
            }
            // Hand the liveness layer its tombstoning lever into the control
            // plane (valid only once the engine threads exist, which
            // `fail_handle` ensures). A rank that died before this point is
            // failed retroactively so its cluster node never receives work.
            let handle = self.mt.fail_handle();
            for rank in 1..=self.shared.conns.len() as u32 {
                if self.shared.rank_dead(rank) {
                    let _ = handle.fail_node(rank);
                }
            }
            let _ = self.shared.fail.set(handle);
        }
        self.ready = true;
        Ok(())
    }

    fn run_to_idle(&mut self, g: GraphHandle, expected: usize) -> Result<()> {
        self.ensure_net_ready()?;
        self.run_seq += 1;
        let run = self.mt.run_to_idle(g, expected);
        let outs = match &run {
            Ok(()) => self.mt.take_outputs(g),
            Err(_) => Vec::new(),
        };
        self.release(run.as_ref().err(), &outs);
        self.out_buf
            .entry((g.app, g.graph))
            .or_default()
            .extend(outs);
        run
    }

    /// Best-effort send to every worker (a dead one just fails its send).
    fn broadcast(&self, frame: &Frame<'_>) {
        for conn in &self.shared.conns {
            let _ = conn.send(frame);
        }
    }

    /// Wait for one reply through `replies` from every worker rank `owed`
    /// names (`owed[r - 1]` for rank `r`), polling in 50 ms slices until the
    /// connect deadline; a rank declared dead is waited for no longer.
    /// `take` sees each reply with its rank and says whether it counts — a
    /// stale one does not — or ends the wait with an error. Returns how many
    /// live ranks still owed a reply at the deadline.
    fn gather<T>(
        &self,
        mut owed: Vec<bool>,
        replies: &Receiver<(u32, T)>,
        mut take: impl FnMut(u32, T) -> Result<bool>,
    ) -> Result<usize> {
        let deadline = Instant::now() + self.shared.timeouts.connect;
        loop {
            let missing = (1..)
                .zip(&owed)
                .filter(|&(rank, &owes)| owes && !self.shared.rank_dead(rank))
                .count();
            let left = deadline.saturating_duration_since(Instant::now());
            if missing == 0 || left.is_zero() {
                return Ok(missing);
            }
            let slice = left.min(Duration::from_millis(50));
            if let Ok((rank, reply)) = replies.recv_timeout(slice) {
                if take(rank, reply)? {
                    owed[(rank - 1) as usize] = false;
                }
            }
        }
    }

    /// Release the run on every worker, with its outputs, or its error if
    /// it failed, and merge the trace log each traced worker answers a
    /// successful release with before `run_to_idle` returns. Best-effort: a
    /// worker that cannot answer costs its events, never the run.
    fn release(&self, failed: Option<&DpsError>, outputs: &[TokenBox]) {
        let release = Frame::Release {
            run: self.run_seq,
            error: failed.map(DpsError::to_string),
            outputs: outputs.iter().map(|t| Payload::Token(t.as_ref())).collect(),
        };
        let owed = (1..)
            .zip(&self.shared.conns)
            .map(|(rank, conn)| conn.send(&release).is_ok() && !self.shared.rank_dead(rank))
            .collect();
        let Some(collector) = &self.trace else {
            return;
        };
        if failed.is_some() {
            return;
        }
        let _ = self.gather(owed, &self.trace_rx, |_, (run, clock, log)| {
            if run != self.run_seq {
                return Ok(false); // stale reply of an earlier, timed-out round
            }
            collector.ingest(&log, clock);
            Ok(true)
        });
    }

    fn fail_worker(&mut self, rank: u32) -> Result<()> {
        if rank == 0 || rank as usize > self.shared.conns.len() {
            return Err(DpsError::InvalidGraph {
                reason: format!("no worker rank {rank} to fail"),
            });
        }
        self.killed.push(rank);
        match self.children.get_mut((rank - 1) as usize) {
            // A worker process: kill it abruptly; its connection EOFs.
            Some(child) => {
                let _ = child.kill();
            }
            // A rank in this process closes its connection on `Die`.
            None => {
                let _ = self.shared.conns[(rank - 1) as usize].send(&Frame::Die);
            }
        }
        self.shared.await_death(rank);
        Ok(())
    }

    /// May worker `rank` end without that counting as a failure? Yes once
    /// it is declared dead, or if the run kills it.
    fn excused(&self, rank: u32) -> bool {
        self.shared.rank_dead(rank) || self.killed.contains(&rank)
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        // From here on, connection teardown is expected: the liveness layer
        // must not classify it as worker death, and the heartbeat monitor
        // stops waiting for its next tick.
        self.shared.closing.store(true, Ordering::Release);
        self.hb_stop = None;
        // Stop the control plane first: no thread of it sends an `Exec` once
        // Shutdown goes out.
        self.mt.shutdown();
        self.broadcast(&Frame::Shutdown);
        let mut failures = Vec::new();
        let children = std::mem::take(&mut self.children);
        for (rank, mut child) in (1..).zip(children) {
            if self.excused(rank) {
                // Tombstoned (killed or wedged) — or carrying a kill, which
                // may land between run completion and this teardown: reap
                // without judgment; its exit status is the fault, not a
                // failure.
                let _ = child.kill();
                let _ = child.wait();
                continue;
            }
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => failures.push(format!("worker exited with {status}")),
                Err(e) => failures.push(format!("waiting for a worker failed: {e}")),
            }
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        if !failures.is_empty() && !std::thread::panicking() {
            panic!("worker processes failed: {failures:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Worker role
// ---------------------------------------------------------------------------

impl Worker {
    /// The worker role of `rank` of a `nodes`-node cluster over its
    /// connection to the master, handshake done and fault layer armed. An
    /// `in_process` rank shares its process with the master (see
    /// [`worker_reader`]).
    fn start(
        cfg: &NetEngineConfig,
        nodes: usize,
        rank: u32,
        duplex: Duplex,
        in_process: bool,
    ) -> Worker {
        let writer = Arc::new(Conn::new(duplex.tx, Arc::default()));
        let serving = Arc::new(OnceLock::new());
        let hub_link = Arc::new(HubLink::new(writer.clone(), cfg.timeouts.exec));
        let hub = Arc::new(ChunkHub::homed(rank, Some(hub_link.clone())));
        let (release_tx, release_rx) = unbounded();
        let (shutdown_tx, shutdown_rx) = unbounded();
        let reader = {
            let (serving, hub, writer, rx) =
                (serving.clone(), hub.clone(), writer.clone(), duplex.rx);
            spawn(format!("dps-net-reader-rank{rank}"), move || {
                worker_reader(
                    rx,
                    rank,
                    serving,
                    hub,
                    hub_link,
                    writer,
                    release_tx,
                    shutdown_tx,
                    in_process,
                )
            })
        };
        Worker {
            rank,
            mt: MtEngine::with_config(nodes, cfg.mt.clone()),
            serving,
            writer,
            hub,
            outputs: HashMap::new(),
            release_rx,
            shutdown_rx,
            synced: false,
            run_seq: 0,
            release_timeout: cfg.timeouts.release(cfg.mt.run_timeout),
            threads: vec![reader],
            down: false,
        }
    }

    /// Declarations are over: the engine starts serving this rank's node
    /// for the master's, and the `Sync` tells the master which table.
    fn sync_once(&mut self) {
        if self.synced {
            return;
        }
        self.synced = true;
        let serving = self.mt.serve_for(self.rank, self.writer.clone());
        let sig = serving.decls().signature();
        let _ = self.serving.set(serving);
        let _ = self.writer.send(&Frame::Sync { sig });
    }

    /// The SPMD twin of the master's run of `g`: returns with the master's
    /// release of it, keeping the outputs it carries for `take_outputs`.
    fn run_to_idle(&mut self, g: GraphHandle) -> Result<()> {
        self.sync_once();
        self.run_seq += 1;
        let seq = self.run_seq;
        let why = match self.release_rx.recv_timeout(self.release_timeout) {
            Ok((run, ..)) if run != seq => {
                format!("release for run {run} arrived while waiting for run {seq}")
            }
            Ok((_, Some(error), ..)) => error,
            Ok((_, None, outputs, captured)) => {
                let kept = self.outputs.entry((g.app, g.graph)).or_default();
                let decls = self.serving.get().expect("synced").decls();
                let registry = decls.apps().get(g.app as usize).map(|a| &a.registry);
                for token in &outputs {
                    match registry.map(|r| proto::decode_received(r, token, &captured)) {
                        Some(Ok(tok)) => kept.push(tok),
                        _ => eprintln!(
                            "dps-netengine: dropping undecodable output of app {}",
                            g.app
                        ),
                    }
                }
                return Ok(());
            }
            Err(_) => format!(
                "master did not release run {seq} within release timeout {:?} \
                 (NetTimeouts::release: 2 × connect + the run timeout)",
                self.release_timeout
            ),
        };
        Err(DpsError::IncompleteWaves { waves: vec![why] })
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        // Hold the process open until the master says the run is over (the
        // reader forwards its exit on either Shutdown or a closed socket).
        let _ = self.shutdown_rx.recv_timeout(self.release_timeout);
        self.mt.shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The Engine implementation
// ---------------------------------------------------------------------------

/// The unified engine API over both roles. Declarations fill the same
/// table everywhere; submission and running are master-driven with workers
/// following the release protocol.
impl dps_core::Engine for NetEngine {
    fn name(&self) -> &'static str {
        "net"
    }

    fn caps(&self) -> dps_core::EngineCaps {
        dps_core::EngineCaps {
            virtual_time: false,
        }
    }

    /// Every role declares on its own engine, until that engine starts.
    fn declare<R>(&mut self, f: impl FnOnce(&mut Decls) -> R) -> R {
        match &mut self.role {
            Role::Master(m) => m.mt.declare(f),
            Role::Worker(w) => w.mt.declare(f),
        }
    }

    fn set_feedback_sink(&mut self, sink: Arc<dyn FeedbackSink>) {
        match &mut self.role {
            Role::Master(m) => m.mt.set_feedback_sink(sink),
            // Chunk reports land on the master (the sink lives there); the
            // worker's sink object is never fed.
            Role::Worker(_) => {}
        }
    }

    fn set_trace_sink(&mut self, sink: Arc<TraceCollector>) {
        match &mut self.role {
            Role::Master(m) => {
                assert!(!m.ready, "register the trace sink before the first run");
                // The embedded control plane records wave/op/token events;
                // rank 0's chunk hub bumps the lease/claim counters.
                m.mt.set_trace_sink(sink.clone());
                m.shared.hub.attach_metrics(sink.metrics_arc());
                m.shared.meter.attach(sink.metrics_arc());
                m.trace = Some(sink);
            }
            Role::Worker(w) => {
                // A worker's threads record locally; the log ships to the
                // master in the `Trace` answering each successful `Release`.
                w.mt.set_trace_sink(sink);
            }
        }
    }

    fn submit(&mut self, graph: GraphHandle, token: TokenBox) -> Result<()> {
        match &mut self.role {
            Role::Master(m) => {
                m.ensure_net_ready()?;
                m.mt.submit(graph, token)
            }
            Role::Worker(w) => {
                // The master's matching submit injects the token; this SPMD
                // call marks declarations finished.
                w.sync_once();
                Ok(())
            }
        }
    }

    fn run_to_idle(&mut self, graph: GraphHandle, expected_outputs: usize) -> Result<()> {
        match &mut self.role {
            Role::Master(m) => m.run_to_idle(graph, expected_outputs),
            Role::Worker(w) => {
                let _ = expected_outputs;
                w.run_to_idle(graph)
            }
        }
    }

    fn take_outputs(&mut self, graph: GraphHandle) -> Vec<TokenBox> {
        match &mut self.role {
            Role::Master(m) => m
                .out_buf
                .remove(&(graph.app, graph.graph))
                .unwrap_or_default(),
            Role::Worker(w) => w
                .outputs
                .remove(&(graph.app, graph.graph))
                .unwrap_or_default(),
        }
    }

    fn now_secs(&self) -> f64 {
        match &self.role {
            Role::Master(m) => m.mt.elapsed().as_secs_f64(),
            Role::Worker(w) => w.mt.elapsed().as_secs_f64(),
        }
    }

    fn chunk_hub(&mut self) -> Arc<ChunkHub> {
        match &mut self.role {
            Role::Master(m) => m.shared.hub.clone(),
            Role::Worker(w) => w.hub.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::prelude::*;
    use dps_core::Engine;
    use dps_obs::EventKind;
    use dps_sched::remote::HubRequest;
    use parking_lot::Mutex;

    dps_token! { pub struct Job { pub shards: u32 } }
    dps_token! { pub struct Shard { pub value: u64 } }
    dps_token! { pub struct Total { pub sum: u64 } }

    struct Fan;
    impl SplitOperation for Fan {
        type Thread = ();
        type In = Job;
        type Out = Shard;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, j: Job) {
            for value in 0..u64::from(j.shards) {
                ctx.post(Shard { value });
            }
        }
    }

    #[derive(Default)]
    struct Sum(u64);
    impl MergeOperation for Sum {
        type Thread = ();
        type In = Shard;
        type Out = Total;
        fn consume(&mut self, _c: &mut OpCtx<'_, (), Total>, s: Shard) {
            self.0 += s.value;
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
            ctx.post(Total { sum: self.0 });
        }
    }

    /// No heartbeat joins the frames a test counts.
    fn quiet() -> NetEngineConfig {
        let mut cfg = NetEngineConfig::default();
        cfg.timeouts.heartbeat_interval = Duration::from_secs(3600);
        cfg
    }

    /// Ten shards split on the master and summed on the one worker, traced;
    /// returns the sum.
    fn traced_sum(eng: &mut NetEngine, sink: &Arc<TraceCollector>) -> u64 {
        eng.set_trace_sink(sink.clone());
        let app = eng.app("sum");
        let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0 node1").unwrap();
        let mut b = GraphBuilder::new("sum");
        let s = b.split(&tc, || ToThread(0), || Fan);
        let m = b.merge(&tc, || ToThread(1), Sum::default);
        b.add(s >> m);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Job { shards: 10 })).unwrap();
        eng.run_to_idle(g, 1).unwrap();
        let out = eng.take_outputs(g).pop().unwrap();
        downcast::<Total>(out).unwrap().sum
    }

    /// A traced run counts every frame through rank 0 — the worker's
    /// `Sync`, ten `Exec`s out, ten `Done`s back, the `Release` that carries
    /// the run's one output, the worker's `Trace` that answers it, the
    /// `Shutdown`: 24. The heartbeat interval is an hour, so no `Ping`
    /// joins them — and the teardown returning at all shows the monitor's
    /// wait for its next tick is cut short, not slept out.
    #[test]
    fn traced_runs_count_every_frame_and_shutdown_does_not_wait_for_a_tick() {
        let (sink, torn_down) = NetEngine::loopback(2, quiet(), |eng| {
            let sink = TraceCollector::new();
            assert_eq!(traced_sum(eng, &sink), 45);
            (sink, Instant::now())
        });
        assert!(
            torn_down.elapsed() < Duration::from_secs(60),
            "shutdown waited out a heartbeat tick"
        );

        let m = sink.metrics();
        assert_eq!(m.get(dps_obs::Counter::FramesSent), 24);
        let bytes = m.get(dps_obs::Counter::WireBytesSent);
        // Every frame is at least its discriminant; an `Exec` also carries
        // 21 bytes of ids, a tagged 8-byte token and its wave.
        assert!(
            bytes > 24 * 4 + 10 * (21 + 4 + 18 + 8),
            "{bytes} wire bytes"
        );
        assert!(bytes < 24 * 200, "{bytes} wire bytes");
    }

    /// The merge runs on worker rank 1, which records its spans in a
    /// collector of its own: they reach rank 0's log only in the `Trace`
    /// frame that answers the run's `Release`, before `run_to_idle`
    /// returns there.
    #[test]
    fn a_traced_run_merges_the_worker_log_its_trace_frame_carries() {
        let on_rank_1 = NetEngine::loopback(2, quiet(), |eng| {
            let sink = TraceCollector::new();
            assert_eq!(traced_sum(eng, &sink), 45);
            let log = sink.take_log();
            let on = |node| {
                (log.events.iter())
                    .filter(|e| e.node == node && matches!(e.kind, EventKind::OpStart { .. }))
                    .count()
            };
            if eng.is_master() {
                assert_eq!(on(0), 1, "the split");
            } else {
                assert_eq!(log.events.len(), 0, "shipped, so drained");
            }
            on(1)
        });
        assert_eq!(on_rank_1, 10, "one per consume; the tenth finalizes");
    }

    /// How long a test waits for something another thread is about to do.
    const PATIENCE: Duration = Duration::from_secs(20);

    /// Lets the executions a test holds go: rank 0 takes the sending half,
    /// so it drops — and frees every lane parked on the gate — when rank 0's
    /// program ends, however it ends.
    struct Gate {
        open: Mutex<Option<Sender<()>>>,
        gate: Arc<Mutex<Receiver<()>>>,
    }

    impl Gate {
        fn new() -> Self {
            let (open, gate) = unbounded();
            Gate {
                open: Mutex::new(Some(open)),
                gate: Arc::new(Mutex::new(gate)),
            }
        }

        fn take(&self) -> Sender<()> {
            self.open.lock().take().expect("one rank 0")
        }
    }

    /// [`Sum`], whose consumes wait until the test opens the gate.
    struct GatedSum(Sum, Arc<Mutex<Receiver<()>>>);
    impl MergeOperation for GatedSum {
        type Thread = ();
        type In = Shard;
        type Out = Total;
        fn consume(&mut self, c: &mut OpCtx<'_, (), Total>, s: Shard) {
            let _ = self.1.lock().recv();
            self.0.consume(c, s);
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
            self.0.finalize(ctx);
        }
    }

    /// One merge thread on the worker holds two live waves of one node: the
    /// first ten-shard wave has eight shards in flight (the flow window) and
    /// the six-shard one all of its shards when the gate opens, so the lane
    /// runs both waves' consumes in turn, finalizes the second between two
    /// steps of the first, and each wave sums into an instance of its own.
    #[test]
    fn a_remote_merge_thread_keeps_two_live_waves_apart() {
        let gate = Gate::new();
        NetEngine::loopback(2, NetEngineConfig::default(), |eng| {
            let sink = TraceCollector::new();
            eng.set_trace_sink(sink.clone());
            let app = eng.app("two-waves");
            let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0 node1").unwrap();
            let held = gate.gate.clone();
            let mut b = GraphBuilder::new("two-waves");
            let s = b.split(&tc, || ToThread(0), || Fan);
            let m = b.merge(&tc, || ToThread(1), move || GatedSum(Sum(0), held.clone()));
            b.add(s >> m);
            let g = eng.build_graph(b).unwrap();
            for shards in [10, 6] {
                eng.submit(g, Box::new(Job { shards })).unwrap();
            }
            if eng.is_master() {
                let open = gate.take();
                let enqueued = || sink.metrics().get(dps_obs::Counter::TokensEnqueued);
                until("both waves' first shards queued", &|| {
                    enqueued() == 2 + 8 + 6
                });
                drop(open);
            }
            eng.run_to_idle(g, 2).unwrap();
            let mut sums: Vec<u64> = (eng.take_outputs(g).into_iter())
                .map(|out| downcast::<Total>(out).unwrap().sum)
                .collect();
            sums.sort_unstable();
            assert_eq!(sums, [15, 45]);
        });
    }

    fn until(what: &str, done: &dyn Fn() -> bool) {
        let deadline = Instant::now() + PATIENCE;
        while !done() {
            assert!(Instant::now() < deadline, "never saw {what}");
            std::thread::yield_now();
        }
    }

    /// A leaf that tells the test it started, then holds its lane until
    /// the test lets one execution go (or drops the gate's sender).
    struct Hold {
        started: Sender<()>,
        gate: Arc<Mutex<Receiver<()>>>,
    }
    impl LeafOperation for Hold {
        type Thread = ();
        type In = Shard;
        type Out = Shard;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, s: Shard) {
            let _ = self.started.send(());
            let _ = self.gate.lock().recv();
            ctx.post(s);
        }
    }

    /// The leaf of [`held`] on worker rank 1 says on `started` that it
    /// started, and waits on the gate.
    struct Held {
        gate: Gate,
        started: Sender<()>,
        starts: Mutex<Receiver<()>>,
    }

    /// A traced two-node cluster whose exec timeout is `exec` and whose
    /// heartbeat is an hour, running [`Fan`] on node 0, [`Hold`] on node 1
    /// and [`Sum`] back on node 0, submits `shards` shards on every rank
    /// and hands rank 0 the graph, its sink, the gate's sender and the
    /// master's shared state. Workers follow the run, whatever its end.
    fn held<R: Default>(
        exec: Duration,
        shards: u32,
        test: impl Fn(&mut NetEngine, GraphHandle, &TraceCollector, Sender<()>) -> R + Sync,
    ) -> R {
        let (started, starts) = unbounded();
        let h = Held {
            gate: Gate::new(),
            started,
            starts: Mutex::new(starts),
        };
        let mut cfg = quiet();
        cfg.timeouts.exec = exec;
        let r = NetEngine::loopback(2, cfg, |eng| {
            let sink = TraceCollector::new();
            eng.set_trace_sink(sink.clone());
            let app = eng.app("held");
            let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0 node1").unwrap();
            let (started, gate) = (h.started.clone(), h.gate.gate.clone());
            let mut b = GraphBuilder::new("held");
            let s = b.split(&tc, || ToThread(0), || Fan);
            let l = b.leaf(
                &tc,
                || ToThread(1),
                move || Hold {
                    started: started.clone(),
                    gate: gate.clone(),
                },
            );
            let m = b.merge(&tc, || ToThread(0), Sum::default);
            b.add(s >> l >> m);
            let g = eng.build_graph(b).unwrap();
            eng.submit(g, Box::new(Job { shards })).unwrap();
            if !eng.is_master() {
                let _ = eng.run_to_idle(g, 1);
                return R::default();
            }
            (h.starts.lock())
                .recv_timeout(PATIENCE)
                .expect("the first shard started");
            test(eng, g, &sink, h.gate.take())
        });
        r
    }

    /// The master's state, shared with its threads.
    fn shared(eng: &NetEngine) -> Arc<MasterShared> {
        match &eng.role {
            Role::Master(m) => m.shared.clone(),
            Role::Worker(_) => unreachable!("rank 0 is the master"),
        }
    }

    /// Seven data objects sent to one lane and not answered when their rank
    /// is declared dead: the run fails `NodeDown` then and there, naming the
    /// seven — the exec timeout is an hour, so a run left to it would hang
    /// the teardown — and degrades to nothing else.
    #[test]
    fn declare_dead_fails_every_exec_in_flight_at_once() {
        const SHARDS: u32 = 7;
        held(Duration::from_secs(3600), SHARDS, |eng, g, sink, _open| {
            let frames = || sink.metrics().get(dps_obs::Counter::FramesSent);
            // The first shard holds the lane, and the whole wave (the flow
            // window is 8) is on the wire behind it: the worker's `Sync`,
            // then seven `Exec`s, no reply.
            until("seven execs in flight", &|| {
                frames() == 1 + u64::from(SHARDS)
            });

            assert!(shared(eng).declare_dead(1, "declared dead by the test"));
            let failed = Instant::now();
            let err = eng.run_to_idle(g, 1).unwrap_err();
            assert!(
                matches!(&err, DpsError::NodeDown { target, .. } if target.contains("(7 unanswered)")),
                "degraded to {err}"
            );
            assert!(
                failed.elapsed() < PATIENCE,
                "an exec waited out its timeout"
            );

            let log = sink.take_log();
            let down = log
                .events
                .iter()
                .filter(|e| match e.kind {
                    EventKind::OpFailed { op } => log.label(op).contains("is down"),
                    _ => false,
                })
                .count();
            assert_eq!(down, 1, "one NodeDown for the seven");
        });
    }

    /// A gated leaf on node 1 outlasts the exec timeout: the run fails with a
    /// `NodeDown` naming `NetTimeouts::exec`, and the rank is declared dead
    /// (nothing else could: the heartbeat is an hour). The late `Done` is
    /// dropped, not applied, and the teardown returns promptly.
    #[test]
    fn an_exec_timeout_declares_its_rank_dead_and_drops_the_late_reply() {
        let torn_down = held(Duration::from_millis(200), 1, |eng, g, sink, open| {
            let frames = || sink.metrics().get(dps_obs::Counter::FramesSent);
            let err = eng.run_to_idle(g, 1).unwrap_err();
            assert!(
                matches!(&err, DpsError::NodeDown { target, .. }
                    if target.contains("NetTimeouts::exec")),
                "degraded to {err}"
            );
            assert!(eng.worker_down(1), "the timeout left its rank up");

            // The worker's `Sync`, the `Exec` and the failed run's `Release`
            // went out; the late `Done` is the fourth frame, and nothing
            // applies it.
            assert_eq!(frames(), 3);
            open.send(()).unwrap();
            until("the late reply", &|| frames() == 4);
            assert!(eng.take_outputs(g).is_empty(), "the late reply was applied");
            Some(Instant::now())
        });
        let torn_down = torn_down.expect("rank 0's answer");
        assert!(torn_down.elapsed() < PATIENCE, "shutdown waited");
    }

    /// `fail_worker` returns with the rank tombstoned: the rank closes its
    /// connection and the master reads end-of-file — the heartbeat is an
    /// hour, so nothing else could have caught it.
    #[test]
    fn fail_worker_tombstones_a_loopback_rank_without_a_heartbeat_wait() {
        NetEngine::loopback(2, quiet(), |eng| {
            assert!(!eng.worker_down(1));
            eng.fail_worker(1).unwrap();
            assert_eq!(eng.worker_down(1), eng.is_master());
        });
    }

    /// A worker rank that panics, unkilled, fails the loopback call with
    /// its own panic, after rank 0's program has returned.
    #[test]
    fn a_worker_ranks_panic_fails_the_loopback_call() {
        let master_done = AtomicBool::new(false);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NetEngine::loopback(2, quiet(), |eng| {
                if eng.is_master() {
                    master_done.store(true, Ordering::SeqCst);
                } else {
                    panic!("rank {} gives up", eng.rank());
                }
            })
        }));
        assert!(master_done.load(Ordering::SeqCst));
        let panic = run.expect_err("the worker's panic must fail the call");
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(msg, "rank 1 gives up");
    }

    /// Claims and closes on a lease of rank 1 — six from ops of the master
    /// process, five relayed for rank 2 — wait on a home that never answers
    /// (the far end of each connection is a raw link nobody reads) when
    /// rank 1 is declared dead: every one of them is refused then and there
    /// — the exec timeout is an hour — the relay table is empty, and from
    /// then on such a claim is refused without a frame.
    #[test]
    fn declare_dead_answers_every_relayed_claim_at_once() {
        const HERE: usize = 6;
        const FROM_RANK_2: usize = 5;
        let mut cfg = quiet();
        cfg.timeouts.exec = Duration::from_secs(3600);
        let t = LoopbackTransport::new();
        let (addr, mut acceptor) = t.bind().unwrap();
        let far: Vec<Duplex> = (0..2).map(|_| t.connect(&addr).unwrap()).collect();
        let links = far.iter().map(|_| acceptor.accept().unwrap()).collect();
        let master = Master::start(&cfg, 3, links, Vec::new(), Vec::new());
        let mut eng = NetEngine {
            role: Role::Master(Box::new(master)),
        };
        let sink = TraceCollector::new();
        eng.set_trace_sink(sink.clone());
        let shared = shared(&eng);
        let frames = || sink.metrics().get(dps_obs::Counter::FramesSent) as usize;
        let lease = 1u64 << 40; // the first lease rank 1 would open

        // Whatever fails below, the parked ops are let go: the scope joins
        // them before a panic can leave it.
        struct LetGo<'a>(&'a MasterShared);
        impl Drop for LetGo<'_> {
            fn drop(&mut self) {
                self.0.declare_dead(1, "the test is over");
            }
        }

        std::thread::scope(|s| {
            let _let_go = LetGo(&shared);
            let hub = &shared.hub;
            let ops: Vec<_> = (0..HERE)
                .map(|i| match i % 2 {
                    0 => s.spawn(move || hub.claim(lease).is_none()),
                    _ => s.spawn(move || !hub.close(lease)),
                })
                .collect();
            for req in 0..FROM_RANK_2 as u64 {
                let body = HubRequest::Claim { id: lease };
                shared.router.route(hub, 2, req, body);
            }
            // One `Hub` frame each, to rank 1 (an entry is in the table
            // just before its frame is counted).
            until("every operation relayed", &|| {
                shared.router.in_flight() == HERE + FROM_RANK_2 && frames() == HERE + FROM_RANK_2
            });

            let declared = Instant::now();
            assert!(shared.declare_dead(1, "declared dead by the test"));
            assert_eq!(shared.router.in_flight(), 0, "a relay outlived its home");
            for op in ops {
                assert!(op.join().expect("op panicked"), "answered, but not refused");
            }
            assert!(
                declared.elapsed() < PATIENCE,
                "a claim waited out its timeout"
            );
            assert_eq!(
                frames(),
                HERE + 2 * FROM_RANK_2,
                "one HubReply per claim of rank 2"
            );
        });

        assert!(shared.hub.claim(lease).is_none());
        shared
            .router
            .route(&shared.hub, 2, 99, HubRequest::Close { id: lease });
        assert_eq!(shared.router.in_flight(), 0, "relayed to a tombstone");
        assert_eq!(
            frames(),
            HERE + 2 * FROM_RANK_2 + 1,
            "rank 2 is told at once"
        );
        // The far ends close after the engine starts closing: a reader that
        // read their end-of-file before would declare rank 2 dead.
        shared.closing.store(true, Ordering::Release);
        drop(far);
        eng.shutdown();
    }

    /// A worker answers an `Exec` it cannot serve `Failed`, so the master
    /// fails its run at once instead of waiting out a timeout: one ahead of
    /// the rank's `Sync` (only a master that breaks the protocol sends it),
    /// and a token that does not decode, whose answer its thread gives.
    #[test]
    fn an_exec_the_worker_cannot_serve_is_answered_failed() {
        let t = LoopbackTransport::new();
        let (addr, mut acceptor) = t.bind().unwrap();
        let worker_side = t.connect(&addr).unwrap();
        let master_side = acceptor.accept().unwrap();
        let writer = Arc::new(Conn::new(worker_side.tx, Arc::default()));
        let hub_link = Arc::new(HubLink::new(writer.clone(), PATIENCE));
        let hub = Arc::new(ChunkHub::homed(1, Some(hub_link.clone())));
        let (release_tx, _release_rx) = unbounded();
        let (shutdown_tx, shutdown_rx) = unbounded();
        let serving = Arc::new(OnceLock::new());
        let reader = {
            let (rx, serving, w) = (worker_side.rx, serving.clone(), writer.clone());
            spawn("reader".into(), move || {
                let (link, sent) = (hub_link, shutdown_tx);
                worker_reader(rx, 1, serving, hub, link, w, release_tx, sent, true)
            })
        };
        let master = Conn::new(master_side.tx, Arc::default());
        let mut rx = master_side.rx;
        // With `ping`, a `Ping` follows the `Exec`, and the reader answers
        // it behind the `Done` it wrote itself: a dropped `Exec` reads as a
        // `Pong`.
        let mut failed = |token: Payload<'_>, close, ping: bool| {
            let exec = Frame::Exec {
                app: 0,
                tc: 0,
                thread: 0,
                graph: 0,
                node: dps_core::GNodeId(0),
                token,
                close,
                env: dps_core::Envelope::root(),
                out_wave: 0,
                flow: 0,
            };
            master.send(&exec).unwrap();
            if ping {
                master.send(&Frame::Ping).unwrap();
            }
            let failed = match proto::decode_frame(rx.recv().unwrap()).unwrap() {
                Frame::Done {
                    reply: Reply::Failed { token, error },
                    posts,
                    reports,
                    ..
                } if posts.is_empty() && reports.is_empty() => (token, error),
                other => panic!("expected a failed Done, got {other:?}"),
            };
            if ping {
                let pong = proto::decode_frame(rx.recv().unwrap()).unwrap();
                assert_eq!(pong, Frame::Pong);
            }
            failed
        };
        let (token, error) = failed(Payload::empty(), Some(3), true);
        assert!(
            !token && error.contains("ahead of this rank's Sync"),
            "{error}"
        );

        let mut mt = MtEngine::new(2);
        let app = mt.app("served");
        let _: dps_core::ThreadCollection<()> = mt.thread_collection(app, "t", "node1").unwrap();
        let _ = serving.set(mt.serve_for(1, writer));
        let garbage = Payload::Bytes(Bytes::from(vec![0xff; 6]));
        let (token, error) = failed(garbage, None, false);
        assert!(
            token && error.contains("unexpected end of wire data"),
            "{error}"
        );

        master.send(&Frame::Shutdown).unwrap();
        shutdown_rx.recv_timeout(PATIENCE).unwrap();
        reader.join().unwrap();
        mt.shutdown();
    }
}
