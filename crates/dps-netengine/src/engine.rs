//! The network engine: one master kernel plus worker kernels, every process
//! running the same SPMD driver.
//!
//! The master embeds an [`MtEngine`] for the whole control plane (wave
//! accounting, flow control, routing, service calls) and installs a
//! [`RemoteExec`] hook that ships op executions of remotely-hosted cluster
//! nodes to their worker kernels as [`Frame::Exec`] messages. Workers run
//! the same driver code: their declarations fill the same kind of table as
//! the master's (whose [signature](Decls::signature) the master checks
//! theirs against at the sync barrier), their `submit`s are no-ops, and
//! their `run_to_idle`s block until the master broadcasts
//! the run's outputs and its [`Frame::Release`] — so driver-side asserts
//! after a run observe identical outputs on every kernel.

use std::collections::HashMap;
use std::io;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dps_core::{Decls, DpsError, GraphHandle, Result, TokenBox, TokenRegistry};
use dps_mt::{FailHandle, MtConfig, MtEngine, RemoteExec, RemoteLane, RemoteOutcome, RemoteTask};
use dps_obs::TraceCollector;
use dps_sched::{ChunkHub, FeedbackSink};
use dps_serial::{Bytes, Captured, RecvTable};
use parking_lot::Mutex;

use crate::exec::{Conn, DeclStore, ExecHost, HubLink, HubRouter, WireMeter};
use crate::fault::{arm_duplex, KillTx, NetKill, WireFaults};
use crate::proto::{self, send_frame, Frame, Payload};
use crate::transport::{Duplex, FrameRx, LoopbackTransport, TcpTransport, Transport};

/// Every deadline the network engine enforces, in one place. Each field
/// names the `DPS_NET_*` environment variable that overrides it (read by
/// [`NetTimeouts::from_env`], which [`NetEngineConfig::default`] applies),
/// and every timeout error message names the timeout that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetTimeouts {
    /// Connection setup: workers connecting to the master, the master
    /// collecting every worker's declaration sync, and the per-run trace
    /// round. Override: `DPS_NET_CONNECT_TIMEOUT_MS`.
    pub connect: Duration,
    /// How long one remote op execution may take, from the moment it is the
    /// oldest of its lane, before the hosting worker is declared dead (a
    /// later reply would be taken for the next step's). Override:
    /// `DPS_NET_EXEC_TIMEOUT_MS`.
    pub exec: Duration,
    /// Heartbeat period: the master pings every live worker this often.
    /// Override: `DPS_NET_HEARTBEAT_MS`.
    pub heartbeat_interval: Duration,
    /// Consecutive silent heartbeat intervals before a worker is declared
    /// dead. The detection budget — `heartbeat_interval ×
    /// heartbeat_misses` — must stay well under `exec`, so a dead worker
    /// is tombstoned long before an in-flight execution would time out.
    /// Override: `DPS_NET_HEARTBEAT_MISSES`.
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
    /// Defaults with any `DPS_NET_*` environment overrides applied. Worker
    /// processes inherit the master's environment, so overrides stay
    /// SPMD-consistent across the cluster.
    pub fn from_env() -> Self {
        fn ms(name: &str) -> Option<Duration> {
            std::env::var(name)
                .ok()?
                .parse()
                .ok()
                .map(Duration::from_millis)
        }
        let mut t = Self::default();
        if let Some(d) = ms("DPS_NET_CONNECT_TIMEOUT_MS") {
            t.connect = d;
        }
        if let Some(d) = ms("DPS_NET_EXEC_TIMEOUT_MS") {
            t.exec = d;
        }
        if let Some(d) = ms("DPS_NET_HEARTBEAT_MS") {
            t.heartbeat_interval = d;
        }
        if let Some(n) = std::env::var("DPS_NET_HEARTBEAT_MISSES")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            t.heartbeat_misses = n;
        }
        t
    }

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
#[derive(Debug, Clone)]
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

impl Default for NetEngineConfig {
    fn default() -> Self {
        Self {
            mt: MtConfig::default(),
            timeouts: NetTimeouts::from_env(),
            worker_args: None,
            wire_faults: None,
            kills: Vec::new(),
        }
    }
}

/// The multi-process execution engine (see the module docs).
pub struct NetEngine {
    role: Role,
}

enum Role {
    Master(Box<Master>),
    Worker(Box<Worker>),
}

/// Decoded `Output` frames buffered per `(app, graph)` until the worker's
/// `take_outputs` drains them.
type OutputBuf = Arc<Mutex<HashMap<(u32, u32), Vec<TokenBox>>>>;

/// A worker's [`Frame::Trace`]: the run, the worker collector's clock, the
/// encoded log.
type TraceReply = (u64, (u64, u64), Bytes);

/// Reply payload of a [`Frame::Done`], routed to the channel of the lane it
/// names, which its engine thread waits on. The posts are views into the
/// received frame; that thread decodes them, against what the frame
/// captured of the connection's buffer table, when it takes the reply.
struct DoneReply {
    posts: Vec<Bytes>,
    captured: Captured,
    reports: Vec<(u64, f64)>,
    error: Option<String>,
}

/// The reply channels of one worker rank's lanes, by `(app, tc, thread)`.
type LaneTable = Mutex<HashMap<(u32, u32, u32), Sender<DoneReply>>>;

/// Master-side state shared with connection readers, the heartbeat monitor
/// and the remote hook.
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
    /// The lanes worker rank `r` hosts at index `r - 1`, each channel made
    /// when its lane's engine thread starts. A lane's `Done`s come in the
    /// order of its `Exec`s, so its channel hands each reply to the wait it
    /// answers. Cleared when the rank is declared dead.
    lanes: Vec<LaneTable>,
    /// Every deadline the engine enforces.
    timeouts: NetTimeouts,
    /// The declaration table (shared with the in-process harnesses in
    /// loopback mode), frozen and handed to the embedded control plane at
    /// the first-run barrier.
    decls: Arc<DeclStore>,
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

    /// Declare worker `rank` dead and run the degradation path: fail its
    /// lanes' in-flight executions immediately, answer every hub operation
    /// relayed to it (its leases died with it: claims on them find nothing
    /// from here on), and tombstone its cluster node in the
    /// embedded control plane (`FailHandle::fail_node`, whose kill is the
    /// kernel's, as on every engine). Idempotent; a no-op during clean
    /// shutdown.
    fn declare_dead(&self, rank: u32, why: &str) -> bool {
        if self.closing.load(Ordering::Acquire) || rank == 0 {
            return false;
        }
        let Some(flag) = self.dead.get((rank - 1) as usize) else {
            return false;
        };
        if flag.swap(true, Ordering::AcqRel) {
            return false;
        }
        eprintln!("dps-netengine: worker rank {rank} is down: {why}");
        // Wake engine threads blocked on this rank's replies *now*:
        // dropping its lanes' reply senders turns their waits into immediate
        // disconnects, surfaced as NodeDown (not a slow exec timeout).
        self.lanes[(rank - 1) as usize].lock().clear();
        // Same for ops parked on a claim relayed to the dead rank.
        self.router.rank_down(rank);
        if let Some(fail) = self.fail.get() {
            let _ = fail.fail_node(rank);
        }
        true
    }
}

struct Master {
    mt: MtEngine,
    shared: Arc<MasterShared>,
    /// `(rank, (signature, frame bytes))` of each worker's `Sync`.
    sync_rx: Receiver<(u32, (u64, usize))>,
    /// Loopback harnesses share the master's declarations — no sync
    /// barrier needed.
    presynced: bool,
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
    /// Loopback harness hosts, retained so an attached trace sink reaches
    /// their executor lanes directly (no wire round in-process).
    harness_hosts: Vec<Arc<ExecHost>>,
    /// `Trace` replies routed from the connection readers, with the rank
    /// that sent each.
    trace_rx: Receiver<(u32, TraceReply)>,
    /// Ranks with a scheduled kill armed ([`NetEngineConfig::kills`]): the
    /// schedule may fire at any point — including between run completion
    /// and shutdown — so these ranks are allowed to die without their exit
    /// status counting as a worker failure.
    kill_armed: Vec<u32>,
}

struct Worker {
    rank: u32,
    decls: Arc<DeclStore>,
    writer: Arc<Conn>,
    host: Arc<ExecHost>,
    /// This rank's chunk hub: the leases its ops open live here, the
    /// others are a [`HubLink`] round trip away.
    hub: Arc<ChunkHub>,
    outputs: OutputBuf,
    release_rx: Receiver<(u64, Option<String>)>,
    shutdown_rx: Receiver<()>,
    synced: bool,
    run_seq: u64,
    release_timeout: Duration,
    started: Instant,
    threads: Vec<JoinHandle<()>>,
    down: bool,
}

// ---------------------------------------------------------------------------
// The remote-execution hook
// ---------------------------------------------------------------------------

/// [`RemoteExec`] over the master's connections: cluster node 0 lives in
/// the master process, node `n` in worker rank `n` (kernel `kernel{n}`).
///
/// The in-order contract of the seam holds by construction: the `Exec`
/// frames of one lane leave on one FIFO connection, in shipping order, and
/// the worker's [`ExecHost`] runs them on one executor lane that executes
/// and replies strictly in arrival order, on the same connection.
struct NetRemote(Arc<MasterShared>);

/// One remote thread's lane: its `Exec`s go out on `conn`, the connection
/// of the worker rank hosting it, and its `Done`s come back on `replies`,
/// in that order.
struct NetLane {
    shared: Arc<MasterShared>,
    conn: Arc<Conn>,
    registry: Arc<TokenRegistry>,
    /// The thread's `(app, tc, thread)`, which its frames name.
    key: (u32, u32, u32),
    /// The worker rank hosting the thread, which is its cluster node.
    rank: u32,
    replies: Receiver<DoneReply>,
}

fn node_down(host: u32, target: String) -> DpsError {
    DpsError::NodeDown {
        node: format!("kernel{host}"),
        target,
    }
}

impl RemoteExec for NetRemote {
    fn lane(&self, app: u32, tc: u32, thread: u32, node: u32) -> Option<Box<dyn RemoteLane>> {
        // Worker rank `n` hosts cluster node `n`; node 0 runs here.
        let i = node.checked_sub(1)? as usize;
        let (s, key) = (&self.0, (app, tc, thread));
        let (tx, replies) = unbounded();
        // Registered under the lock `declare_dead` sweeps under, after it
        // raised the flag: a lane either sees the tombstone here (no sender:
        // every wait fails at once) or is swept there.
        let mut lanes = s.lanes[i].lock();
        if !s.rank_dead(node) {
            lanes.insert(key, tx);
        }
        Some(Box::new(NetLane {
            shared: s.clone(),
            conn: s.conns[i].clone(),
            registry: s.decls.with(|d| d.apps()[app as usize].registry.clone()),
            key,
            rank: node,
            replies,
        }))
    }
}

impl RemoteLane for NetLane {
    /// Frame `task` as an `Exec` and send it to the rank hosting the lane.
    fn ship(&mut self, task: RemoteTask) -> std::result::Result<(), DpsError> {
        if self.shared.rank_dead(self.rank) {
            // Tombstoned rank: fail fast so the router sheds the work to
            // survivors instead of burning the exec timeout per call.
            return Err(node_down(
                self.rank,
                "worker process is down (tombstoned)".into(),
            ));
        }
        // The token is encoded once, straight into the frame.
        let token = task
            .token
            .as_deref()
            .map_or_else(Payload::empty, Payload::Token);
        let (app, tc, thread) = self.key;
        let frame = Frame::Exec {
            app,
            tc,
            thread,
            graph: task.graph,
            node: task.node,
            kind: task.kind,
            token,
            wave: task.wave,
        };
        (self.conn.send(&frame)).map_err(|e| node_down(self.rank, format!("send failed: {e}")))
    }

    /// The exec timeout runs from here — from the moment the op is the
    /// oldest of its lane, with everything shipped before it answered.
    fn wait(&mut self) -> std::result::Result<RemoteOutcome, DpsError> {
        let s = &self.shared;
        let done = match self.replies.recv_timeout(s.timeouts.exec) {
            Ok(done) => done,
            Err(RecvTimeoutError::Disconnected) => {
                // The liveness layer declared the rank dead and dropped our
                // reply sender — fail now, not at the exec timeout.
                return Err(node_down(
                    self.rank,
                    "worker process died mid-execution (heartbeat, EOF or exec timeout)".into(),
                ));
            }
            Err(RecvTimeoutError::Timeout) => {
                // A later reply would be taken for the next step's: the lane
                // is out of step for good. (It is closed on its own too, as
                // no rank is declared dead during shutdown.)
                let why = format!(
                    "no reply within exec timeout {:?} (DPS_NET_EXEC_TIMEOUT_MS)",
                    s.timeouts.exec
                );
                s.lanes[(self.rank - 1) as usize].lock().remove(&self.key);
                s.declare_dead(self.rank, &why);
                return Err(node_down(self.rank, why));
            }
        };
        if let Some(msg) = done.error {
            return Err(DpsError::OperationContract {
                node: format!("kernel{}", self.rank),
                reason: msg,
            });
        }
        let posts = (done.posts.iter())
            .map(|b| proto::decode_received(&self.registry, b, &done.captured))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(RemoteOutcome {
            posts,
            reports: done.reports,
        })
    }
}

// ---------------------------------------------------------------------------
// Connection readers
// ---------------------------------------------------------------------------

/// Master-side reader of one worker connection: hands each `Done` to the
/// channel of the lane it names, serves or relays hub traffic, forwards the
/// sync signature and the trace logs — and feeds the liveness layer: every
/// inbound frame refreshes the rank's heartbeat clock, and a connection
/// error (EOF, reset) or protocol corruption declares the rank dead on the
/// spot.
fn master_reader(
    shared: Arc<MasterShared>,
    rank: u32,
    mut rx: Box<dyn FrameRx>,
    sync_tx: Sender<(u32, (u64, usize))>,
    trace_tx: Sender<(u32, TraceReply)>,
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
                    posts,
                    reports,
                    error,
                },
                captured,
            )) => {
                // It answers the lane's oldest `Exec` not yet answered. A lane
                // gone from the table was closed: what it is sent is dropped.
                let lanes = shared.lanes[(rank - 1) as usize].lock();
                if let Some(tx) = lanes.get(&(app, tc, thread)) {
                    let reply = DoneReply {
                        posts: posts.into_iter().map(Payload::into_bytes).collect(),
                        captured,
                        reports,
                        error,
                    };
                    let _ = tx.send(reply);
                }
            }
            Ok((Frame::Hub { req, body }, _)) => shared.router.route(&shared.hub, rank, req, body),
            Ok((Frame::HubReply { req, body }, _)) => shared.router.complete(req, body),
            Ok((Frame::Sync { sig }, _)) => {
                let _ = sync_tx.send((rank, (sig, len)));
            }
            Ok((Frame::Trace { run, clock, bytes }, _)) => {
                let _ = trace_tx.send((rank, (run, clock, bytes)));
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
                         DPS_NET_HEARTBEAT_MS / DPS_NET_HEARTBEAT_MISSES)",
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

/// Worker-side reader of the master connection.
#[allow(clippy::too_many_arguments)]
fn worker_reader(
    mut rx: Box<dyn FrameRx>,
    host: Arc<ExecHost>,
    hub: Arc<ChunkHub>,
    hub_link: Arc<HubLink>,
    decls: Arc<DeclStore>,
    outputs: OutputBuf,
    writer: Arc<Conn>,
    release_tx: Sender<(u64, Option<String>)>,
    shutdown_tx: Sender<()>,
) {
    let mut table = RecvTable::default();
    while let Ok(bytes) = rx.recv() {
        match proto::decode_frame_on(bytes, &mut table) {
            Ok((exec @ Frame::Exec { .. }, captured)) => host.dispatch(exec, captured),
            Ok((Frame::Hub { req, body }, _)) => {
                // A claim on a lease opened here, relayed by the master.
                let body = body.serve(&hub);
                let _ = writer.send(&Frame::HubReply { req, body });
            }
            Ok((Frame::HubReply { req, body }, _)) => hub_link.complete(req, body),
            Ok((Frame::Output { app, graph, token }, captured)) => {
                // Decoded here, straight out of the received frame.
                let token = token.into_bytes();
                let decoded = decls.with(|d| {
                    d.apps()
                        .get(app as usize)
                        .map(|a| proto::decode_received(&a.registry, &token, &captured))
                });
                match decoded {
                    Some(Ok(tok)) => outputs.lock().entry((app, graph)).or_default().push(tok),
                    _ => eprintln!("dps-netengine: dropping undecodable output of app {app}"),
                }
            }
            Ok((Frame::Release { run, error }, _)) => {
                // A traced worker answers a successful release with its log
                // of the run, taken (so drained) before the run returns here.
                if let (None, Some(c)) = (&error, host.trace_collector()) {
                    let clock = c.clock();
                    let bytes = dps_obs::wire::encode_log(&c.take_log()).into();
                    let _ = writer.send(&Frame::Trace { run, clock, bytes });
                }
                let _ = release_tx.send((run, error));
            }
            Ok((Frame::Ping, _)) => {
                let _ = writer.send(&Frame::Pong);
            }
            Ok((Frame::Die, _)) => {
                // Scheduled crash: die *abruptly* — no Release handshake, no
                // host teardown — so the master's death detection is
                // exercised against a real disappearance.
                std::process::exit(86);
            }
            Ok((Frame::Shutdown, _)) => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    host.stop();
    let _ = shutdown_tx.send(());
}

/// In-process worker harness used by loopback mode: executes `Exec` frames
/// against the master's own declaration store.
fn harness_reader(mut rx: Box<dyn FrameRx>, host: Arc<ExecHost>, writer: Arc<Conn>) {
    let mut table = RecvTable::default();
    while let Ok(bytes) = rx.recv() {
        match proto::decode_frame_on(bytes, &mut table) {
            Ok((exec @ Frame::Exec { .. }, captured)) => host.dispatch(exec, captured),
            Ok((Frame::Ping, _)) => {
                let _ = writer.send(&Frame::Pong);
            }
            Ok((Frame::Die, _)) => {
                // In-process stand-in for a crash: stop reading and drop the
                // connection. The harness's executor lanes stay up (we can't
                // kill a process we share), but from the master's side the
                // rank goes silent exactly like a dead worker.
                return;
            }
            Ok((Frame::Shutdown, _)) => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    host.stop();
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

impl NetEngine {
    /// Single-process engine over the in-memory loopback transport: a
    /// master role plus one in-process worker harness per cluster node
    /// `1..nodes`. Same wire protocol, same remote execution paths, no
    /// processes — the configuration differential tests and examples use.
    pub fn loopback(nodes: usize) -> Self {
        Self::loopback_with(nodes, NetEngineConfig::default())
    }

    /// [`loopback`](Self::loopback) with explicit configuration.
    pub fn loopback_with(nodes: usize, cfg: NetEngineConfig) -> Self {
        assert!(nodes >= 1, "the cluster needs at least the master node");
        let transport = LoopbackTransport::new();
        let (addr, mut acceptor) = transport.bind().expect("loopback bind");
        let decls = DeclStore::over(nodes);
        let mt = MtEngine::with_config(nodes, cfg.mt.clone());

        let mut links = Vec::new();
        let mut threads = Vec::new();
        let mut harness_hosts = Vec::new();
        for rank in 1..nodes as u32 {
            let mut worker_side = transport.connect(&addr).expect("loopback connect");
            let mut master_side = acceptor.accept().expect("loopback accept");
            // Symmetric fault arming on both connection ends (SPMD config
            // symmetry guarantees real workers do the same).
            if let Some(wf) = &cfg.wire_faults {
                master_side = arm_duplex(master_side, wf.cfg, wf.stream(rank, 0));
                worker_side = arm_duplex(worker_side, wf.cfg, wf.stream(rank, 1));
            }
            links.push(master_side);
            let hwriter = Arc::new(Conn::new(worker_side.tx, Arc::default()));
            let host = Arc::new(ExecHost::new(decls.clone(), hwriter.clone(), rank as u16));
            harness_hosts.push(host.clone());
            let hrx = worker_side.rx;
            threads.push(spawn(format!("dps-net-harness{rank}"), move || {
                harness_reader(hrx, host, hwriter)
            }));
        }

        NetEngine {
            role: Role::Master(Box::new(Master::start(
                &cfg,
                mt,
                decls,
                links,
                threads,
                Vec::new(),
                harness_hosts,
            ))),
        }
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
                             timeout {:?} (DPS_NET_CONNECT_TIMEOUT_MS)",
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

        let decls = DeclStore::over(nodes);
        let mt = MtEngine::with_config(nodes, cfg.mt.clone());
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

        Ok(NetEngine {
            role: Role::Master(Box::new(Master::start(
                &cfg,
                mt,
                decls,
                links,
                vec![accept_thread],
                children,
                Vec::new(),
            ))),
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

        let decls = DeclStore::over(nodes);
        let writer = Arc::new(Conn::new(duplex.tx, Arc::default()));
        let host = Arc::new(ExecHost::new(decls.clone(), writer.clone(), rank as u16));
        let hub_link = Arc::new(HubLink::new(writer.clone(), cfg.timeouts.exec));
        let hub = Arc::new(ChunkHub::homed(rank, Some(hub_link.clone())));
        let outputs: OutputBuf = Arc::new(Mutex::new(HashMap::new()));
        let (release_tx, release_rx) = unbounded();
        let (shutdown_tx, shutdown_rx) = unbounded();
        let reader = {
            let host = host.clone();
            let hub = hub.clone();
            let decls = decls.clone();
            let outputs = outputs.clone();
            let writer = writer.clone();
            let rx = duplex.rx;
            spawn("dps-net-reader".into(), move || {
                worker_reader(
                    rx,
                    host,
                    hub,
                    hub_link,
                    decls,
                    outputs,
                    writer,
                    release_tx,
                    shutdown_tx,
                )
            })
        };

        Ok(NetEngine {
            role: Role::Worker(Box::new(Worker {
                rank,
                decls,
                writer,
                host,
                hub,
                outputs,
                release_rx,
                shutdown_rx,
                synced: false,
                run_seq: 0,
                release_timeout: cfg.timeouts.release(cfg.mt.run_timeout),
                started: Instant::now(),
                threads: vec![reader],
                down: false,
            })),
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
            Role::Worker(w) => w.host.trace_collector(),
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

    /// Kill worker `rank` (1-based) mid-run. On the master a real worker
    /// process is killed outright (SIGKILL — the reader sees EOF) and a
    /// loopback harness is sent [`Frame::Die`] (it drops its connection and
    /// goes silent — the heartbeat budget catches it). Detection then runs
    /// the engine's *natural* liveness path; nothing is tombstoned here
    /// directly. A no-op on worker roles, so SPMD drivers call it
    /// unconditionally.
    pub fn fail_worker(&mut self, rank: u32) -> Result<()> {
        match &mut self.role {
            Role::Master(m) => m.fail_worker(rank),
            Role::Worker(_) => Ok(()),
        }
    }

    /// Liveness observability: has worker `rank` been declared dead
    /// (tombstoned)? Detection is asynchronous — EOF classification or the
    /// heartbeat budget — so a just-killed rank reads `false` until the
    /// liveness layer catches it. Always `false` on worker roles and for
    /// out-of-range ranks.
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
    /// The master role over established worker connections (`links[r - 1]`
    /// is the master's side of rank `r`'s, fault layer already armed):
    /// arms the scheduled kills, then starts one reader per connection and
    /// the heartbeat monitor. `children` are the worker processes (none in
    /// loopback mode, where `harness_hosts` stand in for them and share
    /// `decls`, so no sync barrier is needed).
    fn start(
        cfg: &NetEngineConfig,
        mt: MtEngine,
        decls: Arc<DeclStore>,
        links: Vec<Duplex>,
        mut threads: Vec<JoinHandle<()>>,
        children: Vec<Child>,
        harness_hosts: Vec<Arc<ExecHost>>,
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
            lanes: (0..worker_count).map(|_| Mutex::default()).collect(),
            timeouts: cfg.timeouts,
            decls,
            dead,
            last_rx: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            fail: OnceLock::new(),
            closing: AtomicBool::new(false),
        });
        let (sync_tx, sync_rx) = unbounded();
        let (trace_tx, trace_rx) = unbounded();
        for (i, rx) in rxs.into_iter().enumerate() {
            let shared = shared.clone();
            let sync_tx = sync_tx.clone();
            let trace_tx = trace_tx.clone();
            threads.push(spawn(format!("dps-net-reader{}", i + 1), move || {
                master_reader(shared, i as u32 + 1, rx, sync_tx, trace_tx)
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
            mt,
            shared,
            sync_rx,
            presynced: children.is_empty(),
            ready: false,
            run_seq: 0,
            out_buf: HashMap::new(),
            children,
            threads,
            hb_stop: Some(hb_stop),
            down: false,
            trace: None,
            harness_hosts,
            trace_rx,
            kill_armed: cfg.kills.iter().map(|k| k.rank).collect(),
        }
    }

    /// First-submit barrier: wait for every worker's declaration signature,
    /// refuse divergent schedules, then hand the finished table to the
    /// embedded engine and install the remote hook so it starts shipping
    /// remote executions.
    fn ensure_net_ready(&mut self) -> Result<()> {
        if self.ready {
            return Ok(());
        }
        let table = self.shared.decls.frozen();
        if !self.presynced {
            let expect = table.signature();
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
                        "declaration sync (connect timeout {:?}; \
                         DPS_NET_CONNECT_TIMEOUT_MS)",
                        self.shared.timeouts.connect
                    ),
                });
            }
        }
        self.mt.adopt(table);
        if !self.shared.conns.is_empty() {
            self.mt
                .set_remote_exec(Arc::new(NetRemote(self.shared.clone())));
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
        let run = self.mt.wait_for_outputs(g, expected);
        if run.is_ok() {
            // Outputs first, then the release, on each connection: FIFO
            // framing guarantees the worker's returning run_to_idle already
            // sees every output.
            let outs = self.mt.drain_outputs(g);
            for tok in &outs {
                self.broadcast(&Frame::Output {
                    app: g.app,
                    graph: g.graph,
                    token: Payload::Token(tok.as_ref()),
                });
            }
            let buf = self.out_buf.entry((g.app, g.graph)).or_default();
            buf.extend(outs);
        }
        self.release(run.as_ref().err());
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

    /// Release the run on every worker, with its error if it failed, and
    /// merge the trace log each traced worker answers a successful release
    /// with before `run_to_idle` returns. Loopback harnesses write into the
    /// master collector directly. Best-effort: a worker that cannot answer
    /// costs its events, never the run.
    fn release(&self, failed: Option<&DpsError>) {
        let release = Frame::Release {
            run: self.run_seq,
            error: failed.map(DpsError::to_string),
        };
        let owed = (1..)
            .zip(&self.shared.conns)
            .map(|(rank, conn)| conn.send(&release).is_ok() && !self.shared.rank_dead(rank))
            .collect();
        let Some(collector) = &self.trace else {
            return;
        };
        if failed.is_some() || self.presynced {
            return;
        }
        let _ = self.gather(owed, &self.trace_rx, |_, (run, clock, bytes)| {
            if run != self.run_seq {
                return Ok(false); // stale reply of an earlier, timed-out round
            }
            match dps_obs::wire::decode_log(&bytes) {
                Some(log) => collector.ingest(&log, clock),
                None => eprintln!("dps-netengine: dropping an undecodable worker trace log"),
            }
            Ok(true)
        });
    }

    fn fail_worker(&mut self, rank: u32) -> Result<()> {
        if rank == 0 || rank as usize > self.shared.conns.len() {
            return Err(DpsError::InvalidGraph {
                reason: format!("no worker rank {rank} to fail"),
            });
        }
        match self.children.get_mut((rank - 1) as usize) {
            // Real worker process: kill it abruptly; its connection EOFs.
            Some(child) => {
                let _ = child.kill();
            }
            // Loopback harness: tell it to drop the connection and go
            // silent; the heartbeat budget does the rest.
            None => {
                let _ = self.shared.conns[(rank - 1) as usize].send(&Frame::Die);
            }
        }
        Ok(())
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
        // Stop the control plane first: joining its threads guarantees no
        // further remote executions are in flight when Shutdown goes out.
        self.mt.shutdown();
        self.broadcast(&Frame::Shutdown);
        // Release the loopback harness hosts: each holds the worker-side
        // writer of its connection, and the master readers only exit once
        // that writer drops and their recv sees the channel close.
        self.harness_hosts.clear();
        let mut failures = Vec::new();
        for (i, mut child) in self.children.drain(..).enumerate() {
            let rank = i as u32 + 1;
            if self.shared.rank_dead(rank) || self.kill_armed.contains(&rank) {
                // Tombstoned (killed or wedged) — or carrying an armed kill
                // schedule, which may fire between run completion and this
                // teardown: reap without judgment; its exit status is the
                // fault, not a failure.
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
    fn sync_once(&mut self) {
        if self.synced {
            return;
        }
        self.synced = true;
        let sig = self.decls.with(Decls::signature);
        let _ = self.writer.send(&Frame::Sync { sig });
    }

    fn run_to_idle(&mut self) -> Result<()> {
        self.sync_once();
        self.run_seq += 1;
        match self.release_rx.recv_timeout(self.release_timeout) {
            Ok((run, error)) => {
                if run != self.run_seq {
                    return Err(DpsError::IncompleteWaves {
                        waves: vec![format!(
                            "release for run {run} arrived while waiting for run {}",
                            self.run_seq
                        )],
                    });
                }
                match error {
                    None => Ok(()),
                    Some(msg) => Err(DpsError::IncompleteWaves { waves: vec![msg] }),
                }
            }
            Err(_) => Err(DpsError::IncompleteWaves {
                waves: vec![format!(
                    "master did not release run {} within release timeout {:?} \
                     (2 × DPS_NET_CONNECT_TIMEOUT_MS + the run timeout)",
                    self.run_seq, self.release_timeout
                )],
            }),
        }
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        // Hold the process open until the master says the run is over (the
        // reader forwards its exit on either Shutdown or a closed socket).
        let _ = self.shutdown_rx.recv_timeout(self.release_timeout);
        self.host.stop();
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

    /// Every role declares on a table of its own kernel, closed once the
    /// master froze its own at the first-run barrier.
    fn declare<R>(&mut self, f: impl FnOnce(&mut Decls) -> R) -> R {
        let decls = match &self.role {
            Role::Master(m) => &m.shared.decls,
            Role::Worker(w) => &w.decls,
        };
        decls.update(f)
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
                // rank 0's chunk hub bumps the lease/claim counters;
                // loopback harness lanes write into the collector directly.
                m.mt.set_trace_sink(sink.clone());
                m.shared.hub.attach_metrics(sink.metrics_arc());
                m.shared.meter.attach(sink.metrics_arc());
                for host in &m.harness_hosts {
                    host.set_trace(sink.clone());
                }
                m.trace = Some(sink);
            }
            Role::Worker(w) => {
                // Worker lanes record locally; the log ships to the master
                // in the `Trace` answering each successful `Release`.
                assert!(!w.synced, "register the trace sink before the first run");
                w.host.set_trace(sink);
            }
        }
    }

    fn submit(&mut self, graph: GraphHandle, token: TokenBox) -> Result<()> {
        match &mut self.role {
            Role::Master(m) => {
                m.ensure_net_ready()?;
                m.mt.submit(graph, token);
                Ok(())
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
                let _ = graph;
                let _ = expected_outputs;
                w.run_to_idle()
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
                .lock()
                .remove(&(graph.app, graph.graph))
                .unwrap_or_default(),
        }
    }

    fn now_secs(&self) -> f64 {
        match &self.role {
            Role::Master(m) => m.mt.elapsed().as_secs_f64(),
            Role::Worker(w) => w.started.elapsed().as_secs_f64(),
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
    use dps_sched::remote::HubRequest;

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

    /// Ten shards split on the master, merged on the one worker: a traced
    /// run counts every frame through rank 0 — ten `Exec`s out, ten `Done`s
    /// back, the `Output`, the `Release`, the `Shutdown`. The heartbeat
    /// interval is an hour, so no `Ping` joins them — and `shutdown`
    /// returning at all shows the monitor's wait for its next tick is cut
    /// short, not slept out.
    #[test]
    fn traced_runs_count_every_frame_and_shutdown_does_not_wait_for_a_tick() {
        let mut cfg = NetEngineConfig::default();
        cfg.timeouts.heartbeat_interval = Duration::from_secs(3600);
        let mut eng = NetEngine::loopback_with(2, cfg);
        let sink = TraceCollector::new();
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
        assert_eq!(downcast::<Total>(out).unwrap().sum, 45);
        let torn_down = Instant::now();
        eng.shutdown();
        assert!(
            torn_down.elapsed() < Duration::from_secs(60),
            "shutdown waited out a heartbeat tick"
        );

        let m = sink.metrics();
        assert_eq!(m.get(dps_obs::Counter::FramesSent), 23);
        let bytes = m.get(dps_obs::Counter::WireBytesSent);
        // Every frame is at least its discriminant; an `Exec` also carries
        // 21 bytes of ids, a tagged 8-byte token and its wave.
        assert!(
            bytes > 23 * 4 + 10 * (21 + 4 + 18 + 8),
            "{bytes} wire bytes"
        );
        assert!(bytes < 23 * 200, "{bytes} wire bytes");
    }

    /// How long a test waits for something another thread is about to do.
    const PATIENCE: Duration = Duration::from_secs(20);

    /// [`Sum`], whose consumes wait until the test closes the gate.
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
        let mut eng = NetEngine::loopback(2);
        let sink = TraceCollector::new();
        eng.set_trace_sink(sink.clone());
        let app = eng.app("two-waves");
        let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0 node1").unwrap();
        let (open, gate) = unbounded::<()>();
        let gate = Arc::new(Mutex::new(gate));
        let mut b = GraphBuilder::new("two-waves");
        let s = b.split(&tc, || ToThread(0), || Fan);
        let m = b.merge(&tc, || ToThread(1), move || GatedSum(Sum(0), gate.clone()));
        b.add(s >> m);
        let g = eng.build_graph(b).unwrap();
        for shards in [10, 6] {
            eng.submit(g, Box::new(Job { shards })).unwrap();
        }
        let enqueued = || sink.metrics().get(dps_obs::Counter::TokensEnqueued);
        until("both waves' first shards queued", &|| {
            enqueued() == 2 + 8 + 6
        });
        drop(open);
        eng.run_to_idle(g, 2).unwrap();
        let mut sums: Vec<u64> = (eng.take_outputs(g).into_iter())
            .map(|out| downcast::<Total>(out).unwrap().sum)
            .collect();
        sums.sort_unstable();
        assert_eq!(sums, [15, 45]);
        eng.shutdown();
    }

    fn until(what: &str, done: &dyn Fn() -> bool) {
        let deadline = Instant::now() + PATIENCE;
        while !done() {
            assert!(Instant::now() < deadline, "never saw {what}");
            std::thread::yield_now();
        }
    }

    /// A leaf that tells the test it started, then holds its lane until
    /// the test lets one execution go (or closes the gate for good).
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

    /// A traced loopback engine whose exec timeout is `exec` and whose
    /// heartbeat is an hour, running [`Fan`] on node 0, [`Hold`] on node 1
    /// and [`Sum`] back on node 0: `starts` has a unit each time the leaf
    /// starts, and a unit on `open` lets one execution go.
    struct Held {
        eng: NetEngine,
        g: GraphHandle,
        shared: Arc<MasterShared>,
        sink: Arc<TraceCollector>,
        starts: Receiver<()>,
        open: Sender<()>,
    }

    fn held(exec: Duration) -> Held {
        let mut cfg = NetEngineConfig::default();
        cfg.timeouts.exec = exec;
        cfg.timeouts.heartbeat_interval = Duration::from_secs(3600);
        let mut eng = NetEngine::loopback_with(2, cfg);
        let sink = TraceCollector::new();
        eng.set_trace_sink(sink.clone());
        let app = eng.app("held");
        let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0 node1").unwrap();
        let (started, starts) = unbounded();
        let (open, gate) = unbounded();
        let gate = Arc::new(Mutex::new(gate));
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
        let shared = match &eng.role {
            Role::Master(m) => m.shared.clone(),
            Role::Worker(_) => unreachable!("loopback engines are masters"),
        };
        Held {
            eng,
            g,
            shared,
            sink,
            starts,
            open,
        }
    }

    /// Seven `Exec`s in flight on one lane when their rank is declared
    /// dead: every one of them fails with `NodeDown` then and there — the
    /// exec timeout is an hour, so a single one left to wait it out would
    /// hang the teardown — no reply slot outlives the rank, and the run
    /// degrades to `NodeDown`, nothing else.
    #[test]
    fn declare_dead_fails_every_exec_in_flight_at_once() {
        const SHARDS: usize = 8;
        let mut h = held(Duration::from_secs(3600));
        let patience = PATIENCE;
        let frames = || h.sink.metrics().get(dps_obs::Counter::FramesSent);

        h.eng
            .submit(
                h.g,
                Box::new(Job {
                    shards: SHARDS as u32,
                }),
            )
            .unwrap();
        // The first shard holds the lane, and the proxy thread ends up
        // parked on its reply, with the rest of the wave (the flow window is
        // 8) shipped or in its queue: the job was enqueued, then the shards.
        h.starts
            .recv_timeout(patience)
            .expect("first shard started");
        let enqueued = || h.sink.metrics().get(dps_obs::Counter::TokensEnqueued);
        until("the whole wave queued", &|| enqueued() == 1 + SHARDS as u64);
        // Let that one go. The proxy ships whatever is still queued before
        // it waits again, on the second shard, which holds the lane in turn.
        h.open.send(()).unwrap();
        h.starts
            .recv_timeout(patience)
            .expect("second shard started");
        // Eight `Exec`s shipped on the lane, and the first one's `Done`
        // back: seven owed a reply. The lane's one channel is in the table.
        until("seven execs in flight", &|| frames() == SHARDS as u64 + 1);
        assert_eq!(
            h.shared.lanes[0].lock().len(),
            1,
            "one reply channel per lane"
        );

        assert!(h.shared.declare_dead(1, "declared dead by the test"));
        assert_eq!(
            h.shared.lanes[0].lock().len(),
            0,
            "a reply slot outlived its rank"
        );
        let failed = Instant::now();
        let err = h.eng.run_to_idle(h.g, 1).unwrap_err();
        assert!(
            matches!(err, DpsError::NodeDown { .. }),
            "degraded to {err}"
        );
        // Free the harness lane (it shares this process), then tear down:
        // the control plane joins its threads, so this returns only once
        // every in-flight wait has.
        drop(h.open);
        h.eng.shutdown();
        assert!(
            failed.elapsed() < patience,
            "an exec waited out its timeout"
        );

        let log = h.sink.take_log();
        let down = log
            .events
            .iter()
            .filter(|e| match e.kind {
                dps_obs::EventKind::OpFailed { op } => log.label(op).contains("is down"),
                _ => false,
            })
            .count();
        assert_eq!(down, SHARDS - 1, "one NodeDown per exec in flight");
        // Eight if the whole wave was queued before the proxy first waited.
        let peak = h.sink.metrics().gauge(dps_obs::Gauge::RemoteInFlightPeak);
        assert!(peak >= SHARDS as u64 - 1, "in-flight peak {peak}");
    }

    /// A gated leaf on node 1 outlasts the exec timeout: the run fails with a
    /// `NodeDown` naming `DPS_NET_EXEC_TIMEOUT_MS`, and the rank is declared
    /// dead (nothing else could: the heartbeat is an hour). The late `Done`
    /// is dropped, not applied, and `shutdown` returns promptly.
    #[test]
    fn an_exec_timeout_declares_its_rank_dead_and_drops_the_late_reply() {
        let mut h = held(Duration::from_millis(200));
        let frames = || h.sink.metrics().get(dps_obs::Counter::FramesSent);

        h.eng.submit(h.g, Box::new(Job { shards: 1 })).unwrap();
        h.starts.recv_timeout(PATIENCE).expect("the leaf started");
        let err = h.eng.run_to_idle(h.g, 1).unwrap_err();
        assert!(
            matches!(&err, DpsError::NodeDown { target, .. }
                if target.contains("DPS_NET_EXEC_TIMEOUT_MS")),
            "degraded to {err}"
        );
        assert!(h.eng.worker_down(1), "the timeout left its rank up");
        assert_eq!(h.shared.lanes[0].lock().len(), 0, "the lane is still open");

        // The `Exec` and the failed run's `Release` went out; the late
        // `Done` is the third frame, and nothing waits for it.
        assert_eq!(frames(), 2);
        h.open.send(()).unwrap();
        until("the late reply", &|| frames() == 3);
        assert!(
            h.eng.take_outputs(h.g).is_empty(),
            "the late reply was applied"
        );
        let torn_down = Instant::now();
        h.eng.shutdown();
        assert!(torn_down.elapsed() < PATIENCE, "shutdown waited");
    }

    /// Claims and closes on a lease of rank 1 — six from ops of the master
    /// process, five relayed for rank 2 — wait on a home that never answers
    /// (a loopback harness does not speak the hub protocol) when rank 1 is
    /// declared dead: every one of them is refused then and there — the
    /// exec timeout is an hour — the relay table is empty, and from then on
    /// such a claim is refused without a frame.
    #[test]
    fn declare_dead_answers_every_relayed_claim_at_once() {
        const HERE: usize = 6;
        const FROM_RANK_2: usize = 5;
        let mut cfg = NetEngineConfig::default();
        cfg.timeouts.exec = Duration::from_secs(3600);
        cfg.timeouts.heartbeat_interval = Duration::from_secs(3600);
        let mut eng = NetEngine::loopback_with(3, cfg);
        let sink = TraceCollector::new();
        eng.set_trace_sink(sink.clone());
        let shared = match &eng.role {
            Role::Master(m) => m.shared.clone(),
            Role::Worker(_) => unreachable!("loopback engines are masters"),
        };
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
        eng.shutdown();
    }
}
