//! Worker-side execution: the declaration store shared by SPMD roles, the
//! connection writer every task of a kernel sends through ([`Conn`]), the
//! per-thread executor host that replays [`Frame::Exec`] tasks, and the
//! forwarding chunk-hub delegate.
//!
//! A worker kernel holds the *operations* of the threads its node hosts —
//! the master keeps everything else (wave accounting, flow control,
//! routing). The [`ExecHost`] mirrors the threading model of the master's
//! engine: one executor task per (application, collection, thread) triple,
//! each owning its thread data and its operation instances (the kernel's
//! [`Instances`] table, as a local thread holds one), so remote execution
//! preserves exactly the state a local thread would have.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dps_core::internal::kernel::{Instances, Wave};
use dps_core::internal::ExecInfo;
use dps_core::{DpsError, Flowgraph, OpKind, TokenBox, TokenRegistry};
use dps_obs::{Counter, MetricsRegistry};
use dps_sched::remote::{HubRequest, HubResponse, RemoteHub};
use dps_sched::{ChunkCalc, ChunkLease};
use dps_serial::Bytes;
use parking_lot::Mutex;

use crate::proto::{self, Frame, Payload, TaskKind};
use crate::runtime::{AsyncRuntime, TaskHandle};
use crate::transport::FrameTx;

/// How long an executor waits for a declaration to appear before giving up
/// (the master only sends work after the sync barrier, so a miss here means
/// the SPMD driver diverged despite the signature check).
const DECL_WAIT: Duration = Duration::from_secs(10);

/// How long a forwarded hub operation waits for its reply.
const HUB_WAIT: Duration = Duration::from_secs(60);

pub(crate) struct TcDecl {
    pub nodes: Vec<u32>,
    pub factory: Arc<dyn Fn() -> Box<dyn Any + Send> + Send + Sync>,
}

#[derive(Default)]
pub(crate) struct AppDecl {
    /// Shared with the executor lanes, which snapshot it; declarations
    /// precede every run, so `Arc::make_mut` never copies in practice.
    pub registry: Arc<TokenRegistry>,
    pub tcs: Vec<TcDecl>,
    pub graphs: Vec<Arc<Flowgraph>>,
}

#[derive(Default)]
pub(crate) struct Decls {
    pub apps: Vec<AppDecl>,
}

/// Declarations, shared between the declaring role and the executors. The
/// condvar wakes executors waiting for a graph that is still being
/// declared (loopback harnesses start before the master finishes
/// declaring).
#[derive(Default)]
pub(crate) struct DeclStore {
    inner: StdMutex<Decls>,
    ready: Condvar,
}

impl DeclStore {
    pub fn with<R>(&self, f: impl FnOnce(&Decls) -> R) -> R {
        f(&self.inner.lock().expect("decl store poisoned"))
    }

    /// Mutate under the lock and wake executor waiters.
    pub fn update<R>(&self, f: impl FnOnce(&mut Decls) -> R) -> R {
        let r = f(&mut self.inner.lock().expect("decl store poisoned"));
        self.ready.notify_all();
        r
    }

    /// Block until `predicate` holds (graph installed, collection mapped),
    /// then project a value out of the store.
    fn wait_for<R>(&self, mut predicate: impl FnMut(&Decls) -> Option<R>) -> Result<R, DpsError> {
        let deadline = Instant::now() + DECL_WAIT;
        let mut guard = self.inner.lock().expect("decl store poisoned");
        loop {
            if let Some(r) = predicate(&guard) {
                return Ok(r);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(DpsError::OperationContract {
                    node: "netengine".into(),
                    reason: "remote task for an undeclared graph (SPMD declarations diverged)"
                        .into(),
                });
            }
            let (g, _) = self
                .ready
                .wait_timeout(guard, left)
                .expect("decl store poisoned");
            guard = g;
        }
    }
}

/// The frames one kernel moves, counted where they pass rank 0. The
/// topology is a star, so what the master sends plus what it receives is
/// every frame in the cluster. Counts nothing until a traced run attaches
/// its metrics registry.
#[derive(Default)]
pub(crate) struct WireMeter(OnceLock<Arc<MetricsRegistry>>);

impl WireMeter {
    pub fn attach(&self, metrics: Arc<MetricsRegistry>) {
        let _ = self.0.set(metrics);
    }

    /// One frame of `bytes` payload bytes crossed the wire.
    pub fn count(&self, bytes: usize) {
        if let Some(m) = self.0.get() {
            m.incr(Counter::FramesSent);
            m.add(Counter::WireBytesSent, bytes as u64);
        }
    }
}

/// The sending half of a connection as the tasks of a kernel share it:
/// frames are encoded outside the lock and written one at a time.
pub(crate) struct Conn {
    tx: Mutex<Box<dyn FrameTx>>,
    /// Shared by the master's connections; a worker's own is never
    /// attached (see [`WireMeter`]).
    meter: Arc<WireMeter>,
}

impl Conn {
    pub fn new(tx: Box<dyn FrameTx>, meter: Arc<WireMeter>) -> Self {
        Self {
            tx: Mutex::new(tx),
            meter,
        }
    }

    pub fn send(&self, frame: &Frame<'_>) -> io::Result<()> {
        proto::send_frame(&mut &*self, frame)
    }
}

impl FrameTx for &Conn {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.meter.count(frame.len());
        self.tx.lock().send(frame)
    }
}

/// One remote task, as dispatched to an executor lane.
pub(crate) struct Job {
    pub seq: u64,
    pub graph: u32,
    pub node: dps_core::GNodeId,
    pub kind: TaskKind,
    /// The tagged token: a view into the received `Exec` frame.
    pub token: Bytes,
    pub env: dps_core::Envelope,
}

/// The per-thread executor pool of one worker kernel (or loopback harness).
pub(crate) struct ExecHost {
    decls: Arc<DeclStore>,
    writer: Arc<Conn>,
    node_flops: f64,
    /// Cluster node this host executes for — the `node` coordinate of every
    /// trace event its lanes record.
    rank: u16,
    /// Trace sink, attached before the first run (like every declaration on
    /// this engine). Lanes snapshot it when they spawn.
    trace: Mutex<Option<Arc<dps_obs::TraceCollector>>>,
    lanes: Mutex<HashMap<(u32, u32, u32), Sender<Job>>>,
    rt: Arc<dyn AsyncRuntime>,
    tasks: Mutex<Vec<Box<dyn TaskHandle>>>,
}

impl ExecHost {
    pub fn new(
        decls: Arc<DeclStore>,
        writer: Arc<Conn>,
        node_flops: f64,
        rank: u16,
        rt: Arc<dyn AsyncRuntime>,
    ) -> Self {
        Self {
            decls,
            writer,
            node_flops,
            rank,
            trace: Mutex::new(None),
            lanes: Mutex::new(HashMap::new()),
            rt,
            tasks: Mutex::new(Vec::new()),
        }
    }

    /// Attach the trace collector executor lanes record into. Must precede
    /// the first dispatched job of a traced run (lanes capture the sink as
    /// they spawn).
    pub fn set_trace(&self, collector: Arc<dps_obs::TraceCollector>) {
        *self.trace.lock() = Some(collector);
    }

    /// The attached collector, if any.
    pub fn trace_collector(&self) -> Option<Arc<dps_obs::TraceCollector>> {
        self.trace.lock().clone()
    }

    /// Route a task to its thread's executor lane, spawning the lane on
    /// first use. Tasks for one (app, tc, thread) execute serially in
    /// arrival order — the same ordering the thread would have locally.
    pub fn dispatch(&self, app: u32, tc: u32, thread: u32, job: Job) {
        let mut lanes = self.lanes.lock();
        let tx = lanes.entry((app, tc, thread)).or_insert_with(|| {
            let (tx, rx) = unbounded();
            let decls = self.decls.clone();
            let writer = self.writer.clone();
            let node_flops = self.node_flops;
            let trace = self
                .trace
                .lock()
                .as_ref()
                .map(|c| (c.clone(), c.writer(self.rank, thread as u16)));
            let task = self.rt.spawn(
                &format!("dps-net-a{app}t{tc}i{thread}"),
                Box::new(move || {
                    executor_loop(decls, writer, node_flops, app, tc, thread, trace, rx)
                }),
            );
            self.tasks.lock().push(task);
            tx
        });
        let _ = tx.send(job);
    }

    /// Close every lane and join the executors (pending tasks finish
    /// first).
    pub fn stop(&self) {
        self.lanes.lock().clear();
        for t in self.tasks.lock().drain(..) {
            t.join();
        }
    }
}

/// What a lane needs from the declarations to execute at one graph node,
/// resolved once per `(graph, node)` and kept in the lane: its back-to-back
/// jobs then take no process-wide lock, so they do not serialise with the
/// reader thread or with other lanes.
struct NodeCtx {
    def: Arc<Flowgraph>,
    thread_count: usize,
    factory: Arc<dyn Fn() -> Box<dyn Any + Send> + Send + Sync>,
    /// Token registry of the owning application.
    registry: Arc<TokenRegistry>,
    /// Trace label of the node's operation (the empty label without a sink).
    label: dps_obs::LabelId,
}

impl NodeCtx {
    /// Wait for the SPMD declarations to catch up, then snapshot them.
    fn resolve(
        decls: &DeclStore,
        trace: Option<&dps_obs::TraceCollector>,
        app: u32,
        tc: u32,
        graph: u32,
        node: dps_core::GNodeId,
    ) -> Result<Self, DpsError> {
        let mut ctx = decls.wait_for(|d| {
            let a = d.apps.get(app as usize)?;
            let tcd = a.tcs.get(tc as usize)?;
            Some(NodeCtx {
                def: a.graphs.get(graph as usize)?.clone(),
                thread_count: tcd.nodes.len(),
                factory: tcd.factory.clone(),
                registry: a.registry.clone(),
                label: dps_obs::LabelId::default(),
            })
        })?;
        if let Some(c) = trace {
            ctx.label = c.label(&ctx.def.node(node).name);
        }
        Ok(ctx)
    }
}

/// One executor lane: owns the thread data and op instances of one DPS
/// thread, replays jobs strictly in arrival order, replies with one `Done`
/// frame per job in that same order — what lets the master keep several
/// `Exec`s of the thread in flight.
#[allow(clippy::too_many_arguments)]
fn executor_loop(
    decls: Arc<DeclStore>,
    writer: Arc<Conn>,
    node_flops: f64,
    app: u32,
    tc: u32,
    thread: u32,
    mut trace: Option<(Arc<dps_obs::TraceCollector>, dps_obs::TraceWriter)>,
    rx: Receiver<Job>,
) {
    let mut data: Option<Box<dyn Any + Send>> = None;
    let mut inst = Instances::default();
    let mut resolved: HashMap<(u32, u32), NodeCtx> = HashMap::new();
    while let Ok(job) = rx.recv() {
        let seq = job.seq;
        let ctx = match resolved.entry((job.graph, job.node.0)) {
            Entry::Occupied(e) => Ok(&*e.into_mut()),
            Entry::Vacant(e) => NodeCtx::resolve(
                &decls,
                trace.as_ref().map(|(c, _)| &**c),
                app,
                tc,
                job.graph,
                job.node,
            )
            .map(|ctx| &*e.insert(ctx)),
        };
        // Trace coordinates snapshotted before the job consumes its parts:
        // the op label from the declared graph, the wave from the envelope.
        let span = trace.as_ref().map(|(c, _)| {
            let op = ctx
                .as_ref()
                .map_or_else(|_| Default::default(), |x| x.label);
            let wave = job.env.frames.last().map_or(0, |f| f.wave as u32);
            (op, wave, c.now_nanos())
        });
        let outcome =
            ctx.and_then(|ctx| run_job(ctx, node_flops, thread, &mut data, &mut inst, job));
        if let (Some((c, w)), Some((op, wave, t0))) = (trace.as_mut(), span) {
            let t1 = c.now_nanos();
            w.record(t0, dps_obs::EventKind::OpStart { op, wave });
            w.record(t1, dps_obs::EventKind::OpEnd { op, wave });
            if let Ok((_, reports)) = &outcome {
                for &(iters, secs) in reports {
                    let nanos = (secs * 1e9) as u64;
                    w.record(t1, dps_obs::EventKind::ChunkExec { iters, nanos });
                }
            }
        }
        let (posts, reports, error) = match outcome {
            Ok((posts, reports)) => (posts, reports, None),
            Err(e) => (Vec::new(), Vec::new(), Some(e.to_string())),
        };
        // The posted tokens are encoded once, straight into the reply.
        let reply = Frame::Done {
            seq,
            posts: posts.iter().map(|t| Payload::Token(t.as_ref())).collect(),
            reports,
            error,
        };
        if writer.send(&reply).is_err() {
            // The master is gone; nothing left to execute for.
            break;
        }
    }
    if let Some((c, _)) = &trace {
        c.drain();
    }
}

type JobOutput = (Vec<TokenBox>, Vec<(u64, f64)>);

fn run_job(
    ctx: &NodeCtx,
    node_flops: f64,
    thread: u32,
    data: &mut Option<Box<dyn Any + Send>>,
    inst: &mut Instances,
    job: Job,
) -> Result<JobOutput, DpsError> {
    let token = if job.token.is_empty() {
        None
    } else {
        Some(proto::decode_token(&ctx.registry, &job.token)?)
    };
    let gnode = ctx.def.node(job.node);
    let name = gnode.name.as_str();
    if matches!(gnode.kind, OpKind::Call) {
        return Err(DpsError::OperationContract {
            node: name.into(),
            reason: "call nodes execute on the master, never remotely".into(),
        });
    }
    // The master counts the wave and numbers its output; this side holds
    // only the wave's operation instance.
    let hosted = || Wave::new(job.graph, job.node, 0);
    let info = ExecInfo {
        thread_index: thread as usize,
        thread_count: ctx.thread_count,
        node_flops,
        start_nanos: 0,
    };
    let data = data.get_or_insert_with(|| (ctx.factory)());
    let mut out = dps_core::internal::OpOutput::default();
    let t0 = Instant::now();
    match job.kind {
        TaskKind::Exec => {
            let op = inst.node_op((job.graph, job.node.0), gnode)?;
            let token = token.ok_or_else(|| missing_token(name))?;
            op.on_token(&mut out, data.as_mut(), info, name, token)?;
        }
        TaskKind::Consume | TaskKind::ConsumeCompletes => {
            let key = job.env.wave_key().ok_or_else(|| bad_envelope(name))?;
            let op = inst
                .waves
                .entry(key.clone())
                .or_insert_with(hosted)
                .op(gnode)?;
            let token = token.ok_or_else(|| missing_token(name))?;
            op.on_token(&mut out, data.as_mut(), info, name, token)?;
            if job.kind == TaskKind::ConsumeCompletes {
                op.on_finalize(&mut out, data.as_mut(), info, name)?;
                inst.waves.remove(&key);
            }
        }
        TaskKind::Finalize => {
            let key = job.env.wave_key().ok_or_else(|| bad_envelope(name))?;
            let mut wave = inst.waves.remove(&key).unwrap_or_else(hosted);
            wave.op(gnode)?
                .on_finalize(&mut out, data.as_mut(), info, name)?;
        }
    }
    let reports = out
        .completed_iters
        .map(|iters| vec![(iters, t0.elapsed().as_secs_f64())])
        .unwrap_or_default();
    Ok((out.posts.into_iter().map(|p| p.token).collect(), reports))
}

fn missing_token(node: &str) -> DpsError {
    DpsError::OperationContract {
        node: node.into(),
        reason: "remote task arrived without its token".into(),
    }
}

fn bad_envelope(node: &str) -> DpsError {
    DpsError::OperationContract {
        node: node.into(),
        reason: "remote consume/finalize without a wave frame".into(),
    }
}

// ---------------------------------------------------------------------------
// The forwarding chunk hub
// ---------------------------------------------------------------------------

/// Worker-side [`RemoteHub`] delegate: frames each hub operation as a
/// [`Frame::Hub`], ships it to the master, and blocks the claiming op until
/// the matching [`Frame::HubReply`] is routed back via
/// [`complete`](Self::complete). One synchronous round-trip per chunk —
/// the cost model of distributed chunk calculation.
pub(crate) struct HubLink {
    writer: Arc<Conn>,
    pending: Mutex<HashMap<u64, Sender<HubResponse>>>,
    next: AtomicU64,
}

impl HubLink {
    pub fn new(writer: Arc<Conn>) -> Self {
        Self {
            writer,
            pending: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
        }
    }

    /// Route an inbound reply to the waiting operation.
    pub fn complete(&self, req: u64, body: HubResponse) {
        if let Some(tx) = self.pending.lock().remove(&req) {
            let _ = tx.send(body);
        }
    }

    fn round_trip(&self, body: HubRequest) -> HubResponse {
        let req = self.next.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        self.pending.lock().insert(req, tx);
        self.writer
            .send(&Frame::Hub { req, body })
            .expect("master connection lost during a hub operation");
        match rx.recv_timeout(HUB_WAIT) {
            Ok(resp) => resp,
            Err(_) => {
                self.pending.lock().remove(&req);
                panic!("master did not answer a chunk-hub operation within {HUB_WAIT:?}")
            }
        }
    }
}

impl RemoteHub for HubLink {
    fn open(&self, calc: ChunkCalc) -> ChunkLease {
        match self.round_trip(HubRequest::Open { calc }) {
            HubResponse::Opened { lease } => lease,
            other => unreachable!("open answered with {other:?}"),
        }
    }

    fn claim(&self, id: u64) -> Option<dps_sched::Chunk> {
        match self.round_trip(HubRequest::Claim { id }) {
            HubResponse::Claimed { chunk } => chunk,
            other => unreachable!("claim answered with {other:?}"),
        }
    }

    fn close(&self, id: u64) -> bool {
        match self.round_trip(HubRequest::Close { id }) {
            HubResponse::Closed { closed } => closed,
            other => unreachable!("close answered with {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LoopbackTransport, Transport};
    use dps_sched::{ChunkHub, PolicyKind};

    /// A HubLink over a real loopback connection against a served
    /// [`ChunkHub`] claims the exact chunk sequence a local hub would
    /// produce.
    #[test]
    fn hub_link_round_trips_chunk_traffic() {
        let t = LoopbackTransport::new();
        let (addr, mut acceptor) = t.bind().unwrap();
        let worker_side = t.connect(&addr).unwrap();
        let master_side = acceptor.accept().unwrap();

        // Master: serve Hub frames against a real hub until the peer hangs
        // up.
        let server = std::thread::spawn(move || {
            let hub = ChunkHub::new();
            let mut rx = master_side.rx;
            let tx = Conn::new(master_side.tx, Arc::default());
            while let Ok(bytes) = rx.recv() {
                match proto::decode_frame(bytes).unwrap() {
                    Frame::Hub { req, body } => {
                        let body = body.serve(&hub);
                        tx.send(&Frame::HubReply { req, body }).unwrap();
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        });

        // Worker: forwarding hub over the link, plus a reader routing
        // replies. The reader holds only a weak handle so dropping the hub
        // tears the whole connection down (link → writer → server → reader).
        let link = Arc::new(HubLink::new(Arc::new(Conn::new(
            worker_side.tx,
            Arc::default(),
        ))));
        let reader_link = Arc::downgrade(&link);
        let mut rx = worker_side.rx;
        let reader = std::thread::spawn(move || {
            while let Ok(bytes) = rx.recv() {
                match proto::decode_frame(bytes).unwrap() {
                    Frame::HubReply { req, body } => {
                        if let Some(link) = reader_link.upgrade() {
                            link.complete(req, body);
                        }
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        });

        let forwarding = ChunkHub::remote(link.clone());
        let lease = forwarding.open(ChunkCalc::new(PolicyKind::Tss, 100, 4, &[]));
        let local = ChunkHub::new();
        let local_lease = local.open(ChunkCalc::new(PolicyKind::Tss, 100, 4, &[]));
        let mut covered = 0;
        loop {
            let remote = forwarding.claim(lease.id);
            let reference = local.claim(local_lease.id);
            assert_eq!(
                remote.as_ref().map(|c| (c.seq, c.start, c.len)),
                reference.as_ref().map(|c| (c.seq, c.start, c.len)),
                "distributed chunk sequence must match the local scheduler"
            );
            match remote {
                Some(c) => covered += c.len,
                None => break,
            }
        }
        assert_eq!(covered, 100);
        assert!(!forwarding.close(lease.id), "already drained");

        drop(forwarding);
        drop(link);
        reader.join().unwrap();
        server.join().unwrap();
    }
}
