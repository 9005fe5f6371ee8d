//! Worker-side execution: the lock around the declaration table, the
//! connection writer every task of a kernel sends through ([`Conn`]), the
//! per-thread executor host that serves the [`Frame::Exec`] arrivals of the
//! threads its node hosts, and the two ends of the chunk-hub protocol
//! ([`HubLink`] on a worker, [`HubRouter`] on the master).
//!
//! A worker kernel serves its own threads' arrivals as an `mt` worker does:
//! the [`ExecHost`] runs one executor lane per (application, collection,
//! thread), which owns the thread's data, instances and waves. The master
//! keeps routing, pins, flows and credits, and applies the `Done`s.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dps_core::internal::kernel::{self, Arrival, At, Instances, Rec, Serve, Tracer};
use dps_core::internal::{ExecInfo, OpOutput};
use dps_core::{Decls, DpsError, Envelope, GNodeId, TokenBox};
use dps_obs::{Counter, MetricsRegistry, TraceCollector};
use dps_sched::remote::{HubRequest, HubResponse, RemoteHub};
use dps_sched::{Chunk, ChunkHub};
use dps_serial::{Bytes, Captured, SendTable};
use parking_lot::Mutex;

use crate::proto::{self, Frame, Payload, Reply};
use crate::transport::FrameTx;

/// The declaration table, shared between the declaring role and the
/// executors. An executor reads it only after the table is complete: the
/// master sends no `Exec` before the sync barrier — every worker declared
/// everything — and a loopback harness reads the master's own table, frozen
/// at that barrier.
pub(crate) struct DeclStore(Mutex<Arc<Decls>>);

impl DeclStore {
    /// An empty table over a cluster of `nodes` nodes, `node0..`.
    pub fn over(nodes: usize) -> Arc<Self> {
        let decls = Decls::new(dps_cluster::ClusterSpec::uniform(nodes, 1));
        Arc::new(Self(Mutex::new(Arc::new(decls))))
    }

    pub fn with<R>(&self, f: impl FnOnce(&Decls) -> R) -> R {
        f(&self.0.lock())
    }

    /// Declare under the lock.
    pub fn update<R>(&self, f: impl FnOnce(&mut Decls) -> R) -> R {
        f(Arc::get_mut(&mut self.0.lock()).expect("declarations precede the first run"))
    }

    /// The finished table, to be read without this lock from now on. While
    /// anyone holds it, [`update`](Self::update) panics: every declaration
    /// precedes the first run.
    pub fn frozen(&self) -> Arc<Decls> {
        self.0.lock().clone()
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
/// frames are encoded and written one at a time, through the connection's
/// buffer table, each as its parts in one `send_parts` — a large `Buffer`
/// run goes to the transport from the buffer's own allocation.
pub(crate) struct Conn {
    link: Mutex<Link>,
    /// Shared by the master's connections; a worker's own is never
    /// attached (see [`WireMeter`]).
    meter: Arc<WireMeter>,
}

/// A connection's sending half and the table of what it has sent. A frame
/// is encoded under the same lock it is written under, so the table's order
/// is the wire's: a frame never names an id a frame ahead of it will add.
struct Link {
    tx: Box<dyn FrameTx>,
    table: SendTable,
}

impl Conn {
    pub fn new(tx: Box<dyn FrameTx>, meter: Arc<WireMeter>) -> Self {
        Self {
            link: Mutex::new(Link {
                tx,
                table: SendTable::default(),
            }),
            meter,
        }
    }

    pub fn send(&self, frame: &Frame<'_>) -> io::Result<()> {
        let mut link = self.link.lock();
        let parts = link.table.encode(frame);
        let parts: Vec<&[u8]> = parts.iter().map(|part| &**part).collect();
        self.meter.count(parts.iter().map(|part| part.len()).sum());
        link.tx.send_parts(&parts)
    }
}

/// One arrival, as dispatched to an executor lane.
struct Job {
    graph: u32,
    node: GNodeId,
    /// The tagged token — a view into the received `Exec` frame — or, for a
    /// close, nothing.
    token: Bytes,
    /// The wave's total, for a close.
    close: Option<u32>,
    /// What the frame captured of the connection's buffer table.
    shared: Captured,
    env: Envelope,
    out_wave: u64,
    flow: u64,
}

/// The per-thread executor pool of one worker kernel (or loopback harness).
pub(crate) struct ExecHost {
    decls: Arc<DeclStore>,
    writer: Arc<Conn>,
    /// Cluster node this host executes for — the `node` coordinate of every
    /// trace event its lanes record.
    rank: u16,
    /// Trace sink, attached before the first run (like every declaration on
    /// this engine). Lanes snapshot it when they spawn.
    trace: Mutex<Option<Arc<TraceCollector>>>,
    lanes: Mutex<HashMap<(u32, u32, u32), Sender<Job>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ExecHost {
    pub fn new(decls: Arc<DeclStore>, writer: Arc<Conn>, rank: u16) -> Self {
        Self {
            decls,
            writer,
            rank,
            trace: Mutex::new(None),
            lanes: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Attach the trace collector executor lanes record into. Must precede
    /// the first dispatched job of a traced run (lanes capture the sink as
    /// they spawn).
    pub fn set_trace(&self, collector: Arc<TraceCollector>) {
        *self.trace.lock() = Some(collector);
    }

    /// The attached collector, if any.
    pub fn trace_collector(&self) -> Option<Arc<TraceCollector>> {
        self.trace.lock().clone()
    }

    /// Route the arrival of an `Exec` frame, and what the frame captured of
    /// the connection's buffer table, to its thread's executor lane,
    /// spawning the lane on first use. The arrivals of one (app, tc,
    /// thread) are served serially in arrival order — the order the thread
    /// would take them in locally.
    pub fn dispatch(&self, exec: Frame<'_>, shared: Captured) {
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
        // The signature barrier promised one table on both ends; what comes
        // over the wire is checked against it all the same.
        let declared = self.decls.with(|d| {
            let a = d.apps().get(app as usize);
            let tcd = a.and_then(|a| a.tcs.get(tc as usize));
            let def = a.and_then(|a| a.graphs.get(graph as usize));
            tcd.is_some_and(|c| (thread as usize) < c.nodes.len())
                && def.is_some_and(|def| (node.0 as usize) < def.nodes().len())
        });
        if !declared {
            let error = "an arrival for an undeclared thread (SPMD declarations diverged)".into();
            let token = close.is_none();
            let reply = Reply::Failed { token, error };
            let (posts, reports) = (Vec::new(), Vec::new());
            let done = Frame::Done {
                app,
                tc,
                thread,
                reply,
                posts,
                reports,
            };
            let _ = self.writer.send(&done);
            return;
        }
        let token = token.into_bytes();
        let job = Job {
            graph,
            node,
            token,
            close,
            shared,
            env,
            out_wave,
            flow,
        };
        let mut lanes = self.lanes.lock();
        let tx = lanes.entry((app, tc, thread)).or_insert_with(|| {
            let (tx, rx) = unbounded();
            let (decls, writer) = (self.decls.frozen(), self.writer.clone());
            let (rank, trace) = (self.rank, self.trace.lock().clone());
            let key = (app, tc, thread);
            let spawned = std::thread::Builder::new()
                .name(format!("dps-net-a{app}t{tc}i{thread}"))
                .spawn(move || executor_loop(&decls, &writer, rank, key, trace, rx))
                .expect("spawn executor lane");
            self.threads.lock().push(spawned);
            tx
        });
        let _ = tx.send(job);
    }

    /// Close every lane and join the executors (pending tasks finish
    /// first).
    pub fn stop(&self) {
        self.lanes.lock().clear();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// One executor lane: the data, the operation instances and the waves of
/// one DPS thread, served in arrival order with one `Done` per arrival that
/// calls for one, in that same order.
fn executor_loop(
    decls: &Decls,
    writer: &Conn,
    rank: u16,
    (app, tc, thread): (u32, u32, u32),
    trace: Option<Arc<TraceCollector>>,
    rx: Receiver<Job>,
) {
    let mut lane = Thread {
        decls,
        app,
        data: (decls.apps()[app as usize].tcs[tc as usize].factory)(),
        inst: Instances::default(),
        info: ExecInfo::wall_clock(thread as usize, decls.threads(app, tc)),
        // On the thread's node, at its index among the threads that node
        // hosts.
        tracer: trace.map(|c| Tracer::new(c, (rank, decls.node_thread(app, tc, thread) as u16))),
        out: OpOutput::default(),
    };
    while let Ok(job) = rx.recv() {
        let token = job.close.is_none();
        let (reply, call, reports) = match lane.serve(job) {
            Ok(Some(outcome)) => outcome,
            Ok(None) => continue,
            Err(e) => {
                lane.out.posts.clear();
                let error = e.to_string();
                (Reply::Failed { token, error }, None, Vec::new())
            }
        };
        // The posted tokens, or a call's one token, are encoded once,
        // straight into the reply.
        let posts = match &call {
            Some(token) => vec![Payload::Token(token.as_ref())],
            None => (lane.out.posts.iter())
                .map(|p| Payload::Token(p.token.as_ref()))
                .collect(),
        };
        let sent = writer.send(&Frame::Done {
            app,
            tc,
            thread,
            reply,
            posts,
            reports,
        });
        lane.out.posts.clear();
        if sent.is_err() {
            // The master is gone; nothing left to serve for.
            break;
        }
    }
    if let Some(t) = &lane.tracer {
        t.collector().drain();
    }
}

/// What a lane answers an arrival with: the reply, a call's token, and the
/// `(iters, secs)` of the chunks the operation completed.
type Outcome = (Reply, Option<TokenBox>, Vec<(u64, f64)>);

/// The DPS thread an executor lane serves, between its arrivals.
struct Thread<'a> {
    decls: &'a Decls,
    app: u32,
    data: Box<dyn Any + Send>,
    /// The thread's operation instances and the waves it consumes.
    inst: Instances,
    info: ExecInfo,
    tracer: Option<Tracer>,
    /// What the lane's operations post, reused from arrival to arrival.
    out: OpOutput,
}

impl Thread<'_> {
    /// What an `mt` worker does with a message: [`kernel::serve`], then the
    /// operation it calls for, whose posts are left in `out`. `None` for a
    /// close that finds data objects missing, which is not answered.
    fn serve(&mut self, job: Job) -> Result<Option<Outcome>, DpsError> {
        let at = At {
            app: self.app,
            graph: job.graph,
            node: job.node,
        };
        let what = match job.close {
            Some(total) => Arrival::Close(total),
            None => {
                let registry = self.decls.registry(at.app);
                Arrival::Token(proto::decode_received(registry, &job.token, &job.shared)?)
            }
        };
        let sent = NonZeroU64::new(job.flow);
        if let (Some(t), Arrival::Token(tok), Some(sent)) = (&mut self.tracer, &what, sent) {
            let (track, now) = (t.writer().track(), t.collector().now_nanos());
            kernel::took(Rec::at(t, track, now), tok.as_ref(), &job.env, sent);
        }
        let wave = kernel::env_wave(&job.env);
        let served = kernel::serve(self.decls, &mut self.inst, at, what, job.env, || {
            job.out_wave
        });
        let (ready, then) = match served? {
            Serve::Run(ready, then) => (ready, then),
            Serve::Call(at, env, token) => {
                return Ok(Some((Reply::Call { at, env }, Some(token), Vec::new())))
            }
            Serve::Wait => return Ok(None),
        };
        let t0 = Instant::now();
        ready.run(self.data.as_mut(), self.info, &mut self.out)?;
        let took = t0.elapsed();
        if let Some(key) = then.completed() {
            self.inst.waves.remove(key);
        }
        let marked = self.out.completed_iters;
        if let Some(t) = &mut self.tracer {
            let start = t.collector().stamp(t0);
            let end = start + took.as_nanos() as u64;
            let track = t.writer().track();
            let rec = Rec::at(t, track, end).op(start, end);
            let name = &self.decls.def(at.app, at.graph).node(at.node).name;
            kernel::ran(rec, at, name, wave, marked);
        }
        let reports = Vec::from_iter(marked.map(|iters| (iters, took.as_secs_f64())));
        Ok(Some((Reply::Ran { then }, None, reports)))
    }
}

// ---------------------------------------------------------------------------
// Chunk-hub traffic: requester → home, through rank 0
// ---------------------------------------------------------------------------

/// Park the calling op until its hub operation is answered. A reply slot
/// dropped unanswered and an expired wait both read as "no answer", which
/// callers turn into the unknown-lease result — an executor lane always
/// lives to send its `Done`.
fn await_hub_reply(rx: &Receiver<HubResponse>, exec: Duration) -> Option<HubResponse> {
    match rx.recv_timeout(exec) {
        Ok(resp) => Some(resp),
        Err(RecvTimeoutError::Disconnected) => None,
        Err(RecvTimeoutError::Timeout) => {
            eprintln!(
                "dps-netengine: no answer to a chunk-hub operation within exec timeout \
                 {exec:?} (DPS_NET_EXEC_TIMEOUT_MS)"
            );
            None
        }
    }
}

fn claimed(answer: Option<HubResponse>) -> Option<Chunk> {
    match answer {
        Some(HubResponse::Claimed { chunk }) => chunk,
        _ => None,
    }
}

fn closed(answer: Option<HubResponse>) -> bool {
    matches!(answer, Some(HubResponse::Closed { closed: true }))
}

/// A worker's [`RemoteHub`] delegate, reached only for leases homed at
/// another rank: frames the operation as a [`Frame::Hub`], ships it to the
/// master (which serves or relays it, see [`HubRouter`]), and blocks the
/// claiming op until the matching [`Frame::HubReply`] is routed back via
/// [`complete`](Self::complete). One synchronous round-trip per chunk —
/// the cost model of distributed chunk calculation.
pub(crate) struct HubLink {
    writer: Arc<Conn>,
    /// [`NetTimeouts::exec`](crate::NetTimeouts::exec): how long an answer
    /// may take.
    exec: Duration,
    pending: Mutex<HashMap<u64, Sender<HubResponse>>>,
    next: AtomicU64,
}

impl HubLink {
    pub fn new(writer: Arc<Conn>, exec: Duration) -> Self {
        Self {
            writer,
            exec,
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

    fn round_trip(&self, body: HubRequest) -> Option<HubResponse> {
        let req = self.next.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        self.pending.lock().insert(req, tx);
        let answer = match self.writer.send(&Frame::Hub { req, body }) {
            Ok(()) => await_hub_reply(&rx, self.exec),
            Err(_) => None,
        };
        if answer.is_none() {
            self.pending.lock().remove(&req);
        }
        answer
    }
}

impl RemoteHub for HubLink {
    fn claim(&self, id: u64) -> Option<Chunk> {
        claimed(self.round_trip(HubRequest::Claim { id }))
    }

    fn close(&self, id: u64) -> bool {
        closed(self.round_trip(HubRequest::Close { id }))
    }
}

/// Who waits for the answer to a relayed hub operation.
enum Asker {
    /// Another rank, under its own request id: the answer goes back on its
    /// connection as a `HubReply`.
    Rank { rank: u32, req: u64 },
    /// An op running in the master process, parked in [`HubRouter::ask`].
    Here(Sender<HubResponse>),
}

/// One operation forwarded to its lease's home and not answered yet.
struct Relay {
    /// What was asked: names the home, and the answer if that home dies
    /// first ([`HubRequest::refused`]).
    body: HubRequest,
    asker: Asker,
}

/// Rank 0's half of the hub protocol — the topology is a star, so every
/// `Hub` frame passes here. An operation on a lease homed at rank 0 is
/// served on the spot; one homed at a worker is forwarded on that worker's
/// connection and *remembered*, and the `HubReply` that comes back is
/// handed to whoever asked. Nothing here waits: connection readers call
/// [`route`](Self::route) and [`complete`](Self::complete) and return, so
/// two workers draining each other's leases never hold up each other's
/// reader. The master's own ops reach worker-homed leases through the same
/// table, as the [`RemoteHub`] delegate of rank 0's hub.
pub(crate) struct HubRouter {
    /// Writer of the connection to worker rank `r` at index `r - 1`.
    conns: Vec<Arc<Conn>>,
    /// The master's tombstones, same indexing. Read under the `relays`
    /// lock, which `rank_down` sweeps under after the flag is raised: a
    /// relay either sees the tombstone or is swept — never left to the
    /// exec timeout.
    dead: Arc<[AtomicBool]>,
    exec: Duration,
    relays: Mutex<HashMap<u64, Relay>>,
    next: AtomicU64,
}

impl HubRouter {
    pub fn new(conns: Vec<Arc<Conn>>, dead: Arc<[AtomicBool]>, exec: Duration) -> Self {
        Self {
            conns,
            dead,
            exec,
            relays: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
        }
    }

    fn answer(&self, asker: Asker, body: HubResponse) {
        match asker {
            Asker::Rank { rank, req } => {
                let _ = self.conns[(rank - 1) as usize].send(&Frame::HubReply { req, body });
            }
            Asker::Here(tx) => {
                let _ = tx.send(body);
            }
        }
    }

    /// Send `body` to the rank its lease is homed at and remember who
    /// asked. A home that is no rank of this cluster, is tombstoned, or
    /// cannot be written to is answered for at once.
    fn forward(&self, body: HubRequest, asker: Asker) {
        let home = ChunkHub::home_of(body.id());
        let at = home.wrapping_sub(1) as usize;
        let Some(conn) = self.conns.get(at) else {
            return self.answer(asker, body.refused());
        };
        let req = self.next.fetch_add(1, Ordering::Relaxed);
        {
            let mut relays = self.relays.lock();
            if self.dead[at].load(Ordering::Acquire) {
                drop(relays);
                return self.answer(asker, body.refused());
            }
            relays.insert(req, Relay { body, asker });
        }
        if conn.send(&Frame::Hub { req, body }).is_err() {
            self.complete(req, body.refused());
        }
    }

    /// A `Hub` frame arrived from worker `rank`: answer it from `hub` —
    /// rank 0's — if the lease lives there, forward it to its home if not.
    pub fn route(&self, hub: &ChunkHub, rank: u32, req: u64, body: HubRequest) {
        let asker = Asker::Rank { rank, req };
        if ChunkHub::home_of(body.id()) == 0 {
            self.answer(asker, body.serve(hub));
        } else {
            self.forward(body, asker);
        }
    }

    /// A `HubReply` arrived from a home rank: hand it to whoever asked.
    pub fn complete(&self, req: u64, body: HubResponse) {
        let relay = self.relays.lock().remove(&req);
        if let Some(relay) = relay {
            self.answer(relay.asker, body);
        }
    }

    /// `rank` was declared dead: its leases died with it, so everything
    /// still waiting on it is answered now. Call after raising its flag.
    pub fn rank_down(&self, rank: u32) {
        let orphaned: Vec<Relay> = self
            .relays
            .lock()
            .extract_if(|_, relay| ChunkHub::home_of(relay.body.id()) == rank)
            .map(|(_, relay)| relay)
            .collect();
        for relay in orphaned {
            self.answer(relay.asker, relay.body.refused());
        }
    }

    /// Operations forwarded and not answered yet.
    #[cfg(test)]
    pub fn in_flight(&self) -> usize {
        self.relays.lock().len()
    }

    fn ask(&self, body: HubRequest) -> Option<HubResponse> {
        let (tx, rx) = unbounded();
        self.forward(body, Asker::Here(tx));
        await_hub_reply(&rx, self.exec)
    }
}

impl RemoteHub for HubRouter {
    fn claim(&self, id: u64) -> Option<Chunk> {
        claimed(self.ask(HubRequest::Claim { id }))
    }

    fn close(&self, id: u64) -> bool {
        closed(self.ask(HubRequest::Close { id }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FrameRx, LoopbackTransport, TcpTransport, Transport};
    use dps_sched::{ChunkCalc, PolicyKind};
    use dps_serial::{Buffer, RecvTable, Vector};
    use std::sync::Barrier;
    use std::thread::JoinHandle;

    /// Counts the frames one party puts on its connection.
    struct Counted(Box<dyn FrameTx>, Arc<AtomicU64>);
    impl FrameTx for Counted {
        fn send(&mut self, frame: &[u8]) -> io::Result<()> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.send(frame)
        }
    }

    /// The hub protocol of a master and `sent.len()` workers over loopback
    /// connections, each party with its own homed hub and a reader doing
    /// what `master_reader` / `worker_reader` do with `Hub` and `HubReply`.
    struct Cluster {
        router: Arc<HubRouter>,
        /// Hub of rank `r` at index `r`.
        hubs: Vec<Arc<ChunkHub>>,
        /// Frames worker rank `r` sent, at index `r - 1`.
        sent: Vec<Arc<AtomicU64>>,
        readers: Vec<JoinHandle<()>>,
    }

    /// Long enough for a loaded box, short enough that a claim nobody
    /// answers fails the test instead of hanging it.
    const EXEC: Duration = Duration::from_secs(20);

    fn cluster(workers: u32) -> Cluster {
        let t = LoopbackTransport::new();
        let (addr, mut acceptor) = t.bind().unwrap();
        let mut worker_sides = Vec::new();
        let mut master_rxs = Vec::new();
        let mut conns = Vec::new();
        for _ in 0..workers {
            worker_sides.push(t.connect(&addr).unwrap());
            let master_side = acceptor.accept().unwrap();
            conns.push(Arc::new(Conn::new(master_side.tx, Arc::default())));
            master_rxs.push(master_side.rx);
        }
        let dead = (0..workers).map(|_| AtomicBool::new(false)).collect();
        let router = Arc::new(HubRouter::new(conns, dead, EXEC));
        let mut hubs = vec![Arc::new(ChunkHub::homed(0, Some(router.clone())))];
        let mut readers = Vec::new();
        for (i, mut rx) in master_rxs.into_iter().enumerate() {
            let (router, hub) = (router.clone(), hubs[0].clone());
            readers.push(std::thread::spawn(move || {
                while let Ok(bytes) = rx.recv() {
                    match proto::decode_frame(bytes).unwrap() {
                        Frame::Hub { req, body } => router.route(&hub, i as u32 + 1, req, body),
                        Frame::HubReply { req, body } => router.complete(req, body),
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
            }));
        }
        let mut sent = Vec::new();
        for (i, side) in worker_sides.into_iter().enumerate() {
            let count = Arc::new(AtomicU64::new(0));
            let tx = Box::new(Counted(side.tx, count.clone()));
            let writer = Arc::new(Conn::new(tx, Arc::default()));
            let link = Arc::new(HubLink::new(writer.clone(), EXEC));
            let hub = Arc::new(ChunkHub::homed(i as u32 + 1, Some(link.clone())));
            sent.push(count);
            hubs.push(hub.clone());
            let mut rx = side.rx;
            readers.push(std::thread::spawn(move || {
                while let Ok(bytes) = rx.recv() {
                    match proto::decode_frame(bytes).unwrap() {
                        Frame::Hub { req, body } => {
                            let body = body.serve(&hub);
                            writer.send(&Frame::HubReply { req, body }).unwrap();
                        }
                        Frame::HubReply { req, body } => link.complete(req, body),
                        Frame::Shutdown => break,
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
            }));
        }
        Cluster {
            router,
            hubs,
            sent,
            readers,
        }
    }

    impl Cluster {
        /// Worker readers leave on `Shutdown` and drop their writers, the
        /// master's readers on the end-of-file that follows.
        fn stop(self) {
            for conn in &self.router.conns {
                conn.send(&Frame::Shutdown).unwrap();
            }
            drop(self.hubs);
            for reader in self.readers {
                reader.join().unwrap();
            }
        }
    }

    /// Claim lease `id` through `hub` until it is dry: the chunks, and how
    /// many times `claim` was called.
    fn drain(hub: &ChunkHub, id: u64, start: &Barrier) -> (Vec<Chunk>, u64) {
        start.wait();
        let mut chunks = Vec::new();
        while let Some(c) = hub.claim(id) {
            chunks.push(c);
        }
        let calls = chunks.len() as u64 + 1;
        (chunks, calls)
    }

    /// Rank 1 opens a lease; rank 1, rank 2 and an op on the master claim
    /// it down at once — locally, through the relay, through the master's
    /// delegate. Together they claim exactly the chunk sequence a private
    /// hub hands out, and the only frames rank 1 sends are its answers to
    /// the other two: its own claims never leave its memory.
    #[test]
    fn hub_link_round_trips_chunk_traffic() {
        let c = cluster(2);
        let calc = || ChunkCalc::new(PolicyKind::Fac, 3000, 4, &[]);
        let lease = c.hubs[1].open(calc());
        assert_eq!(ChunkHub::home_of(lease.id), 1);
        assert_eq!(c.sent[0].load(Ordering::Relaxed), 0, "open is local");

        let start = Barrier::new(3);
        let (hubs, start) = (&c.hubs, &start);
        let [local, relayed, from_master] = std::thread::scope(|s| {
            [1usize, 2, 0]
                .map(|rank| s.spawn(move || drain(&hubs[rank], lease.id, start)))
                .map(|t| t.join().expect("claimer panicked"))
        });
        let mut all: Vec<Chunk> = [&local.0, &relayed.0, &from_master.0]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        all.sort_by_key(|c| c.seq);
        let reference = ChunkHub::new();
        let reference_lease = reference.open(calc());
        let expect: Vec<Chunk> =
            std::iter::from_fn(|| reference.claim(reference_lease.id)).collect();
        assert_eq!(all, expect, "the partition of the local scheduler, exactly");
        assert_eq!(lease.chunks as usize, expect.len());

        assert_eq!(
            c.sent[0].load(Ordering::Relaxed),
            relayed.1 + from_master.1,
            "rank 1 sends one HubReply per foreign claim and nothing for its own {}",
            local.1
        );
        assert_eq!(c.sent[1].load(Ordering::Relaxed), relayed.1);
        assert_eq!(c.router.in_flight(), 0);
        assert!(!c.hubs[2].close(lease.id), "already drained");
        assert!(c.hubs[1].abandoned_leases().is_empty());

        // A lease of the master's costs a worker the one round trip it
        // always did, served at rank 0 without a relay.
        let theirs = c.hubs[0].open(ChunkCalc::new(PolicyKind::Static, 10, 2, &[]));
        let before = c.sent[1].load(Ordering::Relaxed);
        assert_eq!(c.hubs[2].claim(theirs.id).map(|c| c.len), Some(5));
        assert!(c.hubs[2].close(theirs.id));
        assert_eq!(c.sent[1].load(Ordering::Relaxed), before + 2);
        assert_eq!(
            c.sent[0].load(Ordering::Relaxed),
            relayed.1 + from_master.1 + 1
        );
        c.stop();
    }

    /// Two ranks each drain the *other's* lease at the same time: every
    /// claim of one is served by the reader of the other while that
    /// other's own claim is parked, so neither reader may ever wait.
    #[test]
    fn two_ranks_draining_each_others_leases_complete() {
        const ITERS: u64 = 400;
        let c = cluster(2);
        let calc = || ChunkCalc::new(PolicyKind::Ss, ITERS, 2, &[]);
        let (of_one, of_two) = (c.hubs[1].open(calc()), c.hubs[2].open(calc()));
        let start = Barrier::new(2);
        let (by_one, by_two) = std::thread::scope(|s| {
            let one = s.spawn(|| drain(&c.hubs[1], of_two.id, &start));
            let two = s.spawn(|| drain(&c.hubs[2], of_one.id, &start));
            (one.join().unwrap(), two.join().unwrap())
        });
        for (chunks, _) in [by_one, by_two] {
            let starts: Vec<u64> = chunks.iter().map(|c| c.start).collect();
            assert_eq!(
                starts,
                (0..ITERS).collect::<Vec<_>>(),
                "every iteration, once"
            );
        }
        assert_eq!(c.router.in_flight(), 0);
        assert!(c.hubs[1].abandoned_leases().is_empty());
        assert!(c.hubs[2].abandoned_leases().is_empty());
        c.stop();
    }

    // -----------------------------------------------------------------------
    // The connection buffer table, between a `Conn` and a reader
    // -----------------------------------------------------------------------

    dps_core::dps_token! {
        pub struct Strip { pub i: u32, pub a: Buffer<f64>, pub b: Buffer<u32> }
    }

    use dps_core::{Token, TokenRegistry};

    fn registry() -> TokenRegistry {
        let mut reg = TokenRegistry::new();
        dps_core::register_token::<Strip>(&mut reg);
        reg
    }

    /// The sending half of a loopback connection as a kernel shares it, and
    /// the receiving half with the table its reader keeps.
    fn link() -> (Conn, Box<dyn FrameRx>, RecvTable) {
        link_over(&LoopbackTransport::new())
    }

    /// [`link`] over `t`.
    fn link_over(t: &dyn Transport) -> (Conn, Box<dyn FrameRx>, RecvTable) {
        let (addr, mut acceptor) = t.bind().unwrap();
        let client = t.connect(&addr).unwrap();
        let server = acceptor.accept().unwrap();
        let conn = Conn::new(client.tx, Arc::default());
        (conn, server.rx, RecvTable::default())
    }

    /// A `Release` whose one output is `tok`.
    fn output(tok: &dyn Token) -> Frame<'_> {
        Frame::Release {
            run: 1,
            error: None,
            outputs: vec![Payload::Token(tok)],
        }
    }

    /// What a reader does with the next frame: apply its section, keep the
    /// token's bytes and what the frame captured, for a decode later.
    fn take(rx: &mut Box<dyn FrameRx>, table: &mut RecvTable) -> (Bytes, Captured) {
        match proto::decode_frame_on(rx.recv().unwrap(), table).unwrap() {
            (Frame::Release { mut outputs, .. }, captured) if outputs.len() == 1 => {
                (outputs.pop().unwrap().into_bytes(), captured)
            }
            (other, _) => panic!("expected a Release of one output, got {other:?}"),
        }
    }

    fn decode(received: &(Bytes, Captured)) -> Strip {
        let tok = proto::decode_received(&registry(), &received.0, &received.1).unwrap();
        *dps_core::downcast::<Strip>(tok).unwrap()
    }

    fn strip(i: u32, a: &Buffer<f64>, b: &Buffer<u32>) -> Strip {
        Strip {
            i,
            a: a.clone(),
            b: b.clone(),
        }
    }

    /// A frame's token is decoded only after the reader has handled the
    /// very next frame, which retires the entry the first one added: the
    /// decode reads what the first frame captured, and the table is empty.
    #[test]
    fn a_frame_decodes_after_the_next_one_retired_its_entry() {
        let (conn, mut rx, mut table) = link();
        let panel: Buffer<f64> = (0..512).map(f64::from).collect();
        let sent = strip(1, &panel, &Buffer::new());
        conn.send(&output(&sent)).unwrap();
        let want = Strip {
            a: panel.to_vec().into(),
            ..sent.clone()
        };
        drop((panel, sent));
        conn.send(&Frame::Ping).unwrap();

        let first = take(&mut rx, &mut table);
        assert_eq!(table.len(), 1, "the panel went by the table");
        let (ping, _) = proto::decode_frame_on(rx.recv().unwrap(), &mut table).unwrap();
        assert_eq!(ping, Frame::Ping);
        assert!(table.is_empty(), "retired: {table:?}");
        assert_eq!(decode(&first), want);
    }

    /// Two threads send through one connection at once, each frame naming a
    /// buffer both share and one of the sender's own that the next frame
    /// retires. Whichever frame adds an entry, the ones that name it
    /// follow it; every token decodes equal to what was sent; and once the
    /// senders have dropped their buffers, one more frame empties the
    /// receiver's table.
    #[test]
    fn two_senders_on_one_connection_add_and_name_entries_in_wire_order() {
        const ROUNDS: u32 = 200;
        let (conn, mut rx, mut table) = link();
        let common: Buffer<f64> = (0..300).map(|x| f64::from(x) * 0.5).collect();
        let own = |i: u32| -> Buffer<u32> { (0..64).map(|x| x ^ i).collect() };
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for sender in [0, 1] {
                let (conn, common, start) = (&conn, &common, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let i = sender * ROUNDS + round;
                        let b = own(i);
                        conn.send(&output(&strip(i, common, &b))).unwrap();
                    }
                });
            }
        });
        let received: Vec<_> = (0..2 * ROUNDS).map(|_| take(&mut rx, &mut table)).collect();
        drop(common);
        conn.send(&Frame::Ping).unwrap();
        proto::decode_frame_on(rx.recv().unwrap(), &mut table).unwrap();
        assert!(table.is_empty(), "{table:?}");

        let common: Vec<f64> = (0..300).map(|x| f64::from(x) * 0.5).collect();
        let mut seen: Vec<u32> = received
            .iter()
            .map(|r| {
                let got = decode(r);
                assert_eq!(got.a.as_slice(), &common[..]);
                assert_eq!(got.b, own(got.i), "token {}", got.i);
                got.i
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..2 * ROUNDS).collect::<Vec<_>>());
    }

    /// A buffer only one token holds goes inline: the frame adds nothing to
    /// the table, and the receiver's `into_vec` hands back the allocation
    /// the token was decoded into.
    #[test]
    fn a_singly_held_buffer_goes_inline_and_into_vec_is_a_move() {
        let (conn, mut rx, mut table) = link();
        let sent = Strip {
            i: 7,
            a: (0..4096).map(f64::from).collect(),
            b: vec![1, 2, 3].into(),
        };
        conn.send(&output(&sent)).unwrap();
        let received = take(&mut rx, &mut table);
        assert!(table.is_empty());
        assert_eq!(format!("{:?}", received.1), "[]", "nothing captured");
        let got = decode(&received);
        assert_eq!(got, sent);
        let decoded_into = got.a.as_slice().as_ptr();
        let moved = got.a.into_vec();
        assert_eq!(moved.as_ptr(), decoded_into);
    }

    /// Without a table the encoding is the plain one, whoever else holds
    /// the buffers: byte for byte what the commit before connection tables
    /// wrote (captured there).
    #[test]
    fn to_bytes_of_a_token_with_shared_buffers_keeps_its_golden_bytes() {
        let a: Buffer<f64> = vec![1.5, -2.0].into();
        let b: Buffer<u32> = vec![7, 9].into();
        let tok = strip(3, &a, &b);
        let hex: String = dps_serial::to_bytes(&tok)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "0300000002000000000000000000f83f00000000000000c0\
             020000000700000009000000"
        );
        let tagged: String = proto::encode_token(&tok)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert!(tagged.ends_with(&hex));
    }

    dps_core::dps_token! {
        pub struct Blocks { pub all: Vector<Buffer<f64>> }
    }

    /// A frame of more parts than one vectored write takes (`IOV_MAX`,
    /// 1024 on Linux) arrives whole, over real sockets and over loopback:
    /// 1 500 shared blocks of 16 KiB are as many fresh entries, each with
    /// its elements a part of its own.
    #[test]
    fn a_frame_of_more_parts_than_iov_max_arrives_whole() {
        let blocks: Vector<Buffer<f64>> = (0..1500)
            .map(|k| Buffer::filled(f64::from(k), 2048))
            .collect();
        let mut reg = TokenRegistry::new();
        dps_core::register_token::<Blocks>(&mut reg);
        let tcp = TcpTransport;
        let loopback = LoopbackTransport::new();
        for t in [&tcp as &dyn Transport, &loopback] {
            let (conn, mut rx, mut table) = link_over(t);
            let sent = Blocks {
                all: blocks.clone(),
            };
            // A socket buffer holds less than the frame: the peer reads
            // while it is written.
            let writer = std::thread::spawn(move || conn.send(&output(&sent)));
            let (token, captured) = take(&mut rx, &mut table);
            writer.join().unwrap().unwrap();
            assert_eq!(table.len(), 1500);
            let got = proto::decode_received(&reg, &token, &captured).unwrap();
            assert_eq!(dps_core::downcast::<Blocks>(got).unwrap().all, blocks);
        }
    }
}
