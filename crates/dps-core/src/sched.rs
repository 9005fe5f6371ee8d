//! Policy-driven loop scheduling inside flow graphs.
//!
//! The paper's split operations partition work statically; this module
//! plugs the dynamic loop-scheduling policies of [`dps_sched`] (SS, GSS,
//! TSS, FAC, AWF) into the split/leaf/merge vocabulary — with the chunk
//! boundaries computed **at the workers**, not on the master (the
//! distributed chunk-calculation approach of arXiv:2101.07050):
//!
//! * [`ScheduledSplit`] is a *thin range-announcer*: it opens a shared
//!   [`IterCounter`](dps_sched::IterCounter) lease on the [`ChunkHub`] and
//!   posts one featherweight [`ChunkTicket`] per chunk — no boundary is ever
//!   materialized on the master thread, so fine-grained policies (SS) no
//!   longer serialize there;
//! * [`ChunkWorker`] (and application worker operations) **claim** a chunk
//!   from the leased counter on ticket arrival: one atomic compare-and-swap
//!   plus a closed-form per-policy boundary calculation, paid locally
//!   ([`chunk_calc_cost`]). The claimed chunk sequence partitions the range
//!   identically to the central [`ChunkScheduler`](dps_sched::ChunkScheduler)
//!   (property-tested);
//! * [`ChunkRoute`] routes tickets to the policy's intended worker but sheds
//!   to the least-loaded live thread when the target is congested — or dead:
//!   the engines mark failed nodes' threads with infinite load, and
//!   [`SimEngine::fail_node`](crate::SimEngine::fail_node) re-queues
//!   deliveries stranded on a failed node through this route, so scheduled
//!   waves survive node loss;
//! * worker operations call [`OpCtx::mark_chunk`](crate::OpCtx::mark_chunk)
//!   so the engine reports each chunk's completion time to the feedback
//!   sink — virtual time on [`SimEngine`](crate::SimEngine), wall-clock on
//!   the `dps-mt` engine — closing the AWF adaptation loop;
//! * [`build_calibration`] builds a short scheduled warm-up loop so a
//!   [`FeedbackBoard`] learns per-worker rates *before* the first real wave,
//!   on every engine — in virtual time on the simulator, wall-clock time
//!   on the others.
//!
//! True *self*-scheduling falls out of flow control: with a flow window of
//! roughly `2 × workers`, tickets are released as earlier chunks are merged,
//! so every routing decision sees live queue depths — later chunks flow to
//! whichever worker drained its queue first.

use std::sync::{Arc, OnceLock};

use dps_des::SimSpan;
use dps_sched::{ChunkCalc, ChunkHub, FeedbackBoard, PolicyKind};

use crate::api::Engine;
use crate::decls::{AppHandle, GraphHandle};
use crate::dps_token;
use crate::error::Result;
use crate::ops::{LeafOperation, MergeOperation, OpCtx, SplitOperation};
use crate::route::{Route, RouteInfo, ToThread};
use crate::threads::ThreadCollection;
use crate::token::Token;

pub use dps_sched::Distribution;

dps_token! {
    /// A loop to schedule: iterations `start..start + len`. `step` tags the
    /// time step (outer iteration) in multi-wave runs so adaptive policies
    /// can be observed converging.
    pub struct IterRange { pub start: u64, pub len: u64, pub step: u32 }
}

dps_token! {
    /// One claim ticket of a scheduled loop wave: it carries *no chunk
    /// boundaries* — only the hub lease to claim against, the ticket's
    /// position in the hand-out order, and the worker the policy will size
    /// that position's chunk for (a routing hint, not an obligation). The
    /// receiving worker computes its chunk's `start`/`len` locally from the
    /// shared iteration counter.
    pub struct ChunkTicket {
        pub step: u32,
        pub lease: u64,
        pub seq: u32,
        pub base: u64,
        pub worker: u32,
    }
}

dps_token! {
    /// Completion report of one chunk, posted by the worker operation.
    pub struct ChunkDone { pub step: u32, pub worker: u32, pub start: u64, pub len: u64 }
}

dps_token! {
    /// Merge summary of one scheduled loop wave.
    pub struct RangeDone { pub step: u32, pub iters: u64, pub chunks: u32 }
}

/// Virtual cost of claiming one chunk — the atomic counter update plus the
/// closed-form boundary calculation, charged by the **worker** at claim
/// time. Under central scheduling this cost was serialized on the master;
/// distributing the calculation parallelizes it P-ways.
pub fn chunk_calc_cost() -> SimSpan {
    SimSpan::from_micros(2)
}

/// A split operation announcing a dynamically scheduled iteration range.
///
/// `workers` is the thread count of the *destination* collection (the one
/// executing the chunk operation downstream) — pass
/// [`ThreadCollection::thread_count`](crate::ThreadCollection::thread_count).
/// The split typically runs on a master collection, so its own
/// `ctx.thread_count()` would be wrong.
///
/// Per wave it fixes the policy parameters (AWF reads per-worker weights
/// from the attached [`FeedbackBoard`], populated by the engine's completion
/// reports), opens an [`IterCounter`](dps_sched::IterCounter) lease on the
/// shared [`ChunkHub`], and posts one [`ChunkTicket`] per chunk. The chunk
/// *boundaries* are computed by the claiming workers; the master's per-chunk
/// work is one constant-size token post.
pub struct ScheduledSplit {
    kind: PolicyKind,
    workers: usize,
    hub: Arc<ChunkHub>,
    board: Option<Arc<FeedbackBoard>>,
}

impl ScheduledSplit {
    /// Announce with `kind` for `workers` downstream threads, without
    /// adaptation (AWF degenerates to FAC). Workers must claim against the
    /// same `hub`.
    pub fn new(kind: PolicyKind, workers: usize, hub: Arc<ChunkHub>) -> Self {
        Self {
            kind,
            workers: workers.max(1),
            hub,
            board: None,
        }
    }

    /// Announce with `kind` for `workers` downstream threads, reading AWF
    /// weights from `board`. Attach the same board to the engine with
    /// `set_feedback_sink` so completions flow back.
    pub fn with_feedback(
        kind: PolicyKind,
        workers: usize,
        hub: Arc<ChunkHub>,
        board: Arc<FeedbackBoard>,
    ) -> Self {
        Self {
            kind,
            workers: workers.max(1),
            hub,
            board: Some(board),
        }
    }
}

impl SplitOperation for ScheduledSplit {
    type Thread = ();
    type In = IterRange;
    type Out = ChunkTicket;

    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ChunkTicket>, r: IterRange) {
        let workers = self.workers;
        let weights = match &self.board {
            Some(board) => board.weights(workers),
            None => vec![1.0 / workers as f64; workers],
        };
        let lease = self
            .hub
            .open(ChunkCalc::new(self.kind, r.len, workers, &weights));
        if lease.chunks == 0 {
            // Splits must post; an empty loop degenerates to one ticket
            // whose claim comes back empty.
            ctx.post(ChunkTicket {
                step: r.step,
                lease: lease.id,
                seq: 0,
                base: r.start,
                worker: 0,
            });
            return;
        }
        for seq in 0..lease.chunks {
            ctx.post(ChunkTicket {
                step: r.step,
                lease: lease.id,
                seq,
                base: r.start,
                worker: (seq as usize % workers) as u32,
            });
        }
    }
}

/// Tokens that carry the scheduling policy's intended-worker hint, routable
/// by [`ChunkRoute`].
pub trait WorkerHinted: Token {
    /// The worker index the policy sized this token's work for.
    fn worker_hint(&self) -> u32;
}

impl WorkerHinted for ChunkTicket {
    fn worker_hint(&self) -> u32 {
        self.worker
    }
}

/// Load- and liveness-aware route for worker-hinted tokens: follow the
/// policy's intended worker while its backlog is within one token of the
/// least-loaded thread, otherwise shed to the least-loaded thread. Engines
/// report threads on failed nodes with `u32::MAX` load, so the route also
/// steers work away from dead nodes. Falls back to the plain hint when the
/// engine provides no load data.
pub struct ChunkRoute<T> {
    _m: std::marker::PhantomData<fn(T)>,
}

impl<T> ChunkRoute<T> {
    /// New chunk route.
    pub fn new() -> Self {
        Self {
            _m: std::marker::PhantomData,
        }
    }
}

impl<T> Default for ChunkRoute<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for ChunkRoute<T> {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl<T: WorkerHinted> Route<T> for ChunkRoute<T> {
    // Decides from the token hint and the live load snapshot alone, so
    // ticket deliveries — the scheduled-loop hot path — never serialize on
    // a route lock.
    const STATELESS: bool = true;

    fn route(&mut self, token: &T, info: &RouteInfo<'_>) -> usize {
        self.route_stateless(token, info)
    }

    fn route_stateless(&self, token: &T, info: &RouteInfo<'_>) -> usize {
        let hint = token.worker_hint() as usize % info.thread_count;
        match info.load {
            Some(load) => {
                debug_assert_eq!(load.len(), info.thread_count);
                let (min_i, &min_l) = load
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &l)| (l, i))
                    .expect("thread collections are non-empty");
                if load[hint] <= min_l.saturating_add(1) {
                    hint
                } else {
                    min_i
                }
            }
            None => hint,
        }
    }
}

/// A cost-model worker: claims its chunk from the hub (distributed chunk
/// calculation), executes it by charging `Σ cost(i)` FLOPs over the chunk's
/// iterations, marks the chunk complete (feeding AWF), and posts a
/// [`ChunkDone`]. Benchmarks and tests drive heterogeneous-cluster
/// experiments with it; real applications write their own claiming leaf and
/// call `mark_chunk` the same way.
pub struct ChunkWorker {
    cost: Arc<dyn Fn(u64) -> f64 + Send + Sync>,
    hub: Arc<ChunkHub>,
}

impl ChunkWorker {
    /// Worker with per-iteration FLOP cost `cost(i)`, claiming from `hub`.
    pub fn new(cost: Arc<dyn Fn(u64) -> f64 + Send + Sync>, hub: Arc<ChunkHub>) -> Self {
        Self { cost, hub }
    }

    /// Worker with a uniform per-iteration FLOP cost.
    pub fn uniform(flops_per_iter: f64, hub: Arc<ChunkHub>) -> Self {
        Self::new(Arc::new(move |_| flops_per_iter), hub)
    }
}

impl LeafOperation for ChunkWorker {
    type Thread = ();
    type In = ChunkTicket;
    type Out = ChunkDone;

    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ChunkDone>, t: ChunkTicket) {
        let Some(c) = self.hub.claim(t.lease) else {
            // Drained lease (empty range): an empty completion keeps the
            // wave accounting exact.
            ctx.post(ChunkDone {
                step: t.step,
                worker: ctx.thread_index() as u32,
                start: t.base,
                len: 0,
            });
            return;
        };
        ctx.charge(chunk_calc_cost());
        let start = t.base + c.start;
        let flops: f64 = (start..start + c.len).map(|i| (self.cost)(i)).sum();
        if flops > 0.0 {
            ctx.charge_flops(flops);
        }
        ctx.mark_chunk(c.len);
        ctx.post(ChunkDone {
            step: t.step,
            worker: ctx.thread_index() as u32,
            start,
            len: c.len,
        });
    }
}

/// Merge for scheduled loops: counts chunks and iterations, posts one
/// [`RangeDone`] per wave. Empty completions (drained-lease tickets) count
/// as tokens but not as chunks.
#[derive(Debug, Default)]
pub struct CollectChunks {
    step: u32,
    iters: u64,
    chunks: u32,
}

impl MergeOperation for CollectChunks {
    type Thread = ();
    type In = ChunkDone;
    type Out = RangeDone;

    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), RangeDone>, d: ChunkDone) {
        self.step = d.step;
        self.iters += d.len;
        if d.len > 0 {
            self.chunks += 1;
        }
    }

    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), RangeDone>) {
        ctx.post(RangeDone {
            step: self.step,
            iters: self.iters,
            chunks: self.chunks,
        });
    }
}

/// A built rate-calibration loop: a short static-chunked scheduled graph
/// whose measured completions warm up a [`FeedbackBoard`] before the first
/// real wave.
///
/// Built by [`build_calibration`] and driven by [`run`](Self::run); the
/// split lets engine-generic setup code declare every graph first and run
/// afterwards — the contract the `mt` and `net` engines enforce (they reject
/// declarations after the first run).
pub struct Calibration {
    graph: GraphHandle,
    workers: usize,
}

impl Calibration {
    /// The calibration graph handle.
    pub fn graph(&self) -> GraphHandle {
        self.graph
    }

    /// Drive `rounds` warm-up waves: each gives every worker thread one
    /// measured chunk per round, reported to the board registered at build
    /// time through the engine's feedback channel (virtual time on the
    /// simulator, wall clock on OS threads).
    pub fn run<E: Engine>(&self, eng: &mut E, rounds: u32) -> Result<()> {
        for step in 0..rounds {
            eng.submit(
                self.graph,
                Box::new(IterRange {
                    start: 0,
                    len: (self.workers as u64) * 8,
                    step,
                }),
            )?;
            eng.run_to_idle(self.graph, 1)?;
            let _ = eng.take_outputs(self.graph);
        }
        Ok(())
    }

    /// Run the warm-up (see [`run`](Self::run)) and derive a
    /// schedule-shaped ownership map for `items` stateful work units from
    /// `board`'s measured weights: unit `i` belongs to the worker the
    /// chunk policy hands it to. The placement step shared by the LU
    /// (block columns) and matmul (result blocks) drivers.
    pub fn partition<E: Engine>(
        &self,
        eng: &mut E,
        board: &FeedbackBoard,
        kind: PolicyKind,
        items: u64,
        rounds: u32,
    ) -> Result<Vec<usize>> {
        self.run(eng, rounds)?;
        Ok(
            dps_sched::partition_owners(kind, items, self.workers, &board.weights(self.workers))
                .into_iter()
                .map(|w| w as usize)
                .collect(),
        )
    }
}

/// Declare the rate-calibration loop on any engine: two single-purpose
/// collections (`calib-master`, `calib` over `worker_mapping`) and a
/// `ScheduledSplit → ChunkWorker → CollectChunks` graph. Registers `board`
/// as the engine's feedback sink. Drive it with [`Calibration::run`] after
/// all other declarations.
pub fn build_calibration<E: Engine>(
    eng: &mut E,
    app: AppHandle,
    worker_mapping: &str,
    hub: &Arc<ChunkHub>,
    board: &Arc<FeedbackBoard>,
) -> Result<Calibration> {
    eng.set_feedback_sink(board.clone());
    let master: ThreadCollection<()> = eng.thread_collection(app, "calib-master", "node0")?;
    let workers: ThreadCollection<()> = eng.thread_collection(app, "calib", worker_mapping)?;
    let w = workers.thread_count();
    let mut b = crate::builder::GraphBuilder::new("calibrate");
    let split_hub = Arc::clone(hub);
    let split = b.split(
        &master,
        || ToThread(0),
        move || ScheduledSplit::new(PolicyKind::Static, w, split_hub.clone()),
    );
    let work_hub = Arc::clone(hub);
    let work = b.leaf(&workers, ChunkRoute::new, move || {
        ChunkWorker::uniform(1.0e5, work_hub.clone())
    });
    let merge = b.merge(&master, || ToThread(0), CollectChunks::default);
    b.add(split >> work >> merge);
    let graph = eng.build_graph(b)?;
    Ok(Calibration { graph, workers: w })
}

/// The scheduled-placement bundle the LU and matmul drivers share: the
/// calibration loop together with the [`FeedbackBoard`] it warms (estimator
/// matching the policy) and the policy that will partition the work units —
/// so callers cannot pair a calibration with the wrong board.
///
/// Declare with [`build_placement`] *before* the graphs whose routes read
/// the [`OwnerMap`]; after all declarations, [`resolve`](Self::resolve)
/// runs the warm-up and installs the measured partition.
pub struct Placement {
    calibration: Calibration,
    board: Arc<FeedbackBoard>,
    kind: PolicyKind,
}

/// Declare the calibration machinery for `dist`, if it is scheduled:
/// a policy-matched board, a chunk hub, and the calibration graph.
/// `Ok(None)` for static distributions.
pub fn build_placement<E: Engine>(
    eng: &mut E,
    app: AppHandle,
    worker_mapping: &str,
    dist: Distribution,
) -> Result<Option<Placement>> {
    let Distribution::Scheduled(kind) = dist else {
        return Ok(None);
    };
    let board = Arc::new(FeedbackBoard::for_policy(kind));
    let hub = eng.chunk_hub();
    let calibration = build_calibration(eng, app, worker_mapping, &hub, &board)?;
    Ok(Some(Placement {
        calibration,
        board,
        kind,
    }))
}

impl Placement {
    /// Run `rounds` calibration waves and resolve `owners` for `items`
    /// work units from the policy's partition under the measured weights.
    pub fn resolve<E: Engine>(
        &self,
        eng: &mut E,
        owners: &OwnerMap,
        items: u64,
        rounds: u32,
    ) -> Result<()> {
        owners.resolve(
            self.calibration
                .partition(eng, &self.board, self.kind, items, rounds)?,
        );
        Ok(())
    }

    /// The board the calibration waves warm up.
    pub fn board(&self) -> &Arc<FeedbackBoard> {
        &self.board
    }
}

/// A block→worker ownership map that can be *resolved after the graphs
/// using it are built*: routes capture the map and read it per token, so a
/// calibration run (whose measured rates decide the placement) can happen
/// between graph construction and the first real wave — the ordering the
/// `mt` and `net` engines require.
///
/// Unresolved lookups fall back to the static `item mod workers` layout.
#[derive(Debug, Default)]
pub struct OwnerMap {
    owners: OnceLock<Vec<u32>>,
}

impl OwnerMap {
    /// An unresolved map (resolve later with [`resolve`](Self::resolve)).
    pub fn new() -> Self {
        Self::default()
    }

    /// A map resolved immediately (static layouts).
    pub fn fixed(owners: Vec<usize>) -> Self {
        let map = Self::default();
        map.resolve(owners);
        map
    }

    /// Install the ownership vector. Later calls are ignored (the routes
    /// already in flight keep one consistent view).
    pub fn resolve(&self, owners: Vec<usize>) {
        let _ = self
            .owners
            .set(owners.into_iter().map(|o| o as u32).collect());
    }

    /// Owner of `item`, falling back to `item % workers` while unresolved.
    pub fn owner(&self, item: usize, workers: usize) -> usize {
        match self.owners.get() {
            Some(o) => o[item] as usize,
            None => item % workers.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ExecInfo, OpOutput};
    use std::any::Any;
    use std::marker::PhantomData;

    fn ctx_run<O: SplitOperation<Thread = ()>>(
        op: &mut O,
        input: O::In,
        thread_count: usize,
    ) -> OpOutput {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut ctx = OpCtx::<(), O::Out> {
            out: &mut out,
            thread: td.as_mut(),
            info: ExecInfo {
                thread_index: 0,
                thread_count,
                node_flops: 1e9,
                start_nanos: 0,
            },
            _m: PhantomData,
        };
        op.execute(&mut ctx, input);
        out
    }

    fn claim_all(hub: &ChunkHub, posts: &OpOutput) -> Vec<(u64, u64)> {
        let mut claimed = Vec::new();
        for post in &posts.posts {
            let t = post
                .token
                .as_any()
                .downcast_ref::<ChunkTicket>()
                .expect("ticket token");
            if let Some(c) = hub.claim(t.lease) {
                claimed.push((t.base + c.start, c.len));
            }
        }
        claimed
    }

    #[test]
    fn announced_tickets_claim_an_exact_partition() {
        for kind in PolicyKind::ALL {
            let hub = Arc::new(ChunkHub::new());
            let mut op = ScheduledSplit::new(kind, 4, hub.clone());
            let out = ctx_run(
                &mut op,
                IterRange {
                    start: 10,
                    len: 97,
                    step: 3,
                },
                4,
            );
            let claims = claim_all(&hub, &out);
            assert_eq!(claims.len(), out.posts.len(), "{kind:?}: one claim/ticket");
            let mut next = 10u64;
            let mut covered = 0u64;
            for &(start, len) in &claims {
                assert_eq!(start, next, "{kind:?} chunks are contiguous");
                assert!(len >= 1);
                next = start + len;
                covered += len;
            }
            assert_eq!(covered, 97, "{kind:?} covers the range exactly");
            assert_eq!(hub.open_leases(), 0, "{kind:?}: lease drained");
        }
    }

    #[test]
    fn tickets_are_boundary_free() {
        let hub = Arc::new(ChunkHub::new());
        let mut op = ScheduledSplit::new(PolicyKind::Gss, 3, hub.clone());
        let out = ctx_run(
            &mut op,
            IterRange {
                start: 0,
                len: 30,
                step: 0,
            },
            3,
        );
        // The master never charges per-chunk calculation time: the claim
        // cost is paid by the workers.
        assert_eq!(out.charged, SimSpan::ZERO);
        for (i, post) in out.posts.iter().enumerate() {
            let t = post
                .token
                .as_any()
                .downcast_ref::<ChunkTicket>()
                .expect("ticket");
            assert_eq!(t.seq, i as u32);
            assert_eq!(t.worker, (i % 3) as u32);
        }
    }

    #[test]
    fn empty_range_posts_one_ticket_and_claims_none() {
        let hub = Arc::new(ChunkHub::new());
        let mut op = ScheduledSplit::new(PolicyKind::Gss, 3, hub.clone());
        let out = ctx_run(
            &mut op,
            IterRange {
                start: 5,
                len: 0,
                step: 0,
            },
            3,
        );
        assert_eq!(out.posts.len(), 1);
        let t = out.posts[0]
            .token
            .as_any()
            .downcast_ref::<ChunkTicket>()
            .unwrap();
        assert!(hub.claim(t.lease).is_none());
    }

    #[test]
    fn awf_split_reads_board_weights() {
        let board = Arc::new(FeedbackBoard::new());
        // Worker 0 measured 3× faster than worker 1.
        use dps_sched::FeedbackSink;
        board.report_chunk(0, 300, 1.0);
        board.report_chunk(1, 100, 1.0);
        let hub = Arc::new(ChunkHub::new());
        let mut op = ScheduledSplit::with_feedback(PolicyKind::Awf, 2, hub.clone(), board);
        let out = ctx_run(
            &mut op,
            IterRange {
                start: 0,
                len: 400,
                step: 1,
            },
            2,
        );
        let claims = claim_all(&hub, &out);
        assert!(
            claims[0].1 >= 2 * claims[1].1,
            "AWF batch skews to the fast worker: {claims:?}"
        );
    }

    #[test]
    fn chunk_route_follows_hint_until_congested() {
        let mut r = ChunkRoute::new();
        let tok = |worker| ChunkTicket {
            step: 0,
            lease: 0,
            seq: 0,
            base: 0,
            worker,
        };
        let info = |load: &'static [u32]| RouteInfo {
            thread_count: load.len(),
            load: Some(load),
        };
        // Hint within one of the minimum: keep it.
        assert_eq!(r.route(&tok(1), &info(&[0, 1, 0])), 1);
        // Hint congested: shed to least-loaded.
        assert_eq!(r.route(&tok(1), &info(&[0, 5, 2])), 0);
        // Hint on a dead node (infinite load): shed to a live thread.
        assert_eq!(r.route(&tok(1), &info(&[2, u32::MAX, 3])), 0);
        // No load data: plain hint (mod thread count).
        let no_load = RouteInfo {
            thread_count: 2,
            load: None,
        };
        assert_eq!(r.route(&tok(5), &no_load), 1);
    }

    #[test]
    fn chunk_worker_claims_charges_and_marks() {
        let hub = Arc::new(ChunkHub::new());
        let lease = hub.open(ChunkCalc::new(PolicyKind::Static, 6, 2, &[0.5, 0.5]));
        assert_eq!(lease.chunks, 2);
        let mut op = ChunkWorker::uniform(1e6, hub.clone());
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut ctx = OpCtx::<(), ChunkDone> {
            out: &mut out,
            thread: td.as_mut(),
            info: ExecInfo {
                thread_index: 2,
                thread_count: 4,
                node_flops: 1e6,
                start_nanos: 0,
            },
            _m: PhantomData,
        };
        op.execute(
            &mut ctx,
            ChunkTicket {
                step: 0,
                lease: lease.id,
                seq: 0,
                base: 4,
                worker: 0,
            },
        );
        assert_eq!(out.completed_iters, Some(3));
        // 3 iters × 1e6 FLOP at 1e6 FLOP/s, plus the local claim cost.
        assert_eq!(out.charged, SimSpan::from_secs(3) + chunk_calc_cost());
        let d = out.posts[0]
            .token
            .as_any()
            .downcast_ref::<ChunkDone>()
            .unwrap();
        assert_eq!((d.worker, d.start, d.len), (2, 4, 3));
    }

    #[test]
    fn collect_chunks_ignores_empty_completions() {
        let mut m = CollectChunks::default();
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut ctx = OpCtx::<(), RangeDone> {
            out: &mut out,
            thread: td.as_mut(),
            info: ExecInfo {
                thread_index: 0,
                thread_count: 1,
                node_flops: 1e9,
                start_nanos: 0,
            },
            _m: PhantomData,
        };
        for (start, len) in [(0u64, 5u64), (5, 0), (5, 7)] {
            m.consume(
                &mut ctx,
                ChunkDone {
                    step: 1,
                    worker: 0,
                    start,
                    len,
                },
            );
        }
        m.finalize(&mut ctx);
        let d = out.posts[0]
            .token
            .as_any()
            .downcast_ref::<RangeDone>()
            .unwrap();
        assert_eq!((d.step, d.iters, d.chunks), (1, 12, 2));
    }
}
