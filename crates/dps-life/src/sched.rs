//! Dynamically scheduled Life: row-band chunks through the DLS stack.
//!
//! The banded graphs of [`crate::graphs`] pin one fixed band of the world to
//! each worker — the paper's layout, but a straitjacket on heterogeneous
//! clusters (the slowest node's band sets the pace) and a single point of
//! data loss under node failure. This module trades band locality for
//! schedulability, the classic master–worker arrangement of the DLS
//! verification study (arXiv:1804.11115):
//!
//! * the **world lives on the master** (a one-thread `WorldState`
//!   collection); workers hold no state;
//! * each iteration is announced as an [`IterRange`] over the world's rows;
//!   a [`ScheduledSplit`] posts boundary-free chunk tickets and every worker
//!   **claims** its chunk locally from the shared iteration counter
//!   (distributed chunk calculation — no master-side chunk loop);
//! * the claiming worker requests its rows (plus halo rows) from the master,
//!   computes the next generation for the chunk, and reports the chunk's
//!   completion time — so AWF re-weights chunks to measured node speeds
//!   across iterations;
//! * a merge on the master applies the computed rows into the back buffer
//!   and swaps generations when the wave completes.
//!
//! Because chunks are self-contained (the data travels with the request/
//! response pair) any worker can compute any chunk: on
//! [`SimEngine::fail_node`](dps_core::SimEngine::fail_node) the stranded
//! tickets and row slabs are re-queued to live workers and the wave still
//! commits the correct generation — the graceful-degradation path the
//! banded layout cannot offer.

use std::sync::Arc;

use dps_cluster::default_mapping;
use dps_core::prelude::*;
use dps_core::sched::{
    build_calibration, chunk_calc_cost, ChunkRoute, ChunkTicket, IterRange, ScheduledSplit,
    WorkerHinted,
};
use dps_core::{dps_token, Engine};
use dps_sched::{ChunkHub, FeedbackBoard, PolicyKind};
use dps_serial::Buffer;

use crate::graphs::{cell_cost, IterDone, LifeConfig, LifeRunReport};
use crate::world::{step_cell, World};

dps_token! {
    /// A claimed row chunk: worker `worker` asks the master for world rows
    /// `start..start + len` (plus halos). `len == 0` is the drained-lease
    /// placeholder that keeps the wave accounting exact.
    pub struct RowRequest { pub step: u32, pub start: u32, pub len: u32, pub worker: u32 }
}

dps_token! {
    /// The requested rows travelling to worker `worker`: `len × cols` cells
    /// plus the neighbouring halo rows (empty at the world's edges).
    pub struct RowSlab {
        pub step: u32,
        pub start: u32,
        pub len: u32,
        pub worker: u32,
        pub cols: u32,
        pub cells: Buffer<u8>,
        pub halo_top: Buffer<u8>,
        pub halo_bottom: Buffer<u8>,
    }
}

dps_token! {
    /// Next-generation rows computed for one chunk, with its live count.
    pub struct RowsComputed {
        pub step: u32,
        pub start: u32,
        pub len: u32,
        pub live: u64,
        pub cells: Buffer<u8>,
    }
}

dps_token! {
    /// Load a world: into the master store here, into the worker bands in
    /// the banded graphs' loader.
    pub struct LoadWorld { pub rows: u32, pub cols: u32, pub cells: Buffer<u8> }
}

dps_token! {
    /// Acknowledgement of a [`LoadWorld`]: the rows installed.
    pub struct WorldLoaded { pub rows: u32 }
}

dps_token! {
    /// Ask the master store for the current world.
    pub struct DumpOrder { pub tag: u32 }
}

dps_token! {
    /// The gathered world.
    pub struct WorldDump { pub rows: u32, pub cols: u32, pub population: u64, pub cells: Buffer<u8> }
}

impl WorkerHinted for RowSlab {
    fn worker_hint(&self) -> u32 {
        self.worker
    }
}

/// Master thread state: the current world and the next-generation back
/// buffer the merge assembles.
#[derive(Debug)]
pub struct WorldState {
    /// Current generation.
    pub world: World,
    /// Back buffer under construction (fully overwritten every wave).
    pub next: World,
}

impl Default for WorldState {
    fn default() -> Self {
        Self {
            world: World::dead(0, 0),
            next: World::dead(0, 0),
        }
    }
}

impl WorldState {
    /// Install a world (and size the back buffer to match).
    pub fn load(&mut self, world: World) {
        self.next = World::dead(world.rows(), world.cols());
        self.world = world;
    }
}

/// Claim the chunk a ticket stands for (distributed chunk calculation) and
/// turn it into a row request.
struct ClaimRows {
    hub: Arc<ChunkHub>,
}

impl LeafOperation for ClaimRows {
    type Thread = ();
    type In = ChunkTicket;
    type Out = RowRequest;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), RowRequest>, t: ChunkTicket) {
        let Some(c) = self.hub.claim(t.lease) else {
            ctx.post(RowRequest {
                step: t.step,
                start: 0,
                len: 0,
                worker: ctx.thread_index() as u32,
            });
            return;
        };
        ctx.charge(chunk_calc_cost());
        ctx.post(RowRequest {
            step: t.step,
            start: (t.base + c.start) as u32,
            len: c.len as u32,
            worker: ctx.thread_index() as u32,
        });
    }
}

/// Master side of a chunk: serve the requested rows plus halos.
struct ServeRows;

impl LeafOperation for ServeRows {
    type Thread = WorldState;
    type In = RowRequest;
    type Out = RowSlab;
    fn execute(&mut self, ctx: &mut OpCtx<'_, WorldState, RowSlab>, r: RowRequest) {
        let (step, worker) = (r.step, r.worker);
        if r.len == 0 {
            ctx.post(RowSlab {
                step,
                start: 0,
                len: 0,
                worker,
                cols: 0,
                cells: Buffer::new(),
                halo_top: Buffer::new(),
                halo_bottom: Buffer::new(),
            });
            return;
        }
        let st = ctx.thread();
        let cols = st.world.cols();
        let (start, len) = (r.start as usize, r.len as usize);
        let mut cells = Vec::with_capacity(len * cols);
        for row in start..start + len {
            cells.extend_from_slice(st.world.row(row));
        }
        let halo_top: Vec<u8> = if start > 0 {
            st.world.row(start - 1).to_vec()
        } else {
            Vec::new()
        };
        let halo_bottom: Vec<u8> = if start + len < st.world.rows() {
            st.world.row(start + len).to_vec()
        } else {
            Vec::new()
        };
        ctx.charge_flops((cells.len() + halo_top.len() + halo_bottom.len()) as f64);
        ctx.post(RowSlab {
            step,
            start: r.start,
            len: r.len,
            worker,
            cols: cols as u32,
            cells: cells.into(),
            halo_top: halo_top.into(),
            halo_bottom: halo_bottom.into(),
        });
    }
}

/// Compute the next generation of one row chunk. Stateless: everything the
/// update needs travels in the slab, so any worker can execute it — the
/// property node-failure re-queuing relies on.
struct ComputeRows;

impl LeafOperation for ComputeRows {
    type Thread = ();
    type In = RowSlab;
    type Out = RowsComputed;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), RowsComputed>, s: RowSlab) {
        if s.len == 0 {
            ctx.post(RowsComputed {
                step: s.step,
                start: s.start,
                len: 0,
                live: 0,
                cells: Buffer::new(),
            });
            return;
        }
        let (len, cols) = (s.len as usize, s.cols as usize);
        let cells = s.cells.as_slice();
        let row = |r: usize| &cells[r * cols..(r + 1) * cols];
        let mut out = Vec::with_capacity(len * cols);
        let mut live = 0u64;
        for r in 0..len {
            let above = if r > 0 {
                Some(row(r - 1))
            } else if s.halo_top.is_empty() {
                None
            } else {
                Some(s.halo_top.as_slice())
            };
            let below = if r + 1 < len {
                Some(row(r + 1))
            } else if s.halo_bottom.is_empty() {
                None
            } else {
                Some(s.halo_bottom.as_slice())
            };
            for c in 0..cols {
                let v = step_cell(row(r), above, below, c);
                live += u64::from(v);
                out.push(v);
            }
        }
        ctx.charge_flops(cell_cost(len * cols));
        ctx.mark_chunk(s.len as u64);
        ctx.post(RowsComputed {
            step: s.step,
            start: s.start,
            len: s.len,
            live,
            cells: out.into(),
        });
    }
}

/// Apply computed chunks into the back buffer; commit the generation (and
/// report the population) when the wave completes.
#[derive(Default)]
struct ApplyRows {
    step: u32,
    live: u64,
}

impl MergeOperation for ApplyRows {
    type Thread = WorldState;
    type In = RowsComputed;
    type Out = IterDone;
    fn consume(&mut self, ctx: &mut OpCtx<'_, WorldState, IterDone>, r: RowsComputed) {
        self.step = r.step;
        self.live += r.live;
        if r.len == 0 {
            return;
        }
        let st = ctx.thread();
        let cols = st.next.cols();
        let cells = r.cells.as_slice();
        for row in 0..r.len as usize {
            st.next
                .row_mut(r.start as usize + row)
                .copy_from_slice(&cells[row * cols..(row + 1) * cols]);
        }
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, WorldState, IterDone>) {
        let st = ctx.thread();
        std::mem::swap(&mut st.world, &mut st.next);
        ctx.post(IterDone {
            iter: self.step,
            population: self.live,
        });
    }
}

/// Load a world shipped as a token into the master store.
struct InstallWorld;

impl LeafOperation for InstallWorld {
    type Thread = WorldState;
    type In = LoadWorld;
    type Out = WorldLoaded;
    fn execute(&mut self, ctx: &mut OpCtx<'_, WorldState, WorldLoaded>, w: LoadWorld) {
        let rows = w.rows;
        let world = World::from_flat(w.rows as usize, w.cols as usize, w.cells.into_vec());
        ctx.thread().load(world);
        ctx.post(WorldLoaded { rows });
    }
}

/// Dump the master store's current world.
struct ExtractWorld;

impl LeafOperation for ExtractWorld {
    type Thread = WorldState;
    type In = DumpOrder;
    type Out = WorldDump;
    fn execute(&mut self, ctx: &mut OpCtx<'_, WorldState, WorldDump>, _d: DumpOrder) {
        let st = ctx.thread();
        let rows = st.world.rows();
        let cols = st.world.cols();
        let cells = st.world.as_slice().to_vec();
        let population = cells.iter().map(|&c| u64::from(c)).sum();
        ctx.post(WorldDump {
            rows: rows as u32,
            cols: cols as u32,
            population,
            cells: cells.into(),
        });
    }
}

/// Build the scheduled iteration graph over already-created collections.
/// Engine-agnostic: pass the builder to any `Engine::build_graph`.
pub fn scheduled_step_builder(
    ctl: &ThreadCollection<()>,
    store: &ThreadCollection<WorldState>,
    workers: &ThreadCollection<()>,
    kind: PolicyKind,
    hub: Arc<ChunkHub>,
    board: Arc<FeedbackBoard>,
) -> GraphBuilder {
    let w = workers.thread_count();
    let mut b = GraphBuilder::new("life-scheduled");
    let split_hub = Arc::clone(&hub);
    let split = b.split(
        ctl,
        || ToThread(0),
        move || ScheduledSplit::with_feedback(kind, w, split_hub.clone(), board.clone()),
    );
    let claim = b.leaf(workers, ChunkRoute::new, move || ClaimRows {
        hub: hub.clone(),
    });
    let serve = b.leaf(store, || ToThread(0), || ServeRows);
    let compute = b.leaf(workers, ChunkRoute::new, || ComputeRows);
    let apply = b.merge(store, || ToThread(0), ApplyRows::default);
    b.add(split >> claim >> serve >> compute >> apply);
    b
}

/// Build the world-loader graph (`LoadWorld → WorldLoaded`).
pub fn world_loader_builder(store: &ThreadCollection<WorldState>) -> GraphBuilder {
    let mut b = GraphBuilder::new("life-load");
    let _ = b.leaf(store, || ToThread(0), || InstallWorld);
    b
}

/// Build the world-dump graph (`DumpOrder → WorldDump`).
pub fn world_dump_builder(store: &ThreadCollection<WorldState>) -> GraphBuilder {
    let mut b = GraphBuilder::new("life-dump");
    let _ = b.leaf(store, || ToThread(0), || ExtractWorld);
    b
}

/// A scheduled Life application set up on any [`Engine`]: its collections,
/// graphs and feedback board — everything a driver (or a failure-injection
/// test) needs.
pub struct ScheduledLife {
    /// The owning application.
    pub app: AppHandle,
    /// The scheduled iteration graph (`IterRange → IterDone`).
    pub step: GraphHandle,
    /// The world-loader graph (`LoadWorld → WorldLoaded`).
    pub loader: GraphHandle,
    /// The world-dump graph (`DumpOrder → WorldDump`).
    pub dumper: GraphHandle,
    /// The feedback board AWF-family policies adapt from.
    pub board: Arc<FeedbackBoard>,
}

impl ScheduledLife {
    /// Advance the world one generation; returns the committed iteration
    /// report.
    pub fn step_once<E: Engine>(&self, eng: &mut E, rows: usize, iter: u32) -> Result<IterDone> {
        eng.submit(
            self.step,
            Box::new(IterRange {
                start: 0,
                len: rows as u64,
                step: iter,
            }),
        )?;
        eng.run_to_idle(self.step, 1)?;
        let out = eng.take_outputs(self.step).pop().expect("one IterDone");
        Ok(*dps_core::downcast::<IterDone>(out).expect("IterDone output"))
    }

    /// Gather the master store's current world.
    pub fn dump<E: Engine>(&self, eng: &mut E) -> Result<World> {
        eng.submit(self.dumper, Box::new(DumpOrder { tag: 0 }))?;
        eng.run_to_idle(self.dumper, 1)?;
        let out = eng.take_outputs(self.dumper).pop().expect("one WorldDump");
        let d = dps_core::downcast::<WorldDump>(out).expect("WorldDump output");
        Ok(World::from_flat(
            d.rows as usize,
            d.cols as usize,
            d.cells.into_vec(),
        ))
    }
}

/// Set up a scheduled Life application on **any engine**: collections,
/// feedback board + chunk hub (estimator matching `kind` — AWF-B/AWF-C get
/// their batch-/chunk-time weighting), the iteration/loader/dump graphs, a
/// rate-calibration warm-up, and the initial world shipped into the master
/// store. All declarations happen before the first run, so the same code
/// drives the simulator and the OS-thread engine.
pub fn setup_scheduled_life<E: Engine>(
    eng: &mut E,
    cfg: &LifeConfig,
    kind: PolicyKind,
    world: &World,
) -> Result<ScheduledLife> {
    let app = eng.app("life-sched");
    eng.preload_app(app);
    let board = Arc::new(FeedbackBoard::for_policy(kind));
    let hub = eng.chunk_hub();
    let ctl: ThreadCollection<()> = eng.thread_collection(app, "ctl", "node0")?;
    let store: ThreadCollection<WorldState> = eng.thread_collection(app, "world", "node0")?;
    let mapping = default_mapping(cfg.nodes, cfg.threads_per_node);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "rows", &mapping)?;
    // Declare everything before the first run (`mt` and `net` reject later
    // declarations): calibration loop, step graph, loader, dumper.
    let calibration = build_calibration(eng, app, &mapping, &hub, &board)?;
    let step = eng.build_graph(scheduled_step_builder(
        &ctl,
        &store,
        &workers,
        kind,
        hub,
        board.clone(),
    ))?;
    let loader = eng.build_graph(world_loader_builder(&store))?;
    let dumper = eng.build_graph(world_dump_builder(&store))?;
    // Warm up the board so even the first wave is sized from measured
    // rates, then ship the world into the master store.
    calibration.run(eng, 2)?;
    eng.submit(
        loader,
        Box::new(LoadWorld {
            rows: world.rows() as u32,
            cols: world.cols() as u32,
            cells: world.as_slice().to_vec().into(),
        }),
    )?;
    eng.run_to_idle(loader, 1)?;
    let _ = eng.take_outputs(loader);
    Ok(ScheduledLife {
        app,
        step,
        loader,
        dumper,
        board,
    })
}

/// Run a scheduled Life experiment on **any engine** (the
/// `Distribution::Scheduled` arm of [`crate::run_life`]): master-held world,
/// worker-claimed row chunks, per-iteration makespans in the engine's own
/// notion of time.
pub fn run_life_scheduled<E: Engine>(
    eng: &mut E,
    cfg: &LifeConfig,
    kind: PolicyKind,
) -> Result<LifeRunReport> {
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let life = setup_scheduled_life(eng, cfg, kind, &world)?;
    let mut per_iter = Vec::with_capacity(cfg.iterations);
    let start = eng.now_secs();
    for i in 0..cfg.iterations {
        let t0 = eng.now_secs();
        let done = life.step_once(eng, cfg.rows, i as u32)?;
        per_iter.push(SimSpan::from_secs_f64(eng.now_secs() - t0));
        debug_assert_eq!(done.iter, i as u32);
    }
    let elapsed = SimSpan::from_secs_f64(eng.now_secs() - start);
    let world = life.dump(eng)?;
    Ok(LifeRunReport {
        elapsed,
        per_iter,
        world,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::Variant;
    use dps_cluster::ClusterSpec;
    use dps_core::SimEngine;
    use dps_sched::Distribution;

    fn cfg(kind: PolicyKind, nodes: usize, iterations: usize) -> LifeConfig {
        LifeConfig {
            rows: 36,
            cols: 24,
            iterations,
            variant: Variant::Simple,
            nodes,
            threads_per_node: 1,
            density: 0.35,
            seed: 77,
            dist: Distribution::Scheduled(kind),
        }
    }

    #[test]
    fn scheduled_life_matches_reference_for_every_policy() {
        for kind in PolicyKind::ALL {
            let c = cfg(kind, 3, 4);
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(3));
            let rep = crate::run_life(&mut eng, &c).unwrap();
            let expect = World::random(c.rows, c.cols, c.density, c.seed).step_n(c.iterations);
            assert_eq!(rep.world, expect, "{kind:?} diverged from reference");
        }
    }

    #[test]
    fn scheduled_life_is_deterministic() {
        let c = cfg(PolicyKind::Awf, 2, 3);
        let run = || {
            let mut eng = SimEngine::new(ClusterSpec::skewed(2, 2, 2.0));
            crate::run_life(&mut eng, &c).unwrap().per_iter
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_worker_scheduled_life_works() {
        let c = cfg(PolicyKind::Gss, 1, 2);
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(1));
        let rep = crate::run_life(&mut eng, &c).unwrap();
        let expect = World::random(c.rows, c.cols, c.density, c.seed).step_n(c.iterations);
        assert_eq!(rep.world, expect);
    }
}
