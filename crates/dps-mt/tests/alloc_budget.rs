//! The allocation budget of the token path (docs/ARCHITECTURE.md §1): on
//! `MtEngine` and on the simulator, a self-scheduled chunk costs no heap
//! block of its own. Its `ChunkTicket` and its `ChunkDone` are small
//! enough to travel in place (`Carried`), a post is framed as it leaves its
//! flow, the load snapshot lives on the stack, a worker's `OpOutput` is
//! reused from run to run, and the simulator's events are values in a
//! reused slab. What is left on `mt` is the channels' own blocks, which a
//! queue takes per run of messages, not per message.
//!
//! A token two waves deep — LU's shape, split → nested split → leaf →
//! merge → merge — costs a bounded few blocks on either engine: its frames
//! sit behind one pointer past the first, and its wave's key holds its
//! parent frame.
//!
//! A test binary of its own, because it counts every allocation of the
//! process through its `#[global_allocator]`. Run it with
//! `cargo test --release -p dps-mt --test alloc_budget -- --nocapture` to see
//! the per-chunk counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dps_core::prelude::*;
use dps_core::sched::{ChunkRoute, ChunkWorker, CollectChunks, IterRange, ScheduledSplit};
use dps_core::{Engine, EngineConfig};
use dps_mt::{MtConfig, MtEngine};
use dps_sched::{FeedbackBoard, PolicyKind};

/// The system allocator, counting the blocks it hands out (an `alloc`, an
/// `alloc_zeroed` or a `realloc` is one each).
struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this binary count one process-wide number: one at a time.
static ALONE: Mutex<()> = Mutex::new(());

/// Chunks of the smaller loop; the larger runs twice as many.
const N: u64 = 10_000;

/// The DLS loop of the benchmark's `dls_ss_*` workloads: SS tickets from a
/// split on `node0` to one worker on each of `node0` and `node1`, merged on
/// `node0`, with the feedback board attached. Returns the heap blocks each
/// of `loops` (in chunks, one iteration each) took from its submit to its
/// output, after one warm-up loop.
fn blocks_per_loop<E: Engine>(eng: &mut E, loops: &[u64]) -> Vec<u64> {
    let board = Arc::new(FeedbackBoard::for_policy(PolicyKind::Ss));
    eng.set_feedback_sink(board.clone());
    let app = eng.app("budget");
    eng.preload_app(app);
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1")
        .unwrap();
    let hub = eng.chunk_hub();
    let split_hub = hub.clone();
    let mut b = GraphBuilder::new("budget");
    let split = b.split(
        &master,
        || ToThread(0),
        move || ScheduledSplit::with_feedback(PolicyKind::Ss, 2, split_hub.clone(), board.clone()),
    );
    let work = b.leaf(&workers, ChunkRoute::new, move || {
        ChunkWorker::uniform(1.0, hub.clone())
    });
    let merge = b.merge(&master, || ToThread(0), CollectChunks::default);
    b.add(split >> work >> merge);
    let g = eng.build_graph(b).unwrap();
    let mut run = |len: u64, step: u32| {
        let before = BLOCKS.load(Ordering::Relaxed);
        eng.submit(
            g,
            Box::new(IterRange {
                start: 0,
                len,
                step,
            }),
        )
        .unwrap();
        eng.run_to_idle(g, 1).unwrap();
        let blocks = BLOCKS.load(Ordering::Relaxed) - before;
        assert_eq!(eng.take_outputs(g).len(), 1, "one RangeDone per loop");
        blocks
    };
    run(N / 10, 0);
    let steps = 1..;
    loops
        .iter()
        .zip(steps)
        .map(|(&len, step)| run(len, step))
        .collect()
}

/// Heap blocks per chunk: what the larger loop took over the smaller one,
/// per chunk of the difference, so the per-wave costs cancel out.
fn per_chunk(blocks: &[u64]) -> f64 {
    (blocks[1] as f64 - blocks[0] as f64) / N as f64
}

#[test]
fn a_chunk_on_mt_costs_no_block_but_a_share_of_the_channels() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MtConfig {
        flow_window: 0,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(2, cfg);
    let blocks = blocks_per_loop(&mut eng, &[N, 2 * N]);
    eng.shutdown();
    let per_chunk = per_chunk(&blocks);
    println!(
        "mt: {per_chunk:.2} heap blocks per chunk ({blocks:?} for {N} and {} chunks)",
        2 * N
    );
    // No token box: only the blocks the channels take for their queues.
    assert!(
        per_chunk <= 0.25,
        "a chunk on mt took {per_chunk:.2} heap blocks; its ticket and its result travel in \
         place, so its budget is a share of the channel blocks (0.25)"
    );
}

/// The same loop on the simulator, window 0: the simulator's events are
/// plain values kept in a slab whose slots are reused, a node's CPUs queue
/// what waits for them in place, and the two tokens travel in place, so a
/// chunk costs no heap block at all.
#[test]
fn a_chunk_on_sim_costs_no_block() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = EngineConfig {
        flow_window: 0,
        ..EngineConfig::default()
    };
    let mut eng = SimEngine::with_config(dps_cluster::ClusterSpec::uniform(2, 1), cfg);
    let blocks = blocks_per_loop(&mut eng, &[N, 2 * N]);
    let per_chunk = per_chunk(&blocks);
    println!(
        "sim: {per_chunk:.2} heap blocks per chunk ({blocks:?} for {N} and {} chunks)",
        2 * N
    );
    assert!(
        per_chunk <= 0.05,
        "a chunk on sim took {per_chunk:.2} heap blocks; its ticket and its result travel in \
         place, so its budget is none (0.05 of slack)"
    );
}

dps_token! { pub struct Outer { pub waves: u32, pub pieces: u32 } }
dps_token! { pub struct Inner { pub pieces: u32 } }
dps_token! { pub struct Piece { pub v: u64 } }
dps_token! { pub struct Sum { pub v: u64 } }

/// Opens `waves` inner waves of `pieces` pieces each.
struct FanOuter;
impl SplitOperation for FanOuter {
    type Thread = ();
    type In = Outer;
    type Out = Inner;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Inner>, o: Outer) {
        for _ in 0..o.waves {
            ctx.post(Inner { pieces: o.pieces });
        }
    }
}

struct FanInner;
impl SplitOperation for FanInner {
    type Thread = ();
    type In = Inner;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, i: Inner) {
        for v in 0..u64::from(i.pieces) {
            ctx.post(Piece { v });
        }
    }
}

struct Square;
impl LeafOperation for Square {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        ctx.post(Piece { v: p.v * p.v });
    }
}

#[derive(Default)]
struct Add(u64);
impl MergeOperation for Add {
    type Thread = ();
    type In = Piece;
    type Out = Sum;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Sum>, p: Piece) {
        self.0 += p.v;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Sum>) {
        ctx.post(Sum { v: self.0 });
    }
}

#[derive(Default)]
struct AddSums(u64);
impl MergeOperation for AddSums {
    type Thread = ();
    type In = Sum;
    type Out = Sum;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Sum>, s: Sum) {
        self.0 += s.v;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Sum>) {
        ctx.post(Sum { v: self.0 });
    }
}

/// Inner waves of each nested run.
const WAVES: u32 = 10;

/// LU's shape: split → nested split → leaf → merge → merge, the splits and
/// merges on `node0`, the leaf on `node0` and `node1`. Every piece travels
/// two waves deep. Returns the heap blocks each run of [`WAVES`] inner
/// waves of `pieces` pieces took from its submit to its output, after one
/// warm-up run.
fn blocks_per_nested<E: Engine>(eng: &mut E, pieces: &[u32]) -> Vec<u64> {
    let app = eng.app("nested");
    eng.preload_app(app);
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1")
        .unwrap();
    let mut b = GraphBuilder::new("nested");
    let outer = b.split(&master, || ToThread(0), || FanOuter);
    let inner = b.split(&master, || ToThread(0), || FanInner);
    let leaf = b.leaf(&workers, RoundRobin::new, || Square);
    let merge = b.merge(&master, || ToThread(0), Add::default);
    let outer_merge = b.merge(&master, || ToThread(0), AddSums::default);
    b.add(outer >> inner >> leaf >> merge >> outer_merge);
    let g = eng.build_graph(b).unwrap();
    let mut run = |pieces: u32| {
        let before = BLOCKS.load(Ordering::Relaxed);
        let waves = WAVES;
        eng.submit(g, Box::new(Outer { waves, pieces })).unwrap();
        eng.run_to_idle(g, 1).unwrap();
        let blocks = BLOCKS.load(Ordering::Relaxed) - before;
        let out = eng.take_outputs(g);
        let squares: u64 = (0..u64::from(pieces)).map(|v| v * v).sum();
        let sum = downcast::<Sum>(out.into_iter().next().expect("one Sum per run"));
        assert_eq!(sum.unwrap().v, u64::from(waves) * squares);
        blocks
    };
    run(pieces[0] / 10);
    pieces.iter().map(|&n| run(n)).collect()
}

/// Pieces of an inner wave in the smaller nested run; the larger runs
/// twice as many.
const PIECES: u32 = 1_000;

/// Heap blocks per inner token: what the larger nested run took over the
/// smaller one, per piece of the difference, so the per-wave costs cancel.
/// An inner token is two frames deep: its frames take one block (one frame
/// lives in place, `dps_core::Frames`); the key of its inner wave, made
/// once to route it to the merge and once where the merge serves it, holds
/// its one parent frame in place too.
fn per_inner_token(blocks: &[u64]) -> f64 {
    (blocks[1] as f64 - blocks[0] as f64) / f64::from(WAVES * PIECES)
}

#[test]
fn an_inner_token_on_mt_costs_one_block() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MtConfig {
        flow_window: 0,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(2, cfg);
    let blocks = blocks_per_nested(&mut eng, &[PIECES, 2 * PIECES]);
    eng.shutdown();
    let per_token = per_inner_token(&blocks);
    println!(
        "mt nested: {per_token:.2} heap blocks per inner token ({blocks:?} for {} and {} \
         inner tokens)",
        WAVES * PIECES,
        2 * WAVES * PIECES
    );
    assert!(
        per_token <= 1.1,
        "an inner token on mt took {per_token:.2} heap blocks; with one frame in place it \
         takes its frames' block, and the keys of its wave hold their parent in place (1.07), \
         so its budget is 1.1"
    );
}

#[test]
fn an_inner_token_on_sim_costs_one_block() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = EngineConfig {
        flow_window: 0,
        ..EngineConfig::default()
    };
    let mut eng = SimEngine::with_config(dps_cluster::ClusterSpec::uniform(2, 1), cfg);
    let blocks = blocks_per_nested(&mut eng, &[PIECES, 2 * PIECES]);
    let per_token = per_inner_token(&blocks);
    println!(
        "sim nested: {per_token:.2} heap blocks per inner token ({blocks:?} for {} and {} \
         inner tokens)",
        WAVES * PIECES,
        2 * WAVES * PIECES
    );
    assert!(
        per_token <= 1.05,
        "an inner token on sim took {per_token:.2} heap blocks; with one frame in place it \
         takes its frames' block, and the keys of its wave hold their parent in place (1.01), \
         so its budget is 1.05"
    );
}
