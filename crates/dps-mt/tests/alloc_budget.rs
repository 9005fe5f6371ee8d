//! The allocation budget of the token path (docs/ARCHITECTURE.md §1): on
//! `MtEngine`, a self-scheduled chunk costs two heap blocks — its
//! `ChunkTicket` and its `ChunkDone` — and nothing the kernel owns. A post
//! is framed as it leaves its flow, the load snapshot lives on the stack,
//! and a worker's `OpOutput` is reused from run to run.
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
fn a_chunk_on_mt_costs_its_ticket_and_its_result() {
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
    // Two token boxes, and the channel blocks their messages share.
    assert!(
        per_chunk <= 2.25,
        "a chunk on mt took {per_chunk:.2} heap blocks; its budget is its ticket and its \
         result (2, plus channel blocks)"
    );
}

/// The same loop on the simulator, window 0: the 12 blocks a chunk takes
/// there are the simulator's events and their closures, none the kernel's.
#[test]
fn a_chunk_on_sim_costs_no_kernel_block() {
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
        per_chunk <= 12.25,
        "a chunk on sim took {per_chunk:.2} heap blocks; the simulator's own events take 12"
    );
}
