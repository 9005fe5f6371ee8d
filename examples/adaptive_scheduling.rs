//! Dynamic loop scheduling through the unified `Engine` API.
//!
//! An irregular, triangular-cost loop (iteration `i` costs ∝ `(i+1)²`, so
//! late iterations dominate) is partitioned by dynamic loop-scheduling
//! policies instead of the paper's static splits. **One generic driver**
//! (`run_schedule<E: Engine>`) executes the same flow graph on:
//!
//! 1. the deterministic [`SimEngine`] over a 2×-skewed heterogeneous
//!    cluster — static chunking hands the expensive tail to the slow node;
//!    AWF learns per-node rates from virtual-time completion reports;
//! 2. the real-thread `MtEngine` — wall-clock completion reports feed the
//!    same board, routing follows live per-thread queue depths.
//!
//! The worker operation is engine-agnostic too: it performs *real*
//! arithmetic (what the wall-clock engine measures) **and** charges the
//! equivalent virtual FLOPs (what the simulator measures), so neither
//! engine needs its own operation code.
//!
//! Run with: `cargo run --release --example adaptive_scheduling`
//! (optionally `-- --engine sim` or `-- --engine mt` to pick one backend,
//! or `-- --engine net` to run the same driver across three OS *processes*
//! over TCP — rank 0 re-executes this binary as two worker kernels).
//!
//! Add `-- --trace trace.json` to record every run into one
//! [`dps::obs::TraceCollector`] and export the merged event stream as
//! Chrome trace-event JSON (open in `chrome://tracing` or Perfetto). The
//! same flag works on every engine — on `net` the workers' logs ship to
//! the master at the end of each run and land in the same file.

use std::sync::Arc;

use dps::cluster::{default_mapping, ClusterSpec};
use dps::core::prelude::*;
use dps::core::sched::{
    chunk_calc_cost, ChunkDone, ChunkRoute, ChunkTicket, CollectChunks, IterRange, RangeDone,
    ScheduledSplit,
};
use dps::mt::MtEngine;
use dps::netengine::{NetEngine, NetEngineConfig};
use dps::obs::{chrome_trace_json, render_summary, schedule_hash, TraceCollector};
use dps::sched::{ChunkHub, FeedbackBoard, PolicyKind};

const ITERS: u64 = 256;
const STEPS: u32 = 3;

/// Per-iteration FLOP cost model: late iterations dominate (triangular).
fn cost(i: u64) -> f64 {
    let x = (i + 1) as f64;
    40.0 * x * x
}

/// A chunk worker that is honest on *both* engines: it claims its chunk
/// locally from the shared iteration counter (distributed chunk
/// calculation), runs genuine arithmetic proportional to the cost model
/// (measured by the wall-clock engine) and charges the model's virtual
/// FLOPs (measured by the simulator).
struct HybridWorker {
    hub: Arc<ChunkHub>,
}

impl LeafOperation for HybridWorker {
    type Thread = ();
    type In = ChunkTicket;
    type Out = ChunkDone;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ChunkDone>, t: ChunkTicket) {
        let Some(c) = self.hub.claim(t.lease) else {
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
        let mut acc = 0u64;
        let mut flops = 0.0;
        for i in start..start + c.len {
            for k in 0..(i + 1) * 200 {
                acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k));
            }
            flops += cost(i);
        }
        std::hint::black_box(acc);
        ctx.charge_flops(flops);
        ctx.mark_chunk(c.len);
        ctx.post(ChunkDone {
            step: t.step,
            worker: ctx.thread_index() as u32,
            start,
            len: c.len,
        });
    }
}

/// The one driver both engines share: build the scheduled loop over
/// `board`, run `STEPS` waves, return per-step makespans in the engine's
/// own time.
fn run_schedule<E: Engine>(
    eng: &mut E,
    policy: PolicyKind,
    workers_n: usize,
    board: Arc<FeedbackBoard>,
) -> Vec<f64> {
    let hub = eng.chunk_hub();
    eng.set_feedback_sink(board.clone());
    let app = eng.app("adaptive");
    eng.preload_app(app);
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", &default_mapping(workers_n, 1))
        .unwrap();

    let mut b = GraphBuilder::new("adaptive");
    let wcount = workers.thread_count();
    let split_board = board.clone();
    let split_hub = hub.clone();
    let split = b.split(
        &master,
        || ToThread(0),
        move || {
            ScheduledSplit::with_feedback(policy, wcount, split_hub.clone(), split_board.clone())
        },
    );
    let work = b.leaf(&workers, ChunkRoute::new, move || HybridWorker {
        hub: hub.clone(),
    });
    let merge = b.merge(&master, || ToThread(0), CollectChunks::default);
    b.add(split >> work >> merge);
    let g = eng.build_graph(b).unwrap();

    let mut makespans = Vec::new();
    for step in 0..STEPS {
        let t0 = eng.now_secs();
        eng.submit(
            g,
            Box::new(IterRange {
                start: 0,
                len: ITERS,
                step,
            }),
        )
        .unwrap();
        eng.run_to_idle(g, 1).unwrap();
        makespans.push(eng.now_secs() - t0);
        let done =
            downcast::<RangeDone>(eng.take_outputs(g).pop().unwrap()).expect("RangeDone output");
        assert_eq!(done.iters, ITERS, "every iteration scheduled exactly once");
    }
    makespans
}

fn engine_arg() -> Option<String> {
    arg_value("--engine")
}

/// `--trace PATH` / `--trace=PATH`: where to write the Chrome trace.
fn trace_arg() -> Option<String> {
    arg_value("--trace")
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let prefix = format!("{name}=");
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
        })
}

/// Drain the collector, print the per-wave summary, and write the Chrome
/// trace-event JSON.
fn export_trace(collector: &TraceCollector, path: &str) {
    let log = collector.take_log();
    std::fs::write(path, chrome_trace_json(&log)).expect("write Chrome trace");
    print!("\n{}", render_summary(&log));
    println!(
        "trace: {} events, schedule hash {:016x}, written to {path}",
        log.events.len(),
        schedule_hash(&log)
    );
}

fn main() {
    let which = engine_arg().unwrap_or_else(|| "both".to_string());
    assert!(
        matches!(which.as_str(), "sim" | "mt" | "net" | "both"),
        "unknown --engine value {which:?}: expected sim, mt, net, or both"
    );
    let trace_path = trace_arg();
    // One collector for the whole demo: every engine's runs append to the
    // same event stream, so the exported trace shows all backends side by
    // side (virtual timestamps for sim, wall-clock for mt/net).
    let collector = trace_path.as_ref().map(|_| TraceCollector::new());

    // Multi-process: rank 0 spawns two worker kernels that re-execute this
    // very binary (same `--engine net` arguments), so master and workers
    // run this same SPMD code path; chunks are claimed from the
    // master-hosted hub over TCP. Not part of the default `both` run.
    if which == "net" {
        let policy = PolicyKind::Awf;
        let mut eng = NetEngine::from_env(3, NetEngineConfig::default()).expect("net setup");
        let master = eng.is_master();
        let rank = eng.rank();
        // SPMD: every kernel attaches its sink; worker logs ship to the
        // master at the end of each run, so only rank 0 exports the file.
        if let Some(c) = &collector {
            eng.set_trace_sink(c.clone());
        }
        if master {
            println!("Triangular-cost loop, {ITERS} iterations × {STEPS} steps");
            println!("\n-- NetEngine: the same driver across 3 OS processes over TCP --");
        }
        let board = Arc::new(FeedbackBoard::for_policy(policy));
        let wall = run_schedule(&mut eng, policy, 3, board.clone());
        eng.shutdown();
        if master {
            if let (Some(c), Some(path)) = (&collector, &trace_path) {
                export_trace(c, path);
            }
            let chunks = board.total_chunks();
            let steps: Vec<String> = wall.iter().map(|s| format!("{:.1}ms", s * 1e3)).collect();
            println!(
                "{:>7}: steps [{}]  ({chunks} chunk completions reported over the wire)",
                policy.name(),
                steps.join(", ")
            );
            println!("\nSame application code; only the engine (and its clock) changed.");
        } else {
            println!("worker kernel {rank}: {STEPS} scheduled steps completed");
        }
        return;
    }

    println!("Triangular-cost loop, {ITERS} iterations × {STEPS} steps");

    if which == "sim" || which == "both" {
        println!("\n-- SimEngine: fast node + 2×-slower node (virtual time) --");
        let mut totals = Vec::new();
        for policy in [PolicyKind::Static, PolicyKind::Fac, PolicyKind::Awf] {
            let mut eng = SimEngine::with_config(
                ClusterSpec::heterogeneous(1, &[70.0e6, 35.0e6]),
                EngineConfig {
                    flow_window: 4, // small window → live self-scheduling
                    ..EngineConfig::default()
                },
            );
            if let Some(c) = &collector {
                eng.set_trace_sink(c.clone());
            }
            let board = Arc::new(FeedbackBoard::for_policy(policy));
            let makespans = run_schedule(&mut eng, policy, 2, board.clone());
            let weights = board.weights(2);
            let steps: Vec<String> = makespans.iter().map(|s| format!("{s:.3}s")).collect();
            println!(
                "{:>7}: steps [{}]  learned weights [{:.2}, {:.2}]",
                policy.name(),
                steps.join(", "),
                weights[0],
                weights[1]
            );
            totals.push(makespans.iter().sum::<f64>());
        }
        let (static_total, awf_total) = (totals[0], totals[2]);
        let gain = 1.0 - awf_total / static_total;
        println!(
            "AWF beats static chunking by {:.1}% on the skewed cluster",
            100.0 * gain
        );
        assert!(gain > 0.15, "adaptive scheduling should win on skew");
    }

    if which == "mt" || which == "both" {
        println!("\n-- MtEngine: the same driver on real OS threads (wall clock) --");
        for policy in [PolicyKind::Awf, PolicyKind::AwfC] {
            let mut eng = MtEngine::new(4);
            if let Some(c) = &collector {
                eng.set_trace_sink(c.clone());
            }
            let board = Arc::new(FeedbackBoard::for_policy(policy));
            eng.set_feedback_sink(board.clone());
            let wall = run_schedule(&mut eng, policy, 4, board.clone());
            let chunks = board.total_chunks();
            eng.shutdown();
            let steps: Vec<String> = wall.iter().map(|s| format!("{:.1}ms", s * 1e3)).collect();
            println!(
                "{:>7}: steps [{}]  ({chunks} chunk completions reported wall-clock)",
                policy.name(),
                steps.join(", ")
            );
        }
    }

    if let (Some(c), Some(path)) = (&collector, &trace_path) {
        export_trace(c, path);
    }
    println!("\nSame application code; only the engine (and its clock) changed.");
}
