//! Table 2 — simulation iteration time with and without inter-application
//! graph calls.
//!
//! Paper §5: a visualization client "periodically requests randomly located
//! fixed-sized blocks from a world of 5620×5620 cells. When running on 4
//! machines without visualization graph calls, calculating one iteration
//! takes 1000 ms." The table reports, per requested block size, the median
//! time per call, the slowed-down iteration time, and the average number of
//! calls per second.
//!
//! The client issues calls in a closed loop (next call when the previous
//! returns), interleaved with the Life iterations through the engine's
//! single-step API.

use dps_bench::{full_scale, table};
use dps_cluster::ClusterSpec;
use dps_core::prelude::*;
use dps_core::SimEngine;
use dps_des::{stats::Samples, SplitMix64};
use dps_life::graphs::{setup_life, IterOrder, ReadReq};
use dps_life::{LifeConfig, Variant, World};
use dps_sched::Distribution;

struct CallShape {
    width: u32,
    height: u32,
}

fn run_config(
    world_size: usize,
    nodes: usize,
    iterations: usize,
    shape: Option<CallShape>,
) -> (f64, f64, f64) {
    let cfg = LifeConfig {
        rows: world_size,
        cols: world_size,
        iterations,
        variant: Variant::Improved,
        nodes,
        threads_per_node: 1,
        density: 0.3,
        seed: 99,
        dist: Distribution::Static,
    };
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(nodes));
    let life = setup_life(&mut eng, &cfg, &world).expect("setup");
    let step_graph = life.step;
    eng.expose_service(life.read, "life.read");

    // The visualization client is a second application whose graph is a
    // single call node into the exposed service (Fig. 10).
    let client = eng.app("viz");
    eng.preload_app(client);
    let cmain: ThreadCollection<()> = eng
        .thread_collection(client, "m", "node0")
        .expect("client tc");
    let mut cb = GraphBuilder::new("viz-call");
    let _call =
        cb.call::<ReadReq, dps_life::graphs::Subset, (), _>("life.read", &cmain, || ToThread(0));
    let call_graph = eng.build_graph(cb).expect("client graph");

    let mut rng = SplitMix64::new(4);
    let mut issue = |eng: &mut SimEngine, shape: &CallShape| {
        let w = shape.width.min(world_size as u32 - 1);
        let h = shape.height.min(world_size as u32 - 1);
        let col0 = rng.next_below(world_size as u64 - u64::from(w));
        let row0 = rng.next_below(world_size as u64 - u64::from(h));
        let t = eng.now();
        eng.submit(
            call_graph,
            Box::new(ReadReq {
                col0: col0 as u32,
                row0: row0 as u32,
                width: w,
                height: h,
            }),
        )
        .expect("submit call");
        t
    };

    let mut call_times = Samples::new();
    let mut iter_times = Samples::new();
    let mut calls_done = 0usize;
    let mut call_started = None;

    // Rates count from the first iteration: loading the world is set-up.
    let loop_start = eng.now();
    for i in 0..iterations {
        let t0 = eng.now();
        eng.submit(step_graph, Box::new(IterOrder { iter: i as u32 }))
            .expect("submit iteration");
        if let (Some(shape), None) = (&shape, call_started) {
            call_started = Some(issue(&mut eng, shape));
        }
        // Interleave: step events until this iteration completes; whenever
        // the in-flight call returns, record it and issue the next one.
        while eng.outputs_count(step_graph) <= i {
            if !eng.step_once().expect("no contract violations") {
                break;
            }
            if let Some(start) = call_started {
                if eng.outputs_count(call_graph) > calls_done {
                    call_times.record(eng.now().since(start).as_secs_f64());
                    calls_done += 1;
                    if let Some(shape) = &shape {
                        call_started = Some(issue(&mut eng, shape));
                    }
                }
            }
        }
        iter_times.record(eng.now().since(t0).as_secs_f64());
    }
    // Drain leftovers (the in-flight call, etc.).
    eng.run_until_idle().expect("clean drain");
    let total = eng.now().since(loop_start).as_secs_f64();

    let median_call = call_times.median().unwrap_or(0.0);
    let mean_iter = iter_times.mean().unwrap_or(0.0);
    let calls_per_sec = if total > 0.0 {
        calls_done as f64 / total
    } else {
        0.0
    };
    (median_call, mean_iter, calls_per_sec)
}

fn main() {
    // Paper: 5620×5620 world, 4 nodes, 1000 ms per iteration. The quick run
    // uses a 1405×1405 world (16× fewer cells).
    // The largest requested block is 400×2400 cells, so even the quick
    // world must be taller than 2400 rows.
    let world = if full_scale() { 5620 } else { 2810 };
    let nodes = 4;
    let iterations = 4;

    let (_, baseline_iter, _) = run_config(world, nodes, iterations, None);

    let shapes = [(40u32, 40u32), (400, 400), (400, 2400)];
    let mut rows = vec![vec![
        "none".to_string(),
        "-".to_string(),
        table::secs(baseline_iter),
        "-".to_string(),
    ]];
    for &(w, h) in &shapes {
        let (median_call, iter, rate) = run_config(
            world,
            nodes,
            iterations,
            Some(CallShape {
                width: w,
                height: h,
            }),
        );
        rows.push(vec![
            format!("{w}x{h}"),
            table::secs(median_call),
            table::secs(iter),
            format!("{rate:.1}"),
        ]);
    }
    table::print_table(
        &format!("Table 2 — graph-call overhead, {world}×{world} world on {nodes} nodes"),
        &["block", "median call", "iteration time", "calls/s"],
        &rows,
    );
    println!(
        "\nShape check (paper): small blocks → sub-ms..ms calls at tens of\n\
         calls/s with a mild iteration slowdown; the 400x2400 block costs\n\
         ~100 ms per call and stretches the iteration the most."
    );
}
