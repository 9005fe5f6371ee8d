//! Ablations of the framework's design choices (not a paper artefact):
//!
//! 1. **Flow-control window** — the paper bounds the tokens in circulation
//!    per split/merge pair; this sweep shows the throughput/memory
//!    trade-off the bound controls (too small serializes the schedule, the
//!    marginal benefit of huge windows is zero).
//! 2. **Per-operation framework overhead** — how sensitive end-to-end
//!    times are to the dispatch cost (the paper's control structures).
//! 3. **Stream vs merge-split at fixed hardware** — the LU pipelining gain
//!    in isolation, node count fixed.

use dps_bench::table;
use dps_cluster::ClusterSpec;
use dps_core::{EngineConfig, SimEngine};
use dps_des::SimSpan;
use dps_linalg::parallel::lu::{run_lu, LuConfig};
use dps_linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps_sched::Distribution;

fn matmul_time(window: u32, op_overhead_us: u64) -> f64 {
    let cfg = MatMulConfig {
        n: 256,
        s: 16,
        pipelined: true,
        seed: 5,
        nodes: 4,
        threads_per_node: 2,
        dist: Distribution::Static,
    };
    let ecfg = EngineConfig {
        flow_window: window,
        op_overhead: SimSpan::from_micros(op_overhead_us),
        enforce_serialization: false,
    };
    // The master on node0, the workers on the four nodes after it.
    let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(5), ecfg);
    run_matmul(&mut eng, &cfg, 1)
        .expect("matmul run")
        .elapsed
        .as_secs_f64()
}

fn main() {
    // 1. Flow window sweep.
    let mut rows = Vec::new();
    for window in [1u32, 2, 4, 8, 16, 32, 64, 0] {
        let t = matmul_time(window, 25);
        rows.push(vec![
            if window == 0 {
                "unlimited".to_string()
            } else {
                format!("{window}")
            },
            table::secs(t),
        ]);
    }
    table::print_table(
        "Ablation 1 — flow-control window (256×256 matmul, s=16, 4 nodes)",
        &["window", "time"],
        &rows,
    );

    // 2. Per-operation overhead sweep.
    let mut rows = Vec::new();
    for us in [0u64, 5, 25, 100, 400] {
        let t = matmul_time(64, us);
        rows.push(vec![format!("{us}µs"), table::secs(t)]);
    }
    table::print_table(
        "Ablation 2 — per-operation framework overhead",
        &["op overhead", "time"],
        &rows,
    );

    // 3. Stream pipelining gain at fixed hardware.
    let mut rows = Vec::new();
    for nodes in [2usize, 4, 8] {
        let mk = |pipelined| LuConfig {
            n: 512,
            r: 64,
            pipelined,
            seed: 3,
            nodes,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        };
        let time = |pipelined| {
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(nodes));
            let rep = run_lu(&mut eng, &mk(pipelined)).expect("lu");
            rep.elapsed.as_secs_f64()
        };
        let (tp, tm) = (time(true), time(false));
        rows.push(vec![
            format!("{nodes}"),
            table::secs(tp),
            table::secs(tm),
            table::pct((tm - tp) / tm),
        ]);
    }
    table::print_table(
        "Ablation 3 — stream vs merge-split, 512×512 LU, block 64",
        &["nodes", "stream", "merge-split", "gain"],
        &rows,
    );
}
