//! Table 1 — reduction in execution time due to overlapping of
//! communications and computations, block matrix multiplication.
//!
//! Paper §4: two 1024×1024 matrices are multiplied on 1–4 compute nodes
//! with block sizes 256…32 (split factors s = 4…32), comparing the
//! pipelined DPS schedule against a no-overlap baseline. The table reports
//! the relative execution-time reduction and the communication/computation
//! time ratio for each configuration.

use dps_bench::{full_scale, table};
use dps_cluster::ClusterSpec;
use dps_core::{Engine, SimEngine};
use dps_linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps_obs::{Counter, TraceCollector};
use dps_sched::Distribution;

fn main() {
    let n = if full_scale() { 1024 } else { 512 };
    let splits = [4usize, 8, 16, 32];
    let node_counts = [1usize, 2, 3, 4];

    let mut rows = Vec::new();
    for &nodes in &node_counts {
        let mut row = vec![format!("{nodes}")];
        for &s in &splits {
            let mk = |pipelined| MatMulConfig {
                n,
                s,
                pipelined,
                seed: 42,
                nodes,
                threads_per_node: 2,
                dist: Distribution::Static,
            };
            // One extra node hosts the master, as in the paper's testbed;
            // the trace counts the bytes that cross node boundaries.
            let spec = ClusterSpec::paper_testbed(nodes + 1);
            let run = |pipelined| {
                let trace = TraceCollector::new();
                let mut eng = SimEngine::new(spec.clone());
                eng.set_trace_sink(trace.clone());
                let rep = run_matmul(&mut eng, &mk(pipelined), 1).expect("matmul run");
                let wire_bytes = trace.metrics().get(Counter::WireBytesSent);
                (rep.elapsed.as_secs_f64(), wire_bytes)
            };
            let (t_p, wire_bytes) = run(true);
            let (t_n, _) = run(false);
            let reduction = (t_n - t_p) / t_n;
            // Communication/computation time ratio of this configuration:
            // wire time of all payload bytes vs compute time of 2n³ flops
            // spread over the worker threads.
            let comm = wire_bytes as f64 / spec.net.bandwidth_bps;
            let threads = (nodes * 2) as f64;
            let comp = 2.0 * (n as f64).powi(3) / (70.0e6 * threads);
            let ratio = comm / comp;
            row.push(format!("{} ({ratio:.2})", table::pct(reduction)));
        }
        rows.push(row);
    }

    let headers: Vec<String> = std::iter::once("nodes".to_string())
        .chain(splits.iter().map(|s| format!("block {} (s={s})", n / s)))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    table::print_table(
        &format!("Table 1 — overlap gains, {n}×{n} matmul: reduction (comm/comp ratio)"),
        &headers_ref,
        &rows,
    );
    println!(
        "\nShape check (paper): reductions grow with node count at large blocks\n\
         (ratio < 1) and peak around ratios of 0.9–2.5 (25–35% reduction); at\n\
         very high ratios (small blocks, many nodes) the gain shrinks again.\n\
         Theoretical bound: g = ratio/(ratio+1) for ratio ≤ 1, 1/(1+ratio) above."
    );
}
