//! Block matrix multiplication with overlap of communication and
//! computation — the paper's Table 1 experiment, single configuration.
//!
//! Run with: `cargo run --release --example matrix_multiply`

use dps::cluster::ClusterSpec;
use dps::core::SimEngine;
use dps::linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps::linalg::Matrix;
use dps::sched::Distribution;

fn main() {
    let cfg = |pipelined| MatMulConfig {
        n: 256,
        s: 8,
        pipelined,
        seed: 7,
        nodes: 4,
        threads_per_node: 2,
        dist: Distribution::Static,
    };

    // One extra node hosts the master (the paper's Table 1 set-up): the
    // workers start at node1.
    let run = |pipelined| {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(5));
        run_matmul(&mut eng, &cfg(pipelined), 1)
    };
    let pipe = run(true).expect("pipelined run");
    let phased = run(false).expect("phased run");

    // Verify against a direct product.
    let a = Matrix::random(256, 256, 7);
    let b = Matrix::random(256, 256, 8);
    let mut diff = pipe.c.clone();
    diff.sub_assign(&a.matmul(&b));
    println!("result error vs direct product: {:.3e}", diff.max_abs());
    assert!(diff.max_abs() < 1e-9);

    println!("\n256×256 in 32×32 blocks (s=8) on 4 bi-processor nodes + master node:");
    println!("  pipelined DPS schedule:      {}", pipe.elapsed);
    println!("  phased (no-overlap) baseline: {}", phased.elapsed);
    let reduction =
        (phased.elapsed.as_secs_f64() - pipe.elapsed.as_secs_f64()) / phased.elapsed.as_secs_f64();
    println!(
        "  reduction from overlapping:   {:.1}% (Table 1 measures this across\n\
         block sizes 256..32 and 1–4 nodes)",
        reduction * 100.0
    );
}
