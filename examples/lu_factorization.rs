//! Block LU factorization with partial pivoting — the paper's §5
//! application (Fig. 11–15).
//!
//! Factorizes a 256×256 matrix distributed as block columns over 4 virtual
//! nodes, with the stream-pipelined schedule and the merge-split baseline,
//! verifies `‖P·A − L·U‖∞` for both, and reports the pipelining gain.
//!
//! The `dist` knob of [`LuConfig`] chooses how block columns are assigned
//! to workers: `Distribution::Static` is the paper's `j mod p` layout;
//! `Distribution::Scheduled(kind)` partitions the columns with a dynamic
//! loop-scheduling policy sized from *measured* worker rates (a calibration
//! wave runs first). The result is bit-identical — only placement changes —
//! but on a skewed cluster the adaptive layout wins, as the final section
//! shows.
//!
//! Run with: `cargo run --release --example lu_factorization`

use dps::cluster::ClusterSpec;
use dps::core::{Engine, SimEngine};
use dps::linalg::parallel::lu::{run_lu, LuConfig};
use dps::linalg::{blocked_lu, lu_residual, Matrix};
use dps::obs::{Counter, TraceCollector};
use dps::sched::{Distribution, PolicyKind};

fn main() {
    let cfg = |pipelined| LuConfig {
        n: 256,
        r: 32,
        pipelined,
        seed: 1234,
        nodes: 4,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: 1,
    };

    // The trace counts the bytes the pipelined run moves across nodes.
    let trace = TraceCollector::new();
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));
    eng.set_trace_sink(trace.clone());
    let pipe = run_lu(&mut eng, &cfg(true)).expect("pipelined run");
    let merge_split = run_lu(
        &mut SimEngine::new(ClusterSpec::paper_testbed(4)),
        &cfg(false),
    )
    .expect("merge-split run");

    let a = Matrix::random_general(256, 256, 1234);
    let res_pipe = lu_residual(&a, &pipe.factors);
    let res_merge = lu_residual(&a, &merge_split.factors);
    println!("residual ‖P·A − L·U‖∞, pipelined:   {res_pipe:.3e}");
    println!("residual ‖P·A − L·U‖∞, merge-split: {res_merge:.3e}");
    assert!(res_pipe < 1e-8 && res_merge < 1e-8);

    // The parallel schedule follows the same elimination path as the
    // sequential block driver — identical pivots.
    let reference = blocked_lu(&a, 32);
    assert_eq!(pipe.factors.pivots, reference.pivots);

    println!(
        "\nvirtual time, stream-pipelined (Fig. 12): {}",
        pipe.elapsed
    );
    println!(
        "virtual time, merge-split baseline:       {}",
        merge_split.elapsed
    );
    let gain = (merge_split.elapsed.as_secs_f64() - pipe.elapsed.as_secs_f64())
        / merge_split.elapsed.as_secs_f64();
    println!(
        "stream-operation gain: {:.1}% — the next panel factorizes as soon as\n\
         its column is up to date, while other columns still multiply (Fig. 13)",
        gain * 100.0
    );
    println!(
        "\ncommunication: {} payload bytes across nodes (panel broadcasts + pivots)",
        trace.metrics().get(Counter::WireBytesSent)
    );

    // --- the Distribution knob on a skewed cluster -------------------------
    // Half the nodes run 2× slower; AWF's calibrated column ownership gives
    // the fast nodes proportionally more columns.
    let skewed = || SimEngine::new(ClusterSpec::skewed(2, 2, 2.0));
    let mk = |dist| LuConfig {
        n: 128,
        r: 16,
        pipelined: true,
        seed: 1234,
        nodes: 2,
        threads_per_node: 1,
        dist,
        update_chunks: 1,
    };
    let stat = run_lu(&mut skewed(), &mk(Distribution::Static)).expect("static run");
    let awf = run_lu(&mut skewed(), &mk(Distribution::Scheduled(PolicyKind::Awf)))
        .expect("scheduled run");
    assert_eq!(stat.factors.pivots, awf.factors.pivots);
    println!("\n-- 2×-skewed cluster, column ownership via Distribution --");
    println!("static (j mod p) layout:     {}", stat.elapsed);
    println!("Scheduled(Awf) ownership:    {}", awf.elapsed);
    let gain =
        (stat.elapsed.as_secs_f64() - awf.elapsed.as_secs_f64()) / stat.elapsed.as_secs_f64();
    println!(
        "adaptive-ownership gain: {:.1}% (same factors, bit for bit)",
        gain * 100.0
    );
}
