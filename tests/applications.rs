//! End-to-end application integration: the paper's three workloads run
//! through the full stack (serialization → envelopes → engine → cluster
//! model) and are verified against sequential references.

use dps::cluster::ClusterSpec;
use dps::core::SimEngine;
use dps::life::{run_life, LifeConfig, Variant, World};
use dps::linalg::parallel::lu::{run_lu, LuConfig};
use dps::linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps::linalg::{blocked_lu, lu_residual, Matrix};
use dps::sched::Distribution;
use dps::sfs::video::{run_video, VideoConfig};

fn sim(nodes: usize) -> SimEngine {
    SimEngine::new(ClusterSpec::paper_testbed(nodes))
}

#[test]
fn matmul_all_variants_and_node_counts() {
    for nodes in [1usize, 2, 4] {
        for pipelined in [true, false] {
            let cfg = MatMulConfig {
                n: 64,
                s: 4,
                pipelined,
                seed: 50 + nodes as u64,
                nodes,
                threads_per_node: 2,
                dist: Distribution::Static,
            };
            let rep = run_matmul(&mut sim(nodes), &cfg, 0).unwrap();
            let a = Matrix::random(64, 64, cfg.seed);
            let b = Matrix::random(64, 64, cfg.seed + 1);
            let mut diff = rep.c.clone();
            diff.sub_assign(&a.matmul(&b));
            assert!(
                diff.max_abs() < 1e-9,
                "nodes={nodes} pipelined={pipelined}: {}",
                diff.max_abs()
            );
        }
    }
}

#[test]
fn lu_matches_sequential_reference_everywhere() {
    for nodes in [1usize, 2, 4] {
        for pipelined in [true, false] {
            let cfg = LuConfig {
                n: 32,
                r: 8,
                pipelined,
                seed: 900 + nodes as u64,
                nodes,
                threads_per_node: 1,
                dist: Distribution::Static,
                update_chunks: 1,
            };
            let rep = run_lu(&mut sim(nodes), &cfg).unwrap();
            let a = Matrix::random_general(32, 32, cfg.seed);
            assert!(
                lu_residual(&a, &rep.factors) < 1e-9,
                "nodes={nodes} pipelined={pipelined}"
            );
            assert_eq!(rep.factors.pivots, blocked_lu(&a, 8).pivots);
        }
    }
}

#[test]
fn life_both_graphs_match_reference() {
    for variant in [Variant::Simple, Variant::Improved] {
        let cfg = LifeConfig {
            rows: 30,
            cols: 20,
            iterations: 6,
            variant,
            nodes: 3,
            threads_per_node: 1,
            density: 0.4,
            seed: 777,
            dist: Distribution::Static,
        };
        let rep = run_life(&mut sim(3), &cfg).unwrap();
        let expect = World::random(30, 20, 0.4, 777).step_n(6);
        assert_eq!(rep.world, expect, "{variant:?}");
        assert_eq!(rep.per_iter.len(), 6);
    }
}

#[test]
fn video_pipeline_stream_vs_barrier() {
    let cfg = |use_stream| VideoConfig {
        frames: 5,
        parts: 3,
        part_bytes: 4096,
        nodes: 3,
        use_stream,
    };
    let (ts, f1, c1) = run_video(&mut sim(3), &cfg(true)).unwrap();
    let (tb, f2, c2) = run_video(&mut sim(3), &cfg(false)).unwrap();
    assert_eq!((f1, c1), (f2, c2));
    assert!(ts <= tb, "stream {ts} must not lose to barrier {tb}");
}

#[test]
fn failure_injection_evicts_instances() {
    use dps::cluster::{AppId, Cluster};
    let mut cluster = Cluster::new(ClusterSpec::paper_testbed(4));
    cluster
        .deploy
        .ensure_instance(dps::des::SimTime::ZERO, AppId(0), dps::net::NodeId(2));
    let affected = cluster.fail_node(dps::net::NodeId(2));
    assert_eq!(affected, vec![AppId(0)]);
    assert!(!cluster.is_alive(dps::net::NodeId(2)));
    cluster.restart_node(dps::net::NodeId(2));
    assert!(cluster.is_alive(dps::net::NodeId(2)));
}
