//! Driver for dynamic-loop-scheduling (DLS) experiments: a scheduled loop
//! (`ScheduledSplit → ChunkWorker → CollectChunks`) swept over policies on
//! heterogeneous clusters, in the style of the DLS literature's makespan
//! comparisons (Mohammed et al., arXiv:1804.11115).
//!
//! The flow window is the self-scheduling valve: with a window of about
//! `2 × workers`, chunks are released as earlier ones merge, so every
//! routing decision sees live per-thread backlogs — late chunks flow to
//! whichever worker drained first. AWF additionally adapts chunk *sizes*
//! across time steps from the engine's virtual-time completion reports.

use std::sync::Arc;

use dps_cluster::default_mapping;
use dps_core::prelude::*;
use dps_core::sched::{
    ChunkRoute, ChunkWorker, CollectChunks, IterRange, RangeDone, ScheduledSplit,
};
use dps_core::Engine;
use dps_sched::{FeedbackBoard, PolicyKind};

/// Per-iteration FLOP cost model of a scheduled loop.
pub type CostFn = Arc<dyn Fn(u64) -> f64 + Send + Sync>;

/// Uniform per-iteration cost — the profile of a blocked matrix multiply,
/// where every result row costs `2n²` FLOPs for an `n × n` product.
pub fn matmul_cost(n: u64) -> CostFn {
    let per_iter = 2.0 * (n as f64) * (n as f64);
    Arc::new(move |_i| per_iter)
}

/// Triangular (quadratically decreasing) per-iteration cost — the profile
/// of LU factorization, where step `i` updates the `(n-i)²` trailing
/// submatrix. The canonical *irregular* DLS workload.
pub fn lu_cost(n: u64) -> CostFn {
    Arc::new(move |i| {
        let rem = n.saturating_sub(i) as f64;
        2.0 * rem * rem
    })
}

/// Rising quadratic cost (`cost(i) ∝ (i+1)²`) — a triangular sweep where
/// late iterations dominate; the adversarial profile for static chunking,
/// which hands the expensive tail to the last (slowest) workers.
pub fn rising_cost(scale: f64) -> CostFn {
    Arc::new(move |i| {
        let x = (i + 1) as f64;
        scale * x * x
    })
}

/// Parameters of one scheduled-loop run.
#[derive(Debug, Clone)]
pub struct DlsConfig {
    /// Loop iterations per time step.
    pub iters: u64,
    /// Time steps (outer waves) — adaptive policies converge across steps.
    pub steps: u32,
    /// Chunk policy under test.
    pub policy: PolicyKind,
    /// Flow window the engine running the loop is built with (0 =
    /// unbounded; `2 × workers` gives live self-scheduling).
    pub flow_window: u32,
}

/// Outcome of one scheduled-loop run.
#[derive(Debug, Clone)]
pub struct DlsReport {
    /// Makespan of each time step, in virtual seconds.
    pub per_step: Vec<f64>,
    /// Total makespan across all steps.
    pub total: f64,
    /// Chunks scheduled in each step.
    pub chunks: Vec<u32>,
    /// Final AWF weights measured by the feedback board (one per worker).
    pub weights: Vec<f64>,
    /// Chunk completions the engine reported to the feedback board — the
    /// regression canary for the feedback channel (weights alone cannot
    /// detect silence: a cold board still yields uniform positive weights).
    pub reported_chunks: u64,
}

/// Run a scheduled loop with `cfg.policy` over `cost` on **any engine**.
/// One worker thread per node of `worker_nodes`
/// (`node0..`), the master on `node0`; per-step makespans come out in the
/// engine's own notion of time. The feedback board's rate estimator
/// matches the policy (AWF-B/AWF-C get their batch-/chunk-time weighting).
pub fn run_dls<E: Engine>(
    eng: &mut E,
    cost: CostFn,
    cfg: &DlsConfig,
    worker_nodes: usize,
) -> Result<DlsReport> {
    let board = Arc::new(FeedbackBoard::for_policy(cfg.policy));
    eng.set_feedback_sink(board.clone());
    let app = eng.app("dls");
    eng.preload_app(app); // steady state: no lazy-launch skew in step 0
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0")?;
    let workers: ThreadCollection<()> =
        eng.thread_collection(app, "workers", &default_mapping(worker_nodes, 1))?;

    let hub = eng.chunk_hub();
    let mut b = GraphBuilder::new(format!("dls-{}", cfg.policy.name()));
    let kind = cfg.policy;
    let wcount = workers.thread_count();
    let split_board = board.clone();
    let split_hub = hub.clone();
    let split = b.split(
        &master,
        || ToThread(0),
        move || ScheduledSplit::with_feedback(kind, wcount, split_hub.clone(), split_board.clone()),
    );
    let work_cost = cost.clone();
    let work = b.leaf(&workers, ChunkRoute::new, move || {
        ChunkWorker::new(work_cost.clone(), hub.clone())
    });
    let merge = b.merge(&master, || ToThread(0), CollectChunks::default);
    b.add(split >> work >> merge);
    let g = eng.build_graph(b)?;

    let mut per_step = Vec::with_capacity(cfg.steps as usize);
    let mut chunks = Vec::with_capacity(cfg.steps as usize);
    for step in 0..cfg.steps {
        let t0 = eng.now_secs();
        eng.submit(
            g,
            Box::new(IterRange {
                start: 0,
                len: cfg.iters,
                step,
            }),
        )?;
        eng.run_to_idle(g, 1)?;
        per_step.push(eng.now_secs() - t0);
        let mut outs = eng.take_outputs(g);
        assert_eq!(outs.len(), 1, "one RangeDone per step");
        let done = downcast::<RangeDone>(outs.pop().expect("one output"))
            .expect("output token type is RangeDone");
        assert_eq!(
            done.iters, cfg.iters,
            "every iteration scheduled exactly once"
        );
        chunks.push(done.chunks);
    }
    Ok(DlsReport {
        total: per_step.iter().sum(),
        per_step,
        chunks,
        weights: board.weights(wcount),
        reported_chunks: board.total_chunks(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_cluster::ClusterSpec;
    use dps_core::SimEngine;

    /// One worker thread per node of `spec`, the engine built with the
    /// loop's flow window.
    fn run_on(spec: ClusterSpec, cost: CostFn, cfg: &DlsConfig) -> DlsReport {
        let nodes = spec.len();
        let ecfg = EngineConfig {
            flow_window: cfg.flow_window,
            ..EngineConfig::default()
        };
        run_dls(&mut SimEngine::with_config(spec, ecfg), cost, cfg, nodes).unwrap()
    }

    #[test]
    fn every_policy_schedules_all_iterations() {
        let spec = ClusterSpec::skewed(2, 1, 2.0);
        for kind in PolicyKind::ALL {
            let rep = run_on(
                spec.clone(),
                matmul_cost(64),
                &DlsConfig {
                    iters: 100,
                    steps: 2,
                    policy: kind,
                    flow_window: 4,
                },
            );
            assert_eq!(rep.per_step.len(), 2);
            assert!(rep.total > 0.0);
            assert!(rep.chunks.iter().all(|&c| c >= 1), "{kind:?}: {rep:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = DlsConfig {
            iters: 200,
            steps: 2,
            policy: PolicyKind::Awf,
            flow_window: 4,
        };
        let run = || run_on(ClusterSpec::skewed(2, 1, 2.0), lu_cost(200), &cfg).per_step;
        assert_eq!(run(), run());
    }

    #[test]
    fn awf_weights_learn_the_skew() {
        let rep = run_on(
            ClusterSpec::skewed(2, 1, 2.0),
            matmul_cost(64),
            &DlsConfig {
                iters: 256,
                steps: 3,
                policy: PolicyKind::Awf,
                flow_window: 4,
            },
        );
        // node0 runs 2× faster than node1: its weight converges toward 2/3.
        assert!(
            rep.weights[0] > rep.weights[1] * 1.5,
            "weights {:?}",
            rep.weights
        );
    }
}
