//! System tests for the dynamic loop-scheduling subsystem: the distributed
//! chunk calculation must partition identically to the central scheduler,
//! adaptive policies must beat static distributions on skewed clusters for
//! the *real* applications (deterministic, virtual-time), scheduled waves
//! must survive node failures, and the feedback channel must work on both
//! engines.

use std::sync::Arc;

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::sched::{Distribution, IterRange};
use dps::life::{run_life, setup_scheduled_life, LifeConfig, Variant, World};
use dps::linalg::parallel::lu::{run_lu, LuConfig};
use dps::linalg::{lu_residual, Matrix};
use dps::mt::MtEngine;
use dps::net::NodeId;
use dps::sched::{ChunkCalc, ChunkScheduler, IterCounter, PolicyKind};
use dps_bench::dls::{rising_cost, run_dls, CostFn, DlsConfig, DlsReport};
use proptest::prelude::*;

fn skewed_two_node() -> ClusterSpec {
    // node0 at the paper rate, node1 2× slower.
    ClusterSpec::heterogeneous(1, &[70.0e6, 35.0e6])
}

/// A scheduled loop on the skewed two-node cluster, one worker per node.
fn run_skewed(cost: CostFn, cfg: &DlsConfig) -> DlsReport {
    let ecfg = EngineConfig {
        flow_window: cfg.flow_window,
        ..EngineConfig::default()
    };
    let mut eng = SimEngine::with_config(skewed_two_node(), ecfg);
    run_dls(&mut eng, cost, cfg, 2).expect("DLS run")
}

fn run(policy: PolicyKind) -> f64 {
    let cfg = DlsConfig {
        iters: 512,
        steps: 3,
        policy,
        flow_window: 4,
    };
    run_skewed(rising_cost(100.0), &cfg).total
}

/// The acceptance bar: on a 2×-skewed two-node cluster with an irregular
/// (rising triangular-cost) workload, AWF and FAC makespans beat static
/// chunking by at least 15%.
#[test]
fn adaptive_policies_beat_static_by_15_percent() {
    let t_static = run(PolicyKind::Static);
    let t_fac = run(PolicyKind::Fac);
    let t_awf = run(PolicyKind::Awf);
    assert!(
        t_fac <= 0.85 * t_static,
        "FAC {t_fac:.3}s vs static {t_static:.3}s: expected >= 15% gain"
    );
    assert!(
        t_awf <= 0.85 * t_static,
        "AWF {t_awf:.3}s vs static {t_static:.3}s: expected >= 15% gain"
    );
}

/// AWF's virtual-time feedback loop converges: later steps are faster than
/// the cold-start step, and the learned weights mirror the 2× rate skew.
#[test]
fn awf_adapts_across_time_steps() {
    let rep = run_skewed(
        rising_cost(100.0),
        &DlsConfig {
            iters: 512,
            steps: 3,
            policy: PolicyKind::Awf,
            flow_window: 4,
        },
    );
    let first = rep.per_step[0];
    let last = *rep.per_step.last().unwrap();
    assert!(
        last < first,
        "AWF should improve with feedback: {:?}",
        rep.per_step
    );
    assert!(
        rep.weights[0] > rep.weights[1],
        "fast node must earn the larger weight: {:?}",
        rep.weights
    );
}

/// The whole subsystem is deterministic on the simulator.
#[test]
fn scheduled_runs_are_reproducible() {
    let cfg = DlsConfig {
        iters: 200,
        steps: 2,
        policy: PolicyKind::Awf,
        flow_window: 4,
    };
    let go = || run_skewed(rising_cost(50.0), &cfg).per_step;
    assert_eq!(go(), go());
}

/// The same application code runs on the real-thread engine **through the
/// same generic `run_dls` entry point the simulator uses**: tickets are
/// announced, chunks are claimed at the workers, every iteration is
/// covered (asserted inside the driver), and wall-clock completion reports
/// shape the report's chunk counts.
#[test]
fn scheduled_split_runs_on_real_threads() {
    let mut eng = MtEngine::new(3);
    let rep = run_dls(
        &mut eng,
        Arc::new(|_| 1.0),
        &DlsConfig {
            iters: 120,
            steps: 2,
            policy: PolicyKind::Fac,
            flow_window: 0,
        },
        3,
    )
    .unwrap();
    eng.shutdown();
    assert_eq!(rep.per_step.len(), 2);
    assert!(
        rep.chunks.iter().all(|&c| c >= 3),
        "FAC batches at least one chunk per worker: {:?}",
        rep.chunks
    );
    assert!(
        rep.reported_chunks >= 6,
        "wall-clock completion reports must reach the board: {}",
        rep.reported_chunks
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance (a): the distributed chunk calculation (`ChunkCalc` +
    /// `IterCounter`) reproduces the central `ChunkScheduler`'s chunk
    /// sequence *exactly* — same boundaries, same sizes, same intended
    /// workers — for every policy × range size × worker count × weight
    /// skew.
    #[test]
    fn distributed_chunks_match_central_for_every_policy(
        n in 0u64..4000,
        p in 1usize..9,
        skew in 1u64..5,
        kind_idx in 0usize..6,
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let raw: Vec<f64> = (0..p).map(|i| 1.0 + (i as u64 % skew) as f64).collect();
        let total_w: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total_w).collect();
        let mut central = ChunkScheduler::new(kind.build(), n, p, &weights);
        let counter = IterCounter::new(ChunkCalc::new(kind, n, p, &weights));
        let mut count = 0u32;
        while let Some(expect) = central.next_chunk() {
            let got = counter.claim();
            prop_assert_eq!(got, Some(expect), "{:?} n={} p={}", kind, n, p);
            count += 1;
        }
        prop_assert_eq!(counter.claim(), None);
        prop_assert_eq!(counter.chunk_count(), count);
    }

    /// `partition_owners` — the placement of stateful work, sized like
    /// every claim through `ChunkCalc` — gives each unit the worker the
    /// central scheduler's chunk would have, for every policy and any
    /// weights.
    #[test]
    fn partition_owners_match_the_scheduler_driven_partition(
        items in 0u64..2001,
        rates in proptest::collection::vec(1u32..1000, 1..17),
    ) {
        let raw: Vec<f64> = rates.iter().map(|&r| f64::from(r) / 100.0).collect();
        let workers = raw.len();
        for kind in PolicyKind::ALL {
            let mut central = ChunkScheduler::new(kind.build(), items, workers, &raw);
            let mut expect = Vec::with_capacity(items as usize);
            while let Some(c) = central.next_chunk() {
                expect.extend((0..c.len).map(|_| c.worker));
            }
            let owners = dps::sched::partition_owners(kind, items, workers, &raw);
            prop_assert_eq!(owners, expect, "{:?} items={} workers={}", kind, items, workers);
        }
    }
}

fn skewed_lu(dist: Distribution) -> LuConfig {
    LuConfig {
        n: 128,
        r: 16,
        pipelined: true,
        seed: 33,
        nodes: 2,
        threads_per_node: 1,
        dist,
        update_chunks: 1,
    }
}

/// Acceptance (b), LU half: scheduling the block columns with AWF (owner
/// map from calibrated rates) beats the static `j mod p` layout by ≥ 8%
/// on a 2×-skewed cluster, deterministically, with identical results.
///
/// (Under the unified `Engine` API both arms stage their columns through
/// the loader graph before the measured window, so the static arm no
/// longer pays cold-connection setup inside its makespan — the old ≥ 10%
/// bar included that artifact; ≥ 8% is the genuine scheduling gain at this
/// 8-column granularity.)
#[test]
fn lu_scheduled_awf_beats_static_by_8_percent() {
    let elapsed = |dist| {
        let mut eng = SimEngine::new(ClusterSpec::skewed(2, 2, 2.0));
        let rep = run_lu(&mut eng, &skewed_lu(dist)).unwrap();
        rep.elapsed.as_secs_f64()
    };
    let t_static = elapsed(Distribution::Static);
    let t_awf = elapsed(Distribution::Scheduled(PolicyKind::Awf));
    assert!(
        t_awf <= 0.92 * t_static,
        "scheduled LU {t_awf:.4}s vs static {t_static:.4}s: expected >= 8% gain"
    );
}

/// Satellite: LU through the scheduled distribution computes the *same*
/// factorization as the static-`ByKey` layout, bit for bit — placement
/// changes, arithmetic does not.
#[test]
fn lu_scheduled_matches_static_bit_for_bit() {
    let run = |dist| {
        run_lu(
            &mut SimEngine::new(ClusterSpec::skewed(2, 2, 2.0)),
            &skewed_lu(dist),
        )
    };
    let stat = run(Distribution::Static).unwrap();
    let sched = run(Distribution::Scheduled(PolicyKind::Awf)).unwrap();
    assert_eq!(stat.factors.pivots, sched.factors.pivots);
    assert_eq!(
        stat.factors.lu, sched.factors.lu,
        "factor matrices must agree bit for bit"
    );
    let a = Matrix::random_general(128, 128, 33);
    assert!(lu_residual(&a, &sched.factors) < 1e-8);
}

fn skewed_life(dist: Distribution) -> LifeConfig {
    LifeConfig {
        rows: 192,
        cols: 384,
        iterations: 4,
        variant: Variant::Improved,
        nodes: 2,
        threads_per_node: 1,
        density: 0.35,
        seed: 9,
        dist,
    }
}

/// Acceptance (b), Life half: the master-held scheduled Life under AWF
/// beats the static banded layout by ≥ 10% on a 2×-skewed cluster,
/// deterministically, with the same final world.
#[test]
fn life_scheduled_awf_beats_static_by_10_percent() {
    let run = |dist| {
        run_life(
            &mut SimEngine::new(ClusterSpec::skewed(2, 2, 2.0)),
            &skewed_life(dist),
        )
    };
    let stat = run(Distribution::Static).unwrap();
    let sched = run(Distribution::Scheduled(PolicyKind::Awf)).unwrap();
    assert_eq!(stat.world, sched.world, "same evolution either way");
    let (t_static, t_awf) = (stat.elapsed.as_secs_f64(), sched.elapsed.as_secs_f64());
    assert!(
        t_awf <= 0.9 * t_static,
        "scheduled Life {t_awf:.4}s vs static {t_static:.4}s: expected >= 10% gain"
    );
}

/// Acceptance (c): a scheduled Life wave survives `fail_node` mid-wave —
/// the chunks stranded on the dead node are re-queued to live workers and
/// the generation commits with the correct population.
#[test]
fn scheduled_life_wave_survives_fail_node() {
    let cfg = LifeConfig {
        rows: 96,
        cols: 64,
        iterations: 1,
        variant: Variant::Simple,
        nodes: 3,
        threads_per_node: 1,
        density: 0.4,
        seed: 5,
        dist: Distribution::Scheduled(PolicyKind::Ss),
    };
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(3));
    let life = setup_scheduled_life(&mut eng, &cfg, PolicyKind::Ss, &world).unwrap();
    let graph = life.step;
    eng.submit(
        graph,
        Box::new(IterRange {
            start: 0,
            len: cfg.rows as u64,
            step: 0,
        }),
    )
    .unwrap();
    // Advance partway into the wave, then kill node2 while chunks are
    // still queued on (and in flight to) its worker thread.
    for _ in 0..400 {
        assert!(eng.step_once().unwrap(), "wave finished before the failure");
    }
    eng.fail_node(NodeId(2)).unwrap();
    assert!(!eng.cluster().is_alive(NodeId(2)));
    eng.run_until_idle().unwrap();
    assert!(
        eng.requeued() > 0,
        "the failure must actually strand and re-queue deliveries"
    );
    let outs = eng.take_outputs(graph);
    assert_eq!(outs.len(), 1, "the wave still commits exactly once");
    let done = dps::core::downcast::<dps::life::graphs::IterDone>(outs.into_iter().next().unwrap())
        .unwrap();
    let expect = world.step();
    let expect_pop: u64 = (0..cfg.rows)
        .map(|r| expect.row(r).iter().map(|&c| u64::from(c)).sum::<u64>())
        .sum();
    assert_eq!(done.population, expect_pop, "population after the failure");
    assert_eq!(
        life.dump(&mut eng).unwrap(),
        expect,
        "world after the failure"
    );
}
