//! VOPR end-to-end properties: seeded runs replay byte-identically across
//! workloads and fault classes, injected invariant violations reproduce
//! exactly from their printed seed, and `fail_node` behaves the same on
//! the simulator and the OS-thread engine for the same fault schedule.

use dps::cluster::ClusterSpec;
use dps::core::{DpsError, Engine, EngineConfig, SimEngine};
use dps::life::{setup_scheduled_life, LifeConfig, Variant, World};
use dps::mt::MtEngine;
use dps::net::NodeId;
use dps::sched::{Distribution, PolicyKind};
use dps::vopr::{run_artifacts, FaultClasses, Invariant, Vopr, VoprConfig, WorkloadKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariant 5 (replay identity), property-tested across workloads:
    /// the same master seed yields a byte-identical perturbed event log —
    /// faults and all — on every run.
    #[test]
    fn seeded_vopr_runs_replay_byte_identically(
        seed in any::<u64>(),
        workload_idx in 0usize..4,
    ) {
        let workload = WorkloadKind::SOUND[workload_idx];
        let vopr = Vopr::new(VoprConfig::new(workload, seed));
        let hash = vopr
            .replay_check()
            .unwrap_or_else(|f| panic!("replay identity broke:\n{f}"));
        prop_assert_ne!(hash, 0);
    }

    /// Invariants 1–4 hold for every seed on the sound workloads under the
    /// full fault battery: outputs match the reference byte-for-byte or
    /// degrade cleanly under the scheduled kill.
    #[test]
    fn sound_workloads_hold_invariants_under_full_faults(
        seed in any::<u64>(),
        workload_idx in 0usize..4,
    ) {
        let workload = WorkloadKind::SOUND[workload_idx];
        let report = Vopr::new(VoprConfig::new(workload, seed))
            .run()
            .unwrap_or_else(|f| panic!("invariant violated:\n{f}"));
        prop_assert_ne!(report.schedule_hash, 0);
    }
}

/// The harness catches real violations and replays them exactly: the
/// order-sensitive workload breaks under a delivery shuffle, and re-running
/// the printed seed reproduces the identical failure — same invariant, same
/// detail, byte-identical perturbed event log.
#[test]
fn injected_violation_replays_identically_from_its_seed() {
    let mut caught = None;
    for seed in 1..=16u64 {
        let mut cfg = VoprConfig::new(WorkloadKind::OrderSensitive, seed);
        cfg.faults = FaultClasses {
            shuffle: true,
            net: false,
            kill: false,
        };
        if let Err(failure) = Vopr::new(cfg).run() {
            caught = Some(failure);
            break;
        }
    }
    let failure =
        caught.expect("a shuffle must break the order-sensitive workload within 16 seeds");
    assert_eq!(failure.invariant, Invariant::OutputIdentity);
    let report = failure.to_string();
    assert!(
        report.contains("--replay"),
        "failure must print a replay command: {report}"
    );
    assert!(
        report.contains(&format!("0x{:016x}", failure.cfg.seed)),
        "failure must print its seed: {report}"
    );

    // Replay: the same config must fail the same way.
    let again = Vopr::new(failure.cfg.clone())
        .run()
        .expect_err("replaying a violating seed must violate again");
    assert_eq!(again.invariant, failure.invariant);
    assert_eq!(again.detail, failure.detail);

    // And the perturbed run itself is byte-identical between the two trials.
    let p = &failure.perturbation;
    let a = run_artifacts(WorkloadKind::OrderSensitive, p);
    let b = run_artifacts(WorkloadKind::OrderSensitive, p);
    assert_eq!(
        a.log, b.log,
        "perturbed event logs diverged between replays"
    );
    assert_eq!(
        a.output, b.output,
        "perturbed outputs diverged between replays"
    );
}

/// A run with no faults armed is the reference run: it must complete and
/// hold every invariant on all workloads, including the order-sensitive one.
#[test]
fn unperturbed_runs_are_always_clean() {
    for workload in WorkloadKind::ALL {
        let mut cfg = VoprConfig::new(workload, 3);
        cfg.faults = FaultClasses::NONE;
        let report = Vopr::new(cfg)
            .run()
            .unwrap_or_else(|f| panic!("unperturbed {workload} violated:\n{f}"));
        assert!(
            report.completed,
            "{workload}: unperturbed run must complete"
        );
    }
}

fn life_cfg() -> LifeConfig {
    LifeConfig {
        rows: 24,
        cols: 16,
        iterations: 4,
        variant: Variant::Simple,
        nodes: 3,
        threads_per_node: 1,
        density: 0.35,
        seed: 0xBEEF,
        dist: Distribution::Scheduled(PolicyKind::Tss),
    }
}

/// Step scheduled Life `total` generations, killing a node at the given
/// quiescent step boundary, and report each step's outcome (population on
/// success, error class on failure — stopping there) plus the final world
/// when every step survived.
fn drive_life_with_kill<E: Engine>(
    eng: &mut E,
    world: &World,
    kill_at_step: usize,
    total: usize,
    kill: impl FnOnce(&mut E),
) -> (Vec<std::result::Result<u64, String>>, Option<World>) {
    let cfg = life_cfg();
    let life = setup_scheduled_life(eng, &cfg, PolicyKind::Tss, world).expect("setup");
    let mut kill = Some(kill);
    let mut outcomes = Vec::new();
    for i in 0..total {
        if i == kill_at_step {
            (kill.take().unwrap())(eng);
        }
        match life.step_once(eng, cfg.rows, i as u32) {
            Ok(done) => outcomes.push(Ok(done.population)),
            Err(e) => {
                let class = match e {
                    DpsError::NodeDown { .. } => "NodeDown".to_string(),
                    DpsError::IncompleteWaves { .. } => "IncompleteWaves".to_string(),
                    other => format!("{other:?}"),
                };
                outcomes.push(Err(class));
                return (outcomes, None);
            }
        }
    }
    let final_world = life.dump(eng).ok();
    (outcomes, final_world)
}

/// Differential fault injection: killing the same node at the same quiescent
/// step boundary on the simulator and on the OS-thread engine must leave the
/// same surviving-output set — scheduled Life reroutes around the dead
/// worker on both backends, so both must finish with the *correct* world.
#[test]
fn fail_node_is_differential_between_sim_and_mt_on_scheduled_life() {
    let cfg = life_cfg();
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let reference = world.step_n(cfg.iterations);

    let mut sim = SimEngine::with_config(ClusterSpec::uniform(3, 1), EngineConfig::default());
    let (sim_outcomes, sim_world) =
        drive_life_with_kill(&mut sim, &world, 2, cfg.iterations, |eng| {
            eng.fail_node(NodeId(2)).expect("sim fail_node");
        });

    let mut mt = MtEngine::new(3);
    let (mt_outcomes, mt_world) = drive_life_with_kill(&mut mt, &world, 2, cfg.iterations, |eng| {
        eng.fail_node(2).expect("mt fail_node");
    });

    assert_eq!(
        sim_outcomes, mt_outcomes,
        "per-step surviving-output sets diverged between engines"
    );
    assert_eq!(
        sim_world.as_ref(),
        Some(&reference),
        "simulator must finish with the correct world despite the kill"
    );
    assert_eq!(
        mt_world.as_ref(),
        Some(&reference),
        "OS-thread engine must finish with the correct world despite the kill"
    );
}

/// Differential fault injection against the **real-socket liveness path**:
/// on a loopback `NetEngine`, `fail_worker` makes the rank close its
/// connection — no tombstone is written directly; detection runs through
/// the master's reader, which reads end-of-file, and `fail_worker` returns
/// once it has. Killing at the same quiescent step boundary where
/// `MtEngine::fail_node` acts makes the two runs schedule-equivalent: same
/// per-step outcomes, same correct final world, and the net engine's trace
/// must carry the `Fault{NODE_KILL}` breadcrumb the degradation contract
/// promises.
#[test]
fn fail_worker_is_differential_between_net_and_mt_on_scheduled_life() {
    use dps::netengine::{NetEngine, NetEngineConfig};
    use dps::obs::{fault_code, EventKind, TraceCollector};

    let cfg = life_cfg();
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let reference = world.step_n(cfg.iterations);

    let mut mt = MtEngine::new(3);
    let (mt_outcomes, mt_world) = drive_life_with_kill(&mut mt, &world, 2, cfg.iterations, |eng| {
        eng.fail_node(2).expect("mt fail_node");
    });

    let (net_outcomes, net_world, collector) =
        NetEngine::loopback(3, NetEngineConfig::default(), |net| {
            let collector = TraceCollector::new();
            net.set_trace_sink(collector.clone());
            let (outcomes, world) = drive_life_with_kill(net, &world, 2, cfg.iterations, |eng| {
                eng.fail_worker(2).expect("net fail_worker");
                if eng.is_master() {
                    assert!(
                        eng.worker_down(2),
                        "fail_worker returned before the tombstone"
                    );
                }
            });
            (outcomes, world, collector)
        });

    assert_eq!(
        net_outcomes, mt_outcomes,
        "per-step surviving-output sets diverged between net and mt"
    );
    assert_eq!(
        mt_world.as_ref(),
        Some(&reference),
        "OS-thread engine must finish with the correct world despite the kill"
    );
    assert_eq!(
        net_world.as_ref(),
        Some(&reference),
        "net engine must finish with the correct world despite the kill"
    );
    let log = collector.snapshot_log();
    assert!(
        log.events.iter().any(
            |e| matches!(e.kind, EventKind::Fault { code, .. } if code == fault_code::NODE_KILL)
        ),
        "net degradation left no Fault{{NODE_KILL}} breadcrumb in the trace"
    );
}

/// Killing every worker node the workload has (leaving only the master)
/// must still be a *clean* outcome class on both engines: either the run
/// completes on the surviving master threads or it fails with NodeDown —
/// never a hang, a panic, or a wrong answer.
#[test]
fn fail_node_of_all_workers_degrades_cleanly_on_both_engines() {
    let cfg = life_cfg();
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let reference = world.step_n(cfg.iterations);

    let check = |outcomes: &[std::result::Result<u64, String>], world: Option<World>, eng: &str| {
        match world {
            Some(w) => assert_eq!(w, reference, "{eng}: completed with a wrong world"),
            None => {
                let last = outcomes.last().expect("at least one step ran");
                let class = last.as_ref().expect_err("no world means a failed step");
                assert!(
                    class == "NodeDown" || class == "IncompleteWaves",
                    "{eng}: unclean degradation: {class}"
                );
            }
        }
    };

    let mut sim = SimEngine::with_config(ClusterSpec::uniform(3, 1), EngineConfig::default());
    let (outcomes, w) = drive_life_with_kill(&mut sim, &world, 1, cfg.iterations, |eng| {
        eng.fail_node(NodeId(1)).expect("sim fail_node");
        eng.fail_node(NodeId(2)).expect("sim fail_node");
    });
    check(&outcomes, w, "sim");

    let mut mt = MtEngine::new(3);
    let (outcomes, w) = drive_life_with_kill(&mut mt, &world, 1, cfg.iterations, |eng| {
        eng.fail_node(1).expect("mt fail_node");
        eng.fail_node(2).expect("mt fail_node");
    });
    check(&outcomes, w, "mt");
}
