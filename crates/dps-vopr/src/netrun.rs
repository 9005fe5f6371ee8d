//! VOPR over **real processes**: the net mode.
//!
//! The simulator sweep explores fault schedules in virtual time; this
//! module runs the same seeded exploration against [`NetEngine`] — one
//! master plus real worker processes over TCP, with the deterministic
//! fault layer ([`WireFaults`], [`NetKill`]) armed on every connection.
//! The vopr binary is the SPMD driver: the master spawns workers by
//! re-executing itself with an explicit argument vector pinning exactly
//! one `(workload, seed, faults)` combination, and both sides re-derive
//! the identical fault schedule from those arguments
//! ([`net_engine_config`] is a pure function of them).
//!
//! Fault classes on real sockets:
//!
//! * **net** — seeded drop-as-retransmit-delay / jitter / duplicate faults
//!   on every master↔worker connection. The transport stays reliable, so a
//!   wire-faulted run must produce **byte-identical** outputs;
//! * **kill** — scheduled worker-process deaths ([`NetKill`]): one or more
//!   ranks each crash after a seeded number of outbound master frames.
//!   Detection runs the engine's heartbeat/EOF liveness path, and the run
//!   must either complete on the survivors with correct bytes or fail with
//!   a clean degradation error — never hang, never corrupt.
//!
//! The invariant battery is the wall-clock analogue of the simulator's:
//! output identity (or clean [`NodeDown`]/[`IncompleteWaves`] degradation
//! under an armed kill), zero abandoned chunk leases on a completed run,
//! and — because process scheduling makes *event timing* nondeterministic
//! while the *computation* stays deterministic — replay identity over the
//! canonical **output bytes** rather than the event log: the pinned CI
//! hash is an FNV-1a over the bytes a completed run must always produce.
//!
//! [`NodeDown`]: dps_core::DpsError::NodeDown
//! [`IncompleteWaves`]: dps_core::DpsError::IncompleteWaves

use dps_core::{DpsError, Engine};
use dps_des::SplitMix64;
use dps_netengine::{NetEngine, NetEngineConfig, NetKill, WireFaults};

use crate::workload::run_canonical;
use crate::{Invariant, VoprConfig, VoprFailure};

/// Derive the net-mode fault schedule from a [`VoprConfig`]. The class
/// streams reuse the simulator sweep's indices (2 = net, 3 = kill) off the
/// same master seed, so disarming one class never re-rolls the other — the
/// property the smoke minimizer needs to shrink a failing schedule.
pub fn derive_net_schedule(cfg: &VoprConfig) -> (Option<WireFaults>, Vec<NetKill>) {
    let nodes = cfg.workload.nodes();
    let root = SplitMix64::new(cfg.seed);
    let net_seed = root.split(2).next_u64();
    let mut kill_rng = root.split(3);
    let wire = cfg
        .faults
        .net
        .then(|| WireFaults::all(cfg.net_rate, net_seed));
    let mut kills = Vec::new();
    if cfg.faults.kill && nodes > 1 {
        // One to all-but-one ranks die per armed run: multi-node kill
        // schedules exercise lease takeover and tombstoning under compound
        // failures, not just the single-death path.
        let count = 1 + kill_rng.next_below((nodes - 1) as u64) as usize;
        let mut ranks: Vec<u32> = (1..nodes as u32).collect();
        for i in 0..count {
            let j = i + kill_rng.next_below((ranks.len() - i) as u64) as usize;
            ranks.swap(i, j);
        }
        let mut chosen = ranks[..count].to_vec();
        chosen.sort_unstable();
        for rank in chosen {
            kills.push(NetKill {
                rank,
                after_frames: kill_rng.next_below(40),
            });
        }
    }
    (wire, kills)
}

/// The engine configuration of one net-mode run — a **pure function** of
/// the run parameters. The master passes `worker_args` so spawned workers
/// re-run exactly this combination; workers (which ignore `worker_args`)
/// call this with the same `cfg` parsed from those very arguments, arming
/// the identical fault layer on their end of each connection.
pub fn net_engine_config(cfg: &VoprConfig, worker_args: Vec<String>) -> NetEngineConfig {
    let (wire_faults, kills) = derive_net_schedule(cfg);
    NetEngineConfig {
        worker_args: Some(worker_args),
        wire_faults,
        kills,
        ..NetEngineConfig::default()
    }
}

/// The worker-process argument vector for one run: pins exactly one
/// `(workload, seed, faults)` combination with `--runs 1`, so a worker
/// spawned from the middle of a sweep or smoke loop re-derives only the
/// schedule of the run it belongs to.
pub fn worker_args_for(cfg: &VoprConfig) -> Vec<String> {
    vec![
        "--engine".into(),
        "net".into(),
        "--workload".into(),
        cfg.workload.name().into(),
        "--seed".into(),
        format!("0x{:016x}", cfg.seed),
        "--faults".into(),
        cfg.faults.to_string(),
        "--runs".into(),
        "1".into(),
    ]
}

/// What one net-mode master run leaves behind for the invariant layer.
#[derive(Debug)]
pub struct NetRunOutcome {
    /// Canonical output bytes, if the run completed.
    pub output: Option<Vec<u8>>,
    /// The error, if it did not.
    pub error: Option<DpsError>,
    /// Leases of the master's own chunk hub opened but never completed
    /// (each worker checks its hub in [`run_net_worker`]).
    pub abandoned_leases: usize,
}

impl NetRunOutcome {
    /// NodeDown / IncompleteWaves — the only acceptable failure classes.
    pub fn clean_degradation(&self) -> bool {
        matches!(
            self.error,
            Some(DpsError::NodeDown { .. }) | Some(DpsError::IncompleteWaves { .. })
        )
    }
}

/// FNV-1a over a byte string — the net mode's replay fingerprint (the
/// event log is wall-clock-ordered and thus not replayable; the output
/// bytes are).
pub fn output_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The clean-wire reference run: the same canonical workload on a
/// loopback [`NetEngine`] — every rank a thread of this process — with no
/// faults armed. Same wire protocol, same master and worker roles,
/// deterministic output bytes.
pub fn net_reference(cfg: &VoprConfig) -> Result<Vec<u8>, Box<VoprFailure>> {
    let nodes = cfg.workload.nodes();
    let out = NetEngine::loopback(nodes, NetEngineConfig::default(), |eng| {
        run_canonical(eng, cfg.workload)
    });
    out.map_err(|e| {
        Box::new(VoprFailure {
            cfg: cfg.clone(),
            perturbation: crate::Perturbation::none(),
            invariant: Invariant::OutputIdentity,
            detail: format!("clean loopback reference run itself failed: {e}"),
            engine: "net",
        })
    })
}

/// One perturbed master-role run under `cfg`'s derived schedule: spawns
/// the worker processes (re-executing the current binary with
/// [`worker_args_for`]), runs the canonical workload, and collects the
/// outcome. `io::Error` here means the cluster never came up (spawn or
/// connect failure), not an invariant violation.
pub fn run_net_master(cfg: &VoprConfig) -> std::io::Result<NetRunOutcome> {
    let nodes = cfg.workload.nodes();
    let mut eng = NetEngine::from_env(nodes, net_engine_config(cfg, worker_args_for(cfg)))?;
    let result = run_canonical(&mut eng, cfg.workload);
    let abandoned_leases = eng.chunk_hub().abandoned_leases().len();
    eng.shutdown();
    let (output, error) = match result {
        Ok(bytes) => (Some(bytes), None),
        Err(e) => (None, Some(e)),
    };
    Ok(NetRunOutcome {
        output,
        error,
        abandoned_leases,
    })
}

/// The net-mode invariant battery. Returns `Ok(completed)` or the
/// reproducible failure.
pub fn check_net_run(
    cfg: &VoprConfig,
    reference: &[u8],
    outcome: &NetRunOutcome,
) -> Result<bool, Box<VoprFailure>> {
    let (_, kills) = derive_net_schedule(cfg);
    let fail = |invariant, detail| {
        Box::new(VoprFailure {
            cfg: cfg.clone(),
            perturbation: crate::Perturbation::none(),
            invariant,
            detail,
            engine: "net",
        })
    };
    match &outcome.output {
        Some(got) => {
            // Completed — wire faults (and even kills, when the work could
            // shed to survivors) must leave the bytes untouched.
            if got != reference {
                let at = got
                    .iter()
                    .zip(reference.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| got.len().min(reference.len()));
                return Err(fail(
                    Invariant::OutputIdentity,
                    format!(
                        "outputs diverge from the clean-wire reference at byte {at} \
                         ({} vs {} bytes total)",
                        got.len(),
                        reference.len()
                    ),
                ));
            }
            if outcome.abandoned_leases != 0 {
                return Err(fail(
                    Invariant::ChunkCompleteness,
                    format!(
                        "{} chunk lease(s) abandoned on a completed run",
                        outcome.abandoned_leases
                    ),
                ));
            }
            Ok(true)
        }
        None => {
            // Failed — only a scheduled kill justifies it, and only with a
            // clean degradation error class.
            if kills.is_empty() || !outcome.clean_degradation() {
                return Err(fail(
                    Invariant::OutputIdentity,
                    format!(
                        "run failed with {:?} (kills scheduled: {}) — not a clean degradation",
                        outcome.error,
                        kills.len()
                    ),
                ));
            }
            Ok(false)
        }
    }
}

/// The worker-process half of one net-mode run: build the same engine
/// configuration from the same parsed arguments, run the workload, exit.
/// Returns `true` when the worker's outcome is acceptable — success with no
/// chunk lease of its own hub left open, or a clean degradation (the expected fate of a survivor whose master
/// reported `NodeDown`, or of a rank the schedule kills before this
/// returns). The master's shutdown treats a non-zero exit of a *live*
/// worker as a failure, so anything unexpected must return `false`.
pub fn run_net_worker(cfg: &VoprConfig) -> bool {
    let nodes = cfg.workload.nodes();
    let mut eng = match NetEngine::from_env(nodes, net_engine_config(cfg, Vec::new())) {
        Ok(eng) => eng,
        Err(e) => {
            eprintln!("vopr worker: net engine setup failed: {e}");
            return false;
        }
    };
    let result = run_canonical(&mut eng, cfg.workload);
    // The leases this rank's ops opened live in its own hub, out of the
    // master's sight: the zero-abandoned-leases invariant is checked here.
    let abandoned = eng.chunk_hub().abandoned_leases().len();
    eng.shutdown();
    match result {
        Ok(_) if abandoned != 0 => {
            eprintln!("vopr worker: {abandoned} chunk lease(s) abandoned on a completed run");
            false
        }
        Ok(_) => true,
        Err(DpsError::NodeDown { .. }) | Err(DpsError::IncompleteWaves { .. }) => true,
        Err(e) => {
            eprintln!("vopr worker: workload failed uncleanly: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultClasses, WorkloadKind};

    fn cfg_with(faults: FaultClasses, seed: u64) -> VoprConfig {
        let mut cfg = VoprConfig::new(WorkloadKind::Life, seed);
        cfg.faults = faults;
        cfg
    }

    #[test]
    fn net_schedule_is_seed_deterministic_and_reroll_free() {
        let all = FaultClasses {
            shuffle: false,
            net: true,
            kill: true,
        };
        let a = derive_net_schedule(&cfg_with(all, 0x5EED));
        let b = derive_net_schedule(&cfg_with(all, 0x5EED));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        // Disarming net keeps the kill schedule bit-identical (independent
        // per-class streams off the same master seed).
        let kill_only = FaultClasses {
            shuffle: false,
            net: false,
            kill: true,
        };
        let c = derive_net_schedule(&cfg_with(kill_only, 0x5EED));
        assert!(c.0.is_none());
        assert_eq!(c.1, a.1);
    }

    #[test]
    fn kill_schedules_target_multiple_distinct_ranks() {
        let kill_only = FaultClasses {
            shuffle: false,
            net: false,
            kill: true,
        };
        let mut saw_multi = false;
        for seed in 0..64u64 {
            let (_, kills) = derive_net_schedule(&cfg_with(kill_only, seed));
            assert!(!kills.is_empty(), "kill class armed must schedule a kill");
            let mut ranks: Vec<u32> = kills.iter().map(|k| k.rank).collect();
            ranks.dedup();
            assert_eq!(ranks.len(), kills.len(), "ranks must be distinct");
            assert!(ranks.iter().all(|&r| r >= 1), "never kills the master");
            if kills.len() > 1 {
                saw_multi = true;
            }
        }
        assert!(saw_multi, "some seed must kill more than one rank");
    }

    #[test]
    fn worker_args_pin_one_combination() {
        let cfg = cfg_with(FaultClasses::ALL, 0xAB);
        let args = worker_args_for(&cfg);
        assert!(args.windows(2).any(|w| w == ["--runs", "1"]));
        assert!(args.windows(2).any(|w| w == ["--workload", "life"]));
        assert!(args.windows(2).any(|w| w == ["--engine", "net"]));
    }

    #[test]
    fn output_hash_is_stable() {
        assert_eq!(output_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(output_hash(b"dps"), output_hash(b"dps"));
        assert_ne!(output_hash(b"dps"), output_hash(b"dsp"));
    }
}
