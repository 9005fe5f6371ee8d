//! # dps-vopr — deterministic simulation testing for DPS
//!
//! A VOPR-style harness (after the *Viewstamped Operation Replicator* of
//! TigerBeetle lineage): take a single `u64` seed, derive a fault schedule
//! from it, run a real DPS workload on the deterministic [`SimEngine`]
//! under those faults, and check a battery of invariants against an
//! unperturbed reference run. Because the entire universe — scheduler
//! ties, network faults, node kills — is a pure function of the seed,
//! any violation is reproducible with one command, which the failure
//! report prints verbatim.
//!
//! The fault classes, each driven by an independent [`SplitMix64`] stream
//! split from the master seed:
//!
//! * **shuffle** — a seeded permutation of same-instant event ties in the
//!   simulator heap ([`SimEngine::set_delivery_shuffle`]), modelling OS
//!   scheduling nondeterminism;
//! * **net** — drop / delay / duplicate faults on the simulated wire
//!   ([`SimEngine::set_net_faults`]); the transport retransmits, so these
//!   perturb timing but must never corrupt outputs;
//! * **kill** — a mid-wave [`SimEngine::schedule_fail_node`] of a random
//!   non-master node at a random fraction of the reference makespan.
//!
//! Invariants checked after every perturbed run:
//!
//! 1. **Output identity** — outputs byte-identical to the reference, or
//!    (when a kill is active) a clean degradation error
//!    ([`DpsError::NodeDown`] / [`DpsError::IncompleteWaves`]);
//! 2. **Chunk completeness** — no abandoned [`ChunkHub`] leases on a
//!    successful run (the scheduler handed out every chunk it promised);
//! 3. **No stranded deliveries** — the simulator heap drains to empty on
//!    success;
//! 4. **Monotone time** — virtual time never runs backwards;
//! 5. **Replay identity** — re-running the same seed yields a
//!    byte-identical `dps-obs` event log and equal `schedule_hash`.
//!
//! [`ChunkHub`]: dps_sched::ChunkHub
//! [`DpsError::NodeDown`]: dps_core::DpsError::NodeDown
//! [`DpsError::IncompleteWaves`]: dps_core::DpsError::IncompleteWaves
//! [`SplitMix64`]: dps_des::SplitMix64
//! [`SimEngine`]: dps_core::SimEngine
//! [`SimEngine::set_delivery_shuffle`]: dps_core::SimEngine::set_delivery_shuffle
//! [`SimEngine::set_net_faults`]: dps_core::SimEngine::set_net_faults
//! [`SimEngine::schedule_fail_node`]: dps_core::SimEngine::schedule_fail_node

pub mod netrun;
pub mod workload;

use dps_core::DpsError;
use dps_des::{SimSpan, SimTime, SplitMix64};
use dps_net::FaultConfig;
use dps_obs::{first_divergence, TraceLog};

pub use workload::WorkloadKind;

/// Which fault classes a sweep enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClasses {
    /// Seeded same-instant delivery interleaving shuffle.
    pub shuffle: bool,
    /// Wire drop/delay/duplicate faults (reliable transport recovers).
    pub net: bool,
    /// Scheduled mid-wave node kill.
    pub kill: bool,
}

impl FaultClasses {
    /// No perturbation at all (reference runs).
    pub const NONE: FaultClasses = FaultClasses {
        shuffle: false,
        net: false,
        kill: false,
    };
    /// Every fault class armed.
    pub const ALL: FaultClasses = FaultClasses {
        shuffle: true,
        net: true,
        kill: true,
    };

    /// Parse `"shuffle,net,kill"` / `"all"` / `"none"`.
    pub fn parse(s: &str) -> Option<FaultClasses> {
        match s {
            "all" => return Some(Self::ALL),
            "none" => return Some(Self::NONE),
            _ => {}
        }
        let mut f = Self::NONE;
        for part in s.split(',') {
            match part.trim() {
                "shuffle" => f.shuffle = true,
                "net" => f.net = true,
                "kill" => f.kill = true,
                "" => {}
                _ => return None,
            }
        }
        Some(f)
    }
}

impl std::fmt::Display for FaultClasses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == Self::ALL {
            return f.write_str("all");
        }
        if *self == Self::NONE {
            return f.write_str("none");
        }
        let mut parts = Vec::new();
        if self.shuffle {
            parts.push("shuffle");
        }
        if self.net {
            parts.push("net");
        }
        if self.kill {
            parts.push("kill");
        }
        f.write_str(&parts.join(","))
    }
}

/// One VOPR run, fully determined by these fields.
#[derive(Debug, Clone)]
pub struct VoprConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// The application under test.
    pub workload: WorkloadKind,
    /// Fault classes to arm.
    pub faults: FaultClasses,
    /// Per-message wire fault rate when `faults.net` is armed.
    pub net_rate: f64,
}

impl VoprConfig {
    /// A run of `workload` under `seed` with every fault class armed at
    /// the default 5% wire-fault rate.
    pub fn new(workload: WorkloadKind, seed: u64) -> VoprConfig {
        VoprConfig {
            seed,
            workload,
            faults: FaultClasses::ALL,
            net_rate: 0.05,
        }
    }
}

/// A mid-run node kill derived from the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillPlan {
    /// Cluster node to kill (never node 0, which hosts split/merge masters).
    pub node: u32,
    /// Virtual instant of the kill.
    pub at: SimTime,
}

/// The concrete fault schedule derived from a [`VoprConfig`] — what
/// actually gets installed on the engine. Printed in failure reports so a
/// violation's minimal schedule is visible without decoding the seed.
#[derive(Debug, Clone, Default)]
pub struct Perturbation {
    /// Tie-break shuffle seed, if armed.
    pub shuffle_seed: Option<u64>,
    /// Wire fault config + injector seed, if armed.
    pub net: Option<(FaultConfig, u64)>,
    /// Scheduled node kill, if armed.
    pub kill: Option<KillPlan>,
}

impl Perturbation {
    /// The identity perturbation (reference run).
    pub fn none() -> Perturbation {
        Perturbation::default()
    }

    /// Derive the fault schedule for `cfg`. Each class draws from its own
    /// `SplitMix64` stream split off the master seed so that disarming one
    /// class does not re-roll the others. `reference_makespan` (from the
    /// unperturbed run) and `nodes` place the kill: a random non-master
    /// node at 10–90% of the reference virtual makespan.
    pub fn derive(cfg: &VoprConfig, reference_makespan: f64, nodes: usize) -> Perturbation {
        let root = SplitMix64::new(cfg.seed);
        let shuffle_seed = root.split(1).next_u64();
        let net_seed = root.split(2).next_u64();
        let mut kill_rng = root.split(3);
        let mut p = Perturbation::none();
        if cfg.faults.shuffle {
            p.shuffle_seed = Some(shuffle_seed);
        }
        if cfg.faults.net {
            p.net = Some((FaultConfig::all(cfg.net_rate), net_seed));
        }
        if cfg.faults.kill && nodes > 1 {
            let node = 1 + kill_rng.next_below((nodes - 1) as u64) as u32;
            let frac = 0.1 + 0.8 * kill_rng.next_f64();
            p.kill = Some(KillPlan {
                node,
                at: SimTime::ZERO + SimSpan::from_secs_f64(frac * reference_makespan.max(1e-9)),
            });
        }
        p
    }
}

impl std::fmt::Display for Perturbation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut wrote = false;
        if let Some(s) = self.shuffle_seed {
            write!(f, "shuffle(seed=0x{s:016x})")?;
            wrote = true;
        }
        if let Some((cfg, s)) = &self.net {
            if wrote {
                f.write_str(" + ")?;
            }
            write!(
                f,
                "net(drop={} delay={} dup={} seed=0x{s:016x})",
                cfg.drop_rate, cfg.delay_rate, cfg.duplicate_rate
            )?;
            wrote = true;
        }
        if let Some(k) = &self.kill {
            if wrote {
                f.write_str(" + ")?;
            }
            write!(f, "kill(node{} at t={:.6}s)", k.node, k.at.as_secs_f64())?;
            wrote = true;
        }
        if !wrote {
            f.write_str("(no faults)")?;
        }
        Ok(())
    }
}

/// Everything a single engine run leaves behind for the invariant layer.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Canonical output bytes, if the run completed.
    pub output: Option<Vec<u8>>,
    /// The error, if it did not.
    pub error: Option<DpsError>,
    /// Full dps-obs event log.
    pub log: TraceLog,
    /// FNV-1a hash of the causal schedule.
    pub schedule_hash: u64,
    /// Final virtual time.
    pub makespan: f64,
    /// Events still queued in the simulator heap after the run.
    pub queued_deliveries: usize,
    /// Chunk-hub leases opened but never completed (pipeline workloads).
    pub abandoned_leases: usize,
    /// `(faulted, clean)` wire-message counts when net faults were armed.
    pub net_stats: Option<(u64, u64)>,
    /// Virtual-time samples taken across the run, in capture order.
    pub time_samples: Vec<f64>,
}

impl RunArtifacts {
    fn clean_degradation(&self) -> bool {
        matches!(
            self.error,
            Some(DpsError::NodeDown { .. }) | Some(DpsError::IncompleteWaves { .. })
        )
    }
}

/// The invariant that a perturbed run violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Output differed from the reference without a clean degradation.
    OutputIdentity,
    /// A successful run left abandoned chunk leases behind.
    ChunkCompleteness,
    /// A successful run left events stranded in the simulator heap.
    NoStrandedDeliveries,
    /// Virtual time ran backwards.
    MonotoneTime,
    /// The same seed produced a different event log on re-run.
    ReplayIdentity,
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Invariant::OutputIdentity => "output-identity",
            Invariant::ChunkCompleteness => "chunk-completeness",
            Invariant::NoStrandedDeliveries => "no-stranded-deliveries",
            Invariant::MonotoneTime => "monotone-time",
            Invariant::ReplayIdentity => "replay-identity",
        })
    }
}

/// A reproducible invariant violation. `Display` prints the seed, the
/// derived fault schedule, and the exact command that replays it.
#[derive(Debug)]
pub struct VoprFailure {
    /// The run that failed.
    pub cfg: VoprConfig,
    /// The fault schedule that was installed.
    pub perturbation: Perturbation,
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable specifics (first differing byte, lease ids, …).
    pub detail: String,
    /// Which execution engine ran it: `"sim"` (virtual time) or `"net"`
    /// (real processes).
    pub engine: &'static str,
}

impl std::fmt::Display for VoprFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "VOPR FAILURE: invariant {} violated on workload {} (engine {})",
            self.invariant, self.cfg.workload, self.engine
        )?;
        writeln!(f, "  seed:     0x{:016x}", self.cfg.seed)?;
        writeln!(f, "  faults:   {}", self.perturbation)?;
        writeln!(f, "  detail:   {}", self.detail)?;
        write!(
            f,
            "  replay:   cargo run -p dps-vopr --bin vopr -- --engine {} --workload {} --seed 0x{:016x} --faults {} --replay",
            self.engine, self.cfg.workload, self.cfg.seed, self.cfg.faults
        )
    }
}

impl std::error::Error for VoprFailure {}

/// A clean run's summary, for logs and smoke-sweep reporting.
#[derive(Debug)]
pub struct VoprReport {
    /// The run's configuration.
    pub cfg: VoprConfig,
    /// The fault schedule that was installed.
    pub perturbation: Perturbation,
    /// Schedule hash of the perturbed run (replay fingerprint).
    pub schedule_hash: u64,
    /// Whether the perturbed run completed (vs. degraded cleanly).
    pub completed: bool,
    /// Virtual makespan of the perturbed run.
    pub makespan: f64,
    /// `(faulted, clean)` wire-message counts, when net faults were armed.
    pub net_stats: Option<(u64, u64)>,
}

/// The runner: reference run → perturbed run → invariants.
#[derive(Debug, Clone)]
pub struct Vopr {
    cfg: VoprConfig,
}

impl Vopr {
    /// A runner for `cfg`.
    pub fn new(cfg: VoprConfig) -> Vopr {
        Vopr { cfg }
    }

    /// Execute one seeded run and check invariants 1–4. Returns the clean
    /// report or the reproducible failure.
    pub fn run(&self) -> Result<VoprReport, Box<VoprFailure>> {
        let reference = workload::run_workload(self.cfg.workload, &Perturbation::none());
        if let Some(e) = &reference.error {
            return Err(self.fail(
                Perturbation::none(),
                Invariant::OutputIdentity,
                format!("reference run itself failed: {e}"),
            ));
        }
        let p = Perturbation::derive(&self.cfg, reference.makespan, self.cfg.workload.nodes());
        let perturbed = workload::run_workload(self.cfg.workload, &p);
        self.check(&reference, &perturbed, &p)?;
        Ok(VoprReport {
            cfg: self.cfg.clone(),
            perturbation: p,
            schedule_hash: perturbed.schedule_hash,
            completed: perturbed.output.is_some(),
            makespan: perturbed.makespan,
            net_stats: perturbed.net_stats,
        })
    }

    /// Invariant 5: run the *perturbed* configuration twice and demand a
    /// byte-identical event log and equal schedule hash. Split out from
    /// [`Vopr::run`] so sweeps can afford it selectively (it doubles cost).
    pub fn replay_check(&self) -> Result<u64, Box<VoprFailure>> {
        let reference = workload::run_workload(self.cfg.workload, &Perturbation::none());
        let p = Perturbation::derive(&self.cfg, reference.makespan, self.cfg.workload.nodes());
        let a = workload::run_workload(self.cfg.workload, &p);
        let b = workload::run_workload(self.cfg.workload, &p);
        if a.log != b.log || a.schedule_hash != b.schedule_hash {
            let detail = match first_divergence(&a.log, &b.log) {
                Some(d) => format!("event logs diverge: {d}"),
                None => format!(
                    "schedule hashes differ: 0x{:016x} vs 0x{:016x}",
                    a.schedule_hash, b.schedule_hash
                ),
            };
            return Err(self.fail(p, Invariant::ReplayIdentity, detail));
        }
        Ok(a.schedule_hash)
    }

    fn check(
        &self,
        reference: &RunArtifacts,
        perturbed: &RunArtifacts,
        p: &Perturbation,
    ) -> Result<(), Box<VoprFailure>> {
        // 4. Monotone virtual time — checked first since a violation here
        // undermines every other reading.
        for (i, pair) in perturbed.time_samples.windows(2).enumerate() {
            if pair[1] < pair[0] {
                return Err(self.fail(
                    p.clone(),
                    Invariant::MonotoneTime,
                    format!(
                        "virtual time ran backwards at sample {i}: {} -> {}",
                        pair[0], pair[1]
                    ),
                ));
            }
        }
        // 1. Output identity (or clean degradation under an armed kill).
        match (&perturbed.output, &reference.output) {
            (Some(got), Some(want)) => {
                if got != want {
                    let at = got
                        .iter()
                        .zip(want.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| got.len().min(want.len()));
                    return Err(self.fail(
                        p.clone(),
                        Invariant::OutputIdentity,
                        format!(
                            "outputs diverge from reference at byte {at} ({} vs {} bytes total)",
                            got.len(),
                            want.len()
                        ),
                    ));
                }
            }
            (None, _) => {
                let killed = p.kill.is_some();
                if !(killed && perturbed.clean_degradation()) {
                    return Err(self.fail(
                        p.clone(),
                        Invariant::OutputIdentity,
                        format!(
                            "run failed with {:?} (kill armed: {killed}) — not a clean degradation",
                            perturbed.error
                        ),
                    ));
                }
            }
            (Some(_), None) => unreachable!("reference failure rejected earlier"),
        }
        // 2 & 3 only constrain *successful* runs: a clean NodeDown
        // degradation legitimately strands queued work and open leases.
        if perturbed.output.is_some() {
            if perturbed.abandoned_leases != 0 {
                return Err(self.fail(
                    p.clone(),
                    Invariant::ChunkCompleteness,
                    format!(
                        "{} chunk lease(s) abandoned on a successful run",
                        perturbed.abandoned_leases
                    ),
                ));
            }
            if perturbed.queued_deliveries != 0 {
                return Err(self.fail(
                    p.clone(),
                    Invariant::NoStrandedDeliveries,
                    format!(
                        "{} event(s) stranded in the simulator heap on a successful run",
                        perturbed.queued_deliveries
                    ),
                ));
            }
        }
        Ok(())
    }

    fn fail(&self, p: Perturbation, invariant: Invariant, detail: String) -> Box<VoprFailure> {
        Box::new(VoprFailure {
            cfg: self.cfg.clone(),
            perturbation: p,
            invariant,
            detail,
            engine: "sim",
        })
    }
}

/// Shrink a failing run's fault-class set to a smaller still-failing one
/// by disarming classes **one at a time** (greedy ddmin over three flags).
/// Because every class draws from its own `SplitMix64` stream split off
/// the master seed, disarming one class never re-rolls the others' fault
/// schedules — each probe is the original schedule minus whole classes,
/// so the result genuinely isolates the classes the failure needs.
/// `still_fails` re-runs the configuration under the candidate classes.
pub fn minimize_classes(
    start: FaultClasses,
    mut still_fails: impl FnMut(FaultClasses) -> bool,
) -> FaultClasses {
    let disarms: [fn(&mut FaultClasses) -> &mut bool; 3] =
        [|c| &mut c.shuffle, |c| &mut c.net, |c| &mut c.kill];
    let mut cur = start;
    loop {
        let mut shrunk = false;
        for disarm in disarms {
            let mut candidate = cur;
            let flag = disarm(&mut candidate);
            if !*flag {
                continue;
            }
            *flag = false;
            if still_fails(candidate) {
                cur = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

/// Run `kind` once under `p` and return its artifacts. Public so tests
/// and the differential harness can drive workloads directly.
pub fn run_artifacts(kind: WorkloadKind, p: &Perturbation) -> RunArtifacts {
    workload::run_workload(kind, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_classes_round_trip() {
        for s in ["all", "none", "shuffle", "net,kill", "shuffle,net,kill"] {
            let f = FaultClasses::parse(s).unwrap();
            assert_eq!(FaultClasses::parse(&f.to_string()), Some(f), "{s}");
        }
        assert_eq!(FaultClasses::parse("bogus"), None);
    }

    #[test]
    fn perturbation_is_seed_deterministic() {
        let cfg = VoprConfig::new(WorkloadKind::Life, 0xABCD);
        let a = Perturbation::derive(&cfg, 1.0, 3);
        let b = Perturbation::derive(&cfg, 1.0, 3);
        assert_eq!(a.shuffle_seed, b.shuffle_seed);
        assert_eq!(a.net.map(|(_, s)| s), b.net.map(|(_, s)| s));
        assert_eq!(a.kill, b.kill);
        let k = a.kill.unwrap();
        assert!(k.node >= 1 && (k.node as usize) < 3, "never kills node 0");
    }

    #[test]
    fn disarming_one_class_keeps_other_streams() {
        let mut cfg = VoprConfig::new(WorkloadKind::Life, 0x77);
        let all = Perturbation::derive(&cfg, 1.0, 3);
        cfg.faults.net = false;
        let no_net = Perturbation::derive(&cfg, 1.0, 3);
        assert_eq!(all.shuffle_seed, no_net.shuffle_seed);
        assert_eq!(all.kill, no_net.kill);
        assert!(no_net.net.is_none());
    }

    #[test]
    fn minimizer_isolates_the_guilty_classes() {
        let m = minimize_classes(FaultClasses::ALL, |c| c.net);
        assert_eq!(
            m,
            FaultClasses {
                shuffle: false,
                net: true,
                kill: false
            }
        );
        let m = minimize_classes(FaultClasses::ALL, |c| c.net && c.kill);
        assert!(m.net && m.kill && !m.shuffle);
        // A failure that persists with nothing armed (a reference-side bug)
        // shrinks all the way to `none` — maximally informative.
        let m = minimize_classes(FaultClasses::ALL, |_| true);
        assert_eq!(m, FaultClasses::NONE);
    }

    #[test]
    fn shuffle_only_run_is_clean_on_life() {
        let mut cfg = VoprConfig::new(WorkloadKind::Life, 42);
        cfg.faults = FaultClasses {
            shuffle: true,
            net: false,
            kill: false,
        };
        let report = Vopr::new(cfg).run().expect("life survives a shuffle");
        assert!(report.completed);
    }
}
