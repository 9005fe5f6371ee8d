//! The same schedule on real operating-system threads — `MtEngine`.
//!
//! "DPS threads are mapped to operating system threads" (paper §2). This
//! example estimates π by Monte Carlo integration: a split fans out work
//! packets, leaves run genuinely in parallel on OS threads, a merge
//! combines the estimate. With `enforce_serialization`, tokens crossing
//! virtual node boundaries take the full serialize/deserialize path — the
//! paper's several-kernels-on-one-host debugging mode (§4).
//!
//! The driver is written **once** against the unified [`Engine`] trait and
//! the typed [`Application`] front door (no raw token boxes, no
//! engine-specific run loop), then pointed at the OS-thread engine — and,
//! for comparison, at the deterministic simulator.
//!
//! Run with: `cargo run --release --example real_threads`
//! (or `-- --engine net` to run the identical driver across four OS
//! *processes* over TCP — rank 0 re-executes this binary as three worker
//! kernels).

use dps::cluster::ClusterSpec;
use dps::core::dps_token;
use dps::core::prelude::*;
use dps::des::SplitMix64;
use dps::mt::{MtConfig, MtEngine};
use dps::netengine::{NetEngine, NetEngineConfig};

dps_token! {
    pub struct PiJob { pub packets: u32, pub samples_per_packet: u64 }
}
dps_token! {
    pub struct Packet { pub seed: u64, pub samples: u64 }
}
dps_token! {
    pub struct Hits { pub inside: u64, pub samples: u64 }
}
dps_token! {
    pub struct PiEstimate { pub inside: u64, pub samples: u64 }
}

struct FanPackets;
impl SplitOperation for FanPackets {
    type Thread = ();
    type In = PiJob;
    type Out = Packet;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Packet>, j: PiJob) {
        for i in 0..j.packets {
            ctx.post(Packet {
                seed: 0xD15C0 + u64::from(i),
                samples: j.samples_per_packet,
            });
        }
    }
}

struct SamplePacket;
impl LeafOperation for SamplePacket {
    type Thread = ();
    type In = Packet;
    type Out = Hits;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Hits>, p: Packet) {
        let mut rng = SplitMix64::new(p.seed);
        let mut inside = 0u64;
        for _ in 0..p.samples {
            let x = rng.next_f64();
            let y = rng.next_f64();
            if x * x + y * y <= 1.0 {
                inside += 1;
            }
        }
        ctx.post(Hits {
            inside,
            samples: p.samples,
        });
    }
}

#[derive(Default)]
struct CombineHits {
    inside: u64,
    samples: u64,
}
impl MergeOperation for CombineHits {
    type Thread = ();
    type In = Hits;
    type Out = PiEstimate;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), PiEstimate>, h: Hits) {
        self.inside += h.inside;
        self.samples += h.samples;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), PiEstimate>) {
        ctx.post(PiEstimate {
            inside: self.inside,
            samples: self.samples,
        });
    }
}

/// One driver for every engine: declare the application, build the typed
/// front door, make one call.
fn estimate_pi<E: Engine>(eng: &mut E) -> f64 {
    let app = eng.app("pi");
    eng.register_token::<PiJob>(app);
    eng.register_token::<Packet>(app);
    eng.register_token::<Hits>(app);
    eng.register_token::<PiEstimate>(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "proc", "node0 node1 node2 node3")
        .unwrap();
    let mut b = GraphBuilder::new("pi");
    let s = b.split(&main, || ToThread(0), || FanPackets);
    let l = b.leaf(&workers, RoundRobin::new, || SamplePacket);
    let m = b.merge(&main, || ToThread(0), CombineHits::default);
    b.add(s >> l >> m);
    let pi: Application<E, PiJob, PiEstimate> = Application::build(eng, b).unwrap();

    let est = pi
        .call(
            eng,
            PiJob {
                packets: 64,
                samples_per_packet: 250_000,
            },
        )
        .unwrap();
    4.0 * est.inside as f64 / est.samples as f64
}

fn main() {
    // Multi-process deployment: the paper's one-kernel-per-node model.
    // Rank 0 spawns three worker processes re-executing this binary with
    // the same arguments; the identical SPMD driver runs everywhere, and
    // the π estimate comes back bit-identical on every kernel.
    if std::env::args().any(|a| a == "net" || a == "--engine=net") {
        let mut eng = NetEngine::from_env(4, NetEngineConfig::default()).expect("net setup");
        let master = eng.is_master();
        let rank = eng.rank();
        let t0 = std::time::Instant::now();
        let pi = estimate_pi(&mut eng);
        let wall = t0.elapsed();
        eng.shutdown();
        if master {
            println!(
                "π ≈ {pi:.6} from 16M samples across 4 kernels (3 worker processes) in {wall:?}"
            );
        } else {
            println!("worker kernel {rank}: π ≈ {pi:.6} (same outputs, from the master's release)");
        }
        assert!((pi - std::f64::consts::PI).abs() < 0.01);
        return;
    }

    // Real OS threads, full networking path across virtual node boundaries.
    let cfg = MtConfig {
        enforce_serialization: true,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(4, cfg);
    let t0 = std::time::Instant::now();
    let pi = estimate_pi(&mut eng);
    let wall = t0.elapsed();
    eng.shutdown();
    println!("π ≈ {pi:.6} from 16M samples across 4 OS worker threads in {wall:?}");
    assert!((pi - std::f64::consts::PI).abs() < 0.01);

    // The identical driver on the deterministic simulator (virtual time).
    let mut sim = SimEngine::new(ClusterSpec::paper_testbed(4));
    let pi_sim = estimate_pi(&mut sim);
    println!(
        "π ≈ {pi_sim:.6} from the same driver on the simulator ({:.3}s virtual)",
        sim.now_secs()
    );
    assert_eq!(pi, pi_sim, "same seeds, same arithmetic, same estimate");
}
