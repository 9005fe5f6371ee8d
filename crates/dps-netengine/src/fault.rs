//! Deterministic fault injection over real transports.
//!
//! The stance mirrors `dps_net::fault` (the simulator's wire-fault model):
//! the transport is **reliable over a lossy wire**, so injected faults
//! perturb *timing and wire cost, never payload content*. A drop shows up
//! as bounded retransmit latency, a delay as jitter, a duplicate as an
//! extra copy the receiver suppresses — a faulted run must still produce
//! byte-identical outputs unless a node is explicitly killed.
//!
//! Three wrappers compose over [`FrameTx`]/[`FrameRx`]:
//!
//! * [`FaultyTx`] — draws one [`dps_net::FaultInjector`] decision per
//!   outbound frame (drop-as-retransmit-delay, jitter, duplicates) and
//!   prefixes every copy with a monotone sequence header;
//! * [`DedupRx`] — strips the header and suppresses duplicate sequence
//!   numbers, so a duplicated `Exec` never double-executes;
//! * [`KillTx`] — the scheduled process kill: after a configured number of
//!   outbound frames it injects a [`Frame::Die`], crashing the worker at a
//!   deterministic point in the master's send stream.
//!
//! Both directions of a connection must be armed together (the header is
//! part of the framing); [`arm_duplex`] wraps one side. Seeds derive from
//! one base via [`WireFaults::stream`] so each connection direction owns an
//! independent SplitMix64 stream — disarming one fault class or connection
//! never re-rolls another's schedule (the property the VOPR smoke
//! minimizer relies on).

use std::io;
use std::time::Duration;

use dps_net::{FaultConfig, FaultInjector};

use crate::proto::{send_frame, Frame};
use crate::transport::{Duplex, FrameRx, FrameTx};

/// Seeded wire-fault configuration for a whole engine: the shared fault
/// classes/rates plus the base seed every connection stream derives from.
///
/// SPMD symmetry: master and workers construct the same `WireFaults` from
/// the same driver arguments, so both ends of every connection agree on
/// whether the sequence header is present.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaults {
    /// Fault classes and rates — the simulator's model, reused verbatim;
    /// its `SimSpan` delays are applied here as real wall-clock sleeps.
    pub cfg: FaultConfig,
    /// Base seed; see [`stream`](Self::stream).
    pub seed: u64,
}

impl WireFaults {
    /// Every class armed at `rate` (the smoke-sweep default: millisecond
    /// delays, bounded retransmission).
    pub fn all(rate: f64, seed: u64) -> Self {
        Self {
            cfg: FaultConfig::all(rate),
            seed,
        }
    }

    /// The RNG stream for one direction of one connection: `direction` 0 is
    /// master→worker, 1 is worker→master. SplitMix64-style mixing keeps the
    /// streams independent, so every (rank, direction) replays its own
    /// schedule regardless of what the others do.
    pub fn stream(&self, rank: u32, direction: u64) -> u64 {
        let lane = (u64::from(rank) << 1) | (direction & 1);
        self.seed ^ (lane.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// A scheduled worker-process kill: after `after_frames` outbound frames to
/// `rank`, the master injects a [`Frame::Die`] (the worker crashes without
/// any shutdown handshake). Frame counts — not wall-clock times — key the
/// schedule, so a kill lands at a deterministic point in the send stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetKill {
    /// Worker rank to kill (1-based; rank 0 is the master).
    pub rank: u32,
    /// Outbound frames to let through before the `Die` goes out (0 kills
    /// the worker before it sees any post-handshake frame).
    pub after_frames: u64,
}

/// Length of the sequence header [`FaultyTx`] prepends to every frame.
const SEQ_HEADER: usize = 8;

/// Outbound fault injection: per-frame seeded decisions plus the sequence
/// header [`DedupRx`] needs to suppress the duplicates this side sends.
pub struct FaultyTx {
    inner: Box<dyn FrameTx>,
    inj: FaultInjector,
    seq: u64,
}

impl FaultyTx {
    /// Wrap `inner`, drawing decisions from `cfg` under `seed`.
    pub fn new(inner: Box<dyn FrameTx>, cfg: FaultConfig, seed: u64) -> Self {
        Self {
            inner,
            inj: FaultInjector::new(cfg, seed),
            seq: 0,
        }
    }

    /// Frames perturbed so far (delayed, retransmitted or duplicated).
    pub fn faults(&self) -> u64 {
        self.inj.faults()
    }
}

impl FrameTx for FaultyTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let d = self.inj.decide();
        let nanos = d.extra_delay.as_nanos();
        if nanos > 0 {
            // Drops surface as retransmit latency, delays as jitter — the
            // reliable-transport model: the frame always arrives, later.
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        self.seq += 1;
        let mut framed = Vec::with_capacity(frame.len() + SEQ_HEADER);
        framed.extend_from_slice(&self.seq.to_le_bytes());
        framed.extend_from_slice(frame);
        self.inner.send(&framed)?;
        for _ in 0..d.duplicates {
            self.inner.send(&framed)?;
        }
        Ok(())
    }
}

/// Inbound half of the fault layer: strips the sequence header and drops
/// frames whose sequence number was already delivered (the duplicates a
/// [`FaultyTx`] peer sent). The underlying transports are ordered, so
/// "already delivered" is one comparison against the last sequence seen.
pub struct DedupRx {
    inner: Box<dyn FrameRx>,
    last: u64,
}

impl DedupRx {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn FrameRx>) -> Self {
        Self { inner, last: 0 }
    }
}

impl FrameRx for DedupRx {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            let framed = self.inner.recv()?;
            if framed.len() < SEQ_HEADER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "fault-layer frame missing its sequence header",
                ));
            }
            let seq = u64::from_le_bytes(framed[..SEQ_HEADER].try_into().expect("8 bytes"));
            if seq <= self.last {
                continue; // a duplicate copy; suppress above the transport
            }
            self.last = seq;
            return Ok(framed[SEQ_HEADER..].to_vec());
        }
    }
}

/// Arm one side of a connection: outbound faults under the given stream
/// seed, inbound duplicate suppression. Both peers must arm (with their own
/// direction streams) or neither.
pub fn arm_duplex(d: Duplex, cfg: FaultConfig, tx_seed: u64) -> Duplex {
    Duplex {
        tx: Box::new(FaultyTx::new(d.tx, cfg, tx_seed)),
        rx: Box::new(DedupRx::new(d.rx)),
    }
}

/// The kill switch on the master's writer to one worker: counts outbound
/// frames and injects a [`Frame::Die`] once the schedule says so. Composes
/// *outside* any [`FaultyTx`] so the `Die` itself travels with a valid
/// sequence header.
pub struct KillTx {
    inner: Box<dyn FrameTx>,
    after: u64,
    sent: u64,
    fired: bool,
}

impl KillTx {
    /// Let `after` frames through, then inject the kill.
    pub fn new(inner: Box<dyn FrameTx>, after: u64) -> Self {
        Self {
            inner,
            after,
            sent: 0,
            fired: false,
        }
    }
}

impl FrameTx for KillTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if !self.fired && self.sent >= self.after {
            self.fired = true;
            // Best-effort: the worker may already be gone for other reasons.
            let _ = send_frame(&mut *self.inner, &Frame::Die);
        }
        self.sent += 1;
        self.inner.send(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_frame, Payload};
    use crate::transport::{LoopbackTransport, Transport};

    fn armed_pair(rate: f64, seed: u64) -> (Duplex, Duplex) {
        let t = LoopbackTransport::new();
        let (addr, mut acc) = t.bind().unwrap();
        let client = t.connect(&addr).unwrap();
        let server = acc.accept().unwrap();
        let cfg = FaultConfig::all(rate);
        let wf = WireFaults { cfg, seed };
        (
            arm_duplex(client, cfg, wf.stream(1, 0)),
            arm_duplex(server, cfg, wf.stream(1, 1)),
        )
    }

    /// Heavy duplication and delay never corrupt or reorder the payload
    /// stream: N sends arrive as exactly N identical frames, in order.
    #[test]
    fn faults_never_change_payload_content_or_order() {
        let (mut a, mut b) = armed_pair(0.6, 0xFEED);
        let payloads: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 1 + i as usize]).collect();
        for p in &payloads {
            a.tx.send(p).unwrap();
        }
        for p in &payloads {
            assert_eq!(&b.rx.recv().unwrap(), p, "payload intact and in order");
        }
        // The reverse direction works on its own independent stream.
        b.tx.send(b"reply").unwrap();
        assert_eq!(a.rx.recv().unwrap(), b"reply");
    }

    /// At a 60% per-class rate some frames must actually be perturbed and
    /// real duplicate copies must transit the wire — the injector is live,
    /// not a no-op wrapper — yet the deduped view stays exact.
    #[test]
    fn faults_actually_fire_and_duplicates_are_suppressed() {
        let t = LoopbackTransport::new();
        let (addr, mut acc) = t.bind().unwrap();
        let client = t.connect(&addr).unwrap();
        let server = acc.accept().unwrap();
        let mut tx = FaultyTx::new(client.tx, FaultConfig::all(0.6), 7);
        for i in 0..100u8 {
            tx.send(&[i]).unwrap();
        }
        assert!(tx.faults() > 10, "faults fired: {}", tx.faults());
        drop(tx);
        let mut rx = DedupRx::new(server.rx);
        let mut seen = Vec::new();
        while let Ok(f) = rx.recv() {
            seen.push(f[0]);
        }
        assert_eq!(seen, (0..100u8).collect::<Vec<_>>(), "deduped and ordered");
    }

    /// Same seed, same schedule: two armed senders over clean channels make
    /// identical duplicate/delay decisions frame for frame.
    #[test]
    fn same_seed_replays_the_same_wire_schedule() {
        let run = |seed: u64| {
            let t = LoopbackTransport::new();
            let (addr, mut acc) = t.bind().unwrap();
            let client = t.connect(&addr).unwrap();
            let mut server = acc.accept().unwrap();
            let mut tx = FaultyTx::new(client.tx, FaultConfig::all(0.4), seed);
            for i in 0..40u8 {
                tx.send(&[i]).unwrap();
            }
            drop(tx);
            // Count raw copies (duplicates included) off the wire.
            let mut copies = Vec::new();
            while let Ok(f) = server.rx.recv() {
                copies.push(f);
            }
            copies
        };
        assert_eq!(run(11), run(11), "same seed, same wire traffic");
        assert_ne!(run(11), run(12), "different seeds diverge");
    }

    /// The kill switch lets exactly `after` frames through, then injects a
    /// `Die`, then keeps forwarding (the worker is gone; sends just fail
    /// later).
    #[test]
    fn kill_switch_fires_at_the_scheduled_frame() {
        let t = LoopbackTransport::new();
        let (addr, mut acc) = t.bind().unwrap();
        let client = t.connect(&addr).unwrap();
        let mut server = acc.accept().unwrap();
        let mut tx = KillTx::new(client.tx, 2);
        for i in 0..4u8 {
            let output = Frame::Output {
                app: u32::from(i),
                graph: 0,
                token: Payload::empty(),
            };
            send_frame(&mut tx, &output).unwrap();
        }
        let kinds: Vec<Frame> = (0..5)
            .map(|_| decode_frame(server.rx.recv().unwrap()).unwrap())
            .collect();
        assert!(matches!(kinds[0], Frame::Output { app: 0, .. }));
        assert!(matches!(kinds[1], Frame::Output { app: 1, .. }));
        assert!(matches!(kinds[2], Frame::Die), "Die lands after 2 frames");
        assert!(matches!(kinds[3], Frame::Output { app: 2, .. }));
        assert!(matches!(kinds[4], Frame::Output { app: 3, .. }));
    }

    /// Per-direction streams are independent: reseeding one direction does
    /// not change the other's decisions (the re-roll-free property the
    /// smoke minimizer depends on).
    #[test]
    fn direction_streams_are_independent() {
        let wf_a = WireFaults::all(0.3, 99);
        let wf_b = WireFaults::all(0.3, 99);
        assert_eq!(wf_a.stream(1, 0), wf_b.stream(1, 0));
        assert_ne!(wf_a.stream(1, 0), wf_a.stream(1, 1));
        assert_ne!(wf_a.stream(1, 0), wf_a.stream(2, 0));
    }
}
