//! Layer probes: each layer of the stack driven alone, from outside,
//! through its public functions. Every probe does a fixed amount of work
//! (`--smoke` shrinks it) and reports one number per metric.
//!
//! The interaction table in `README.md` says which end-to-end metric each
//! of these should move, and on which workload.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dps_core::{register_token, Token, TokenRegistry};
use dps_des::{Sim, SimSpan};
use dps_linalg::parallel::lu::{LuNotify, UpdTicket};
use dps_linalg::parallel::matmul::{BlockResult, BlockTask};
use dps_linalg::{blocked_lu, flops, kernel, Matrix};
use dps_mt::{MtConfig, MtEngine};
use dps_netengine::proto::{decode_token, encode_token};
use dps_netengine::{Duplex, LoopbackTransport, TcpTransport, Transport};
use dps_obs::{EventKind, TraceCollector};
use dps_sched::{ChunkCalc, ChunkHub, FeedbackBoard, FeedbackSink, PolicyKind};

use crate::json::Metric;
use crate::spec::NODES;
use crate::{stats, tokens};

/// Run `body` `rounds` times and return the fastest round in seconds: the
/// probes time deterministic, allocation-free loops, where the minimum is
/// the run least disturbed by the rest of the machine.
fn best_of(rounds: usize, mut body: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

// --- dps-linalg -------------------------------------------------------------

/// The three blocked kernels at the block shapes `lu_mt` runs them at
/// mid-factorisation (`n = 1024`, `r = 64`, four update chunks a column:
/// a 128-row strip of the trailing update, a 64×64 triangular solve, a
/// 512-row panel).
fn linalg_kernels(smoke: bool, out: &mut Vec<Metric>) {
    let reps: usize = if smoke { 2 } else { 80 };
    let (m, r) = (128, 64);

    let a = Matrix::random(m, r, 1);
    let b = Matrix::random(r, r, 2);
    let mut c = Matrix::random(m, r, 3);
    let t = best_of(3, || {
        for _ in 0..reps {
            kernel::gemm_blocked(-1.0, black_box(&a), black_box(&b), 1.0, &mut c);
        }
        black_box(&c);
    });
    out.push(Metric::new(
        "linalg.gemm_gflops",
        reps as f64 * flops::gemm(m, r, r) / t / 1e9,
        "GFLOP/s",
    ));

    let l = Matrix::random(r, r, 4);
    let rhs = Matrix::random(r, r, 5);
    let t = best_of(3, || {
        for _ in 0..reps {
            let mut x = rhs.clone();
            kernel::trsm_blocked(black_box(&l), &mut x);
            black_box(&x);
        }
    });
    out.push(Metric::new(
        "linalg.trsm_gflops",
        reps as f64 * flops::trsm(r, r) / t / 1e9,
        "GFLOP/s",
    ));

    let rows = if smoke { 128 } else { 512 };
    let panel = Matrix::random_general(rows, r, 6);
    let preps = reps.div_ceil(8);
    let t = best_of(3, || {
        for _ in 0..preps {
            let mut p = panel.clone();
            black_box(kernel::panel_lu_blocked(&mut p));
        }
    });
    out.push(Metric::new(
        "linalg.panel_lu_gflops",
        preps as f64 * flops::panel_lu(rows, r) / t / 1e9,
        "GFLOP/s",
    ));
}

/// Seconds of the sequential block LU of `lu_mt`'s matrix: the
/// single-threaded baseline and the reference every LU repetition is
/// verified against.
pub fn seq_lu(n: usize, r: usize, seed: u64) -> (f64, dps_linalg::LuFactors) {
    let a = Matrix::random_general(n, n, seed);
    let t0 = Instant::now();
    let f = blocked_lu(&a, r);
    (t0.elapsed().as_secs_f64(), f)
}

/// Seconds of the sequential product of `matmul_net`'s operands, and the
/// product: the baseline and the tolerance reference.
pub fn seq_matmul(n: usize, seed: u64) -> (f64, Matrix) {
    let a = Matrix::random(n, n, seed);
    let b = Matrix::random(n, n, seed.wrapping_add(1));
    let t0 = Instant::now();
    let c = a.matmul(&b);
    (t0.elapsed().as_secs_f64(), c)
}

// --- dps-sched --------------------------------------------------------------

/// Run `work(thread)` on [`NODES`] threads released together; seconds from
/// the first start to the last end, fastest of three rounds with `fresh`
/// state each.
fn span_of<S: Sync>(mut fresh: impl FnMut() -> S, work: impl Fn(&S, usize) + Sync) -> f64 {
    (0..3)
        .map(|_| {
            let state = fresh();
            let gate = Barrier::new(NODES);
            let base = Instant::now();
            let times: Vec<(f64, f64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..NODES)
                    .map(|w| {
                        let (gate, state, work) = (&gate, &state, &work);
                        scope.spawn(move || {
                            gate.wait();
                            let start = base.elapsed().as_secs_f64();
                            work(state, w);
                            (start, base.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            });
            let first = times.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
            let last = times.iter().map(|t| t.1).fold(0.0, f64::max);
            last - first
        })
        .fold(f64::INFINITY, f64::min)
}

fn sched(smoke: bool, out: &mut Vec<Metric>) {
    // Claims: one SS lease (chunk = 1 iteration, maximal claim pressure)
    // drained by both threads.
    let iters: u64 = if smoke { 50_000 } else { 2_000_000 };
    let t = span_of(
        || {
            let hub = ChunkHub::new();
            let lease = hub.open(ChunkCalc::new(PolicyKind::Ss, iters, NODES, &[]));
            (hub, lease.id)
        },
        |(hub, id), _| while black_box(hub.claim(*id)).is_some() {},
    );
    out.push(Metric::new(
        "sched.claim_mops",
        iters as f64 / t / 1e6,
        "Mop/s",
    ));

    // Reports: each thread into its own worker slot, the engines' shape.
    let per_thread: u64 = if smoke { 20_000 } else { 1_000_000 };
    let t = span_of(FeedbackBoard::new, |board, w| {
        for j in 0..per_thread {
            board.report_chunk(w, 1 + (j % 32), 1.0e-4);
        }
    });
    out.push(Metric::new(
        "sched.report_mops",
        (per_thread * NODES as u64) as f64 / t / 1e6,
        "Mop/s",
    ));

    // Closed-form chunk length from the sequence number, on the policy the
    // gated DLS workloads run (SS).
    let total: u64 = 1 << 20;
    let calc = ChunkCalc::new(PolicyKind::Ss, total, NODES, &[]);
    let rounds: u32 = if smoke { 20_000 } else { 1 << 20 };
    let t = best_of(3, || {
        let mut acc = 0u64;
        for seq in 0..rounds {
            acc = acc.wrapping_add(calc.len_at(black_box(seq), black_box(u64::from(seq))));
        }
        black_box(acc);
    });
    out.push(Metric::new(
        "sched.chunk_calc_ns",
        t / f64::from(rounds) * 1e9,
        "ns",
    ));
}

// --- dps-mt -----------------------------------------------------------------

fn mt_tokens(smoke: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let (pings, burst) = if smoke { (20, 2_000) } else { (300, 100_000) };
    let mut eng = MtEngine::with_config(
        NODES,
        MtConfig {
            flow_window: 0,
            ..MtConfig::default()
        },
    );
    let probe =
        tokens::run(&mut eng, "node1", pings, burst).map_err(|e| format!("mt token probe: {e}"))?;
    let t0 = Instant::now();
    eng.shutdown();
    let shutdown_s = t0.elapsed().as_secs_f64();
    probe.verify(pings, burst)?;
    out.push(Metric::new(
        "mt.tokens_per_s",
        f64::from(burst) / probe.burst_s,
        "1/s",
    ));
    out.push(Metric::new(
        "mt.submit_rtt_us",
        stats::median(&probe.rtts) * 1e6,
        "us",
    ));
    out.push(Metric::new("mt.engine_start_s", probe.start_s, "s"));
    out.push(Metric::new("mt.shutdown_s", shutdown_s, "s"));
    Ok(())
}

// --- dps-des ----------------------------------------------------------------

fn des(smoke: bool, out: &mut Vec<Metric>) {
    let events: u64 = if smoke { 20_000 } else { 1_000_000 };
    let t = best_of(3, || {
        let mut sim = Sim::new(0u64);
        for i in 0..events {
            // Spread over distinct times so the heap does real ordering work.
            sim.schedule_in(SimSpan::from_nanos(1 + (i * 7919) % 1_000_003), |s| {
                s.world += 1;
            });
        }
        sim.run();
        assert_eq!(sim.world, events, "every event ran once");
    });
    out.push(Metric::new("des.events_per_s", events as f64 / t, "1/s"));
}

// --- dps-serial / proto -----------------------------------------------------

fn registry() -> TokenRegistry {
    let mut reg = TokenRegistry::new();
    register_token::<LuNotify>(&mut reg);
    register_token::<UpdTicket>(&mut reg);
    register_token::<BlockTask>(&mut reg);
    register_token::<BlockResult>(&mut reg);
    reg
}

/// Seconds per `encode_token` and per `decode_token` of `tokens`, and the
/// encoded bytes of one pass.
fn codec(reg: &TokenRegistry, tokens: &[&dyn Token], passes: usize) -> (f64, f64, usize) {
    let encoded: Vec<Vec<u8>> = tokens.iter().map(|t| encode_token(*t)).collect();
    let bytes = encoded.iter().map(Vec::len).sum();
    let enc = best_of(3, || {
        for _ in 0..passes {
            for t in tokens {
                black_box(encode_token(black_box(*t)));
            }
        }
    });
    let dec = best_of(3, || {
        for _ in 0..passes {
            for b in &encoded {
                black_box(decode_token(reg, black_box(b)).expect("decodes what it encoded"));
            }
        }
    });
    let calls = (passes * tokens.len()) as f64;
    (enc / calls, dec / calls, bytes)
}

fn serial(smoke: bool, out: &mut Vec<Metric>) {
    let reg = registry();

    // The two tokens `lu_net` sends most: a chunk notification with no
    // panel attached and an update ticket.
    let notify = LuNotify {
        k: 3,
        j: 5,
        r: 32,
        done: 0,
        panel: Vec::new().into(),
    };
    let ticket = UpdTicket {
        k: 3,
        j: 5,
        nb: 16,
        r: 32,
        lease: 77,
        chunks: 4,
    };
    let passes = if smoke { 1_000 } else { 100_000 };
    let (enc, dec, _) = codec(&reg, &[&notify, &ticket], passes);
    out.push(Metric::new("serial.small_encode_ns", enc * 1e9, "ns"));
    out.push(Metric::new("serial.small_decode_ns", dec * 1e9, "ns"));

    // The two tokens `matmul_net` moves: a task carrying `s = 8` operand
    // blocks of 128 KiB for each of A and B, and a 128 KiB result block.
    let (bs, s) = if smoke { (32usize, 4usize) } else { (128, 8) };
    let operand: Vec<f64> = (0..s * bs * bs).map(|i| i as f64 * 0.5).collect();
    let task = BlockTask {
        i: 1,
        j: 2,
        bs: bs as u32,
        a: operand.clone().into(),
        b: operand.into(),
    };
    let result = BlockResult {
        i: 1,
        j: 2,
        bs: bs as u32,
        c: (0..bs * bs).map(|i| i as f64).collect::<Vec<_>>().into(),
    };
    let passes = if smoke { 2 } else { 20 };
    let (enc, dec, bytes) = codec(&reg, &[&task, &result], passes);
    // `codec` returns seconds per call over two tokens of `bytes` total.
    let per_call_bytes = bytes as f64 / 2.0;
    out.push(Metric::new(
        "serial.encode_gbps",
        per_call_bytes / enc / 1e9,
        "GB/s",
    ));
    out.push(Metric::new(
        "serial.decode_gbps",
        per_call_bytes / dec / 1e9,
        "GB/s",
    ));
}

// --- transport --------------------------------------------------------------

/// A connected pair on `transport`: `(client, server)`.
fn pair(transport: &dyn Transport) -> std::io::Result<(Duplex, Duplex)> {
    let (addr, mut acceptor) = transport.bind()?;
    let client = transport.connect(&addr)?;
    let server = acceptor.accept()?;
    Ok((client, server))
}

/// Median seconds of a 64-byte frame's round trip (a second thread
/// echoes), and one-way GB/s of 128 KiB frames (the second thread drains
/// them and acknowledges the last).
fn transport_probe(
    transport: &dyn Transport,
    pings: usize,
    frames: usize,
) -> std::io::Result<(f64, f64)> {
    const PING: [u8; 64] = [7; 64];
    let (mut client, mut server) = pair(transport)?;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let mut swallowed = 0usize;
            loop {
                let frame = server.rx.recv()?;
                if frame.len() == PING.len() {
                    server.tx.send(&frame)?;
                } else {
                    swallowed += 1;
                    if swallowed == frames {
                        return server.tx.send(b"ack");
                    }
                }
            }
        });

        let measured = (move || -> std::io::Result<(f64, f64)> {
            let mut rtts = Vec::with_capacity(pings);
            for _ in 0..pings {
                let t0 = Instant::now();
                client.tx.send(&PING)?;
                black_box(client.rx.recv()?);
                rtts.push(t0.elapsed().as_secs_f64());
            }
            let big = vec![0xA5u8; 128 * 1024];
            let t0 = Instant::now();
            for _ in 0..frames {
                client.tx.send(&big)?;
            }
            client.rx.recv()?; // the ack: every byte arrived
            let gbps = (frames * big.len()) as f64 / t0.elapsed().as_secs_f64() / 1e9;
            Ok((stats::median(&rtts), gbps))
        })();
        // The closure owned `client` and has dropped it, so an echo thread
        // still blocked in `recv` (the measurement failed early) sees the
        // connection close and ends; the join cannot hang.
        let echoed = echo.join().expect("echo thread panicked");
        let measured = measured?;
        echoed?;
        Ok(measured)
    })
}

fn transport(smoke: bool, out: &mut Vec<Metric>) -> Result<(), String> {
    let (pings, frames) = if smoke { (50, 16) } else { (2_000, 512) };
    let (rtt, gbps) = transport_probe(&TcpTransport, pings, frames)
        .map_err(|e| format!("tcp transport probe: {e}"))?;
    out.push(Metric::new("transport.tcp_rtt_us", rtt * 1e6, "us"));
    out.push(Metric::new("transport.tcp_gbps", gbps, "GB/s"));
    let (rtt, gbps) = transport_probe(&LoopbackTransport::new(), pings, frames)
        .map_err(|e| format!("loopback transport probe: {e}"))?;
    out.push(Metric::new("transport.loopback_rtt_us", rtt * 1e6, "us"));
    out.push(Metric::new("transport.loopback_gbps", gbps, "GB/s"));
    Ok(())
}

// --- dps-obs ----------------------------------------------------------------

fn obs(smoke: bool, out: &mut Vec<Metric>) {
    let events: u64 = if smoke { 10_000 } else { 1_000_000 };
    let collector = Arc::new(TraceCollector::with_ring_capacity(1 << 21));
    let mut writer = collector.writer(0, 0);
    let t0 = Instant::now();
    for i in 0..events {
        writer.record(
            i,
            EventKind::ChunkExec {
                iters: black_box(i),
                nanos: 1,
            },
        );
    }
    let t = t0.elapsed().as_secs_f64();
    let log = collector.take_log();
    assert_eq!(log.events.len() as u64, events, "no event dropped");
    out.push(Metric::new("obs.record_ns", t / events as f64 * 1e9, "ns"));
}

/// Every in-process probe, in layer order.
pub fn run_all(smoke: bool) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    linalg_kernels(smoke, &mut out);
    sched(smoke, &mut out);
    mt_tokens(smoke, &mut out)?;
    des(smoke, &mut out);
    serial(smoke, &mut out);
    transport(smoke, &mut out)?;
    obs(smoke, &mut out);
    Ok(out)
}
