//! Observability across the engines: deterministic schedule hashes on the
//! simulator, Chrome-trace export of the same scheduled application on all
//! three backends, and the cross-cluster metrics the trace collector
//! aggregates.
//!
//! The replay property is the load-bearing one: the simulator's event
//! stream is part of its deterministic contract, so two runs of the same
//! seeded configuration must produce **byte-identical** trace logs — which
//! makes `schedule_hash` a one-word fingerprint of an entire schedule.

use std::sync::{Arc, Mutex};

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, EngineConfig};
use dps::linalg::parallel::lu::{run_lu, LuConfig};
use dps::mt::MtEngine;
use dps::netengine::{NetEngine, NetEngineConfig};
use dps::obs::{
    chrome_trace_json, schedule_hash, validate_chrome_trace, Counter, EventKind, TraceCollector,
    TraceLog,
};
use dps::sched::{Distribution, PolicyKind};
use proptest::prelude::*;

/// Run the scheduled block LU on a fresh simulator with a trace sink and
/// return the drained log.
fn traced_sim_lu(nodes: usize, n: usize, seed: u64, dist: Distribution) -> TraceLog {
    let collector = TraceCollector::new();
    let mut eng =
        SimEngine::with_config(ClusterSpec::skewed(nodes, 1, 2.0), EngineConfig::default());
    eng.set_trace_sink(collector.clone());
    run_lu(
        &mut eng,
        &LuConfig {
            n,
            r: 8,
            pipelined: true,
            seed,
            nodes,
            threads_per_node: 1,
            dist,
            update_chunks: 1,
        },
    )
    .expect("traced LU run");
    collector.take_log()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replay identity: the same seeded configuration produces the same
    /// event stream, byte for byte, and therefore the same schedule hash.
    #[test]
    fn sim_trace_replays_byte_identically(
        nb in 2usize..5,
        nodes in 1usize..4,
        seed in any::<u64>(),
        policy_idx in 0usize..6,
    ) {
        let dist = match PolicyKind::ALL[policy_idx] {
            PolicyKind::Static => Distribution::Static,
            k => Distribution::Scheduled(k),
        };
        let a = traced_sim_lu(nodes, nb * 8, seed, dist);
        let b = traced_sim_lu(nodes, nb * 8, seed, dist);
        prop_assert!(!a.events.is_empty(), "a traced run must record events");
        prop_assert_eq!(&a, &b, "replayed event streams diverged");
        prop_assert_eq!(schedule_hash(&a), schedule_hash(&b));
    }
}

/// Different scheduling policies drive different executions, so their
/// schedule hashes must differ — the hash distinguishes schedules, not
/// just workloads.
#[test]
fn schedule_hash_separates_policies() {
    // 12 block columns over 2 workers: SS claims them one by one, TSS in
    // decreasing runs — genuinely different schedules, different hashes.
    let sched = |p| traced_sim_lu(2, 96, 7, Distribution::Scheduled(p));
    let h_static = schedule_hash(&traced_sim_lu(2, 96, 7, Distribution::Static));
    let h_ss = schedule_hash(&sched(PolicyKind::Ss));
    let h_tss = schedule_hash(&sched(PolicyKind::Tss));
    assert_ne!(h_static, h_ss, "static vs SS must hash apart");
    assert_ne!(h_ss, h_tss, "SS vs TSS must hash apart");
}

/// The exported Chrome trace of a scheduled LU validates against the
/// trace-event schema on every engine — simulator, OS threads, and the
/// loopback network engine — with wave/op spans on real tracks.
#[test]
fn scheduled_lu_exports_a_loading_chrome_trace_on_all_engines() {
    let cfg = LuConfig {
        n: 32,
        r: 8,
        pipelined: true,
        seed: 21,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Scheduled(PolicyKind::Tss),
        update_chunks: 1,
    };
    let check = |engine: &str, log: TraceLog| {
        assert!(
            !log.events.is_empty(),
            "{engine}: traced run recorded no events"
        );
        let json = chrome_trace_json(&log);
        let stats = validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{engine}: invalid Chrome trace: {e}"));
        assert!(stats.records > 0, "{engine}: empty traceEvents");
        assert!(stats.op_spans > 0, "{engine}: no op spans");
        assert!(stats.tracks >= 2, "{engine}: everything on one track");
    };

    let sim = TraceCollector::new();
    let mut eng = SimEngine::with_config(ClusterSpec::skewed(2, 1, 2.0), EngineConfig::default());
    eng.set_trace_sink(sim.clone());
    run_lu(&mut eng, &cfg).expect("sim LU");
    check("sim", sim.take_log());

    let mt = TraceCollector::new();
    let mut eng = MtEngine::new(2);
    eng.set_trace_sink(mt.clone());
    run_lu(&mut eng, &cfg).expect("mt LU");
    eng.shutdown();
    check("mt", mt.take_log());

    let net = NetEngine::loopback(2, NetEngineConfig::default(), |eng| {
        let net = TraceCollector::new();
        eng.set_trace_sink(net.clone());
        run_lu(eng, &cfg).expect("net LU");
        net
    });
    check("net", net.take_log());
}

/// The collector's metrics registry aggregates the scheduling machinery's
/// counters: a scheduled simulator run opens leases, claims chunks, and
/// moves bytes over the modeled wire.
#[test]
fn metrics_count_the_scheduling_machinery() {
    let collector = TraceCollector::new();
    let mut eng = SimEngine::with_config(ClusterSpec::skewed(2, 1, 2.0), EngineConfig::default());
    eng.set_trace_sink(collector.clone());
    run_lu(
        &mut eng,
        &LuConfig {
            n: 32,
            r: 8,
            pipelined: true,
            seed: 3,
            nodes: 2,
            threads_per_node: 1,
            dist: Distribution::Scheduled(PolicyKind::Fac),
            update_chunks: 1,
        },
    )
    .expect("LU run");
    let m = collector.metrics();
    assert!(m.get(Counter::LeasesOpened) > 0, "no leases opened");
    assert!(
        m.get(Counter::ChunkClaims) >= m.get(Counter::LeasesOpened),
        "every lease is claimed from at least once"
    );
    assert!(m.get(Counter::WireBytesSent) > 0, "no modeled wire traffic");
    assert_eq!(
        m.get(Counter::FramesSent),
        m.get(Counter::FramesRecv),
        "the simulator delivers every frame it sends"
    );
}

dps_token! { pub struct Batch { pub n: u32 } }
dps_token! { pub struct Piece { pub last: bool } }
dps_token! { pub struct Count { pub n: u32 } }

struct FanOut;
impl SplitOperation for FanOut {
    type Thread = ();
    type In = Batch;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, b: Batch) {
        for i in 0..b.n {
            ctx.post(Piece { last: i + 1 == b.n });
        }
    }
}

/// Posts in `consume` — for every piece but the last — and nothing in
/// `finalize`: by the time its wave completes no post is pending to carry
/// the output wave's total, so the total travels as a wave-close message.
/// The charge keeps the simulator's consumes apart, so each post has landed
/// before the next consume starts (on OS threads it is enqueued at once).
struct AllButLast;
impl StreamOperation for AllButLast {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        if !p.last {
            ctx.post(p);
        }
        ctx.charge(SimSpan::from_millis(1));
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Piece>) {}
}

#[derive(Default)]
struct CountPieces(u32);
impl MergeOperation for CountPieces {
    type Thread = ();
    type In = Piece;
    type Out = Count;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Count>, _p: Piece) {
        self.0 += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Count>) {
        ctx.mark_chunk(self.0 as u64);
        ctx.post(Count { n: self.0 });
    }
}

/// Split, stream and merge on one thread, so every engine sees the same
/// queue order: the merge consumes its `n - 1` pieces, then the close.
fn count_through_a_closed_wave<E: Engine>(eng: &mut E, n: u32) -> u32 {
    let app = eng.app("closed");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let mut b = GraphBuilder::new("closed");
    let split = b.split(&main, || ToThread(0), || FanOut);
    let stream = b.stream(&main, || ToThread(0), || AllButLast);
    let merge = b.merge(&main, || ToThread(0), CountPieces::default);
    b.add(split >> stream >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n })).unwrap();
    eng.run_to_idle(g, 1).unwrap();
    let out = Engine::take_outputs(eng, g).pop().expect("one output");
    downcast::<Count>(out).unwrap().n
}

fn op_spans(log: &TraceLog) -> usize {
    let starts = |e: &&dps::obs::TraceEvent| matches!(e.kind, EventKind::OpStart { .. });
    log.events.iter().filter(starts).count()
}

/// A finalize is an operation execution whether the wave's last token or
/// its wave-close triggers it: both engines record the same op spans for a
/// wave whose total arrives as a close message.
#[test]
fn a_finalize_triggered_by_a_wave_close_is_an_op_span_on_sim_and_mt() {
    const N: u32 = 4;
    let sim = TraceCollector::new();
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(1));
    eng.set_trace_sink(sim.clone());
    assert_eq!(count_through_a_closed_wave(&mut eng, N), N - 1);
    let sim_spans = op_spans(&sim.take_log());

    let mt = TraceCollector::new();
    let mut eng = MtEngine::new(1);
    eng.set_trace_sink(mt.clone());
    assert_eq!(count_through_a_closed_wave(&mut eng, N), N - 1);
    eng.shutdown();
    let mt_spans = op_spans(&mt.take_log());

    // One split, N stream consumes, N - 1 merge consumes, and the finalize
    // the close triggers (the total riding inline would make it 2N).
    assert_eq!(sim_spans, 2 * N as usize + 1);
    assert_eq!(mt_spans, sim_spans);
}

/// Chunk reports as the feedback sink receives them: `(worker, iters)`.
#[derive(Default)]
struct Reports(Mutex<Vec<(usize, u64)>>);
impl dps::sched::FeedbackSink for Reports {
    fn report_chunk(&self, worker: usize, iters: u64, _secs: f64) {
        self.0.lock().unwrap().push((worker, iters));
    }
}

/// The same driver on either engine, with a sink and a trace attached:
/// what the sink heard, and how many `ChunkExec` / `ChunkReport` events the
/// trace holds.
fn chunk_reports_of_a_closed_wave<E: Engine>(eng: &mut E, n: u32) -> (Vec<(usize, u64)>, usize) {
    let (sink, trace) = (Arc::new(Reports::default()), TraceCollector::new());
    eng.set_feedback_sink(sink.clone());
    eng.set_trace_sink(trace.clone());
    assert_eq!(count_through_a_closed_wave(eng, n), n - 1);
    let chunk = |e: &&dps::obs::TraceEvent| {
        matches!(
            e.kind,
            EventKind::ChunkExec { .. } | EventKind::ChunkReport { .. }
        )
    };
    let events = trace.take_log().events.iter().filter(chunk).count();
    let heard = sink.0.lock().unwrap().clone();
    (heard, events)
}

/// A merge that marks a chunk in `finalize` is reported whichever arrival
/// completes its wave — here the wave-close, after the last data object.
#[test]
fn a_chunk_marked_in_a_close_triggered_finalize_is_reported_on_sim_and_mt() {
    const N: u32 = 4;
    let mut sim = SimEngine::new(ClusterSpec::paper_testbed(1));
    let on_sim = chunk_reports_of_a_closed_wave(&mut sim, N);
    let mut mt = MtEngine::new(1);
    let on_mt = chunk_reports_of_a_closed_wave(&mut mt, N);
    mt.shutdown();
    let one_report = (vec![(0, (N - 1) as u64)], 2);
    assert_eq!(on_sim, one_report, "sim");
    assert_eq!(on_mt, one_report, "mt");
}
