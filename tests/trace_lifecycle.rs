//! The life of a token, an operation and a wave is recorded by the kernel,
//! once, for every engine: the same graph traced on the simulator, on OS
//! threads and on the loopback network engine records the same lifecycle
//! events, every operation's span lies inside its wave's, and no two DPS
//! threads share a track.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use dps::cluster::ClusterSpec;
use dps::core::dps_token;
use dps::core::prelude::*;
use dps::mt::MtEngine;
use dps::netengine::NetEngine;
use dps::obs::{wave_summaries, EventKind, TraceCollector, TraceLog};

dps_token! { pub struct Batch { pub n: u32 } }
dps_token! { pub struct Piece { pub i: u32 } }
dps_token! { pub struct Count { pub n: u32 } }

const PIECES: u32 = 6;

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Batch;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, b: Batch) {
        (0..b.n).for_each(|i| ctx.post(Piece { i }));
    }
}

/// One iteration of a scheduled loop per piece.
struct Work;
impl LeafOperation for Work {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        ctx.mark_chunk(1);
        ctx.charge(SimSpan::from_millis(1));
        ctx.post(p);
    }
}

/// Posts every piece it consumes but the last, and nothing in `finalize`:
/// when its wave completes no post is pending, so the total leaves as a
/// close. The charge keeps the simulator's consumes apart, so each post has
/// left before the next consume starts.
#[derive(Default)]
struct AllButLast(u32);
impl StreamOperation for AllButLast {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        self.0 += 1;
        if self.0 < PIECES {
            ctx.post(p);
        }
        ctx.charge(SimSpan::from_millis(1));
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Piece>) {}
}

#[derive(Default)]
struct Tally(u32);
impl MergeOperation for Tally {
    type Thread = ();
    type In = Piece;
    type Out = Count;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Count>, _p: Piece) {
        self.0 += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Count>) {
        ctx.post(Count { n: self.0 });
    }
}

/// Split → leaf → stream → merge, traced: the split, stream and merge on
/// node0, the leaves on `node0 node1` — two collections on node0.
fn traced_run<E: Engine>(eng: &mut E) -> Arc<TraceCollector> {
    let sink = TraceCollector::new();
    eng.set_trace_sink(sink.clone());
    let app = eng.app("lifecycle");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1")
        .unwrap();
    let mut b = GraphBuilder::new("lifecycle");
    let split = b.split(&main, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, || Work);
    let stream = b.stream(&main, || ToThread(0), AllButLast::default);
    let merge = b.merge(&main, || ToThread(0), Tally::default);
    b.add(split >> leaf >> stream >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n: PIECES })).unwrap();
    eng.run_to_idle(g, 1).unwrap();
    let out = Engine::take_outputs(eng, g).pop().expect("one output");
    assert_eq!(downcast::<Count>(out).unwrap().n, PIECES - 1);
    sink
}

/// The seven lifecycle events, counted by kind.
fn lifecycle_counts(log: &TraceLog) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for e in &log.events {
        let kind = match e.kind {
            EventKind::OpStart { .. } => "OpStart",
            EventKind::OpEnd { .. } => "OpEnd",
            EventKind::WaveStart { .. } => "WaveStart",
            EventKind::WaveEnd { .. } => "WaveEnd",
            EventKind::ChunkExec { .. } => "ChunkExec",
            EventKind::TokenEnqueue { .. } => "TokenEnqueue",
            EventKind::TokenDeliver { .. } => "TokenDeliver",
            _ => continue,
        };
        *counts.entry(kind).or_default() += 1;
    }
    counts
}

/// One op span: its track, wave, start and end.
type Span = ((u16, u16), u32, u64, u64);

/// Every op span, pairing each `OpStart` with the next `OpEnd` of the same
/// operation on its track.
fn op_spans(log: &TraceLog) -> Vec<Span> {
    let mut open = BTreeMap::new();
    let mut spans = Vec::new();
    for e in &log.events {
        let track = (e.node, e.thread);
        match e.kind {
            EventKind::OpStart { op, wave } => {
                assert!(open.insert((track, op), (wave, e.at)).is_none());
            }
            EventKind::OpEnd { op, .. } => {
                let (wave, start) = open
                    .remove(&(track, op))
                    .expect("an OpEnd closes an OpStart");
                spans.push((track, wave, start, e.at));
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans {open:?}");
    spans
}

/// No track has two op spans open at once: each is one DPS thread's.
fn assert_one_thread_per_track(engine: &str, spans: &[Span]) {
    let mut by_track = spans.to_vec();
    by_track.sort_by_key(|&(track, _, start, _)| (track, start));
    for pair in by_track.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert!(
            a.0 != b.0 || a.3 <= b.2,
            "{engine}: two ops open on track {:?}",
            a.0
        );
    }
}

/// Each op span lies inside its wave's: it starts no earlier than the
/// wave's `WaveStart` and ends no later than its `WaveEnd`, where the log
/// has them (a stream's output wave has no `WaveStart`).
fn assert_spans_nest(engine: &str, log: &TraceLog, spans: &[Span]) {
    let (mut starts, mut ends) = (BTreeMap::new(), BTreeMap::new());
    for e in &log.events {
        match e.kind {
            EventKind::WaveStart { wave, .. } => {
                starts.insert(wave, e.at);
            }
            EventKind::WaveEnd { wave, .. } => {
                ends.insert(wave, e.at);
            }
            _ => {}
        }
    }
    for &(_, wave, start, end) in spans {
        if let Some(&opened) = starts.get(&wave) {
            assert!(
                opened <= start,
                "{engine}: op of wave {wave} starts before it"
            );
        }
        if let Some(&closed) = ends.get(&wave) {
            assert!(end <= closed, "{engine}: op of wave {wave} ends after it");
        }
    }
}

#[test]
fn every_engine_records_the_same_lifecycle() {
    let mut sim = SimEngine::new(ClusterSpec::paper_testbed(2));
    let on_sim = traced_run(&mut sim).take_log();

    let mut mt = MtEngine::new(2);
    let mt_sink = traced_run(&mut mt);
    mt.shutdown();
    let on_mt = mt_sink.take_log();

    let mut net = NetEngine::loopback(2);
    let net_sink = traced_run(&mut net);
    net.shutdown();
    let on_net = net_sink.take_log();

    // One split, a leaf and a stream consume per piece, a merge consume per
    // piece but one, and the finalize the close triggers; one wave opened by
    // the split, closed with the stream's output wave; a token for the
    // injected batch and for every post.
    let n = PIECES as usize;
    let want = BTreeMap::from([
        ("ChunkExec", n),
        ("OpEnd", 3 * n + 1),
        ("OpStart", 3 * n + 1),
        ("TokenDeliver", 3 * n),
        ("TokenEnqueue", 3 * n),
        ("WaveEnd", 2),
        ("WaveStart", 1),
    ]);
    for (engine, log) in [("sim", &on_sim), ("mt", &on_mt), ("net", &on_net)] {
        assert_eq!(lifecycle_counts(log), want, "{engine}");
        let spans = op_spans(log);
        assert_spans_nest(engine, log, &spans);
        // The simulator keys its tracks by thread index within the
        // collection, for now: its recorded schedules are pinned.
        if engine != "sim" {
            assert_one_thread_per_track(engine, &spans);
        }
    }

    // On OS threads every token's wait in its queue is measured.
    let delivered = want["TokenDeliver"] as u64;
    let waits = wave_summaries(&on_mt).into_iter().map(|w| w.claim_latency);
    let (count, p50) = waits.fold((0, 0), |(c, p), h| (c + h.count, p.max(h.quantile(0.5))));
    assert_eq!(count, delivered);
    assert!(p50 > 0);
}

/// A leaf that holds its thread for a while.
struct Slow;
impl LeafOperation for Slow {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        std::thread::sleep(Duration::from_micros(200));
        ctx.post(p);
    }
}

/// Two collections each have a thread 0 on node0: they record on two
/// tracks, so the merge's spans never interleave with the leaf's there.
#[test]
fn two_collections_on_one_node_record_on_two_tracks() {
    let sink = TraceCollector::new();
    let mut eng = MtEngine::new(2);
    eng.set_trace_sink(sink.clone());
    let app = eng.app("tracks");
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0").unwrap();
    let workers: ThreadCollection<()> = eng.thread_collection(app, "w", "node0 node1").unwrap();
    let mut b = GraphBuilder::new("tracks");
    let split = b.split(&master, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, || Slow);
    let merge = b.merge(&master, || ToThread(0), Tally::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n: 200 }));
    eng.wait_for_outputs(g, 1).unwrap();
    eng.shutdown();
    let log = sink.take_log();
    let spans = op_spans(&log);
    assert_eq!(spans.len(), 1 + 200 + 200);
    assert_one_thread_per_track("mt", &spans);
    let tracks: BTreeSet<(u16, u16)> = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::OpStart { .. }))
        .map(|e| (e.node, e.thread))
        .collect();
    assert_eq!(tracks, [(0, 0), (0, 1), (1, 0)].into());
}
