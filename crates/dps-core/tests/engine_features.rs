//! Feature tests of the simulation engine: stream operations, nested
//! split/merge constructs, multi-path graphs (paper Fig. 3), parallel
//! service calls (Fig. 10), graph validation, flow control, serialization
//! enforcement, and determinism.

use dps_cluster::ClusterSpec;
use dps_core::prelude::*;
use dps_core::{DpsError, OpKind};
use dps_des::SimSpan;

dps_token! { pub struct Start { pub n: u32 } }
dps_token! { pub struct Part { pub i: u32, pub v: u32 } }
dps_token! { pub struct PairReq { pub i: u32 } }
dps_token! { pub struct Result_ { pub total: u32 } }
dps_token! { pub struct OddTok { pub i: u32 } }
dps_token! { pub struct EvenTok { pub i: u32 } }

fn engine(nodes: usize) -> SimEngine {
    SimEngine::new(ClusterSpec::paper_testbed(nodes))
}

fn workers_mapping(nodes: usize) -> String {
    dps_cluster::default_mapping(nodes, 1)
}

// --- split / leaf / merge / stream ops used across tests -------------------

struct FanN;
impl SplitOperation for FanN {
    type Thread = ();
    type In = Start;
    type Out = Part;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, s: Start) {
        for i in 0..s.n {
            ctx.post(Part { i, v: i });
        }
    }
}

struct Inc;
impl LeafOperation for Inc {
    type Thread = ();
    type In = Part;
    type Out = Part;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, p: Part) {
        ctx.post(Part { i: p.i, v: p.v + 1 });
    }
}

#[derive(Default)]
struct SumParts {
    sum: u32,
}
impl MergeOperation for SumParts {
    type Thread = ();
    type In = Part;
    type Out = Result_;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Result_>, p: Part) {
        self.sum += p.v;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Result_>) {
        ctx.post(Result_ { total: self.sum });
    }
}

// --- stream operation -------------------------------------------------------

/// Forwards pairs as soon as both halves arrived — the partial-merge
/// behaviour of the paper's video example (Fig. 4).
#[derive(Default)]
struct PairStream {
    pending: std::collections::BTreeMap<u32, u32>,
}
impl StreamOperation for PairStream {
    type Thread = ();
    type In = Part;
    type Out = Part;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Part>, p: Part) {
        let pair = p.i / 2;
        if let Some(prev) = self.pending.remove(&pair) {
            ctx.post(Part {
                i: pair,
                v: prev + p.v,
            });
        } else {
            self.pending.insert(pair, p.v);
        }
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Part>) {
        // Odd leftover (when n is odd) flushes at completion.
        for (&pair, &v) in &self.pending {
            ctx.post(Part { i: pair, v });
        }
        self.pending.clear();
    }
}

#[test]
fn stream_pipelines_partial_merges() {
    let mut eng = engine(4);
    let app = eng.app("stream-demo");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let map = workers_mapping(4);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "w", &map).unwrap();

    let mut b = GraphBuilder::new("pairs");
    let split = b.split(&main, || ToThread(0), || FanN);
    let work = b.leaf(&workers, RoundRobin::new, || Inc);
    let stream = b.stream(&main, || ToThread(0), PairStream::default);
    let work2 = b.leaf(&workers, RoundRobin::new, || Inc);
    let merge = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(split >> work >> stream >> work2 >> merge);
    let g = eng.build_graph(b).unwrap();

    eng.submit(g, Box::new(Start { n: 8 })).unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    assert_eq!(out.len(), 1);
    let r = downcast::<Result_>(out.into_iter().next().unwrap()).unwrap();
    // v values 0..8 → +1 each (9..=8?) : each part v=i+1; pairs summed, then
    // +1 per pair by work2: sum = (0+1+..+7) + 8 (first inc) + 4 (second inc).
    assert_eq!(r.total, 28 + 8 + 4);
}

#[test]
fn stream_with_single_output_carries_total() {
    // A stream posting only from finalize behaves like merge+split.
    #[derive(Default)]
    struct HoldAll {
        seen: u32,
    }
    impl StreamOperation for HoldAll {
        type Thread = ();
        type In = Part;
        type Out = Part;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Part>, p: Part) {
            self.seen += p.v;
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Part>) {
            ctx.post(Part { i: 0, v: self.seen });
        }
    }

    let mut eng = engine(2);
    let app = eng.app("a");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("hold");
    let split = b.split(&main, || ToThread(0), || FanN);
    let stream = b.stream(&main, || ToThread(0), HoldAll::default);
    let merge = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(split >> stream >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 5 })).unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    let r = downcast::<Result_>(out.into_iter().next().unwrap()).unwrap();
    assert_eq!(r.total, 1 + 2 + 3 + 4);
}

// --- nested split/merge ------------------------------------------------------

struct OuterSplit;
impl SplitOperation for OuterSplit {
    type Thread = ();
    type In = Start;
    type Out = Start;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Start>, s: Start) {
        for _ in 0..s.n {
            ctx.post(Start { n: 4 });
        }
    }
}

#[derive(Default)]
struct OuterMerge {
    sum: u32,
    count: u32,
}
impl MergeOperation for OuterMerge {
    type Thread = ();
    type In = Result_;
    type Out = Result_;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Result_>, r: Result_) {
        self.sum += r.total;
        self.count += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Result_>) {
        ctx.post(Result_ { total: self.sum });
    }
}

#[test]
fn nested_split_merge_constructs_compose() {
    // Paper §2: "a split-merge construct may contain another split-merge
    // construct".
    let mut eng = engine(4);
    let app = eng.app("nested");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let map = workers_mapping(4);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "w", &map).unwrap();

    let mut b = GraphBuilder::new("nested");
    let outer_s = b.split(&main, || ToThread(0), || OuterSplit);
    let inner_s = b.split(&workers, RoundRobin::new, || FanN);
    let leaf = b.leaf(&workers, RoundRobin::new, || Inc);
    let inner_m = b.merge(&workers, RoundRobin::new, SumParts::default);
    let outer_m = b.merge(&main, || ToThread(0), OuterMerge::default);
    b.add(outer_s >> inner_s >> leaf >> inner_m >> outer_m);
    let g = eng.build_graph(b).unwrap();

    eng.submit(g, Box::new(Start { n: 3 })).unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    assert_eq!(out.len(), 1);
    let r = downcast::<Result_>(out.into_iter().next().unwrap()).unwrap();
    // Each outer task: inner split n=4 → parts v=0..3 +1 each → sum=10.
    assert_eq!(r.total, 3 * 10);
}

// --- multi-path graphs (Fig. 3) ---------------------------------------------

struct ParitySplit;
impl SplitOperation for ParitySplit {
    type Thread = ();
    type In = Start;
    type Out = OddTok;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), OddTok>, s: Start) {
        for i in 0..s.n {
            if i % 2 == 1 {
                ctx.post(OddTok { i });
            } else {
                ctx.post_other(EvenTok { i });
            }
        }
    }
}

struct OddOp;
impl LeafOperation for OddOp {
    type Thread = ();
    type In = OddTok;
    type Out = Part;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, t: OddTok) {
        ctx.post(Part {
            i: t.i,
            v: 1000 + t.i,
        });
    }
}

struct EvenOp;
impl LeafOperation for EvenOp {
    type Thread = ();
    type In = EvenTok;
    type Out = Part;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, t: EvenTok) {
        ctx.post(Part { i: t.i, v: t.i });
    }
}

#[test]
fn token_type_selects_path() {
    // Paper Fig. 3: "When multiple paths are available to a given output
    // data object, the input data object types of the destinations are used
    // to determine which path to follow."
    let mut eng = engine(2);
    let app = eng.app("paths");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let map = workers_mapping(2);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "w", &map).unwrap();

    let mut b = GraphBuilder::new("two-paths");
    let split = b.split(&main, || ToThread(0), || ParitySplit);
    b.declare_output::<EvenTok, _, _>(split);
    let odd = b.leaf(&workers, RoundRobin::new, || OddOp);
    let even = b.leaf(&workers, RoundRobin::new, || EvenOp);
    let merge = b.merge(&main, || ToThread(0), SumParts::default);
    b += split >> odd >> merge;
    b.connect_alt(split, even);
    b += even >> merge;
    let g = eng.build_graph(b).unwrap();

    eng.submit(g, Box::new(Start { n: 4 })).unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    let r = downcast::<Result_>(out.into_iter().next().unwrap()).unwrap();
    // odd 1,3 → 1001+1003; even 0,2 → 0+2.
    assert_eq!(r.total, (1001 + 1003) + 2);
}

// --- parallel services (Fig. 10) ---------------------------------------------

#[test]
fn graph_call_into_another_application() {
    let mut eng = engine(4);

    // Server application exposing a square-summing service.
    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node1").unwrap();
    let sworkers: ThreadCollection<()> = eng
        .thread_collection(server, "w", "node1 node2 node3")
        .unwrap();
    let mut sb = GraphBuilder::new("service-graph");
    let ss = sb.split(&smain, || ToThread(0), || FanN);
    let sl = sb.leaf(&sworkers, RoundRobin::new, || Inc);
    let sm = sb.merge(&smain, || ToThread(0), SumParts::default);
    sb.add(ss >> sl >> sm);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "sum.service");

    // Client application calling it: the call is "seen by the client
    // application as a simple leaf operation".
    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node0").unwrap();
    let mut cb = GraphBuilder::new("client-graph");
    let cs = cb.split(&cmain, || ToThread(0), || OuterSplit);
    let call = cb.call::<Start, Result_, (), _>("sum.service", &cmain, || ToThread(0));
    let cm = cb.merge(&cmain, || ToThread(0), OuterMerge::default);
    cb.add(cs >> call >> cm);
    let cg = eng.build_graph(cb).unwrap();

    eng.submit(cg, Box::new(Start { n: 3 })).unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(cg);
    assert_eq!(out.len(), 1);
    let r = downcast::<Result_>(out.into_iter().next().unwrap()).unwrap();
    // 3 calls, each summing Inc(0..4) = 10.
    assert_eq!(r.total, 30);
}

#[test]
fn unknown_service_is_reported() {
    let mut eng = engine(1);
    let app = eng.app("c");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("bad-call");
    let s = b.split(&main, || ToThread(0), || OuterSplit);
    let call = b.call::<Start, Result_, (), _>("ghost.service", &main, || ToThread(0));
    let m = b.merge(&main, || ToThread(0), OuterMerge::default);
    b.add(s >> call >> m);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 1 })).unwrap();
    let err = eng.run_until_idle().unwrap_err();
    assert!(matches!(err, DpsError::UnknownService { .. }));
}

// --- validation ---------------------------------------------------------------

#[test]
fn type_mismatch_detected_at_build() {
    // The typed `>>` rejects mismatches at compile time; `connect_alt`
    // defers the check to graph assembly, which must reject an edge whose
    // input type the producer never declared.
    let mut eng = engine(1);
    let app = eng.app("v");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("bad");
    let s = b.split(&main, || ToThread(0), || FanN); // posts Part only
    let o = b.leaf(&main, || ToThread(0), || OddOp); // expects OddTok
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> m);
    b.connect_alt(s, o); // OddTok was never declared as an output of FanN
    b.add(o >> m);
    let err = eng.build_graph(b).unwrap_err();
    assert!(matches!(err, DpsError::TypeMismatch { .. }), "{err}");
}

#[test]
fn merge_without_split_rejected() {
    let mut eng = engine(1);
    let app = eng.app("v");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("unbalanced");
    let l = b.leaf(&main, || ToThread(0), || Inc);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(l >> m);
    let err = eng.build_graph(b).unwrap_err();
    assert!(matches!(err, DpsError::InvalidGraph { .. }));
    assert!(err.to_string().contains("pop"));
}

#[test]
fn unbalanced_exit_rejected() {
    let mut eng = engine(1);
    let app = eng.app("v");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("no-merge");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l = b.leaf(&main, || ToThread(0), || Inc);
    b.add(s >> l);
    let err = eng.build_graph(b).unwrap_err();
    assert!(err.to_string().contains("unbalanced"));
}

#[test]
fn ambiguous_successors_rejected() {
    let mut eng = engine(1);
    let app = eng.app("v");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("ambiguous");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l1 = b.leaf(&main, || ToThread(0), || Inc);
    let l2 = b.leaf(&main, || ToThread(0), || Inc);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b += s >> l1 >> m;
    b += s >> l2 >> m;
    let err = eng.build_graph(b).unwrap_err();
    assert!(err.to_string().contains("ambiguous"));
}

#[test]
fn empty_graph_rejected() {
    let mut eng = engine(1);
    let _ = eng.app("v");
    let b = GraphBuilder::new("empty");
    assert!(eng.build_graph(b).is_err());
}

// --- flow control --------------------------------------------------------------

#[test]
fn flow_window_bounds_tokens_in_flight() {
    // With a window of 2 and a slow merge, the run must still complete, and
    // shrinking the window must not change the result.
    for window in [0u32, 1, 2, 64] {
        let cfg = EngineConfig {
            flow_window: window,
            ..EngineConfig::default()
        };
        let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(2), cfg);
        let app = eng.app("fc");
        let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
        let w: ThreadCollection<()> = eng.thread_collection(app, "w", "node0 node1").unwrap();
        let mut b = GraphBuilder::new("fc");
        let s = b.split(&main, || ToThread(0), || FanN);
        let l = b.leaf(&w, RoundRobin::new, || Inc);
        let m = b.merge(&main, || ToThread(0), SumParts::default);
        b.add(s >> l >> m);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Start { n: 20 })).unwrap();
        eng.run_until_idle().unwrap();
        let out = eng.take_outputs(g);
        let r = downcast::<Result_>(out.into_iter().next().unwrap()).unwrap();
        assert_eq!(r.total, (0..20).sum::<u32>() + 20, "window={window}");
    }
}

#[test]
fn smaller_window_cannot_be_faster() {
    let run = |window: u32| -> u64 {
        let cfg = EngineConfig {
            flow_window: window,
            ..EngineConfig::default()
        };
        let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(4), cfg);
        let app = eng.app("fc");
        let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
        let w: ThreadCollection<()> = eng
            .thread_collection(app, "w", "node0 node1 node2 node3")
            .unwrap();
        let mut b = GraphBuilder::new("fc");
        let s = b.split(&main, || ToThread(0), || FanN);
        let l = b.leaf(&w, RoundRobin::new, || Inc);
        let m = b.merge(&main, || ToThread(0), SumParts::default);
        b.add(s >> l >> m);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Start { n: 64 })).unwrap();
        eng.run_until_idle().unwrap();
        eng.now().as_nanos()
    };
    let t1 = run(1);
    let t8 = run(8);
    let t0 = run(0); // unlimited
    assert!(t1 >= t8, "window 1 ({t1}) should not beat window 8 ({t8})");
    assert!(t8 >= t0, "window 8 ({t8}) should not beat unlimited ({t0})");
}

// --- serialization enforcement ---------------------------------------------------

#[test]
fn enforced_serialization_roundtrips_tokens() {
    let cfg = EngineConfig {
        enforce_serialization: true,
        ..EngineConfig::default()
    };
    let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(3), cfg);
    let app = eng.app("ser");
    eng.register_token::<Start>(app);
    eng.register_token::<Part>(app);
    eng.register_token::<Result_>(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let w: ThreadCollection<()> = eng.thread_collection(app, "w", "node1 node2").unwrap();
    let mut b = GraphBuilder::new("ser");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l = b.leaf(&w, RoundRobin::new, || Inc);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 10 })).unwrap();
    eng.run_until_idle().unwrap();
    let r = downcast::<Result_>(eng.take_outputs(g).into_iter().next().unwrap()).unwrap();
    assert_eq!(r.total, (0..10).sum::<u32>() + 10);
}

#[test]
fn enforced_serialization_accepts_declared_types_without_manual_registration() {
    // Declaring a node registers its token types automatically, so enforced
    // serialization no longer needs explicit register_token calls for types
    // the graph itself mentions.
    let cfg = EngineConfig {
        enforce_serialization: true,
        ..EngineConfig::default()
    };
    let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(2), cfg);
    let app = eng.app("ser");
    // Register nothing by hand: graph declaration does it.
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let w: ThreadCollection<()> = eng.thread_collection(app, "w", "node1").unwrap();
    let mut b = GraphBuilder::new("ser");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l = b.leaf(&w, RoundRobin::new, || Inc);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 2 })).unwrap();
    eng.run_until_idle().unwrap();
    let r = downcast::<Result_>(eng.take_outputs(g).into_iter().next().unwrap()).unwrap();
    // FanN posts v = 0, 1; Inc bumps each → 1 + 2.
    assert_eq!(r.total, 3);
}

// --- determinism -----------------------------------------------------------------

#[test]
fn virtual_time_is_deterministic() {
    let run = || -> (u64, u32) {
        let mut eng = engine(4);
        let app = eng.app("det");
        let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
        let map = workers_mapping(4);
        let w: ThreadCollection<()> = eng.thread_collection(app, "w", &map).unwrap();
        let mut b = GraphBuilder::new("det");
        let s = b.split(&main, || ToThread(0), || FanN);
        let l = b.leaf(&w, LeastLoaded::new, || Inc);
        let m = b.merge(&main, || ToThread(0), SumParts::default);
        b.add(s >> l >> m);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Start { n: 50 })).unwrap();
        eng.run_until_idle().unwrap();
        let r = downcast::<Result_>(eng.take_outputs(g).into_iter().next().unwrap()).unwrap();
        (eng.now().as_nanos(), r.total)
    };
    assert_eq!(run(), run());
}

// --- misc -------------------------------------------------------------------------

#[test]
fn op_kind_is_exposed_on_nodes() {
    let mut eng = engine(1);
    let app = eng.app("k");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("k");
    let s = b.split(&main, || ToThread(0), || FanN);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> m);
    assert_eq!(b.node_count(), 2);
    let _ = OpKind::Split; // public API sanity
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 3 })).unwrap();
    eng.run_until_idle().unwrap();
}

#[test]
fn charge_advances_virtual_time() {
    struct SlowLeaf;
    impl LeafOperation for SlowLeaf {
        type Thread = ();
        type In = Part;
        type Out = Part;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, p: Part) {
            ctx.charge(SimSpan::from_millis(10));
            ctx.post(p);
        }
    }
    let mut eng = engine(1);
    let app = eng.app("t");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("t");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l = b.leaf(&main, || ToThread(0), || SlowLeaf);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 4 })).unwrap();
    eng.run_until_idle().unwrap();
    // 4 sequential 10 ms leaves on one single-threaded collection ≥ 40 ms.
    assert!(eng.now().as_nanos() >= 40_000_000, "now = {}", eng.now());
}

#[test]
fn thread_data_persists_across_executions() {
    // Thread-local state is the basis of distributed data structures.
    struct CountingLeaf;
    impl LeafOperation for CountingLeaf {
        type Thread = u32;
        type In = Part;
        type Out = Part;
        fn execute(&mut self, ctx: &mut OpCtx<'_, u32, Part>, p: Part) {
            *ctx.thread() += 1;
            ctx.post(p);
        }
    }
    let mut eng = engine(2);
    let app = eng.app("td");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let w: ThreadCollection<u32> = eng.thread_collection(app, "w", "node0 node1").unwrap();
    /// Reads the counter back: thread `i` reports it scaled by `100^i`,
    /// so the merged sum holds every thread's count.
    struct ReadCount;
    impl LeafOperation for ReadCount {
        type Thread = u32;
        type In = Part;
        type Out = Part;
        fn execute(&mut self, ctx: &mut OpCtx<'_, u32, Part>, p: Part) {
            let v = *ctx.thread() * 100u32.pow(p.i);
            ctx.post(Part { i: p.i, v });
        }
    }
    let mut b = GraphBuilder::new("td");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l = b.leaf(&w, RoundRobin::new, || CountingLeaf);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    let mut b = GraphBuilder::new("td-read");
    let s = b.split(&main, || ToThread(0), || FanN);
    let l = b.leaf(&w, || ByKey::new(|p: &Part| p.i as usize), || ReadCount);
    let m = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(s >> l >> m);
    let read = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Start { n: 10 })).unwrap();
    eng.run_until_idle().unwrap();
    eng.submit(read, Box::new(Start { n: 2 })).unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(read).pop().unwrap();
    let total = downcast::<Result_>(out).unwrap().total;
    let (c0, c1) = (total % 100, total / 100);
    assert_eq!(c0 + c1, 10);
    assert_eq!(c0, 5, "round robin splits evenly");
}

// --- a wave-close meeting a dead pin (kernel rule 6) ------------------------

/// Passes token 0 on, swallows the rest and posts nothing at finalize, so
/// the total of its output wave travels apart from the data, as a
/// wave-close. Consume `i` charges `charge_us[i]`; the virtual start of the
/// first consume is published for the test to time a failure against.
struct Sparse {
    charge_us: Vec<u64>,
    first_start: std::sync::Arc<std::sync::atomic::AtomicU64>,
}
impl StreamOperation for Sparse {
    type Thread = ();
    type In = Part;
    type Out = Part;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Part>, p: Part) {
        if p.i == 0 {
            let start = ctx.start_nanos();
            self.first_start
                .store(start, std::sync::atomic::Ordering::Relaxed);
            ctx.post(Part { i: 0, v: 7 });
        }
        ctx.charge(SimSpan::from_micros(self.charge_us[p.i as usize]));
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Part>) {}
}

/// split → `Sparse` stream (node0) → merge on `node1 node2`, least-loaded:
/// the stream's one post pins the merge wave on node1, which is killed
/// `fail_after_us` after the stream's first consume started; the wave's
/// close is issued when its last consume runs.
fn close_meets_dead_pin(charge_us: &[u64], fail_after_us: u64) -> (Result<()>, SimEngine, usize) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut eng = engine(3);
    let app = eng.app("dead-pin");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let sinks: ThreadCollection<()> = eng.thread_collection(app, "s", "node1 node2").unwrap();
    let first_start = std::sync::Arc::new(AtomicU64::new(u64::MAX));
    let (charges, seen) = (charge_us.to_vec(), first_start.clone());
    let mut b = GraphBuilder::new("dead-pin");
    let split = b.split(&main, || ToThread(0), || FanN);
    let stream = b.stream(
        &main,
        || ToThread(0),
        move || Sparse {
            charge_us: charges.clone(),
            first_start: seen.clone(),
        },
    );
    let merge = b.merge(&sinks, LeastLoaded::new, SumParts::default);
    b.add(split >> stream >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(
        g,
        Box::new(Start {
            n: charge_us.len() as u32,
        }),
    )
    .unwrap();
    while first_start.load(Ordering::Relaxed) == u64::MAX {
        assert!(eng.step_once().unwrap(), "the stream never consumed");
    }
    let t0 = first_start.load(Ordering::Relaxed);
    let at = SimTime(t0 + fail_after_us * 1_000);
    eng.schedule_fail_node(at, dps_net::NodeId(1));
    let outcome = eng.run_until_idle();
    let outputs = eng.take_outputs(g).len();
    (outcome, eng, outputs)
}

/// The first token of the merge wave is in flight to node1 when node1 dies,
/// and the wave's close is issued before that token lands and is re-routed.
/// Nothing was consumed on node1, so the close must wait for the wave's new
/// home instead of being queued on the dead thread (where it used to strand
/// the run as `IncompleteWaves`).
#[test]
fn wave_close_follows_a_fresh_wave_off_a_dead_node() {
    let (outcome, eng, outputs) = close_meets_dead_pin(&[50, 0], 40);
    outcome.expect("a fresh wave moves, and its close with it");
    assert_eq!(outputs, 1);
    assert_eq!(eng.requeued(), 1, "the in-flight token was re-routed");
    assert_eq!(eng.queued_deliveries(), 0);
}

/// The wave's close has landed on node1 and been counted there while the
/// wave's one token is still on its way (the first transfer to a node pays
/// the connection set-up), then node1 dies. Nothing was consumed, so the wave
/// moves — and the total node1 had heard moves with it.
#[test]
fn a_wave_that_only_heard_its_close_moves_off_a_dead_node() {
    let (outcome, eng, outputs) = close_meets_dead_pin(&[0, 0], 1_000);
    outcome.expect("a wave nothing was consumed of moves, with its total");
    assert_eq!(outputs, 1);
    assert_eq!(eng.requeued(), 1, "the token alone: the close had run");
    assert_eq!(eng.queued_deliveries(), 0);
}

/// Same shape, but node1 dies after it consumed the wave's first token and
/// before the close: the wave's partial state is gone, which is `NodeDown`
/// naming the node and the merge — as a late *token* of that wave gets.
#[test]
fn wave_close_for_partial_state_on_a_dead_node_is_node_down() {
    let (outcome, _, outputs) = close_meets_dead_pin(&[50, 2_000_000, 0], 1_000_000);
    match outcome {
        Err(DpsError::NodeDown { node, target }) => {
            assert_eq!(node, "node1");
            assert!(target.contains("SumParts"), "target = {target}");
        }
        other => panic!("expected NodeDown, got {other:?}"),
    }
    assert_eq!(outputs, 0);
}

// --- the one listing that walks the kernel's tables ---------------------------

/// Posts `n` parts that each hold their leaf for 1 ms — a lone part for 10 s.
struct FanHold;
impl SplitOperation for FanHold {
    type Thread = ();
    type In = Start;
    type Out = Part;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, s: Start) {
        let v = if s.n == 1 { 10_000 } else { 1 };
        for i in 0..s.n {
            ctx.post(Part { i, v });
        }
    }
}

struct HoldMillis;
impl LeafOperation for HoldMillis {
    type Thread = ();
    type In = Part;
    type Out = Part;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Part>, p: Part) {
        ctx.charge(SimSpan::from_millis(u64::from(p.v)));
        ctx.post(p);
    }
}

route!(pub ByParity for Part = |p, info| p.i as usize % info.thread_count);

/// Three waves under a window of 2, even parts to node1, odd ones to node2.
/// The lone part of the first wave occupies node1 for 10 s; behind it queue
/// part 0 of a 2-wave and parts 0 and 2 of a 4-wave, whose odd parts meanwhile
/// reach the merge. Then node1's kernel dies *without* `fail_node`'s re-queue,
/// so what it had queued is stranded: two waves short of tokens and one flow
/// out of credits. Returns what `run_until_idle` lists.
fn strand_two_waves_and_a_flow(sizes: [u32; 2]) -> Vec<String> {
    let cfg = EngineConfig {
        flow_window: 2,
        ..EngineConfig::default()
    };
    let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(3), cfg);
    let app = eng.app("stuck");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0*3").unwrap();
    let work: ThreadCollection<()> = eng.thread_collection(app, "w", "node1 node2").unwrap();
    let mut b = GraphBuilder::new("stuck");
    let split = b.split(&main, RoundRobin::new, || FanHold);
    let leaf = b.leaf(&work, || ByParity, || HoldMillis);
    let merge = b.merge(&main, || ToThread(0), SumParts::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    // A leaf-only graph: its one token is the clock tick the kill waits for.
    let mut tick = GraphBuilder::new("tick");
    let _ = tick.leaf(&main, || ToThread(0), || Inc);
    let tick = eng.build_graph(tick).unwrap();

    eng.submit(g, Box::new(Start { n: 1 })).unwrap();
    for n in sizes {
        eng.inject_at(SimTime(10_000_000), g, Start { n }).unwrap();
    }
    let kill_at = SimTime(1_000_000_000);
    eng.inject_at(kill_at, tick, Part { i: 0, v: 0 }).unwrap();
    while eng.now() < kill_at {
        assert!(eng.step_once().unwrap(), "the tick never came");
    }
    assert_eq!(
        eng.queued_deliveries(),
        3,
        "the three parts behind the lone one"
    );
    eng.cluster_mut().fail_node(dps_net::NodeId(1));
    match eng.run_until_idle() {
        Err(DpsError::IncompleteWaves { waves }) => waves,
        other => panic!("expected IncompleteWaves, got {other:?}"),
    }
}

/// `run_until_idle`'s listing of stuck waves and blocked flows walks two hash
/// tables, and sorts what it collects: the message does not depend on the
/// order the tables yield their entries in. Injecting the two waves the other
/// way round swaps their ids, hence their places in both tables.
#[test]
fn the_incomplete_waves_listing_does_not_depend_on_table_order() {
    let (listed, swapped) = (
        strand_two_waves_and_a_flow([2, 4]),
        strand_two_waves_and_a_flow([4, 2]),
    );
    for list in [&listed, &swapped] {
        assert!(list.is_sorted(), "{list:?}");
        assert_eq!(list.len(), 3, "{list:?}");
        assert!(list[0].contains("flow from node") && list[0].ends_with(": 1 posts undelivered"));
        assert!(list[1].ends_with("received 1, expected None"), "{list:?}");
        assert!(
            list[2].ends_with("received 1, expected Some(2)"),
            "{list:?}"
        );
    }
    assert_eq!(listed[1..], swapped[1..]);
    assert_ne!(listed[0], swapped[0], "the blocked flow names its wave id");
}
