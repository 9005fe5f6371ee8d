//! Exhaustive graph-validation matrix: every structural error class the
//! paper's compile-time template checks plus our whole-graph analysis must
//! reject, and the shapes that must be accepted.

use dps_cluster::ClusterSpec;
use dps_core::prelude::*;
use dps_core::{DpsError, SimEngine};

dps_token! { pub struct A1 { pub v: u32 } }
dps_token! { pub struct B1 { pub v: u32 } }

struct SplitA;
impl SplitOperation for SplitA {
    type Thread = ();
    type In = A1;
    type Out = A1;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), A1>, t: A1) {
        ctx.post(t);
    }
}
struct LeafA;
impl LeafOperation for LeafA {
    type Thread = ();
    type In = A1;
    type Out = A1;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), A1>, t: A1) {
        ctx.post(t);
    }
}
struct LeafAB;
impl LeafOperation for LeafAB {
    type Thread = ();
    type In = A1;
    type Out = B1;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), B1>, t: A1) {
        ctx.post(B1 { v: t.v });
    }
}
#[derive(Default)]
struct MergeA;
impl MergeOperation for MergeA {
    type Thread = ();
    type In = A1;
    type Out = A1;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), A1>, _t: A1) {}
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), A1>) {
        ctx.post(A1 { v: 0 });
    }
}
#[derive(Default)]
struct StreamA;
impl StreamOperation for StreamA {
    type Thread = ();
    type In = A1;
    type Out = A1;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), A1>, t: A1) {
        ctx.post(t);
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), A1>) {}
}

fn eng() -> (SimEngine, ThreadCollection<()>) {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(1));
    let app = eng.app("v");
    let tc: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    (eng, tc)
}

#[test]
fn accepted_split_stream_merge_chain() {
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("ok");
    let s = b.split(&tc, || ToThread(0), || SplitA);
    let st = b.stream(&tc, || ToThread(0), StreamA::default);
    let m = b.merge(&tc, || ToThread(0), MergeA::default);
    b.add(s >> st >> m);
    assert!(e.build_graph(b).is_ok());
}

#[test]
fn accepted_deep_nesting() {
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("deep");
    let s1 = b.split(&tc, || ToThread(0), || SplitA);
    let s2 = b.split(&tc, || ToThread(0), || SplitA);
    let s3 = b.split(&tc, || ToThread(0), || SplitA);
    let m3 = b.merge(&tc, || ToThread(0), MergeA::default);
    let m2 = b.merge(&tc, || ToThread(0), MergeA::default);
    let m1 = b.merge(&tc, || ToThread(0), MergeA::default);
    b.add(s1 >> s2 >> s3 >> m3 >> m2 >> m1);
    assert!(e.build_graph(b).is_ok());
}

#[test]
fn rejected_two_waves_one_merge_source() {
    // Two splits feeding the same merge: the merge would pop frames from
    // different openers depending on path — inconsistent nesting.
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("bad");
    let s1 = b.split(&tc, || ToThread(0), || SplitA);
    let s2 = b.split(&tc, || ToThread(0), || SplitA);
    let l1 = b.leaf(&tc, || ToThread(0), || LeafA);
    let m2 = b.merge(&tc, || ToThread(0), MergeA::default);
    let m1 = b.merge(&tc, || ToThread(0), MergeA::default);
    // s1 >> s2 >> m2 >> m1 plus a shortcut s1 >> l1 >> m2: l1 arrives at m2
    // at depth 1, s2's outputs arrive at depth 2.
    b += s1 >> s2 >> m2 >> m1;
    b += s1 >> l1 >> m2;
    let err = e.build_graph(b).unwrap_err();
    assert!(matches!(err, DpsError::InvalidGraph { .. }), "{err}");
}

#[test]
fn rejected_wave_split_across_two_merges() {
    // One split whose tokens may end at two different merges (via typed
    // branching) — a wave must converge on a single merge.
    dps_token! { pub struct C1 { pub v: u32 } }
    struct SplitAC;
    impl SplitOperation for SplitAC {
        type Thread = ();
        type In = A1;
        type Out = A1;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), A1>, t: A1) {
            ctx.post(t);
        }
    }
    struct LeafC;
    impl LeafOperation for LeafC {
        type Thread = ();
        type In = C1;
        type Out = C1;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), C1>, t: C1) {
            ctx.post(t);
        }
    }
    #[derive(Default)]
    struct MergeC;
    impl MergeOperation for MergeC {
        type Thread = ();
        type In = C1;
        type Out = C1;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), C1>, _t: C1) {}
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), C1>) {
            ctx.post(C1 { v: 0 });
        }
    }
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("forked-wave");
    let s = b.split(&tc, || ToThread(0), || SplitAC);
    b.declare_output::<C1, _, _>(s);
    let la = b.leaf(&tc, || ToThread(0), || LeafA);
    let ma = b.merge(&tc, || ToThread(0), MergeA::default);
    let lc = b.leaf(&tc, || ToThread(0), || LeafC);
    let mc = b.merge(&tc, || ToThread(0), MergeC::default);
    b += s >> la >> ma;
    b.connect_alt(s, lc);
    b += lc >> mc;
    let err = e.build_graph(b).unwrap_err();
    assert!(
        err.to_string().contains("single merge"),
        "expected wave-convergence error, got: {err}"
    );
}

#[test]
fn rejected_cycle() {
    // A cycle through raw alt-edges (flow graphs are acyclic by definition).
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("cycle");
    let l1 = b.leaf(&tc, || ToThread(0), || LeafA);
    let l2 = b.leaf(&tc, || ToThread(0), || LeafA);
    b.add(l1 >> l2);
    b.connect_alt(l2, l1);
    let err = e.build_graph(b).unwrap_err();
    assert!(matches!(err, DpsError::InvalidGraph { .. }), "{err}");
}

#[test]
fn rejected_type_break_in_chain() {
    // LeafAB outputs B1; MergeA expects A1. The typed builder catches this
    // at compile time with `>>`; connect_alt defers to assembly.
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("typebreak");
    let s = b.split(&tc, || ToThread(0), || SplitA);
    let l = b.leaf(&tc, || ToThread(0), || LeafAB);
    let m = b.merge(&tc, || ToThread(0), MergeA::default);
    b.add(s >> l);
    b.connect_alt(l, m);
    let err = e.build_graph(b).unwrap_err();
    assert!(matches!(err, DpsError::TypeMismatch { .. }), "{err}");
}

#[test]
fn run_rejects_wrong_injection_type() {
    let (mut e, tc) = eng();
    let mut b = GraphBuilder::new("inj");
    let s = b.split(&tc, || ToThread(0), || SplitA);
    let m = b.merge(&tc, || ToThread(0), MergeA::default);
    b.add(s >> m);
    let g = e.build_graph(b).unwrap();
    e.submit(g, Box::new(B1 { v: 1 })).unwrap();
    let err = e.run_until_idle().unwrap_err();
    assert!(matches!(err, DpsError::OperationContract { .. }), "{err}");
}
