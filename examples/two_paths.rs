//! Two alternative paths selected by token type — the paper's Fig. 3.
//!
//! "When multiple paths are available to a given output data object, the
//! input data object types of the destinations are used to determine which
//! path to follow. […] Programmers may create at runtime different types
//! of data objects that will be routed to different operations."
//!
//! `MySplit` posts `SmallJob`s for small work items and `LargeJob`s for
//! large ones; `MyOpOne`/`MyOpTwo` process them differently and a single
//! merge collects both kinds of result.
//!
//! Run with: `cargo run --release --example two_paths`

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, SimEngine};

dps_token! {
    pub struct Request { pub items: u32 }
}
dps_token! {
    pub struct SmallJob { pub id: u32 }
}
dps_token! {
    pub struct LargeJob { pub id: u32 }
}
dps_token! {
    pub struct JobResult { pub id: u32, pub weight: u64 }
}
dps_token! {
    pub struct Summary { pub small: u32, pub large: u32, pub weight: u64 }
}

struct MySplit;
impl SplitOperation for MySplit {
    type Thread = ();
    type In = Request;
    type Out = SmallJob;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), SmallJob>, r: Request) {
        for id in 0..r.items {
            if id % 3 == 0 {
                // Every third item is heavyweight: a different token type,
                // so the runtime routes it down the other path.
                ctx.post_other(LargeJob { id });
            } else {
                ctx.post(SmallJob { id });
            }
        }
    }
}

struct MyOpOne;
impl LeafOperation for MyOpOne {
    type Thread = ();
    type In = SmallJob;
    type Out = JobResult;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), JobResult>, j: SmallJob) {
        ctx.post(JobResult {
            id: j.id,
            weight: 1,
        });
    }
}

struct MyOpTwo;
impl LeafOperation for MyOpTwo {
    type Thread = ();
    type In = LargeJob;
    type Out = JobResult;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), JobResult>, j: LargeJob) {
        ctx.post(JobResult {
            id: j.id,
            weight: 100,
        });
    }
}

#[derive(Default)]
struct MyMerge {
    small: u32,
    large: u32,
    weight: u64,
}
impl MergeOperation for MyMerge {
    type Thread = ();
    type In = JobResult;
    type Out = Summary;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Summary>, r: JobResult) {
        if r.weight == 1 {
            self.small += 1;
        } else {
            self.large += 1;
        }
        self.weight += r.weight;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Summary>) {
        ctx.post(Summary {
            small: self.small,
            large: self.large,
            weight: self.weight,
        });
    }
}

fn main() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(3));
    let app = eng.app("two-paths");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng.thread_collection(app, "proc", "node1 node2").unwrap();

    // create 1st path in graph:  nodeSplit >> nodeOp1 >> nodeMerge
    // add 2nd path to graph:     nodeSplit >> nodeOp2 >> nodeMerge
    let mut b = GraphBuilder::new("graph");
    let node_split = b.split(&main, || ToThread(0), || MySplit);
    b.declare_output::<LargeJob, _, _>(node_split);
    let node_op1 = b.leaf(&workers, RoundRobin::new, || MyOpOne);
    let node_op2 = b.leaf(&workers, RoundRobin::new, || MyOpTwo);
    let node_merge = b.merge(&main, || ToThread(0), MyMerge::default);
    b += node_split >> node_op1 >> node_merge;
    b.connect_alt(node_split, node_op2);
    b += node_op2 >> node_merge;
    let graph = eng.build_graph(b).unwrap();

    eng.submit(graph, Box::new(Request { items: 30 })).unwrap();
    eng.run_until_idle().unwrap();
    let summary = downcast::<Summary>(eng.take_outputs(graph).pop().unwrap()).unwrap();
    println!(
        "items routed by type: {} small (MyOpOne), {} large (MyOpTwo), total weight {}",
        summary.small, summary.large, summary.weight
    );
    assert_eq!(summary.small, 20);
    assert_eq!(summary.large, 10);
    assert_eq!(summary.weight, 20 + 10 * 100);
}
