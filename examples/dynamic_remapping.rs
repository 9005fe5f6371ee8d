//! Dynamicity — the paper's titular claim: "DPS structures that describe
//! the application such as its flow graph and thread mapping are created
//! dynamically at runtime. This dynamic behavior allows applications to
//! reconfigure themselves in order to adapt to changes in the problem
//! definition or in the computing environment without requiring
//! recompilation or restarting." (§1)
//!
//! A server starts on two nodes; demand grows; at runtime it instantiates a
//! *new* thread collection spanning six nodes and a new flow graph over it
//! — same binary, no restart — and throughput scales accordingly.
//!
//! Run with: `cargo run --release --example dynamic_remapping`

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, GraphHandle, SimEngine};
use dps::des::SimSpan;

dps_token! { pub struct Demand { pub requests: u32 } }
dps_token! { pub struct Request { pub id: u32 } }
dps_token! { pub struct Served { pub count: u32 } }

struct FanRequests;
impl SplitOperation for FanRequests {
    type Thread = ();
    type In = Demand;
    type Out = Request;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Request>, d: Demand) {
        for id in 0..d.requests {
            ctx.post(Request { id });
        }
    }
}

/// 5 ms of virtual work per request.
struct Serve;
impl LeafOperation for Serve {
    type Thread = ();
    type In = Request;
    type Out = Request;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Request>, r: Request) {
        ctx.charge(SimSpan::from_millis(5));
        ctx.post(r);
    }
}

#[derive(Default)]
struct CountServed {
    n: u32,
}
impl MergeOperation for CountServed {
    type Thread = ();
    type In = Request;
    type Out = Served;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Served>, _r: Request) {
        self.n += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Served>) {
        ctx.post(Served { count: self.n });
    }
}

fn build(
    eng: &mut SimEngine,
    app: dps::core::AppHandle,
    main: &ThreadCollection<()>,
    mapping: &str,
    name: &str,
) -> GraphHandle {
    // The paper's runtime construction: instantiate a collection, map it
    // with a mapping string, build a graph over it — all at run time.
    let workers: ThreadCollection<()> = eng.thread_collection(app, name, mapping).unwrap();
    let mut b = GraphBuilder::new(name);
    let s = b.split(main, || ToThread(0), || FanRequests);
    let l = b.leaf(&workers, LeastLoaded::new, || Serve);
    let m = b.merge(main, || ToThread(0), CountServed::default);
    b.add(s >> l >> m);
    eng.build_graph(b).unwrap()
}

fn serve(eng: &mut SimEngine, g: GraphHandle, requests: u32) -> (f64, u32) {
    let t0 = eng.now();
    eng.submit(g, Box::new(Demand { requests })).unwrap();
    eng.run_until_idle().unwrap();
    let served = downcast::<Served>(eng.take_outputs(g).pop().unwrap()).unwrap();
    (eng.now().since(t0).as_secs_f64(), served.count)
}

fn main() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(8));
    let app = eng.app("elastic-server");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();

    // Phase 1: modest deployment — two worker threads on one node.
    let small = build(&mut eng, app, &main, "node1*2", "small-deployment");
    let (t1, n1) = serve(&mut eng, small, 240);
    println!("small deployment (node1*2):             {n1} requests in {t1:.3}s");

    // Phase 2: demand grows. Acquire six more nodes *at run time* and lay a
    // new schedule over them; the old graph stays usable.
    let large = build(
        &mut eng,
        app,
        &main,
        "node2*2 node3*2 node4*2 node5*2 node6*2 node7*2",
        "large-deployment",
    );
    let (t2, n2) = serve(&mut eng, large, 240);
    println!("large deployment (node2..7, 12 threads): {n2} requests in {t2:.3}s");

    let speedup = t1 / t2;
    println!("runtime reshaping speedup: {speedup:.2}× (no recompilation, no restart)");
    assert_eq!(n1, 240);
    assert_eq!(n2, 240);
    assert!(speedup > 3.0, "twelve threads should well outpace two");
}
