//! Inter-application split/merge pairs — the paper's §6 future work,
//! implemented as an extension: "They allow a server application having
//! knowledge about the distribution of data, to serve a request to access
//! in parallel many data items by performing a split operation. The client
//! application may then directly process the data items in parallel and
//! combine them into a useful result by performing a merge operation."
//!
//! The server's *serving* graph ends in a split; its wave crosses the
//! application boundary and is merged in the client.

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, SimEngine};
use dps::mt::MtEngine;
use dps::netengine::NetEngine;

dps_token! {
    /// Client request: fetch `count` items starting at `base`.
    pub struct FetchReq { pub base: u64, pub count: u32 }
}
dps_token! {
    /// One served data item.
    pub struct Item { pub value: u64 }
}
dps_token! {
    /// The client's combined result.
    pub struct Combined { pub sum: u64, pub items: u32 }
}

/// Server-side: a split that serves the requested items — the exit of the
/// serving graph.
struct ServeItems;
impl SplitOperation for ServeItems {
    type Thread = ();
    type In = FetchReq;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, r: FetchReq) {
        for i in 0..u64::from(r.count) {
            ctx.post(Item { value: r.base + i });
        }
    }
}

/// Client-side processing of each served item, in parallel.
struct Double;
impl LeafOperation for Double {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
        ctx.post(Item { value: t.value * 2 });
    }
}

/// Client-side merge of the *server's* wave.
#[derive(Default)]
struct Combine {
    sum: u64,
    items: u32,
}
impl MergeOperation for Combine {
    type Thread = ();
    type In = Item;
    type Out = Combined;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Combined>, t: Item) {
        self.sum += t.value;
        self.items += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Combined>) {
        ctx.post(Combined {
            sum: self.sum,
            items: self.items,
        });
    }
}

fn expected(base: u64, count: u32) -> u64 {
    (0..u64::from(count)).map(|i| (base + i) * 2).sum()
}

#[test]
fn remote_pair_on_sim_engine() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));

    // Server application: a serving graph that ends in a split.
    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node2").unwrap();
    let mut sb = GraphBuilder::new("serve-items");
    sb.set_serving();
    let _serve = sb.split(&smain, || ToThread(0), || ServeItems);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "items.fetch");

    // Client application: call-split → parallel processing → local merge.
    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node0").unwrap();
    let cworkers: ThreadCollection<()> = eng.thread_collection(client, "w", "node0 node1").unwrap();
    let mut cb = GraphBuilder::new("client");
    let call = cb.call_split::<FetchReq, Item, (), _>("items.fetch", &cmain, || ToThread(0));
    let work = cb.leaf(&cworkers, RoundRobin::new, || Double);
    let merge = cb.merge(&cmain, || ToThread(0), Combine::default);
    cb.add(call >> work >> merge);
    let cg = eng.build_graph(cb).unwrap();

    eng.inject(
        cg,
        FetchReq {
            base: 100,
            count: 25,
        },
    )
    .unwrap();
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(cg);
    assert_eq!(out.len(), 1);
    let c = downcast::<Combined>(out.into_iter().next().unwrap().1).unwrap();
    assert_eq!(c.items, 25);
    assert_eq!(c.sum, expected(100, 25));
}

#[test]
fn remote_pair_on_mt_engine() {
    let mut eng = MtEngine::new(3);

    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node2").unwrap();
    let mut sb = GraphBuilder::new("serve-items");
    sb.set_serving();
    let _serve = sb.split(&smain, || ToThread(0), || ServeItems);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "items.fetch");

    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node0").unwrap();
    let cworkers: ThreadCollection<()> = eng.thread_collection(client, "w", "node0 node1").unwrap();
    let mut cb = GraphBuilder::new("client");
    let call = cb.call_split::<FetchReq, Item, (), _>("items.fetch", &cmain, || ToThread(0));
    let work = cb.leaf(&cworkers, RoundRobin::new, || Double);
    let merge = cb.merge(&cmain, || ToThread(0), Combine::default);
    cb.add(call >> work >> merge);
    let cg = eng.build_graph(cb).unwrap();

    Engine::submit(&mut eng, cg, Box::new(FetchReq { base: 7, count: 40 })).unwrap();
    eng.run_to_idle(cg, 1).unwrap();
    let out = eng.take_outputs(cg).pop().expect("one output");
    let c = downcast::<Combined>(out).unwrap();
    assert_eq!(c.items, 40);
    assert_eq!(c.sum, expected(7, 40));
}

/// Client-side check of a request before it is sent: passes it on.
struct Check;
impl LeafOperation for Check {
    type Thread = ();
    type In = FetchReq;
    type Out = FetchReq;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), FetchReq>, r: FetchReq) {
        ctx.post(r);
    }
}

/// The client's main collection lives on node1, so node1's kernel serves its
/// thread: the check and the merge's steps run there, and a request that
/// reaches the call there comes back as a `Done` that names the call, which
/// the master makes. With several requests in flight, the call's answer
/// follows the later checks and earlier waves' merge steps served ahead of
/// it on that thread, in the order they were served.
#[test]
fn remote_pair_on_net_engine() {
    const REQUESTS: u64 = 4;
    let mut eng = NetEngine::loopback(3);

    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node2").unwrap();
    let mut sb = GraphBuilder::new("serve-items");
    sb.set_serving();
    let _serve = sb.split(&smain, || ToThread(0), || ServeItems);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "items.fetch");

    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node1").unwrap();
    let cworkers: ThreadCollection<()> = eng.thread_collection(client, "w", "node0 node1").unwrap();
    let mut cb = GraphBuilder::new("client");
    let check = cb.leaf(&cmain, || ToThread(0), || Check);
    let call = cb.call_split::<FetchReq, Item, (), _>("items.fetch", &cmain, || ToThread(0));
    let work = cb.leaf(&cworkers, RoundRobin::new, || Double);
    let merge = cb.merge(&cmain, || ToThread(0), Combine::default);
    cb.add(check >> call >> work >> merge);
    let cg = eng.build_graph(cb).unwrap();

    let request = |r: u64| FetchReq {
        base: 10 * r,
        count: 20 + r as u32,
    };
    for r in 0..REQUESTS {
        eng.submit(cg, Box::new(request(r))).unwrap();
    }
    eng.run_to_idle(cg, REQUESTS as usize).unwrap();
    let mut got: Vec<(u32, u64)> = eng
        .take_outputs(cg)
        .into_iter()
        .map(|out| downcast::<Combined>(out).unwrap())
        .map(|c| (c.items, c.sum))
        .collect();
    eng.shutdown();
    got.sort_unstable();
    let want: Vec<(u32, u64)> = (0..REQUESTS)
        .map(request)
        .map(|q| (q.count, expected(q.base, q.count)))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn serving_exit_requires_flag() {
    // Without set_serving, a split-terminated graph is rejected.
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(1));
    let app = eng.app("bad");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("bad-serve");
    let _ = b.split(&main, || ToThread(0), || ServeItems);
    let err = eng.build_graph(b).unwrap_err();
    assert!(err.to_string().contains("unbalanced"), "{err}");
}

#[test]
fn serving_graph_cannot_run_standalone() {
    // Injected directly (no caller to merge the wave), the run must fail
    // rather than silently drop tokens.
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(1));
    let app = eng.app("s");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mut b = GraphBuilder::new("serve");
    b.set_serving();
    let _ = b.split(&main, || ToThread(0), || ServeItems);
    let g = eng.build_graph(b).unwrap();
    eng.inject(g, FetchReq { base: 0, count: 3 }).unwrap();
    let err = eng.run_until_idle().unwrap_err();
    assert!(err.to_string().contains("unmerged"), "{err}");
}

#[test]
fn large_remote_wave_is_not_flow_throttled() {
    // The serving split has no in-graph merge to return credits, so its
    // wave must not be window-limited.
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node1").unwrap();
    let mut sb = GraphBuilder::new("serve");
    sb.set_serving();
    let _ = sb.split(&smain, || ToThread(0), || ServeItems);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "big.fetch");

    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node0").unwrap();
    let mut cb = GraphBuilder::new("client");
    let call = cb.call_split::<FetchReq, Item, (), _>("big.fetch", &cmain, || ToThread(0));
    let merge = cb.merge(&cmain, || ToThread(0), Combine::default);
    cb.add(call >> merge);
    let cg = eng.build_graph(cb).unwrap();
    eng.inject(
        cg,
        FetchReq {
            base: 0,
            count: 500,
        },
    )
    .unwrap();
    eng.run_until_idle().unwrap();
    let c = downcast::<Combined>(eng.take_outputs(cg).pop().unwrap().1).unwrap();
    assert_eq!(c.items, 500);
}
