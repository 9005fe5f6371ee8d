//! End-to-end smoke tests of the simulation engine: the paper's basic
//! split-compute-merge construct (Fig. 1) and its variations.

use dps_cluster::ClusterSpec;
use dps_core::prelude::*;

dps_token! { pub struct Work { pub items: u32 } }
dps_token! { pub struct Item { pub i: u32 } }
dps_token! { pub struct Done { pub sum: u32 } }

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Work;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, w: Work) {
        for i in 0..w.items {
            ctx.post(Item { i });
        }
    }
}

struct Sq;
impl LeafOperation for Sq {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
        ctx.post(Item { i: t.i * t.i });
    }
}

#[derive(Default)]
struct Gather {
    sum: u32,
}
impl MergeOperation for Gather {
    type Thread = ();
    type In = Item;
    type Out = Done;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Done>, t: Item) {
        self.sum += t.i;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Done>) {
        ctx.post(Done { sum: self.sum });
    }
}

fn build(nodes: usize, items: u32) -> (SimEngine, GraphHandle) {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(nodes));
    let app = eng.app("demo");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let mapping = dps_cluster::default_mapping(nodes, 1);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "proc", &mapping).unwrap();

    let mut b = GraphBuilder::new("sumsq");
    let split = b.split(&main, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, || Sq);
    let merge = b.merge(&main, || ToThread(0), Gather::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Work { items })).unwrap();
    (eng, g)
}

#[test]
fn split_compute_merge_sums_squares() {
    let (mut eng, g) = build(4, 10);
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    assert_eq!(out.len(), 1);
    let done = downcast::<Done>(out.into_iter().next().unwrap()).unwrap();
    assert_eq!(done.sum, (0..10).map(|i| i * i).sum::<u32>());
}

#[test]
fn single_node_also_works() {
    let (mut eng, g) = build(1, 5);
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    assert_eq!(out.len(), 1);
}

#[test]
fn many_items_exceeding_flow_window() {
    // 100 items through a window of 8 exercises split stalling + credits.
    let (mut eng, g) = build(2, 100);
    eng.run_until_idle().unwrap();
    let out = eng.take_outputs(g);
    let done = downcast::<Done>(out.into_iter().next().unwrap()).unwrap();
    assert_eq!(done.sum, (0..100).map(|i| i * i).sum::<u32>());
}

#[test]
fn pipelined_injections_all_complete() {
    let (mut eng, g) = build(4, 8);
    for _ in 0..4 {
        eng.submit(g, Box::new(Work { items: 8 })).unwrap();
    }
    // Each output leaves at the instant of the event that emitted it.
    let mut exits = Vec::new();
    while eng.step_once().unwrap() {
        if eng.outputs_count(g) > exits.len() {
            exits.push(eng.now());
        }
    }
    eng.run_until_idle().unwrap();
    assert_eq!(eng.take_outputs(g).len(), 5, "initial injection + 4 extra");
    assert_eq!(exits.len(), 5, "one exit instant per output");
    assert!(exits.windows(2).all(|w| w[0] <= w[1]), "{exits:?}");
}
