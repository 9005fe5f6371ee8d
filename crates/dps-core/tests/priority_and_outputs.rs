//! Tests of the interactive-priority scheduling extension and the
//! fine-grained stepping API (`step_once` / `outputs_count`).

use dps_cluster::ClusterSpec;
use dps_core::prelude::*;
use dps_core::SimEngine;
use dps_des::SimSpan;

dps_token! { pub struct BatchJob { pub tasks: u32 } }
dps_token! { pub struct BatchTask { pub i: u32 } }
dps_token! { pub struct BatchDone { pub n: u32 } }
dps_token! { pub struct Ping { pub id: u32 } }
dps_token! { pub struct Pong { pub id: u32 } }

struct FanBatch;
impl SplitOperation for FanBatch {
    type Thread = ();
    type In = BatchJob;
    type Out = BatchTask;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), BatchTask>, j: BatchJob) {
        for i in 0..j.tasks {
            ctx.post(BatchTask { i });
        }
    }
}

/// A slow batch task (10 ms of virtual compute).
struct SlowTask;
impl LeafOperation for SlowTask {
    type Thread = ();
    type In = BatchTask;
    type Out = BatchTask;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), BatchTask>, t: BatchTask) {
        ctx.charge(SimSpan::from_millis(10));
        ctx.post(t);
    }
}

#[derive(Default)]
struct CountBatch {
    n: u32,
}
impl MergeOperation for CountBatch {
    type Thread = ();
    type In = BatchTask;
    type Out = BatchDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), BatchDone>, _t: BatchTask) {
        self.n += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), BatchDone>) {
        ctx.post(BatchDone { n: self.n });
    }
}

/// The interactive service: a trivial echo on the same worker thread.
struct Echo;
impl LeafOperation for Echo {
    type Thread = ();
    type In = Ping;
    type Out = Pong;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Pong>, p: Ping) {
        ctx.post(Pong { id: p.id });
    }
}

fn setup() -> (SimEngine, dps_core::GraphHandle, dps_core::GraphHandle) {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
    let app = eng.app("prio");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    // One single worker thread shared by the batch and the service.
    let worker: ThreadCollection<()> = eng.thread_collection(app, "w", "node1").unwrap();

    let mut b = GraphBuilder::new("batch");
    let s = b.split(&main, || ToThread(0), || FanBatch);
    let l = b.leaf(&worker, || ToThread(0), || SlowTask);
    let m = b.merge(&main, || ToThread(0), CountBatch::default);
    b.add(s >> l >> m);
    let batch = eng.build_graph(b).unwrap();

    let mut b = GraphBuilder::new("echo");
    b.set_interactive();
    let _ = b.leaf(&worker, || ToThread(0), || Echo);
    let echo = eng.build_graph(b).unwrap();
    (eng, batch, echo)
}

/// The virtual instant `graph`'s first output leaves; the run then goes on
/// to idle.
fn exit_of(eng: &mut SimEngine, graph: dps_core::GraphHandle) -> SimTime {
    while eng.outputs_count(graph) == 0 {
        assert!(eng.step_once().unwrap(), "{graph:?} produced no output");
    }
    let at = eng.now();
    eng.run_until_idle().unwrap();
    at
}

#[test]
fn interactive_delivery_overtakes_batch_queue() {
    let (mut eng, batch, echo) = setup();
    eng.submit(batch, Box::new(BatchJob { tasks: 20 })).unwrap();
    // The ping arrives while ~200 ms of batch work is queued on the worker.
    eng.inject_at(
        dps_des::SimTime::ZERO + SimSpan::from_millis(15),
        echo,
        Ping { id: 1 },
    )
    .unwrap();
    let pong_at = exit_of(&mut eng, echo);
    // Without priority the pong would appear after the whole batch
    // (≥ 200 ms); with priority it waits at most the op in progress.
    assert!(
        pong_at.as_secs_f64() < 0.08,
        "pong at {pong_at} — interactive delivery did not overtake"
    );
    assert_eq!(eng.take_outputs(batch).len(), 1);
}

#[test]
fn step_once_interleaves_two_graphs() {
    let (mut eng, batch, echo) = setup();
    eng.submit(batch, Box::new(BatchJob { tasks: 5 })).unwrap();
    let mut pings = 0u32;
    let mut pongs_seen = 0usize;
    // Closed loop: issue the next ping as soon as the previous answered.
    eng.submit(echo, Box::new(Ping { id: pings })).unwrap();
    while eng.outputs_count(batch) < 1 {
        if !eng.step_once().unwrap() {
            break;
        }
        if eng.outputs_count(echo) > pongs_seen {
            pongs_seen = eng.outputs_count(echo);
            pings += 1;
            eng.submit(echo, Box::new(Ping { id: pings })).unwrap();
        }
    }
    eng.run_until_idle().unwrap();
    assert!(pongs_seen >= 2, "closed loop served {pongs_seen} pongs");
    assert_eq!(eng.outputs_count(batch), 1);
}

#[test]
fn non_interactive_ping_waits_for_batch() {
    // Control experiment: the same service without set_interactive answers
    // only after the queued batch drains.
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
    let app = eng.app("ctl");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let worker: ThreadCollection<()> = eng.thread_collection(app, "w", "node1").unwrap();
    let mut b = GraphBuilder::new("batch");
    let s = b.split(&main, || ToThread(0), || FanBatch);
    let l = b.leaf(&worker, || ToThread(0), || SlowTask);
    let m = b.merge(&main, || ToThread(0), CountBatch::default);
    b.add(s >> l >> m);
    let batch = eng.build_graph(b).unwrap();
    let mut b = GraphBuilder::new("echo-plain");
    let _ = b.leaf(&worker, || ToThread(0), || Echo);
    let echo = eng.build_graph(b).unwrap();

    eng.submit(batch, Box::new(BatchJob { tasks: 20 })).unwrap();
    eng.inject_at(
        dps_des::SimTime::ZERO + SimSpan::from_millis(15),
        echo,
        Ping { id: 1 },
    )
    .unwrap();
    let pong_at = exit_of(&mut eng, echo);
    assert!(
        pong_at.as_secs_f64() > 0.15,
        "plain delivery should queue behind the batch, got {pong_at}"
    );
}
