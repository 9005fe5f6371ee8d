//! Tests of the real-thread engine: the same schedules the simulation
//! engine runs, executed on OS threads with genuinely concurrent operations.

use dps_core::prelude::*;
use dps_mt::{MtConfig, MtEngine};

dps_token! { pub struct Job { pub n: u32 } }
dps_token! { pub struct Piece { pub i: u32, pub v: u64 } }
dps_token! { pub struct Total { pub sum: u64 } }

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Job;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, j: Job) {
        for i in 0..j.n {
            ctx.post(Piece { i, v: u64::from(i) });
        }
    }
}

struct Work;
impl LeafOperation for Work {
    type Thread = ();
    type In = Piece;
    type Out = Piece;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
        // A little real computation so threads genuinely overlap; the
        // result is discarded (black_box prevents elimination).
        let mut acc = p.v;
        for k in 0..1000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        std::hint::black_box(acc);
        ctx.post(Piece {
            i: p.i,
            v: p.v * p.v,
        });
    }
}

#[derive(Default)]
struct Sum {
    sum: u64,
}
impl MergeOperation for Sum {
    type Thread = ();
    type In = Piece;
    type Out = Total;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Total>, p: Piece) {
        self.sum += p.v;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
        ctx.post(Total { sum: self.sum });
    }
}

fn build(eng: &mut MtEngine, nodes: usize) -> GraphHandle {
    let app = eng.app("mt-demo");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let mapping: Vec<String> = (0..nodes).map(|i| format!("node{i}")).collect();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "proc", &mapping.join(" "))
        .unwrap();
    let mut b = GraphBuilder::new("sumsq");
    let s = b.split(&main, || ToThread(0), || Fan);
    let l = b.leaf(&workers, RoundRobin::new, || Work);
    let m = b.merge(&main, || ToThread(0), Sum::default);
    b.add(s >> l >> m);
    eng.build_graph(b).unwrap()
}

fn expected_sum(n: u32) -> u64 {
    (0..u64::from(n)).map(|i| i * i).sum()
}

/// Submit `inputs`, wait until `expected` tokens have left the graph, and
/// return them (unordered).
fn run(
    eng: &mut MtEngine,
    g: GraphHandle,
    inputs: Vec<TokenBox>,
    expected: usize,
) -> Result<Vec<TokenBox>> {
    for token in inputs {
        Engine::submit(eng, g, token)?;
    }
    eng.run_to_idle(g, expected)?;
    Ok(eng.take_outputs(g))
}

/// One `Job` in, the sum of the one `Total` out.
fn run_sum(eng: &mut MtEngine, g: GraphHandle, input: TokenBox) -> u64 {
    let out = run(eng, g, vec![input], 1)
        .unwrap()
        .pop()
        .expect("one output");
    downcast::<Total>(out).unwrap().sum
}

#[test]
fn split_compute_merge_on_real_threads() {
    let mut eng = MtEngine::new(4);
    let g = build(&mut eng, 4);
    let out = run(&mut eng, g, vec![Box::new(Job { n: 100 })], 1).unwrap();
    assert_eq!(out.len(), 1);
    let total = downcast::<Total>(out.into_iter().next().unwrap()).unwrap();
    assert_eq!(total.sum, expected_sum(100));
    eng.shutdown();
}

#[test]
fn repeated_runs_reuse_threads() {
    let mut eng = MtEngine::new(2);
    let g = build(&mut eng, 2);
    for _ in 0..5 {
        assert_eq!(
            run_sum(&mut eng, g, Box::new(Job { n: 32 })),
            expected_sum(32)
        );
    }
}

#[test]
fn pipelined_injections() {
    let mut eng = MtEngine::new(4);
    let g = build(&mut eng, 4);
    let inputs: Vec<TokenBox> = (0..6)
        .map(|_| Box::new(Job { n: 50 }) as TokenBox)
        .collect();
    let outs = run(&mut eng, g, inputs, 6).unwrap();
    assert_eq!(outs.len(), 6);
    for o in outs {
        let t = downcast::<Total>(o).unwrap();
        assert_eq!(t.sum, expected_sum(50));
    }
}

#[test]
fn flow_window_one_still_completes() {
    let cfg = MtConfig {
        flow_window: 1,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(2, cfg);
    let g = build(&mut eng, 2);
    assert_eq!(
        run_sum(&mut eng, g, Box::new(Job { n: 40 })),
        expected_sum(40)
    );
}

#[test]
fn serialization_enforced_across_virtual_nodes() {
    let cfg = MtConfig {
        enforce_serialization: true,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(3, cfg);
    let app_tokens = |eng: &mut MtEngine, app| {
        eng.register_token::<Job>(app);
        eng.register_token::<Piece>(app);
        eng.register_token::<Total>(app);
    };
    let app = eng.app("ser");
    app_tokens(&mut eng, app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let w: ThreadCollection<()> = eng.thread_collection(app, "w", "node1 node2").unwrap();
    let mut b = GraphBuilder::new("ser");
    let s = b.split(&main, || ToThread(0), || Fan);
    let l = b.leaf(&w, RoundRobin::new, || Work);
    let m = b.merge(&main, || ToThread(0), Sum::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    assert_eq!(
        run_sum(&mut eng, g, Box::new(Job { n: 25 })),
        expected_sum(25)
    );
}

#[test]
fn service_call_between_mt_applications() {
    let mut eng = MtEngine::new(2);

    let server = eng.app("server");
    let smain: ThreadCollection<()> = eng.thread_collection(server, "m", "node1").unwrap();
    let mut sb = GraphBuilder::new("svc");
    let ss = sb.split(&smain, || ToThread(0), || Fan);
    let sl = sb.leaf(&smain, || ToThread(0), || Work);
    let sm = sb.merge(&smain, || ToThread(0), Sum::default);
    sb.add(ss >> sl >> sm);
    let sg = eng.build_graph(sb).unwrap();
    eng.expose_service(sg, "mt.sum");

    dps_token! { pub struct CallBatch { pub calls: u32 } }
    struct FanCalls;
    impl SplitOperation for FanCalls {
        type Thread = ();
        type In = CallBatch;
        type Out = Job;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Job>, c: CallBatch) {
            for _ in 0..c.calls {
                ctx.post(Job { n: 10 });
            }
        }
    }
    #[derive(Default)]
    struct SumTotals {
        sum: u64,
    }
    impl MergeOperation for SumTotals {
        type Thread = ();
        type In = Total;
        type Out = Total;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Total>, t: Total) {
            self.sum += t.sum;
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
            ctx.post(Total { sum: self.sum });
        }
    }

    let client = eng.app("client");
    let cmain: ThreadCollection<()> = eng.thread_collection(client, "m", "node0").unwrap();
    let mut cb = GraphBuilder::new("client");
    let cs = cb.split(&cmain, || ToThread(0), || FanCalls);
    let call = cb.call::<Job, Total, (), _>("mt.sum", &cmain, || ToThread(0));
    let cm = cb.merge(&cmain, || ToThread(0), SumTotals::default);
    cb.add(cs >> call >> cm);
    let cg = eng.build_graph(cb).unwrap();

    let sum = run_sum(&mut eng, cg, Box::new(CallBatch { calls: 3 }));
    assert_eq!(sum, 3 * expected_sum(10));
}

#[test]
fn timeout_reports_deadlock_shape() {
    // A merge that never completes (split output dropped by a filter leaf
    // is impossible by contract, so instead use a huge expected count via a
    // graph that is simply never fed enough): simulate by expecting more
    // outputs than the graph produces.
    let cfg = MtConfig {
        run_timeout: std::time::Duration::from_millis(300),
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(1, cfg);
    let g = build(&mut eng, 1);
    let err = run(&mut eng, g, vec![Box::new(Job { n: 3 })], 2).unwrap_err();
    assert!(err.to_string().contains("timed out"));
}

/// Outputs and errors reach the driver on one channel, in the order they
/// happened. An error that taking outputs meets is kept, and the next run
/// that lacks outputs returns it; the one after that gets the outputs
/// queued behind it.
#[test]
fn an_error_met_while_taking_outputs_fails_the_next_run() {
    let mut eng = MtEngine::new(1);
    let g = build(&mut eng, 1);
    let app = eng.app("misrouted");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let mut b = GraphBuilder::new("misrouted");
    let _ = b.leaf(&main, || ToThread(5), || Work);
    let bad = eng.build_graph(b).unwrap();
    assert_eq!(
        run_sum(&mut eng, g, Box::new(Job { n: 3 })),
        expected_sum(3)
    );
    // The entry routes on the submitting thread: the error is on the
    // channel before the second job is.
    eng.submit(bad, Box::new(Piece { i: 0, v: 1 })).unwrap();
    eng.submit(g, Box::new(Job { n: 4 })).unwrap();
    assert!(eng.take_outputs(g).is_empty());
    let err = eng.run_to_idle(g, 1).unwrap_err();
    assert!(matches!(err, DpsError::RouteOutOfRange { .. }), "{err}");
    eng.run_to_idle(g, 1).unwrap();
    let total = downcast::<Total>(eng.take_outputs(g).pop().unwrap()).unwrap();
    assert_eq!(total.sum, expected_sum(4));
}

/// A node killed from *inside* a chunk, half-way through a 20 k-chunk
/// self-scheduled loop (the graph of `dps_bench::dls::run_dls`, every ticket
/// released at once): no sleep decides when, and every merge token behind the
/// first follows its wave without the pin table's lock while it happens. The
/// survivor finishes the loop — each iteration scheduled exactly once, the
/// lease drained: a ticket routed to node1 on a load snapshot taken just
/// before it died is routed again — and the tombstone runs nothing it drains.
#[test]
fn a_scheduled_loop_survives_a_kill_fired_from_inside_a_chunk() {
    use dps_core::sched::{
        ChunkRoute, ChunkWorker, CollectChunks, IterRange, RangeDone, ScheduledSplit,
    };
    use dps_core::Engine;
    use dps_sched::{FeedbackBoard, PolicyKind};
    use std::sync::{Arc, OnceLock};

    const ITERS: u64 = 20_000;
    let cfg = MtConfig {
        flow_window: 0,
        ..MtConfig::default()
    };
    let mut eng = MtEngine::with_config(2, cfg);
    let board = Arc::new(FeedbackBoard::for_policy(PolicyKind::Ss));
    eng.set_feedback_sink(board.clone());
    let app = eng.app("dls");
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1")
        .unwrap();
    let hub = eng.chunk_hub();
    let kill: Arc<OnceLock<dps_mt::FailHandle>> = Arc::default();

    let mut b = GraphBuilder::new("dls-ss");
    let (split_hub, split_board) = (hub.clone(), board.clone());
    let split = b.split(
        &master,
        || ToThread(0),
        move || {
            ScheduledSplit::with_feedback(PolicyKind::Ss, 2, split_hub.clone(), split_board.clone())
        },
    );
    let (work_hub, armed) = (hub.clone(), kill.clone());
    let work = b.leaf(&workers, ChunkRoute::new, move || {
        let armed = armed.clone();
        let cost = move |i: u64| {
            if i == ITERS / 2 {
                let kill = armed.get().expect("armed before the first submit");
                kill.fail_node(1).expect("node1 exists");
            }
            1.0
        };
        ChunkWorker::new(Arc::new(cost), work_hub.clone())
    });
    let merge = b.merge(&master, || ToThread(0), CollectChunks::default);
    b.add(split >> work >> merge);
    let g = eng.build_graph(b).unwrap();
    assert!(kill.set(eng.fail_handle()).is_ok());

    let range = IterRange {
        start: 0,
        len: ITERS,
        step: 0,
    };
    eng.submit(g, Box::new(range)).unwrap();
    eng.run_to_idle(g, 1)
        .expect("a ticket routed to node1 as it died is routed once more");
    let done = eng.take_outputs(g).pop().expect("one RangeDone");
    let done = downcast::<RangeDone>(done).expect("a RangeDone");
    assert_eq!(done.iters, ITERS, "every iteration scheduled exactly once");
    assert_eq!(u64::from(done.chunks), ITERS, "one-iteration chunks");
    assert_eq!(hub.abandoned_leases(), []);
    let kill = kill.get().expect("armed");
    assert!(kill.is_dead(1) && !kill.is_dead(0));
    eng.shutdown();
    // `worker_lost` wiped worker 1 at the kill; all it can have reported
    // since is the chunk it was running then. The survivor ran the rest.
    let stats = board.stats(2);
    assert!(stats[1].chunks <= 1, "the tombstone ran chunks: {stats:?}");
    assert!(stats[0].chunks >= ITERS / 2 - 3, "{stats:?}");
}

// --- threads another engine serves, carried there by the test -----------

mod served_elsewhere {
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Barrier, Mutex};
    use std::time::Duration;

    use super::*;
    use dps_core::internal::kernel::Arrival;
    use dps_core::internal::Carried;
    use dps_core::GNodeId;
    use dps_mt::{Answers, Foreign, Forward, Replies, Reply, Serving};
    use dps_obs::TraceCollector;

    /// How long a step the test waits for may take before it counts as hung.
    const PATIENCE: Duration = Duration::from_secs(20);

    /// The piece [`Echo`] posts from its finalize.
    const LATE: Piece = Piece { i: 99, v: 1000 };

    /// Where the engine forwards the arrivals for node 1's threads: to the
    /// test, which carries them to node 1 when it chooses.
    struct Host(Mutex<Sender<Foreign>>);
    impl Forward for Host {
        fn forward(&self, arrival: Foreign) -> Result<()> {
            let host = self.0.lock().unwrap();
            host.send(arrival).expect("the test listens");
            Ok(())
        }
    }

    /// What a thread of node 1 answered one arrival with, not applied yet.
    struct Ran {
        lane: (u32, u32, u32),
        reply: Reply,
        posts: Vec<Carried>,
        reports: Vec<(u64, f64)>,
    }

    /// Where node 1's engine answers: to the test, which applies each answer
    /// when it chooses.
    struct Back(Mutex<Sender<Ran>>);
    impl Answers for Back {
        fn answer(
            &self,
            lane: (u32, u32, u32),
            reply: Reply,
            posts: Vec<Carried>,
            reports: &[(u64, f64)],
        ) {
            let reports = reports.to_vec();
            let ran = Ran {
                lane,
                reply,
                posts,
                reports,
            };
            self.0.lock().unwrap().send(ran).expect("the test listens");
        }
    }

    /// Node 1: a second engine over the same declarations, serving node 1
    /// for the first. The test carries each arrival there, and each answer
    /// back to the first engine's `Replies`.
    struct Node1 {
        arrivals: Receiver<Foreign>,
        serving: Serving,
        answers: Receiver<Ran>,
        replies: Replies,
        _eng: MtEngine,
    }

    impl Node1 {
        fn next(&self) -> Foreign {
            (self.arrivals.recv_timeout(PATIENCE)).expect("the run got this far")
        }

        /// Serve `arrival` on node 1 and take its answer.
        fn serve(&self, arrival: Foreign) -> Ran {
            self.serving.arrive(arrival);
            (self.answers.recv_timeout(PATIENCE)).expect("the step ran")
        }

        fn answer(&mut self, ran: Ran) {
            let posts = ran.posts.into_iter().map(Carried::into_box).collect();
            (self.replies).apply(ran.lane, ran.reply, Ok(posts), &ran.reports);
        }

        /// Serve and answer the next `n` arrivals, one at a time.
        fn serve_all(&mut self, n: usize) {
            for _ in 0..n {
                let arrival = self.next();
                let ran = self.serve(arrival);
                self.answer(ran);
            }
        }
    }

    struct Rig {
        eng: MtEngine,
        node1: Node1,
        metrics: Arc<TraceCollector>,
    }

    /// [`rig_over`] the graph `graph` builds from a collection on node 0 and
    /// one of two threads on node 1, declared on both engines alike.
    fn rig(
        mut graph: impl FnMut(&mut GraphBuilder, &ThreadCollection<()>, &ThreadCollection<()>),
    ) -> (Rig, GraphHandle) {
        rig_over(|eng, _| {
            let app = eng.app("served-elsewhere");
            let main = eng.thread_collection(app, "main", "node0").unwrap();
            let far = eng.thread_collection(app, "far", "node1 node1").unwrap();
            let mut b = GraphBuilder::new("g");
            graph(&mut b, &main, &far);
            eng.build_graph(b).unwrap()
        })
    }

    /// A traced two-node engine whose node 1 a second engine serves, each
    /// engine declared by `declare`, which is told whether it declares node
    /// 1's.
    fn rig_over(mut declare: impl FnMut(&mut MtEngine, bool) -> GraphHandle) -> (Rig, GraphHandle) {
        let mut eng = MtEngine::new(2);
        let (host, arrivals) = channel();
        eng.set_forward(0, Arc::new(Host(Mutex::new(host))));
        let metrics = TraceCollector::new();
        eng.set_trace_sink(metrics.clone());
        let g = declare(&mut eng, false);
        let mut far = MtEngine::new(2);
        declare(&mut far, true);
        let (back, answers) = channel();
        let node1 = Node1 {
            arrivals,
            serving: far.serve_for(1, Arc::new(Back(Mutex::new(back)))),
            answers,
            replies: eng.replies(1),
            _eng: far,
        };
        let rig = Rig {
            eng,
            node1,
            metrics,
        };
        (rig, g)
    }

    impl Rig {
        fn one_total(&mut self, g: GraphHandle) -> u64 {
            self.eng.run_to_idle(g, 1).unwrap();
            let out = self.eng.take_outputs(g).pop().expect("one output");
            downcast::<Total>(out).unwrap().sum
        }
    }

    fn next<T>(rx: &Receiver<T>) -> T {
        rx.recv_timeout(PATIENCE).expect("the run got this far")
    }

    /// Route to thread 0, reporting the load snapshot of every decision.
    struct Tap(Sender<Option<Vec<u32>>>);
    impl Route<Piece> for Tap {
        fn route(&mut self, _p: &Piece, info: &RouteInfo<'_>) -> usize {
            let _ = self.0.send(info.load.map(<[u32]>::to_vec));
            0
        }
    }

    /// A data object sent to a thread another process serves stays in the
    /// thread's backlog until its reply is applied — load-aware routes see
    /// what that process holds — and the backlog is back to zero once
    /// every reply is.
    #[test]
    fn in_flight_operations_stay_in_the_backlog() {
        let (tap, taps) = channel();
        let (mut rig, g) = rig(|b, main, far| {
            let s = b.split(main, || ToThread(0), || Fan);
            let tap = tap.clone();
            let l = b.leaf(far, move || Tap(tap.clone()), || Work);
            let m = b.merge(main, || ToThread(0), Sum::default);
            b.add(s >> l >> m);
        });
        rig.eng.submit(g, Box::new(Job { n: 4 })).unwrap();
        let held: Vec<Foreign> = (0..4).map(|_| rig.node1.next()).collect();
        for _ in 0..4 {
            next(&taps);
        }
        // All four were sent and none was answered. The next routing
        // decision still finds them on thread 0.
        rig.eng.submit(g, Box::new(Job { n: 1 })).unwrap();
        assert_eq!(next(&taps), Some(vec![4, 0]));

        for arrival in held.into_iter().chain([rig.node1.next()]) {
            let ran = rig.node1.serve(arrival);
            rig.node1.answer(ran);
        }
        rig.eng.run_to_idle(g, 2).unwrap();
        let mut sums: Vec<u64> = (rig.eng.take_outputs(g).into_iter())
            .map(|out| downcast::<Total>(out).unwrap().sum)
            .collect();
        sums.sort_unstable();
        assert_eq!(sums, [expected_sum(1), expected_sum(4)]);

        // Every reply was applied on this thread before `answer` returned.
        rig.eng.submit(g, Box::new(Job { n: 1 })).unwrap();
        assert_eq!(next(&taps), Some(vec![0, 0]));
        rig.node1.serve_all(1);
        assert_eq!(rig.one_total(g), 0);
        assert!(rig.metrics.metrics().get(dps_obs::Counter::TokensEnqueued) > 0);
    }

    /// Consecutive consumes of one stream wave on node 1 all run before any
    /// of them is answered, and each posts a token: the posts are numbered
    /// as the answers are applied, from one running index, under the wave id
    /// the engine sent with the first arrival, and the last one carries the
    /// total.
    #[test]
    fn a_pipelined_stream_wave_numbers_its_posts_once() {
        let mut nodes = (GNodeId(0), GNodeId(0));
        let (mut rig, g) = rig(|b, main, far| {
            let s = b.split(main, || ToThread(0), || Fan);
            let e = b.stream(far, || ToThread(0), || Echo);
            let m = b.merge(far, || ToThread(0), Sum::default);
            b.add(s >> e >> m);
            nodes = (e.id(), m.id());
        });
        rig.eng.submit(g, Box::new(Job { n: 5 })).unwrap();
        let consumed: Vec<Foreign> = (0..5).map(|_| rig.node1.next()).collect();
        assert!(consumed.iter().all(|a| a.to.node == nodes.0));
        let (wave, out_wave) = (consumed[0].env.top().unwrap().wave, consumed[0].out_wave);
        let ran: Vec<Ran> = (consumed.into_iter())
            .map(|arrival| rig.node1.serve(arrival))
            .collect();
        for ran in ran {
            rig.node1.answer(ran);
        }
        let merged: Vec<Foreign> = (0..6).map(|_| rig.node1.next()).collect();
        numbered_once(&merged, nodes.1, out_wave);
        assert_ne!(out_wave, wave, "numbered under the stream's own wave");
        for arrival in merged {
            let ran = rig.node1.serve(arrival);
            rig.node1.answer(ran);
        }
        assert_eq!(rig.one_total(g), 1 + 2 + 3 + 4 + LATE.v);
    }

    /// A close that overtakes the answers of its wave: the stream's four
    /// consumes ran on node 1 and are not answered when the close arrives
    /// there and completes the wave, so the finalize runs behind them — and
    /// the posts of the consumes, then the finalize's own, are numbered as
    /// the answers come.
    #[test]
    fn a_close_finalizes_behind_the_consumes_still_in_flight() {
        let mut nodes = (GNodeId(0), GNodeId(0));
        let (mut rig, g) = rig(|b, main, far| {
            let s = b.split(main, || ToThread(0), || Fan);
            // Posts every piece but the last and nothing from its finalize:
            // the wave's total reaches the next stream as a close.
            let d = b.stream(main, || ToThread(0), || DropPiece(4));
            let e = b.stream(far, || ToThread(0), || Echo);
            let m = b.merge(far, || ToThread(0), Sum::default);
            b.add(s >> d >> e >> m);
            nodes = (e.id(), m.id());
        });
        rig.eng.submit(g, Box::new(Job { n: 5 })).unwrap();
        let arrived: Vec<Foreign> = (0..5).map(|_| rig.node1.next()).collect();
        assert!(arrived.iter().all(|a| a.to.node == nodes.0));
        assert!(
            matches!(arrived[4].what, Arrival::Close(4)),
            "the close came last"
        );
        let out_wave = arrived[0].out_wave;
        let ran: Vec<Ran> = (arrived.into_iter())
            .map(|arrival| rig.node1.serve(arrival))
            .collect();
        let Reply::Ran { then: finalize } = &ran[4].reply else {
            panic!("the close ran the finalize: {:?}", ran[4].reply);
        };
        assert!(finalize.completed().is_some() && !finalize.took_token());
        for ran in ran {
            rig.node1.answer(ran);
        }
        let merged: Vec<Foreign> = (0..5).map(|_| rig.node1.next()).collect();
        numbered_once(&merged, nodes.1, out_wave);
        for arrival in merged {
            let ran = rig.node1.serve(arrival);
            rig.node1.answer(ran);
        }
        assert_eq!(rig.one_total(g), 1 + 2 + 3 + LATE.v);
    }

    /// The routing engine runs a split, a leaf on node 0, a leaf on thread 1
    /// of node 1 (graph node 3) and a merge; node 1's engine declared that
    /// collection with one thread, or the graph with neither leaf. Either way
    /// the leaf's arrival names what node 1 does not have: it is answered
    /// `Failed` unserved, and the run fails with what that says.
    #[test]
    fn an_arrival_node_1_has_not_declared_fails_the_run() {
        for (far_threads, leaves) in [("node1", true), ("node1 node1", false)] {
            let (mut rig, g) = rig_over(|eng, node1| {
                let app = eng.app("diverged");
                let main = eng.thread_collection(app, "main", "node0").unwrap();
                let threads = if node1 { far_threads } else { "node1 node1" };
                let far: ThreadCollection<()> = eng.thread_collection(app, "far", threads).unwrap();
                let mut b = GraphBuilder::new("g");
                let s = b.split(&main, || ToThread(0), || Fan);
                let m = b.merge(&main, || ToThread(0), Sum::default);
                if leaves || !node1 {
                    let near = b.leaf(&main, || ToThread(0), || Work);
                    let l = b.leaf(&far, || ToThread(1), || Work);
                    b.add(s >> near >> l >> m);
                } else {
                    b.add(s >> m);
                }
                eng.build_graph(b).unwrap()
            });
            rig.eng.submit(g, Box::new(Job { n: 1 })).unwrap();
            let arrival = rig.node1.next();
            assert_eq!((arrival.thread, arrival.to.node), (1, GNodeId(3)));
            let ran = rig.node1.serve(arrival);
            let said = "an arrival for an undeclared thread (SPMD declarations diverged)";
            assert!(
                matches!(&ran.reply, Reply::Failed { token: true, error } if error == said),
                "{:?}",
                ran.reply
            );
            rig.node1.answer(ran);
            let err = rig.eng.run_to_idle(g, 1).unwrap_err();
            assert!(err.to_string().contains(said), "{err}");
        }
    }

    /// Passes its piece on, marking a chunk of seven iterations.
    struct Marked;
    impl LeafOperation for Marked {
        type Thread = ();
        type In = Piece;
        type Out = Piece;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
            ctx.mark_chunk(7);
            ctx.post(p);
        }
    }

    /// An operation that marks a chunk on node 1 is timed there, although
    /// node 1's engine has neither a trace nor a feedback sink: the sink
    /// that needs the seconds is the routing engine's, and they come back
    /// in the answer.
    #[test]
    fn a_chunk_served_for_another_engine_is_timed() {
        let (mut rig, g) = rig(|b, main, far| {
            let s = b.split(main, || ToThread(0), || Fan);
            let l = b.leaf(far, || ToThread(1), || Marked);
            let m = b.merge(main, || ToThread(0), Sum::default);
            b.add(s >> l >> m);
        });
        rig.eng.submit(g, Box::new(Job { n: 1 })).unwrap();
        let ran = rig.node1.serve(rig.node1.next());
        assert_eq!(ran.lane.2, 1);
        assert!(
            matches!(ran.reports[..], [(7, secs)] if secs >= 0.0),
            "{:?}",
            ran.reports
        );
        rig.node1.answer(ran);
        assert_eq!(rig.one_total(g), 0);
    }

    /// Passes its piece on once the test meets it at the barrier.
    struct Gated(Arc<Barrier>);
    impl LeafOperation for Gated {
        type Thread = ();
        type In = Piece;
        type Out = Piece;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
            self.0.wait();
            ctx.post(p);
        }
    }

    /// A data object node 1 refuses — its token did not decode there — is
    /// answered in its turn: behind the arrival its thread is still running,
    /// not ahead of it. The run fails with what the answer says.
    #[test]
    fn a_refused_arrival_is_answered_behind_the_one_still_running() {
        let gate = Arc::new(Barrier::new(2));
        let (mut rig, g) = rig(|b, main, far| {
            let s = b.split(main, || ToThread(0), || Fan);
            let gate = gate.clone();
            let l = b.leaf(far, || ToThread(1), move || Gated(gate.clone()));
            let m = b.merge(main, || ToThread(0), Sum::default);
            b.add(s >> l >> m);
        });
        rig.eng.submit(g, Box::new(Job { n: 2 })).unwrap();
        let (first, second) = (rig.node1.next(), rig.node1.next());
        let lane = (second.to.app, second.tc, second.thread);
        rig.node1.serving.arrive(first);
        rig.node1.serving.refuse(lane, "did not decode".into());
        gate.wait();
        let answer = || (rig.node1.answers.recv_timeout(PATIENCE)).expect("answered");
        let (ran, failed) = (answer(), answer());
        assert!(matches!(ran.reply, Reply::Ran { .. }), "{:?}", ran.reply);
        assert!(
            matches!(&failed.reply, Reply::Failed { token: true, error } if error == "did not decode"),
            "{:?}",
            failed.reply
        );
        rig.node1.answer(ran);
        rig.node1.answer(failed);
        let err = rig.eng.run_to_idle(g, 1).unwrap_err();
        assert!(err.to_string().contains("did not decode"), "{err}");
    }

    /// The arrivals at merge `m` are the posts of one stream wave, `wave`,
    /// numbered once from one running index, with the total on the last.
    fn numbered_once(merged: &[Foreign], m: GNodeId, wave: u64) {
        let n = merged.len() as u32;
        for (index, arrival) in (0..).zip(merged) {
            assert_eq!(arrival.to.node, m);
            let frame = arrival.env.top().unwrap();
            assert_eq!((frame.wave, frame.index), (wave, index));
            assert_eq!(frame.total, (index + 1 == n).then_some(n), "{frame:?}");
        }
    }

    /// Posts every piece it consumes, and [`LATE`] from its finalize.
    struct Echo;
    impl StreamOperation for Echo {
        type Thread = ();
        type In = Piece;
        type Out = Piece;
        fn consume(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
            ctx.post(p);
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Piece>) {
            ctx.post(LATE);
        }
    }

    /// Forwards every piece but number `.0`.
    struct DropPiece(u32);
    impl StreamOperation for DropPiece {
        type Thread = ();
        type In = Piece;
        type Out = Piece;
        fn consume(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
            if p.i != self.0 {
                ctx.post(p);
            }
        }
        fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Piece>) {}
    }
}
