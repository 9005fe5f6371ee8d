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
    eng.submit(g, Box::new(range));
    eng.wait_for_outputs(g, 1)
        .expect("a ticket routed to node1 as it died is routed once more");
    let done = eng.drain_outputs(g).pop().expect("one RangeDone");
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

// --- the remote-execution seam, against a scripted in-process hook ----------

mod pipelined_remote {
    use std::collections::{HashMap, VecDeque};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use super::*;
    use dps_core::GNodeId;
    use dps_mt::{RemoteExec, RemoteKind, RemoteLane, RemoteOutcome, RemoteTask};
    use dps_obs::{Counter, Gauge, TraceCollector};

    /// What the script plays at a graph node hosted on the remote node.
    #[derive(Clone, Copy)]
    enum Role {
        /// Leaf: the `Work` operation.
        Square,
        /// Stream: every consume posts its piece at once, the finalize a
        /// late close triggers posts [`LATE`].
        Echo,
        /// Merge: the `Sum` operation.
        Sum,
    }

    /// The piece `Role::Echo` posts from a finalize.
    const LATE: Piece = Piece { i: 99, v: 1000 };

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Ship(usize),
        Wait(usize),
    }

    /// The process hosting node 1, scripted: it executes a task the moment
    /// it is shipped (so in shipping order, the seam's contract) and hands
    /// the posts over when the lane is next waited on.
    #[derive(Default)]
    struct Script {
        roles: Mutex<HashMap<GNodeId, Role>>,
        /// The running sum of each wave a `Sum` node consumes.
        sums: Mutex<HashMap<(GNodeId, u64), u64>>,
        /// Every `ship` and `wait`, in the order the lanes saw them.
        log: Mutex<Vec<Ev>>,
        /// Node, kind and wave of every task, in shipping order.
        tasks: Mutex<Vec<(GNodeId, RemoteKind, u64)>>,
        /// One unit per `ship`, once it has executed.
        shipped: Mutex<Option<Sender<()>>>,
        /// The first `ship` returns only after a unit arrives here: holds
        /// the proxy thread back until its queue is as deep as a case needs.
        first_ship: Mutex<Option<Receiver<()>>>,
        /// Every `wait` returns only after this is closed: keeps everything
        /// shipped in flight.
        replies: Mutex<Option<Receiver<()>>>,
    }

    impl Script {
        fn execute(&self, task: RemoteTask) -> Vec<TokenBox> {
            let role = self.roles.lock().unwrap()[&task.node];
            let piece = |t: TokenBox| *downcast::<Piece>(t).expect("the script moves pieces");
            match (role, task.kind, task.token) {
                (Role::Square, RemoteKind::Exec, Some(t)) => {
                    let p = piece(t);
                    vec![Box::new(Piece {
                        i: p.i,
                        v: p.v * p.v,
                    })]
                }
                (Role::Echo, RemoteKind::Consume { .. }, Some(t)) => vec![t],
                (Role::Echo, RemoteKind::Finalize, None) => vec![Box::new(LATE)],
                (Role::Sum, kind, token) => {
                    let key = (task.node, task.wave);
                    let mut sums = self.sums.lock().unwrap();
                    *sums.entry(key).or_default() += token.map_or(0, |t| piece(t).v);
                    match kind {
                        RemoteKind::Consume { completes: false } => Vec::new(),
                        _ => vec![Box::new(Total {
                            sum: sums.remove(&key).expect("just touched"),
                        })],
                    }
                }
                (_, kind, _) => panic!("the script has no part for {kind:?} at {}", task.node),
            }
        }
    }

    struct Hook(Arc<Script>);

    impl RemoteExec for Hook {
        fn lane(
            &self,
            _app: u32,
            _tc: u32,
            _thread: u32,
            node: u32,
        ) -> Option<Box<dyn RemoteLane>> {
            (node == 1).then(|| {
                Box::new(Lane {
                    script: self.0.clone(),
                    owed: VecDeque::new(),
                }) as Box<dyn RemoteLane>
            })
        }
    }

    /// One thread's lane: the posts of each task it shipped, by task id,
    /// until a `wait` hands them over — oldest first.
    struct Lane {
        script: Arc<Script>,
        owed: VecDeque<(usize, Vec<TokenBox>)>,
    }

    impl RemoteLane for Lane {
        fn ship(&mut self, task: RemoteTask) -> Result<()> {
            let s = &self.script;
            if let Some(gate) = s.first_ship.lock().unwrap().take() {
                gate.recv_timeout(PATIENCE).expect("first ship released");
            }
            let id = {
                let mut tasks = s.tasks.lock().unwrap();
                tasks.push((task.node, task.kind, task.wave));
                tasks.len() - 1
            };
            s.log.lock().unwrap().push(Ev::Ship(id));
            let posts = s.execute(task);
            if let Some(shipped) = &*s.shipped.lock().unwrap() {
                let _ = shipped.send(());
            }
            self.owed.push_back((id, posts));
            Ok(())
        }

        fn wait(&mut self) -> Result<RemoteOutcome> {
            let (id, posts) = self.owed.pop_front().expect("a wait per shipped task");
            self.script.log.lock().unwrap().push(Ev::Wait(id));
            if let Some(held) = &*self.script.replies.lock().unwrap() {
                // Returns when the test drops the sending half.
                let _ = held.recv_timeout(PATIENCE);
            }
            Ok(RemoteOutcome {
                posts,
                reports: Vec::new(),
            })
        }
    }

    /// How long a step the test forces may take before it counts as hung.
    const PATIENCE: Duration = Duration::from_secs(20);

    /// Route to thread 0, reporting the load snapshot of every decision.
    struct Tap(Sender<Option<Vec<u32>>>);
    impl Route<Piece> for Tap {
        fn route(&mut self, _p: &Piece, info: &RouteInfo<'_>) -> usize {
            let _ = self.0.send(info.load.map(<[u32]>::to_vec));
            0
        }
    }

    struct Rig {
        eng: MtEngine,
        script: Arc<Script>,
        metrics: Arc<TraceCollector>,
        /// Sending a unit releases the first `ship`, held since the start.
        release: Sender<()>,
        main: ThreadCollection<()>,
        /// Two threads, both on the remote node 1; the cases use thread 0.
        remote: ThreadCollection<()>,
    }

    fn rig() -> Rig {
        let mut eng = MtEngine::new(2);
        let script = Arc::new(Script::default());
        eng.set_remote_exec(Arc::new(Hook(script.clone())));
        let metrics = TraceCollector::new();
        eng.set_trace_sink(metrics.clone());
        let (release, gate) = channel();
        *script.first_ship.lock().unwrap() = Some(gate);
        let app = eng.app("scripted");
        let main = eng.thread_collection(app, "main", "node0").unwrap();
        let remote = eng.thread_collection(app, "far", "node1 node1").unwrap();
        Rig {
            eng,
            script,
            metrics,
            release,
            main,
            remote,
        }
    }

    impl Rig {
        /// Let the proxy thread go once the run has enqueued `messages`
        /// messages (deliveries and closes, the submitted job included):
        /// from there it finds its whole queue waiting, so what it ships
        /// before its first wait does not depend on who runs when.
        fn release_at(&self, messages: u64) {
            let deadline = Instant::now() + PATIENCE;
            while self.metrics.metrics().get(Counter::TokensEnqueued) < messages {
                assert!(Instant::now() < deadline, "the run never queued {messages}");
                std::thread::yield_now();
            }
            self.release.send(()).unwrap();
        }

        fn one_total(&mut self, g: GraphHandle) -> u64 {
            self.eng.wait_for_outputs(g, 1).unwrap();
            let out = self.eng.drain_outputs(g).pop().expect("one output");
            downcast::<Total>(out).unwrap().sum
        }

        /// The `sumsq` graph of the tests above with its leaf on the remote
        /// node, played by the script and routed through a [`Tap`].
        fn squares(&mut self) -> (GraphHandle, Receiver<Option<Vec<u32>>>) {
            let (tap, taps) = channel();
            let mut b = GraphBuilder::new("sumsq");
            let s = b.split(&self.main, || ToThread(0), || Fan);
            let l = b.leaf(&self.remote, move || Tap(tap.clone()), || Work);
            let m = b.merge(&self.main, || ToThread(0), Sum::default);
            b.add(s >> l >> m);
            let g = self.eng.build_graph(b).unwrap();
            self.script
                .roles
                .lock()
                .unwrap()
                .insert(l.id(), Role::Square);
            (g, taps)
        }
    }

    fn next<T>(rx: &Receiver<T>) -> T {
        rx.recv_timeout(PATIENCE).expect("the run got this far")
    }

    fn ships(n: usize) -> Vec<Ev> {
        (0..n).map(Ev::Ship).collect()
    }

    /// With its whole wave queued, the proxy thread ships all of it before
    /// it waits for the first reply, consumes the replies oldest first, and
    /// the run's output is the hook-less one.
    #[test]
    fn queued_deliveries_are_begun_before_the_first_wait() {
        let mut rig = rig();
        let (g, _taps) = rig.squares();
        rig.eng.submit(g, Box::new(Job { n: 6 }));
        rig.release_at(1 + 6);
        let sum = rig.one_total(g);

        let log = rig.script.log.lock().unwrap().clone();
        assert_eq!(log[..6], ships(6)[..], "waited with work queued");
        let waits: Vec<Ev> = log[6..].to_vec();
        assert_eq!(waits, (0..6).map(Ev::Wait).collect::<Vec<_>>(), "FIFO");
        assert_eq!(rig.metrics.metrics().gauge(Gauge::RemoteInFlightPeak), 6);

        let mut plain = MtEngine::new(2);
        let pg = build(&mut plain, 2);
        assert_eq!(sum, run_sum(&mut plain, pg, Box::new(Job { n: 6 })));
    }

    /// A message stays in its thread's backlog until phase 2 of its
    /// operation ends — load-aware routes see what the remote host still
    /// has queued — and the backlog is back to zero once the thread idles.
    #[test]
    fn in_flight_operations_stay_in_the_backlog() {
        let mut rig = rig();
        let (g, taps) = rig.squares();
        let (shipped, ships) = channel();
        *rig.script.shipped.lock().unwrap() = Some(shipped);
        let (hold, held) = channel::<()>();
        *rig.script.replies.lock().unwrap() = Some(held);

        rig.eng.submit(g, Box::new(Job { n: 4 }));
        rig.release_at(1 + 4);
        for _ in 0..4 {
            next(&ships);
            next(&taps);
        }
        // All four left the queue and none was answered. The next routing
        // decision still finds them on thread 0.
        rig.eng.submit(g, Box::new(Job { n: 1 }));
        assert_eq!(next(&taps), Some(vec![4, 0]));

        drop(hold);
        rig.eng.wait_for_outputs(g, 2).unwrap();
        rig.eng.drain_outputs(g);
        // The last retire races the output it produced by a few
        // instructions, so idle is probed, not assumed.
        let deadline = Instant::now() + PATIENCE;
        loop {
            rig.eng.submit(g, Box::new(Job { n: 1 }));
            let load = next(&taps);
            rig.one_total(g);
            if load == Some(vec![0, 0]) {
                break;
            }
            assert!(Instant::now() < deadline, "backlog never drained: {load:?}");
        }
    }

    /// Consecutive consumes of one remote stream wave are in flight
    /// together and each posts a token: the posts are numbered in reply
    /// order from one running index, and one of them carries the total.
    #[test]
    fn a_pipelined_stream_wave_numbers_its_posts_once() {
        let mut rig = rig();
        let mut b = GraphBuilder::new("echo");
        let s = b.split(&rig.main, || ToThread(0), || Fan);
        let e = b.stream(&rig.remote, || ToThread(0), EchoOp::default);
        let m = b.merge(&rig.remote, || ToThread(0), Sum::default);
        b.add(s >> e >> m);
        let g = rig.eng.build_graph(b).unwrap();
        let roles = [(e.id(), Role::Echo), (m.id(), Role::Sum)];
        rig.script.roles.lock().unwrap().extend(roles);

        rig.eng.submit(g, Box::new(Job { n: 5 }));
        rig.release_at(1 + 5);
        assert_eq!(rig.one_total(g), 1 + 2 + 3 + 4);

        let log = rig.script.log.lock().unwrap().clone();
        assert_eq!(log[..5], ships(5)[..], "five consumes in flight together");
        numbered_once(&rig.script, e.id(), m.id());
    }

    /// A close that overtakes the replies of its wave: the stream's four
    /// consumes are still in flight when the close completes the wave, so
    /// the finalize is shipped behind them — and its wave is still there
    /// when their posts, then its own, are numbered.
    #[test]
    fn a_close_finalizes_behind_the_consumes_still_in_flight() {
        let mut rig = rig();
        let mut b = GraphBuilder::new("late-close");
        let s = b.split(&rig.main, || ToThread(0), || Fan);
        // Posts every piece but the last and nothing from its finalize:
        // the wave's total reaches the next stream as a close message.
        let d = b.stream(&rig.main, || ToThread(0), || DropPiece(4));
        let e = b.stream(&rig.remote, || ToThread(0), EchoOp::default);
        let m = b.merge(&rig.remote, || ToThread(0), Sum::default);
        b.add(s >> d >> e >> m);
        let g = rig.eng.build_graph(b).unwrap();
        let roles = [(e.id(), Role::Echo), (m.id(), Role::Sum)];
        rig.script.roles.lock().unwrap().extend(roles);

        rig.eng.submit(g, Box::new(Job { n: 5 }));
        // The job, five pieces to `d`, four on to `e`, and the close.
        rig.release_at(1 + 5 + 4 + 1);
        assert_eq!(rig.one_total(g), 1 + 2 + 3 + LATE.v);

        let log = rig.script.log.lock().unwrap().clone();
        assert_eq!(log[..5], ships(5)[..], "the finalize went out behind them");
        let kinds: Vec<RemoteKind> = rig.script.tasks.lock().unwrap()[..5]
            .iter()
            .map(|t| t.1)
            .collect();
        let consume = RemoteKind::Consume { completes: false };
        assert_eq!(
            kinds,
            [consume, consume, consume, consume, RemoteKind::Finalize]
        );
        numbered_once(&rig.script, e.id(), m.id());
    }

    /// Kind and wave of the tasks shipped for node `at`, in shipping order.
    fn shipped(script: &Script, at: GNodeId) -> Vec<(RemoteKind, u64)> {
        let tasks = script.tasks.lock().unwrap();
        tasks
            .iter()
            .filter(|t| t.0 == at)
            .map(|t| (t.1, t.2))
            .collect()
    }

    /// The five posts of stream `e`'s wave were numbered once, from one
    /// running index, with the total on the last (indices 0..4, total 5):
    /// merge `m` consumed them as one wave, `e`'s own and not the one `e`
    /// consumed, that exactly its fifth token completes. A post numbered
    /// twice would leave the wave short of its total; a total sent apart
    /// from the tokens would reach `m` as a finalize of its own.
    fn numbered_once(script: &Script, e: GNodeId, m: GNodeId) {
        let consumed = shipped(script, e)[0].1;
        let merged = shipped(script, m);
        let consume = |completes| RemoteKind::Consume { completes };
        let kinds: Vec<RemoteKind> = merged.iter().map(|t| t.0).collect();
        let last = consume(true);
        assert_eq!(
            kinds,
            [
                consume(false),
                consume(false),
                consume(false),
                consume(false),
                last
            ]
        );
        let wave = merged[0].1;
        assert!(merged.iter().all(|t| t.1 == wave), "one wave: {merged:?}");
        assert_ne!(wave, consumed, "numbered under the stream's own wave");
    }

    /// Declared at the remote stream node; the script plays it.
    #[derive(Default)]
    struct EchoOp;
    impl StreamOperation for EchoOp {
        type Thread = ();
        type In = Piece;
        type Out = Piece;
        fn consume(&mut self, ctx: &mut OpCtx<'_, (), Piece>, p: Piece) {
            ctx.post(p);
        }
        fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Piece>) {}
    }

    /// Local stream: forwards every piece but number `.0`.
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
