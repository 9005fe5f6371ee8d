//! The simulator's substrate held to its recorded schedules: the unshuffled
//! schedule hashes of the paper's applications and of the DLS loop, pinned
//! value for value; operation contracts broken around a marked chunk; and a
//! delivery waiting for the CPU of a node that dies.
//!
//! A pinned hash fingerprints every recorded event — op spans, token flows,
//! chunk reports, waves — with its virtual timestamp, in recording order. A
//! change to how the simulator keeps its own events (how many it fires, how
//! it stores them, where a node's CPUs live) must leave every one of them
//! where it is: events at one instant fire in the order they were
//! scheduled, and that order is part of the contract.

use std::sync::{Arc, Mutex};

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, DpsError, EngineConfig};
use dps::des::{SimSpan, SimTime};
use dps::life::{run_life_scheduled, LifeConfig, Variant};
use dps::linalg::parallel::lu::{run_lu, LuConfig};
use dps::linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps::net::NodeId;
use dps::obs::{schedule_hash, TraceCollector};
use dps::sched::{Distribution, FeedbackBoard, PolicyKind};
use dps_bench::dls::{rising_cost, run_dls, DlsConfig};

/// Run `f` on a traced simulator over `spec` and hash what it recorded.
fn hashed(spec: ClusterSpec, cfg: EngineConfig, f: impl FnOnce(&mut SimEngine)) -> u64 {
    let collector = Arc::new(TraceCollector::with_ring_capacity(1 << 16));
    let mut eng = SimEngine::with_config(spec, cfg);
    eng.set_trace_sink(collector.clone());
    f(&mut eng);
    let log = collector.take_log();
    assert!(!log.events.is_empty(), "a traced run records events");
    schedule_hash(&log)
}

fn chunked_lu() -> u64 {
    let cfg = LuConfig {
        n: 64,
        r: 8,
        pipelined: true,
        seed: 5,
        nodes: 3,
        threads_per_node: 2,
        dist: Distribution::Scheduled(PolicyKind::Fac),
        update_chunks: 3,
    };
    let spec = ClusterSpec::skewed(3, 2, 2.0);
    hashed(spec, EngineConfig::default(), |eng| {
        run_lu(eng, &cfg).expect("chunked LU");
    })
}

fn matmul() -> u64 {
    let cfg = MatMulConfig {
        n: 64,
        s: 4,
        pipelined: true,
        seed: 3,
        nodes: 3,
        threads_per_node: 2,
        dist: Distribution::Static,
    };
    let spec = ClusterSpec::paper_testbed(3);
    hashed(spec, EngineConfig::default(), |eng| {
        run_matmul(eng, &cfg, 0).expect("matmul");
    })
}

fn scheduled_life() -> u64 {
    let cfg = LifeConfig {
        rows: 48,
        cols: 32,
        iterations: 4,
        variant: Variant::Simple,
        nodes: 3,
        threads_per_node: 2,
        density: 0.35,
        seed: 11,
        dist: Distribution::Scheduled(PolicyKind::Awf),
    };
    let spec = ClusterSpec::skewed(3, 2, 3.0);
    hashed(spec, EngineConfig::default(), |eng| {
        run_life_scheduled(eng, &cfg, PolicyKind::Awf).expect("scheduled Life");
    })
}

/// The DLS loop under `policy` on four skewed nodes, window 8. AWF sizes
/// its chunks from the reports, so it hashes their timing too. With
/// `op_overhead` zero a merge ends at the instant it starts, so its end and
/// the tickets it releases tie at one instant.
fn dls(policy: PolicyKind, op_overhead: SimSpan) -> u64 {
    let cfg = DlsConfig {
        iters: 600,
        steps: 3,
        policy,
        flow_window: 8,
    };
    let ecfg = EngineConfig {
        flow_window: cfg.flow_window,
        op_overhead,
        ..EngineConfig::default()
    };
    hashed(ClusterSpec::skewed(4, 2, 3.0), ecfg, |eng| {
        run_dls(eng, rising_cost(1e3), &cfg, 4).expect("DLS loop");
    })
}

fn dls_ss() -> u64 {
    dls(PolicyKind::Ss, EngineConfig::default().op_overhead)
}

fn dls_awf() -> u64 {
    dls(PolicyKind::Awf, EngineConfig::default().op_overhead)
}

fn dls_awf_no_overhead() -> u64 {
    dls(PolicyKind::Awf, SimSpan::ZERO)
}

/// Split → leaf → marking stream → merge over two nodes, reporting to a
/// feedback sink: a stream execution's chunk report and the release of its
/// post fall on the instant it ends.
fn marking_stream() -> u64 {
    hashed(
        ClusterSpec::paper_testbed(2),
        EngineConfig::default(),
        |eng| {
            eng.set_feedback_sink(Arc::new(FeedbackBoard::for_policy(PolicyKind::Awf)));
            let app = eng.app("marking");
            let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
            let workers: ThreadCollection<()> = eng
                .thread_collection(app, "workers", "node0 node1")
                .unwrap();
            let mut b = GraphBuilder::new("marking");
            let split = b.split(&main, || ToThread(0), || Fan);
            let leaf = b.leaf(&workers, RoundRobin::new, || Pass);
            let stream = b.stream(&main, || ToThread(0), || Marking);
            let merge = b.merge(&main, || ToThread(0), Count::default);
            b.add(split >> leaf >> stream >> merge);
            let g = eng.build_graph(b).unwrap();
            eng.submit(g, Box::new(Batch { n: 12 })).unwrap();
            eng.run_until_idle().expect("marking stream");
            assert_eq!(eng.take_outputs(g).len(), 1);
        },
    )
}

/// A named workload and the schedule hash recorded for it.
type Recorded = (&'static str, fn() -> u64, u64);

/// Each workload's hash as the simulator recorded it when every event was
/// a boxed closure and a node's CPUs were an event-library pool.
///
/// Chunked LU's was re-pinned (from `0x3c51_1a32_ce39_b610`) when a
/// `LoadColumn` came to carry a seed instead of its column: the log keeps
/// every event's kind, node and thread, its first 184 events are
/// unchanged, the eight staging frames shrink from 4 226 to 134 bytes, and
/// the last 1 906 events come 454 668 ns sooner, the modelled transfer
/// time of the columns' bytes no longer sent.
#[test]
fn unshuffled_schedules_hash_as_recorded() {
    let runs: [Recorded; 7] = [
        ("chunked LU", chunked_lu, 0xad96_6def_2197_531b),
        ("matmul", matmul, 0xe0cc_1afb_0fa8_b999),
        ("scheduled Life", scheduled_life, 0x9d5b_6d89_e527_4ac7),
        ("DLS SS", dls_ss, 0x37de_7046_cbaa_3368),
        ("DLS AWF", dls_awf, 0x7f45_ea67_c1b6_da12),
        (
            "DLS AWF, no overhead",
            dls_awf_no_overhead,
            0x321d_cdaf_87a7_6a90,
        ),
        ("marking stream", marking_stream, 0x33ae_8ffd_5c0b_9178),
    ];
    let got: Vec<_> = runs
        .iter()
        .map(|&(name, run, want)| (name, run(), want))
        .collect();
    for &(name, h, want) in &got {
        println!("{name}: {h:#018x} (recorded {want:#018x})");
    }
    for (name, h, want) in got {
        assert_eq!(
            h, want,
            "{name}: schedule hash {h:#018x}, recorded {want:#018x}"
        );
    }
}

// ---------------------------------------------------------------------------
// Contracts broken around a marked chunk
// ---------------------------------------------------------------------------

dps_token! { pub struct Batch { pub n: u32 } }
dps_token! { pub struct Item { pub i: u32 } }
dps_token! { pub struct Total { pub n: u32 } }

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Batch;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, b: Batch) {
        for i in 0..b.n {
            ctx.post(Item { i });
        }
    }
}

#[derive(Default)]
struct Count {
    n: u32,
}
impl MergeOperation for Count {
    type Thread = ();
    type In = Item;
    type Out = Total;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Total>, _t: Item) {
        self.n += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
        ctx.post(Total { n: self.n });
    }
}

/// A leaf that computes for 50 µs and passes its item on.
struct Pass;
impl LeafOperation for Pass {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
        ctx.charge(SimSpan::from_micros(50));
        ctx.post(t);
    }
}

/// A stream that computes for 30 µs an item, marks it as a chunk of one
/// iteration and posts it on as it ends.
struct Marking;
impl StreamOperation for Marking {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
        ctx.charge(SimSpan::from_micros(30));
        ctx.mark_chunk(1);
        ctx.post(t);
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Item>) {}
}

/// A leaf that marks a chunk and posts twice.
struct TwoPosts;
impl LeafOperation for TwoPosts {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
        ctx.charge(SimSpan::from_micros(40));
        ctx.mark_chunk(1);
        ctx.post(Item { i: t.i });
        ctx.post(Item { i: t.i });
    }
}

/// A stream that consumes its wave silently and marks a chunk in its
/// finalize: it posts no token across the wave.
struct Silent;
impl StreamOperation for Silent {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Item>, _t: Item) {}
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Item>) {
        ctx.charge(SimSpan::from_micros(40));
        ctx.mark_chunk(3);
    }
}

fn contract_reason(e: DpsError) -> (String, String) {
    match e {
        DpsError::OperationContract { node, reason } => (node, reason),
        e => panic!("expected an operation contract error, got {e}"),
    }
}

/// A leaf that marked its chunk and broke the one-post contract fails the
/// run with the leaf's contract error; nothing panics, and the chunk it
/// never finished is not reported.
#[test]
fn a_marked_leaf_that_posts_twice_fails_the_run() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
    let board = Arc::new(FeedbackBoard::for_policy(PolicyKind::Awf));
    eng.set_feedback_sink(board.clone());
    let app = eng.app("contract");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1")
        .unwrap();
    let mut b = GraphBuilder::new("two-posts");
    let split = b.split(&main, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, || TwoPosts);
    let merge = b.merge(&main, || ToThread(0), Count::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n: 4 })).unwrap();
    let (node, reason) = contract_reason(eng.run_until_idle().unwrap_err());
    assert_eq!(node, "TwoPosts");
    assert_eq!(
        reason,
        "leaf operation must post exactly one token, posted 2"
    );
    assert_eq!(
        board.total_chunks(),
        0,
        "a failed execution reports nothing"
    );
}

/// A stream that marked a chunk and posted nothing across its wave fails
/// the run with the kernel's contract error. The chunk was reported before
/// the posts were applied, so the report still reaches the sink, at the
/// stream's virtual completion instant.
#[test]
fn a_marked_stream_that_posts_nothing_fails_the_run_after_its_report() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
    let board = Arc::new(FeedbackBoard::for_policy(PolicyKind::Awf));
    eng.set_feedback_sink(board.clone());
    let app = eng.app("contract");
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let mut b = GraphBuilder::new("silent");
    let split = b.split(&main, || ToThread(0), || Fan);
    let stream = b.stream(&main, || ToThread(0), || Silent);
    let merge = b.merge(&main, || ToThread(0), Count::default);
    b.add(split >> stream >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n: 3 })).unwrap();
    let (node, reason) = contract_reason(eng.run_until_idle().unwrap_err());
    assert_eq!(node, "Silent");
    assert_eq!(reason, "stream operation posted no tokens across its wave");
    assert_eq!(board.total_chunks(), 1, "the marked chunk was reported");
}

// ---------------------------------------------------------------------------
// A delivery waiting for a dead node's CPU
// ---------------------------------------------------------------------------

/// A leaf that runs for 10 ms and logs where and when it started.
struct Logged {
    log: Arc<Mutex<Vec<(usize, u64)>>>,
}
impl LeafOperation for Logged {
    type Thread = ();
    type In = Item;
    type Out = Item;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
        let started = (ctx.thread_index(), ctx.start_nanos());
        self.log.lock().unwrap().push(started);
        ctx.charge(SimSpan::from_millis(10));
        ctx.post(t);
    }
}

/// node1 has one CPU and two threads of a round-robin leaf. Its first
/// thread runs a 10 ms item; the second's item waits for the CPU. node1
/// dies at 5 ms: the waiting item is stranded with the thread queues and
/// re-routed from the home node, so no operation starts on node1 after its
/// death, and the wave completes on node0.
#[test]
fn a_delivery_waiting_for_a_dead_nodes_cpu_moves_off_it() {
    const KILL: u64 = 5_000_000;
    let mut eng = SimEngine::new(ClusterSpec::uniform(2, 1));
    let app = eng.app("cpu");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1 node1")
        .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let leaf_log = log.clone();
    let mut b = GraphBuilder::new("cpu");
    let split = b.split(&main, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, move || Logged {
        log: leaf_log.clone(),
    });
    let merge = b.merge(&main, || ToThread(0), Count::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n: 3 })).unwrap();
    eng.schedule_fail_node(SimTime(KILL), NodeId(1));
    eng.run_until_idle().unwrap();

    let out = eng.take_outputs(g);
    assert_eq!(out.len(), 1);
    let total = out.into_iter().next().unwrap();
    assert_eq!(downcast::<Total>(total).unwrap().n, 3);
    let on_node1 = |thread: usize| thread > 0;
    let starts = log.lock().unwrap().clone();
    assert_eq!(starts.len(), 3, "every item ran once: {starts:?}");
    assert!(
        starts.iter().all(|&(t, at)| !on_node1(t) || at < KILL),
        "an operation started on node1 after its death: {starts:?}"
    );
    assert_eq!(eng.requeued(), 1, "the item waiting for node1's CPU moved");
}

/// node1 hosts two of the three threads of a round-robin leaf and is dead
/// before the batch arrives. The second item's turn falls on node1's first
/// thread and the next turn on its second: the leaf steps past both in the
/// load snapshot, so every item runs on node0 and the wave completes.
#[test]
fn a_round_robin_leaf_steps_past_every_thread_of_a_dead_node() {
    let mut eng = SimEngine::new(ClusterSpec::uniform(2, 1));
    let app = eng.app("turns");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1 node1")
        .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let leaf_log = log.clone();
    let mut b = GraphBuilder::new("turns");
    let split = b.split(&main, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, move || Logged {
        log: leaf_log.clone(),
    });
    let merge = b.merge(&main, || ToThread(0), Count::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.fail_node(NodeId(1)).unwrap();
    eng.submit(g, Box::new(Batch { n: 3 })).unwrap();
    eng.run_until_idle().unwrap();

    let out = eng.take_outputs(g);
    assert_eq!(out.len(), 1);
    let total = out.into_iter().next().unwrap();
    assert_eq!(downcast::<Total>(total).unwrap().n, 3);
    let threads: Vec<usize> = log.lock().unwrap().iter().map(|&(t, _)| t).collect();
    assert_eq!(threads, [0, 0, 0], "every item ran on node0");
}

/// Start instants of the logged leaf on `workers` of a two-node cluster
/// whose nodes have `cpus` CPUs each, for a batch of `items`.
fn starts_on(cpus: usize, workers: &str, items: u32) -> Vec<(usize, u64)> {
    let mut eng = SimEngine::new(ClusterSpec::uniform(2, cpus));
    let app = eng.app("cpus");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng.thread_collection(app, "workers", workers).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let leaf_log = log.clone();
    let mut b = GraphBuilder::new("cpus");
    let split = b.split(&main, || ToThread(0), || Fan);
    let leaf = b.leaf(&workers, RoundRobin::new, move || Logged {
        log: leaf_log.clone(),
    });
    let merge = b.merge(&main, || ToThread(0), Count::default);
    b.add(split >> leaf >> merge);
    let g = eng.build_graph(b).unwrap();
    eng.submit(g, Box::new(Batch { n: items })).unwrap();
    eng.run_until_idle().unwrap();
    assert_eq!(eng.queued_deliveries(), 0);
    let starts = log.lock().unwrap().clone();
    starts
}

/// The most executions of `hold` nanoseconds that overlap among `starts`.
fn most_at_once(starts: &[(usize, u64)], hold: u64) -> usize {
    starts
        .iter()
        .map(|&(_, t)| {
            starts
                .iter()
                .filter(|&&(_, s)| s <= t && t < s + hold)
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// A node runs at most as many executions at once as it has CPUs; the
/// threads waiting for one are served first come, first served, each as
/// soon as an execution ends.
#[test]
fn a_nodes_cpus_run_at_most_their_count_first_come_first_served() {
    let hold = 10_000_000 + EngineConfig::default().op_overhead.as_nanos();
    // Four threads on node1, one item each, routed in thread order.
    let one = starts_on(1, "node1 node1 node1 node1", 4);
    assert_eq!(most_at_once(&one, hold), 1, "{one:?}");
    let order: Vec<usize> = one.iter().map(|&(t, _)| t).collect();
    assert_eq!(order, vec![0, 1, 2, 3], "first come, first served");
    for pair in one.windows(2) {
        assert_eq!(
            pair[1].1 - pair[0].1,
            hold,
            "the CPU passes on at once: {one:?}"
        );
    }
    let two = starts_on(2, "node1 node1 node1 node1", 4);
    assert_eq!(most_at_once(&two, hold), 2, "{two:?}");
    assert_eq!(two[2].1 - two[0].1, hold, "{two:?}");
}
