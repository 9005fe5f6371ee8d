//! Cross-engine integration: the same flow graph executed on the
//! deterministic simulator, on real OS threads, and on the multi-process
//! network engine must compute the same results — only the notion of time
//! (and the number of processes) differs.
//!
//! Every test drives the engines through the **same generic function**
//! over [`dps::core::Engine`] — the unified-API contract: no per-engine
//! driver code anywhere in this file. The differential proptest generates
//! randomized split→leaf→merge shapes and asserts *byte-identical* wire
//! encodings of the outputs from all three engines.
//!
//! The `*_across_processes` tests re-execute this very test binary as
//! worker kernels ([`NetEngine::from_env`] reads the `DPS_NET_*`
//! environment the master sets), so master and workers literally run the
//! same SPMD test function over real TCP sockets. The other net runs use
//! [`NetEngine::loopback`], which runs the driver once per rank on threads
//! of the test process, over in-memory connections.

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, SimEngine, Token};
use dps::mt::MtEngine;
use dps::netengine::{NetEngine, NetEngineConfig};
use dps::serial::{Buffer, Writer};
use proptest::prelude::*;

/// Net-engine config for a multi-process test: the spawned worker
/// processes re-run exactly `test` (libtest filter), nothing else.
fn spmd_test_config(test: &str) -> NetEngineConfig {
    NetEngineConfig {
        worker_args: Some(vec![test.into(), "--exact".into(), "--nocapture".into()]),
        ..NetEngineConfig::default()
    }
}

dps_token! {
    pub struct Work { pub shards: u32, pub values: Buffer<u64> }
}
dps_token! {
    pub struct Shard { pub idx: u32, pub values: Buffer<u64> }
}
dps_token! {
    pub struct ShardSum { pub idx: u32, pub sum: u64 }
}
dps_token! {
    pub struct Grand { pub sum: u64, pub shards: u32 }
}

struct Scatter;
impl SplitOperation for Scatter {
    type Thread = ();
    type In = Work;
    type Out = Shard;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, w: Work) {
        let values = w.values.into_vec();
        let chunk = values.len().div_ceil(w.shards as usize).max(1);
        for (idx, part) in values.chunks(chunk).enumerate() {
            ctx.post(Shard {
                idx: idx as u32,
                values: part.to_vec().into(),
            });
        }
    }
}

struct SumShard;
impl LeafOperation for SumShard {
    type Thread = ();
    type In = Shard;
    type Out = ShardSum;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ShardSum>, s: Shard) {
        ctx.post(ShardSum {
            idx: s.idx,
            sum: s.values.iter().sum(),
        });
    }
}

#[derive(Default)]
struct Gather {
    sum: u64,
    shards: u32,
}
impl MergeOperation for Gather {
    type Thread = ();
    type In = ShardSum;
    type Out = Grand;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Grand>, s: ShardSum) {
        self.sum += s.sum;
        self.shards += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Grand>) {
        ctx.post(Grand {
            sum: self.sum,
            shards: self.shards,
        });
    }
}

/// The one scatter–gather driver both engines share: typed front door,
/// one-shot call, no engine-specific code.
fn scatter_gather<E: Engine>(eng: &mut E, workers_n: usize, work: Work) -> Grand {
    let app = eng.app("xe");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mapping = dps::cluster::default_mapping(workers_n, 1);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "w", &mapping).unwrap();
    let mut b = GraphBuilder::new("scatter-gather");
    let s = b.split(&main, || ToThread(0), || Scatter);
    let l = b.leaf(&workers, RoundRobin::new, || SumShard);
    let m = b.merge(&main, || ToThread(0), Gather::default);
    b.add(s >> l >> m);
    let app: Application<E, Work, Grand> = Application::build(eng, b).unwrap();
    *app.call(eng, work).unwrap()
}

fn input(shards: u32, n: u64) -> Work {
    Work {
        shards,
        values: (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>().into(),
    }
}

fn expected(n: u64) -> u64 {
    (0..n).map(|i| i * 3 + 1).sum()
}

/// The wire encoding of a token — the byte-identity yardstick of the
/// differential test.
fn wire_encoding(tok: &dyn Token) -> Vec<u8> {
    let mut w = Writer::with_capacity(tok.payload_size());
    tok.encode_payload(&mut w);
    w.into_bytes()
}

#[test]
fn sim_engine_computes_scatter_gather() {
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));
    let grand = scatter_gather(&mut eng, 4, input(8, 1000));
    assert_eq!(grand.sum, expected(1000));
    assert_eq!(grand.shards, 8);
}

#[test]
fn mt_engine_computes_identically() {
    let mut eng = MtEngine::new(4);
    let grand = scatter_gather(&mut eng, 4, input(8, 1000));
    assert_eq!(grand.sum, expected(1000));
    assert_eq!(grand.shards, 8);
}

#[test]
fn sim_engine_is_deterministic_across_runs() {
    let run = || {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(3));
        let grand = scatter_gather(&mut eng, 3, input(16, 333));
        (eng.now_secs().to_bits(), grand)
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential cross-engine test: randomized split→leaf→merge
    /// shapes (value count, fan-out, worker count) produce **byte-identical
    /// wire encodings** on the simulator and on OS threads, through the
    /// same generic `Engine` code path.
    #[test]
    fn engines_agree_byte_for_byte(
        n in 1u64..400,
        shards in 1u32..12,
        workers_n in 1usize..5,
    ) {
        let sim_out = {
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(workers_n));
            scatter_gather(&mut eng, workers_n, input(shards, n))
        };
        let mt_out = {
            let mut eng = MtEngine::new(workers_n);
            scatter_gather(&mut eng, workers_n, input(shards, n))
        };
        // Master on node0 plus a worker rank for each other node, every
        // rank a thread: the same wire protocol and roles as the TCP
        // deployment, single process.
        let net_out = NetEngine::loopback(workers_n, NetEngineConfig::default(), |eng| {
            scatter_gather(eng, workers_n, input(shards, n))
        });
        prop_assert_eq!(
            wire_encoding(&sim_out),
            wire_encoding(&mt_out),
            "sim and mt diverged for n={} shards={} workers={}",
            n, shards, workers_n
        );
        prop_assert_eq!(
            wire_encoding(&sim_out),
            wire_encoding(&net_out),
            "sim and net diverged for n={} shards={} workers={}",
            n, shards, workers_n
        );
        prop_assert_eq!(sim_out.sum, expected(n));
    }
}

/// The dynamically scheduled Life application — range announcement,
/// worker-side chunk claiming, AWF feedback — runs on real threads through
/// the *same* generic entry point (`run_life_scheduled`) the simulator
/// uses, and computes the same generations as the sequential reference.
#[test]
fn scheduled_life_runs_on_real_threads() {
    use dps::life::{run_life_scheduled, LifeConfig, Variant, World};
    use dps::sched::{Distribution, PolicyKind};

    let cfg = LifeConfig {
        rows: 24,
        cols: 16,
        iterations: 3,
        variant: Variant::Simple,
        nodes: 3,
        threads_per_node: 1,
        density: 0.35,
        seed: 11,
        dist: Distribution::Scheduled(PolicyKind::Fac),
    };
    let reference = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed).step_n(cfg.iterations);

    let mut eng = MtEngine::new(3);
    let rep = run_life_scheduled(&mut eng, &cfg, PolicyKind::Fac).unwrap();
    eng.shutdown();
    assert_eq!(rep.world, reference, "Life diverged on real threads");
    assert_eq!(rep.per_iter.len(), cfg.iterations);
}

/// The same scheduled Life application across **three real processes over
/// TCP**: the master spawns two worker kernels (re-running this very test
/// function), rows are claimed chunk-by-chunk from the master-hosted hub
/// over the wire, and every kernel — master and workers alike — asserts
/// the same generations against the sequential reference (a run's
/// outputs travel in its release to every worker, so the SPMD asserts
/// hold everywhere).
#[test]
fn scheduled_life_runs_on_netengine_across_processes() {
    use dps::life::{run_life_scheduled, LifeConfig, Variant, World};
    use dps::sched::{Distribution, PolicyKind};

    let cfg = LifeConfig {
        rows: 24,
        cols: 16,
        iterations: 3,
        variant: Variant::Simple,
        nodes: 3,
        threads_per_node: 1,
        density: 0.35,
        seed: 11,
        dist: Distribution::Scheduled(PolicyKind::Fac),
    };
    let reference = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed).step_n(cfg.iterations);

    let mut eng = NetEngine::from_env(
        3,
        spmd_test_config("scheduled_life_runs_on_netengine_across_processes"),
    )
    .expect("net engine setup");
    let rep = run_life_scheduled(&mut eng, &cfg, PolicyKind::Fac).unwrap();
    eng.shutdown();
    assert_eq!(rep.world, reference, "Life diverged across processes");
    assert_eq!(rep.per_iter.len(), cfg.iterations);
}

/// Dynamically scheduled block LU across three real processes over TCP:
/// block columns are assigned from calibration-measured worker rates, the
/// panel broadcasts and updates execute in the worker kernels, and the
/// factors come back bit-identical to the sequential block reference.
#[test]
fn scheduled_lu_runs_on_netengine_across_processes() {
    use dps::linalg::parallel::lu::{run_lu, LuConfig};
    use dps::linalg::{blocked_lu, lu_residual, Matrix};
    use dps::sched::{Distribution, PolicyKind};

    let cfg = LuConfig {
        n: 32,
        r: 8,
        pipelined: true,
        seed: 21,
        nodes: 3,
        threads_per_node: 1,
        dist: Distribution::Scheduled(PolicyKind::Tss),
        update_chunks: 1,
    };
    let mut eng = NetEngine::from_env(
        3,
        spmd_test_config("scheduled_lu_runs_on_netengine_across_processes"),
    )
    .expect("net engine setup");
    let rep = run_lu(&mut eng, &cfg).unwrap();
    eng.shutdown();
    let a = Matrix::random_general(cfg.n, cfg.n, cfg.seed);
    assert!(lu_residual(&a, &rep.factors) < 1e-8);
    let reference = blocked_lu(&a, cfg.r);
    assert_eq!(rep.factors.pivots, reference.pivots);
    assert_eq!(
        rep.factors.lu, reference.lu,
        "factors must agree bit for bit across processes"
    );
}

/// Block LU factorization through the generic `run_lu` entry point on OS
/// threads: same factors, bit for bit, as the sequential block reference.
#[test]
fn lu_runs_on_real_threads_via_the_generic_driver() {
    use dps::linalg::parallel::lu::{run_lu, LuConfig};
    use dps::linalg::{blocked_lu, lu_residual, Matrix};
    use dps::sched::Distribution;

    let cfg = LuConfig {
        n: 32,
        r: 8,
        pipelined: true,
        seed: 21,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: 1,
    };
    let mut eng = MtEngine::new(2);
    let rep = run_lu(&mut eng, &cfg).unwrap();
    eng.shutdown();
    let a = Matrix::random_general(cfg.n, cfg.n, cfg.seed);
    assert!(lu_residual(&a, &rep.factors) < 1e-8);
    let reference = blocked_lu(&a, cfg.r);
    assert_eq!(rep.factors.pivots, reference.pivots);
    assert_eq!(
        rep.factors.lu, reference.lu,
        "factors must agree bit for bit"
    );
}

/// Chunked trailing updates across all three engines: splitting each
/// column's trailing gemm into sub-column chunks — claimed ticket by
/// ticket from the chunk hub (over the wire on the net engine) — must
/// leave the factorization byte-identical to the sequential block
/// reference on the simulator, on OS threads, and on the multi-process
/// wire protocol alike.
#[test]
fn chunked_lu_is_byte_identical_across_engines() {
    use dps::linalg::parallel::lu::{run_lu, LuConfig};
    use dps::linalg::{blocked_lu, Matrix};
    use dps::sched::Distribution;

    let cfg = LuConfig {
        n: 48,
        r: 8,
        pipelined: true,
        seed: 17,
        nodes: 3,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: 3,
    };
    let a = Matrix::random_general(cfg.n, cfg.n, cfg.seed);
    let reference = blocked_lu(&a, cfg.r);

    let sim = {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(cfg.nodes));
        run_lu(&mut eng, &cfg).unwrap()
    };
    let mt = {
        let mut eng = MtEngine::new(cfg.nodes);
        let rep = run_lu(&mut eng, &cfg).unwrap();
        eng.shutdown();
        rep
    };
    let net = NetEngine::loopback(cfg.nodes, NetEngineConfig::default(), |eng| {
        run_lu(eng, &cfg).unwrap()
    });
    for (name, rep) in [("sim", &sim), ("mt", &mt), ("net", &net)] {
        assert_eq!(
            rep.factors.pivots, reference.pivots,
            "{name} pivots diverged"
        );
        assert_eq!(rep.factors.lu, reference.lu, "{name} factor bits diverged");
    }
}

/// The pipelined matrix multiply on the simulator, on OS threads and over
/// the in-process wire protocol: the same product, bit for bit. Over the
/// wire, the operand strips every task of a row or column shares cross the
/// connection once and decode into one allocation on the worker.
#[test]
fn matmul_is_byte_identical_across_engines() {
    use dps::linalg::parallel::matmul::{run_matmul, MatMulConfig};
    use dps::sched::Distribution;

    let cfg = MatMulConfig {
        n: 64,
        s: 4,
        pipelined: true,
        seed: 9,
        nodes: 3,
        threads_per_node: 1,
        dist: Distribution::Static,
    };
    let sim = {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(cfg.nodes));
        run_matmul(&mut eng, &cfg, 0).unwrap().c
    };
    let mt = {
        let mut eng = MtEngine::new(cfg.nodes);
        let rep = run_matmul(&mut eng, &cfg, 0).unwrap();
        eng.shutdown();
        rep.c
    };
    let net = NetEngine::loopback(cfg.nodes, NetEngineConfig::default(), |eng| {
        run_matmul(eng, &cfg, 0).unwrap().c
    });
    assert_eq!(sim.as_slice(), mt.as_slice(), "sim product bits diverged");
    assert_eq!(net.as_slice(), mt.as_slice(), "net product bits diverged");
}

/// The paper's banded Life (Fig. 7 Simple, Fig. 8 Improved) through one
/// generic driver: the bands load through the loader graph, the world
/// comes back through the Fig. 10 read service. Returns each iteration's
/// `IterDone` population and the final world.
fn banded_life<E: Engine>(
    eng: &mut E,
    cfg: &dps::life::LifeConfig,
) -> (Vec<u64>, dps::life::World) {
    let world = dps::life::World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let life = dps::life::setup_life(eng, cfg, &world).unwrap();
    let pops = (0..cfg.iterations as u32)
        .map(|i| life.step_once(eng, i).unwrap().population)
        .collect();
    (pops, life.gather_world(eng).unwrap())
}

/// Banded Life, both graphs, on the simulator, on OS threads and over the
/// in-process wire protocol: every engine reproduces the sequential
/// reference, and all agree on every iteration's `IterDone` population.
#[test]
fn banded_life_is_identical_across_engines() {
    use dps::life::{LifeConfig, Variant, World};
    use dps::sched::Distribution;

    for variant in [Variant::Simple, Variant::Improved] {
        let cfg = LifeConfig {
            rows: 30,
            cols: 20,
            iterations: 4,
            variant,
            nodes: 3,
            threads_per_node: 1,
            density: 0.35,
            seed: 21,
            dist: Distribution::Static,
        };
        let reference =
            World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed).step_n(cfg.iterations);
        let sim = banded_life(&mut SimEngine::new(ClusterSpec::paper_testbed(3)), &cfg);
        let mt = {
            let mut eng = MtEngine::new(3);
            let out = banded_life(&mut eng, &cfg);
            eng.shutdown();
            out
        };
        let net = NetEngine::loopback(3, NetEngineConfig::default(), |eng| banded_life(eng, &cfg));
        for (name, (pops, world)) in [("sim", &sim), ("mt", &mt), ("net", &net)] {
            assert_eq!(world, &reference, "{variant:?} diverged on {name}");
            assert_eq!(pops, &sim.0, "{variant:?} populations differ on {name}");
        }
    }
}

/// The Fig. 4 video pipeline, stream and merge-split, on all three
/// engines: frames preload through the striped store's write leaf, and
/// every run processes the same frames to the same checksum.
#[test]
fn video_pipeline_is_identical_across_engines() {
    use dps::sfs::video::{run_video, VideoConfig};

    let mut outs = Vec::new();
    for use_stream in [true, false] {
        let cfg = VideoConfig {
            frames: 5,
            parts: 3,
            part_bytes: 4096,
            nodes: 3,
            use_stream,
        };
        let sim = run_video(&mut SimEngine::new(ClusterSpec::paper_testbed(3)), &cfg).unwrap();
        let mt = {
            let mut eng = MtEngine::new(3);
            let out = run_video(&mut eng, &cfg).unwrap();
            eng.shutdown();
            out
        };
        let net = NetEngine::loopback(3, NetEngineConfig::default(), |eng| {
            run_video(eng, &cfg).unwrap()
        });
        for (name, (_, frames, checksum)) in [("sim", sim), ("mt", mt), ("net", net)] {
            outs.push((use_stream, name, frames, checksum));
        }
    }
    let (_, _, frames, checksum) = outs[0];
    assert_eq!(frames, 5);
    for &(use_stream, name, f, c) in &outs {
        assert_eq!(
            (f, c),
            (frames, checksum),
            "stream={use_stream} on {name} diverged"
        );
    }
}

/// Write a file through the striped store's write service and read it
/// back through its read service.
fn striped_round_trip<E: Engine>(eng: &mut E, disks: usize, data: &[u8]) -> (u32, Vec<u8>) {
    use dps::sfs::{
        build_read_graph, build_write_graph, FileData, ReadFileReq, StripeStore, WriteAck,
        WriteFileReq,
    };
    let app = eng.app("sfs");
    let master: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mapping = dps::cluster::default_mapping(disks, 1);
    let servers: ThreadCollection<StripeStore> =
        eng.thread_collection(app, "disks", &mapping).unwrap();
    let write = build_write_graph(eng, &master, &servers, None).unwrap();
    let read = build_read_graph(eng, &master, &servers, None).unwrap();
    let file = 7;
    let req = WriteFileReq {
        file,
        data: data.to_vec().into(),
    };
    eng.submit(write, Box::new(req)).unwrap();
    eng.run_to_idle(write, 1).unwrap();
    let ack = eng.take_outputs(write).pop().unwrap();
    let stripes = dps::core::downcast::<WriteAck>(ack).unwrap().stripes;
    eng.submit(read, Box::new(ReadFileReq { file, stripes }))
        .unwrap();
    eng.run_to_idle(read, 1).unwrap();
    let out = eng.take_outputs(read).pop().unwrap();
    let back = dps::core::downcast::<FileData>(out)
        .unwrap()
        .data
        .into_vec();
    (stripes, back)
}

/// The striped file services hold their stripes in thread state on every
/// engine: a file written through one graph reads back whole through the
/// other, on the simulator, on OS threads and over the wire protocol.
#[test]
fn striped_store_round_trips_on_every_engine() {
    let data: Vec<u8> = (0..5 * 64 * 1024 + 123).map(|i| (i % 251) as u8).collect();
    let sim = striped_round_trip(&mut SimEngine::new(ClusterSpec::paper_testbed(3)), 3, &data);
    let mt = {
        let mut eng = MtEngine::new(3);
        let out = striped_round_trip(&mut eng, 3, &data);
        eng.shutdown();
        out
    };
    let net = NetEngine::loopback(3, NetEngineConfig::default(), |eng| {
        striped_round_trip(eng, 3, &data)
    });
    for (name, (stripes, back)) in [("sim", sim), ("mt", mt), ("net", net)] {
        assert_eq!(stripes, 6, "{name}: one ack per 64 KiB stripe");
        assert!(back == data, "{name}: the file did not read back whole");
    }
}

dps_token! {
    /// One cell of a loop nest: where it sits (`path`, one base-8 digit per
    /// level) and the fan-out of each level; on the way back, what the cells
    /// under it summed to and how many there were.
    pub struct Cell { pub path: u64, pub fan: u32, pub sum: u64, pub count: u32 }
}

/// One level of the nest: a cell opens a wave of `fan` cells under it.
struct Nest;
impl SplitOperation for Nest {
    type Thread = ();
    type In = Cell;
    type Out = Cell;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Cell>, c: Cell) {
        for digit in 0..u64::from(c.fan) {
            let path = c.path * 8 + digit;
            ctx.post(Cell { path, ..c });
        }
    }
}

/// The innermost cell's weight.
struct Weigh;
impl LeafOperation for Weigh {
    type Thread = ();
    type In = Cell;
    type Out = Cell;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Cell>, c: Cell) {
        let sum = c.path.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ c.path;
        ctx.post(Cell { sum, count: 1, ..c });
    }
}

/// A stream over the innermost wave: each cell passes on as it arrives, so
/// its output wave is framed at depth 3 too.
struct Pass;
impl StreamOperation for Pass {
    type Thread = ();
    type In = Cell;
    type Out = Cell;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Cell>, c: Cell) {
        ctx.post(c);
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Cell>) {}
}

/// Closes one level: the cells of a wave add up into their parent.
#[derive(Default)]
struct Fold(Option<Cell>);
impl MergeOperation for Fold {
    type Thread = ();
    type In = Cell;
    type Out = Cell;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Cell>, c: Cell) {
        let path = c.path / 8;
        let acc = self.0.get_or_insert(Cell {
            path,
            sum: 0,
            count: 0,
            ..c
        });
        assert_eq!(acc.path, path, "a wave holds the cells of one parent");
        acc.sum = acc.sum.wrapping_add(c.sum);
        acc.count += c.count;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Cell>) {
        ctx.post(self.0.take().expect("a wave has cells"));
    }
}

/// Three splits deep: split → split → split → leaf → stream → merge →
/// merge → merge, the splits and merges on `node0`, the leaf and the stream
/// on every node — so the envelopes of the innermost waves hold three frames
/// (past what they hold in place) and cross the wire on `net`.
fn nested_three_deep<E: Engine>(eng: &mut E, workers_n: usize, fan: u32) -> Cell {
    let app = eng.app("nest");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
    let mapping = dps::cluster::default_mapping(workers_n, 1);
    let workers: ThreadCollection<()> = eng.thread_collection(app, "w", &mapping).unwrap();
    let mut b = GraphBuilder::new("nest");
    let s1 = b.split(&main, || ToThread(0), || Nest);
    let s2 = b.split(&main, || ToThread(0), || Nest);
    let s3 = b.split(&main, || ToThread(0), || Nest);
    let leaf = b.leaf(&workers, RoundRobin::new, || Weigh);
    let pass = b.stream(&workers, RoundRobin::new, || Pass);
    let m3 = b.merge(&main, || ToThread(0), Fold::default);
    let m2 = b.merge(&main, || ToThread(0), Fold::default);
    let m1 = b.merge(&main, || ToThread(0), Fold::default);
    b.add(s1 >> s2 >> s3 >> leaf >> pass >> m3 >> m2 >> m1);
    let app: Application<E, Cell, Cell> = Application::build(eng, b).unwrap();
    let root = Cell {
        path: 0,
        fan,
        sum: 0,
        count: 0,
    };
    *app.call(eng, root).unwrap()
}

/// A graph nested three splits deep computes the same cell, byte for byte,
/// on the simulator, on OS threads and over the in-process wire protocol,
/// and every level's waves complete with every cell counted once.
#[test]
fn a_three_deep_nest_is_byte_identical_across_engines() {
    for (workers_n, fan) in [(1, 1), (2, 3), (3, 4)] {
        let sim = {
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(workers_n));
            nested_three_deep(&mut eng, workers_n, fan)
        };
        let mt = {
            let mut eng = MtEngine::new(workers_n);
            let out = nested_three_deep(&mut eng, workers_n, fan);
            eng.shutdown();
            out
        };
        let net = NetEngine::loopback(workers_n, NetEngineConfig::default(), |eng| {
            nested_three_deep(eng, workers_n, fan)
        });
        assert_eq!(sim.count, fan.pow(3), "workers {workers_n} fan {fan}");
        let expect = (0..8u64.pow(3))
            .filter(|p| (0..3).all(|l| (p >> (3 * l)) % 8 < u64::from(fan)))
            .map(|p| p.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ p)
            .fold(0u64, u64::wrapping_add);
        assert_eq!(sim.sum, expect, "workers {workers_n} fan {fan}");
        assert_eq!(
            wire_encoding(&sim),
            wire_encoding(&mt),
            "sim and mt, fan {fan}"
        );
        assert_eq!(
            wire_encoding(&sim),
            wire_encoding(&net),
            "sim and net, fan {fan}"
        );
    }
}

/// On every track of a merged trace, no operation of a wave starts before
/// the first token of that wave is delivered to the track. Returns how many
/// (track, wave) pairs on a worker's node (`node ≥ 1`) were checked.
fn ops_follow_deliveries(log: &dps::obs::TraceLog) -> usize {
    use dps::obs::EventKind;
    use std::collections::BTreeMap;

    let mut delivered: BTreeMap<(u16, u16, u32), u64> = BTreeMap::new();
    let mut started: BTreeMap<(u16, u16, u32), u64> = BTreeMap::new();
    for e in &log.events {
        let (first, wave) = match e.kind {
            EventKind::TokenDeliver { wave, .. } => (&mut delivered, wave),
            EventKind::OpStart { wave, .. } => (&mut started, wave),
            _ => continue,
        };
        let at = first.entry((e.node, e.thread, wave)).or_insert(e.at);
        *at = (*at).min(e.at);
    }
    let mut remote = 0;
    for (&(node, thread, wave), &at) in &delivered {
        if let Some(&start) = started.get(&(node, thread, wave)) {
            assert!(
                start >= at,
                "an op of wave {wave} starts on ({node},{thread}) at {start} ns, \
                 {} ns before the wave's first token is delivered there",
                at - start
            );
            remote += usize::from(node >= 1);
        }
    }
    remote
}

/// Chunked pipelined LU across two real processes over TCP, traced: the
/// factors are bit for bit `MtEngine`'s, and the log the master merges —
/// the worker's stamps moved onto the master's clock — never has an
/// operation start on a track before its wave's first token reached that
/// track.
#[test]
fn traced_chunked_lu_across_processes_matches_mt_in_order() {
    use dps::linalg::parallel::lu::{run_lu, LuConfig};
    use dps::obs::TraceCollector;
    use dps::sched::Distribution;

    let cfg = LuConfig {
        n: 64,
        r: 8,
        pipelined: true,
        seed: 17,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: 3,
    };
    // Made first: the master's clock starts before it spawns the worker,
    // the worker's only once that process runs.
    let sink = TraceCollector::new();
    let mt = {
        let mut eng = MtEngine::new(cfg.nodes);
        let rep = run_lu(&mut eng, &cfg).unwrap();
        eng.shutdown();
        rep.factors
    };
    let mut eng = NetEngine::from_env(
        cfg.nodes,
        spmd_test_config("traced_chunked_lu_across_processes_matches_mt_in_order"),
    )
    .expect("net engine setup");
    eng.set_trace_sink(sink.clone());
    let net = run_lu(&mut eng, &cfg).unwrap().factors;
    eng.shutdown();
    assert_eq!(net.pivots, mt.pivots, "pivots diverged");
    assert_eq!(net.lu, mt.lu, "factor bits diverged");
    if eng.is_master() {
        let checked = ops_follow_deliveries(&sink.take_log());
        assert!(checked > 0, "no worker track took a token");
    }
}

/// A traced matrix multiply across two real processes over TCP sends the
/// frames it always did, and far fewer bytes: each operand strip crosses
/// the connection at most once, however many of the worker's tasks read
/// it. The bound is that, plus the result blocks coming back, plus the
/// product broadcast, plus a kilobyte a frame; sending a strip once per
/// task, as a connection without a buffer table does, exceeds it.
#[test]
fn traced_matmul_across_processes_sends_each_strip_once() {
    use dps::linalg::parallel::matmul::{run_matmul, MatMulConfig};
    use dps::obs::{Counter, TraceCollector};
    use dps::sched::Distribution;
    use std::time::Duration;

    let cfg = MatMulConfig {
        n: 256,
        s: 4,
        pipelined: true,
        seed: 3,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
    };
    let mt = {
        let mut eng = MtEngine::new(cfg.nodes);
        let rep = run_matmul(&mut eng, &cfg, 0).unwrap();
        eng.shutdown();
        rep.c
    };
    // No heartbeat joins the count.
    let mut net_cfg = spmd_test_config("traced_matmul_across_processes_sends_each_strip_once");
    net_cfg.timeouts.heartbeat_interval = Duration::from_secs(3600);
    let mut eng = NetEngine::from_env(cfg.nodes, net_cfg).expect("net engine setup");
    let sink = TraceCollector::new();
    eng.set_trace_sink(sink.clone());
    let net = run_matmul(&mut eng, &cfg, 0).unwrap().c;
    let metrics = sink.metrics();
    let (frames, bytes) = (
        metrics.get(Counter::FramesSent),
        metrics.get(Counter::WireBytesSent),
    );
    eng.shutdown();
    assert_eq!(net.as_slice(), mt.as_slice(), "product bits diverged");
    if eng.is_master() {
        assert_eq!(frames, MATMUL_FRAMES, "frames through rank 0");
        let (n, s) = (cfg.n as u64, cfg.s as u64);
        let block = (n / s) * (n / s) * 8;
        let strips = 2 * s * (s * block);
        let results = s * s * block + n * n * 8;
        let bound = strips + results + frames * 1024;
        assert!(bytes <= bound, "{bytes} wire bytes, bound {bound}");
    }
}

/// A loader's token names its operand by a seed: `LoadColumn` and
/// `LoadOperands` encode to as many bytes at any order, so staging an
/// operand puts no matrix byte on a connection; the thread that keeps it
/// generates it.
#[test]
fn a_loaders_token_is_as_long_at_any_order() {
    use dps::linalg::parallel::lu::LoadColumn;
    use dps::linalg::parallel::matmul::LoadOperands;
    use dps::netengine::proto::encode_token;

    let column = |rows| {
        encode_token(&LoadColumn {
            j: 3,
            rows,
            r: 8,
            seed: 5,
        })
        .len()
    };
    let operands = |n| encode_token(&LoadOperands { n, s: 8, seed: 5 }).len();
    for n in [64, 1024, 1 << 20] {
        assert_eq!(column(n), column(16), "LoadColumn at n = {n}");
        assert_eq!(operands(n), operands(16), "LoadOperands at n = {n}");
    }
    assert!(column(1024) < 64 && operands(1024) < 64);
}

/// Frames through rank 0 of `traced_matmul_across_processes_sends_each_strip_once`:
/// 25 as the commit before connection buffer tables counted them, less
/// the trace request each of the two runs (the loader's and the
/// product's) sent its worker before a traced worker answered its
/// `Release` with its log unasked, less the `Output` frame each of the
/// two runs sent its one output in before its `Release` came to carry it.
const MATMUL_FRAMES: u64 = 25 - 2 - 2;

/// Fault tolerance across real processes: a worker carrying a scheduled
/// kill dies abruptly mid-scheduled-LU (no Release handshake — the master
/// sees a plain EOF/connection reset). The run must **never hang**: it
/// either completes on the survivors with the bit-exact reference factors,
/// or degrades to a clean `NodeDown`/`IncompleteWaves` — detection is
/// bounded by the heartbeat budget, well under the exec timeout. Every
/// process (master and surviving workers) applies the same outcome check,
/// so a survivor panicking on degradation would fail the master's
/// shutdown too.
#[test]
fn worker_death_mid_scheduled_lu_never_hangs_across_processes() {
    use dps::core::DpsError;
    use dps::linalg::parallel::lu::{run_lu, LuConfig};
    use dps::linalg::{blocked_lu, Matrix};
    use dps::netengine::NetKill;
    use dps::sched::{Distribution, PolicyKind};

    let cfg = LuConfig {
        n: 32,
        r: 8,
        pipelined: true,
        seed: 33,
        nodes: 3,
        threads_per_node: 1,
        dist: Distribution::Scheduled(PolicyKind::Tss),
        update_chunks: 2,
    };
    let mut net_cfg =
        spmd_test_config("worker_death_mid_scheduled_lu_never_hangs_across_processes");
    net_cfg.kills = vec![NetKill {
        rank: 2,
        after_frames: 5,
    }];
    let mut eng = NetEngine::from_env(3, net_cfg).expect("net engine setup");
    let res = run_lu(&mut eng, &cfg);
    // No survivor is left holding an open chunk lease: a lease lives in
    // the hub of the process that opened it (a dead rank's die with it),
    // so every process that gets here checks its own.
    let abandoned = eng.chunk_hub().abandoned_leases();
    assert!(
        abandoned.is_empty(),
        "rank {} is left with {} open chunk lease(s)",
        eng.rank(),
        abandoned.len()
    );
    eng.shutdown();
    match res {
        Ok(rep) => {
            let a = Matrix::random_general(cfg.n, cfg.n, cfg.seed);
            let reference = blocked_lu(&a, cfg.r);
            assert_eq!(rep.factors.pivots, reference.pivots, "pivots diverged");
            assert_eq!(
                rep.factors.lu, reference.lu,
                "completed despite the kill, but with wrong factors"
            );
        }
        Err(DpsError::NodeDown { .. }) | Err(DpsError::IncompleteWaves { .. }) => {}
        Err(e) => panic!("unclean degradation after worker death: {e}"),
    }
}

/// Block matmul through the generic `run_matmul` entry point on OS threads.
#[test]
fn matmul_runs_on_real_threads_via_the_generic_driver() {
    use dps::linalg::parallel::matmul::{run_matmul, MatMulConfig};
    use dps::linalg::Matrix;
    use dps::sched::Distribution;

    let cfg = MatMulConfig {
        n: 32,
        s: 2,
        pipelined: true,
        seed: 5,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
    };
    let mut eng = MtEngine::new(2);
    let rep = run_matmul(&mut eng, &cfg, 0).unwrap();
    eng.shutdown();
    let a = Matrix::random(cfg.n, cfg.n, cfg.seed);
    let b = Matrix::random(cfg.n, cfg.n, cfg.seed.wrapping_add(1));
    let mut diff = rep.c.clone();
    diff.sub_assign(&a.matmul(&b));
    assert!(diff.max_abs() < 1e-9, "wrong product: {}", diff.max_abs());
}

/// A scheduled loop through the generic `run_dls` entry point on OS
/// threads, with the AWF-C chunk-time-weighted feedback board: every
/// iteration is scheduled exactly once and wall-clock reports flow.
#[test]
fn dls_runs_on_real_threads_via_the_generic_driver() {
    use dps::sched::PolicyKind;
    use dps_bench::dls::{matmul_cost, run_dls, DlsConfig};

    let mut eng = MtEngine::new(3);
    let rep = run_dls(
        &mut eng,
        matmul_cost(16),
        &DlsConfig {
            iters: 120,
            steps: 2,
            policy: PolicyKind::AwfC,
            flow_window: 6,
        },
        3,
    )
    .unwrap();
    eng.shutdown();
    assert_eq!(rep.per_step.len(), 2);
    assert!(rep.chunks.iter().all(|&c| c >= 1));
}

/// `MtEngine` keeps the name an application was declared under and
/// qualifies the node names of its runtime errors with it.
#[test]
fn mt_engine_app_name_is_stored_and_surfaced_in_errors() {
    dps_token! { pub struct Ping { pub x: u32 } }
    dps_token! { pub struct Pong { pub x: u32 } }

    /// A leaf violating its contract (posts nothing) — the error must name
    /// the owning application.
    struct Mute;
    impl LeafOperation for Mute {
        type Thread = ();
        type In = Ping;
        type Out = Pong;
        fn execute(&mut self, _ctx: &mut OpCtx<'_, (), Pong>, _t: Ping) {}
    }

    let mut eng = MtEngine::new(1);
    let app = eng.app("volume-unit");
    assert_eq!(eng.app_name(app), "volume-unit");
    let tc: ThreadCollection<()> = eng.thread_collection(app, "t", "node0").unwrap();
    let mut b = GraphBuilder::new("mute");
    let _ = b.leaf(&tc, || ToThread(0), || Mute);
    let g = eng.build_graph(b).unwrap();
    Engine::submit(&mut eng, g, Box::new(Ping { x: 1 })).unwrap();
    let err = eng.run_to_idle(g, 1).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("volume-unit"),
        "error must carry the app name: {msg}"
    );
    eng.shutdown();
}

/// A graph is checked against the collections it names where it is
/// declared, on every engine: a node on a collection its application never
/// declared, or whose operation expects another thread-data type than the
/// collection holds, never reaches a run. Nothing is submitted.
fn rejects_bad_declarations<E: Engine>(eng: &mut E) {
    use dps::core::DpsError;
    dps_token! { pub struct Tick { pub x: u32 } }

    struct Count;
    impl LeafOperation for Count {
        type Thread = u64;
        type In = Tick;
        type Out = Tick;
        fn execute(&mut self, ctx: &mut OpCtx<'_, u64, Tick>, t: Tick) {
            *ctx.thread() += 1;
            ctx.post(t);
        }
    }

    let app = eng.app("bad");
    let declared: ThreadCollection<()> = eng.thread_collection(app, "t", "node0").unwrap();
    let (app_index, tc_index) = declared.raw_ids();

    let ghost: ThreadCollection<u64> = ThreadCollection::from_raw(app_index, tc_index + 7, 1);
    let mut b = GraphBuilder::new("ghost");
    let _ = b.leaf(&ghost, || ToThread(0), || Count);
    let err = eng.build_graph(b).unwrap_err();
    assert!(
        matches!(err, DpsError::UnmappedCollection { .. }),
        "{}: {err}",
        eng.name()
    );

    let mistyped: ThreadCollection<u64> = ThreadCollection::from_raw(app_index, tc_index, 1);
    let mut b = GraphBuilder::new("mistyped");
    let _ = b.leaf(&mistyped, || ToThread(0), || Count);
    let err = eng.build_graph(b).unwrap_err();
    assert!(
        matches!(&err, DpsError::InvalidGraph { reason } if reason.contains("thread-data type")),
        "{}: {err}",
        eng.name()
    );
}

#[test]
fn every_engine_rejects_bad_declarations_at_build_graph() {
    rejects_bad_declarations(&mut SimEngine::new(ClusterSpec::paper_testbed(2)));
    rejects_bad_declarations(&mut MtEngine::new(2));
    NetEngine::loopback(2, NetEngineConfig::default(), rejects_bad_declarations);
}

/// The SPMD refusal: worker rank 1 exposes one service the master does
/// not, so the tables' signatures differ and the master's first `submit`
/// refuses the run before any token moves. The worker's own `submit` only
/// announces its signature; its `run_to_idle` fails once the master hangs
/// up, which it tolerates.
fn a_diverged_worker_is_refused(eng: &mut NetEngine) {
    use dps::core::DpsError;

    let app = eng.app("spmd");
    let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0 node1").unwrap();
    let mut b = GraphBuilder::new("scatter-gather");
    let s = b.split(&main, || ToThread(0), || Scatter);
    let l = b.leaf(&main, || ToThread(1), || SumShard);
    let m = b.merge(&main, || ToThread(0), Gather::default);
    b.add(s >> l >> m);
    let g = eng.build_graph(b).unwrap();
    if eng.rank() == 1 {
        eng.expose_service(g, "only-on-the-worker");
    }
    let submitted = eng.submit(g, Box::new(input(2, 10)));
    if eng.is_master() {
        let err = submitted.unwrap_err();
        assert!(
            matches!(&err, DpsError::InvalidGraph { reason }
                if reason.contains("declared a different schedule")),
            "{err}"
        );
    } else {
        submitted.unwrap();
        let err = eng.run_to_idle(g, 1).unwrap_err();
        assert!(matches!(err, DpsError::IncompleteWaves { .. }), "{err}");
    }
}

/// [`a_diverged_worker_is_refused`] across two real processes: both exit
/// cleanly.
#[test]
fn a_diverged_worker_is_refused_at_the_first_submit_across_processes() {
    let test = "a_diverged_worker_is_refused_at_the_first_submit_across_processes";
    let mut eng = NetEngine::from_env(2, spmd_test_config(test)).expect("net engine setup");
    a_diverged_worker_is_refused(&mut eng);
    eng.shutdown();
}

/// [`a_diverged_worker_is_refused`] on two ranks of one process: the sync
/// barrier runs there too.
#[test]
fn a_diverged_loopback_rank_is_refused_at_the_first_submit() {
    NetEngine::loopback(2, NetEngineConfig::default(), a_diverged_worker_is_refused);
}
