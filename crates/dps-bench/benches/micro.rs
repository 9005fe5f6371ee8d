//! Criterion micro-benchmarks of the framework's hot paths: serialization,
//! envelope algebra, routing, the discrete-event engine, and the numeric
//! kernels behind the paper's applications.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dps_core::prelude::*;
use dps_core::{dps_token, Envelope, Frame, GNodeId};
use dps_des::{Sim, SimTime};
use dps_linalg::{gemm, Matrix};
use dps_serial::{from_bytes, to_bytes, Buffer};

dps_token! {
    pub struct SmallTok { pub a: u32, pub b: u64, pub name: String }
}
dps_token! {
    pub struct BigTok { pub id: u64, pub payload: Buffer<f64> }
}

fn bench_serialization(c: &mut Criterion) {
    let mut g = c.benchmark_group("serialization");
    let small = SmallTok {
        a: 7,
        b: 42,
        name: "CharToken".into(),
    };
    g.bench_function("small_roundtrip", |b| {
        b.iter(|| {
            let bytes = to_bytes(black_box(&small));
            let got: SmallTok = from_bytes(&bytes).unwrap();
            black_box(got)
        })
    });
    let big = BigTok {
        id: 1,
        payload: vec![1.0f64; 8192].into(),
    };
    g.throughput(Throughput::Bytes(big.payload.len() as u64 * 8));
    g.bench_function("block_64k_roundtrip", |b| {
        b.iter(|| {
            let bytes = to_bytes(black_box(&big));
            let got: BigTok = from_bytes(&bytes).unwrap();
            black_box(got)
        })
    });
    g.finish();
}

fn bench_envelope(c: &mut Criterion) {
    c.bench_function("envelope/push_pop_key", |b| {
        b.iter(|| {
            let mut env = Envelope::root();
            for d in 0..4u32 {
                env.push(Frame {
                    src: GNodeId(d),
                    wave: u64::from(d) * 17,
                    index: d,
                    total: None,
                });
            }
            let key = env.wave_key();
            black_box((env.pop(), key))
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    dps_token! { pub struct K { pub k: u32 } }
    let info = RouteInfo {
        thread_count: 8,
        load: None,
    };
    c.bench_function("route/round_robin", |b| {
        let mut r = RoundRobin::new();
        b.iter(|| black_box(Route::<K>::route(&mut r, &K { k: 3 }, &info)))
    });
    c.bench_function("route/by_key", |b| {
        let mut r = ByKey::new(|t: &K| t.k as usize);
        b.iter(|| black_box(r.route(&K { k: 1234 }, &info)))
    });
}

fn bench_des(c: &mut Criterion) {
    c.bench_function("des/10k_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0u64);
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime(i % 97), |s| s.world += 1);
            }
            sim.run();
            black_box(sim.world)
        })
    });
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    let a = Matrix::random(64, 64, 1);
    let bm = Matrix::random(64, 64, 2);
    g.throughput(Throughput::Elements(2 * 64 * 64 * 64));
    g.bench_function("gemm_64", |b| {
        b.iter(|| {
            let mut cm = Matrix::zeros(64, 64);
            gemm(1.0, black_box(&a), black_box(&bm), 0.0, &mut cm);
            black_box(cm)
        })
    });
    g.finish();

    let w = dps_life::World::random(128, 128, 0.3, 3);
    c.bench_function("life_step_128", |b| b.iter(|| black_box(w.step())));
}

fn bench_engine_end_to_end(c: &mut Criterion) {
    // A complete split-compute-merge schedule per iteration: measures the
    // full framework overhead per run.
    dps_token! { pub struct Job { pub n: u32 } }
    dps_token! { pub struct Item { pub i: u32 } }
    dps_token! { pub struct Done { pub sum: u64 } }
    struct Fan;
    impl SplitOperation for Fan {
        type Thread = ();
        type In = Job;
        type Out = Item;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, j: Job) {
            for i in 0..j.n {
                ctx.post(Item { i });
            }
        }
    }
    struct Id;
    impl LeafOperation for Id {
        type Thread = ();
        type In = Item;
        type Out = Item;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Item>, t: Item) {
            ctx.post(t);
        }
    }
    #[derive(Default)]
    struct Sum {
        s: u64,
    }
    impl MergeOperation for Sum {
        type Thread = ();
        type In = Item;
        type Out = Done;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Done>, t: Item) {
            self.s += u64::from(t.i);
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Done>) {
            ctx.post(Done { sum: self.s });
        }
    }
    c.bench_function("engine/split_64_merge", |b| {
        b.iter(|| {
            let mut eng = SimEngine::new(dps_cluster::ClusterSpec::paper_testbed(4));
            let app = eng.app("bench");
            eng.preload_app(app);
            let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
            let w: ThreadCollection<()> = eng
                .thread_collection(app, "w", "node0 node1 node2 node3")
                .unwrap();
            let mut gb = GraphBuilder::new("g");
            let s = gb.split(&main, || ToThread(0), || Fan);
            let l = gb.leaf(&w, RoundRobin::new, || Id);
            let m = gb.merge(&main, || ToThread(0), Sum::default);
            gb.add(s >> l >> m);
            let g = eng.build_graph(gb).unwrap();
            eng.submit(g, Box::new(Job { n: 64 })).unwrap();
            eng.run_until_idle().unwrap();
            black_box(eng.take_outputs(g))
        })
    });
}

/// The per-chunk hot path in isolation: feedback reports on the sharded
/// board, and lock-free hub claims vs a raw counter claim. Single-threaded
/// ns/op; the repository benchmark's `sched.*` probes measure the
/// multi-worker throughput.
fn bench_hotpath(c: &mut Criterion) {
    use dps_sched::{ChunkCalc, ChunkHub, FeedbackBoard, FeedbackSink, IterCounter, PolicyKind};

    c.bench_function("hotpath/report_sharded", |b| {
        let board = FeedbackBoard::new();
        b.iter(|| board.report_chunk(black_box(3), 16, 1.0e-4))
    });
    c.bench_function("hotpath/weights_fold_8", |b| {
        let board = FeedbackBoard::new();
        for w in 0..8 {
            for _ in 0..64 {
                board.report_chunk(w, 16, 1.0e-4);
            }
        }
        b.iter(|| black_box(board.weights(8)))
    });
    // Range chosen to stay on the packed single-CAS claim path: chunk
    // counts at or above 2^24 fall back to the mutex-guarded wide counter,
    // which is not the path these benchmarks defend.
    const CLAIM_RANGE: u64 = (1 << 23) - 1;
    c.bench_function("hotpath/hub_claim", |b| {
        let hub = ChunkHub::new();
        let mut lease = hub.open(ChunkCalc::new(PolicyKind::Ss, CLAIM_RANGE, 8, &[]));
        b.iter(|| {
            if hub.claim(lease.id).is_none() {
                lease = hub.open(ChunkCalc::new(PolicyKind::Ss, CLAIM_RANGE, 8, &[]));
            }
        })
    });
    c.bench_function("hotpath/counter_claim", |b| {
        let mut counter = IterCounter::new(ChunkCalc::new(PolicyKind::Ss, CLAIM_RANGE, 8, &[]));
        b.iter(|| {
            if counter.claim().is_none() {
                counter = IterCounter::new(ChunkCalc::new(PolicyKind::Ss, CLAIM_RANGE, 8, &[]));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_serialization,
    bench_envelope,
    bench_routing,
    bench_des,
    bench_kernels,
    bench_engine_end_to_end,
    bench_hotpath
);
criterion_main!(benches);
