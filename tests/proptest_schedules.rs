//! Property tests over whole parallel schedules: token conservation,
//! engine determinism, and application-level equivalence with sequential
//! references under randomized parameters.

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, EngineConfig, SimEngine};
use dps::life::{run_life, LifeConfig, Variant, World};
use dps::linalg::parallel::lu::{run_lu, LuConfig};
use dps::linalg::{lu_residual, Matrix};
use dps::sched::Distribution;
use dps::sched::{ChunkScheduler, PolicyKind};
use proptest::prelude::*;

dps_token! {
    pub struct Root { pub fan: u32, pub inner: u32 }
}
dps_token! {
    pub struct Mid { pub id: u32, pub inner: u32 }
}
dps_token! {
    pub struct Leaf2 { pub id: u32 }
}
dps_token! {
    pub struct Sub { pub count: u32 }
}
dps_token! {
    pub struct TotalTok { pub count: u64 }
}

struct OuterSplit;
impl SplitOperation for OuterSplit {
    type Thread = ();
    type In = Root;
    type Out = Mid;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Mid>, r: Root) {
        for id in 0..r.fan {
            ctx.post(Mid { id, inner: r.inner });
        }
    }
}
struct InnerSplit;
impl SplitOperation for InnerSplit {
    type Thread = ();
    type In = Mid;
    type Out = Leaf2;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Leaf2>, m: Mid) {
        for id in 0..m.inner {
            ctx.post(Leaf2 { id });
        }
    }
}
#[derive(Default)]
struct InnerMerge {
    n: u32,
}
impl MergeOperation for InnerMerge {
    type Thread = ();
    type In = Leaf2;
    type Out = Sub;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Sub>, _l: Leaf2) {
        self.n += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Sub>) {
        ctx.post(Sub { count: self.n });
    }
}
#[derive(Default)]
struct OuterMerge {
    total: u64,
}
impl MergeOperation for OuterMerge {
    type Thread = ();
    type In = Sub;
    type Out = TotalTok;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), TotalTok>, s: Sub) {
        self.total += u64::from(s.count);
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), TotalTok>) {
        ctx.post(TotalTok { count: self.total });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Nested split/merge token accounting is exact for any fan-outs, node
    /// counts, and flow windows: the outer merge sees fan × inner tokens.
    #[test]
    fn nested_waves_conserve_tokens(
        fan in 1u32..12,
        inner in 1u32..9,
        nodes in 1usize..5,
        window in prop_oneof![Just(0u32), 1u32..16],
    ) {
        let cfg = EngineConfig {
            flow_window: window,
            ..EngineConfig::default()
        };
        let mut eng = SimEngine::with_config(ClusterSpec::paper_testbed(nodes), cfg);
        let app = eng.app("prop");
        let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
        let mapping = dps::cluster::default_mapping(nodes, 2);
        let workers: ThreadCollection<()> = eng.thread_collection(app, "w", &mapping).unwrap();
        let mut b = GraphBuilder::new("nested");
        let s1 = b.split(&main, || ToThread(0), || OuterSplit);
        let s2 = b.split(&workers, RoundRobin::new, || InnerSplit);
        let m1 = b.merge(&workers, || ByKey::new(|l: &Leaf2| l.id as usize), InnerMerge::default);
        let m2 = b.merge(&main, || ToThread(0), OuterMerge::default);
        b.add(s1 >> s2 >> m1 >> m2);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Root { fan, inner })).unwrap();
        eng.run_until_idle().unwrap();
        let outs = eng.take_outputs(g);
        prop_assert_eq!(outs.len(), 1);
        let total = downcast::<TotalTok>(outs.into_iter().next().unwrap()).unwrap();
        prop_assert_eq!(total.count, u64::from(fan) * u64::from(inner));
    }

    /// The virtual clock is a pure function of the configuration.
    #[test]
    fn engine_time_is_reproducible(fan in 1u32..10, inner in 1u32..6) {
        let run = || {
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(3));
            let app = eng.app("det");
            let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
            let workers: ThreadCollection<()> =
                eng.thread_collection(app, "w", "node0 node1 node2").unwrap();
            let mut b = GraphBuilder::new("nested");
            let s1 = b.split(&main, || ToThread(0), || OuterSplit);
            let s2 = b.split(&workers, RoundRobin::new, || InnerSplit);
            let m1 = b.merge(
                &workers,
                || ByKey::new(|l: &Leaf2| l.id as usize),
                InnerMerge::default,
            );
            let m2 = b.merge(&main, || ToThread(0), OuterMerge::default);
            b.add(s1 >> s2 >> m1 >> m2);
            let g = eng.build_graph(b).unwrap();
            eng.submit(g, Box::new(Root { fan, inner })).unwrap();
            eng.run_until_idle().unwrap();
            eng.now().as_nanos()
        };
        prop_assert_eq!(run(), run());
    }

    /// Parallel Life equals the sequential reference for random worlds,
    /// shapes, and both graph variants.
    #[test]
    fn life_equals_reference(
        rows in 6usize..20,
        cols in 4usize..16,
        iters in 1usize..4,
        nodes in 1usize..4,
        improved in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = LifeConfig {
            rows,
            cols,
            iterations: iters,
            variant: if improved { Variant::Improved } else { Variant::Simple },
            nodes,
            threads_per_node: 1,
            density: 0.35,
            seed,
            dist: Distribution::Static,
        };
        let rep = run_life(&mut SimEngine::new(ClusterSpec::paper_testbed(nodes)), &cfg).unwrap();
        let expect = World::random(rows, cols, 0.35, seed).step_n(iters);
        prop_assert_eq!(rep.world, expect);
    }

    /// Chunk-policy partition invariants: for every policy, iteration
    /// count, worker count, and rate skew, the scheduled chunks are
    /// non-empty, contiguous/non-overlapping, target valid workers, and
    /// sum to exactly `N`.
    #[test]
    fn chunk_policies_partition_exactly(
        n in 0u64..5000,
        p in 1usize..9,
        skew in 1u64..5,
        kind_idx in 0usize..6,
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        // Skewed weights (normalized), as AWF would produce on a cluster
        // whose node rates differ by up to `skew`×.
        let raw: Vec<f64> = (0..p).map(|i| 1.0 + (i as u64 % skew) as f64).collect();
        let total_w: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total_w).collect();
        let mut sched = ChunkScheduler::new(kind.build(), n, p, &weights);
        let mut covered = 0u64;
        let mut next = 0u64;
        while let Some(c) = sched.next_chunk() {
            prop_assert!(c.len >= 1, "{:?}: empty chunk", kind);
            prop_assert_eq!(c.start, next, "{:?}: gap or overlap", kind);
            prop_assert!((c.worker as usize) < p, "{:?}: bad worker", kind);
            next = c.end();
            covered += c.len;
        }
        prop_assert_eq!(covered, n, "{:?}: lost or duplicated iterations", kind);
        prop_assert_eq!(sched.remaining(), 0);
        if kind == PolicyKind::Static {
            prop_assert!(sched.chunks_issued() as usize <= p);
        }
        if kind == PolicyKind::Ss {
            prop_assert_eq!(sched.chunks_issued() as u64, n);
        }
    }

    /// The distributed LU factorizes random (pivot-forcing) matrices with a
    /// small residual for any block/worker configuration.
    #[test]
    fn lu_residual_is_small(
        nb in 2usize..5,
        r in prop_oneof![Just(4usize), Just(8usize)],
        nodes in 1usize..4,
        pipelined in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = LuConfig {
            n: nb * r,
            r,
            pipelined,
            seed,
            nodes,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        };
        let rep = run_lu(&mut SimEngine::new(ClusterSpec::paper_testbed(nodes)), &cfg).unwrap();
        let a = Matrix::random_general(nb * r, nb * r, seed);
        prop_assert!(lu_residual(&a, &rep.factors) < 1e-8);
    }
}
