//! Block matrix multiplication under DPS — the Table 1 experiment.
//!
//! The paper: "we run a program multiplying two square n × n matrices by
//! performing block-based matrix multiplications. Assuming that the n × n
//! matrix is split into s blocks horizontally and vertically, the amount of
//! communication is proportional to n²·(2s+1), whereas computation is
//! proportional to n³."
//!
//! One task exists per result block `C_ij` and carries its `s` operand-block
//! pairs (`2s·(n/s)²` values), reproducing exactly the paper's
//! communication count — what the simulator models. A load carries a
//! seed, not a matrix: the master's DPS thread generates the operands
//! itself, strip by strip, as the strips its tasks carry, so no driver
//! (and on `net` no worker rank's copy of the driver) builds a matrix.
//! The split takes the strips: the tasks of row `i` hold a handle to
//! `A`'s row strip `i`, those of column `j` one to `B`'s column strip `j`,
//! so the split copies nothing, each product reads its blocks where they
//! lie in the strips, and each strip is freed with the last task that
//! holds it — `A`'s row strip `i` when row `i`'s tasks are done, the `B`
//! strips when the last row's are. One load therefore serves one order: a
//! second [`MulOrder`] without a fresh [`LoadOperands`] finds no strips
//! and fails the run (the split posts no tokens). Between processes a
//! connection's buffer table sends each strip to a worker kernel once,
//! however many of its tasks read it, so at most `2n²` operand values
//! cross a connection, plus the results. Two schedules are provided:
//!
//! * **Pipelined** (plain DPS): `split → multiply → merge`; the runtime
//!   overlaps block transfers with block products automatically.
//! * **Phased** (the no-overlap baseline): a first split/merge construct
//!   distributes every operand block into worker thread storage and
//!   synchronizes; a second split/merge construct issues tiny compute
//!   orders. Communication and computation thus cannot overlap, which is
//!   what Table 1's "reduction in execution time" is measured against.

use dps_cluster::default_mapping_from;
use dps_core::prelude::*;
use dps_core::sched::{build_placement, OwnerMap};
use dps_core::{dps_token, Engine};
use dps_des::SimSpan;
use dps_sched::Distribution;
use dps_serial::Buffer;
use std::collections::HashMap;
use std::sync::Arc;

use crate::flops;
use crate::kernel::gemm_acc;
use crate::matrix::{Matrix, Strips};
use crate::view::MatRef;

dps_token! {
    /// Kick-off order for one multiplication.
    pub struct MulOrder { pub n: u32, pub s: u32 }
}

dps_token! {
    /// One result-block task: all operand blocks needed for `C_ij`.
    pub struct BlockTask {
        pub i: u32,
        pub j: u32,
        pub bs: u32,
        /// Row strip `i` of A (`bs × n`, row-major): its `s` blocks side by
        /// side.
        pub a: Buffer<f64>,
        /// Column strip `j` of B (`n × bs`, row-major): its `s` blocks one
        /// below the other.
        pub b: Buffer<f64>,
    }
}

dps_token! {
    /// A computed result block.
    pub struct BlockResult { pub i: u32, pub j: u32, pub bs: u32, pub c: Buffer<f64> }
}

dps_token! {
    /// Distribution of one result block's operands into worker storage
    /// (phased schedule only).
    pub struct StoreTask {
        pub i: u32,
        pub j: u32,
        pub bs: u32,
        /// Row strip `i` of A, as in [`BlockTask::a`].
        pub a: Buffer<f64>,
        /// Column strip `j` of B, as in [`BlockTask::b`].
        pub b: Buffer<f64>,
    }
}

dps_token! {
    /// Acknowledgement that a store task landed.
    pub struct StoreDone { pub i: u32, pub j: u32 }
}

dps_token! {
    /// Barrier token between the distribution and compute phases.
    pub struct PhaseDone { pub n: u32, pub s: u32 }
}

dps_token! {
    /// Tiny compute order of the phased schedule: operands already local.
    pub struct ComputeOrder { pub i: u32, pub j: u32, pub bs: u32 }
}

dps_token! {
    /// The assembled product (carried to the graph exit for verification).
    pub struct MulDone { pub n: u32, pub c: Buffer<f64> }
}

dps_token! {
    /// Have the master generate the operands of an `n × n` multiplication
    /// split `s` ways into its store: `A` = [`Matrix::random`]`(n, n, seed)`
    /// as its row strips and `B` = `Matrix::random(n, n, seed + 1)` as its
    /// column strips. The token carries the seed, not the matrices, so it
    /// is the same few bytes at any order. One load serves one order: the
    /// next split takes the strips.
    pub struct LoadOperands { pub n: u32, pub s: u32, pub seed: u64 }
}

dps_token! {
    /// Acknowledgement of a [`LoadOperands`].
    pub struct OperandsLoaded { pub n: u32 }
}

/// Master thread state: the operands, generated here by a load as the
/// strips their tasks carry and held until the next split takes them —
/// one load serves one order.
#[derive(Default)]
pub struct MasterState {
    /// Matrix order.
    pub n: usize,
    /// Left operand's row strips: strip `i` is rows `i·bs..(i+1)·bs`,
    /// `bs × n` row-major.
    pub a: Vec<Buffer<f64>>,
    /// Right operand's column strips: strip `j` is columns
    /// `j·bs..(j+1)·bs`, `n × bs` row-major.
    pub b: Vec<Buffer<f64>>,
}

/// Worker thread state for the phased schedule: stored operand blocks,
/// keyed by result-block index.
#[derive(Default)]
pub struct WorkerStore {
    blocks: HashMap<(u32, u32), (Buffer<f64>, Buffer<f64>)>,
}

/// `C_ij = Σ_k A_ik · B_kj`, each block multiplied where it lies: `A_ik`
/// in row strip `a` (`bs × n`), `B_kj` in column strip `b` (`n × bs`).
fn multiply_strips(a: &[f64], b: &[f64], bs: usize) -> Vec<f64> {
    let n = a.len() / bs;
    let (a, b) = (MatRef::from_slice(a, bs, n), MatRef::from_slice(b, n, bs));
    let mut c = Matrix::zeros(bs, bs);
    for k in (0..n).step_by(bs) {
        gemm_acc(
            1.0,
            a.block(0, k, bs, bs),
            b.block(k, 0, bs, bs),
            c.view_mut(),
        );
    }
    c.into_vec()
}

/// The body of both splits: one task per result block, built by `task`
/// from the strips the split takes out of the master. The master keeps no
/// handle, so each strip is freed with the last task that holds it, and a
/// second order without a fresh load finds no strips and posts nothing.
fn split_strips<T: Token>(
    ctx: &mut OpCtx<'_, MasterState, T>,
    o: MulOrder,
    task: impl Fn(u32, u32, u32, Buffer<f64>, Buffer<f64>) -> T,
) {
    let (n, s) = (o.n as usize, o.s as usize);
    let bs = n / s;
    let st = ctx.thread();
    let (a, b) = (std::mem::take(&mut st.a), std::mem::take(&mut st.b));
    for (i, a) in a.iter().enumerate() {
        for (j, b) in b.iter().enumerate() {
            // Sim's model of the paper's split building the task's data
            // object: one pass over its operand bytes. This code posts
            // handles to the strips and copies nothing, but the charge
            // stays, and with it Sim's schedule and Table 1.
            ctx.charge_flops((2 * s * bs * bs) as f64);
            ctx.post(task(i as u32, j as u32, bs as u32, a.clone(), b.clone()));
        }
    }
}

// --- pipelined schedule -----------------------------------------------------

struct SplitTasks;
impl SplitOperation for SplitTasks {
    type Thread = MasterState;
    type In = MulOrder;
    type Out = BlockTask;
    fn execute(&mut self, ctx: &mut OpCtx<'_, MasterState, BlockTask>, o: MulOrder) {
        split_strips(ctx, o, |i, j, bs, a, b| BlockTask { i, j, bs, a, b });
    }
}

struct MultiplyBlock;
impl LeafOperation for MultiplyBlock {
    type Thread = ();
    type In = BlockTask;
    type Out = BlockResult;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), BlockResult>, t: BlockTask) {
        let bs = t.bs as usize;
        let s = t.a.len() / (bs * bs);
        ctx.charge_flops((0..s).map(|_| flops::gemm_cost(bs, bs, bs)).sum());
        let c = multiply_strips(t.a.as_slice(), t.b.as_slice(), bs);
        ctx.post(BlockResult {
            i: t.i,
            j: t.j,
            bs: t.bs,
            c: c.into(),
        });
    }
}

#[derive(Default)]
struct AssembleC {
    n: usize,
    c: Option<Matrix>,
}
impl MergeOperation for AssembleC {
    type Thread = MasterState;
    type In = BlockResult;
    type Out = MulDone;
    fn consume(&mut self, ctx: &mut OpCtx<'_, MasterState, MulDone>, r: BlockResult) {
        if self.c.is_none() {
            self.n = ctx.thread().n;
            self.c = Some(Matrix::zeros(self.n, self.n));
        }
        let bs = r.bs as usize;
        self.c
            .as_mut()
            .expect("initialized above")
            .view_mut()
            .block(r.i as usize * bs, r.j as usize * bs, bs, bs)
            .copy_from(MatRef::from_slice(&r.c, bs, bs));
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, MasterState, MulDone>) {
        let c = self.c.take().expect("at least one block");
        ctx.post(MulDone {
            n: self.n as u32,
            c: c.into_vec().into(),
        });
    }
}

// --- phased (no-overlap) schedule --------------------------------------------

struct SplitStores;
impl SplitOperation for SplitStores {
    type Thread = MasterState;
    type In = MulOrder;
    type Out = StoreTask;
    fn execute(&mut self, ctx: &mut OpCtx<'_, MasterState, StoreTask>, o: MulOrder) {
        split_strips(ctx, o, |i, j, bs, a, b| StoreTask { i, j, bs, a, b });
    }
}

struct StoreBlocks;
impl LeafOperation for StoreBlocks {
    type Thread = WorkerStore;
    type In = StoreTask;
    type Out = StoreDone;
    fn execute(&mut self, ctx: &mut OpCtx<'_, WorkerStore, StoreDone>, t: StoreTask) {
        ctx.thread().blocks.insert((t.i, t.j), (t.a, t.b));
        ctx.post(StoreDone { i: t.i, j: t.j });
    }
}

/// Barrier: all stores landed; release the compute phase.
#[derive(Default)]
struct StoreBarrier {
    shape: Option<(u32, u32)>,
}
impl MergeOperation for StoreBarrier {
    type Thread = MasterState;
    type In = StoreDone;
    type Out = PhaseDone;
    fn consume(&mut self, ctx: &mut OpCtx<'_, MasterState, PhaseDone>, _t: StoreDone) {
        if self.shape.is_none() {
            let n = ctx.thread().n as u32;
            self.shape = Some((n, 0));
        }
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, MasterState, PhaseDone>) {
        let (n, _) = self.shape.expect("consumed at least one store ack");
        ctx.post(PhaseDone { n, s: 0 });
    }
}

/// Second-phase split: compute orders (`s` is recovered from the stored
/// task count, carried via the split's own config).
struct SplitOrders {
    s: u32,
    bs: u32,
}
impl SplitOperation for SplitOrders {
    type Thread = MasterState;
    type In = PhaseDone;
    type Out = ComputeOrder;
    fn execute(&mut self, ctx: &mut OpCtx<'_, MasterState, ComputeOrder>, _p: PhaseDone) {
        for i in 0..self.s {
            for j in 0..self.s {
                ctx.post(ComputeOrder { i, j, bs: self.bs });
            }
        }
    }
}

struct ComputeStored;
impl LeafOperation for ComputeStored {
    type Thread = WorkerStore;
    type In = ComputeOrder;
    type Out = BlockResult;
    fn execute(&mut self, ctx: &mut OpCtx<'_, WorkerStore, BlockResult>, o: ComputeOrder) {
        let bs = o.bs as usize;
        let (a, b) = ctx
            .thread()
            .blocks
            .remove(&(o.i, o.j))
            .expect("store phase completed before compute phase");
        let s = a.len() / (bs * bs);
        ctx.charge_flops((0..s).map(|_| flops::gemm_cost(bs, bs, bs)).sum());
        let c = multiply_strips(&a, &b, bs);
        ctx.post(BlockResult {
            i: o.i,
            j: o.j,
            bs: o.bs,
            c: c.into(),
        });
    }
}

/// Generate the operands on the master, straight into the strips the
/// tasks carry. Sim charges nothing for it: the paper's operands exist
/// before the run it measures.
struct InstallOperands;
impl LeafOperation for InstallOperands {
    type Thread = MasterState;
    type In = LoadOperands;
    type Out = OperandsLoaded;
    fn execute(&mut self, ctx: &mut OpCtx<'_, MasterState, OperandsLoaded>, t: LoadOperands) {
        let (n, s) = (t.n as usize, t.s as usize);
        let strips = |seed, cut| {
            (0..s)
                .map(|k| {
                    Matrix::random_strip(n, n / s, seed, cut, k)
                        .into_vec()
                        .into()
                })
                .collect()
        };
        let st = ctx.thread();
        st.n = n;
        st.a = strips(t.seed, Strips::Rows);
        st.b = strips(t.seed.wrapping_add(1), Strips::Cols);
        ctx.post(OperandsLoaded { n: t.n });
    }
}

// --- driver -------------------------------------------------------------------

/// Parameters of one matmul run.
#[derive(Debug, Clone)]
pub struct MatMulConfig {
    /// Matrix order `n`.
    pub n: usize,
    /// Split factor `s` (block size is `n / s`).
    pub s: usize,
    /// Pipelined schedule (true) or phased no-overlap baseline (false).
    pub pipelined: bool,
    /// Seed for the operand matrices.
    pub seed: u64,
    /// Worker nodes to use.
    pub nodes: usize,
    /// Worker threads per node (the paper's machines are bi-processor).
    pub threads_per_node: usize,
    /// How result blocks are assigned to workers: the paper's static
    /// `(i+j) mod p` layout, or a chunk-policy partition of the `s²` block
    /// tasks sized from measured worker rates (calibration wave first).
    pub dist: Distribution,
}

/// Outcome of one matmul run.
pub struct MatMulRunReport {
    /// Virtual execution time.
    pub elapsed: SimSpan,
    /// The computed product.
    pub c: Matrix,
}

/// Build the chosen schedule and run one `n × n` multiplication on **any
/// engine**. Worker collections start at node `first_node`: the paper's
/// Table 1 set-up keeps the master machine separate from the compute nodes
/// (pass `spec.len() - cfg.nodes` on a cluster with one node more than
/// `cfg.nodes`); pass 0 to share node0.
///
/// Everything is declared before the first run; for
/// `Distribution::Scheduled` the block-ownership [`OwnerMap`] resolves
/// after the calibration waves, read by the routes per token.
pub fn run_matmul<E: Engine>(
    eng: &mut E,
    cfg: &MatMulConfig,
    first_node: usize,
) -> Result<MatMulRunReport> {
    let (graph, loader) = declare(eng, cfg, first_node)?;
    load(eng, loader, cfg)?;
    multiply(eng, graph, cfg)
}

/// Declare the application, the chosen schedule's graph and the operand
/// loader, and resolve block ownership; returns `(graph, loader)`.
fn declare<E: Engine>(
    eng: &mut E,
    cfg: &MatMulConfig,
    first_node: usize,
) -> Result<(GraphHandle, GraphHandle)> {
    assert!(cfg.n.is_multiple_of(cfg.s), "s must divide n");
    let app = eng.app("matmul");
    eng.preload_app(app); // steady-state measurement, as in the paper
    let master: ThreadCollection<MasterState> = eng.thread_collection(app, "master", "node0")?;
    let mapping = default_mapping_from(first_node, cfg.nodes, cfg.threads_per_node);

    let p = cfg.nodes * cfg.threads_per_node.max(1);
    let s_us = cfg.s;
    // Result-block ownership: the paper's `(i+j) mod p` layout resolves
    // immediately; a scheduled layout resolves after calibration below.
    let assign = Arc::new(match cfg.dist {
        Distribution::Static => OwnerMap::fixed(
            (0..s_us * s_us)
                .map(|idx| (idx / s_us + idx % s_us) % p)
                .collect(),
        ),
        Distribution::Scheduled(_) => OwnerMap::new(),
    });
    let placement = build_placement(eng, app, &mapping, cfg.dist)?;
    let assign_route = {
        let assign = Arc::clone(&assign);
        move |i: u32, j: u32| assign.owner(i as usize * s_us + j as usize, p)
    };

    let graph = if cfg.pipelined {
        let workers: ThreadCollection<()> = eng.thread_collection(app, "proc", &mapping)?;
        let mut b = GraphBuilder::new("matmul-pipelined");
        let split = b.split(&master, || ToThread(0), || SplitTasks);
        let mul = b.leaf(
            &workers,
            move || {
                let route = assign_route.clone();
                ByKey::new(move |t: &BlockTask| route(t.i, t.j))
            },
            || MultiplyBlock,
        );
        let merge = b.merge(&master, || ToThread(0), AssembleC::default);
        b.add(split >> mul >> merge);
        eng.build_graph(b)?
    } else {
        let workers: ThreadCollection<WorkerStore> =
            eng.thread_collection(app, "proc", &mapping)?;
        let (s, bs) = (cfg.s as u32, (cfg.n / cfg.s) as u32);
        let mut b = GraphBuilder::new("matmul-phased");
        let split1 = b.split(&master, || ToThread(0), || SplitStores);
        let store_route = assign_route.clone();
        let store = b.leaf(
            &workers,
            move || {
                let route = store_route.clone();
                ByKey::new(move |t: &StoreTask| route(t.i, t.j))
            },
            || StoreBlocks,
        );
        let barrier = b.merge(&master, || ToThread(0), StoreBarrier::default);
        let split2 = b.split(&master, || ToThread(0), move || SplitOrders { s, bs });
        let compute = b.leaf(
            &workers,
            move || {
                let route = assign_route.clone();
                ByKey::new(move |t: &ComputeOrder| route(t.i, t.j))
            },
            || ComputeStored,
        );
        let merge = b.merge(&master, || ToThread(0), AssembleC::default);
        b.add(split1 >> store >> barrier >> split2 >> compute >> merge);
        eng.build_graph(b)?
    };

    // The operand loader (declared before the first run, like the rest).
    let loader = {
        let mut b = GraphBuilder::new("matmul-load");
        let _ = b.leaf(&master, || ToThread(0), || InstallOperands);
        eng.build_graph(b)?
    };

    // Scheduled distribution: measure the workers, then resolve block
    // ownership from the chunk policy's partition.
    if let Some(p) = &placement {
        p.resolve(eng, &assign, (s_us * s_us) as u64, 2)?;
    }
    Ok((graph, loader))
}

/// Have the master thread generate the operands (one load serves one
/// order).
fn load<E: Engine>(eng: &mut E, loader: GraphHandle, cfg: &MatMulConfig) -> Result<()> {
    eng.submit(
        loader,
        Box::new(LoadOperands {
            n: cfg.n as u32,
            s: cfg.s as u32,
            seed: cfg.seed,
        }),
    )?;
    eng.run_to_idle(loader, 1)?;
    let _ = eng.take_outputs(loader);
    Ok(())
}

/// Submit one [`MulOrder`] to `graph` and collect the product.
fn multiply<E: Engine>(
    eng: &mut E,
    graph: GraphHandle,
    cfg: &MatMulConfig,
) -> Result<MatMulRunReport> {
    let t0 = eng.now_secs();
    eng.submit(
        graph,
        Box::new(MulOrder {
            n: cfg.n as u32,
            s: cfg.s as u32,
        }),
    )?;
    eng.run_to_idle(graph, 1)?;
    let elapsed = SimSpan::from_secs_f64(eng.now_secs() - t0);
    let mut outs = eng.take_outputs(graph);
    assert_eq!(outs.len(), 1, "one MulDone per order");
    let done =
        downcast::<MulDone>(outs.pop().expect("one output")).expect("output token type is MulDone");
    let c = Matrix::from_vec(cfg.n, cfg.n, done.c.into_vec());
    Ok(MatMulRunReport { elapsed, c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_cluster::ClusterSpec;

    fn reference(n: usize, seed: u64) -> Matrix {
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed.wrapping_add(1));
        a.matmul(&b)
    }

    fn check(cfg: &MatMulConfig) -> MatMulRunReport {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(cfg.nodes));
        let rep = run_matmul(&mut eng, cfg, 0).unwrap();
        let reference = reference(cfg.n, cfg.seed);
        let mut diff = rep.c.clone();
        diff.sub_assign(&reference);
        assert!(diff.max_abs() < 1e-9, "wrong product: {}", diff.max_abs());
        rep
    }

    #[test]
    fn pipelined_matmul_is_correct() {
        check(&MatMulConfig {
            n: 64,
            s: 4,
            pipelined: true,
            seed: 11,
            nodes: 3,
            threads_per_node: 2,
            dist: Distribution::Static,
        });
    }

    #[test]
    fn phased_matmul_is_correct() {
        check(&MatMulConfig {
            n: 64,
            s: 4,
            pipelined: false,
            seed: 11,
            nodes: 3,
            threads_per_node: 2,
            dist: Distribution::Static,
        });
    }

    #[test]
    fn pipelining_reduces_execution_time() {
        // The Table 1 effect: with comparable communication and computation
        // volumes, the pipelined schedule must be faster.
        let mk = |pipelined| MatMulConfig {
            n: 128,
            s: 8,
            pipelined,
            seed: 3,
            nodes: 4,
            threads_per_node: 2,
            dist: Distribution::Static,
        };
        let elapsed = |pipelined| {
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));
            run_matmul(&mut eng, &mk(pipelined), 0).unwrap().elapsed
        };
        let t_pipe = elapsed(true);
        let t_phased = elapsed(false);
        assert!(
            t_pipe < t_phased,
            "pipelined {t_pipe} should beat phased {t_phased}"
        );
    }

    /// FNV-1a over the bit pattern of every element.
    fn fingerprint(m: &Matrix) -> u64 {
        let mut h = dps_obs::Fnv1a::new();
        for v in m.as_slice() {
            h.write_u64(v.to_bits());
        }
        h.finish()
    }

    /// The product of `tests/copy_budget.rs`'s multiplication (n = 256,
    /// s = 4, seed 7), captured from the commit before the kernels ran on
    /// views.
    const MATMUL_FINGERPRINT: u64 = 0x61a6_64ab_72f4_f283;

    /// One load serves one order: the split takes the strips, so a second
    /// order without a fresh load fails the run at the split. It neither
    /// hangs nor multiplies stale operands, and it leaves the engine able
    /// to run a fresh load and order, bit for bit.
    fn a_second_order_needs_a_fresh_load<E: Engine>(eng: &mut E, pipelined: bool) {
        let cfg = MatMulConfig {
            n: 256,
            s: 4,
            pipelined,
            seed: 7,
            nodes: 2,
            threads_per_node: 1,
            dist: Distribution::Static,
        };
        let (graph, loader) = declare(eng, &cfg, 0).unwrap();
        load(eng, loader, &cfg).unwrap();
        let c = multiply(eng, graph, &cfg).unwrap().c;
        assert_eq!(fingerprint(&c), MATMUL_FINGERPRINT, "first order");
        match multiply(eng, graph, &cfg) {
            Err(DpsError::OperationContract { reason, .. }) => {
                assert_eq!(reason, "split operation posted no tokens")
            }
            Err(e) => panic!("a second order failed with {e}, not at the split"),
            Ok(_) => panic!("a second order multiplied stale operands"),
        }
        load(eng, loader, &cfg).unwrap();
        let c = multiply(eng, graph, &cfg).unwrap().c;
        assert_eq!(
            fingerprint(&c),
            MATMUL_FINGERPRINT,
            "an order after a fresh load"
        );
    }

    #[test]
    fn a_second_order_needs_a_fresh_load_on_sim() {
        for pipelined in [true, false] {
            a_second_order_needs_a_fresh_load(
                &mut SimEngine::new(ClusterSpec::paper_testbed(2)),
                pipelined,
            );
        }
    }

    #[test]
    fn a_second_order_needs_a_fresh_load_on_mt() {
        for pipelined in [true, false] {
            let mut eng = dps_mt::MtEngine::new(2);
            a_second_order_needs_a_fresh_load(&mut eng, pipelined);
            eng.shutdown();
        }
    }

    #[test]
    fn single_node_single_thread_works() {
        check(&MatMulConfig {
            n: 32,
            s: 2,
            pipelined: true,
            seed: 5,
            nodes: 1,
            threads_per_node: 1,
            dist: Distribution::Static,
        });
    }
}
