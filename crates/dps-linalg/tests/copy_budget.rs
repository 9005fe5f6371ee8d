//! The copy budget of a block, measured: how many bytes one parallel LU
//! and one parallel matrix multiply ask the allocator for, and how many
//! they hold at once, as multiples of the bytes of the matrix they work on.
//!
//! A block is copied when it changes owner — staged into a column store,
//! handed to the collector as the next panel, sent home factored, gathered
//! at the end — and not when an operation merely reads it: a panel is one
//! `Buffer` every column task holds a handle to, and the kernels run on
//! views of the owner's storage. Every byte that is copied is first
//! allocated, so the allocator's request count bounds the copies from
//! above, staging and gather included (and the kernels' packing scratch,
//! which is most of what is left). The bounds are 1.5 × what the commit
//! that introduced them measured — LU 6.0 ×, matmul 10.3 × the matrix —
//! where the commit before it measured 21.0 × and 34.3 ×. Those readings
//! are the 4 × 8 gemm tile's (baseline and AVX2 lanes); on an AVX-512F
//! host the 8 × 16 tile packs an `A` panel twice as tall per gemm call and
//! they read 6.2 × and 10.6 ×, so there the same bounds are 1.45 ×. Since
//! the panel is factored recursively it asks for one 16-column strip per
//! call where it used to copy `L21` for every 8 columns, and packs `A`
//! straight from the panel's rows: LU reads 6.0 × on the AVX-512F host
//! (6.2 × before), matmul 10.6 × (unchanged).
//!
//! An operand is also held once: each driver generates its input straight
//! into the layout its tasks read — matmul's master the row strips of `A`
//! and the column strips of `B`, LU's loader the column blocks its workers
//! keep — instead of building the whole matrix and copying blocks out of
//! it. On the AVX-512F host that took matmul from 10.56 × to 8.56 × and LU
//! from 5.97 × to 4.97 ×, and the bounds came down to 10.0 × and 5.5 ×.
//! The allocator also keeps the high-water mark of the bytes live at once,
//! which the same change took from 5.3–5.5 × to 3.3–3.7 × for matmul (the
//! spread is the threads' timing) and from 3.13 × to 2.13 × for LU; its
//! bounds, 4.0 × and 2.6 ×, sit between the two readings.
//!
//! An operand strip dies with its last task: matmul's split moves the
//! strips out of the master instead of cloning handles to them, so one
//! load serves one order and a finished run keeps the product and nothing
//! else. The bytes still live when `run_matmul` returns, the engine still
//! up, read 3.03–3.05 × the matrix before (A, B and C) and 1.03–1.05 ×
//! after, on Sim and `mt` and for both schedules (n = 256, s = 4); the
//! bound is 1.5 ×. The live high-water mark barely moves (3.3–3.7 ×
//! before, 3.25–3.45 × after): it counts bytes when they are requested,
//! and `AssembleC` requests its zeroed C while A and B are still whole.
//! The resident set counts pages when they are touched, and C's pages are
//! touched block by block as the strips are freed row by row; that is
//! where the gain shows, in the benchmark's `peak_rss_mb` of
//! `matmul_net`.
//!
//! An operand is born where it is stored: a loader's token carries a seed,
//! and the thread that keeps an operand generates it, LU's column owners
//! their columns and matmul's master its strips. That moves no reading
//! here (LU 4.97 × requested, 2.13 × live; matmul 8.54–8.58 ×, 3.26–3.44 ×,
//! 1.03–1.07 × retained), since each byte is still requested once; it
//! moves which thread first touches the pages, and how many bytes cross a
//! connection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dps_cluster::ClusterSpec;
use dps_core::{Engine, SimEngine};
use dps_linalg::parallel::lu::{run_lu, LuConfig};
use dps_linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps_linalg::{blocked_lu, Matrix};
use dps_mt::MtEngine;
use dps_sched::Distribution;

/// `System`, counting the bytes requested of it and the bytes live, with
/// the live bytes' high-water mark (statistics: `Relaxed`).
struct Counting;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the counters touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size.saturating_sub(layout.size()));
        shrink(layout.size().saturating_sub(new_size));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is the process's: the two tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What `work` asks of the allocator, as multiples of `n × n` doubles.
struct Allocated {
    /// Bytes requested while `work` runs.
    requested: f64,
    /// The most bytes live at once while `work` runs, beyond those live
    /// when it starts.
    peak: f64,
    /// The bytes still live when `work` returns, beyond those live when it
    /// started: its result, and whatever the engine kept.
    retained: f64,
}

fn matrices_allocated<T>(n: usize, work: impl FnOnce() -> T) -> (Allocated, T) {
    let requested = REQUESTED.load(Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let out = work();
    let matrix = (n * n * 8) as f64;
    let allocated = Allocated {
        requested: (REQUESTED.load(Ordering::Relaxed) - requested) as f64 / matrix,
        peak: (PEAK.load(Ordering::Relaxed) - live) as f64 / matrix,
        retained: (LIVE.load(Ordering::Relaxed) as f64 - live as f64) / matrix,
    };
    (allocated, out)
}

/// FNV-1a over the bit pattern of every element.
fn fingerprint(m: &Matrix) -> u64 {
    let mut h = dps_obs::Fnv1a::new();
    for v in m.as_slice() {
        h.write_u64(v.to_bits());
    }
    h.finish()
}

#[test]
fn lu_allocates_a_small_multiple_of_its_matrix() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = LuConfig {
        n: 256,
        r: 32,
        pipelined: true,
        seed: 7,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: 4,
    };
    let mut eng = MtEngine::new(2);
    let (allocated, rep) = matrices_allocated(cfg.n, || run_lu(&mut eng, &cfg).unwrap());
    eng.shutdown();
    let reference = blocked_lu(&Matrix::random_general(cfg.n, cfg.n, cfg.seed), cfg.r);
    assert_eq!(rep.factors.pivots, reference.pivots);
    assert_eq!(rep.factors.lu, reference.lu, "factors bit for bit");
    check("run_lu", &allocated, LU_BOUND, LU_PEAK_BOUND);
}

#[test]
fn matmul_allocates_a_small_multiple_of_its_matrix() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for pipelined in [true, false] {
        let mut eng = MtEngine::new(2);
        let (allocated, c) = matmul_on(&mut eng, pipelined);
        eng.shutdown();
        check_matmul("mt", pipelined, &allocated, &c);
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
        let (allocated, c) = matmul_on(&mut eng, pipelined);
        check_matmul("sim", pipelined, &allocated, &c);
    }
}

/// One `run_matmul` on `eng`, measured while the engine is still up: the
/// bytes retained are the product's and whatever the engine kept.
fn matmul_on<E: Engine>(eng: &mut E, pipelined: bool) -> (Allocated, Matrix) {
    let cfg = MatMulConfig {
        n: 256,
        s: 4,
        pipelined,
        seed: 7,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
    };
    let (allocated, rep) = matrices_allocated(cfg.n, || run_matmul(eng, &cfg, 0).unwrap());
    (allocated, rep.c)
}

/// Hold one measured `run_matmul` to the product's bits and the budgets.
fn check_matmul(engine: &str, pipelined: bool, allocated: &Allocated, c: &Matrix) {
    let run = format!(
        "run_matmul ({engine}, {})",
        if pipelined { "pipelined" } else { "phased" }
    );
    // Captured from the commit before the kernels ran on views.
    assert_eq!(
        fingerprint(c),
        MATMUL_FINGERPRINT,
        "{run}: product bit for bit"
    );
    check(&run, allocated, MATMUL_BOUND, MATMUL_PEAK_BOUND);
    let retained = allocated.retained;
    assert!(
        retained <= MATMUL_RETAINED_BOUND,
        "{run} still held {retained:.2} x the matrix when it returned, budget \
         {MATMUL_RETAINED_BOUND} x: the product, and no operand strip"
    );
}

/// Print `allocated` and hold it to its bounds.
fn check(run: &str, allocated: &Allocated, bound: f64, peak_bound: f64) {
    let Allocated {
        requested,
        peak,
        retained,
    } = *allocated;
    println!(
        "{run} allocated {requested:.2} x the matrix, at most {peak:.2} x live, \
         {retained:.2} x retained"
    );
    assert!(
        requested <= bound,
        "{run} allocated {requested:.1} x the matrix, budget {bound} x"
    );
    assert!(
        peak <= peak_bound,
        "{run} held {peak:.2} x the matrix live at once, budget {peak_bound} x"
    );
}

const LU_BOUND: f64 = 5.5;
const MATMUL_BOUND: f64 = 10.0;
const LU_PEAK_BOUND: f64 = 2.6;
const MATMUL_PEAK_BOUND: f64 = 4.0;
const MATMUL_RETAINED_BOUND: f64 = 1.5;
const MATMUL_FINGERPRINT: u64 = 0x61a6_64ab_72f4_f283;
