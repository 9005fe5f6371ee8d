//! The copy budget of a block, measured: how many bytes one parallel LU
//! and one parallel matrix multiply ask the allocator for, as a multiple
//! of the bytes of the matrix they work on.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dps_linalg::parallel::lu::{run_lu, LuConfig};
use dps_linalg::parallel::matmul::{run_matmul, MatMulConfig};
use dps_linalg::{blocked_lu, Matrix};
use dps_mt::MtEngine;
use dps_sched::Distribution;

/// `System`, counting the bytes requested of it (a statistic: `Relaxed`).
struct Counting;

static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is the process's: the two tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Bytes requested while `work` runs, as a multiple of `n × n` doubles.
fn matrices_allocated<T>(n: usize, work: impl FnOnce() -> T) -> (f64, T) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = work();
    let bytes = REQUESTED.load(Ordering::Relaxed) - before;
    (bytes as f64 / (n * n * 8) as f64, out)
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
    let (multiple, rep) = matrices_allocated(cfg.n, || run_lu(&mut eng, &cfg).unwrap());
    eng.shutdown();
    let reference = blocked_lu(&Matrix::random_general(cfg.n, cfg.n, cfg.seed), cfg.r);
    assert_eq!(rep.factors.pivots, reference.pivots);
    assert_eq!(rep.factors.lu, reference.lu, "factors bit for bit");
    println!("run_lu allocated {multiple:.2} x the matrix");
    assert!(
        multiple <= LU_BOUND,
        "run_lu allocated {multiple:.1} x the matrix, budget {LU_BOUND} x"
    );
}

#[test]
fn matmul_allocates_a_small_multiple_of_its_matrix() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MatMulConfig {
        n: 256,
        s: 4,
        pipelined: true,
        seed: 7,
        nodes: 2,
        threads_per_node: 1,
        dist: Distribution::Static,
    };
    let mut eng = MtEngine::new(2);
    let (multiple, rep) = matrices_allocated(cfg.n, || run_matmul(&mut eng, &cfg, 0).unwrap());
    eng.shutdown();
    // Captured from the commit before the kernels ran on views.
    assert_eq!(
        fingerprint(&rep.c),
        MATMUL_FINGERPRINT,
        "product bit for bit"
    );
    println!("run_matmul allocated {multiple:.2} x the matrix");
    assert!(
        multiple <= MATMUL_BOUND,
        "run_matmul allocated {multiple:.1} x the matrix, budget {MATMUL_BOUND} x"
    );
}

const LU_BOUND: f64 = 9.0;
const MATMUL_BOUND: f64 = 15.5;
const MATMUL_FINGERPRINT: u64 = 0x61a6_64ab_72f4_f283;
