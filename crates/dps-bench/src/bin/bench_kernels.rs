//! Compute-kernel benchmark: raw single-thread GFLOP/s of the blocked
//! kernels, and the scheduled multi-core scaling they enable.
//!
//! Two sections:
//!
//! * **gemm single-thread** — GFLOP/s of the naive `ijk` loop, the scalar
//!   `ikj` fallback, and the packed blocked kernel at several orders. The
//!   committed full-run baseline must show the blocked kernel ≥ 3× the
//!   naive loop at `n ≥ 256` — the bar this benchmark defends.
//! * **scheduled LU scaling** — wall-clock makespans of the chunked block
//!   LU (`update_chunks` > 1, sub-column chunks claimed through the chunk
//!   hub) on the OS-thread engine at increasing worker counts. On a
//!   single-core machine the curve is flat by construction; the
//!   `single_core` flag in the JSON says so and no scaling is asserted.
//!
//! Results are written as JSON (default `BENCH_kernels.json`; override
//! with `--out=PATH`). `--smoke` shrinks the workload for CI — it checks
//! the harness runs, not the numbers. The committed `BENCH_kernels.json`
//! at the repository root is produced by a full (non-smoke) run.

use std::time::Instant;

use dps_linalg::kernel::{gemm_blocked, gemm_naive, gemm_scalar};
use dps_linalg::parallel::lu::{run_lu, LuConfig};
use dps_linalg::{blocked_lu, Matrix};
use dps_mt::MtEngine;
use dps_sched::Distribution;

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_value(prefix: &str) -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))
}

/// Best-of-three GFLOP/s of one `n×n·n×n` gemm variant, with enough
/// repetitions per measurement that the span clears timer noise.
fn gemm_gflops(n: usize, kernel: impl Fn(&Matrix, &Matrix, &mut Matrix)) -> f64 {
    let a = Matrix::random_general(n, n, 1);
    let b = Matrix::random_general(n, n, 2);
    let flops = 2.0 * (n * n * n) as f64;
    let reps = ((25_000_000.0 / flops) as usize).max(1);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut c = Matrix::zeros(n, n);
        let t0 = Instant::now();
        for _ in 0..reps {
            kernel(&a, &b, &mut c);
        }
        let secs = t0.elapsed().as_secs_f64().max(1e-9) / reps as f64;
        best = best.max(flops / secs / 1e9);
    }
    best
}

/// One gemm comparison row.
struct GemmRow {
    n: usize,
    naive: f64,
    scalar: f64,
    blocked: f64,
}

impl GemmRow {
    fn blocked_vs_naive(&self) -> f64 {
        self.blocked / self.naive
    }
}

/// One LU scaling row: wall-clock seconds at a worker count.
struct ScaleRow {
    workers: usize,
    elapsed_s: f64,
}

fn main() {
    let smoke = arg_flag("--smoke");
    let out_path = arg_value("--out=").unwrap_or_else(|| "BENCH_kernels.json".to_string());

    // --- single-thread gemm: naive ijk vs scalar ikj vs packed blocked ---
    let sizes: &[usize] = if smoke {
        &[32, 64]
    } else {
        &[64, 128, 256, 384]
    };
    println!(
        "gemm single-thread GFLOP/s (best of 3; blocked kernel at `{}` lanes)",
        dps_linalg::kernel::lanes()
    );
    let mut gemm_rows = Vec::new();
    for &n in sizes {
        let naive = gemm_gflops(n, |a, b, c| gemm_naive(1.0, a, b, 0.0, c));
        let scalar = gemm_gflops(n, |a, b, c| gemm_scalar(1.0, a, b, 0.0, c));
        let blocked = gemm_gflops(n, |a, b, c| gemm_blocked(1.0, a, b, 0.0, c));
        println!(
            "  n={n:<4} naive {naive:>6.2}   ikj {scalar:>6.2}   blocked {blocked:>6.2}   \
             (blocked/naive {:.2}x)",
            blocked / naive
        );
        gemm_rows.push(GemmRow {
            n,
            naive,
            scalar,
            blocked,
        });
    }

    // --- scheduled LU scaling on OS threads (chunked trailing updates) ---
    let (lu_n, lu_r, update_chunks) = if smoke { (96, 16, 2) } else { (384, 32, 4) };
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "scheduled LU wall-clock on MtEngine (n={lu_n}, r={lu_r}, \
         update_chunks={update_chunks})"
    );
    let reference = {
        let a = Matrix::random_general(lu_n, lu_n, 41);
        blocked_lu(&a, lu_r)
    };
    let mut scale_rows = Vec::new();
    for &workers in worker_counts {
        let cfg = LuConfig {
            n: lu_n,
            r: lu_r,
            pipelined: true,
            seed: 41,
            nodes: workers,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks,
        };
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut eng = MtEngine::new(workers);
            let rep = run_lu(&mut eng, &cfg).expect("LU run");
            eng.shutdown();
            assert_eq!(
                rep.factors.lu, reference.lu,
                "scheduled factors diverged from the sequential reference"
            );
            best = best.min(rep.elapsed.as_secs_f64());
        }
        let speedup = scale_rows
            .first()
            .map_or(1.0, |r: &ScaleRow| r.elapsed_s / best);
        println!("  {workers:>2} workers: {best:.6}s   ({speedup:.2}x vs 1)");
        scale_rows.push(ScaleRow {
            workers,
            elapsed_s: best,
        });
    }

    // Environment metadata: what machine produced the numbers, so committed
    // baselines are comparable across hosts. `single_core` warns that the
    // scaling rows above were time-sliced, not parallel.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let single_core = cores <= 1;
    if single_core {
        println!("single-core machine: scaling rows are time-sliced, not parallel");
    }
    let timestamp_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let gemm_json: Vec<String> = gemm_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"naive_gflops\": {:.3}, \"scalar_ikj_gflops\": {:.3}, \
                 \"blocked_gflops\": {:.3}, \"blocked_vs_naive\": {:.2}}}",
                r.n,
                r.naive,
                r.scalar,
                r.blocked,
                r.blocked_vs_naive()
            )
        })
        .collect();
    let base = scale_rows.first().map_or(0.0, |r| r.elapsed_s);
    let scale_json: Vec<String> = scale_rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"workers\": {}, \"elapsed_s\": {:.6}, \"speedup\": {:.2}}}",
                r.workers,
                r.elapsed_s,
                base / r.elapsed_s
            )
        })
        .collect();
    let worker_list: Vec<String> = worker_counts.iter().map(usize::to_string).collect();
    let json = format!(
        "{{\n  \"suite\": \"bench_kernels\",\n  \"smoke\": {smoke},\n  \
         \"env\": {{\n    \"cores\": {cores},\n    \"single_core\": {single_core},\n    \
         \"engine\": \"mt\",\n    \
         \"worker_counts\": [{}],\n    \
         \"timestamp_unix\": {timestamp_unix}\n  }},\n  \
         \"gemm_single_thread\": [\n{}\n  ],\n  \
         \"lu_scaling_mt\": {{\n    \"n\": {lu_n},\n    \"r\": {lu_r},\n    \
         \"update_chunks\": {update_chunks},\n    \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        worker_list.join(", "),
        gemm_json.join(",\n"),
        scale_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("JSON written to {out_path}");

    // The acceptance bar: the packed blocked kernel must beat the naive
    // loop by >= 3x at n >= 256 in full runs. Smoke runs only prove the
    // harness executes.
    if !smoke {
        let big = gemm_rows
            .iter()
            .filter(|r| r.n >= 256)
            .min_by(|a, b| a.blocked_vs_naive().total_cmp(&b.blocked_vs_naive()))
            .expect("a row with n >= 256");
        assert!(
            big.blocked_vs_naive() >= 3.0,
            "blocked gemm regressed: {:.2}x over naive at n={} (need >= 3x)",
            big.blocked_vs_naive(),
            big.n
        );
    }
}
