//! # dps-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | target | paper artefact |
//! |---|---|
//! | `fig6_throughput` | Fig. 6 — ring transfer throughput, DPS vs sockets |
//! | `table1_overlap` | Table 1 — overlap gains in block matrix multiply |
//! | `fig9_life` | Fig. 9 — Game-of-Life speedup, simple vs improved graph |
//! | `table2_service` | Table 2 — inter-application graph-call overhead |
//! | `fig15_lu` | Fig. 15 — LU speedup, stream vs merge-split schedule |
//! | `dls_policies` | beyond the paper — DLS policy sweep (SS/GSS/TSS/FAC/AWF) on a skewed cluster |
//!
//! Run any of them with `cargo run --release -p dps-bench --bin <name>`;
//! add `--full` for paper-scale problem sizes (slower). Each binary calls
//! the applications' generic entry points (`run_lu`, `run_matmul`,
//! `run_life`, [`dls::run_dls`]) on a `SimEngine` over
//! `ClusterSpec::paper_testbed(n)`; the testbed calibration is those
//! defaults (see [`calib`]). All results are virtual-time measurements on
//! the calibrated cluster model and are fully deterministic.
//!
//! `cargo bench -p dps-bench` additionally runs Criterion micro-benchmarks
//! of the framework's hot paths (serialization, envelopes, routing, the DES
//! engine, and the numeric kernels). Wall-clock throughput and end-to-end
//! makespans are not measured here: that is the repository benchmark
//! (`benchmark/`, declared by `BENCHMARK.json`), which builds against this
//! crate's [`dls`] driver.

pub mod calib;
pub mod dls;
pub mod table;

/// True if `--full` was passed: use paper-scale problem sizes.
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}
