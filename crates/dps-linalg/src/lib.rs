//! # dps-linalg — linear-algebra substrate for the DPS paper experiments
//!
//! The paper evaluates DPS on block-based matrix multiplication (Table 1:
//! overlap of communication and computation) and on block LU factorization
//! with partial pivoting (Fig. 11–15). It notes that "no optimized linear
//! algebra library was used"; accordingly this crate implements its
//! kernels from scratch — plain loops, no intrinsics, compiled for the
//! vector unit of the CPU they run on ([`kernel::Lanes`]) with the bits of
//! the scalar loop:
//!
//! * [`Matrix`] — dense row-major `f64` matrix with block extraction; any
//!   one row or column strip of its random matrices can be generated alone,
//!   bit for bit as it lies in the whole matrix ([`Strips`]).
//! * [`MatRef`] / [`MatMut`] — strided views of a block where it lies (in a
//!   [`Matrix`], in a token's `Buffer<f64>`), so an operation runs the
//!   kernels on its owner's storage instead of on a copy.
//! * [`gemm`] / [`Matrix::matmul`] — general matrix multiply, dispatching
//!   between the scalar `ikj` fallback and the packed blocked kernel.
//! * [`kernel`] — the cache-blocked kernels (packed `MR×NR` gemm, blocked
//!   trsm, blocked panel factorization) with a pinned accumulation order:
//!   blocked and scalar paths, at every lane width, produce identical
//!   bits, preserving the cross-engine byte-identity contract.
//! * [`panel_lu`] — rectangular LU factorization with partial pivoting of a
//!   block column (paper step 1).
//! * [`trsm_lower_unit`] — triangular solve `L₁₁·X = B` (paper step 2, the
//!   BLAS `trsm`).
//! * [`blocked_lu`] — the sequential block LU driver (paper steps 1–3,
//!   recursively applied), the reference the parallel schedules are checked
//!   against.
//! * [`lu_residual`] — ‖P·A − L·U‖∞ verification.
//! * [`parallel`] — the DPS flow graphs: pipelined/non-pipelined block
//!   matmul (Table 1) and pipelined (stream) / non-pipelined (merge+split)
//!   block LU (Fig. 12/15).
//!
//! FLOP-count helpers ([`flops`]) feed the virtual-time cost model so the
//! simulator charges the paper's 733 MHz nodes realistically.

mod factor;
pub mod flops;
pub mod kernel;
mod matrix;
pub mod parallel;
mod view;

pub use factor::{apply_row_swaps, blocked_lu, lu_residual, panel_lu, trsm_lower_unit, LuFactors};
pub use matrix::{gemm, Matrix, Strips};
pub use view::{MatMut, MatRef};
