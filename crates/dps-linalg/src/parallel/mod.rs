//! DPS parallel schedules for the paper's linear-algebra workloads.
//!
//! * [`matmul`] — block matrix multiplication with either a fully pipelined
//!   schedule (transfers overlap computation) or a phase-separated schedule
//!   (distribute, barrier, compute) used as the no-overlap baseline of
//!   Table 1.
//! * [`lu`] — block LU factorization with partial pivoting on a
//!   column-of-blocks distribution, in the pipelined (stream operations,
//!   Fig. 12) and non-pipelined (merge + split) variants compared in
//!   Fig. 15.

pub mod lu;
pub mod matmul;

pub use lu::{run_lu, LuConfig, LuRunReport};
pub use matmul::{run_matmul, MatMulConfig, MatMulRunReport};
