//! # dps-life — Conway's Game of Life under DPS
//!
//! The paper parallelizes the Game of Life as a stand-in for "many iterative
//! finite difference computational problems" (§5): the world is split into
//! horizontal bands, one per worker thread; each iteration exchanges border
//! rows with the neighbouring bands and computes the next generation.
//!
//! Two flow graphs are compared (Fig. 7 vs Fig. 8):
//!
//! * **simple** — exchange all borders, synchronize globally, then compute
//!   the whole band;
//! * **improved** — compute the band *interior* (which needs no remote
//!   data) while the borders are in flight, then compute only the border
//!   rows once they arrived. The overlap shrinks the critical path, most
//!   visibly for small worlds where communication dominates (Fig. 9).
//!
//! The world-subset read service of Fig. 10 (`life.read`) exposes the
//! distributed world to other applications; Table 2 measures its call
//! overhead while the simulation keeps iterating.

//! Beyond the paper, the [`sched`] module drives the same workload through
//! the dynamic loop-scheduling stack (`Distribution::Scheduled` in
//! [`LifeConfig`]): the world lives on the master, row-band chunks are
//! claimed by the workers (distributed chunk calculation), AWF adapts chunk
//! sizes to measured node speeds, and waves survive node failures.

mod band;
pub mod graphs;
pub mod sched;
mod world;

pub use band::LifeBand;
pub use graphs::{
    build_read_service, build_step_graph, run_life, setup_life, BandedLife, LifeConfig,
    LifeRunReport, Variant,
};
pub use sched::{run_life_scheduled, setup_scheduled_life, ScheduledLife, WorldState};
pub use world::World;
