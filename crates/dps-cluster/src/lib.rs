//! # dps-cluster — the virtual cluster substrate
//!
//! Models the machines the DPS runtime runs on: the paper's testbed is a
//! cluster of eight bi-Pentium-III 733 MHz PCs joined by Gigabit Ethernet,
//! each running a DPS *kernel* that launches application instances on demand
//! (paper §4, *Runtime Support*).
//!
//! * [`NodeSpec`] / [`ClusterSpec`] — node inventory: name, CPU count, and a
//!   scalar compute rate used by operation cost models.
//! * [`parse_mapping`] / [`resolve_mapping`] — the paper's thread-collection
//!   mapping strings (`"nodeA*2 nodeB"`), parsed and resolved to node ids;
//!   [`default_mapping`] builds the usual one for nodes `node0..`.
//! * [`Deployment`] — lazy application-instance launch: the first data
//!   object addressed to a node where the application is not yet running
//!   triggers an instance start and pays a start-up delay, exactly the
//!   "delayed mechanism" §4 describes (≈1 s to reach full 8-node N-to-N
//!   connectivity).
//! * [`Cluster`] — the assembled world: spec +
//!   [`NetworkModel`](dps_net::NetworkModel) + deployment state +
//!   node-failure flags (failure injection backs the graceful-degradation
//!   extension discussed in the paper's future work).

mod cluster;
mod deploy;
mod mapping;
mod spec;

pub use cluster::Cluster;
pub use deploy::{AppId, Deployment, InstanceState};
pub use mapping::{
    default_mapping, default_mapping_from, parse_mapping, resolve_mapping, MappingError,
};
pub use spec::{ClusterSpec, NodeSpec};

pub use dps_net::NodeId;
