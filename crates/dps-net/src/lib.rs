//! # dps-net — network substrate for the DPS cluster simulator
//!
//! Models the communication hardware and OS stack of the paper's testbed: a
//! Gigabit-Ethernet switched cluster of PCs whose *measured* point-to-point
//! TCP throughput tops out around 35 MB/s under Windows 2000 (Fig. 6 of the
//! paper), plus DPS-specific costs — control structures piggy-backed on each
//! data object and lazily-opened TCP connections.
//!
//! * [`NetConfig`] — all tunable constants (bandwidth, per-message overhead,
//!   propagation latency, connect latency, DPS header bytes), with a
//!   `Default` calibrated to the paper's testbed.
//! * [`NetworkModel`] — full-duplex per-node NIC timelines + a TCP
//!   connection cache; [`NetworkModel::transfer`] turns (src, dst, bytes)
//!   into a deterministic `(sender done, delivered)` pair of instants.
//!
//! The model keeps no record of single transfers: the simulator traces each
//! cross-node hop itself, as a `FrameSend` / `FrameRecv` pair carrying the
//! model's own wire-byte count.
//!
//! The model is *reservation-based*: each NIC direction is a
//! [`Timeline`](dps_des::Timeline), so simultaneous send+receive (the ring
//! experiment of Fig. 6) proceeds at full duplex, while two messages leaving
//! the same node serialize on its transmit lane — exactly the first-order
//! behaviour that shaped the paper's measurements.
//!
//! Connections open lazily: the first object between a node pair pays the
//! TCP connect, later ones reuse the connection:
//!
//! ```
//! use dps_des::SimTime;
//! use dps_net::{NetConfig, NetworkModel, NodeId, Traffic};
//!
//! let cfg = NetConfig::default();
//! let mut net = NetworkModel::new(2, cfg.clone());
//! let (a, b) = (NodeId(0), NodeId(1));
//! let first = net.transfer(SimTime::ZERO, a, b, 1000, Traffic::DpsObject);
//! let again = net.transfer(first.delivered, a, b, 1000, Traffic::DpsObject);
//! let cold = first.delivered.since(SimTime::ZERO);
//! let warm = again.delivered.since(first.delivered);
//! assert_eq!(cold, warm + cfg.connect_latency);
//! ```

mod config;
mod fault;
mod model;

pub use config::NetConfig;
pub use fault::{FaultConfig, FaultDecision, FaultInjector};
pub use model::{NetworkModel, NodeId, Traffic, TransferPlan};
