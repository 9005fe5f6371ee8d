//! Full-duplex NIC reservation model with a lazy TCP connection cache.

use std::collections::BTreeSet;

use dps_des::{SimSpan, SimTime, Timeline};

use crate::config::NetConfig;

/// Identifier of a cluster node (index into the cluster's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Outcome of planning one message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPlan {
    /// When the sender's transmit lane is free again (the sending thread can
    /// continue earlier — DPS posts asynchronously — but the NIC cannot).
    pub sender_done: SimTime,
    /// When the message is fully received and can be enqueued on the
    /// destination thread's token queue.
    pub delivered: SimTime,
    /// Bytes that actually crossed the wire (payload + any DPS header).
    pub wire_bytes: u64,
}

/// Kind of traffic for a transfer: raw socket bytes or a DPS data object
/// (which carries control structures and pays serialization costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Plain socket send/receive (the baseline of Fig. 6).
    Socket,
    /// A DPS data object.
    DpsObject,
}

/// Deterministic cluster network: one transmit and one receive
/// [`Timeline`] per node, plus a connection cache.
///
/// Same-node transfers short-circuit: the paper transfers a pointer between
/// threads of the same address space "at a negligible cost", so `transfer`
/// returns `(now, now)` without touching any timeline.
#[derive(Debug)]
pub struct NetworkModel {
    cfg: NetConfig,
    tx: Vec<Timeline>,
    rx: Vec<Timeline>,
    /// Ordered, not hashed: consulted on every cross-node transfer, over a
    /// handful of node pairs.
    connected: BTreeSet<(NodeId, NodeId)>,
    transfers: u64,
    wire_bytes: u64,
}

impl NetworkModel {
    /// A network joining `nodes` nodes under configuration `cfg`.
    pub fn new(nodes: usize, cfg: NetConfig) -> Self {
        Self {
            cfg,
            tx: vec![Timeline::new(); nodes],
            rx: vec![Timeline::new(); nodes],
            connected: BTreeSet::new(),
            transfers: 0,
            wire_bytes: 0,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// Access the configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Total messages that crossed node boundaries.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// Total bytes that crossed the wire (payload + headers).
    pub fn wire_bytes_total(&self) -> u64 {
        self.wire_bytes
    }

    /// True if a connection between `a` and `b` is already open.
    pub fn is_connected(&self, a: NodeId, b: NodeId) -> bool {
        self.connected.contains(&ordered(a, b))
    }

    /// Plan the transfer of a message of `payload_bytes` from `src` to `dst`
    /// starting no earlier than `now`.
    ///
    /// The first transfer between a node pair additionally pays the TCP
    /// connect latency (lazy connections, paper §4). Traffic kind selects
    /// raw-socket or DPS-object cost accounting.
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u64,
        traffic: Traffic,
    ) -> TransferPlan {
        if src == dst {
            // Same address space: pointer passing, no serialization.
            return TransferPlan {
                sender_done: now,
                delivered: now,
                wire_bytes: 0,
            };
        }
        let connect = if self.connected.insert(ordered(src, dst)) {
            self.cfg.connect_latency
        } else {
            SimSpan::ZERO
        };
        let (occupancy, wire_bytes) = match traffic {
            Traffic::Socket => (self.cfg.socket_occupancy(payload_bytes), payload_bytes),
            Traffic::DpsObject => (
                self.cfg.dps_occupancy(payload_bytes),
                payload_bytes + self.cfg.dps_header_bytes,
            ),
        };
        let (tx_start, tx_end) = self.tx[src.index()].reserve(now + connect, occupancy);
        // Cut-through: the receive lane engages one propagation delay after
        // transmission starts and must be held for the same occupancy.
        let (_, rx_end) = self.rx[dst.index()].reserve(tx_start + self.cfg.latency, occupancy);
        self.transfers += 1;
        self.wire_bytes += wire_bytes;
        TransferPlan {
            sender_done: tx_end,
            delivered: rx_end,
            wire_bytes,
        }
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::new(4, NetConfig::ideal())
    }

    #[test]
    fn same_node_is_free() {
        let mut n = net();
        let p = n.transfer(
            SimTime(5),
            NodeId(1),
            NodeId(1),
            1_000_000,
            Traffic::DpsObject,
        );
        assert_eq!(p.sender_done, SimTime(5));
        assert_eq!(p.delivered, SimTime(5));
        assert_eq!(p.wire_bytes, 0);
        assert_eq!(n.transfer_count(), 0);
    }

    #[test]
    fn cross_node_takes_wire_time() {
        let mut cfg = NetConfig::ideal();
        cfg.bandwidth_bps = 1e9; // 1 byte/ns
        let mut n = NetworkModel::new(2, cfg);
        let p = n.transfer(SimTime(0), NodeId(0), NodeId(1), 1000, Traffic::Socket);
        assert_eq!(p.sender_done, SimTime(1000));
        assert_eq!(p.delivered, SimTime(1000));
        assert_eq!(p.wire_bytes, 1000);
    }

    #[test]
    fn connect_latency_paid_once_per_pair() {
        let mut cfg = NetConfig::ideal();
        cfg.connect_latency = SimSpan::from_nanos(500);
        let mut n = NetworkModel::new(2, cfg);
        assert!(!n.is_connected(NodeId(0), NodeId(1)));
        let p1 = n.transfer(SimTime(0), NodeId(0), NodeId(1), 0, Traffic::Socket);
        assert_eq!(p1.delivered, SimTime(500));
        assert!(n.is_connected(NodeId(0), NodeId(1)));
        // Reverse direction reuses the same TCP connection.
        let p2 = n.transfer(SimTime(600), NodeId(1), NodeId(0), 0, Traffic::Socket);
        assert_eq!(p2.delivered, SimTime(600));
    }

    #[test]
    fn tx_lane_serializes_two_sends() {
        let mut cfg = NetConfig::ideal();
        cfg.bandwidth_bps = 1e9;
        let mut n = NetworkModel::new(3, cfg);
        let a = n.transfer(SimTime(0), NodeId(0), NodeId(1), 100, Traffic::Socket);
        let b = n.transfer(SimTime(0), NodeId(0), NodeId(2), 100, Traffic::Socket);
        assert_eq!(a.sender_done, SimTime(100));
        assert_eq!(b.sender_done, SimTime(200), "second send queued on tx lane");
    }

    #[test]
    fn full_duplex_send_and_receive_overlap() {
        // Ring forwarding: node 1 receives from 0 while sending to 2.
        let mut cfg = NetConfig::ideal();
        cfg.bandwidth_bps = 1e9;
        let mut n = NetworkModel::new(3, cfg);
        let in1 = n.transfer(SimTime(0), NodeId(0), NodeId(1), 1000, Traffic::Socket);
        let out1 = n.transfer(SimTime(0), NodeId(1), NodeId(2), 1000, Traffic::Socket);
        // Both complete at t=1000: rx and tx lanes are independent.
        assert_eq!(in1.delivered, SimTime(1000));
        assert_eq!(out1.sender_done, SimTime(1000));
    }

    #[test]
    fn rx_lane_serializes_two_receives() {
        let mut cfg = NetConfig::ideal();
        cfg.bandwidth_bps = 1e9;
        let mut n = NetworkModel::new(3, cfg);
        let a = n.transfer(SimTime(0), NodeId(0), NodeId(2), 100, Traffic::Socket);
        let b = n.transfer(SimTime(0), NodeId(1), NodeId(2), 100, Traffic::Socket);
        assert_eq!(a.delivered, SimTime(100));
        assert_eq!(b.sender_done, SimTime(100), "its own tx lane was free");
        assert_eq!(
            b.delivered,
            SimTime(200),
            "second receive queued on rx lane"
        );
    }

    #[test]
    fn totals_count_only_cross_node_transfers() {
        let mut n = NetworkModel::new(3, NetConfig::default());
        let header = NetConfig::default().dps_header_bytes;
        n.transfer(SimTime(0), NodeId(0), NodeId(1), 10, Traffic::Socket);
        n.transfer(SimTime(0), NodeId(2), NodeId(2), 1_000, Traffic::DpsObject);
        n.transfer(SimTime(0), NodeId(1), NodeId(2), 20, Traffic::DpsObject);
        assert_eq!(n.transfer_count(), 2);
        assert_eq!(n.wire_bytes_total(), 10 + 20 + header);
    }

    #[test]
    fn dps_traffic_carries_header() {
        let mut n = NetworkModel::new(2, NetConfig::default());
        let p = n.transfer(SimTime(0), NodeId(0), NodeId(1), 1000, Traffic::DpsObject);
        assert_eq!(p.wire_bytes, 1000 + NetConfig::default().dps_header_bytes);
        assert_eq!(n.wire_bytes_total(), p.wire_bytes);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut cfg = NetConfig::ideal();
        cfg.latency = SimSpan::from_micros(10);
        let mut n = NetworkModel::new(2, cfg);
        let p = n.transfer(SimTime(0), NodeId(0), NodeId(1), 0, Traffic::Socket);
        assert_eq!(p.delivered, SimTime(10_000));
    }
}
