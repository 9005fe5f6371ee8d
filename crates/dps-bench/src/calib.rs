//! Calibration of the virtual cluster to the paper's testbed.
//!
//! The paper's measurements were taken on "a cluster of bi-processor
//! 733 MHz Pentium III PCs with 512 MB of RAM, running Windows 2000 […]
//! composed of 8 computers (nodes), interconnected with a Gigabit Ethernet
//! switch". The constants below pin the simulator to that machine:
//!
//! * **Compute: 70 MFLOP/s sustained** per scalar kernel stream. Fitted
//!   from Table 1: at one node and s = 4 (256-block), the paper reports a
//!   communication/computation ratio of 0.22; with communication
//!   `n²(2s+1)·8 B ≈ 75.5 MB → 2.1 s` at the 36 MB/s link rate, computation
//!   must be ≈ 9.5 s for `2n³ = 2.1 GFLOP`, i.e. ≈ 110 MFLOP/s for the
//!   whole node — about 70 MFLOP/s per active thread once both CPUs share
//!   the memory bus. (A 733 MHz P-III retiring roughly one scalar FP op
//!   every 7–10 cycles on non-blocked triple loops is consistent.)
//! * **Network: 36 MB/s effective TCP payload bandwidth** — the plateau of
//!   Fig. 6's socket curve; Gigabit line rate is 125 MB/s but the 733 MHz
//!   hosts are protocol-stack-bound.
//! * **55 µs fixed cost per message** per NIC direction — fitted to the
//!   low-size end of Fig. 6 (at 1 KB transfers the socket curve sits near
//!   2 MB/s ⇒ ≈ 0.5 ms per 1 KB round-hop ⇒ tens of µs per direction).
//! * **96 control bytes + 40 µs per DPS data object** — the gap between
//!   the DPS and socket curves of Fig. 6 at small sizes.
//! * **2 ms TCP connect**, **120 ms lazy instance launch** (paper §4: ≈1 s
//!   to full N-to-N start-up on 8 nodes).
//!
//! These values are *defaults* of [`dps_net::NetConfig`],
//! [`dps_cluster::NodeSpec::paper_node`] and `dps_core::EngineConfig`:
//! every harness binary runs on `ClusterSpec::paper_testbed(n)` with
//! `EngineConfig::default()` (a 64-token flow window per split/merge pair
//! and a 25 µs per-operation framework overhead, fitted to Table 2's
//! small-block call times), so all experiments share one calibration.

#[cfg(test)]
mod tests {
    #[test]
    fn cluster_matches_testbed() {
        let c = dps_cluster::ClusterSpec::paper_testbed(8);
        assert_eq!(c.len(), 8);
        assert_eq!(c.node(dps_net::NodeId(0)).cpus, 2);
        assert!((c.node(dps_net::NodeId(0)).flops - 70.0e6).abs() < 1.0);
        assert!((c.net.bandwidth_bps - 36.0e6).abs() < 1.0);
    }

    #[test]
    fn engine_config_is_the_calibrated_default() {
        let e = dps_core::EngineConfig::default();
        assert_eq!(e.flow_window, 64);
        assert_eq!(e.op_overhead, dps_des::SimSpan::from_micros(25));
        assert!(!e.enforce_serialization);
    }
}
