//! What the benchmark runs: the five gated workloads, the helper
//! repetitions the layer probes need, and their sizes.

use dps_bench::dls::DlsConfig;
use dps_linalg::parallel::lu::LuConfig;
use dps_linalg::parallel::matmul::MatMulConfig;
use dps_sched::{Distribution, PolicyKind};

use crate::stats::Stat;

/// Cluster shape of every run: 2 nodes × 1 worker thread (this box has
/// two cores; on TCP that is the master plus one worker process).
pub const NODES: usize = 2;

/// One kind of repetition a child process can run. The first five are the
/// workloads of `BENCHMARK.json`; the rest exist for the layer probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LuMt,
    DlsSsMt,
    DlsSsSim,
    LuNet,
    MatmulNet,
    /// `lu_net`'s configuration on `MtEngine` (the overhead-factor base).
    LuNetOnMt,
    /// `matmul_net`'s configuration on `MtEngine`; also its byte-identity
    /// reference.
    MatmulNetOnMt,
    /// `dls_ss_mt` with `flow_window = 8`: bimodal, so never gated.
    DlsW8Mt,
    /// Token round trips and throughput through rank 0 over TCP.
    NetTokens,
}

/// Which engine a kind runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Mt,
    Sim,
    Net,
}

impl Kind {
    /// The gated workloads, in report order.
    pub const WORKLOADS: [Kind; 5] = [
        Kind::LuMt,
        Kind::DlsSsMt,
        Kind::DlsSsSim,
        Kind::LuNet,
        Kind::MatmulNet,
    ];

    const ALL: [Kind; 9] = [
        Kind::LuMt,
        Kind::DlsSsMt,
        Kind::DlsSsSim,
        Kind::LuNet,
        Kind::MatmulNet,
        Kind::LuNetOnMt,
        Kind::MatmulNetOnMt,
        Kind::DlsW8Mt,
        Kind::NetTokens,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LuMt => "lu_mt",
            Kind::DlsSsMt => "dls_ss_mt",
            Kind::DlsSsSim => "dls_ss_sim",
            Kind::LuNet => "lu_net",
            Kind::MatmulNet => "matmul_net",
            Kind::LuNetOnMt => "lu_net_on_mt",
            Kind::MatmulNetOnMt => "matmul_net_on_mt",
            Kind::DlsW8Mt => "dls_w8_mt",
            Kind::NetTokens => "net_tokens",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A `--workload` argument: only the gated five.
    pub fn workload_from_name(name: &str) -> Option<Kind> {
        Kind::WORKLOADS.into_iter().find(|k| k.name() == name)
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Kind::LuMt | Kind::DlsSsMt | Kind::LuNetOnMt | Kind::MatmulNetOnMt | Kind::DlsW8Mt => {
                EngineKind::Mt
            }
            Kind::DlsSsSim => EngineKind::Sim,
            Kind::LuNet | Kind::MatmulNet | Kind::NetTokens => EngineKind::Net,
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`: lower is better for all of
/// them, `stat` is how a run's repetitions of a workload reduce to the
/// value reported, and `bound` is the share of that value it may move
/// before `--check-repeat` (and the driver) call it a regression. A test
/// keeps this table and the file in step.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub stat: fn(Kind) -> Stat,
    pub bound: f64,
}

/// A makespan is reported as its run's floor where the repetition is one
/// process: there a shared host only ever adds time, in phases of seconds
/// to minutes, and a run's median follows the neighbours (`README.md` has
/// the numbers). Not on TCP: two processes that wake each other thousands
/// of times a repetition run a fifth faster in streaks of a few seconds
/// (the hypervisor's halt polling, by the look of it), a minority mode the
/// floor would chase and the median ignores.
fn makespan_stat(kind: Kind) -> Stat {
    match kind.engine() {
        EngineKind::Mt | EngineKind::Sim => Stat::Floor,
        EngineKind::Net => Stat::Median,
    }
}

pub const END_TO_END: [Gate; 3] = [
    Gate {
        name: "makespan_s",
        unit: "s",
        stat: makespan_stat,
        bound: 0.25,
    },
    // Process start, connect and staging have no fast mode on any engine.
    Gate {
        name: "setup_s",
        unit: "s",
        stat: |_| Stat::Floor,
        bound: 0.25,
    },
    Gate {
        name: "peak_rss_mb",
        unit: "MB",
        stat: |_| Stat::Median,
        bound: 0.10,
    },
];

/// Every per-layer metric of `BENCHMARK.json`, in the order a `--trace 1`
/// run prints them: `(name, unit, better)`. The layer probes come first
/// (the same on every workload), then the traced pass (of the workload
/// asked for). A run checks what it emits against this table, and a test
/// checks the table against the file.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("linalg.gemm_gflops", "GFLOP/s", "higher"),
    ("linalg.trsm_gflops", "GFLOP/s", "higher"),
    ("linalg.panel_lu_gflops", "GFLOP/s", "higher"),
    ("sched.claim_mops", "Mop/s", "higher"),
    ("sched.report_mops", "Mop/s", "higher"),
    ("sched.chunk_calc_ns", "ns", "lower"),
    ("mt.tokens_per_s", "1/s", "higher"),
    ("mt.submit_rtt_us", "us", "lower"),
    ("mt.engine_start_s", "s", "lower"),
    ("mt.shutdown_s", "s", "lower"),
    ("des.events_per_s", "1/s", "higher"),
    ("serial.small_encode_ns", "ns", "lower"),
    ("serial.small_decode_ns", "ns", "lower"),
    ("serial.encode_gbps", "GB/s", "higher"),
    ("serial.decode_gbps", "GB/s", "higher"),
    ("transport.tcp_rtt_us", "us", "lower"),
    ("transport.tcp_gbps", "GB/s", "higher"),
    ("transport.loopback_rtt_us", "us", "lower"),
    ("transport.loopback_gbps", "GB/s", "higher"),
    ("obs.record_ns", "ns", "lower"),
    ("mt.lu_parallel_efficiency", "share", "higher"),
    ("linalg.seq_lu_s", "s", "lower"),
    ("netengine.lu_net_over_mt", "ratio", "lower"),
    ("linalg.seq_matmul_s", "s", "lower"),
    ("netengine.matmul_net_over_mt", "ratio", "lower"),
    ("netengine.exec_rtt_us", "us", "lower"),
    ("netengine.tokens_per_s", "1/s", "higher"),
    ("netengine.spawn_connect_s", "s", "lower"),
    ("netengine.shutdown_s", "s", "lower"),
    ("core.sim_chunks_per_s", "1/s", "higher"),
    ("mt.window8_chunks_per_s", "1/s", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("mt.tokens_enqueued", "count", "lower"),
    ("sched.chunk_claims", "count", "lower"),
    ("sched.chunk_reports", "count", "lower"),
    ("sched.leases_opened", "count", "lower"),
    ("mt.queue_depth_peak", "count", "lower"),
    ("netengine.frames_sent", "count", "lower"),
    ("netengine.wire_bytes_sent", "bytes", "lower"),
    ("netengine.bytes_per_frame", "bytes", "higher"),
    ("netengine.hub_claims", "count", "lower"),
    ("core.sim_trace_events", "count", "lower"),
    ("core.sim_virtual_makespan", "virtual_ns", "lower"),
    ("mt.worker_busy_share", "share", "higher"),
    ("netengine.worker_busy_share", "share", "higher"),
    ("mt.queue_wait_p50_us", "us", "lower"),
    ("mt.queue_wait_p99_us", "us", "lower"),
    ("obs.events_recorded", "count", "lower"),
    ("obs.events_dropped", "count", "lower"),
    ("obs.take_log_s", "s", "lower"),
];

/// The work one repetition does.
#[derive(Debug, Clone)]
pub enum Work {
    Lu(LuConfig),
    Matmul(MatMulConfig),
    Dls(DlsConfig),
    /// `pings` sequential one-token round trips, then one burst of `burst`
    /// tokens.
    Tokens {
        pings: u32,
        burst: u32,
    },
}

fn lu(n: usize, r: usize, seed: u64) -> Work {
    Work::Lu(LuConfig {
        n,
        r,
        pipelined: true,
        seed,
        nodes: NODES,
        threads_per_node: 1,
        dist: Distribution::Static,
        update_chunks: 4,
    })
}

fn matmul(n: usize, s: usize, seed: u64) -> Work {
    Work::Matmul(MatMulConfig {
        n,
        s,
        pipelined: true,
        seed,
        nodes: NODES,
        threads_per_node: 1,
        dist: Distribution::Static,
    })
}

fn dls(iters: u64, flow_window: u32) -> Work {
    Work::Dls(DlsConfig {
        iters,
        steps: 4,
        policy: PolicyKind::Ss,
        flow_window,
    })
}

/// The work of `kind`. `seed` feeds the matrix seeds; the DLS loops have
/// no data and ignore it. `smoke` shrinks every size so the whole command
/// ends in seconds with the same code paths and checks.
pub fn work(kind: Kind, seed: u64, smoke: bool) -> Work {
    match (kind, smoke) {
        (Kind::LuMt, false) => lu(1024, 64, seed),
        (Kind::LuMt, true) => lu(256, 32, seed),
        (Kind::LuNet | Kind::LuNetOnMt, false) => lu(512, 32, seed),
        (Kind::LuNet | Kind::LuNetOnMt, true) => lu(128, 32, seed),
        (Kind::MatmulNet | Kind::MatmulNetOnMt, false) => matmul(1024, 8, seed),
        (Kind::MatmulNet | Kind::MatmulNetOnMt, true) => matmul(128, 4, seed),
        (Kind::DlsSsMt, false) => dls(100_000, 0),
        (Kind::DlsSsMt, true) => dls(2_000, 0),
        (Kind::DlsSsSim, false) => dls(100_000, 8),
        (Kind::DlsW8Mt, false) => dls(10_000, 8),
        (Kind::DlsSsSim | Kind::DlsW8Mt, true) => dls(2_000, 8),
        (Kind::NetTokens, false) => Work::Tokens {
            pings: 200,
            burst: 2_000,
        },
        (Kind::NetTokens, true) => Work::Tokens {
            pings: 20,
            burst: 200,
        },
    }
}

/// Trace-ring capacity (events per writer) of a traced repetition, sized
/// so no ring fills between two drains (the engines drain once per wave):
/// a DLS step is one wave of 100 k chunks, six events a chunk on `mt`
/// through three writers, twelve on the simulator through a single one.
pub fn ring_capacity(kind: Kind) -> usize {
    match kind {
        Kind::DlsSsSim => 1 << 21,
        Kind::DlsSsMt | Kind::DlsW8Mt => 1 << 20,
        _ => 1 << 17,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_follow_the_metric_rule() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
            assert!(crate::json::valid_metric_name(k.name()));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn only_the_gated_five_are_workloads() {
        assert_eq!(Kind::workload_from_name("lu_net"), Some(Kind::LuNet));
        assert_eq!(Kind::workload_from_name("net_tokens"), None);
        assert_eq!(Kind::WORKLOADS.len(), 5);
    }

    #[test]
    fn seed_reaches_the_matrices_only() {
        let Work::Lu(a) = work(Kind::LuMt, 7, false) else {
            panic!("lu_mt is an LU run");
        };
        assert_eq!((a.n, a.r, a.seed, a.update_chunks), (1024, 64, 7, 4));
        let Work::Dls(d) = work(Kind::DlsSsMt, 7, false) else {
            panic!("dls_ss_mt is a DLS run");
        };
        assert_eq!((d.iters, d.steps, d.flow_window), (100_000, 4, 0));
    }
}
