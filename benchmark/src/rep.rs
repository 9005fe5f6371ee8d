//! The child side: one repetition of one [`Kind`] on one fresh engine, in
//! a process of its own, reported as a single `DPS_REP key=value …` line.
//!
//! A process per repetition because `NetEngine::from_env` re-executes the
//! current binary as its workers and a process may create one TCP engine
//! only; the other engines follow suit so every repetition starts cold,
//! its peak memory is its own, and a hang is killed from outside.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dps_bench::dls::{matmul_cost, run_dls, DlsReport};
use dps_cluster::ClusterSpec;
use dps_core::prelude::*;
use dps_core::Engine;
use dps_linalg::parallel::lu::run_lu;
use dps_linalg::parallel::matmul::run_matmul;
use dps_linalg::{LuFactors, Matrix};
use dps_mt::{MtConfig, MtEngine};
use dps_netengine::{NetEngine, NetEngineConfig};
use dps_obs::{wave_summaries, Fnv1a, LatencyHistogram, TraceCollector};

use crate::spec::{self, EngineKind, Kind, Work, NODES};
use crate::{env, stats, tokens};

/// First word of the one line a repetition prints.
pub const LINE_TAG: &str = "DPS_REP";

/// Arguments of one repetition (the hidden `--rep` role).
#[derive(Debug, Clone, Copy)]
pub struct RepArgs {
    pub kind: Kind,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
}

/// Order-sensitive 64-bit fingerprint of an output: two outputs compare
/// byte-identical through it without the bytes leaving the process that
/// computed them. FNV-1a with `dps_obs::Fnv1a`'s constants, but folding a
/// 64-bit word a step instead of a byte — the 32 MiB of `lu_mt`'s factors
/// are fingerprinted inside every repetition, and byte-wise that alone
/// would be half of `setup_s`.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(Fnv1a::OFFSET)
    }

    pub fn words(mut self, words: impl IntoIterator<Item = u64>) -> Self {
        for w in words {
            self.0 = (self.0 ^ w).wrapping_mul(Fnv1a::PRIME);
        }
        self
    }

    pub fn floats(self, values: &[f64]) -> Self {
        self.words(values.iter().map(|v| v.to_bits()))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of LU factors: every bit of the packed matrix and every
/// pivot.
pub fn lu_fingerprint(f: &LuFactors) -> u64 {
    Fingerprint::new()
        .floats(f.lu.as_slice())
        .words(f.pivots.iter().map(|&p| p as u64))
        .finish()
}

/// Fingerprint of a matrix product: every bit of every element.
pub fn matrix_fingerprint(c: &Matrix) -> u64 {
    Fingerprint::new().floats(c.as_slice()).finish()
}

/// The engines differ in how they are torn down and in whether this
/// process is the one that reports.
trait Lifecycle: Engine {
    fn teardown(&mut self);
    /// False on a `NetEngine` worker: it runs the same SPMD driver but the
    /// master alone reports.
    fn reports(&self) -> bool {
        true
    }
}

impl Lifecycle for MtEngine {
    fn teardown(&mut self) {
        self.shutdown();
    }
}

impl Lifecycle for SimEngine {
    fn teardown(&mut self) {}
}

impl Lifecycle for NetEngine {
    fn teardown(&mut self) {
        self.shutdown();
    }
    fn reports(&self) -> bool {
        self.is_master()
    }
}

/// The fields of a repetition's report, printed in key order.
#[derive(Default)]
struct Fields(BTreeMap<String, String>);

impl Fields {
    fn put(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }
}

/// What a repetition's work function hands back: the measured section in
/// seconds and the fields that describe and fingerprint its output.
struct Outcome {
    makespan_s: f64,
    fields: Fields,
    /// An output check only the reporting process may act on (a net
    /// worker sees outputs on the master's schedule, not its own).
    check: std::result::Result<(), String>,
}

fn run_work<E: Engine>(eng: &mut E, work: &Work) -> Result<Outcome> {
    let mut fields = Fields::default();
    let mut check = Ok(());
    let makespan_s = match work {
        Work::Lu(cfg) => {
            let rep = run_lu(eng, cfg)?;
            fields.put("hash", format!("{:016x}", lu_fingerprint(&rep.factors)));
            rep.elapsed.as_secs_f64()
        }
        Work::Matmul(cfg) => {
            let rep = run_matmul(eng, cfg, 0)?;
            fields.put("hash", format!("{:016x}", matrix_fingerprint(&rep.c)));
            rep.elapsed.as_secs_f64()
        }
        Work::Dls(cfg) => {
            let t0 = Instant::now();
            let rep: DlsReport = run_dls(eng, matmul_cost(64), cfg, NODES)?;
            let wall = t0.elapsed().as_secs_f64();
            let chunks: u64 = rep.chunks.iter().map(|&c| u64::from(c)).sum();
            fields.put("chunks", chunks);
            // (`run_dls` itself asserts every step covered `iters` exactly.)
            fields.put("reported_chunks", rep.reported_chunks);
            if eng.caps().virtual_time {
                // The simulator's clock is the prediction; what this run
                // costs is the wall time to compute it.
                fields.put("virtual_ns", SimSpan::from_secs_f64(rep.total).as_nanos());
                wall
            } else {
                rep.total
            }
        }
        Work::Tokens { pings, burst } => {
            let probe = tokens::run(eng, "node1", *pings, *burst)?;
            check = probe.verify(*pings, *burst);
            let rtts_us: Vec<f64> = probe.rtts.iter().map(|s| s * 1e6).collect();
            fields.put("rtt_us", stats::median(&rtts_us));
            fields.put("tokens_per_s", f64::from(*burst) / probe.burst_s);
            probe.burst_s
        }
    };
    Ok(Outcome {
        makespan_s,
        fields,
        check,
    })
}

/// Build the engine, run the work, tear the engine down; time each part,
/// and sample the hypervisor's steal counters around the work and around
/// the whole repetition (the harness nets stolen time out of both).
/// `None` from a process that does not report (a net worker).
fn drive<E: Lifecycle>(
    make: impl FnOnce() -> std::io::Result<E>,
    trace: Option<&Arc<TraceCollector>>,
    work: &Work,
) -> std::result::Result<Option<Fields>, String> {
    let steal_a = env::steal_per_cpu_s();
    let t0 = Instant::now();
    let mut eng = make().map_err(|e| format!("engine construction failed: {e}"))?;
    if let Some(c) = trace {
        eng.set_trace_sink(Arc::clone(c));
    }
    let construct_s = t0.elapsed().as_secs_f64();
    let steal_b = env::steal_per_cpu_s();
    let t1 = Instant::now();
    let outcome = run_work(&mut eng, work);
    let work_s = t1.elapsed().as_secs_f64();
    let steal_c = env::steal_per_cpu_s();
    let t2 = Instant::now();
    eng.teardown();
    let shutdown_s = t2.elapsed().as_secs_f64();
    let rep_s = t0.elapsed().as_secs_f64();
    let steal_d = env::steal_per_cpu_s();
    if !eng.reports() {
        return Ok(None);
    }
    let Outcome {
        makespan_s,
        mut fields,
        check,
    } = outcome.map_err(|e| format!("run failed: {e}"))?;
    check?;
    fields.put("makespan_s", makespan_s);
    fields.put("construct_s", construct_s);
    fields.put("work_s", work_s);
    fields.put("shutdown_s", shutdown_s);
    fields.put("rep_s", rep_s);
    fields.put("steal_work_s", max_delta(&steal_b, &steal_c));
    fields.put("steal_rep_s", max_delta(&steal_a, &steal_d));
    Ok(Some(fields))
}

/// The most any one CPU's steal counter advanced between two samples.
fn max_delta(before: &[f64], after: &[f64]) -> f64 {
    after
        .iter()
        .zip(before)
        .map(|(b, a)| b - a)
        .fold(0.0, f64::max)
}

/// Reduce the trace of a traced repetition to fields: every registry
/// counter and gauge as `m.<name>`, the event count, how long the merge
/// took, busy shares and the enqueue→deliver wait.
fn trace_fields(collector: &TraceCollector, fields: &mut Fields) {
    let t0 = Instant::now();
    let log = collector.take_log();
    fields.put("take_log_s", t0.elapsed().as_secs_f64());
    fields.put("events", log.events.len());
    for (name, value) in collector.metrics().snapshot() {
        fields.put(&format!("m.{name}"), value);
    }

    let span = match (log.events.first(), log.events.last()) {
        (Some(a), Some(b)) => (b.at - a.at).max(1) as f64,
        _ => 1.0,
    };
    // Busy nanoseconds per track, over every wave; a track's share is its
    // busy time over the traced span. Node 0 hosts the `mt` control plane
    // (all of `mt`, the master of `net`); nodes ≥ 1 are remote workers.
    let mut busy: BTreeMap<(u16, u16), u64> = BTreeMap::new();
    let mut wait = LatencyHistogram::default();
    for w in wave_summaries(&log) {
        for (node, thread, ns) in w.busy {
            *busy.entry((node, thread)).or_default() += ns;
        }
        for (mine, theirs) in wait.buckets.iter_mut().zip(w.claim_latency.buckets) {
            *mine += theirs;
        }
        wait.count += w.claim_latency.count;
        wait.total += w.claim_latency.total;
        wait.max = wait.max.max(w.claim_latency.max);
    }
    let share = |remote: bool| {
        let shares: Vec<f64> = busy
            .iter()
            .filter(|((node, _), _)| (*node >= 1) == remote)
            .map(|(_, &ns)| ns as f64 / span)
            .collect();
        if shares.is_empty() {
            0.0
        } else {
            shares.iter().sum::<f64>() / shares.len() as f64
        }
    };
    fields.put("busy_local", share(false));
    fields.put("busy_remote", share(true));
    let all: f64 = busy.values().map(|&ns| ns as f64 / span).sum();
    fields.put("busy_all", all / busy.len().max(1) as f64);
    fields.put("wait_p50_us", wait.quantile(0.5) as f64 / 1e3);
    fields.put("wait_p99_us", wait.quantile(0.99) as f64 / 1e3);
}

/// Run one repetition and print its report line (the master process
/// only). `Err` carries what went wrong; the caller exits non-zero.
pub fn run(args: RepArgs) -> std::result::Result<(), String> {
    let work = spec::work(args.kind, args.seed, args.smoke);
    let trace = args.traced.then(|| {
        Arc::new(TraceCollector::with_ring_capacity(spec::ring_capacity(
            args.kind,
        )))
    });
    let flow_window = match &work {
        Work::Dls(cfg) => Some(cfg.flow_window),
        _ => None,
    };
    let fields = match args.kind.engine() {
        EngineKind::Mt => drive(
            || {
                // LU and matmul use the engine's defaults; the DLS loops
                // name their window.
                Ok(match flow_window {
                    Some(flow_window) => MtEngine::with_config(
                        NODES,
                        MtConfig {
                            flow_window,
                            ..MtConfig::default()
                        },
                    ),
                    None => MtEngine::new(NODES),
                })
            },
            trace.as_ref(),
            &work,
        ),
        EngineKind::Sim => drive(
            || {
                Ok(SimEngine::with_config(
                    ClusterSpec::paper_testbed(NODES),
                    EngineConfig {
                        flow_window: flow_window.unwrap_or(EngineConfig::default().flow_window),
                        ..EngineConfig::default()
                    },
                ))
            },
            trace.as_ref(),
            &work,
        ),
        EngineKind::Net => drive(
            || NetEngine::from_env(NODES, NetEngineConfig::default()),
            trace.as_ref(),
            &work,
        ),
    }?;
    let Some(mut fields) = fields else {
        return Ok(()); // a net worker: the master reports
    };
    if let Some(c) = &trace {
        trace_fields(c, &mut fields);
    }
    fields.put("peak_rss_kb", env::peak_rss_kb());
    let body: Vec<String> = fields.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{LINE_TAG} {}", body.join(" "));
    Ok(())
}
