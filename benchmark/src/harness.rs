//! The parent side: build the references, drive repetitions until the time
//! is up, verify every one, and reduce them to the metrics of
//! `BENCHMARK.json` — the end-to-end pass with tracing off, the traced
//! pass and the repetition-backed layer probes with it on.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dps_linalg::parallel::matmul::run_matmul;
use dps_mt::MtEngine;

use crate::child::{run_rep, Rep};
use crate::json::Metric;
use crate::probes;
use crate::rep::{lu_fingerprint, matrix_fingerprint, RepArgs};
use crate::spec::{self, EngineKind, Kind, Work, END_TO_END, NODES};
use crate::stats::{median, Stat, Summary};

/// What every pass needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long one pass measures.
    pub seconds: f64,
    pub smoke: bool,
}

impl Options {
    /// A repetition that outlives this is killed with its process group
    /// and counted as failed. Generous: on a contended box the TCP
    /// workloads run twenty times slower than on a quiet one.
    fn rep_timeout(&self) -> Duration {
        Duration::from_secs(if self.smoke { 30 } else { 60 })
    }
}

/// Repetitions attempted, and those that errored, timed out or produced a
/// wrong output (`wrong` counts the last kind alone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What a repetition's output must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// Fingerprint of the factors / product.
    Hash(u64),
    /// Chunks (= iterations: SS hands out one a chunk) over all steps.
    Chunks(u64),
    /// Checked inside the repetition.
    Internal,
}

/// Build the reference for `kind`'s output, and report the sequential
/// baseline it took (`linalg.seq_lu_s` / `linalg.seq_matmul_s`) when the
/// kind has one.
///
/// * LU: the factors and pivots of the sequential `blocked_lu`, bit for
///   bit.
/// * matmul: the product of the same configuration on `MtEngine` — byte
///   identity across engines — which itself must sit within 1e-9 (max
///   abs) of the sequential product.
/// * DLS: exact chunk counts.
pub fn reference(kind: Kind, opts: &Options) -> Result<(Reference, Option<Metric>), String> {
    match spec::work(kind, opts.seed, opts.smoke) {
        Work::Lu(cfg) => {
            let (secs, factors) = probes::seq_lu(cfg.n, cfg.r, cfg.seed);
            Ok((
                Reference::Hash(lu_fingerprint(&factors)),
                Some(Metric::new("linalg.seq_lu_s", secs, "s")),
            ))
        }
        Work::Matmul(cfg) => {
            let (secs, seq) = probes::seq_matmul(cfg.n, cfg.seed);
            let mut eng = MtEngine::new(NODES);
            let rep = run_matmul(&mut eng, &cfg, 0)
                .map_err(|e| format!("matmul reference run on mt failed: {e}"))?;
            eng.shutdown();
            let mut diff = rep.c.clone();
            diff.sub_assign(&seq);
            let err = diff.max_abs();
            if err.is_nan() || err > 1e-9 {
                return Err(format!(
                    "matmul on mt is {err:e} (max abs) away from the sequential product; limit 1e-9"
                ));
            }
            Ok((
                Reference::Hash(matrix_fingerprint(&rep.c)),
                Some(Metric::new("linalg.seq_matmul_s", secs, "s")),
            ))
        }
        Work::Dls(cfg) => Ok((Reference::Chunks(cfg.iters * u64::from(cfg.steps)), None)),
        Work::Tokens { .. } => Ok((Reference::Internal, None)),
    }
}

/// Check one repetition's output against the reference.
fn verify(reference: &Reference, rep: &Rep) -> Result<(), String> {
    match reference {
        Reference::Hash(want) => {
            let want = format!("{want:016x}");
            match rep.text("hash") {
                Some(got) if got == want => Ok(()),
                got => Err(format!("output fingerprint {got:?}, reference {want}")),
            }
        }
        Reference::Chunks(want) => {
            for key in ["chunks", "reported_chunks"] {
                let got = rep.num(key)?;
                if got != *want as f64 {
                    return Err(format!("{key} = {got}, expected exactly {want}"));
                }
            }
            Ok(())
        }
        Reference::Internal => Ok(()),
    }
}

/// Run verified repetitions of `kind`: at least `min`, then on until
/// `until` would be overrun by one more (judged by the last one's length).
/// Failures are tallied and logged, never sampled; two of them end the
/// pass early (a broken build would otherwise burn the whole budget on
/// timeouts).
fn repetitions(
    kind: Kind,
    opts: &Options,
    traced: bool,
    min: usize,
    until: Option<Instant>,
    reference: &Reference,
    tally: &mut Tally,
) -> Vec<Rep> {
    let mut good = Vec::new();
    let mut failures = 0;
    loop {
        let args = RepArgs {
            kind,
            seed: opts.seed,
            smoke: opts.smoke,
            traced,
        };
        tally.attempted += 1;
        let t0 = Instant::now();
        match run_rep(args, opts.rep_timeout()) {
            Ok(rep) => match verify(reference, &rep) {
                Ok(()) => good.push(rep),
                Err(e) => {
                    eprintln!("# {} repetition WRONG OUTPUT: {e}", kind.name());
                    tally.failed += 1;
                    tally.wrong += 1;
                    failures += 1;
                }
            },
            Err(e) => {
                eprintln!("# {} repetition FAILED: {e}", kind.name());
                tally.failed += 1;
                failures += 1;
            }
        }
        let last = t0.elapsed();
        let enough = good.len() >= min;
        let out_of_time = until.is_none_or(|u| Instant::now() + last > u);
        if failures >= 2 || (enough && out_of_time) {
            return good;
        }
    }
}

/// The share of `window_s` the hypervisor kept the busiest CPU from us.
/// 0 on bare metal and on a quiet host.
fn steal_share(steal_s: f64, window_s: f64) -> f64 {
    if window_s > 0.0 {
        (steal_s / window_s).clamp(0.0, 0.95)
    } else {
        0.0
    }
}

/// The measured section of `rep` in seconds, net of stolen time: the wall
/// clock scaled by the share of the work window in which the busiest
/// vCPU was actually ours. On a quiet host this *is* the wall clock; on a
/// contended one it removes the part of the noise the guest can see.
fn makespan_net(rep: &Rep) -> Result<f64, String> {
    let share = steal_share(rep.num("steal_work_s")?, rep.num("work_s")?);
    Ok(rep.num("makespan_s")? * (1.0 - share))
}

/// What a repetition costs before and around its measured section —
/// process start, engine construction (on TCP: spawn, connect, declaration
/// sync), operand staging, result gather, fingerprinting, process exit —
/// net of stolen time like [`makespan_net`]. Engine teardown is left out:
/// `NetEngine::shutdown` joins a heartbeat thread that sleeps out its
/// 250 ms tick, a uniformly random wait that would drown the rest (it is
/// reported by itself as `netengine.shutdown_s`).
fn setup_net(rep: &Rep) -> Result<f64, String> {
    let share = steal_share(rep.num("steal_rep_s")?, rep.num("rep_s")?);
    let outside = rep.wall_s - rep.num("makespan_s")? - rep.num("shutdown_s")?;
    Ok(outside.max(0.0) * (1.0 - share))
}

/// One end-to-end pass over a workload, tracing off.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub kind: Kind,
    pub tally: Tally,
    pub makespan_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Raw wall-clock makespans and the steal share of each repetition:
    /// printed beside the gated numbers, never gated themselves.
    pub makespan_wall_s: Vec<f64>,
    pub steal_share: Vec<f64>,
    /// Distinct virtual makespans seen (`dls_ss_sim`): more than one means
    /// the simulator did not repeat bit-exactly.
    pub virtual_ns: BTreeSet<u64>,
}

impl EndToEnd {
    /// Outputs all verified, at least one sample, and the simulator (if
    /// this is its workload) predicted one makespan only.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0 && !self.makespan_s.is_empty() && self.virtual_ns.len() <= 1
    }

    /// The samples of the gated metrics, in [`END_TO_END`] order.
    pub fn gated(&self) -> [&Vec<f64>; 3] {
        [&self.makespan_s, &self.setup_s, &self.peak_rss_mb]
    }

    /// The gated metrics, each reduced over the repetitions by its gate's
    /// statistic.
    pub fn metrics(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .zip(self.gated())
            .map(|(gate, values)| {
                Metric::new(gate.name, (gate.stat)(self.kind).of(values), gate.unit)
            })
            .collect()
    }
}

/// Run `kind` for `opts.seconds` with tracing off. `Err` only when the
/// reference itself cannot be built.
pub fn end_to_end(kind: Kind, opts: &Options) -> Result<EndToEnd, String> {
    let (reference, _) = reference(kind, opts)?;
    let until = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut out = EndToEnd {
        kind,
        tally: Tally::default(),
        makespan_s: Vec::new(),
        setup_s: Vec::new(),
        peak_rss_mb: Vec::new(),
        makespan_wall_s: Vec::new(),
        steal_share: Vec::new(),
        virtual_ns: BTreeSet::new(),
    };
    let reps = repetitions(
        kind,
        opts,
        false,
        3,
        Some(until),
        &reference,
        &mut out.tally,
    );
    for rep in &reps {
        // A report missing a field is a failed repetition, not a sample.
        let fields = (|| -> Result<_, String> {
            Ok((
                makespan_net(rep)?,
                setup_net(rep)?,
                rep.num("peak_rss_kb")? / 1024.0,
                rep.num("makespan_s")?,
                steal_share(rep.num("steal_work_s")?, rep.num("work_s")?),
                match kind.engine() {
                    EngineKind::Sim => Some(rep.num("virtual_ns")? as u64),
                    _ => None,
                },
            ))
        })();
        match fields {
            Ok((makespan, setup, rss, wall, steal, virtual_ns)) => {
                out.makespan_s.push(makespan);
                out.setup_s.push(setup);
                out.peak_rss_mb.push(rss);
                out.makespan_wall_s.push(wall);
                out.steal_share.push(steal);
                out.virtual_ns.extend(virtual_ns);
            }
            Err(e) => {
                eprintln!("# {} repetition report unusable: {e}", kind.name());
                out.tally.failed += 1;
            }
        }
    }
    Ok(out)
}

/// The traced pass over one workload plus every layer probe: all the
/// per-layer metrics of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Layers {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// False when a count that must repeat exactly differed between the
    /// traced repetitions, or a traced repetition dropped events.
    pub consistent: bool,
}

/// Counts of the traced pass that must be identical on every repetition
/// of a workload: the flow graph and the chunk policy fix them.
/// (`queue_depth_peak` is a race-dependent high-water mark; it and the
/// event totals are reported, not pinned.)
pub const EXACT_COUNTS: [(&str, &str); 5] = [
    ("mt.tokens_enqueued", "m.tokens_enqueued"),
    ("sched.chunk_claims", "m.chunk_claims"),
    ("sched.chunk_reports", "m.chunk_reports"),
    ("sched.leases_opened", "m.leases_opened"),
    ("core.sim_virtual_makespan", "virtual_ns"),
];

/// Reduce the traced repetitions of `kind` to its per-layer metrics.
/// Counts come from the last repetition (and must agree with the others);
/// times are medians.
fn traced_metrics(kind: Kind, reps: &[Rep], consistent: &mut bool) -> Vec<Metric> {
    let engine = kind.engine();
    let count = |key: &str| reps.last().map_or(0.0, |r| r.num_or_zero(key));
    let med = |key: &str| median(&reps.iter().map(|r| r.num_or_zero(key)).collect::<Vec<_>>());
    let only_on = |e: EngineKind, v: f64| if engine == e { v } else { 0.0 };

    let frames = count("m.frames_sent");
    let wire = count("m.wire_bytes_sent");
    let virtual_ns = count("virtual_ns");
    let m = vec![
        Metric::new("mt.tokens_enqueued", count("m.tokens_enqueued"), "count"),
        Metric::new("sched.chunk_claims", count("m.chunk_claims"), "count"),
        Metric::new("sched.chunk_reports", count("m.chunk_reports"), "count"),
        Metric::new("sched.leases_opened", count("m.leases_opened"), "count"),
        Metric::new("mt.queue_depth_peak", count("m.queue_depth_peak"), "count"),
        Metric::new("netengine.frames_sent", frames, "count"),
        Metric::new("netengine.wire_bytes_sent", wire, "bytes"),
        Metric::new(
            "netengine.bytes_per_frame",
            if frames > 0.0 { wire / frames } else { 0.0 },
            "bytes",
        ),
        Metric::new(
            "netengine.hub_claims",
            only_on(EngineKind::Net, count("m.chunk_claims")),
            "count",
        ),
        Metric::new(
            "core.sim_trace_events",
            only_on(EngineKind::Sim, count("events")),
            "count",
        ),
        Metric::new("core.sim_virtual_makespan", virtual_ns, "virtual_ns"),
        Metric::new(
            "mt.worker_busy_share",
            match engine {
                EngineKind::Mt => med("busy_all"),
                EngineKind::Net => med("busy_local"),
                EngineKind::Sim => 0.0,
            },
            "share",
        ),
        Metric::new(
            "netengine.worker_busy_share",
            only_on(EngineKind::Net, med("busy_remote")),
            "share",
        ),
        Metric::new("mt.queue_wait_p50_us", med("wait_p50_us"), "us"),
        Metric::new("mt.queue_wait_p99_us", med("wait_p99_us"), "us"),
        Metric::new("obs.events_recorded", count("events"), "count"),
        Metric::new("obs.events_dropped", count("m.events_dropped"), "count"),
        Metric::new("obs.take_log_s", med("take_log_s"), "s"),
    ];

    for rep in reps {
        if rep.num_or_zero("m.events_dropped") != 0.0 {
            eprintln!(
                "# {} traced repetition DROPPED {} events: ring too small",
                kind.name(),
                rep.num_or_zero("m.events_dropped")
            );
            *consistent = false;
        }
    }
    for (name, key) in EXACT_COUNTS {
        let seen: BTreeSet<u64> = reps.iter().map(|r| r.num_or_zero(key) as u64).collect();
        if seen.len() > 1 {
            eprintln!(
                "# {} traced count {name} did not repeat: {seen:?}",
                kind.name()
            );
            *consistent = false;
        }
    }
    m
}

/// Median net makespan of `n` repetitions of `kind` against `reference`
/// (0, after a logged failure, when none succeeds).
fn probe_makespan(
    kind: Kind,
    opts: &Options,
    traced: bool,
    n: usize,
    reference: &Reference,
    tally: &mut Tally,
) -> f64 {
    let reps = repetitions(kind, opts, traced, n, None, reference, tally);
    median(
        &reps
            .iter()
            .filter_map(|r| makespan_net(r).ok())
            .collect::<Vec<_>>(),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The probes that need whole repetitions: engine-to-engine ratios, the
/// token path of a TCP engine, trace overhead. One repetition a side
/// (five of `lu_mt`, a fourteenth of a second each; two in the overhead
/// pair, whose difference is the point).
fn repetition_probes(opts: &Options, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();

    // LU: sequential baseline, parallel efficiency on two threads.
    let (lu_ref, seq_lu) = reference(Kind::LuMt, opts)?;
    let seq_lu = seq_lu.expect("LU has a sequential baseline");
    let lu_mt = probe_makespan(Kind::LuMt, opts, false, 5, &lu_ref, tally);
    out.push(Metric::new(
        "mt.lu_parallel_efficiency",
        ratio(seq_lu.value, NODES as f64 * lu_mt),
        "share",
    ));
    out.push(seq_lu);

    // The same configuration on TCP and on threads: the factor open item 3
    // (take the master off the per-chunk path) has to shrink.
    let (net_ref, _) = reference(Kind::LuNet, opts)?;
    let lu_net = probe_makespan(Kind::LuNet, opts, false, 1, &net_ref, tally);
    let lu_net_on_mt = probe_makespan(Kind::LuNetOnMt, opts, false, 1, &net_ref, tally);
    out.push(Metric::new(
        "netengine.lu_net_over_mt",
        ratio(lu_net, lu_net_on_mt),
        "ratio",
    ));
    let (mm_ref, seq_mm) = reference(Kind::MatmulNet, opts)?;
    out.push(seq_mm.expect("matmul has a sequential baseline"));
    let mm_net = probe_makespan(Kind::MatmulNet, opts, false, 1, &mm_ref, tally);
    let mm_net_on_mt = probe_makespan(Kind::MatmulNetOnMt, opts, false, 1, &mm_ref, tally);
    out.push(Metric::new(
        "netengine.matmul_net_over_mt",
        ratio(mm_net, mm_net_on_mt),
        "ratio",
    ));

    // Trivial tokens through a TCP engine.
    let net_tokens = repetitions(
        Kind::NetTokens,
        opts,
        false,
        1,
        None,
        &Reference::Internal,
        tally,
    );
    let field = |key: &str| net_tokens.last().map_or(0.0, |r| r.num_or_zero(key));
    out.push(Metric::new("netengine.exec_rtt_us", field("rtt_us"), "us"));
    out.push(Metric::new(
        "netengine.tokens_per_s",
        field("tokens_per_s"),
        "1/s",
    ));
    out.push(Metric::new(
        "netengine.spawn_connect_s",
        field("construct_s"),
        "s",
    ));
    out.push(Metric::new(
        "netengine.shutdown_s",
        field("shutdown_s"),
        "s",
    ));

    // The DLS loop three ways: the simulator's rate, the bimodal window-8
    // variant (reported, never gated), and with the trace sink attached.
    let mut dls = |kind: Kind, traced: bool, n: usize| -> Result<(f64, f64), String> {
        let (reference, _) = reference(kind, opts)?;
        let Reference::Chunks(chunks) = reference else {
            unreachable!("DLS kinds are verified by chunk count");
        };
        let secs = probe_makespan(kind, opts, traced, n, &reference, tally);
        Ok((chunks as f64, secs))
    };
    let (chunks, secs) = dls(Kind::DlsSsSim, false, 1)?;
    out.push(Metric::new(
        "core.sim_chunks_per_s",
        ratio(chunks, secs),
        "1/s",
    ));
    let (chunks, secs) = dls(Kind::DlsW8Mt, false, 1)?;
    out.push(Metric::new(
        "mt.window8_chunks_per_s",
        ratio(chunks, secs),
        "1/s",
    ));
    let (_, plain) = dls(Kind::DlsSsMt, false, 2)?;
    let (_, traced) = dls(Kind::DlsSsMt, true, 2)?;
    out.push(Metric::new(
        "obs.trace_overhead_pct",
        100.0 * ratio(traced - plain, plain),
        "%",
    ));
    Ok(out)
}

/// Every layer probe, in-process and repetition-backed. Independent of
/// the workload: the full run takes them once.
pub fn layer_probes(opts: &Options, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut out = probes::run_all(opts.smoke)?;
    out.extend(repetition_probes(opts, tally)?);
    Ok(out)
}

/// The traced pass over `kind`: at least two repetitions with the trace
/// sink attached, more while `until` allows, never mixed into the
/// end-to-end medians.
pub fn traced_pass(kind: Kind, opts: &Options, until: Option<Instant>) -> Result<Layers, String> {
    let (reference, _) = reference(kind, opts)?;
    let mut tally = Tally::default();
    let reps = repetitions(kind, opts, true, 2, until, &reference, &mut tally);
    let mut consistent = !reps.is_empty();
    let metrics = traced_metrics(kind, &reps, &mut consistent);
    Ok(Layers {
        tally,
        metrics,
        consistent,
    })
}

/// One `--trace 1` run: the probes, then the traced pass with whatever is
/// left of `opts.seconds` (two repetitions at least).
pub fn layers(kind: Kind, opts: &Options) -> Result<Layers, String> {
    let until = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut tally = Tally::default();
    let mut metrics = layer_probes(opts, &mut tally)?;
    let traced = traced_pass(kind, opts, Some(until))?;
    metrics.extend(traced.metrics);
    tally += traced.tally;
    Ok(Layers {
        tally,
        metrics,
        consistent: traced.consistent,
    })
}

/// `name  <stat> …  median … q1 … q3 … n=…` for the human-readable part of
/// a report: the value `stat` reduces `values` to (the one reported), then
/// the distribution around it.
pub fn describe(name: &str, unit: &str, stat: Stat, values: &[f64]) -> String {
    match Summary::of(values) {
        None => format!("{name:<34} no samples"),
        Some(s) => {
            let tail = match s.tail {
                Some((p, v)) => format!("p{p}={v:.6}"),
                None => "tail: n<40, median only".to_string(),
            };
            let reported = match stat {
                Stat::Median => String::new(),
                other => format!("{} {:.6} {unit}  ", other.label(), other.of(values)),
            };
            format!(
                "{name:<34} {reported}median {:.6} {unit}  q1 {:.6}  q3 {:.6}  spread {:.3}  n={}  ({tail})",
                s.median,
                s.q1,
                s.q3,
                s.spread(),
                s.n
            )
        }
    }
}
