//! Dynamic loop scheduling — makespan sweep of every chunk policy
//! (static, SS, GSS, TSS, FAC, AWF) on a 2×-skewed heterogeneous cluster:
//! first over the synthetic LU / matmul iteration-cost profiles, then over
//! the **real applications** (block LU and Game of Life driven through the
//! `Distribution` config knob).
//!
//! Beyond the paper: its splits partition statically; the DLS literature
//! (arXiv:1804.11115) shows self-scheduling chunk policies are what make
//! irregular and heterogeneous workloads fast. Chunk boundaries are
//! computed at the workers (distributed chunk calculation,
//! arXiv:2101.07050); AWF adapts its per-worker weights from the engine's
//! virtual-time completion reports.
//!
//! Machine-readable output (`workload,policy,makespan_s,vs_static_pct`):
//! `--csv` replaces the tables on stdout; `--csv-out=FILE` keeps the tables
//! and *additionally* writes the CSV to `FILE` (what CI uploads as an
//! artifact, in one run). `--full` selects paper-scale problem sizes.
//! `--trace=FILE` re-runs the AWF-scheduled LU with a trace sink attached
//! and exports it as Chrome trace-event JSON.

use dps_bench::dls::{lu_cost, matmul_cost, run_dls, CostFn, DlsConfig};
use dps_bench::{full_scale, table};
use dps_cluster::ClusterSpec;
use dps_core::{Engine, EngineConfig, SimEngine};
use dps_life::{run_life, LifeConfig, Variant};
use dps_linalg::parallel::lu::{run_lu, LuConfig};
use dps_obs::{Counter, TraceCollector};
use dps_sched::{Distribution, PolicyKind};

fn csv_mode() -> bool {
    std::env::args().any(|a| a == "--csv")
}

fn csv_out() -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix("--csv-out=").map(str::to_string))
}

fn trace_out() -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix("--trace=").map(str::to_string))
}

/// One output row: workload, policy, makespan seconds, gain vs static.
struct Row {
    workload: &'static str,
    policy: &'static str,
    makespan: f64,
    vs_static: f64,
}

fn emit(
    csv: bool,
    csv_buf: &mut Vec<String>,
    title: &str,
    headers: &[&str],
    rows: &[Row],
    extra: &[Vec<String>],
) {
    for r in rows {
        let line = format!(
            "{},{},{:.6},{:.2}",
            r.workload,
            r.policy,
            r.makespan,
            100.0 * r.vs_static
        );
        if csv {
            println!("{line}");
        }
        csv_buf.push(line);
    }
    if !csv {
        let printable: Vec<Vec<String>> = rows
            .iter()
            .zip(extra)
            .map(|(r, e)| {
                let mut row = vec![r.policy.to_string(), table::secs(r.makespan)];
                row.extend(e.iter().cloned());
                row.push(table::pct(r.vs_static));
                row
            })
            .collect();
        table::print_table(title, headers, &printable);
    }
}

fn dist_of(kind: PolicyKind) -> Distribution {
    match kind {
        PolicyKind::Static => Distribution::Static,
        k => Distribution::Scheduled(k),
    }
}

/// Write an artifact, failing with a diagnostic instead of a panic when the
/// path is unwritable (e.g. `--csv-out=missing-dir/file.csv` in CI).
fn write_artifact(what: &str, path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("dls_policies: cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let csv = csv_mode();
    let out_path = csv_out();
    let mut csv_buf = vec!["workload,policy,makespan_s,vs_static_pct".to_string()];
    let (iters, steps) = if full_scale() { (4096, 6) } else { (1024, 4) };
    let nodes = 4usize;
    let skew = 2.0;
    if csv {
        println!("{}", csv_buf[0]);
    }

    // --- synthetic cost profiles through the generic scheduled loop ---
    let workloads: [(&'static str, CostFn); 2] = [
        ("matmul-profile", matmul_cost(iters)),
        ("LU-profile", lu_cost(iters)),
    ];
    for (name, cost) in workloads {
        let mut rows = Vec::new();
        let mut extra = Vec::new();
        let mut static_total = None;
        for kind in PolicyKind::ALL {
            let cfg = DlsConfig {
                iters,
                steps,
                policy: kind,
                flow_window: 2 * nodes as u32,
            };
            let ecfg = EngineConfig {
                flow_window: cfg.flow_window,
                ..EngineConfig::default()
            };
            let mut eng = SimEngine::with_config(ClusterSpec::skewed(nodes, 1, skew), ecfg);
            let rep = run_dls(&mut eng, cost.clone(), &cfg, nodes).expect("DLS run");
            if kind == PolicyKind::Static {
                static_total = Some(rep.total);
            }
            let base = static_total.expect("static runs first");
            rows.push(Row {
                workload: name,
                policy: kind.name(),
                makespan: rep.total,
                vs_static: 1.0 - rep.total / base,
            });
            extra.push(vec![
                table::secs(rep.per_step[0]),
                table::secs(*rep.per_step.last().expect("steps >= 1")),
                format!("{}", rep.chunks[0]),
            ]);
        }
        emit(
            csv,
            &mut csv_buf,
            &format!(
                "DLS policies — {name}, {iters} iterations × {steps} steps, \
                 {nodes} nodes ({skew}×-skewed)"
            ),
            &[
                "policy",
                "makespan",
                "first step",
                "last step",
                "chunks/step",
                "vs static",
            ],
            &rows,
            &extra,
        );
    }

    // --- the real applications, through the Distribution knob ---
    let spec = || ClusterSpec::skewed(2, 2, skew);
    let (lu_n, life_rows, life_iters) = if full_scale() {
        (256usize, 384usize, 6usize)
    } else {
        (128, 192, 4)
    };

    let mut rows = Vec::new();
    let mut extra = Vec::new();
    let mut base = None;
    for kind in PolicyKind::ALL {
        // The trace counts the bytes that cross node boundaries.
        let trace = TraceCollector::new();
        let mut eng = SimEngine::new(spec());
        eng.set_trace_sink(trace.clone());
        let rep = run_lu(
            &mut eng,
            &LuConfig {
                n: lu_n,
                r: 16,
                pipelined: true,
                seed: 33,
                nodes: 2,
                threads_per_node: 1,
                dist: dist_of(kind),
                update_chunks: 1,
            },
        )
        .expect("LU run");
        let t = rep.elapsed.as_secs_f64();
        let b = *base.get_or_insert(t);
        rows.push(Row {
            workload: "LU-app",
            policy: kind.name(),
            makespan: t,
            vs_static: 1.0 - t / b,
        });
        let wire_bytes = trace.metrics().get(Counter::WireBytesSent);
        extra.push(vec![format!("{wire_bytes}")]);
    }
    emit(
        csv,
        &mut csv_buf,
        &format!("Real block LU (n={lu_n}), column ownership by policy, 2 nodes ({skew}×-skewed)"),
        &["policy", "makespan", "wire bytes", "vs static"],
        &rows,
        &extra,
    );

    let mut rows = Vec::new();
    let mut extra = Vec::new();
    let mut base = None;
    for kind in PolicyKind::ALL {
        let rep = run_life(
            &mut SimEngine::new(spec()),
            &LifeConfig {
                rows: life_rows,
                cols: 2 * life_rows,
                iterations: life_iters,
                variant: Variant::Improved,
                nodes: 2,
                threads_per_node: 1,
                density: 0.35,
                seed: 9,
                dist: dist_of(kind),
            },
        )
        .expect("Life run");
        let t = rep.elapsed.as_secs_f64();
        let b = *base.get_or_insert(t);
        rows.push(Row {
            workload: "Life-app",
            policy: kind.name(),
            makespan: t,
            vs_static: 1.0 - t / b,
        });
        extra.push(vec![format!(
            "{:.4}s",
            rep.per_iter.last().expect("iters >= 1").as_secs_f64()
        )]);
    }
    emit(
        csv,
        &mut csv_buf,
        &format!(
            "Real Game of Life ({life_rows}×{} × {life_iters} iters), \
             row chunks by policy, 2 nodes ({skew}×-skewed)",
            2 * life_rows
        ),
        &["policy", "makespan", "last iter", "vs static"],
        &rows,
        &extra,
    );

    if let Some(path) = out_path {
        write_artifact("CSV artifact", &path, &(csv_buf.join("\n") + "\n"));
        println!("\nCSV written to {path}");
    }

    // --- optional Chrome trace of the AWF-scheduled LU ---
    if let Some(path) = trace_out() {
        let collector = dps_obs::TraceCollector::new();
        let mut eng = SimEngine::with_config(spec(), EngineConfig::default());
        eng.set_trace_sink(collector.clone());
        run_lu(
            &mut eng,
            &LuConfig {
                n: lu_n,
                r: 16,
                pipelined: true,
                seed: 33,
                nodes: 2,
                threads_per_node: 1,
                dist: Distribution::Scheduled(PolicyKind::Awf),
                update_chunks: 1,
            },
        )
        .expect("traced LU run");
        let log = collector.take_log();
        write_artifact("Chrome trace", &path, &dps_obs::chrome_trace_json(&log));
        println!(
            "\nChrome trace of scheduled LU: {} events, schedule hash {:016x}, written to {path}",
            log.events.len(),
            dps_obs::schedule_hash(&log)
        );
    }

    if !csv {
        println!(
            "\nShape check (DLS literature): on a skewed cluster the adaptive\n\
             policies (FAC, AWF) beat static distributions; AWF's last step\n\
             should be its best as measured rates converge; SS balances\n\
             perfectly but pays maximal per-chunk overhead. Chunk boundaries\n\
             are computed at the workers (distributed chunk calculation), so\n\
             even SS no longer serializes the master."
        );
    }
}
