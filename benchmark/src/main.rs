//! The repo benchmark: wall-clock LU, matmul and DLS on the `mt`, `net`
//! (TCP) and `sim` engines, with per-layer probes and a traced pass. See
//! `README.md` beside this crate and `BENCHMARK.json` at the repository
//! root.
//!
//! ```text
//! dps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dps-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--check-repeat]
//! ```

mod child;
mod env;
mod harness;
mod json;
mod probes;
mod rep;
mod repeat;
mod spec;
mod stats;
mod tokens;

use std::process::ExitCode;

use harness::{EndToEnd, Layers, Options, Tally, EXACT_COUNTS};
use json::{result_line, Metric};
use spec::{Kind, END_TO_END};
use stats::Stat;

const USAGE: &str = "\
usage:
  dps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload, one pass: end-to-end metrics (--trace 0) or per-layer
      metrics (--trace 1); the last line of stdout is the result object
  dps-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--check-repeat]
      every workload end to end, the layer probes, a traced pass over every
      workload; --smoke uses tiny sizes, --check-repeat does it all twice
      and fails if the two runs disagree
workloads: lu_mt dls_ss_mt dls_ss_sim lu_net matmul_net";

/// Exit code when the machine cannot produce wall-clock numbers.
const EXIT_NOISE_GUARD: u8 = 3;

enum Mode {
    /// The hidden child role: one repetition.
    Rep(rep::RepArgs),
    /// The contract's command line.
    One {
        kind: Kind,
        trace: bool,
        opts: Options,
    },
    Full {
        opts: Options,
        check_repeat: bool,
    },
    Help,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut seed = 1u64;
    let mut seconds = None;
    let mut workload = None;
    let mut trace = None;
    let mut rep_kind = None;
    let (mut smoke, mut traced, mut check_repeat) = (false, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(Mode::Help),
            "--smoke" => smoke = true,
            "--traced" => traced = true,
            "--check-repeat" => check_repeat = true,
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Kind::workload_from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--rep" => {
                let name = value("a repetition kind")?;
                rep_kind = Some(
                    Kind::from_name(&name)
                        .ok_or_else(|| format!("unknown repetition kind {name:?}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(kind) = rep_kind {
        return Ok(Mode::Rep(rep::RepArgs {
            kind,
            seed,
            smoke,
            traced,
        }));
    }
    let opts = Options {
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.5 } else { 20.0 }),
        smoke,
    };
    match (workload, trace) {
        (Some(kind), Some(trace)) => Ok(Mode::One { kind, trace, opts }),
        (None, None) => Ok(Mode::Full { opts, check_repeat }),
        _ => Err("--workload and --trace go together".into()),
    }
}

fn print_metric(m: &Metric, suffix: &str) {
    println!("{:<34} {} {}{suffix}", m.name, m.value, m.unit);
}

fn print_end_to_end(e: &EndToEnd) {
    let w = e.kind.name();
    for (gate, values) in END_TO_END.iter().zip(e.gated()) {
        println!(
            "{}  [lower is better, bound {:.0}%]",
            harness::describe(
                &format!("{}@{w}", gate.name),
                gate.unit,
                (gate.stat)(e.kind),
                values
            ),
            100.0 * gate.bound
        );
    }
    // Beside the gated numbers, never gated: the raw wall clock and how
    // much of it the hypervisor stole.
    for (name, unit, values) in [
        ("makespan_wall_s", "s", &e.makespan_wall_s),
        ("steal_share", "share", &e.steal_share),
    ] {
        println!(
            "{}",
            harness::describe(&format!("{name}@{w}"), unit, Stat::Median, values)
        );
    }
    for (name, values) in [("makespan_s", &e.makespan_s), ("setup_s", &e.setup_s)] {
        let samples: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!("# {name}@{w} samples: {}", samples.join(" "));
    }
    println!(
        "{:<34} {}/{} repetitions failed ({} with a wrong output)",
        format!("failed_share@{w}"),
        e.tally.failed,
        e.tally.attempted,
        e.tally.wrong
    );
    if !e.virtual_ns.is_empty() {
        println!(
            "{:<34} {:?} virtual ns (must be one value)",
            format!("virtual_makespan@{w}"),
            e.virtual_ns
        );
    }
}

/// Refuse wall-clock numbers on a single core: two busy threads would
/// time-slice, and every number here would measure the scheduler.
fn noise_guard() -> Result<(), ExitCode> {
    let n = env::nproc();
    if n >= spec::NODES {
        return Ok(());
    }
    println!(
        "# refusing to emit wall-clock numbers: nproc = {n}, the benchmark runs {} busy \
         threads (or processes) and would measure time-slicing",
        spec::NODES
    );
    Err(ExitCode::from(EXIT_NOISE_GUARD))
}

/// On a single core, the counts are still true: print them and stop.
fn counts_only(kinds: &[Kind], opts: &Options) {
    for &kind in kinds {
        match harness::traced_pass(kind, opts, None) {
            Ok(layers) => {
                for m in layers.metrics.iter().filter(|m| m.unit == "count") {
                    print_metric(m, &format!("  @{}", kind.name()));
                }
            }
            Err(e) => println!("# {}: {e}", kind.name()),
        }
    }
}

fn header(what: &str, opts: &Options) {
    println!(
        "# dps-benchmark {what} seed={} seconds={} smoke={}",
        opts.seed, opts.seconds, opts.smoke
    );
    println!("{}", env::block());
}

fn run_one(kind: Kind, trace: bool, opts: &Options) -> ExitCode {
    header(
        &format!("workload={} trace={}", kind.name(), u8::from(trace)),
        opts,
    );
    if let Err(code) = noise_guard() {
        counts_only(&[kind], opts);
        return code;
    }
    let line = if trace {
        match harness::layers(kind, opts) {
            Ok(Layers {
                tally,
                metrics,
                consistent,
            }) => {
                for m in &metrics {
                    print_metric(m, "");
                }
                let emitted = metrics.iter().map(|m| (m.name.as_str(), m.unit));
                let declared = spec::PER_LAYER.iter().map(|&(name, unit, _)| (name, unit));
                if !emitted.eq(declared) {
                    return fail("the per-layer metrics emitted differ from spec::PER_LAYER");
                }
                result_line(
                    consistent && tally.wrong == 0,
                    tally.attempted,
                    tally.failed,
                    &metrics,
                )
            }
            Err(e) => return fail(&e),
        }
    } else {
        match harness::end_to_end(kind, opts) {
            Ok(e) => {
                print_end_to_end(&e);
                result_line(e.correct(), e.tally.attempted, e.tally.failed, &e.metrics())
            }
            Err(e) => return fail(&e),
        }
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn fail(why: &str) -> ExitCode {
    eprintln!("dps-benchmark: {why}");
    ExitCode::FAILURE
}

/// Everything one full run measured.
struct FullRun {
    end_to_end: Vec<EndToEnd>,
    probes: Vec<Metric>,
    traced: Vec<(Kind, Layers)>,
    probe_tally: Tally,
}

impl FullRun {
    fn tally(&self) -> Tally {
        let mut t = self.probe_tally;
        let parts = self
            .end_to_end
            .iter()
            .map(|e| e.tally)
            .chain(self.traced.iter().map(|(_, l)| l.tally));
        for p in parts {
            t += p;
        }
        t
    }

    fn correct(&self) -> bool {
        self.tally().wrong == 0
            && self.end_to_end.iter().all(EndToEnd::correct)
            && self.traced.iter().all(|(_, l)| l.consistent)
    }

    /// Every metric under a unique name: end-to-end and traced ones carry
    /// their workload as a prefix, the probes stand alone.
    fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for e in &self.end_to_end {
            for m in e.metrics() {
                out.push(Metric::new(
                    format!("{}.{}", e.kind.name(), m.name),
                    m.value,
                    m.unit,
                ));
            }
        }
        out.extend(self.probes.iter().cloned());
        for (kind, layers) in &self.traced {
            for m in &layers.metrics {
                out.push(Metric::new(
                    format!("{}.{}", kind.name(), m.name),
                    m.value,
                    m.unit,
                ));
            }
        }
        out
    }
}

/// Every workload end to end (tracing off), then the probes, then the
/// traced pass over every workload.
fn full_run(opts: &Options) -> Result<FullRun, String> {
    let mut end_to_end = Vec::new();
    for kind in Kind::WORKLOADS {
        let e = harness::end_to_end(kind, opts)?;
        print_end_to_end(&e);
        end_to_end.push(e);
    }
    let mut probe_tally = Tally::default();
    let probes = harness::layer_probes(opts, &mut probe_tally)?;
    for m in &probes {
        print_metric(m, "");
    }
    let mut traced = Vec::new();
    for kind in Kind::WORKLOADS {
        let layers = harness::traced_pass(kind, opts, None)?;
        for m in &layers.metrics {
            print_metric(m, &format!("  @{}", kind.name()));
        }
        traced.push((kind, layers));
    }
    Ok(FullRun {
        end_to_end,
        probes,
        traced,
        probe_tally,
    })
}

/// Compare two full runs of the same build; every disagreement is a line
/// naming the metric and the workload. True when they agree.
fn runs_agree(a: &FullRun, b: &FullRun) -> bool {
    let mut ok = true;
    for (ea, eb) in a.end_to_end.iter().zip(&b.end_to_end) {
        let w = ea.kind.name();
        let samples = ea.gated().into_iter().zip(eb.gated());
        for (gate, (first, second)) in END_TO_END.iter().zip(samples) {
            let v = repeat::compare(first, second, (gate.stat)(ea.kind), gate.bound);
            println!("{}", repeat::describe(gate.name, w, gate.bound, &v));
            ok &= v.passed();
        }
        if ea.virtual_ns != eb.virtual_ns || ea.virtual_ns.len() > 1 {
            println!(
                "virtual_makespan@{w}: DIFFERS {:?} vs {:?} (must repeat exactly)",
                ea.virtual_ns, eb.virtual_ns
            );
            ok = false;
        }
        for (run, e) in [("first", ea), ("second", eb)] {
            if e.tally.failed != 0 {
                println!(
                    "failed_share@{w}: {}/{} in the {run} run (must be 0)",
                    e.tally.failed, e.tally.attempted
                );
                ok = false;
            }
        }
    }
    for ((kind, la), (_, lb)) in a.traced.iter().zip(&b.traced) {
        for (name, _) in EXACT_COUNTS {
            let get = |l: &Layers| l.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            let (va, vb) = (get(la), get(lb));
            if va != vb {
                println!(
                    "{name}@{}: DIFFERS {va:?} vs {vb:?} (counts must repeat exactly)",
                    kind.name()
                );
                ok = false;
            }
        }
        if !(la.consistent && lb.consistent) {
            println!(
                "traced pass@{}: dropped events or counts that differ within a run",
                kind.name()
            );
            ok = false;
        }
    }
    ok
}

fn run_full(opts: &Options, check_repeat: bool) -> ExitCode {
    header(
        if check_repeat {
            "full run, twice (--check-repeat)"
        } else {
            "full run"
        },
        opts,
    );
    if let Err(code) = noise_guard() {
        counts_only(&Kind::WORKLOADS, opts);
        return code;
    }
    let first = match full_run(opts) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let mut agreed = true;
    if check_repeat {
        println!("# second run");
        let second = match full_run(opts) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        println!("# repeat check");
        agreed = runs_agree(&first, &second);
        println!(
            "# repeat check {}",
            if agreed { "passed" } else { "FAILED" }
        );
    }
    let t = first.tally();
    println!(
        "{}",
        result_line(first.correct(), t.attempted, t.failed, &first.metrics())
    );
    if agreed && first.correct() && t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Mode::Rep(args)) => match rep::run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&format!("{} repetition: {e}", args.kind.name())),
        },
        Ok(Mode::One { kind, trace, opts }) => run_one(kind, trace, &opts),
        Ok(Mode::Full { opts, check_repeat }) => run_full(&opts, check_repeat),
        Err(e) => {
            eprintln!("dps-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let m = parse(&args("--workload lu_net --seed 42 --seconds 12 --trace 1")).unwrap();
        let Mode::One { kind, trace, opts } = m else {
            panic!("expected the one-workload mode");
        };
        assert_eq!(kind, Kind::LuNet);
        assert!(trace);
        assert_eq!((opts.seed, opts.seconds, opts.smoke), (42, 12.0, false));
    }

    #[test]
    fn no_workload_means_the_full_run() {
        assert!(matches!(
            parse(&args("--smoke --check-repeat")).unwrap(),
            Mode::Full {
                check_repeat: true,
                opts: Options { smoke: true, .. }
            }
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope --trace 0",
            "--workload net_tokens --trace 0",
            "--workload lu_mt",
            "--trace 1",
            "--trace 2 --workload lu_mt",
            "--seconds 0",
            "--seconds -1",
            "--seed x",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_child_role_accepts_probe_kinds() {
        let Mode::Rep(r) = parse(&args("--rep net_tokens --seed 3 --traced")).unwrap() else {
            panic!("expected the child role");
        };
        assert_eq!(
            (r.kind, r.seed, r.traced, r.smoke),
            (Kind::NetTokens, 3, true, false)
        );
    }

    /// `BENCHMARK.json` at the repository root and the tables in this
    /// crate say the same thing.
    #[test]
    fn benchmark_json_matches_the_code() {
        use dps_obs::{parse_json, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let Json::Obj(root) = parse_json(&text).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is an object");
        };
        let field = |obj: &[(String, Json)], key: &str| -> Json {
            obj.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing key {key}"))
                .1
                .clone()
        };
        let list = |v: Json| -> Vec<Json> {
            let Json::Arr(a) = v else {
                panic!("expected an array")
            };
            a
        };
        let text_of = |v: Json| -> String {
            let Json::Str(s) = v else {
                panic!("expected a string")
            };
            s
        };
        let obj_of = |v: Json| -> Vec<(String, Json)> {
            let Json::Obj(o) = v else {
                panic!("expected an object")
            };
            o
        };

        let workloads: Vec<String> = list(field(&root, "workloads"))
            .into_iter()
            .map(|w| text_of(field(&obj_of(w), "name")))
            .collect();
        let ours: Vec<&str> = Kind::WORKLOADS.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);

        let gates = list(field(&root, "end_to_end"));
        assert_eq!(gates.len(), END_TO_END.len());
        for (g, ours) in gates.into_iter().zip(END_TO_END) {
            let g = obj_of(g);
            assert_eq!(text_of(field(&g, "name")), ours.name);
            assert_eq!(text_of(field(&g, "unit")), ours.unit);
            assert_eq!(text_of(field(&g, "better")), "lower");
            let Json::Num(bound) = field(&g, "bound") else {
                panic!("bound is a number")
            };
            assert_eq!(bound, ours.bound, "{}", ours.name);
        }

        let layers = list(field(&root, "per_layer"));
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        for (m, (name, unit, better)) in layers.into_iter().zip(spec::PER_LAYER) {
            let m = obj_of(m);
            assert!(json::valid_metric_name(name), "{name}");
            assert_eq!(text_of(field(&m, "name")), name);
            assert_eq!(text_of(field(&m, "unit")), unit);
            assert_eq!(text_of(field(&m, "better")), better);
        }
    }
}
