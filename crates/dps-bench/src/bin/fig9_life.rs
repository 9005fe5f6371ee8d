//! Figure 9 — speedup of the Game of Life, improved versus simple flow
//! graph, for world sizes 400×400, 4000×400 and 4000×4000 on 1–8 nodes.
//!
//! Paper §5: "In all cases, the improved approach yields a higher
//! performance. With the smallest world size, the communications overhead
//! is the largest and the difference between the two approaches is the most
//! pronounced."

use dps_bench::{full_scale, table};
use dps_cluster::ClusterSpec;
use dps_core::SimEngine;
use dps_life::{run_life, LifeConfig, Variant};
use dps_sched::Distribution;

fn speedups(rows: usize, cols: usize, iterations: usize) -> Vec<(usize, f64, f64)> {
    let run = |variant, nodes| {
        let cfg = LifeConfig {
            rows,
            cols,
            iterations,
            variant,
            nodes,
            threads_per_node: 1,
            density: 0.3,
            seed: 4242,
            dist: Distribution::Static,
        };
        run_life(&mut SimEngine::new(ClusterSpec::paper_testbed(nodes)), &cfg)
            .expect("life run")
            .elapsed
            .as_secs_f64()
    };
    let t1_simple = run(Variant::Simple, 1);
    let t1_improved = run(Variant::Improved, 1);
    (1..=8)
        .map(|nodes| {
            let imp = t1_improved / run(Variant::Improved, nodes);
            let std = t1_simple / run(Variant::Simple, nodes);
            (nodes, imp, std)
        })
        .collect()
}

fn main() {
    // Paper world sizes; the quick run scales each dimension down 2× (the
    // 4000×4000 world costs 16 M cell updates per iteration).
    let full = full_scale();
    let scale = if full { 1 } else { 2 };
    let iterations = 3;
    let worlds = [
        (400 / scale, 400 / scale, "400x400"),
        (4000 / scale, 400 / scale, "4000x400"),
        (4000 / scale, 4000 / scale, "4000x4000"),
    ];

    let mut rows: Vec<Vec<String>> = (1..=8).map(|n| vec![format!("{n}")]).collect();
    let mut headers = vec!["nodes".to_string()];
    for &(r, c, label) in &worlds {
        headers.push(format!("Imp {label}"));
        headers.push(format!("Std {label}"));
        for (i, (_, imp, std)) in speedups(r, c, iterations).into_iter().enumerate() {
            rows[i].push(format!("{imp:.2}"));
            rows[i].push(format!("{std:.2}"));
        }
    }
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    table::print_table(
        "Figure 9 — Game of Life speedup (Imp = improved graph, Std = simple graph)",
        &headers_ref,
        &rows,
    );
    println!(
        "\nShape check (paper): the improved graph wins everywhere; the gap is\n\
         widest for the smallest world (communication-dominated) and shrinks as\n\
         the world grows; the largest world scales almost linearly."
    );
}
