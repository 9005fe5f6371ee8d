//! Parallel Game of Life — the paper's §5 application (Fig. 7/8/9).
//!
//! Runs a glider world with both the simple and the improved flow graph on
//! a 4-node virtual cluster, prints the final world, verifies it against
//! the sequential reference, and compares the two graphs' virtual times.
//!
//! The `dist` knob of [`LifeConfig`] chooses how iteration work reaches the
//! workers: `Distribution::Static` is the paper's banded layout (one fixed
//! band per worker); `Distribution::Scheduled(kind)` keeps the world on the
//! master and drives row-band chunks through the dynamic loop-scheduling
//! stack — chunk boundaries are claimed at the workers, AWF adapts chunk
//! sizes to measured node speeds, and waves survive node failures. The
//! final section compares the two on a skewed cluster.
//!
//! Run with: `cargo run --release --example game_of_life`

use dps::cluster::ClusterSpec;
use dps::core::SimEngine;
use dps::life::{run_life, LifeConfig, Variant, World};
use dps::sched::{Distribution, PolicyKind};

fn show(world: &World, max_rows: usize, max_cols: usize) {
    for r in 0..world.rows().min(max_rows) {
        let line: String = (0..world.cols().min(max_cols))
            .map(|c| if world.get(r, c) == 1 { '#' } else { '.' })
            .collect();
        println!("  {line}");
    }
}

fn main() {
    let cfg = |variant| LifeConfig {
        rows: 48,
        cols: 64,
        iterations: 16,
        variant,
        nodes: 4,
        threads_per_node: 1,
        density: 0.28,
        seed: 2003,
        dist: Distribution::Static,
    };

    let run = |variant| {
        run_life(
            &mut SimEngine::new(ClusterSpec::paper_testbed(4)),
            &cfg(variant),
        )
    };
    let simple = run(Variant::Simple).expect("simple run");
    let improved = run(Variant::Improved).expect("improved run");

    // Both graphs must compute exactly the generations the sequential
    // reference computes.
    let reference = World::random(48, 64, 0.28, 2003).step_n(16);
    assert_eq!(simple.world, reference, "simple graph diverged");
    assert_eq!(improved.world, reference, "improved graph diverged");

    println!("world after 16 generations (48x64, 4 nodes, top-left corner):");
    show(&improved.world, 16, 64);
    println!("\npopulation: {}", improved.world.population());
    println!("virtual time, simple graph   (Fig. 7): {}", simple.elapsed);
    println!(
        "virtual time, improved graph (Fig. 8): {}",
        improved.elapsed
    );
    let gain = (simple.elapsed.as_secs_f64() - improved.elapsed.as_secs_f64())
        / simple.elapsed.as_secs_f64();
    println!(
        "improved graph gain: {:.1}% (border exchange overlapped with interior compute)",
        gain * 100.0
    );

    // --- the Distribution knob on a skewed cluster -------------------------
    // Half the nodes run 2× slower; the scheduled layout re-sizes row chunks
    // to measured node speeds instead of pinning equal bands.
    let skewed = || SimEngine::new(ClusterSpec::skewed(2, 2, 2.0));
    let mk = |dist| LifeConfig {
        rows: 192,
        cols: 384,
        iterations: 4,
        variant: Variant::Improved,
        nodes: 2,
        threads_per_node: 1,
        density: 0.3,
        seed: 2003,
        dist,
    };
    let stat = run_life(&mut skewed(), &mk(Distribution::Static)).expect("static run");
    let awf = run_life(&mut skewed(), &mk(Distribution::Scheduled(PolicyKind::Awf)))
        .expect("scheduled run");
    assert_eq!(stat.world, awf.world, "same evolution either way");
    println!("\n-- 2×-skewed cluster, row distribution via Distribution --");
    println!("static banded layout:     {}", stat.elapsed);
    println!("Scheduled(Awf) chunks:    {}", awf.elapsed);
    let gain =
        (stat.elapsed.as_secs_f64() - awf.elapsed.as_secs_f64()) / stat.elapsed.as_secs_f64();
    println!("adaptive-scheduling gain: {:.1}%", gain * 100.0);
}
