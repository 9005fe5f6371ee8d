//! Video pipeline with a stream operation — the paper's Fig. 4.
//!
//! Frames are striped as parts over a 4-disk array; the stream operation
//! recomposes each frame and forwards it for processing the moment its
//! last part arrives, instead of waiting for all reads (the merge-split
//! ablation shows the difference).
//!
//! Run with: `cargo run --release --example video_pipeline`

use dps::cluster::ClusterSpec;
use dps::core::SimEngine;
use dps::sfs::video::{run_video, VideoConfig};

fn main() {
    let cfg = |use_stream| VideoConfig {
        frames: 24,
        parts: 4,
        part_bytes: 128 * 1024, // 512 KB frames in four parts
        nodes: 4,
        use_stream,
    };

    let run = |use_stream| {
        run_video(
            &mut SimEngine::new(ClusterSpec::paper_testbed(4)),
            &cfg(use_stream),
        )
    };
    let (t_stream, frames, sum_stream) = run(true).expect("stream pipeline");
    let (t_barrier, _, sum_barrier) = run(false).expect("merge-split pipeline");

    assert_eq!(
        sum_stream, sum_barrier,
        "both pipelines process identically"
    );
    println!("processed {frames} frames of 512 KB from a 4-disk striped array");
    println!("virtual time with stream operation   (Fig. 4): {t_stream}");
    println!("virtual time with merge-split barrier:         {t_barrier}");
    let gain = (t_barrier.as_secs_f64() - t_stream.as_secs_f64()) / t_barrier.as_secs_f64();
    println!(
        "stream gain: {:.1}% — frames flow to processing while later parts are\n\
         still being read from the disks",
        gain * 100.0
    );
}
