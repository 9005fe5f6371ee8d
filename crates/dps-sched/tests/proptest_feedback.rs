//! Differential property test: the sharded, wait-free [`FeedbackBoard`]
//! must be observationally **byte-identical** to the pre-sharding
//! mutex-based [`LegacyFeedbackBoard`] — same weights, same statistics,
//! same policy partitions — over randomized report sequences interleaved
//! with weight reads (which close batches for AWF-B) and worker losses,
//! for every [`RateEstimator`] variant.
//!
//! The comparison is on `f64::to_bits`, not approximate: the sharded board
//! moved the estimator folding to the read side, and this test pins down
//! that the fold replays the legacy arithmetic exactly.

mod legacy;

use dps_sched::{partition_owners, FeedbackBoard, FeedbackSink, PolicyKind, RateEstimator};
use legacy::LegacyFeedbackBoard;
use proptest::collection::vec;
use proptest::prelude::*;

const WORKERS: usize = 5;

/// One scripted action against both boards, decoded from raw draws.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `report_chunk(worker, iters, secs)`.
    Report {
        worker: usize,
        iters: u64,
        secs: f64,
    },
    /// `weights(WORKERS)` on both boards, compared bitwise. For AWF-B this
    /// is also the batch boundary.
    ReadWeights,
    /// `worker_lost(worker)`.
    Lose { worker: usize },
}

/// Decode a raw `(sel, worker, iters, secs_q)` draw into an op. Reports
/// dominate; `secs_q == 0` produces the zero-time edge case the boards must
/// ignore for rate purposes while still counting the chunk.
fn decode(raw: (u8, u8, u16, u8)) -> Op {
    let (sel, worker, iters, secs_q) = raw;
    let worker = worker as usize % WORKERS;
    match sel % 10 {
        8 => Op::ReadWeights,
        9 => Op::Lose { worker },
        _ => Op::Report {
            worker,
            iters: iters as u64 % 1000,
            // Quantized positive times plus the 0.0 edge; eighths are exact
            // in binary so accumulated sums stay reproducible.
            secs: secs_q as f64 / 8.0,
        },
    }
}

fn estimators() -> [RateEstimator; 3] {
    [
        RateEstimator::Aggregate,
        RateEstimator::BatchWeighted,
        RateEstimator::ChunkWeighted,
    ]
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str, est: RateEstimator) {
    assert_eq!(a.len(), b.len(), "{what} length under {est:?}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}] diverges under {est:?}: sharded {x} vs legacy {y}"
        );
    }
}

fn run_script(est: RateEstimator, ops: &[Op]) {
    let sharded = FeedbackBoard::with_estimator(est);
    let legacy = LegacyFeedbackBoard::with_estimator(est);
    for &op in ops {
        match op {
            Op::Report {
                worker,
                iters,
                secs,
            } => {
                sharded.report_chunk(worker, iters, secs);
                legacy.report_chunk(worker, iters, secs);
            }
            Op::ReadWeights => {
                assert_bitwise_eq(
                    &sharded.weights(WORKERS),
                    &legacy.weights(WORKERS),
                    "weights",
                    est,
                );
            }
            Op::Lose { worker } => {
                sharded.worker_lost(worker);
                legacy.worker_lost(worker);
            }
        }
    }
    // Final full-state comparison: weights, stats, chunk totals, and the
    // policy partitions derived from the weights.
    let (ws, wl) = (sharded.weights(WORKERS), legacy.weights(WORKERS));
    assert_bitwise_eq(&ws, &wl, "final weights", est);
    assert_eq!(sharded.total_chunks(), legacy.total_chunks(), "{est:?}");
    let (ss, sl) = (sharded.stats(WORKERS), legacy.stats(WORKERS));
    assert_eq!(ss.len(), sl.len(), "{est:?} stats length");
    for (i, (a, b)) in ss.iter().zip(&sl).enumerate() {
        assert_eq!(a.chunks, b.chunks, "{est:?} stats[{i}].chunks");
        assert_eq!(a.iters, b.iters, "{est:?} stats[{i}].iters");
        assert_eq!(
            a.secs.to_bits(),
            b.secs.to_bits(),
            "{est:?} stats[{i}].secs"
        );
    }
    for kind in PolicyKind::ALL {
        assert_eq!(
            partition_owners(kind, 64, WORKERS, &ws),
            partition_owners(kind, 64, WORKERS, &wl),
            "{kind:?} partition under {est:?}"
        );
    }
}

proptest! {
    #[test]
    fn sharded_board_matches_legacy_bit_for_bit(
        raw in vec(any::<(u8, u8, u16, u8)>(), 0..300),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode).collect();
        for est in estimators() {
            run_script(est, &ops);
        }
    }

    /// Long single-worker streams overflow both the sample ring (64) and
    /// the batch ring (32): the eviction orders must agree too.
    #[test]
    fn ring_eviction_matches_legacy(
        raw in vec(any::<(u16, u8)>(), 0..400),
        reads_every in 1usize..9,
    ) {
        for est in estimators() {
            let sharded = FeedbackBoard::with_estimator(est);
            let legacy = LegacyFeedbackBoard::with_estimator(est);
            for (j, &(iters, secs_q)) in raw.iter().enumerate() {
                let iters = iters as u64 % 500;
                let secs = secs_q as f64 / 8.0;
                sharded.report_chunk(0, iters, secs);
                legacy.report_chunk(0, iters, secs);
                if j % reads_every == 0 {
                    assert_bitwise_eq(
                        &sharded.weights(2),
                        &legacy.weights(2),
                        "streamed weights",
                        est,
                    );
                }
            }
            assert_bitwise_eq(&sharded.weights(2), &legacy.weights(2), "tail weights", est);
        }
    }
}

/// `reset` returns both implementations to the cold state.
#[test]
fn reset_matches_legacy() {
    for est in estimators() {
        let sharded = FeedbackBoard::with_estimator(est);
        let legacy = LegacyFeedbackBoard::with_estimator(est);
        for w in 0..WORKERS {
            sharded.report_chunk(w, 10 + w as u64, 0.5);
            legacy.report_chunk(w, 10 + w as u64, 0.5);
        }
        let _ = (sharded.weights(WORKERS), legacy.weights(WORKERS));
        sharded.reset();
        legacy.reset();
        assert_bitwise_eq(
            &sharded.weights(WORKERS),
            &legacy.weights(WORKERS),
            "post-reset weights",
            est,
        );
        assert_eq!(sharded.total_chunks(), 0);
        assert_eq!(legacy.total_chunks(), 0);
        // Reports after a reset start a fresh, still-identical history.
        sharded.report_chunk(1, 40, 0.25);
        legacy.report_chunk(1, 40, 0.25);
        assert_bitwise_eq(
            &sharded.weights(WORKERS),
            &legacy.weights(WORKERS),
            "post-reset report weights",
            est,
        );
    }
}
