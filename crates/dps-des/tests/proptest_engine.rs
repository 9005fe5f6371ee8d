//! Property tests for the event engine: determinism and ordering, and the
//! timeline's reservations.

use dps_des::{Sim, SimSpan, SimTime, SplitMix64};
use proptest::prelude::*;

proptest! {
    /// Events always fire in nondecreasing time order, with ties broken by
    /// scheduling order.
    #[test]
    fn firing_order_is_sorted_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut sim = Sim::new(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime(t), move |s| s.world.push((t, i)));
        }
        sim.run();
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort(); // (time, seq) — stable tie-break by seq
        prop_assert_eq!(sim.world, expected);
    }

    /// Two identical runs produce identical traces (bitwise determinism).
    #[test]
    fn runs_are_reproducible(seed in any::<u64>()) {
        fn trace(seed: u64) -> Vec<(u64, u64)> {
            let mut sim = Sim::new(Vec::new());
            let mut rng = SplitMix64::new(seed);
            for _ in 0..100 {
                let t = rng.next_below(1_000);
                let tag = rng.next_u64();
                sim.schedule_at(SimTime(t), move |s| {
                    let now = s.now().as_nanos();
                    s.world.push((now, tag));
                });
            }
            sim.run();
            sim.world
        }
        prop_assert_eq!(trace(seed), trace(seed));
    }

    /// Timeline reservations never overlap and never start before requested.
    #[test]
    fn timeline_no_overlap(reqs in proptest::collection::vec((0u64..1000, 1u64..100), 1..100)) {
        use dps_des::Timeline;
        let mut sorted = reqs;
        sorted.sort();
        let mut tl = Timeline::new();
        let mut prev_end = SimTime::ZERO;
        for (now, span) in sorted {
            let (start, end) = tl.reserve(SimTime(now), SimSpan::from_nanos(span));
            prop_assert!(start >= SimTime(now));
            prop_assert!(start >= prev_end);
            prop_assert_eq!(end.as_nanos(), start.as_nanos() + span);
            prev_end = end;
        }
    }
}
