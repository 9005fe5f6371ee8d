//! Property test of the home-rank rule: a [`ChunkHub`] homed at rank `r`
//! is the home-0 hub with `r` in the high bits of every lease id — same
//! chunk sequences, same lease accounting — and it keeps nothing of a
//! lease it did not issue.

use dps_sched::{ChunkCalc, ChunkHub, LeaseProgress, PolicyKind};
use proptest::prelude::*;

/// `p` as the home-0 hub would report it.
fn at_home_zero(p: LeaseProgress) -> LeaseProgress {
    LeaseProgress {
        id: p.id & ((1 << 40) - 1),
        ..p
    }
}

proptest! {
    #[test]
    fn a_homed_hub_is_the_home_zero_hub_with_prefixed_ids(
        home in 1u32..1 << 24,
        total in 0u64..1500,
        workers in 1usize..9,
        // Leases issued before the one under test: past 32 the directory
        // is in its second segment.
        earlier in 0usize..70,
        // Chunks claimed before the lease is closed early.
        claims in 0usize..40,
    ) {
        for kind in PolicyKind::ALL {
            let calc = || ChunkCalc::new(kind, total, workers, &[]);
            let (zero, homed) = (ChunkHub::new(), ChunkHub::homed(home, None));
            for _ in 0..earlier {
                prop_assert!(zero.close(zero.open(calc()).id));
                prop_assert!(homed.close(homed.open(calc()).id));
            }
            let (z, h) = (zero.open(calc()), homed.open(calc()));
            prop_assert_eq!(h.id, u64::from(home) << 40 | z.id);
            prop_assert_eq!(ChunkHub::home_of(h.id), home);
            prop_assert_eq!(ChunkHub::home_of(z.id), 0);
            prop_assert_eq!(h.chunks, z.chunks);

            // Each id is foreign to the other hub, and neither has a
            // delegate: nothing is handed out, nothing is recorded.
            prop_assert_eq!(zero.claim(h.id), None);
            prop_assert_eq!(homed.claim(z.id), None);
            prop_assert!(!zero.close(h.id) && !homed.close(z.id));
            prop_assert!(zero.progress(h.id).is_none() && homed.progress(z.id).is_none());
            prop_assert!(zero.counter(h.id).is_none() && homed.counter(z.id).is_none());
            prop_assert_eq!(homed.progress(h.id).map(|p| p.claimed), Some(0));

            for _ in 0..claims {
                prop_assert_eq!(homed.claim(h.id), zero.claim(z.id), "{:?}", kind);
            }
            let left: Vec<_> = homed.abandoned_leases().into_iter().map(at_home_zero).collect();
            prop_assert_eq!(&left, &zero.abandoned_leases(), "{:?}", kind);
            prop_assert!(left.iter().all(|p| p.id == z.id), "only the lease under test");
            prop_assert_eq!(homed.open_leases(), zero.open_leases());
            prop_assert_eq!(homed.leases_issued(), zero.leases_issued());

            // Drained by the claims above or closed now: one answer.
            prop_assert_eq!(homed.close(h.id), zero.close(z.id), "{:?}", kind);
            prop_assert!(homed.abandoned_leases().is_empty());
            prop_assert_eq!(homed.progress(h.id).map(at_home_zero), zero.progress(z.id));
            prop_assert_eq!(homed.claim(h.id), None);
        }
    }
}
