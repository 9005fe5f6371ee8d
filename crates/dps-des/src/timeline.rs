//! A reservation-based resource for flows whose durations are known at
//! request time (network interface directions, disk arms).

use crate::time::{SimSpan, SimTime};

/// A single-lane FIFO pipe: each reservation starts when the previous one
/// ends. Models one direction of a network interface or a disk arm.
///
/// Reservations must be issued in nondecreasing `now` order (the event loop
/// guarantees this naturally); each returns the `(start, end)` window.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    free_at: SimTime,
}

impl Timeline {
    /// A timeline free from t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the lane for `span`, no earlier than `now`.
    pub fn reserve(&mut self, now: SimTime, span: SimSpan) -> (SimTime, SimTime) {
        let start = now.max(self.free_at);
        let end = start + span;
        self.free_at = end;
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reservations_queue() {
        let mut t = Timeline::new();
        let (s1, e1) = t.reserve(SimTime(0), SimSpan::from_nanos(10));
        let (s2, e2) = t.reserve(SimTime(0), SimSpan::from_nanos(5));
        assert_eq!((s1, e1), (SimTime(0), SimTime(10)));
        assert_eq!((s2, e2), (SimTime(10), SimTime(15)));
    }

    #[test]
    fn idle_gap_is_skipped() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), SimSpan::from_nanos(10));
        let (s, e) = t.reserve(SimTime(100), SimSpan::from_nanos(10));
        assert_eq!((s, e), (SimTime(100), SimTime(110)));
    }

    #[test]
    fn a_zero_span_waits_its_turn_and_holds_nothing() {
        let mut t = Timeline::new();
        t.reserve(SimTime(0), SimSpan::from_nanos(10));
        let (s, e) = t.reserve(SimTime(3), SimSpan::ZERO);
        assert_eq!((s, e), (SimTime(10), SimTime(10)), "behind the busy lane");
        let (s, e) = t.reserve(SimTime(10), SimSpan::from_nanos(4));
        assert_eq!((s, e), (SimTime(10), SimTime(14)));
    }
}
