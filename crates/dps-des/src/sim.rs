//! The event loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::pool::PoolTable;
use crate::time::{SimSpan, SimTime};

/// Callback type for events: full access to the simulation (world + clock +
/// scheduler), so handlers can mutate state and schedule follow-up events.
type EventFn<S> = Box<dyn FnOnce(&mut Sim<S>)>;

/// Tie-break key generator: maps an event's scheduling sequence number to
/// the key that orders it against other events at the *same instant*.
/// Identity (the default) preserves FIFO ties; a seeded permutation turns
/// every same-time tie into a deterministic interleaving choice.
type TieBreakFn = Box<dyn FnMut(u64) -> u64>;

struct Entry<S> {
    at: SimTime,
    key: u64,
    seq: u64,
    f: EventFn<S>,
}

// Ordering for the max-heap wrapped in Reverse: earliest (time, key, seq)
// first. `key == seq` unless a tie-break hook is installed, so the default
// order is pure scheduling order.
impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key, self.seq) == (other.at, other.key, other.seq)
    }
}
impl<S> Eq for Entry<S> {}
impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key, self.seq).cmp(&(other.at, other.key, other.seq))
    }
}

/// Bound on a [`Sim::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLimit {
    /// Run until no events remain.
    UntilIdle,
    /// Run until the clock would pass the given instant; events at exactly
    /// the instant still fire.
    UntilTime(SimTime),
    /// Fire at most this many events.
    MaxEvents(u64),
}

/// Summary of a [`Sim::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of events fired.
    pub events: u64,
    /// Clock value when the run stopped.
    pub end_time: SimTime,
    /// True if the run stopped because the event queue drained.
    pub idle: bool,
}

/// A deterministic discrete-event simulation over a user-defined world `S`.
///
/// Events are closures `FnOnce(&mut Sim<S>)` ordered by `(time, seq)` where
/// `seq` is the scheduling order — two events at the same instant fire in the
/// order they were scheduled, making runs exactly reproducible.
///
/// ```
/// use dps_des::{Sim, SimSpan};
///
/// let mut sim = Sim::new(Vec::<u32>::new());
/// sim.schedule_in(SimSpan::from_millis(2), |s| s.world.push(2));
/// sim.schedule_in(SimSpan::from_millis(1), |s| {
///     s.world.push(1);
///     // events may schedule more events
///     s.schedule_in(SimSpan::from_millis(5), |s| s.world.push(3));
/// });
/// let stats = sim.run();
/// assert_eq!(sim.world, vec![1, 2, 3]);
/// assert_eq!(stats.events, 3);
/// assert_eq!(stats.end_time.as_nanos(), 6_000_000);
/// ```
pub struct Sim<S> {
    /// The user world: all model state lives here.
    pub world: S,
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Reverse<Entry<S>>>,
    tie_break: Option<TieBreakFn>,
    pub(crate) pools: PoolTable<S>,
}

impl<S> Sim<S> {
    /// Create a simulation at time zero owning `world`.
    pub fn new(world: S) -> Self {
        Self {
            world,
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            tie_break: None,
            pools: PoolTable::new(),
        }
    }

    /// Install a tie-break ordering hook: for every scheduled event the hook
    /// maps its sequence number to the key that orders it among events at
    /// the **same instant** (the full order is `(time, key, seq)`). Events
    /// at different times are unaffected, so causality holds; events already
    /// in the heap keep their keys. Since the hook sees only the scheduling
    /// sequence, a pure function of a seed makes the perturbed order exactly
    /// reproducible — the simulation-testing harness uses this to explore
    /// delivery interleavings without giving up replay.
    pub fn set_tie_break(&mut self, f: impl FnMut(u64) -> u64 + 'static) {
        self.tie_break = Some(Box::new(f));
    }

    /// Remove the tie-break hook: subsequent ties fire in scheduling order.
    pub fn clear_tie_break(&mut self) {
        self.tie_break = None;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `f` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are always bugs
    /// in the model, never recoverable conditions.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<S>) + 'static) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = match &mut self.tie_break {
            Some(hook) => hook(seq),
            None => seq,
        };
        self.heap.push(Reverse(Entry {
            at,
            key,
            seq,
            f: Box::new(f),
        }));
    }

    /// Schedule `f` after a delay of `d`.
    pub fn schedule_in(&mut self, d: SimSpan, f: impl FnOnce(&mut Sim<S>) + 'static) {
        self.schedule_at(self.now + d, f)
    }

    /// Fire the single next event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(entry)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "heap returned an event in the past");
        self.now = entry.at;
        (entry.f)(self);
        true
    }

    /// Time of the next pending event, if any, without firing it.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| entry.at)
    }

    /// Run until the event queue drains; returns run statistics.
    pub fn run(&mut self) -> RunStats {
        self.run_limited(RunLimit::UntilIdle)
    }

    /// Run under an explicit limit.
    pub fn run_limited(&mut self, limit: RunLimit) -> RunStats {
        let mut stats = RunStats::default();
        loop {
            match limit {
                RunLimit::UntilIdle => {}
                RunLimit::UntilTime(t) => {
                    match self.peek_next_time() {
                        Some(next) if next <= t => {}
                        _ => break,
                    };
                }
                RunLimit::MaxEvents(n) => {
                    if stats.events >= n {
                        break;
                    }
                }
            }
            if !self.step() {
                stats.idle = true;
                break;
            }
            stats.events += 1;
        }
        stats.end_time = self.now;
        if self.pending() == 0 {
            stats.idle = true;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime(30), |s| s.world.push(3));
        sim.schedule_at(SimTime(10), |s| s.world.push(1));
        sim.schedule_at(SimTime(20), |s| s.world.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim = Sim::new(Vec::new());
        for i in 0..100 {
            sim.schedule_at(SimTime(5), move |s| s.world.push(i));
        }
        sim.run();
        assert_eq!(sim.world, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn tie_break_hook_permutes_same_time_events_deterministically() {
        use crate::SplitMix64;
        let run = |seed: u64| {
            let mut sim = Sim::new(Vec::new());
            let mut rng = SplitMix64::new(seed);
            sim.set_tie_break(move |seq| rng.next_u64() ^ seq);
            for i in 0..100 {
                sim.schedule_at(SimTime(5), move |s| s.world.push(i));
            }
            // Different instants still fire in time order regardless of keys.
            sim.schedule_at(SimTime(1), |s| s.world.push(-1));
            sim.run();
            sim.world
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed must replay the same interleaving");
        assert_ne!(
            a,
            run(43),
            "a different seed should find a different tie order"
        );
        assert_eq!(a[0], -1, "the earlier event fires first under any keys");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (-1..100).collect::<Vec<_>>(),
            "a permutation, no loss"
        );
    }

    #[test]
    fn run_until_time_stops_clock() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime(10), |s| s.world.push(1));
        sim.schedule_at(SimTime(20), |s| s.world.push(2));
        sim.schedule_at(SimTime(30), |s| s.world.push(3));
        let stats = sim.run_limited(RunLimit::UntilTime(SimTime(20)));
        assert_eq!(sim.world, vec![1, 2]);
        assert!(!stats.idle);
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
    }

    #[test]
    fn max_events_limit() {
        let mut sim = Sim::new(0u64);
        for i in 0..10 {
            sim.schedule_at(SimTime(i), |s| s.world += 1);
        }
        let stats = sim.run_limited(RunLimit::MaxEvents(4));
        assert_eq!(stats.events, 4);
        assert_eq!(sim.world, 4);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut sim = Sim::new(());
        sim.schedule_at(SimTime(10), |s| {
            s.schedule_at(SimTime(5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_in(SimSpan::from_nanos(5), |s| {
            let now = s.now();
            s.world.push(now.as_nanos());
            s.schedule_in(SimSpan::from_nanos(7), |s| {
                let now = s.now();
                s.world.push(now.as_nanos());
            });
        });
        let stats = sim.run();
        assert_eq!(sim.world, vec![5, 12]);
        assert_eq!(stats.end_time, SimTime(12));
        assert!(stats.idle);
    }

    #[test]
    fn determinism_same_schedule_same_trace() {
        fn build() -> Vec<u64> {
            let mut sim = Sim::new(Vec::new());
            for i in (0..50).rev() {
                sim.schedule_at(SimTime(i % 7), move |s| {
                    s.world.push(i);
                });
            }
            sim.run();
            sim.world
        }
        assert_eq!(build(), build());
    }
}
