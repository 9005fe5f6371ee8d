//! The event loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimSpan, SimTime};

/// What a [`Sim`] fires: a value that, at its instant, acts on the whole
/// simulation — world, clock and queue — and may schedule more events of
/// its own type.
///
/// A model with a fixed set of happenings names them in an enum and
/// dispatches in `fire`: its events are plain values, stored without a
/// heap block each. [`Thunk`], a boxed closure, is the default.
pub trait Event<S>: Sized {
    /// Act at the event's instant ([`Sim::now`]).
    fn fire(self, sim: &mut Sim<S, Self>);
}

/// The closure a [`Thunk`] boxes.
type Closure<S> = Box<dyn FnOnce(&mut Sim<S>)>;

/// The default event: a closure over the simulation, boxed.
pub struct Thunk<S>(Closure<S>);

impl<S> Event<S> for Thunk<S> {
    fn fire(self, sim: &mut Sim<S>) {
        (self.0)(sim)
    }
}

/// Tie-break key generator: maps an event's scheduling sequence number to
/// the key that orders it against other events at the *same instant*.
/// Identity (the default) preserves FIFO ties; a seeded permutation turns
/// every same-time tie into a deterministic interleaving choice.
type TieBreakFn = Box<dyn FnMut(u64) -> u64>;

/// What the heap orders: earliest `(time, key, seq)` first (wrapped in
/// `Reverse` for the max-heap). `key == seq` unless a tie-break hook is
/// installed, so the default order is pure scheduling order. The event
/// itself waits in slab slot `slot`, so the heap moves only these words.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    key: u64,
    seq: u64,
    slot: u32,
}

/// A slab slot holding an event that is not queued yet: filled in through
/// [`Sim::reserved`], queued by [`Sim::commit`] (which consumes it).
#[derive(Debug)]
pub struct Reserved(u32);

/// A deterministic discrete-event simulation over a user-defined world `S`,
/// firing events of type `E` ([`Thunk`] closures unless the model names its
/// own [`Event`] type).
///
/// Events are ordered by `(time, seq)` where `seq` is the scheduling order
/// — two events at the same instant fire in the order they were scheduled,
/// making runs exactly reproducible.
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
/// sim.run();
/// assert_eq!(sim.world, vec![1, 2, 3]);
/// assert_eq!(sim.now().as_nanos(), 6_000_000);
/// ```
///
/// The same model with its events as values:
///
/// ```
/// use dps_des::{Event, Sim, SimSpan, SimTime};
///
/// enum Ev {
///     Push(u32),
///     PushLater(u32, SimSpan),
/// }
///
/// impl Event<Vec<u32>> for Ev {
///     fn fire(self, sim: &mut Sim<Vec<u32>, Ev>) {
///         match self {
///             Ev::Push(n) => sim.world.push(n),
///             Ev::PushLater(n, d) => {
///                 sim.world.push(n);
///                 sim.event_at(sim.now() + d, Ev::Push(n + 2));
///             }
///         }
///     }
/// }
///
/// let mut sim = Sim::<Vec<u32>, Ev>::typed(Vec::new());
/// sim.event_at(SimTime(2_000_000), Ev::Push(2));
/// sim.event_at(SimTime(1_000_000), Ev::PushLater(1, SimSpan::from_millis(5)));
/// sim.run();
/// assert_eq!(sim.world, vec![1, 2, 3]);
/// assert_eq!(sim.now().as_nanos(), 6_000_000);
/// ```
pub struct Sim<S, E = Thunk<S>> {
    /// The user world: all model state lives here.
    pub world: S,
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Reverse<Key>>,
    /// The pending events, by slot; `free` lists the empty slots.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    tie_break: Option<TieBreakFn>,
}

impl<S> Sim<S> {
    /// Create a simulation of closure events at time zero owning `world`.
    pub fn new(world: S) -> Self {
        Self::typed(world)
    }

    /// Schedule `f` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are always bugs
    /// in the model, never recoverable conditions.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<S>) + 'static) {
        self.event_at(at, Thunk(Box::new(f)))
    }

    /// Schedule `f` after a delay of `d`.
    pub fn schedule_in(&mut self, d: SimSpan, f: impl FnOnce(&mut Sim<S>) + 'static) {
        self.schedule_at(self.now + d, f)
    }
}

impl<S, E: Event<S>> Sim<S, E> {
    /// Create a simulation of `E` events at time zero owning `world`.
    pub fn typed(world: S) -> Self {
        Self {
            world,
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            tie_break: None,
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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `ev` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are always bugs
    /// in the model, never recoverable conditions.
    #[inline]
    pub fn event_at(&mut self, at: SimTime, ev: E) {
        let held = self.reserve(ev);
        self.commit(held, at);
    }

    /// Put `ev` aside without queueing it, for an event whose instant or
    /// contents are settled later: the model fills it in through
    /// [`reserved`](Self::reserved) and queues it with
    /// [`commit`](Self::commit), where it takes its place in the scheduling
    /// order (a reserved event is not [`pending`](Self::pending)).
    #[inline]
    pub fn reserve(&mut self, ev: E) -> Reserved {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev);
                Reserved(slot)
            }
            None => {
                self.slab.push(Some(ev));
                Reserved((self.slab.len() - 1) as u32)
            }
        }
    }

    /// The reserved event, in place.
    #[inline]
    pub fn reserved(&mut self, held: &Reserved) -> &mut E {
        self.slab[held.0 as usize]
            .as_mut()
            .expect("a reserved slot holds its event")
    }

    /// Queue the reserved event at absolute time `at`, after every event
    /// already queued for that instant — as if scheduled now.
    ///
    /// # Panics
    /// Panics if `at` is in the past, as [`event_at`](Self::event_at) does.
    #[inline]
    pub fn commit(&mut self, held: Reserved, at: SimTime) {
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
        let slot = held.0;
        self.heap.push(Reverse(Key { at, key, seq, slot }));
    }

    /// Fire the single next event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(Key { at, slot, .. })) = self.heap.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "heap returned an event in the past");
        self.now = at;
        let ev = self.slab[slot as usize]
            .take()
            .expect("a queued slot holds its event");
        self.free.push(slot);
        ev.fire(self);
        true
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
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
        sim.run();
        assert_eq!(sim.world, vec![5, 12]);
        assert_eq!(sim.now(), SimTime(12));
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn step_fires_one_event_at_a_time() {
        let mut sim = Sim::new(Vec::new());
        assert!(!sim.step(), "nothing to fire");
        sim.schedule_at(SimTime(4), |s| s.world.push(4));
        sim.schedule_at(SimTime(9), |s| s.world.push(9));
        assert!(sim.step());
        assert_eq!(
            (sim.world.clone(), sim.now(), sim.pending()),
            (vec![4], SimTime(4), 1)
        );
        assert!(sim.step());
        assert!(!sim.step());
        assert_eq!((sim.now(), sim.world), (SimTime(9), vec![4, 9]));
    }

    #[test]
    fn an_event_scheduled_for_now_fires_after_those_already_due() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime(3), |s| {
            s.world.push("first");
            s.schedule_in(SimSpan::ZERO, |s| s.world.push("scheduled now"));
        });
        sim.schedule_at(SimTime(3), |s| s.world.push("second"));
        sim.run();
        assert_eq!(sim.world, vec!["first", "second", "scheduled now"]);
        assert_eq!(sim.now(), SimTime(3));
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

    /// A typed event: `Push(n)` records `n`; `Then(n, at, m)` records `n`
    /// and schedules `Push(m)` at `at`.
    enum Tagged {
        Push(i64),
        Then(i64, SimTime, i64),
    }

    impl Event<Vec<i64>> for Tagged {
        fn fire(self, sim: &mut Sim<Vec<i64>, Tagged>) {
            match self {
                Tagged::Push(n) => sim.world.push(n),
                Tagged::Then(n, at, m) => {
                    sim.world.push(n);
                    sim.event_at(at, Tagged::Push(m));
                }
            }
        }
    }

    type Typed = Sim<Vec<i64>, Tagged>;

    #[test]
    fn typed_ties_fire_in_scheduling_order() {
        let mut sim = Typed::typed(Vec::new());
        for i in 0..100 {
            sim.event_at(SimTime(5), Tagged::Push(i));
        }
        sim.event_at(SimTime(2), Tagged::Then(-1, SimTime(5), 100));
        sim.run();
        assert_eq!(sim.world[0], -1, "the earlier event fires first");
        assert_eq!(
            sim.world[1..],
            (0..=100).collect::<Vec<_>>(),
            "an event scheduled later for the same instant fires after those already due"
        );
    }

    #[test]
    fn typed_tie_break_permutes_same_time_events_deterministically() {
        use crate::SplitMix64;
        let run = |seed: u64| {
            let mut sim = Typed::typed(Vec::new());
            let mut rng = SplitMix64::new(seed);
            sim.set_tie_break(move |seq| rng.next_u64() ^ seq);
            for i in 0..100 {
                sim.event_at(SimTime(5), Tagged::Push(i));
            }
            sim.event_at(SimTime(1), Tagged::Push(-1));
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
    #[should_panic(expected = "scheduled in the past")]
    fn typed_past_scheduling_panics() {
        let mut sim = Typed::typed(Vec::new());
        sim.event_at(SimTime(10), Tagged::Then(0, SimTime(5), 1));
        sim.run();
    }

    #[test]
    fn a_reserved_event_takes_its_place_when_committed() {
        let mut sim = Typed::typed(Vec::new());
        let held = sim.reserve(Tagged::Push(0));
        sim.event_at(SimTime(5), Tagged::Push(1));
        assert_eq!(sim.pending(), 1, "a reserved event is not queued");
        *sim.reserved(&held) = Tagged::Push(2);
        sim.commit(held, SimTime(5));
        sim.event_at(SimTime(5), Tagged::Push(3));
        sim.event_at(SimTime(4), Tagged::Push(-1));
        sim.run();
        assert_eq!(sim.world, vec![-1, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn a_reserved_event_cannot_be_committed_in_the_past() {
        let mut sim = Typed::typed(Vec::new());
        sim.event_at(SimTime(10), Tagged::Push(0));
        sim.run();
        let held = sim.reserve(Tagged::Push(1));
        sim.commit(held, SimTime(9));
    }

    #[test]
    fn a_fired_events_slot_is_reused() {
        // A chain of 1000 events, each scheduling the next: one slot serves
        // them all, however long the run.
        struct Chain(u32);
        impl Event<u32> for Chain {
            fn fire(self, sim: &mut Sim<u32, Chain>) {
                sim.world += 1;
                if self.0 > 1 {
                    sim.event_at(sim.now() + SimSpan::from_nanos(3), Chain(self.0 - 1));
                }
            }
        }
        let mut sim = Sim::<u32, Chain>::typed(0);
        sim.event_at(SimTime(0), Chain(1000));
        sim.run();
        assert_eq!((sim.world, sim.now()), (1000, SimTime(2997)));
        assert_eq!((sim.slab.len(), sim.free.len()), (1, 1));
    }
}
