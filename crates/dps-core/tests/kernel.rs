//! The rules of a wave (`dps_core::internal::kernel`), driven with no
//! engine: no queue, no clock, no thread. Whatever an engine does around
//! these calls, this is what the wave does. The second half runs the
//! kernel's driver — the path of a token — over a `Substrate` that is
//! nothing but queues, a seed and a step count for a clock.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use dps_core::internal::kernel::{
    self, Arrival, At, CallReturn, CloseTo, Death, Exit, Flow, FlowKey, Flows, IdHasher, IdMap,
    Instances, On, Pins, Rec, Routed, Sent, Serve, Substrate, Then, Tracer, Wave,
};
use dps_core::internal::{DynRoute, ExecInfo, OpOutput};
use dps_core::prelude::*;
use dps_core::{
    AppHandle, CallFrame, Decls, Envelope, Flowgraph, Frame, GNodeId, OpKind, Post,
    ThreadCollection, WaveKey,
};
use dps_obs::{Counter, EventKind, TraceCollector, TraceLog};
use dps_sched::FeedbackSink;
use proptest::prelude::*;

dps_token! { pub struct In { pub n: u32 } }
dps_token! { pub struct Mid { pub i: u32 } }
dps_token! { pub struct Out { pub n: u32 } }

/// (Operations carry a field so that instances have distinct addresses.)
#[derive(Default)]
struct Fan(u32);
impl SplitOperation for Fan {
    type Thread = ();
    type In = In;
    type Out = Mid;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Mid>, t: In) {
        self.0 += 1;
        for i in 0..t.n {
            ctx.post(Mid { i });
        }
    }
}
struct Relay;
impl StreamOperation for Relay {
    type Thread = ();
    type In = Mid;
    type Out = Mid;
    fn consume(&mut self, ctx: &mut OpCtx<'_, (), Mid>, t: Mid) {
        ctx.post(t);
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Mid>) {}
}
#[derive(Default)]
struct Count(u32);
impl MergeOperation for Count {
    type Thread = ();
    type In = Mid;
    type Out = Out;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Out>, _t: Mid) {
        self.0 += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Out>) {
        ctx.post(Out { n: self.0 });
    }
}

const SPLIT: GNodeId = GNodeId(0);
const STREAM: GNodeId = GNodeId(1);
const MERGE: GNodeId = GNodeId(2);

/// split → stream → merge, as the engines assemble it.
fn pipeline() -> Flowgraph {
    let tc: ThreadCollection<()> = ThreadCollection::from_raw(0, 0, 2);
    let mut b = GraphBuilder::new("pipeline");
    let s = b.split(&tc, || ToThread(0), Fan::default);
    let st = b.stream(&tc, || ToThread(0), || Relay);
    let m = b.merge(&tc, || ToThread(0), Count::default);
    b.add(s >> st >> m);
    b.assemble_for_engine().unwrap().0
}

/// A serving graph whose exit is a split: its wave is merged by the caller.
fn serving() -> Flowgraph {
    let tc: ThreadCollection<()> = ThreadCollection::from_raw(1, 0, 1);
    let mut b = GraphBuilder::new("serving");
    b.set_serving();
    let _ = b.split(&tc, || ToThread(0), Fan::default);
    b.assemble_for_engine().unwrap().0
}

fn key(wave: u64) -> WaveKey {
    let mut env = Envelope::root();
    env.push(Frame {
        src: SPLIT,
        wave,
        index: 0,
        total: None,
    });
    env.wave_key().unwrap()
}

/// A shuffle of `0..n` decided by `keys`.
fn shuffled(n: usize, keys: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (keys[i % keys.len()].rotate_left(i as u32), i));
    idx
}

/// How the total of a wave reaches its merge.
#[derive(Debug, Clone)]
enum Total {
    /// On the frame of the last-posted token, wherever that token arrives.
    Inline,
    /// As a wave-close, arriving after this many tokens (0 = before the
    /// first, `n` = after the last).
    CloseAfter(usize),
}

/// Rules 2 to 4 with every post framed as it is queued: the oracle a
/// [`Flow`] — which keeps its wave's envelope once and frames a post as it
/// releases it — is held to. Posts are numbered.
struct Eager {
    parent: Envelope,
    src: GNodeId,
    wave: u64,
    pending: VecDeque<(u32, Envelope)>,
    outstanding: u32,
    appended: u32,
}

impl Eager {
    fn new(parent: Envelope, src: GNodeId, wave: u64) -> Self {
        let pending = VecDeque::new();
        let (outstanding, appended) = (0, 0);
        Eager {
            parent,
            src,
            wave,
            pending,
            outstanding,
            appended,
        }
    }

    fn framed(&self, index: u32, total: Option<u32>) -> Envelope {
        let mut env = self.parent.clone();
        let (src, wave) = (self.src, self.wave);
        env.push(Frame {
            src,
            wave,
            index,
            total,
        });
        env
    }

    /// Rule 2: a split's `n` posts, the total on the last.
    fn split(parent: Envelope, wave: u64, n: u32) -> Self {
        let mut flow = Eager::new(parent, SPLIT, wave);
        for i in 0..n {
            let env = flow.framed(i, (i + 1 == n).then_some(n));
            flow.pending.push_back((i, env));
        }
        flow.appended = n;
        flow
    }

    /// Rule 3: `posts` more, numbered on; at completion the total goes on
    /// the last post still pending, else out as a close.
    fn append(&mut self, posts: u32, completes: bool) -> Option<(Envelope, u32)> {
        for _ in 0..posts {
            let env = self.framed(self.appended, None);
            self.pending.push_back((self.appended, env));
            self.appended += 1;
        }
        if !completes {
            return None;
        }
        let total = self.appended;
        match self.pending.back_mut() {
            Some((_, env)) => {
                env.frames.last_mut().unwrap().total = Some(total);
                None
            }
            None => Some((self.framed(0, Some(total)), total)),
        }
    }

    /// Rule 4.
    fn pop(&mut self, window: u32) -> Option<(u32, Envelope)> {
        if window != 0 && self.outstanding >= window {
            return None;
        }
        let post = self.pending.pop_front()?;
        self.outstanding += 1;
        Some(post)
    }

    fn credit(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }
}

/// An envelope of nesting depth `frames.len()` — past 2, spilled to the
/// heap — inside a graph call if `called`.
fn parent_env(frames: &[(u32, u64, u32, Option<u32>)], called: bool) -> Envelope {
    let mut env = Envelope::root();
    for &(src, wave, index, total) in frames {
        env.push(Frame {
            src: GNodeId(src),
            wave,
            index,
            total,
        });
    }
    if called {
        env.calls.push(CallFrame {
            caller_app: 1,
            caller_graph: 0,
            call_node: GNodeId(3),
            call_id: 11,
        });
    }
    env
}

/// What a flow step does to a split's or a stream's output flow.
#[derive(Debug, Clone)]
enum FlowStep {
    /// Release one post, if the window admits it.
    Release,
    /// The merge consumed one released post.
    Credit,
    /// A consume of the stream posted this many (a split releases instead).
    Append(u32),
}

fn flow_steps() -> impl Strategy<Value = Vec<FlowStep>> {
    let step = (0u32..12).prop_map(|k| match k {
        0..=3 => FlowStep::Release,
        4..=7 => FlowStep::Credit,
        k => FlowStep::Append(k - 8),
    });
    proptest::collection::vec(step, 0..60)
}

fn parent_frames() -> impl Strategy<Value = Vec<(u32, u64, u32, Option<u32>)>> {
    let frame = (
        0u32..4,
        any::<u64>(),
        0u32..9,
        proptest::option::of(1u32..9),
    );
    proptest::collection::vec(frame, 0..3)
}

proptest! {
    /// (a) Rule 1. Whatever order the tokens and the total arrive in, the
    /// wave completes exactly once — on the arrival that makes `received ==
    /// total` with the total known, which is the last one — and one token
    /// too many is a contract error.
    #[test]
    fn a_wave_completes_exactly_once(
        n in 1usize..9,
        keys in proptest::collection::vec(any::<u64>(), 1..9),
        close_at in 0usize..10,
        inline in any::<bool>(),
    ) {
        let how = if inline { Total::Inline } else { Total::CloseAfter(close_at % (n + 1)) };
        let mut wave = Wave::new(0, MERGE, 0);
        let mut completions = Vec::new();
        for (arrived, &token) in shuffled(n, &keys).iter().enumerate() {
            if let Total::CloseAfter(k) = how {
                if k == arrived {
                    completions.push(wave.close(n as u32, "merge").unwrap());
                }
            }
            let inline_total = match how {
                Total::Inline if token == n - 1 => Some(n as u32),
                _ => None,
            };
            completions.push(wave.admit(inline_total, "merge").unwrap());
        }
        if let Total::CloseAfter(k) = how {
            if k == n {
                completions.push(wave.close(n as u32, "merge").unwrap());
            }
        }
        let (last, earlier) = completions.split_last().unwrap();
        prop_assert!(*last, "{how:?}: all {n} tokens and the total are in");
        prop_assert!(earlier.iter().all(|c| !c), "{how:?}: completed early: {completions:?}");
        prop_assert_eq!(wave.received(), n as u32);
        prop_assert_eq!(wave.expected(), Some(n as u32));

        let over = wave.admit(None, "merge").unwrap_err();
        prop_assert!(matches!(over, DpsError::OperationContract { .. }), "{over}");
        prop_assert!(over.to_string().contains(&format!("received {} tokens", n + 1)), "{over}");
    }

    /// (a) A close whose total is below what already arrived is the same
    /// contract error, named for the producer.
    #[test]
    fn a_close_below_the_received_count_is_a_contract_error(n in 2u32..9, short in 1u32..8) {
        let mut wave = Wave::new(0, MERGE, 0);
        for _ in 0..n {
            prop_assert!(!wave.admit(None, "merge").unwrap());
        }
        let total = short.min(n - 1);
        let e = wave.close(total, "merge").unwrap_err().to_string();
        prop_assert!(e.contains(&format!("producer posted {total}")), "{e}");
    }

    /// (b) Rule 3. Over any number of consumes (each posting 0..4) and a
    /// finalize, with the flow released to any degree in between: the
    /// wave's posts are numbered contiguously from 0, and the total travels
    /// exactly once — on the last post if one is still pending at
    /// completion, else as a close envelope, never both.
    #[test]
    fn stream_posts_are_numbered_and_carry_one_total(
        steps in proptest::collection::vec((0u32..4, any::<bool>()), 1..7),
        at_finalize in 0u32..3,
    ) {
        let def = pipeline();
        let stream = def.node(STREAM);
        let mut parent = Envelope::root();
        parent.push(Frame { src: SPLIT, wave: 3, index: 5, total: None });
        let mut flow: Flow<u32> = Flow::stream(0, STREAM, 77, parent.clone());
        let mut released = Vec::new();
        let mut next = 0u32;
        for &(posts, drain) in &steps {
            let ids: Vec<u32> = (next..next + posts).collect();
            next += posts;
            let close = flow.append(&stream.name, ids, false).unwrap();
            prop_assert!(close.is_none(), "only a completed wave has a total to send");
            if drain {
                while let Some(post) = flow.pop(0) {
                    released.push(post);
                }
            }
            prop_assert!(!flow.is_flushed(), "the wave may still post");
        }
        let ids: Vec<u32> = (next..next + at_finalize).collect();
        next += at_finalize;
        let close = flow.append(&stream.name, ids, true);
        if next == 0 {
            let e = close.unwrap_err().to_string();
            prop_assert!(e.contains("posted no tokens across its wave"), "{e}");
            return Ok(());
        }
        let close = close.unwrap();
        let held_back = flow.pending();
        while let Some(post) = flow.pop(0) {
            released.push(post);
        }
        prop_assert!(flow.is_flushed());

        prop_assert_eq!(released.len() as u32, next);
        for (i, (id, env)) in released.iter().enumerate() {
            let frame = env.top().unwrap();
            prop_assert_eq!(*id, i as u32, "released in post order");
            prop_assert_eq!((frame.src, frame.wave, frame.index), (STREAM, 77, i as u32));
            prop_assert_eq!(&env.frames[..1], &parent.frames[..], "under the parent envelope");
            let is_last = i as u32 + 1 == next;
            let carries = frame.total.is_some();
            prop_assert_eq!(carries, is_last && held_back > 0, "post {i} of {next}");
            if carries {
                prop_assert_eq!(frame.total, Some(next));
            }
        }
        match close {
            Some((env, total)) => {
                prop_assert_eq!(held_back, 0, "a pending post would have carried the total");
                prop_assert_eq!(total, next);
                prop_assert_eq!(env.top().unwrap().total, Some(next));
                prop_assert_eq!(env.wave_key(), released[0].1.wave_key(), "same wave");
            }
            None => prop_assert!(held_back > 0),
        }
    }

    /// (c) Rules 2 and 4. A split's wave behind a window: never more than
    /// `window` posts outstanding, every post released exactly once and in
    /// order with its frame (total on the last), the flow drained only once
    /// everything was released and credited.
    #[test]
    fn the_window_bounds_what_is_outstanding(
        n in 1usize..20,
        window in 1u32..6,
        script in proptest::collection::vec(any::<bool>(), 1..80),
    ) {
        let def = pipeline();
        let mut flow: Flow<usize> = kernel::open_wave(&def, SPLIT, 9, Envelope::root(), 0..n, 0);
        let mut released = Vec::new();
        let mut credited = 0usize;
        // Follow the script, then alternate until the flow is drained.
        let tail = (0..4 * n).map(|i| i % 2 == 0);
        for release in script.iter().copied().chain(tail) {
            if release {
                let admits = flow.front(window).copied();
                match flow.pop(window) {
                    Some((id, env)) => {
                        prop_assert_eq!(admits, Some(id));
                        released.push((id, env));
                    }
                    None => {
                        prop_assert_eq!(admits, None);
                        let blocked = flow.outstanding() == window;
                        prop_assert!(blocked || flow.pending() == 0);
                    }
                }
            } else if credited < released.len() {
                flow.credit();
                credited += 1;
            }
            prop_assert!(flow.outstanding() <= window);
            prop_assert_eq!(flow.outstanding() as usize, released.len() - credited);
            prop_assert_eq!(flow.pending(), n - released.len());
            prop_assert_eq!(flow.is_flushed(), released.len() == n);
            prop_assert_eq!(flow.is_drained(), credited == n);
        }
        prop_assert!(flow.is_drained());
        for (i, (id, env)) in released.iter().enumerate() {
            prop_assert_eq!(*id, i);
            let expect = Frame {
                src: SPLIT,
                wave: 9,
                index: i as u32,
                total: (i + 1 == n).then_some(n as u32),
            };
            prop_assert_eq!(&env.frames[..], &[expect][..]);
        }
    }

    /// (c) Rule 2. The exit split of a serving graph has no merge of its
    /// own graph returning credits: its flow ignores the window. And window
    /// 0 means no limit for any flow.
    #[test]
    fn an_unbounded_flow_ignores_the_window(n in 1usize..30, window in 1u32..4) {
        let mut exit: Flow<usize> = kernel::open_wave(&serving(), SPLIT, 1, Envelope::root(), 0..n, 0);
        let mut unlimited: Flow<usize> =
            kernel::open_wave(&pipeline(), SPLIT, 1, Envelope::root(), 0..n, 0);
        for i in 0..n {
            prop_assert_eq!(exit.pop(window).map(|(id, _)| id), Some(i));
            prop_assert_eq!(unlimited.pop(0).map(|(id, _)| id), Some(i));
        }
        prop_assert_eq!(exit.outstanding() as usize, n);
        prop_assert!(exit.is_flushed() && !exit.is_drained());
    }

    /// (c) Rules 2 and 4, framed at release. For any post count, window,
    /// parent envelope (up to depth 3 once framed) and interleaving of
    /// releases and credits, a split's flow releases the same posts under
    /// the same envelopes as the eager oracle, and holds the same counts.
    #[test]
    fn a_split_flow_frames_as_the_eager_oracle(
        n in 1u32..30,
        window in 0u32..5,
        frames in parent_frames(),
        called in any::<bool>(),
        steps in flow_steps(),
    ) {
        let parent = parent_env(&frames, called);
        let posts = 0..n;
        let mut flow: Flow<u32> = kernel::open_wave(&pipeline(), SPLIT, 9, parent.clone(), posts, 0);
        let mut oracle = Eager::split(parent, 9, n);
        let tail = (0..4 * n).map(|i| if i % 2 == 0 { FlowStep::Release } else { FlowStep::Credit });
        for step in steps.into_iter().chain(tail) {
            match step {
                FlowStep::Credit => {
                    flow.credit();
                    oracle.credit();
                }
                FlowStep::Release | FlowStep::Append(_) => {
                    prop_assert_eq!(flow.pop(window), oracle.pop(window));
                }
            }
            prop_assert_eq!(flow.pending(), oracle.pending.len());
            prop_assert_eq!(flow.outstanding(), oracle.outstanding);
        }
        prop_assert!(flow.is_drained() && oracle.pending.is_empty());
    }

    /// (b, c) Rules 3 and 4, framed at release. Over any run of consumes,
    /// releases and credits and a finalize posting `last` more, a stream's
    /// flow releases the same posts under the same envelopes as the eager
    /// oracle — the total on the same post — and sends the same close.
    #[test]
    fn a_stream_flow_frames_as_the_eager_oracle(
        window in 0u32..5,
        frames in parent_frames(),
        called in any::<bool>(),
        steps in flow_steps(),
        last in 0u32..3,
    ) {
        let parent = parent_env(&frames, called);
        let name = &pipeline().node(STREAM).name.clone();
        let mut flow: Flow<u32> = Flow::stream(0, STREAM, 77, parent.clone());
        let mut oracle = Eager::new(parent, STREAM, 77);
        let mut next = 0;
        let mut numbered = |k: u32| {
            next += k;
            next - k..next
        };
        for step in steps {
            match step {
                FlowStep::Release => prop_assert_eq!(flow.pop(window), oracle.pop(window)),
                FlowStep::Credit => {
                    flow.credit();
                    oracle.credit();
                }
                FlowStep::Append(k) => {
                    let close = flow.append(name, numbered(k), false).unwrap();
                    prop_assert_eq!(close, oracle.append(k, false));
                }
            }
            prop_assert_eq!(flow.pending(), oracle.pending.len());
            prop_assert_eq!(flow.outstanding(), oracle.outstanding);
        }
        let close = flow.append(name, numbered(last), true);
        if oracle.appended + last == 0 {
            prop_assert!(close.is_err(), "a stream that posted nothing is a contract error");
            return Ok(());
        }
        prop_assert_eq!(close.unwrap(), oracle.append(last, true));
        while flow.pending() > 0 || flow.outstanding() > 0 {
            prop_assert_eq!(flow.pop(window), oracle.pop(window));
            flow.credit();
            oracle.credit();
        }
        prop_assert!(flow.is_drained() && oracle.pending.is_empty());
    }

    /// (d) Rule 6, the table. `alive` is what the engine observes; a dead pin
    /// always moves — what its thread had consumed is the loss rule's.
    #[test]
    fn the_pin_and_close_rule_table(pinned in 0u32..8, routed in 0u32..8, total in 1u32..99) {
        let k = key(4);
        let up = |_: u32| true;
        let down = |_: u32| false;
        let pin = || {
            let mut pins = Pins::default();
            let first = pins.route(&k, pinned, up);
            assert_eq!(first, Routed::Pinned { parked: None }, "first-routed pins");
            pins
        };

        // Token rows.
        prop_assert_eq!(pin().route(&k, routed, up), Routed::Follow(pinned));
        let mut pins = pin();
        let moved = pins.route(&k, routed, down);
        prop_assert_eq!(moved, Routed::Pinned { parked: None }, "dead pin: re-pin");
        prop_assert_eq!(pins.route(&k, pinned, up), Routed::Follow(routed));

        // Close rows.
        prop_assert_eq!(pin().close(&k, total, up), CloseTo::Deliver(pinned));
        let mut early = Pins::default();
        prop_assert_eq!(early.close(&k, total, up), CloseTo::Parked, "no pin yet");
        let mut unpinned = pin();
        let parked = unpinned.close(&k, total, down);
        prop_assert_eq!(parked, CloseTo::Parked, "dead pin: un-pin and park");
        for mut pins in [early, unpinned] {
            // The next token pins the wave and picks the parked total up, once.
            let picked = pins.route(&k, routed, down);
            prop_assert_eq!(picked, Routed::Pinned { parked: Some(total) });
            prop_assert_eq!(pins.route(&k, pinned, up), Routed::Follow(routed));
            // Other waves are other rows.
            prop_assert_eq!(pins.route(&key(5), pinned, up), Routed::Pinned { parked: None });
            pins.remove(&k);
            prop_assert_eq!(pins.route(&k, pinned, up), Routed::Pinned { parked: None });
        }
    }
}

/// Rule 7: a split/leaf slot keeps its instance; a wave makes its own and
/// takes it along when the table forgets the wave.
#[test]
fn instances_are_per_slot_and_per_wave() {
    let def = pipeline();
    let mut inst = Instances::default();
    fn addr(op: &mut dyn dps_core::internal::DynOp) -> usize {
        op as *mut dyn dps_core::internal::DynOp as *mut () as usize
    }
    let a = addr(inst.node_op((0, 0), def.node(SPLIT)).unwrap());
    let b = addr(inst.node_op((0, 1), def.node(SPLIT)).unwrap());
    assert_ne!(a, b, "one instance per slot");
    assert_eq!(
        a,
        addr(inst.node_op((0, 0), def.node(SPLIT)).unwrap()),
        "kept"
    );

    inst.waves.insert(key(1), Wave::new(0, MERGE, 10));
    let wave = inst.waves.get_mut(&key(1)).unwrap();
    let first = addr(wave.op(def.node(MERGE)).unwrap());
    assert_eq!(first, addr(wave.op(def.node(MERGE)).unwrap()));
    assert_eq!(wave.out_wave, 10);
    assert!(inst.waves.remove(&key(1)).is_some());
    assert!(inst.waves.is_empty());
}

/// Distinct values of the low `bits` bits of the hashes of `keys` — where
/// `std`'s table looks for a key's bucket first.
fn buckets_hit<K: std::hash::Hash>(
    hasher: &impl std::hash::BuildHasher,
    keys: impl Iterator<Item = K>,
    bits: u32,
) -> usize {
    let mut hit = vec![false; 1 << bits];
    for k in keys {
        hit[(hasher.hash_one(k) & ((1 << bits) - 1)) as usize] = true;
    }
    hit.iter().filter(|&&h| h).count()
}

/// The tables' hasher against the one it replaced, on the key shapes the
/// engines use. A degenerate multiply (an even constant, a lost rotate)
/// would crowd sequential ids into few buckets: it must spread them over the
/// bucket indices as widely as a seeded hash does, and a million of them
/// must fit the same table and all be found.
#[test]
fn sequential_ids_spread_like_a_seeded_hash() {
    use std::hash::BuildHasherDefault;
    let (ours, seeded) = (
        BuildHasherDefault::<IdHasher>::default(),
        HashMap::<u8, u8>::new().hasher().clone(),
    );
    // (src, wave) as a flow is keyed, a million waves over four producers.
    const WAVES: u64 = 1_000_000;
    let flow_keys = || (0..WAVES).map(|w| -> FlowKey { ((w % 4) as u32, w) });
    let mut table: IdMap<FlowKey, ()> = IdMap::default();
    let mut reference: HashMap<FlowKey, ()> = HashMap::new();
    for k in flow_keys() {
        table.insert(k, ());
        reference.insert(k, ());
    }
    assert_eq!(table.len(), WAVES as usize);
    assert!(flow_keys().all(|k| table.contains_key(&k)));
    assert!(!table.contains_key(&(0, WAVES)));
    assert!(table.capacity() <= reference.capacity());
    drop((table, reference));
    let spread = |hit: usize, of: usize| assert!(hit * 10 >= of * 9, "{hit} buckets against {of}");
    spread(
        buckets_hit(&ours, flow_keys(), 20),
        buckets_hit(&seeded, flow_keys(), 20),
    );
    // (graph, node) / (node, thread) slots, and call ids.
    let slots = || (0..16u32).flat_map(|g| (0..64u32).map(move |n| (g, n)));
    spread(
        buckets_hit(&ours, slots(), 10),
        buckets_hit(&seeded, slots(), 10),
    );
    spread(
        buckets_hit(&ours, 0..4096u64, 12),
        buckets_hit(&seeded, 0..4096u64, 12),
    );
    // Whole wave keys, nested one frame deep inside a call.
    let nested = || {
        (0..4096u64).map(|w| {
            let mut env = Envelope::root();
            env.calls.push(CallFrame {
                caller_app: 0,
                caller_graph: 0,
                call_node: GNodeId(1),
                call_id: w / 8,
            });
            for (src, wave) in [(SPLIT, w / 8), (GNodeId(3), w)] {
                env.push(Frame {
                    src,
                    wave,
                    index: 0,
                    total: None,
                });
            }
            env.wave_key().unwrap()
        })
    };
    spread(
        buckets_hit(&ours, nested(), 12),
        buckets_hit(&seeded, nested(), 12),
    );
}

/// The top seven bits of a hash are what `std`'s table compares before it
/// compares keys: over sequential wave ids they must not repeat one value.
#[test]
fn the_top_bits_of_sequential_wave_ids_vary() {
    use std::hash::BuildHasher;
    let hasher = std::hash::BuildHasherDefault::<IdHasher>::default();
    let mut seen = [false; 128];
    for w in 0..10_000 {
        seen[(hasher.hash_one(key(w)) >> 57) as usize] = true;
    }
    let distinct = seen.iter().filter(|&&s| s).count();
    assert!(distinct >= 100, "{distinct} of 128 control-byte values");
}

/// Rule 5: where a token goes when it leaves a node.
#[test]
fn exit_picks_successor_output_or_return() {
    let def = pipeline();
    let svc = serving();
    let no_calls = |_: u64| -> Option<CallReturn> { panic!("no call on this envelope") };
    let mid = Mid { i: 0 };
    let out = Out { n: 0 };

    // By type to the successor; a type no successor takes is NoRoute.
    let root = Envelope::root();
    assert!(matches!(
        kernel::exit(&def, SPLIT, &mid, &root, no_calls),
        Ok(Exit::To(STREAM))
    ));
    assert!(matches!(
        kernel::exit(&def, SPLIT, &out, &root, no_calls),
        Err(DpsError::NoRoute { .. })
    ));
    // No successor declared: an output — unless frames are left unmerged.
    assert!(matches!(
        kernel::exit(&def, MERGE, &out, &root, no_calls),
        Ok(Exit::Output)
    ));
    let mut framed = Envelope::root();
    framed.push(Frame {
        src: SPLIT,
        wave: 2,
        index: 1,
        total: Some(2),
    });
    let e = kernel::exit(&def, MERGE, &out, &framed, no_calls).unwrap_err();
    assert!(e.to_string().contains("1 unmerged frames"), "{e}");

    // Inside call 41, made at STREAM under `framed`.
    let mut callee = Envelope::root();
    callee.calls.push(CallFrame {
        caller_app: 0,
        caller_graph: 0,
        call_node: STREAM,
        call_id: 41,
    });
    let caller = At {
        app: 0,
        graph: 0,
        node: STREAM,
    };
    let ret = CallReturn {
        at: caller,
        env: framed.clone(),
    };
    let returns = |id: u64| (id == 41).then(|| ret.clone());

    // Plain return: back under the caller's envelope, from the call node.
    match kernel::exit(&svc, SPLIT, &out, &callee, returns).unwrap() {
        Exit::Return(r) => {
            assert_eq!(r.at, caller);
            assert_eq!(r.env, framed);
        }
        other => panic!("{other:?}"),
    }
    // Distributed return: one frame of the callee's wave comes along.
    let mut in_wave = callee.clone();
    let callee_frame = Frame {
        src: SPLIT,
        wave: 8,
        index: 0,
        total: Some(1),
    };
    in_wave.push(callee_frame);
    match kernel::exit(&svc, SPLIT, &mid, &in_wave, returns).unwrap() {
        Exit::Return(r) => assert_eq!(r.env.frames[..], [framed.frames[0], callee_frame]),
        other => panic!("{other:?}"),
    }
    // Two frames cannot both return; an unknown call id is a contract error.
    in_wave.push(callee_frame);
    let e = kernel::exit(&svc, SPLIT, &mid, &in_wave, returns).unwrap_err();
    assert!(e.to_string().contains("2 unmerged frames"), "{e}");
    let e = kernel::exit(&svc, SPLIT, &out, &callee, |_| None).unwrap_err();
    assert!(
        e.to_string().contains("return for unknown call id 41"),
        "{e}"
    );
}

/// The node a close is consumed at is the one matching the wave's opener.
#[test]
fn a_close_goes_to_the_matching_merge() {
    let def = pipeline();
    assert_eq!(kernel::close_node(&def, &key(1)).unwrap(), STREAM);
    let mut k = key(1);
    k.src = STREAM;
    assert_eq!(kernel::close_node(&def, &k).unwrap(), MERGE);
    let e = kernel::close_node(&serving(), &key(1)).unwrap_err();
    assert!(e.to_string().contains("no matching merge"), "{e}");
}

// ---------------------------------------------------------------------------
// The path of a token, over a substrate with no engine behind it
// ---------------------------------------------------------------------------

struct Inc;
impl LeafOperation for Inc {
    type Thread = ();
    type In = Mid;
    type Out = Mid;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Mid>, t: Mid) {
        ctx.post(Mid { i: t.i + 1 });
    }
}

/// What sits between the split and the merge of application 0.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Leaf,
    Stream,
    /// A call into application 1, whose graph is one leaf.
    Call,
}

const THREADS: usize = 3;

/// Application 0: split → `shape` → merge; application 1: the service
/// `svc`. Thread `t` of either collection lives on cluster node `t`.
/// Everything but the split goes wherever the load is least, so it can
/// leave a dead node.
fn declare(shape: Shape) -> Decls {
    let mut d = Decls::new(dps_cluster::ClusterSpec::uniform(THREADS, 1));
    let mapping = dps_cluster::default_mapping(THREADS, 1);
    let main = d.app("main");
    let tc: ThreadCollection<()> = d.thread_collection(main, &mapping).unwrap();
    let mut b = GraphBuilder::new("main");
    let s = b.split(&tc, || ToThread(0), Fan::default);
    let m = b.merge(&tc, LeastLoaded::new, Count::default);
    let middle = match shape {
        Shape::Leaf => b.leaf(&tc, LeastLoaded::new, || Inc),
        Shape::Stream => b.stream(&tc, LeastLoaded::new, || Relay),
        Shape::Call => b.call::<Mid, Mid, (), _>("svc", &tc, LeastLoaded::new),
    };
    b.add(s >> middle >> m);
    d.build_graph(b).unwrap();
    let app = d.app("svc");
    let tc: ThreadCollection<()> = d.thread_collection(app, &mapping).unwrap();
    let mut svc = GraphBuilder::new("svc");
    let _ = svc.leaf(&tc, LeastLoaded::new, || Inc);
    let svc = d.build_graph(svc).unwrap();
    d.expose_service(svc, "svc");
    d
}

/// The index of thread `thread` of application `app`'s collection among the
/// fake's lanes: one per cluster node and application.
fn lane(app: u32, thread: usize) -> usize {
    app as usize * THREADS + thread
}

/// What waits in a thread's queue: where it goes, what it is, under which
/// envelope, and a traced token's flow.
type Queued = (At, Arrival, Envelope, Sent);

/// A feedback sink that keeps the workers it was told are lost.
#[derive(Default)]
struct LostWorkers(Mutex<Vec<usize>>);
impl FeedbackSink for LostWorkers {
    fn report_chunk(&self, _worker: usize, _iters: u64, _secs: f64) {}
    fn worker_lost(&self, worker: usize) {
        self.0.lock().unwrap().push(worker);
    }
}

/// The third `Substrate`: one in-memory queue per thread, a seeded pick of
/// which non-empty queue runs next, a kill list. No lock; its clock counts
/// the steps run, and a trace is attached on demand.
struct Fake {
    decls: Decls,
    routes: Vec<Vec<Box<dyn DynRoute>>>,
    pins: Vec<RefCell<Pins>>,
    flows: Vec<RefCell<Flows<Fake>>>,
    queues: Vec<VecDeque<Queued>>,
    /// Each thread's op instances and the waves it consumes, per
    /// application ([`lane`]).
    lanes: Vec<Instances>,
    dead: Vec<bool>,
    /// A node that dies inside the next `route` hook: after the snapshot the
    /// route decides on was taken, before the destination is checked.
    dies_in_route: Option<usize>,
    window: u32,
    /// Wave and call ids.
    ids: u64,
    calls: HashMap<u64, CallReturn>,
    outputs: Vec<Vec<u8>>,
    errors: Vec<DpsError>,
    rng: dps_des::SplitMix64,
    completed: Vec<WaveKey>,
    peak_outstanding: u32,
    /// Steps run so far: every stamp.
    clock: u64,
    tracer: RefCell<Option<Tracer>>,
    /// What the operation running now posts, reused by every run.
    out: OpOutput,
    /// The collections that reported to the feedback sink, and the sink.
    reporters: Vec<(u32, u32)>,
    lost: Arc<LostWorkers>,
}

impl Substrate for Fake {
    type Post = TokenBox;
    type FlowExt = ();
    type Lane = usize;

    fn decls(&self) -> &Decls {
        &self.decls
    }
    fn node_up(&self, node: u32) -> bool {
        !self.dead[node as usize]
    }
    fn load(&self, _app: u32, _tc: u32, load: &mut [u32]) {
        for (slot, (q, &dead)) in load.iter_mut().zip(self.queues.iter().zip(&self.dead)) {
            *slot = if dead { u32::MAX } else { q.len() as u32 };
        }
    }
    fn route(&mut self, to: At, token: &dyn Token, info: &RouteInfo<'_>) -> Result<usize> {
        if let Some(node) = self.dies_in_route.take() {
            self.kill(node);
        }
        let name = &self.decls.def(to.app, 0).node(to.node).name;
        self.routes[to.app as usize][to.node.0 as usize].route_dyn(token, info, name)
    }
    fn enforce_serialization(&self) -> bool {
        false
    }
    fn remember_call(&mut self, ret: CallReturn) -> u64 {
        self.ids += 1;
        self.calls.insert(self.ids, ret);
        self.ids
    }
    fn call_return(&self, id: u64) -> Option<CallReturn> {
        self.calls.get(&id).cloned()
    }
    fn pins<R>(&self, app: u32, _graph: u32, f: impl FnOnce(&mut Pins) -> R) -> R {
        f(&mut self.pins[app as usize].borrow_mut())
    }
    fn flows<R>(&self, app: u32, _graph: u32, f: impl FnOnce(&mut Flows<Self>) -> R) -> R {
        f(&mut self.flows[app as usize].borrow_mut())
    }
    fn send(&mut self, to: At, thread: u32, _src: u32, what: Arrival, env: Envelope, sent: Sent) {
        self.queues[thread as usize].push_back((to, what, env, sent));
    }
    fn next_post(
        &mut self,
        app: u32,
        _graph: u32,
        key: FlowKey,
        credit: bool,
    ) -> Option<(TokenBox, Envelope, u32)> {
        let flows = self.flows[app as usize].get_mut();
        let f = flows.get_mut(&key)?;
        if credit {
            f.credit();
        }
        let Some((token, env)) = f.pop(self.window) else {
            if f.is_drained() {
                flows.remove(&key);
            }
            return None;
        };
        self.peak_outstanding = self.peak_outstanding.max(f.outstanding());
        Some((token, env, f.src))
    }
    fn leave(&mut self, post: TokenBox, from: At, src: u32, env: Envelope) {
        kernel::emit(self, from, src, post, env);
    }
    fn output(&mut self, _app: u32, _graph: u32, token: TokenBox) {
        self.outputs.push(dps_core::serial::to_bytes(
            dps_core::downcast::<Out>(token).unwrap().as_ref(),
        ));
    }
    fn fail(&mut self, _app: u32, e: DpsError) {
        self.errors.push(e);
    }
    fn report(&mut self, _lane: &mut usize, _iters: u64) {}
    /// Thread `t` records on track `(t, 0)`, a node `n` on `(n, 0)`; every
    /// stamp is the step count.
    fn trace<R>(&self, on: On<'_, usize>, f: impl FnOnce(Rec<'_>) -> R) -> Option<R> {
        let mut tracer = self.tracer.borrow_mut();
        let (tracer, now) = (tracer.as_mut()?, self.clock);
        Some(f(match on {
            On::Lane(thread) => Rec::at(tracer, (*thread as u16, 0), now).op(now, now),
            On::Node(node) => Rec::at(tracer, (node as u16, 0), now),
        }))
    }
    fn opened(&mut self, _lane: &mut usize, _at: At) -> u64 {
        self.ids += 1;
        self.ids
    }
    fn wave_done(&mut self, thread: &mut usize, at: At, key: &WaveKey) {
        self.lanes[lane(at.app, *thread)].waves.remove(key);
        self.completed.push(key.clone());
    }
}

impl Fake {
    fn new(shape: Shape, window: u32, seed: u64) -> Self {
        let decls = declare(shape);
        let apps = decls.apps();
        Fake {
            routes: apps
                .iter()
                .map(|a| a.graphs[0].nodes().iter().map(|n| n.make_route()).collect())
                .collect(),
            pins: apps.iter().map(|_| RefCell::default()).collect(),
            flows: apps.iter().map(|_| RefCell::default()).collect(),
            queues: (0..THREADS).map(|_| VecDeque::new()).collect(),
            lanes: (0..2 * THREADS).map(|_| Instances::default()).collect(),
            dead: vec![false; THREADS],
            dies_in_route: None,
            window,
            ids: 0,
            calls: HashMap::new(),
            outputs: Vec::new(),
            errors: Vec::new(),
            rng: dps_des::SplitMix64::new(seed),
            completed: Vec::new(),
            peak_outstanding: 0,
            clock: 0,
            tracer: RefCell::new(None),
            out: OpOutput::default(),
            reporters: Vec::new(),
            lost: Arc::default(),
            decls,
        }
    }

    /// Record the events of the rest of the run.
    fn traced(&mut self) -> Arc<TraceCollector> {
        let sink = TraceCollector::new();
        *self.tracer.get_mut() = Some(Tracer::new(sink.clone(), (0, 0)));
        sink
    }

    fn inject(&mut self, n: u32) {
        let entry = At {
            app: 0,
            graph: 0,
            node: self.main().entry(),
        };
        kernel::deliver(self, entry, 0, Box::new(In { n }), Envelope::root());
    }

    /// Run the head of one non-empty queue; `false` once all are empty.
    fn step(&mut self) -> bool {
        let ready: Vec<usize> = (0..THREADS)
            .filter(|&t| !self.queues[t].is_empty())
            .collect();
        if ready.is_empty() {
            return false;
        }
        let thread = ready[(self.rng.next_u64() % ready.len() as u64) as usize];
        let (at, what, env, sent) = self.queues[thread].pop_front().unwrap();
        self.clock += 1;
        if let Arrival::Token(token) = &what {
            kernel::taken(self, &mut { thread }, token.as_ref(), &env, sent);
        }
        if let Err(e) = self.run(thread, at, what, env) {
            self.errors.push(e);
        }
        true
    }

    fn run(&mut self, thread: usize, at: At, what: Arrival, env: Envelope) -> Result<()> {
        let info = info(thread);
        let inst = &mut self.lanes[lane(at.app, thread)];
        let out_wave = || {
            self.ids += 1;
            self.ids
        };
        match kernel::serve(&self.decls, inst, at, what, env, out_wave)? {
            Serve::Run(ready, then) => {
                // One buffer for every run, as on the engines.
                let mut out = std::mem::take(&mut self.out);
                ready.run(&mut (), info, &mut out)?;
                let posts = out.posts.drain(..).map(|p| p.token);
                let applied = kernel::then(self, &mut { thread }, then, thread as u32, posts, None);
                self.out = out;
                applied.map(drop)
            }
            Serve::Call(at, env, token) => {
                let (entry, callee_env) = kernel::call(self, at, env)?;
                kernel::deliver(self, entry, thread as u32, token, callee_env);
                Ok(())
            }
            Serve::Wait => Ok(()),
        }
    }

    /// Kill cluster node `node` the way the engines do: the kernel takes its
    /// threads' instances and queue. The first kill wins.
    fn kill(&mut self, node: usize) {
        if std::mem::replace(&mut self.dead[node], true) {
            return;
        }
        let mut take = |app| std::mem::take(&mut self.lanes[lane(app, node)]);
        let lanes = vec![(0, node as u32, take(0)), (1, node as u32, take(1))];
        let queued = self.queues[node].drain(..);
        let stranded = queued.map(|(at, what, env, _)| (at, what, env)).collect();
        let (sink, reporters) = (self.lost.clone(), self.reporters.clone());
        let died = Death::Node(node as u32, Some((&*sink, &reporters[..])));
        kernel::bury(self, died, lanes, stranded, node as u32);
    }

    /// The graph of application 0.
    fn main(&self) -> &Flowgraph {
        self.decls.def(0, 0)
    }

    /// The merge of application 0.
    fn merge(&self) -> &dps_core::GraphNode {
        let is_merge = |n: &&dps_core::GraphNode| n.kind == OpKind::Merge;
        self.main().nodes().iter().find(is_merge).unwrap()
    }

    /// The thread the (one) live merge wave of application 0 is consuming
    /// on and how many tokens it has consumed there, or the thread a first
    /// token for it is queued on.
    fn merge_wave(&self) -> Option<(usize, u32)> {
        let merge = self.merge();
        let consuming = self.lanes.iter().enumerate().find_map(|(t, lane)| {
            let wave = lane.waves.values().find(|w| w.node == merge.id)?;
            Some((t, wave.received()))
        });
        let queued = || {
            let is_merge = |(at, ..): &Queued| at.app == 0 && at.node == merge.id;
            let holds = |q: &VecDeque<_>| q.iter().any(is_merge);
            Some((self.queues.iter().position(holds)?, 0))
        };
        consuming.or_else(queued)
    }
}

/// A leaf that comes back with other than one post, or a completed merge
/// with none — a remote host is only as good as the process that answered —
/// is a contract error on any substrate.
#[test]
fn a_miscounted_reply_is_a_contract_error() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let at = |node| At {
        app: 0,
        graph: 0,
        node,
    };
    let is_leaf = |n: &&dps_core::GraphNode| n.kind == OpKind::Leaf;
    let leaf = at(fake.main().nodes().iter().find(is_leaf).unwrap().id);
    let (split, merge) = (fake.main().entry(), at(fake.merge().id));
    let post = || Box::new(Mid { i: 0 }) as TokenBox;
    for posts in [vec![], vec![post(), post()]] {
        let n = posts.len();
        let exec = Then::Exec {
            at: leaf,
            env: Envelope::root(),
        };
        let e = kernel::then(&mut fake, &mut 0, exec, 0, posts, None).unwrap_err();
        assert!(
            e.to_string().contains(&format!("returned {n} posts")),
            "{e}"
        );
    }
    let mut env = Envelope::root();
    env.push(Frame {
        src: split,
        wave: 1,
        index: 0,
        total: Some(1),
    });
    let last = Arrival::Token(post());
    let mut lane = Instances::default();
    let served = kernel::serve(&fake.decls, &mut lane, merge, last, env, || 0).unwrap();
    let Serve::Run(
        kernel::Ready {
            token: Some(_),
            completes: true,
            ..
        },
        then,
    ) = served
    else {
        panic!("the wave's one token completes it");
    };
    let e = kernel::then(&mut fake, &mut 0, then, 0, vec![], None).unwrap_err();
    assert!(e.to_string().contains("completed without an output"), "{e}");
}

// ---------------------------------------------------------------------------
// What an arrival calls for: `serve`, with no substrate at all
// ---------------------------------------------------------------------------

/// Run `ready` here, into a fresh buffer, and hand back what it posted.
fn posts_of(ready: kernel::Ready<'_>, thread: usize) -> Result<Vec<Post>> {
    let mut out = OpOutput::default();
    ready.run(&mut (), info(thread), &mut out)?;
    Ok(out.posts)
}

/// The node of application 0 of `kind`, as an engine hands it to `serve`.
fn node_of(d: &Decls, kind: OpKind) -> At {
    let node = d.def(0, 0).nodes().iter().find(|n| n.kind == kind);
    At {
        app: 0,
        graph: 0,
        node: node.unwrap().id,
    }
}

/// The envelope of post `index` of wave `wave` of application 0's split,
/// carrying the wave's total if it is the last one posted.
fn in_wave(d: &Decls, wave: u64, index: u32, total: Option<u32>) -> Envelope {
    let mut env = Envelope::root();
    env.push(Frame {
        src: d.def(0, 0).entry(),
        wave,
        index,
        total,
    });
    env
}

fn arrival(i: u32) -> Arrival {
    Arrival::Token(Box::new(Mid { i }))
}

fn info(thread: usize) -> ExecInfo {
    ExecInfo {
        thread_index: thread,
        thread_count: THREADS,
        node_flops: 1e9,
        start_nanos: 0,
    }
}

/// An arrival that enters no wave must not ask for an output wave id.
fn no_wave() -> u64 {
    panic!("this arrival enters no wave")
}

/// A split token runs the split's instance where it arrived, and its posts
/// go on under the same node and envelope; no wave is entered here.
#[test]
fn serve_runs_a_split_token_where_it_arrived() {
    let d = declare(Shape::Leaf);
    let split = node_of(&d, OpKind::Split);
    let mut inst = Instances::default();
    let what = Arrival::Token(Box::new(In { n: 3 }));
    let served = kernel::serve(&d, &mut inst, split, what, Envelope::root(), no_wave).unwrap();
    let Serve::Run(ready, Then::Exec { at, env }) = served else {
        panic!("a split token runs the split");
    };
    assert_eq!((at, env), (split, Envelope::root()));
    assert!(ready.token.is_some() && !ready.completes);
    assert_eq!(posts_of(ready, 0).unwrap().len(), 3);
    assert!(inst.waves.is_empty());
}

/// Rule 1 through `serve`: the first arrival of a wave enters its record
/// and asks for the output wave id, once; every arrival is counted in, and
/// the one that makes the count whole completes the wave.
#[test]
fn serve_enters_a_wave_once_and_counts_every_arrival() {
    let d = declare(Shape::Leaf);
    let merge = node_of(&d, OpKind::Merge);
    let key = in_wave(&d, 1, 0, None).wave_key().unwrap();
    let mut inst = Instances::default();
    let mut asked = 0;
    for index in 0..3 {
        let env = in_wave(&d, 1, index, (index == 2).then_some(3));
        let out_wave = || {
            asked += 1;
            40 + asked
        };
        let served = kernel::serve(&d, &mut inst, merge, arrival(index), env, out_wave).unwrap();
        let Serve::Run(ready, Then::Wave { .. }) = served else {
            panic!("a merge token runs a step of its wave");
        };
        assert!(ready.token.is_some());
        assert_eq!(ready.completes, index == 2, "the last of 3 completes");
        let posts = posts_of(ready, 0).unwrap();
        assert_eq!(posts.len(), (index == 2) as usize, "the finalize posts");
        let wave = &inst.waves[&key];
        assert_eq!((wave.received(), wave.out_wave), (index + 1, 41));
    }
    assert_eq!(asked, 1, "the output wave id is asked for on entry only");
    assert_eq!(inst.waves.len(), 1);
}

/// Each wave at a stream has its own record, instance and output wave id,
/// however the arrivals of two waves interleave.
#[test]
fn interleaved_waves_keep_their_own_records() {
    let d = declare(Shape::Stream);
    let stream = node_of(&d, OpKind::Stream);
    let mut inst = Instances::default();
    let mut ids = 10..;
    for (wave, index) in [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)] {
        let env = in_wave(&d, wave, index, None);
        let out_wave = || ids.next().unwrap();
        let served = kernel::serve(&d, &mut inst, stream, arrival(index), env, out_wave).unwrap();
        let Serve::Run(ready, Then::Wave { .. }) = served else {
            panic!("a stream token runs a step of its wave");
        };
        assert!(!ready.completes, "no total has arrived");
        let posts = posts_of(ready, 0).unwrap();
        assert_eq!(posts.len(), 1, "the relay posts what it consumed");
    }
    let wave = |w| &inst.waves[&in_wave(&d, w, 0, None).wave_key().unwrap()];
    assert_eq!((wave(1).received(), wave(1).out_wave), (3, 10));
    assert_eq!((wave(2).received(), wave(2).out_wave), (2, 11));
    assert_eq!(inst.waves.len(), 2);
}

/// A close that finds tokens still missing waits; the wave now knows its
/// total, so the last token completes it.
#[test]
fn a_close_with_tokens_missing_waits() {
    let d = declare(Shape::Leaf);
    let merge = node_of(&d, OpKind::Merge);
    let mut inst = Instances::default();
    let env = || in_wave(&d, 1, 0, None);
    let served = kernel::serve(&d, &mut inst, merge, arrival(0), env(), || 0).unwrap();
    let Serve::Run(ready, _) = served else {
        panic!("the first token runs");
    };
    posts_of(ready, 0).unwrap();
    let close = Arrival::Close(2);
    let served = kernel::serve(&d, &mut inst, merge, close, env(), no_wave).unwrap();
    assert!(
        matches!(served, Serve::Wait),
        "one of two tokens is missing"
    );
    let wave = inst.waves.values().next().unwrap();
    assert_eq!((wave.received(), wave.expected()), (1, Some(2)));

    let last = in_wave(&d, 1, 1, None);
    let served = kernel::serve(&d, &mut inst, merge, arrival(1), last, no_wave).unwrap();
    let Serve::Run(ready, Then::Wave { .. }) = served else {
        panic!("the last token runs");
    };
    assert!(ready.completes, "the close's total is counted against it");
}

/// A close after every token runs the finalize alone, on the instance that
/// consumed the wave (rule 7).
#[test]
fn a_close_after_the_last_token_runs_the_finalize_alone() {
    let d = declare(Shape::Leaf);
    let merge = node_of(&d, OpKind::Merge);
    let mut inst = Instances::default();
    for index in 0..2 {
        let env = in_wave(&d, 1, index, None);
        let served = kernel::serve(&d, &mut inst, merge, arrival(index), env, || 0).unwrap();
        let Serve::Run(ready, _) = served else {
            panic!("a token runs");
        };
        assert!(!ready.completes, "no total yet");
        posts_of(ready, 0).unwrap();
    }
    let close = Arrival::Close(2);
    let env = in_wave(&d, 1, 0, None);
    let served = kernel::serve(&d, &mut inst, merge, close, env, no_wave).unwrap();
    let Serve::Run(ready, Then::Wave { .. }) = served else {
        panic!("a close after every token completes the wave");
    };
    assert!(ready.token.is_none() && ready.completes);
    let mut posts = posts_of(ready, 0).unwrap();
    assert_eq!(posts.len(), 1);
    let out = dps_core::downcast::<Out>(posts.pop().unwrap().token).unwrap();
    assert_eq!(out.n, 2, "the finalize saw both consumes");
}

/// A `Then` crosses the wire whole: a split's, and a wave step's — whose key
/// goes as its parent envelope under the wave's source and id — come back
/// equal, and tell the same about the wave they completed and the arrival
/// they served.
#[test]
fn a_then_crosses_the_wire_whole() {
    use dps_serial::Wire;
    let d = declare(Shape::Leaf);
    let (split, merge) = (node_of(&d, OpKind::Split), node_of(&d, OpKind::Merge));
    let mut inst = Instances::default();
    let mut thens = Vec::new();
    let what = Arrival::Token(Box::new(In { n: 1 }));
    let served = kernel::serve(&d, &mut inst, split, what, Envelope::root(), no_wave).unwrap();
    let Serve::Run(ready, then) = served else {
        panic!("a split token runs the split");
    };
    posts_of(ready, 0).unwrap();
    thens.push(then);
    // Under an outer wave, inside a call.
    let nested = |index, total| {
        let mut env = Envelope::root();
        env.calls.push(CallFrame {
            caller_app: 1,
            caller_graph: 0,
            call_node: GNodeId(4),
            call_id: 12,
        });
        env.push(Frame {
            src: GNodeId(9),
            wave: 3,
            index: 2,
            total: None,
        });
        env.push(in_wave(&d, 7, index, total).frames[0]);
        env
    };
    for (what, env) in [
        (arrival(0), nested(0, None)),
        (arrival(1), nested(1, None)),
        (Arrival::Close(2), nested(0, None)),
    ] {
        let served = kernel::serve(&d, &mut inst, merge, what, env, || 5).unwrap();
        let Serve::Run(ready, then) = served else {
            panic!("a merge arrival runs a step of its wave");
        };
        posts_of(ready, 0).unwrap();
        thens.push(then);
    }
    let key = nested(0, None).wave_key().unwrap();
    let told: Vec<(bool, Option<&WaveKey>)> = (thens.iter())
        .map(|t| (t.took_token(), t.completed()))
        .collect();
    assert_eq!(
        told,
        [
            (true, None),
            (true, None),
            (true, None),
            (false, Some(&key))
        ]
    );
    for then in &thens {
        let bytes = dps_serial::to_bytes(then);
        assert_eq!(bytes.len(), then.wire_size());
        let back: Then = dps_serial::from_bytes(&bytes).unwrap();
        assert_eq!(&back, then);
        assert_eq!(back.completed(), then.completed());
    }
}

/// A close whose total is below what already arrived is a contract error,
/// and nothing runs.
#[test]
fn a_close_below_what_arrived_is_refused_by_serve() {
    let d = declare(Shape::Leaf);
    let merge = node_of(&d, OpKind::Merge);
    let mut inst = Instances::default();
    for index in 0..2 {
        let env = in_wave(&d, 1, index, None);
        kernel::serve(&d, &mut inst, merge, arrival(index), env, || 0).unwrap();
    }
    let env = in_wave(&d, 1, 0, None);
    let refused = kernel::serve(&d, &mut inst, merge, Arrival::Close(1), env, no_wave);
    let Err(e) = refused else {
        panic!("a close of 1 after 2 tokens must be refused");
    };
    assert!(matches!(e, DpsError::OperationContract { .. }), "{e}");
    assert!(e.to_string().contains("producer posted 1"), "{e}");
}

/// A call node's token is handed back to the engine as it came, to make
/// the call when it chooses; the thread's instances are not touched.
#[test]
fn serve_hands_a_call_token_to_the_engine() {
    let d = declare(Shape::Call);
    let call = node_of(&d, OpKind::Call);
    let mut inst = Instances::default();
    let env = in_wave(&d, 1, 4, None);
    let served = kernel::serve(&d, &mut inst, call, arrival(5), env.clone(), no_wave).unwrap();
    let Serve::Call(at, handed, token) = served else {
        panic!("a call node's token makes a call");
    };
    assert_eq!((at, handed), (call, env));
    assert_eq!(dps_core::downcast::<Mid>(token).unwrap().i, 5);
    assert!(inst.waves.is_empty());
}

/// `then` of a leaf: its one post moves on to the merge, under the
/// envelope the leaf ran under.
#[test]
fn then_moves_a_leaf_post_on_to_its_successor() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let leaf = node_of(&fake.decls, OpKind::Leaf);
    let merge = fake.merge().id;
    let env = in_wave(&fake.decls, 1, 0, Some(1));
    let post = Box::new(Mid { i: 7 }) as TokenBox;
    let exec = Then::Exec {
        at: leaf,
        env: env.clone(),
    };
    let flow = kernel::then(&mut fake, &mut 0, exec, 0, vec![post], None).unwrap();
    assert!(flow.is_none(), "a leaf opens no flow");
    let queued: Vec<&Queued> = fake.queues.iter().flatten().collect();
    let [(at, Arrival::Token(_), moved, _)] = queued[..] else {
        panic!("one token queued, got {}", queued.len());
    };
    assert_eq!((at.node, moved), (merge, &env));
}

/// `then` of a split: its posts open a wave behind the flow window, and
/// the key of that flow is returned.
#[test]
fn then_of_a_split_opens_a_flow_behind_the_window() {
    let mut fake = Fake::new(Shape::Leaf, 2, 0);
    let split = node_of(&fake.decls, OpKind::Split);
    let posts: Vec<TokenBox> = (0..5).map(|i| Box::new(Mid { i }) as TokenBox).collect();
    let exec = Then::Exec {
        at: split,
        env: Envelope::root(),
    };
    let key = kernel::then(&mut fake, &mut 0, exec, 0, posts, None).unwrap();
    let (src, wave) = key.expect("a split opens a flow");
    assert_eq!(src, split.node.0);
    let mut released: Vec<_> = (fake.queues.iter().flatten())
        .map(|(_, _, env, _)| *env.top().unwrap())
        .collect();
    released.sort_by_key(|frame| frame.index);
    let frame = |index| Frame {
        src: split.node,
        wave,
        index,
        total: None,
    };
    assert_eq!(released, [frame(0), frame(1)], "a window of 2 lets two out");
    assert_eq!(fake.flows[0].borrow()[&(src, wave)].pending(), 3);
}

proptest! {
    /// Whatever order the queues run in, under any flow window: the same
    /// outputs, every wave completed once, nothing left in any table, and
    /// never more posts outstanding than the window admits.
    #[test]
    fn every_delivery_order_yields_the_same_outputs(
        shape in prop_oneof![Just(Shape::Leaf), Just(Shape::Stream), Just(Shape::Call)],
        window in prop_oneof![Just(0u32), Just(1u32), Just(3u32)],
        sizes in proptest::collection::vec(1u32..7, 1..4),
        seed in any::<u64>(),
    ) {
        let run = |seed: u64| {
            let mut fake = Fake::new(shape, window, seed);
            for &n in &sizes {
                fake.inject(n);
            }
            while fake.step() {}
            fake
        };
        let (mut fake, mut reference) = (run(seed), run(0));
        prop_assert!(fake.errors.is_empty(), "{:?}", fake.errors);
        fake.outputs.sort();
        reference.outputs.sort();
        prop_assert_eq!(fake.outputs.len(), sizes.len());
        prop_assert_eq!(&fake.outputs, &reference.outputs);

        // One wave per split, and one more per stream.
        let waves = sizes.len() * if matches!(shape, Shape::Stream) { 2 } else { 1 };
        prop_assert_eq!(fake.completed.len(), waves);
        fake.completed.sort_by_key(|k| (k.wave, k.src));
        fake.completed.dedup();
        prop_assert_eq!(fake.completed.len(), waves, "a wave completed twice");

        prop_assert!(fake.lanes.iter().all(|lane| lane.waves.is_empty()));
        prop_assert!(fake.pins.iter().all(|pins| pins.borrow().is_empty()));
        prop_assert!(fake.flows.iter().all(|flows| flows.borrow().is_empty()));
        if window > 0 {
            prop_assert!(fake.peak_outstanding <= window, "{} > {window}", fake.peak_outstanding);
        }
    }

    /// Rule 6 through the driver. A node killed while the merge wave has
    /// consumed nothing on it: the wave moves and the run completes. Killed
    /// after a consume: `NodeDown`, naming that node and the merge.
    #[test]
    fn a_kill_moves_a_fresh_wave_and_loses_a_consumed_one(
        shape in prop_oneof![Just(Shape::Leaf), Just(Shape::Stream), Just(Shape::Call)],
        consumed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        const N: u32 = 5;
        let mut fake = Fake::new(shape, 0, seed);
        fake.inject(N);
        let victim = loop {
            match fake.merge_wave() {
                Some((thread, received)) if received >= consumed as u32 => break thread,
                _ => prop_assert!(fake.step(), "the merge wave never showed up"),
            }
        };
        // Thread 0 also runs the split; its queue is re-routed like any other.
        fake.kill(victim);
        while fake.step() {}
        if consumed {
            let down = DpsError::NodeDown {
                node: format!("node{victim}"),
                target: fake.merge().name.clone(),
            };
            prop_assert!(fake.errors.contains(&down), "{:?}", fake.errors);
            prop_assert!(fake.outputs.is_empty());
        } else {
            prop_assert!(fake.errors.is_empty(), "{:?}", fake.errors);
            prop_assert_eq!(&fake.outputs, &[dps_core::serial::to_bytes(&Out { n: N })]);
        }
    }
}

/// The merge of application 0 as a delivery target, and the envelope of
/// token `index` of a wave of the split's that was opened by hand.
fn merge_wave_by_hand(fake: &Fake) -> (At, impl Fn(u32, Option<u32>) -> Envelope) {
    let (split, merge) = (fake.main().entry(), fake.merge().id);
    let at = At {
        app: 0,
        graph: 0,
        node: merge,
    };
    let env = move |index, total| {
        let mut env = Envelope::root();
        env.push(Frame {
            src: split,
            wave: 77,
            index,
            total,
        });
        env
    };
    (at, env)
}

fn mid() -> TokenBox {
    Box::new(Mid { i: 0 })
}

/// Rule 1's parking through the driver: a total that waited for its wave
/// rides on the token that pins it, on that token's own frame — one message,
/// not a close sent ahead of the token.
#[test]
fn a_parked_total_rides_on_the_token_that_pins_the_wave() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let (merge, env) = merge_wave_by_hand(&fake);
    kernel::close(&mut fake, 0, 0, env(0, Some(3)), 3);
    assert!(fake.queues.iter().all(VecDeque::is_empty), "parked");
    kernel::deliver(&mut fake, merge, 0, mid(), env(0, None));
    let queued: Vec<_> = fake.queues.iter().flatten().collect();
    assert_eq!(queued.len(), 1, "the token alone");
    let (at, what, env, _) = queued[0];
    assert!(*at == merge && matches!(what, Arrival::Token(_)));
    assert_eq!(env.top().unwrap().total, Some(3));
    assert!(fake.errors.is_empty(), "{:?}", fake.errors);
}

/// Rule 6, the loss of a wave that has only heard its close. FIFO queues
/// never produce it by stepping (a close is sent behind the wave's first
/// token); the simulator, whose close lands at once while tokens travel,
/// does. The close is counted into thread 1's record while the wave's two
/// tokens are still in flight, then node 1 dies: the record is gone, the
/// total is parked again, the next token re-pins the wave on a live thread
/// and takes the total along, and the wave completes there.
#[test]
fn a_wave_that_only_heard_its_close_survives_its_node() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let (merge, env) = merge_wave_by_hand(&fake);
    let key = env(0, None).wave_key().unwrap();
    let pinned = fake.pins(0, 0, |pins| pins.route(&key, 1, |_| true));
    assert_eq!(pinned, Routed::Pinned { parked: None });
    let close = Arrival::Close(2);
    let thread1 = &mut fake.lanes[lane(0, 1)];
    let heard = kernel::serve(&fake.decls, thread1, merge, close, env(0, Some(2)), || 9);
    assert!(matches!(heard, Ok(Serve::Wait)), "two tokens missing");

    fake.kill(1);
    assert!(fake.lanes[1].waves.is_empty());
    assert!(fake.errors.is_empty(), "{:?}", fake.errors);
    assert!(fake.queues.iter().all(VecDeque::is_empty), "parked");

    kernel::deliver(&mut fake, merge, 0, mid(), env(0, None));
    let home = fake.queues.iter().position(|q| !q.is_empty()).unwrap();
    assert_ne!(home, 1, "re-pinned on a live thread");
    assert_eq!(fake.queues[home][0].2.top().unwrap().total, Some(2));
    kernel::deliver(&mut fake, merge, 0, mid(), env(1, None));
    assert_eq!(fake.queues[home].len(), 2, "the second token follows");
    while fake.step() {}
    assert!(fake.errors.is_empty(), "{:?}", fake.errors);
    assert_eq!(fake.outputs, [dps_core::serial::to_bytes(&Out { n: 2 })]);
    assert!(fake.lanes.iter().all(|lane| lane.waves.is_empty()));
    assert!(fake.pins[0].borrow().is_empty());
}

/// `deliver` routes on a load snapshot. A node that dies after the snapshot
/// was taken and before the destination is checked — inside the `route` hook
/// here — is routed around on a second snapshot: a leaf token lands on a
/// live thread, a merge token re-pins its wave there, and no error is raised.
/// A route that insists on the dead thread still fails the run `NodeDown`.
#[test]
fn a_node_that_dies_under_the_load_snapshot_is_routed_around() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let (merge, env) = merge_wave_by_hand(&fake);
    let is_leaf = |n: &&dps_core::GraphNode| n.kind == OpKind::Leaf;
    let leaf = At {
        node: fake.main().nodes().iter().find(is_leaf).unwrap().id,
        ..merge
    };
    // With nothing queued the least loaded thread is 0, then 1.
    fake.dies_in_route = Some(0);
    kernel::deliver(&mut fake, leaf, 2, mid(), env(0, None));
    assert!(fake.dead[0] && fake.errors.is_empty(), "{:?}", fake.errors);
    let depths = |fake: &Fake| fake.queues.iter().map(VecDeque::len).collect::<Vec<_>>();
    assert_eq!(depths(&fake), [0, 1, 0]);

    fake.dies_in_route = Some(2);
    fake.queues[1].clear();
    let queued = || (leaf, Arrival::Token(mid()), env(0, None), None);
    fake.queues[1].push_back(queued());
    fake.queues[1].push_back(queued());
    // Thread 2 is the least loaded live one until it dies under the route.
    kernel::deliver(&mut fake, merge, 1, mid(), env(0, None));
    assert!(fake.dead[2] && fake.errors.is_empty(), "{:?}", fake.errors);
    assert_eq!(depths(&fake), [0, 3, 0]);
    kernel::deliver(&mut fake, merge, 1, mid(), env(1, Some(2)));
    assert_eq!(fake.queues[1].len(), 4, "the wave is pinned where it moved");

    // The split's route is `ToThread(0)`, whatever the snapshot says.
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    fake.dies_in_route = Some(0);
    fake.inject(1);
    let down = DpsError::NodeDown {
        node: "node0".into(),
        target: fake.main().node(fake.main().entry()).name.clone(),
    };
    assert_eq!(fake.errors, [down]);
    assert!(fake.queues.iter().all(VecDeque::is_empty));
}

/// The driver records the life of a token, an operation and a wave itself:
/// every event of one leaf wave, in order — `at node.thread kind label wave
/// [flow]`, stamped with the step that recorded it.
/// Every event of `log`, one line each: `at node.thread kind` and then, for
/// a lifecycle event, `label wave [flow]`; for a kill's, its numbers.
fn recorded(log: &TraceLog) -> Vec<String> {
    let lifecycle = |kind, label, wave, flow: Option<u64>| {
        let flow = flow.map_or(String::new(), |f| format!(" {f}"));
        format!("{kind} {} {wave}{flow}", log.label(label))
    };
    let line = |e: &dps_obs::TraceEvent| {
        use EventKind::*;
        let what = match e.kind {
            OpStart { op, wave } => lifecycle("OpStart", op, wave, None),
            OpEnd { op, wave } => lifecycle("OpEnd", op, wave, None),
            WaveStart { graph, wave } => lifecycle("WaveStart", graph, wave, None),
            WaveEnd { graph, wave } => lifecycle("WaveEnd", graph, wave, None),
            TokenEnqueue { token, wave, flow } => {
                lifecycle("TokenEnqueue", token, wave, Some(flow))
            }
            TokenDeliver { token, wave, flow } => {
                lifecycle("TokenDeliver", token, wave, Some(flow))
            }
            NodeDown { node } => format!("NodeDown {node}"),
            Requeue { tokens } => format!("Requeue {tokens}"),
            Fault { code, detail } => format!("Fault {code} {detail}"),
            other => panic!("not an event the kernel records: {other:?}"),
        };
        format!("{} {}.{} {what}", e.at, e.node, e.thread)
    };
    log.events.iter().map(line).collect()
}

#[test]
fn one_wave_is_recorded_by_the_kernel() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let sink = fake.traced();
    fake.inject(2);
    while fake.step() {}
    assert!(fake.errors.is_empty(), "{:?}", fake.errors);
    let got = recorded(&sink.take_log());
    let want = [
        // The injected token; the split opens wave 1 at its own start.
        "0 0.0 TokenEnqueue In 0 0",
        "1 0.0 TokenDeliver In 0 0",
        "1 0.0 OpStart Fan 0",
        "1 0.0 OpEnd Fan 0",
        "1 0.0 WaveStart main 1",
        "1 0.0 TokenEnqueue Mid 1 1",
        "1 0.0 TokenEnqueue Mid 1 2",
        // The two leaves, on threads 0 and 1.
        "2 0.0 TokenDeliver Mid 1 1",
        "2 0.0 OpStart Inc 1",
        "2 0.0 OpEnd Inc 1",
        "2 0.0 TokenEnqueue Mid 1 3",
        "3 1.0 TokenDeliver Mid 1 2",
        "3 1.0 OpStart Inc 1",
        "3 1.0 OpEnd Inc 1",
        "3 1.0 TokenEnqueue Mid 1 4",
        // The merge; the consume that completes the wave closes it.
        "4 0.0 TokenDeliver Mid 1 3",
        "4 0.0 OpStart Count 1",
        "4 0.0 OpEnd Count 1",
        "5 0.0 TokenDeliver Mid 1 4",
        "5 0.0 OpStart Count 1",
        "5 0.0 OpEnd Count 1",
        "5 0.0 WaveEnd main 1",
    ];
    assert_eq!(got, want);
}

/// A kill through the driver, event by event: `NodeDown`, one `Requeue` of
/// the stranded tokens and the `Fault` breadcrumb repeating their count;
/// then the tokens go back to the router ahead of the close queued before
/// them, so the wave re-pins where its first token went and the close
/// follows it there. A token stranded on the dead node later is one more
/// `Requeue`, with no second `NodeDown` or `Fault`; a second kill records
/// nothing.
#[test]
fn one_kill_is_recorded_by_the_kernel() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    let sink = fake.traced();
    let (merge, env) = merge_wave_by_hand(&fake);
    let key = env(0, None).wave_key().unwrap();
    fake.pins(0, 0, |pins| pins.route(&key, 1, |_| true));
    let queued = |what, env| (merge, what, env, None);
    fake.queues[1].extend([
        queued(Arrival::Close(3), env(0, Some(3))),
        queued(Arrival::Token(mid()), env(0, None)),
        queued(Arrival::Token(mid()), env(1, None)),
    ]);
    fake.kill(1);
    fake.kill(1);
    let tokens = |q: &VecDeque<Queued>| {
        let is_token = |(_, what, ..): &Queued| matches!(what, Arrival::Token(_));
        q.iter().map(is_token).collect::<Vec<_>>()
    };
    assert_eq!(tokens(&fake.queues[0]), [true, true, false]);
    assert!(fake.queues[1].is_empty() && fake.queues[2].is_empty());

    // The wave's third token lands on node 1's thread (on the simulator:
    // one that was in flight there when the node died).
    let node = fake.main().succs(fake.main().entry())[0];
    let leaf = At { node, ..merge };
    let late = vec![(leaf, Arrival::Token(mid()), env(2, None))];
    fake.clock = 1;
    kernel::bury(&mut fake, Death::Lane(&mut 1), Vec::new(), late, 1);
    let want = [
        "0 1.0 NodeDown 1",
        "0 1.0 Requeue 2",
        "0 1.0 Fault 1 2",
        "0 1.0 TokenEnqueue Mid 77 0",
        "0 1.0 TokenEnqueue Mid 77 1",
        "1 1.0 Requeue 1",
        "1 1.0 TokenEnqueue Mid 77 2",
    ];
    assert_eq!(recorded(&sink.take_log()), want);
    let metrics = sink.metrics();
    let counted = [Counter::NodesDown, Counter::Requeues].map(|c| metrics.get(c));
    assert_eq!(counted, [1, 3]);

    while fake.step() {}
    assert!(fake.errors.is_empty(), "{:?}", fake.errors);
    assert_eq!(fake.outputs, [dps_core::serial::to_bytes(&Out { n: 3 })]);
}

/// Rule 8 through a kill: only collections that reported to the sink
/// translate a dead node into worker indices, each index once, in the order
/// the collections reported; a node is told the sink once.
#[test]
fn lost_workers_come_from_reporting_collections_only() {
    let mut fake = Fake::new(Shape::Leaf, 0, 0);
    // Beside collection 0 (thread t on node t): collection 1 on nodes
    // 1,2,1, collection 2 on 2,2, collection 3 on 1.
    for mapping in ["node1 node2 node1", "node2 node2", "node1"] {
        let app = AppHandle { app: 0 };
        fake.decls.thread_collection::<()>(app, mapping).unwrap();
    }
    for tc in [1, 2, 1] {
        kernel::note_reporter(&mut fake.reporters, 0, tc);
    }
    assert_eq!(fake.reporters, [(0, 1), (0, 2)]);
    let lost = |fake: &Fake| fake.lost.0.lock().unwrap().clone();
    // Node 0 hosts thread 0 of collection 0 alone, which never reported.
    fake.kill(0);
    assert!(lost(&fake).is_empty());
    fake.kill(2);
    assert_eq!(lost(&fake), [1, 0]);
    fake.kill(1);
    fake.kill(1);
    assert_eq!(lost(&fake), [1, 0, 0, 2]);
}
