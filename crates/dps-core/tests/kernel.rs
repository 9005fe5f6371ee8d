//! The rules of a wave (`dps_core::internal::kernel`), driven with no
//! engine: no queue, no clock, no thread. Whatever an engine does around
//! these calls, this is what the wave does.

use dps_core::internal::kernel::{
    self, CallReturn, CloseTo, Exit, Flow, Instances, Pins, Routed, Wave,
};
use dps_core::prelude::*;
use dps_core::{Envelope, Flowgraph, Frame, GNodeId, ThreadCollection, WaveKey};
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
        prop_assert!(wave.is_fresh());
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
            prop_assert!(!wave.is_fresh());
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
        let mut wave = Wave::new(0, STREAM, 77);
        let mut flow: Flow<u32> = Flow::stream();
        let mut released = Vec::new();
        let mut next = 0u32;
        for &(posts, drain) in &steps {
            let ids: Vec<u32> = (next..next + posts).collect();
            next += posts;
            let close = wave.append(&mut flow, stream, &parent, ids, false).unwrap();
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
        let close = wave.append(&mut flow, stream, &parent, ids, true);
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
        let mut flow = kernel::open_wave(&def, SPLIT, 9, &Envelope::root(), 0..n);
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
        let mut exit = kernel::open_wave(&serving(), SPLIT, 1, &Envelope::root(), 0..n);
        let mut unlimited = kernel::open_wave(&pipeline(), SPLIT, 1, &Envelope::root(), 0..n);
        for i in 0..n {
            prop_assert_eq!(exit.pop(window).map(|(id, _)| id), Some(i));
            prop_assert_eq!(unlimited.pop(0).map(|(id, _)| id), Some(i));
        }
        prop_assert_eq!(exit.outstanding() as usize, n);
        prop_assert!(exit.is_flushed() && !exit.is_drained());
    }

    /// (d) Rule 6, the table. `alive`/`fresh` are what the engine observes.
    #[test]
    fn the_pin_and_close_rule_table(pinned in 0u32..8, routed in 0u32..8, total in 1u32..99) {
        let k = key(4);
        let up = |_: u32| true;
        let down = |_: u32| false;
        let unasked = || -> bool { panic!("freshness only matters for a dead pin") };
        let pin = || {
            let mut pins = Pins::default();
            let first = pins.route(&k, pinned, up, unasked);
            assert_eq!(first, Ok(Routed::Pinned { parked: None }), "first-routed pins");
            pins
        };

        // Token rows.
        prop_assert_eq!(pin().route(&k, routed, up, unasked), Ok(Routed::Follow(pinned)));
        let mut pins = pin();
        let moved = pins.route(&k, routed, down, || true);
        prop_assert_eq!(moved, Ok(Routed::Pinned { parked: None }), "dead + fresh: re-pin");
        prop_assert_eq!(pins.route(&k, pinned, up, unasked), Ok(Routed::Follow(routed)));
        prop_assert_eq!(pin().route(&k, routed, down, || false), Err(pinned), "dead + partial");

        // Close rows.
        prop_assert_eq!(pin().close(&k, total, up, unasked), Ok(CloseTo::Deliver(pinned)));
        prop_assert_eq!(pin().close(&k, total, down, || false), Err(pinned), "dead + partial");
        let mut early = Pins::default();
        prop_assert_eq!(early.close(&k, total, up, unasked), Ok(CloseTo::Parked), "no pin yet");
        let mut unpinned = pin();
        let parked = unpinned.close(&k, total, down, || true);
        prop_assert_eq!(parked, Ok(CloseTo::Parked), "dead + fresh: un-pin and park");
        for mut pins in [early, unpinned] {
            // The next token pins the wave and picks the parked total up, once.
            let picked = pins.route(&k, routed, down, unasked);
            prop_assert_eq!(picked, Ok(Routed::Pinned { parked: Some(total) }));
            prop_assert_eq!(pins.route(&k, pinned, up, unasked), Ok(Routed::Follow(routed)));
            // Other waves are other rows.
            prop_assert_eq!(pins.route(&key(5), pinned, up, unasked), Ok(Routed::Pinned { parked: None }));
            pins.remove(&k);
            prop_assert_eq!(pins.route(&k, pinned, up, unasked), Ok(Routed::Pinned { parked: None }));
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
    assert_eq!(wave.out_wave(), 10);
    assert!(inst.waves.remove(&key(1)).is_some());
    assert!(inst.waves.is_empty());
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

    // A call: the callee envelope is a root with the call stacked on.
    let (ret, callee) = kernel::call(41, 0, 0, STREAM, framed.clone());
    assert!(callee.frames.is_empty());
    assert_eq!(callee.calls.len(), 1);
    assert_eq!(
        (callee.calls[0].call_id, callee.calls[0].call_node),
        (41, STREAM)
    );
    let returns = |id: u64| (id == 41).then(|| ret.clone());

    // Plain return: back under the caller's envelope, from the call node.
    match kernel::exit(&svc, SPLIT, &out, &callee, returns).unwrap() {
        Exit::Return(r) => {
            assert_eq!((r.app, r.graph, r.node), (0, 0, STREAM));
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
        Exit::Return(r) => assert_eq!(r.env.frames, [framed.frames[0], callee_frame]),
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

/// Rule 8: only collections that reported to the sink translate a dead
/// node into worker indices, each index once.
#[test]
fn lost_workers_come_from_reporting_collections_only() {
    // (app 0) tc 0: threads on nodes 1,2,1   tc 1: on 2,2   tc 2: on 1
    let hosts: [&[u32]; 3] = [&[1, 2, 1], &[2, 2], &[1]];
    let of = |_app: u32, tc: u32| hosts[tc as usize];
    let mut reporters = Vec::new();
    assert!(kernel::lost_workers(&reporters, of, &1).is_empty());
    kernel::note_reporter(&mut reporters, 0, 0);
    kernel::note_reporter(&mut reporters, 0, 1);
    kernel::note_reporter(&mut reporters, 0, 0);
    assert_eq!(reporters, [(0, 0), (0, 1)]);
    assert_eq!(kernel::lost_workers(&reporters, of, &1), [0, 2]);
    assert_eq!(kernel::lost_workers(&reporters, of, &2), [1, 0]);
    assert!(kernel::lost_workers(&reporters, of, &3).is_empty());
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
