//! Envelopes: the control structures DPS attaches to every circulating data
//! object.
//!
//! The paper keeps "track of the number of data objects generated by the
//! corresponding split operation" so that merges know when they are complete
//! without user bookkeeping, and notes that transferred objects "incorporate
//! control structures giving information about their state and position
//! within the flow graph". The envelope is that control structure: a stack
//! of [`Frame`]s, one per enclosing split (or stream) construct, plus a call
//! stack for inter-application graph calls.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use dps_serial::{impl_wire, Wire};

/// Identifier of a node within a flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GNodeId(pub u32);

impl std::fmt::Display for GNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl Wire for GNodeId {
    fn wire_size(&self) -> usize {
        4
    }
    fn encode(&self, w: &mut dps_serial::Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut dps_serial::Reader<'_>) -> std::result::Result<Self, dps_serial::WireError> {
        Ok(GNodeId(r.get_u32()?))
    }
}

/// One level of split nesting: "token `index` of wave `wave`, produced by
/// split node `src`". The final token of a wave carries `total = Some(n)`;
/// earlier tokens carry `None` because a split's fan-out is not known until
/// its execute method returns (tokens are posted — and may already be in
/// flight — before the split finishes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Split (or stream) node that opened this wave.
    pub src: GNodeId,
    /// Unique wave identifier (unique per engine run).
    pub wave: u64,
    /// Index of this token within the wave.
    pub index: u32,
    /// Wave size, known only on the last-posted token.
    pub total: Option<u32>,
}

impl_wire!(Frame {
    src,
    wave,
    index,
    total
});

/// One level of inter-application graph call (paper §5, Fig. 10): where to
/// return the callee's result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CallFrame {
    /// Calling application.
    pub caller_app: u32,
    /// Graph within the calling application.
    pub caller_graph: u32,
    /// The call node in the caller's graph.
    pub call_node: GNodeId,
    /// Unique id of this particular call (to pair request/response).
    pub call_id: u64,
}

impl_wire!(CallFrame {
    caller_app,
    caller_graph,
    call_node,
    call_id
});

/// The split-nesting stack of an [`Envelope`], innermost frame last.
///
/// One frame lives in place, so an envelope of nesting depth ≤ 1 is cloned
/// without a heap block. A deeper stack sits behind one pointer, in one
/// block that holds exactly its frames: cloning it, or pushing a second or
/// later frame, takes one block. The whole stack is 24 bytes, one
/// [`Frame`]: the tag sits in the niche of [`Frame::total`]. Either way it
/// reads as a slice of frames (`Deref<Target = [Frame]>`) and compares as
/// one, and its wire encoding is byte for byte that of a `Vec<Frame>`.
#[derive(Clone, Default)]
pub struct Frames(Stack);

#[derive(Clone, Default)]
enum Stack {
    #[default]
    Root,
    One(Frame),
    /// Two frames or more.
    Many(Box<[Frame]>),
}

impl Frames {
    /// No frame: the stack of a root envelope.
    pub const fn new() -> Self {
        Frames(Stack::Root)
    }

    /// The stack that holds `frames`.
    fn of(frames: &[Frame]) -> Self {
        Frames(match frames {
            [] => Stack::Root,
            [frame] => Stack::One(*frame),
            _ => Stack::Many(frames.into()),
        })
    }

    /// This stack with `frame` on top, in one block at most.
    pub fn pushed(&self, frame: Frame) -> Self {
        Frames(match &self.0 {
            Stack::Root => Stack::One(frame),
            Stack::One(below) => Stack::Many(Box::new([*below, frame])),
            Stack::Many(below) => {
                let mut frames = Vec::with_capacity(below.len() + 1);
                frames.extend_from_slice(below);
                frames.push(frame);
                Stack::Many(frames.into_boxed_slice())
            }
        })
    }

    /// Push `frame` on top.
    pub fn push(&mut self, frame: Frame) {
        *self = self.pushed(frame);
    }

    /// Pop the top frame; `None` on an empty stack.
    pub fn pop(&mut self) -> Option<Frame> {
        let (&top, rest) = self.split_last()?;
        *self = Self::of(rest);
        Some(top)
    }

    /// Push each of `frames` in order.
    pub fn extend_from_slice(&mut self, frames: &[Frame]) {
        for &frame in frames {
            self.push(frame);
        }
    }

    /// Whether the frames live on the heap.
    #[cfg(test)]
    fn is_spilled(&self) -> bool {
        matches!(self.0, Stack::Many(_))
    }
}

impl Deref for Frames {
    type Target = [Frame];
    fn deref(&self) -> &[Frame] {
        match &self.0 {
            Stack::Root => &[],
            Stack::One(frame) => std::slice::from_ref(frame),
            Stack::Many(frames) => frames,
        }
    }
}

impl DerefMut for Frames {
    fn deref_mut(&mut self) -> &mut [Frame] {
        match &mut self.0 {
            Stack::Root => &mut [],
            Stack::One(frame) => std::slice::from_mut(frame),
            Stack::Many(frames) => frames,
        }
    }
}

impl PartialEq for Frames {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Frames {}

impl std::hash::Hash for Frames {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Frames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A length prefix and the frames: the encoding of a `Vec<Frame>`.
impl Wire for Frames {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
    fn encode(&self, w: &mut dps_serial::Writer) {
        w.put_len(self.len());
        for frame in self.iter() {
            frame.encode(w);
        }
    }
    fn decode(r: &mut dps_serial::Reader<'_>) -> std::result::Result<Self, dps_serial::WireError> {
        Ok(Frames(match r.get_len()? {
            0 => Stack::Root,
            1 => Stack::One(Frame::decode(r)?),
            len => {
                let mut frames = Vec::with_capacity(len);
                for _ in 0..len {
                    frames.push(Frame::decode(r)?);
                }
                Stack::Many(frames.into_boxed_slice())
            }
        }))
    }
}

/// The inter-application call stack of an [`Envelope`], innermost call
/// last: one pointer, null outside any graph call.
///
/// Clones share the calls; a push onto a shared stack copies it first. It
/// reads, compares and hashes as a slice of call frames, and its wire
/// encoding is byte for byte that of a `Vec<CallFrame>`.
#[derive(Clone, Default)]
pub struct Calls(Option<Arc<Vec<CallFrame>>>);

impl Calls {
    /// Push `call` on top.
    pub fn push(&mut self, call: CallFrame) {
        Arc::make_mut(self.0.get_or_insert_default()).push(call);
    }

    /// Drop every call: the stack of a token outside any graph call.
    pub fn clear(&mut self) {
        self.0 = None;
    }
}

impl Deref for Calls {
    type Target = [CallFrame];
    fn deref(&self) -> &[CallFrame] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl PartialEq for Calls {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Calls {}

impl std::hash::Hash for Calls {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Calls {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A length prefix and the calls: the encoding of a `Vec<CallFrame>`.
impl Wire for Calls {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
    fn encode(&self, w: &mut dps_serial::Writer) {
        w.put_len(self.len());
        for call in self.iter() {
            call.encode(w);
        }
    }
    fn decode(r: &mut dps_serial::Reader<'_>) -> std::result::Result<Self, dps_serial::WireError> {
        let calls = Vec::<CallFrame>::decode(r)?;
        Ok(Calls((!calls.is_empty()).then(|| Arc::new(calls))))
    }
}

/// The full control structure on a circulating token: 32 bytes.
///
/// Cloning one of nesting depth ≤ 1 outside any graph call allocates
/// nothing: the frame sits in place ([`Frames`]) and an empty call stack
/// is a null pointer ([`Calls`]). A flow keeps the envelope its wave's
/// posts travel under once and frames each post as it releases it
/// (`kernel::Flow::pop`, through [`pushed`](Self::pushed)), so a post
/// costs no envelope until it leaves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Envelope {
    /// Split-nesting stack; innermost frame last.
    pub frames: Frames,
    /// Inter-application call stack; innermost call last.
    pub calls: Calls,
}

impl_wire!(Envelope { frames, calls });

impl Envelope {
    /// Empty envelope (a token entering a graph from outside).
    pub fn root() -> Self {
        Self::default()
    }

    /// Current split-nesting depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Push a frame for a token emitted by a split/stream.
    pub fn push(&mut self, frame: Frame) {
        self.frames.push(frame);
    }

    /// This envelope with `frame` pushed: what a post of a split/stream
    /// travels under, its frames in one block at most.
    pub fn pushed(&self, frame: Frame) -> Self {
        Envelope {
            frames: self.frames.pushed(frame),
            calls: self.calls.clone(),
        }
    }

    /// Pop the innermost frame (at a merge/stream); `None` if the envelope
    /// is already at root depth — which means the graph is unbalanced.
    pub fn pop(&mut self) -> Option<Frame> {
        self.frames.pop()
    }

    /// Innermost frame, if any.
    pub fn top(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Key identifying the merge wave this token belongs to: the innermost
    /// frame's (src, wave) plus the identities of all outer frames.
    ///
    /// Outer frame *indices* matter: with nested splits, each outer token
    /// spawns its own inner wave, and those waves must not be conflated.
    pub fn wave_key(&self) -> Option<WaveKey> {
        let (last, parents) = self.frames.split_last()?;
        let mut parents = Frames::of(parents);
        parents.iter_mut().for_each(|f| f.total = None);
        Some(WaveKey {
            src: last.src,
            wave: last.wave,
            parents,
            calls: self.calls.clone(),
        })
    }

    /// Wire size of the envelope (it travels with the token payload).
    pub fn wire_bytes(&self) -> usize {
        self.wire_size()
    }
}

/// Hashable identity of one merge wave.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WaveKey {
    /// Split node that opened the wave.
    pub src: GNodeId,
    /// Wave id.
    pub wave: u64,
    /// The enclosing frames, outermost first, their totals cleared: a
    /// parent identifies its token by where it was posted, not by whether
    /// it was its wave's last. A token two waves deep keys its wave without
    /// a heap block.
    pub parents: Frames,
    /// Call context (a wave inside a service call is distinct from the same
    /// wave shape in another call).
    pub calls: Calls,
}

/// A parent travels as (src, wave, index): its total, cleared, is not sent.
/// The bytes are those of the key whose parents were a `Vec` of those.
impl Wire for WaveKey {
    fn wire_size(&self) -> usize {
        let parents = self
            .parents
            .iter()
            .map(|f| (f.src, f.wave, f.index).wire_size());
        (self.src, self.wave).wire_size() + 4 + parents.sum::<usize>() + self.calls.wire_size()
    }
    fn encode(&self, w: &mut dps_serial::Writer) {
        (self.src, self.wave).encode(w);
        w.put_len(self.parents.len());
        for f in self.parents.iter() {
            (f.src, f.wave, f.index).encode(w);
        }
        self.calls.encode(w);
    }
    fn decode(r: &mut dps_serial::Reader<'_>) -> std::result::Result<Self, dps_serial::WireError> {
        let (src, wave) = Wire::decode(r)?;
        let mut parents = Frames::new();
        for _ in 0..r.get_len()? {
            let (src, wave, index) = Wire::decode(r)?;
            let total = None;
            parents.push(Frame {
                src,
                wave,
                index,
                total,
            });
        }
        let calls = Wire::decode(r)?;
        Ok(WaveKey {
            src,
            wave,
            parents,
            calls,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: u32, wave: u64, index: u32, total: Option<u32>) -> Frame {
        Frame {
            src: GNodeId(src),
            wave,
            index,
            total,
        }
    }

    #[test]
    fn push_pop_is_lifo() {
        let mut env = Envelope::root();
        env.push(frame(1, 10, 0, None));
        env.push(frame(2, 20, 3, Some(4)));
        assert_eq!(env.depth(), 2);
        let top = env.pop().unwrap();
        assert_eq!(top.src, GNodeId(2));
        assert_eq!(env.depth(), 1);
        assert_eq!(env.top().unwrap().wave, 10);
    }

    #[test]
    fn pop_at_root_is_none() {
        let mut env = Envelope::root();
        assert_eq!(env.pop(), None);
    }

    #[test]
    fn wave_key_distinguishes_parent_indices() {
        // Outer wave 5, tokens 0 and 1, each spawning inner wave at node 2.
        let mut a = Envelope::root();
        a.push(frame(1, 5, 0, None));
        a.push(frame(2, 100, 0, None));
        let mut b = Envelope::root();
        b.push(frame(1, 5, 1, None));
        b.push(frame(2, 101, 0, None));
        assert_ne!(a.wave_key(), b.wave_key());
    }

    #[test]
    fn wave_key_ignores_total_and_index_of_inner_frame() {
        let mut a = Envelope::root();
        a.push(frame(1, 5, 0, None));
        let mut b = Envelope::root();
        b.push(frame(1, 5, 3, Some(4)));
        assert_eq!(a.wave_key(), b.wave_key());
    }

    #[test]
    fn root_has_no_wave_key() {
        assert_eq!(Envelope::root().wave_key(), None);
    }

    #[test]
    fn envelope_roundtrips_on_wire() {
        let mut env = Envelope::root();
        env.push(frame(1, 5, 0, Some(1)));
        env.calls.push(CallFrame {
            caller_app: 2,
            caller_graph: 0,
            call_node: GNodeId(7),
            call_id: 99,
        });
        let bytes = dps_serial::to_bytes(&env);
        assert_eq!(bytes.len(), env.wire_bytes());
        let got: Envelope = dps_serial::from_bytes(&bytes).unwrap();
        assert_eq!(got, env);
    }

    /// The frames of the golden envelopes, outermost first.
    const GOLDEN: [Frame; 3] = [
        Frame {
            src: GNodeId(1),
            wave: 5,
            index: 0,
            total: Some(3),
        },
        Frame {
            src: GNodeId(2),
            wave: 0x0102_0304_0506_0708,
            index: 7,
            total: None,
        },
        Frame {
            src: GNodeId(3),
            wave: 9,
            index: 2,
            total: Some(4),
        },
    ];

    /// The envelope of nesting depth `depth` over [`GOLDEN`]; at depth 3
    /// also inside a graph call.
    fn golden(depth: usize) -> Envelope {
        let mut env = Envelope::root();
        GOLDEN[..depth].iter().for_each(|&f| env.push(f));
        if depth == 3 {
            env.calls.push(CallFrame {
                caller_app: 1,
                caller_graph: 2,
                call_node: GNodeId(3),
                call_id: 4,
            });
        }
        env
    }

    /// The wire bytes of an envelope at depths 0–3 are those of the
    /// envelope whose frames were a `Vec<Frame>` (captured from it): a
    /// length prefix, then each frame — whether the frames sit in place or
    /// were spilled to the heap.
    #[test]
    fn golden_wire_bytes_at_every_depth() {
        #[rustfmt::skip]
        let expect: [&[u8]; 4] = [
            &[0, 0, 0, 0, 0, 0, 0, 0],
            &[1, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0],
            &[2, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 2, 0, 0, 0,
              8, 7, 6, 5, 4, 3, 2, 1, 7, 0, 0, 0, 0, 0, 0, 0, 0],
            &[3, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 2, 0, 0, 0,
              8, 7, 6, 5, 4, 3, 2, 1, 7, 0, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
              1, 4, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0],
        ];
        for (depth, expect) in expect.into_iter().enumerate() {
            let env = golden(depth);
            assert_eq!(env.frames.is_spilled(), depth > 1, "depth {depth}");
            let bytes = dps_serial::to_bytes(&env);
            assert_eq!(bytes, expect, "depth {depth}");
            assert_eq!(env.wire_bytes(), expect.len(), "depth {depth}");
            let frames = dps_serial::to_bytes(&env.frames.to_vec());
            assert_eq!(frames, bytes[..frames.len()], "depth {depth}");
        }
    }

    /// A wave key travels in a `Done` frame (`Then::Wave`): its wire bytes
    /// are those of the key whose parents were a `Vec` of (src, wave,
    /// index), captured from it — no parent's total is sent.
    #[test]
    fn golden_wave_key_bytes() {
        #[rustfmt::skip]
        let expect: [u8; 72] = [
            3, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
            1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 7, 0, 0, 0,
            1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
        ];
        let key = golden(3).wave_key().unwrap();
        let bytes = dps_serial::to_bytes(&key);
        assert_eq!(bytes, expect);
        assert_eq!(key.wire_size(), expect.len());
        assert_eq!(dps_serial::from_bytes::<WaveKey>(&bytes).unwrap(), key);
    }

    /// Past depth 1 the frames move to the heap and come back off the wire
    /// the same; popped back to depth 2, the stack equals — and keys the
    /// same wave as — the one pushed there, and popped to depth 1 it is in
    /// place again.
    #[test]
    fn a_spilled_stack_round_trips_and_keys_its_wave_as_in_place() {
        let deep = golden(3);
        let got: Envelope = dps_serial::from_bytes(&dps_serial::to_bytes(&deep)).unwrap();
        assert_eq!(got, deep);
        assert!(got.frames.is_spilled());
        assert_eq!(got.wave_key(), deep.wave_key());
        assert_eq!(got.top(), Some(&GOLDEN[2]));

        let mut popped = golden(3);
        popped.calls.clear();
        assert_eq!(popped.pop(), Some(GOLDEN[2]));
        let pushed = golden(2);
        assert!(popped.frames.is_spilled() && pushed.frames.is_spilled());
        assert_eq!(popped, pushed);
        assert_eq!(popped.wave_key(), pushed.wave_key());
        assert_eq!(dps_serial::to_bytes(&popped), dps_serial::to_bytes(&pushed));
        let key = popped.wave_key().unwrap();
        assert_eq!((key.src, key.wave), (GNodeId(2), 0x0102_0304_0506_0708));
        let parent = Frame {
            total: None,
            ..GOLDEN[0]
        };
        assert_eq!(&key.parents[..], [parent]);

        assert_eq!(popped.pop(), Some(GOLDEN[1]));
        assert!(!popped.frames.is_spilled());
        assert_eq!(popped, golden(1));
    }

    proptest::proptest! {
        /// Any run of pushes and pops reads as the same stack a `Vec` of
        /// frames would hold, across the move to the heap and back down.
        #[test]
        fn frames_behave_as_a_vec(script in proptest::collection::vec(0u32..6, 0..24)) {
            let (mut frames, mut model) = (Frames::new(), Vec::new());
            for (i, op) in script.into_iter().enumerate() {
                if op < 2 {
                    proptest::prop_assert_eq!(frames.pop(), model.pop());
                } else {
                    let f = frame(op, i as u64, i as u32, (op == 5).then_some(op));
                    frames.push(f);
                    model.push(f);
                }
                proptest::prop_assert_eq!(&frames[..], &model[..]);
                proptest::prop_assert_eq!(frames.is_spilled(), model.len() > 1);
                let bytes = dps_serial::to_bytes(&frames);
                proptest::prop_assert_eq!(&bytes, &dps_serial::to_bytes(&model));
                let back: Frames = dps_serial::from_bytes(&bytes).unwrap();
                proptest::prop_assert_eq!(back, frames.clone());
            }
        }
    }

    #[test]
    fn call_context_separates_waves() {
        let mut a = Envelope::root();
        a.push(frame(1, 5, 0, None));
        let mut b = a.clone();
        b.calls.push(CallFrame {
            caller_app: 1,
            caller_graph: 0,
            call_node: GNodeId(3),
            call_id: 1,
        });
        assert_ne!(a.wave_key(), b.wave_key());
    }

    /// Every queued token carries an envelope: one frame in place and two
    /// pointers' worth of the rest keep it at 32 bytes.
    #[test]
    fn an_envelope_is_32_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Frames>(), size_of::<Frame>());
        assert_eq!(size_of::<Frames>(), 24);
        assert_eq!(size_of::<Calls>(), 8);
        assert_eq!(size_of::<Envelope>(), 32);
        assert_eq!(size_of::<WaveKey>(), 48);
    }

    /// A pushed copy is the envelope with the frame pushed, in one block.
    #[test]
    fn pushed_is_a_clone_and_a_push() {
        for depth in 0..=3 {
            let env = golden(depth);
            let mut pushed = env.clone();
            pushed.push(GOLDEN[0]);
            assert_eq!(env.pushed(GOLDEN[0]), pushed, "depth {depth}");
        }
    }

    /// The call stack reads, hashes and travels as the `Vec` it was; a
    /// clone shares it until one side pushes.
    #[test]
    fn calls_behave_as_a_vec() {
        use std::hash::{BuildHasher, RandomState};
        let call = |call_id| CallFrame {
            caller_app: 1,
            caller_graph: 2,
            call_node: GNodeId(3),
            call_id,
        };
        let (mut calls, mut model) = (Calls::default(), Vec::new());
        let hasher = RandomState::new();
        for id in 0..3 {
            assert_eq!(&calls[..], &model[..]);
            assert_eq!(hasher.hash_one(&calls), hasher.hash_one(&model));
            let bytes = dps_serial::to_bytes(&calls);
            assert_eq!(bytes, dps_serial::to_bytes(&model));
            assert_eq!(dps_serial::from_bytes::<Calls>(&bytes).unwrap(), calls);
            let before = calls.clone();
            calls.push(call(id));
            model.push(call(id));
            assert_eq!(before.len(), id as usize, "a push leaves a clone as it was");
        }
        calls.clear();
        assert_eq!(calls, Calls::default());
        assert!(calls.is_empty());
    }
}
