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

/// Identity of a frame *excluding* completion info — what distinguishes one
/// parent lineage from another when keying merge waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameKey {
    /// Producing node.
    pub src: GNodeId,
    /// Wave id.
    pub wave: u64,
    /// Token index within the wave.
    pub index: u32,
}

impl_wire!(FrameKey { src, wave, index });

impl From<Frame> for FrameKey {
    fn from(f: Frame) -> Self {
        FrameKey {
            src: f.src,
            wave: f.wave,
            index: f.index,
        }
    }
}

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

/// How many frames a [`Frames`] stack holds in place before it moves to the
/// heap.
const INLINE: usize = 2;

/// What fills a slot of the inline array that holds no frame.
const VACANT: Frame = Frame {
    src: GNodeId(0),
    wave: 0,
    index: 0,
    total: None,
};

/// The split-nesting stack of an [`Envelope`], innermost frame last.
///
/// Up to two frames live in place, so an envelope of nesting depth ≤ 2 is
/// cloned without a heap block; the third push moves the stack into a
/// `Vec`, where it stays. Either way it reads as a slice of frames
/// (`Deref<Target = [Frame]>`) and compares as one, and its wire encoding
/// is byte for byte that of a `Vec<Frame>`.
#[derive(Clone)]
pub struct Frames(Stack);

#[derive(Clone)]
enum Stack {
    /// The first `.0` slots hold the frames.
    Inline(u8, [Frame; INLINE]),
    /// Pushed past [`INLINE`] frames at some point.
    Spilled(Vec<Frame>),
}

impl Frames {
    /// No frame: the stack of a root envelope.
    pub const fn new() -> Self {
        Frames(Stack::Inline(0, [VACANT; INLINE]))
    }

    /// Push `frame` on top.
    pub fn push(&mut self, frame: Frame) {
        match &mut self.0 {
            Stack::Inline(len, slots) if usize::from(*len) < INLINE => {
                slots[usize::from(*len)] = frame;
                *len += 1;
            }
            Stack::Inline(_, slots) => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(slots);
                spilled.push(frame);
                self.0 = Stack::Spilled(spilled);
            }
            Stack::Spilled(frames) => frames.push(frame),
        }
    }

    /// Pop the top frame; `None` on an empty stack.
    pub fn pop(&mut self) -> Option<Frame> {
        match &mut self.0 {
            Stack::Inline(0, _) => None,
            Stack::Inline(len, slots) => {
                *len -= 1;
                Some(slots[usize::from(*len)])
            }
            Stack::Spilled(frames) => frames.pop(),
        }
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
        matches!(self.0, Stack::Spilled(_))
    }
}

impl Default for Frames {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Frames {
    type Target = [Frame];
    fn deref(&self) -> &[Frame] {
        match &self.0 {
            Stack::Inline(len, slots) => &slots[..usize::from(*len)],
            Stack::Spilled(frames) => frames,
        }
    }
}

impl DerefMut for Frames {
    fn deref_mut(&mut self) -> &mut [Frame] {
        match &mut self.0 {
            Stack::Inline(len, slots) => &mut slots[..usize::from(*len)],
            Stack::Spilled(frames) => frames,
        }
    }
}

impl PartialEq for Frames {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
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
        let len = r.get_len()?;
        let mut frames = Frames::new();
        for _ in 0..len {
            frames.push(Frame::decode(r)?);
        }
        Ok(frames)
    }
}

/// The full control structure on a circulating token.
///
/// Cloning one of nesting depth ≤ 2 outside any graph call allocates
/// nothing: the frames sit in place ([`Frames`]) and an empty call stack
/// has no heap block. A flow keeps the envelope its wave's posts travel
/// under once and frames each post as it releases it
/// (`kernel::Flow::pop`), so a post costs no envelope until it leaves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Envelope {
    /// Split-nesting stack; innermost frame last.
    pub frames: Frames,
    /// Inter-application call stack; innermost call last.
    pub calls: Vec<CallFrame>,
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
        Some(WaveKey {
            src: last.src,
            wave: last.wave,
            parents: parents.iter().map(|&f| FrameKey::from(f)).collect(),
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
    /// Identities of all enclosing frames.
    pub parents: Vec<FrameKey>,
    /// Call context (a wave inside a service call is distinct from the same
    /// wave shape in another call).
    pub calls: Vec<CallFrame>,
}

impl_wire!(WaveKey {
    src,
    wave,
    parents,
    calls
});

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
            assert_eq!(env.frames.is_spilled(), depth > 2, "depth {depth}");
            let bytes = dps_serial::to_bytes(&env);
            assert_eq!(bytes, expect, "depth {depth}");
            assert_eq!(env.wire_bytes(), expect.len(), "depth {depth}");
            let frames = dps_serial::to_bytes(&env.frames.to_vec());
            assert_eq!(frames, bytes[..frames.len()], "depth {depth}");
        }
    }

    /// Past depth 2 the frames move to the heap and come back off the wire
    /// the same; popped back to depth 2, the spilled stack equals — and keys
    /// the same wave as — the one that never left its place.
    #[test]
    fn a_spilled_stack_round_trips_and_keys_its_wave_as_in_place() {
        let deep = golden(3);
        let got: Envelope = dps_serial::from_bytes(&dps_serial::to_bytes(&deep)).unwrap();
        assert_eq!(got, deep);
        assert!(got.frames.is_spilled());
        assert_eq!(got.wave_key(), deep.wave_key());
        assert_eq!(got.top(), Some(&GOLDEN[2]));

        let mut spilled = golden(3);
        spilled.calls.clear();
        assert_eq!(spilled.pop(), Some(GOLDEN[2]));
        let in_place = golden(2);
        assert!(spilled.frames.is_spilled() && !in_place.frames.is_spilled());
        assert_eq!(spilled, in_place);
        assert_eq!(spilled.wave_key(), in_place.wave_key());
        assert_eq!(
            dps_serial::to_bytes(&spilled),
            dps_serial::to_bytes(&in_place)
        );
        let key = spilled.wave_key().unwrap();
        assert_eq!((key.src, key.wave), (GNodeId(2), 0x0102_0304_0506_0708));
        assert_eq!(key.parents, [FrameKey::from(GOLDEN[0])]);
    }

    proptest::proptest! {
        /// Any run of pushes and pops reads as the same stack a `Vec` of
        /// frames would hold, across the move to the heap and back down.
        #[test]
        fn frames_behave_as_a_vec(script in proptest::collection::vec(0u32..6, 0..24)) {
            let (mut frames, mut model, mut deepest) = (Frames::new(), Vec::new(), 0);
            for (i, op) in script.into_iter().enumerate() {
                if op < 2 {
                    proptest::prop_assert_eq!(frames.pop(), model.pop());
                } else {
                    let f = frame(op, i as u64, i as u32, (op == 5).then_some(op));
                    frames.push(f);
                    model.push(f);
                }
                deepest = deepest.max(model.len());
                proptest::prop_assert_eq!(&frames[..], &model[..]);
                proptest::prop_assert_eq!(frames.is_spilled(), deepest > 2);
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
}
