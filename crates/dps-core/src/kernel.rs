//! The rules of a wave and the path of a token: what a flow graph means,
//! whatever executes it.
//!
//! Wave counting, merge completion, stream numbering, flow-control credits,
//! wave pinning, graph exits and call returns are properties of the *graph*.
//! They are written here once — the rules as plain tables and functions,
//! the steps that apply them to a token as one driver — and every engine
//! (the simulator in this crate, the `dps-mt` worker, the `dps-netengine`
//! executor lane) runs them; `docs/ARCHITECTURE.md` §1 is the reference.
//!
//! **The rules are pure over the tables passed in.** No rule takes a lock,
//! reads a clock, records a trace event, sends a message or schedules
//! anything; a rule only says what happens to the wave.
//!
//! **The driver is generic over one [`Substrate`], statically dispatched**
//! (`fn deliver<S: Substrate>`, never a trait object). The substrate owns
//! the locks, the clock, the queues and the trace: it lends the pin and flow
//! tables for the length of one closure, says which nodes are up and how
//! loaded their threads are, and moves a token or a close to a thread. The
//! driver calls a rule inside such a closure and moves only after it
//! returned — **a lock is never held across a move.**
//!
//! **The driver records the life of a token, an operation and a wave, and
//! the death of a node**: which event, at which of the substrate's stamps,
//! under which wave, label and flow id. The substrate only lends its clock,
//! a track and a writer ([`Substrate::trace`]), so every engine records the
//! same events the same way.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::num::NonZeroU64;
use std::sync::Arc;

use dps_obs::{fault_code, Counter, EventKind, LabelId, TraceCollector, TraceWriter};
use dps_sched::FeedbackSink;
use dps_serial::{impl_wire, impl_wire_enum};

use crate::decls::{Decls, GraphHandle};
use crate::envelope::{CallFrame, Envelope, Frame, GNodeId, WaveKey};
use crate::error::{DpsError, Result};
use crate::graph::{Flowgraph, GraphNode, OpKind};
use crate::ops::{DynOp, ExecInfo, OpOutput};
use crate::route::RouteInfo;
use crate::token::{wire_roundtrip, Carried, Token};

/// The hasher of every kernel table. Their keys are ids this program issued
/// itself — graph, node, thread, wave and call numbers, on the wire only
/// between processes of one binary — so a table needs no seeded hash: each
/// integer the derived `Hash` of a key emits is folded in with one rotate and
/// one multiply. It is deterministic, and nothing may lean on that: no rule
/// reads a table in iteration order (a listing sorts what it collects).
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table keyed by ids: a `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

fn make_op(gnode: &GraphNode) -> Result<Box<dyn DynOp>> {
    gnode.make_op().ok_or_else(|| DpsError::OperationContract {
        node: gnode.name.clone(),
        reason: "delivery targets a node without an operation".into(),
    })
}

// ---------------------------------------------------------------------------
// Rules 1, 3, 7: one wave at its merge or stream
// ---------------------------------------------------------------------------

/// One live wave at the merge/stream node consuming it: how many of its
/// tokens arrived against how many its producer posted (rule 1), the id its
/// stream output travels under (rule 3), and its operation instance (rule 7).
///
pub struct Wave {
    /// Graph the wave is consumed in.
    pub graph: u32,
    /// The merge/stream node consuming it.
    pub node: GNodeId,
    received: u32,
    expected: Option<u32>,
    /// The id its posts travel under, if `node` is a stream.
    pub out_wave: u64,
    /// The envelope of a close that found data objects still missing: what
    /// [`lose`] hands the total back under if nothing was consumed here.
    closed_under: Option<Envelope>,
    op: Option<Box<dyn DynOp>>,
}

impl Wave {
    /// A wave nothing has arrived for yet. `out_wave` is the id its posts
    /// travel under if `node` is a stream.
    pub fn new(graph: u32, node: GNodeId, out_wave: u64) -> Self {
        Self {
            graph,
            node,
            received: 0,
            expected: None,
            out_wave,
            closed_under: None,
            op: None,
        }
    }

    /// Rule 1: count one token in; `inline_total` is the wave size its frame
    /// carries, if it was the last one posted. `Ok(true)` when this token
    /// completes the wave.
    #[inline]
    pub fn admit(&mut self, inline_total: Option<u32>, node: &str) -> Result<bool> {
        self.received += 1;
        if inline_total.is_some() {
            self.expected = inline_total;
        }
        self.completes("split", node)
    }

    /// Rule 1: the wave size arrived apart from the tokens, as a wave-close.
    /// `Ok(true)` when every token was already consumed — the close itself
    /// then completes the wave.
    #[inline]
    pub fn close(&mut self, total: u32, node: &str) -> Result<bool> {
        self.expected = Some(total);
        self.completes("producer", node)
    }

    #[inline]
    fn completes(&self, producer: &str, node: &str) -> Result<bool> {
        match self.expected {
            Some(total) if self.received > total => Err(DpsError::OperationContract {
                node: node.to_string(),
                reason: format!(
                    "wave received {} tokens but {producer} posted {total}",
                    self.received
                ),
            }),
            expected => Ok(expected == Some(self.received)),
        }
    }

    /// Tokens counted in so far.
    pub fn received(&self) -> u32 {
        self.received
    }

    /// The wave size, once known.
    pub fn expected(&self) -> Option<u32> {
        self.expected
    }

    /// Rule 7: a merge/stream has one operation instance per wave, made on
    /// first use and dropped with the wave.
    #[inline]
    pub fn op(&mut self, gnode: &GraphNode) -> Result<&mut dyn DynOp> {
        if self.op.is_none() {
            self.op = Some(make_op(gnode)?);
        }
        Ok(self.op.as_deref_mut().expect("made above"))
    }
}

/// Rule 7: the operation instances of one DPS thread. A split/leaf node has
/// one instance per thread, made on first use and kept; a merge/stream has
/// one per [`Wave`].
#[derive(Default)]
pub struct Instances {
    nodes: IdMap<(u32, u32), Box<dyn DynOp>>,
    /// The waves this thread consumes: entered by [`serve`] on the first
    /// arrival, removed by the caller when the wave completes,
    /// given up by [`bury`] when the thread's node dies.
    pub waves: IdMap<WaveKey, Wave>,
}

impl Instances {
    /// The split/leaf instance in slot `(graph, node)`.
    pub fn node_op(&mut self, slot: (u32, u32), gnode: &GraphNode) -> Result<&mut dyn DynOp> {
        use std::collections::hash_map::Entry;
        Ok(match self.nodes.entry(slot) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(make_op(gnode)?),
        }
        .as_mut())
    }
}

// ---------------------------------------------------------------------------
// Rules 2, 4: the flow window between a split and its merge
// ---------------------------------------------------------------------------

/// Rule 4: the posts of one wave on their way out, metered by the flow
/// window. `P` is whatever the engine holds per pending post (the token; on
/// the simulator also its send time), `X` what it keeps per flow.
///
/// A post is *pending* until released, then *outstanding* until the
/// matching merge consumed it and returned the credit. Rules 2 and 3 frame a
/// post as it is released, not as it is queued: the flow keeps the envelope
/// its wave travels under, the producing node and the wave id once, and
/// [`pop`](Self::pop) builds each post's envelope from them — its index is
/// its place in the wave, and the last post released once the wave is
/// complete carries the total. A pending post is only what the engine
/// handed in.
pub struct Flow<P, X = ()> {
    /// Cluster node of the producing thread.
    pub src: u32,
    /// The engine's own per-flow state.
    pub ext: X,
    /// The envelope every post travels under, less the wave's own frame.
    parent: Envelope,
    /// The split or stream that produces the wave.
    node: GNodeId,
    /// The wave id its frames carry.
    wave: u64,
    pending: VecDeque<P>,
    /// Posts released so far: the next one's index in the wave.
    released: u32,
    outstanding: u32,
    /// Posts queued so far, released or not: the wave's total once complete.
    appended: u32,
    /// No further post will be appended (always true for a split's wave).
    complete: bool,
    /// No merge of this graph returns credits (rule 2): not window-limited.
    unbounded: bool,
}

impl<P, X: Default> Flow<P, X> {
    /// The still-open output flow of wave `out_wave` of `stream`, leaving
    /// from cluster node `src` under `parent` (filled by
    /// [`append`](Self::append)).
    pub fn stream(src: u32, stream: GNodeId, out_wave: u64, parent: Envelope) -> Self {
        Self {
            src,
            ext: X::default(),
            parent,
            node: stream,
            wave: out_wave,
            pending: VecDeque::new(),
            released: 0,
            outstanding: 0,
            appended: 0,
            complete: false,
            unbounded: false,
        }
    }

    /// Rule 3: queue what one consume (or the finalize, `completes`) of the
    /// stream named `stream` posted onto this flow. Posts are numbered
    /// contiguously from 0 across the whole wave, as they are released. When
    /// the wave completes, the total rides on the last post still pending;
    /// if none is — the last data object is already in flight — it must
    /// travel as a wave-close, and this returns that close's envelope and
    /// total for the caller to deliver.
    pub fn append(
        &mut self,
        stream: &str,
        posts: impl IntoIterator<Item = P>,
        completes: bool,
    ) -> Result<Option<(Envelope, u32)>> {
        let before = self.pending.len();
        self.pending.extend(posts);
        self.appended += (self.pending.len() - before) as u32;
        if !completes {
            return Ok(None);
        }
        let total = self.appended;
        if total == 0 {
            return Err(DpsError::OperationContract {
                node: stream.to_string(),
                reason: "stream operation posted no tokens across its wave".into(),
            });
        }
        self.complete = true;
        Ok(self
            .pending
            .is_empty()
            .then(|| (self.framed(0, Some(total)), total)))
    }

    /// The wave's envelope with the frame of post `index`.
    fn framed(&self, index: u32, total: Option<u32>) -> Envelope {
        self.parent.pushed(Frame {
            src: self.node,
            wave: self.wave,
            index,
            total,
        })
    }

    fn open(&self, window: u32) -> bool {
        self.unbounded || window == 0 || self.outstanding < window
    }

    /// The post [`pop`](Self::pop) would release next, if `window` (0 = no
    /// limit) admits one.
    pub fn front(&self, window: u32) -> Option<&P> {
        self.pending.front().filter(|_| self.open(window))
    }

    /// Release the next pending post if `window` admits one, framed: its
    /// index, and the total if it is the last of a complete wave.
    pub fn pop(&mut self, window: u32) -> Option<(P, Envelope)> {
        if !self.open(window) {
            return None;
        }
        let post = self.pending.pop_front()?;
        let last = self.complete && self.pending.is_empty();
        let env = self.framed(self.released, last.then_some(self.appended));
        self.released += 1;
        self.outstanding += 1;
        Some((post, env))
    }

    /// The matching merge consumed one released post.
    pub fn credit(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Posts not yet released.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Released posts not yet credited.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Everything was released and nothing more will come: the producer is
    /// no longer held back by this flow.
    pub fn is_flushed(&self) -> bool {
        self.complete && self.pending.is_empty()
    }

    /// Flushed and fully credited: the caller drops the flow.
    pub fn is_drained(&self) -> bool {
        self.is_flushed() && self.outstanding == 0
    }
}

/// Rule 2: a split executed and its `posts` open wave `wave`. Every post
/// travels under `env` plus a frame naming the split, the wave and its index
/// in it; the last one carries the total. The flow keeps `env` once and
/// frames each post as it releases it. A split with no matching merge in
/// its own graph (the exit split of a serving graph) opens an unbounded
/// flow.
pub fn open_wave<P, X: Default>(
    def: &Flowgraph,
    split: GNodeId,
    wave: u64,
    env: Envelope,
    posts: impl IntoIterator<Item = P>,
    src: u32,
) -> Flow<P, X> {
    let pending: VecDeque<P> = posts.into_iter().collect();
    Flow {
        appended: pending.len() as u32,
        pending,
        complete: true,
        unbounded: def.matching_pop(split).is_none(),
        ..Flow::stream(src, split, wave, env)
    }
}

// ---------------------------------------------------------------------------
// Rule 6 (and the parking of rule 1): which thread a wave lives on
// ---------------------------------------------------------------------------

enum Slot {
    /// All tokens of the wave go to this thread of the consuming collection.
    Pinned(u32),
    /// Not pinned; its total arrived ahead of its first token.
    Parked(u32),
}

/// Rule 6: all tokens of one wave execute on one thread of the merge's
/// collection. The first token routed decides which, later ones follow,
/// and a wave-close follows them; a total that arrives before the wave has
/// a home is parked here until it gets one.
///
/// A pin found on a thread whose node has died always moves: what that
/// thread had consumed of the wave it gave up itself, when it died ([`bury`]).
#[derive(Default)]
pub struct Pins(IdMap<WaveKey, Slot>);

/// Where [`Pins::route`] sends a token.
#[derive(Debug, PartialEq, Eq)]
pub enum Routed {
    /// The wave is pinned on this live thread.
    Follow(u32),
    /// The wave is now pinned on the thread the route picked; `parked` is
    /// the total of a close that was waiting for it, which the token takes
    /// along on its own frame.
    Pinned {
        /// The parked wave total, if one was waiting.
        parked: Option<u32>,
    },
}

/// What [`Pins::close`] did with a wave-close.
#[derive(Debug, PartialEq, Eq)]
pub enum CloseTo {
    /// Deliver it to this live thread, where the wave is pinned.
    Deliver(u32),
    /// It is parked until a token pins the wave.
    Parked,
}

impl Pins {
    /// A token of wave `key` was routed to thread `routed`. `alive(t)` says
    /// whether thread `t`'s node is up.
    pub fn route(&mut self, key: &WaveKey, routed: u32, alive: impl Fn(u32) -> bool) -> Routed {
        let Some(slot) = self.0.get_mut(key) else {
            self.0.insert(key.clone(), Slot::Pinned(routed));
            return Routed::Pinned { parked: None };
        };
        let parked = match *slot {
            Slot::Pinned(t) if alive(t) => return Routed::Follow(t),
            Slot::Pinned(_) => None,
            Slot::Parked(total) => Some(total),
        };
        *slot = Slot::Pinned(routed);
        Routed::Pinned { parked }
    }

    /// The close of wave `key` (carrying `total`) looks for the wave: alive
    /// pin ⇒ deliver there; no pin, or a dead one (which is dropped) ⇒ park.
    pub fn close(&mut self, key: &WaveKey, total: u32, alive: impl Fn(u32) -> bool) -> CloseTo {
        match self.0.get(key) {
            Some(&Slot::Pinned(t)) if alive(t) => CloseTo::Deliver(t),
            _ => {
                self.0.insert(key.clone(), Slot::Parked(total));
                CloseTo::Parked
            }
        }
    }

    /// `thread` gave wave `key` up: drop the pin, unless the wave has moved
    /// on to another thread since.
    fn unpin(&mut self, key: &WaveKey, thread: u32) {
        if matches!(self.0.get(key), Some(&Slot::Pinned(t)) if t == thread) {
            self.0.remove(key);
        }
    }

    /// The wave completed: forget it.
    pub fn remove(&mut self, key: &WaveKey) {
        self.0.remove(key);
    }

    /// No wave is pinned and no total parked.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The node a wave-close for `key` is consumed at: the merge/stream matching
/// the node that opened the wave.
pub fn close_node(def: &Flowgraph, key: &WaveKey) -> Result<GNodeId> {
    def.matching_pop(key.src)
        .ok_or_else(|| DpsError::InvalidGraph {
            reason: format!("no matching merge recorded for node {}", key.src),
        })
}

// ---------------------------------------------------------------------------
// Rule 5: leaving a graph, and calling into one
// ---------------------------------------------------------------------------

/// One graph node of one application: where a delivery goes, or where an
/// operation ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct At {
    /// Application.
    pub app: u32,
    /// Graph within it.
    pub graph: u32,
    /// Node within the graph.
    pub node: GNodeId,
}

impl_wire!(At { app, graph, node });

/// Where the result of a graph call continues: the call node, and the
/// envelope the call was made under.
#[derive(Debug, Clone)]
pub struct CallReturn {
    /// The call node.
    pub at: At,
    /// Envelope of the token that made the call.
    pub env: Envelope,
}

/// Where a token goes when it leaves a node.
#[derive(Debug)]
pub enum Exit {
    /// On to this successor, in the same graph under the same envelope.
    To(GNodeId),
    /// Out of a called graph: the token continues *from* the call node of
    /// the caller's graph under this envelope (ask [`exit`] again there).
    Return(CallReturn),
    /// Out of the graph altogether: an output.
    Output,
}

/// Rule 5: `token` leaves node `from` under `env`. The successor is chosen
/// by the token's type; with none declared the token leaves the graph — as
/// an output, or back to the caller recorded under the innermost call id
/// (`returns` looks it up). A token leaving a serving graph from inside a
/// wave keeps that one frame: the wave is merged in the caller (a
/// distributed split/merge pair).
pub fn exit(
    def: &Flowgraph,
    from: GNodeId,
    token: &dyn Token,
    env: &Envelope,
    returns: impl FnOnce(u64) -> Option<CallReturn>,
) -> Result<Exit> {
    if let Some(next) = def.successor_for(from, token.wire_id()) {
        return Ok(Exit::To(next));
    }
    let name = &def.node(from).name;
    if !def.succs(from).is_empty() {
        return Err(DpsError::NoRoute {
            node: name.clone(),
            token_type: token.type_name(),
        });
    }
    let Some(call) = env.calls.last() else {
        return match env.frames.len() {
            0 => Ok(Exit::Output),
            n => Err(unmerged(name, n)),
        };
    };
    if env.frames.len() > 1 {
        return Err(unmerged(name, env.frames.len()));
    }
    let mut ret = returns(call.call_id).ok_or_else(|| DpsError::OperationContract {
        node: name.clone(),
        reason: format!("return for unknown call id {}", call.call_id),
    })?;
    // The frame keeps the callee's split as its source: wave keys are
    // opaque, so the caller's merge collects the wave as it is.
    ret.env.frames.extend_from_slice(&env.frames);
    Ok(Exit::Return(ret))
}

fn unmerged(node: &str, frames: usize) -> DpsError {
    DpsError::InvalidGraph {
        reason: format!("token left the graph at {node} with {frames} unmerged frames"),
    }
}

// ---------------------------------------------------------------------------
// Rule 8: a dead node, in the feedback sink's terms
// ---------------------------------------------------------------------------

/// Collection `(app, tc)` reported a chunk to the feedback sink: remember
/// it, so a dead node is told the sink in the thread indices it speaks.
pub fn note_reporter(reporters: &mut Vec<(u32, u32)>, app: u32, tc: u32) {
    if !reporters.contains(&(app, tc)) {
        reporters.push((app, tc));
    }
}

/// The feedback sink, and the collections that reported to it
/// ([`note_reporter`]).
pub type Feedback<'a> = (&'a dyn FeedbackSink, &'a [(u32, u32)]);

/// Rule 8: the `FeedbackSink::worker_lost` indices of cluster node `dead`.
/// The sink's worker indices are thread indices within the *reporting*
/// collections, so only those are consulted: an unrelated collection hosted
/// on the dead node must not wipe a live worker that shares a thread index.
fn lost_workers(d: &Decls, reporters: &[(u32, u32)], dead: u32) -> Vec<usize> {
    let mut lost = Vec::new();
    for &(app, tc) in reporters {
        let hosts = &d.apps()[app as usize].tcs[tc as usize].nodes;
        for (thread, &host) in hosts.iter().enumerate() {
            if host == dead && !lost.contains(&thread) {
                lost.push(thread);
            }
        }
    }
    lost
}

/// A kill names cluster node `node`: `InvalidGraph` unless the cluster the
/// declarations `d` are made over has it.
pub fn known_node(d: &Decls, node: u32) -> Result<()> {
    if node as usize >= d.nodes() {
        let reason = format!("fail_node: no such cluster node {node}");
        return Err(DpsError::InvalidGraph { reason });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The record of a token, an operation and a wave
// ---------------------------------------------------------------------------

/// One thread's way into a trace sink: its writer, the labels it has
/// interned — each on its first use, so an event takes no lock — and the
/// flow ids it issues.
pub struct Tracer {
    collector: Arc<TraceCollector>,
    writer: TraceWriter,
    labels: IdMap<Label, LabelId>,
    /// The next flow id; the writer's track sits in its high bits, so the
    /// tracers of one sink never issue the same id.
    next_flow: u64,
}

/// What a label names.
#[derive(PartialEq, Eq, Hash)]
enum Label {
    Op(At),
    Graph(u32, u32),
    Token(u64),
}

impl Tracer {
    /// A tracer writing into `collector` through a writer of its own, whose
    /// track is `(node, thread)`.
    pub fn new(collector: Arc<TraceCollector>, (node, thread): (u16, u16)) -> Self {
        Self {
            writer: collector.writer(node, thread),
            collector,
            labels: IdMap::default(),
            next_flow: (u64::from(node) << 16 | u64::from(thread)) << 32,
        }
    }

    /// The sink.
    pub fn collector(&self) -> &Arc<TraceCollector> {
        &self.collector
    }

    /// The writer, for what an engine records itself.
    pub fn writer(&mut self) -> &mut TraceWriter {
        &mut self.writer
    }

    /// The label of `token`'s type.
    pub fn token(&mut self, token: &dyn Token) -> LabelId {
        self.label(Label::Token(token.wire_id().0), token.type_name())
    }

    fn label(&mut self, key: Label, name: &str) -> LabelId {
        let c = &self.collector;
        *self.labels.entry(key).or_insert_with(|| c.label(name))
    }

    fn flow(&mut self) -> u64 {
        self.next_flow += 1;
        self.next_flow - 1
    }

    fn record(&mut self, (node, thread): (u16, u16), at: u64, kind: EventKind) {
        self.writer.record_on(at, node, thread, kind);
    }
}

/// Where [`Substrate::trace`] is asked to record.
pub enum On<'a, L> {
    /// The thread of this lane: it ran an operation, or takes a token.
    Lane(&'a mut L),
    /// A token leaves cluster node `n`, from the thread that sends it.
    Node(u32),
}

/// What [`Substrate::trace`] lends: a tracer, a track and the stamps.
pub struct Rec<'a> {
    tracer: &'a mut Tracer,
    track: (u16, u16),
    now: u64,
    start: u64,
    end: Option<u64>,
}

impl<'a> Rec<'a> {
    /// `tracer` on `track`, the clock reading `now`: off a lane.
    pub fn at(tracer: &'a mut Tracer, track: (u16, u16), now: u64) -> Self {
        let (start, end) = (now, None);
        Self {
            tracer,
            track,
            now,
            start,
            end,
        }
    }

    /// On a lane whose operation started at `start` and ended at `end`.
    pub fn op(self, start: u64, end: u64) -> Self {
        let end = Some(end);
        Self { start, end, ..self }
    }

    fn record(&mut self, at: u64, kind: EventKind) {
        self.tracer.record(self.track, at, kind);
    }

    fn count(&self, counter: Counter, n: u64) {
        self.tracer.collector.metrics().add(counter, n);
    }
}

/// The flow a token was sent under, if traced: it goes with the token from
/// [`deliver`] to the [`taken`] of the thread that takes it. Its id is kept
/// off by one, so that it fits in a queued message in eight bytes.
pub type Sent = Option<NonZeroU64>;

/// The wave an arrival under `env` is traced under: its top frame's.
pub fn env_wave(env: &Envelope) -> u32 {
    env.frames.last().map_or(0, |f| f.wave as u32)
}

/// The operation at `at` (named `name`) ran on the track `rec` lends, in
/// wave `wave`: its span and, inside it, the chunk it marked complete —
/// in time order, so a writer's ring stays sorted.
pub fn ran(mut rec: Rec<'_>, at: At, name: &str, wave: u32, marked: Option<u64>) {
    let Some(end) = rec.end else { return };
    let op = rec.tracer.label(Label::Op(at), name);
    rec.record(rec.start, EventKind::OpStart { op, wave });
    if let Some(iters) = marked {
        chunk(&mut rec, iters);
    }
    rec.record(end, EventKind::OpEnd { op, wave });
}

/// The lane's operation, which ran here, completed a chunk of `iters`
/// iterations.
fn chunk(rec: &mut Rec<'_>, iters: u64) {
    if let Some(end) = rec.end {
        let nanos = end - rec.start;
        rec.record(end, EventKind::ChunkExec { iters, nanos });
    }
}

/// Wave `wave` of `at`'s graph opens at the start of the split on `lane`,
/// or closes at the end of the operation that completed it — and the sink
/// drains its writers, so no ring fills up over a long run.
fn wave_edge<S: Substrate>(s: &S, lane: &mut S::Lane, at: At, wave: u64, opens: bool) {
    let name = s.decls().def(at.app, at.graph).name();
    s.trace(On::Lane(lane), |mut rec| {
        let graph = rec.tracer.label(Label::Graph(at.app, at.graph), name);
        let (wave, end) = (wave as u32, rec.end.unwrap_or(rec.now));
        match opens {
            true => rec.record(rec.start, EventKind::WaveStart { graph, wave }),
            false => {
                rec.record(end, EventKind::WaveEnd { graph, wave });
                rec.tracer.collector.drain();
            }
        }
    });
}

/// `tok`, under `env`, leaves cluster node `src`: its flow starts.
fn enqueue<S: Substrate>(s: &S, src: u32, tok: &dyn Token, env: &Envelope) -> Sent {
    s.trace(On::Node(src), |mut rec| {
        let (token, wave, flow) = (rec.tracer.token(tok), env_wave(env), rec.tracer.flow());
        rec.record(rec.now, EventKind::TokenEnqueue { token, wave, flow });
        NonZeroU64::MIN.saturating_add(flow)
    })
}

/// The thread of `lane` took `tok`, under `env` and `sent` to it, off its
/// queue: a traced token's flow ends ([`took`]).
pub fn taken<S: Substrate>(s: &S, lane: &mut S::Lane, tok: &dyn Token, env: &Envelope, sent: Sent) {
    if let Some(flow) = sent {
        s.trace(On::Lane(lane), |rec| took(rec, tok, env, flow));
    }
}

/// The thread whose track `rec` lends, here or in the process serving it,
/// took `tok`, under `env` and `sent` to it: a traced token's flow ends.
pub fn took(mut rec: Rec<'_>, tok: &dyn Token, env: &Envelope, sent: NonZeroU64) {
    let (token, wave, flow) = (rec.tracer.token(tok), env_wave(env), sent.get() - 1);
    rec.record(rec.now, EventKind::TokenDeliver { token, wave, flow });
}

// ---------------------------------------------------------------------------
// The path of a token: the steps that apply the rules, over any substrate
// ---------------------------------------------------------------------------

/// What reaches a thread for a node: a data object, or — at a merge/stream
/// — the close of its wave, carrying the wave's total.
pub enum Arrival {
    /// A data object.
    Token(Carried),
    /// The wave holds this many tokens; sent only when the last data object
    /// was in flight before its producer knew the count.
    Close(u32),
}

/// Key of a wave's outgoing flow: its producing node and the wave.
pub type FlowKey = (u32, u64);

/// The flow table of one graph, as substrate `S` keeps it.
pub type Flows<S> = IdMap<FlowKey, Flow<<S as Substrate>::Post, <S as Substrate>::FlowExt>>;

/// What an engine adds around the rules: where the tables live and under
/// which lock, which nodes are up, the id counters, how a token moves, what
/// the clock and the trace see. Cluster nodes are plain indices here.
pub trait Substrate {
    /// A post waiting in a flow: the token and, on a substrate with a clock,
    /// the instant it may leave.
    type Post;
    /// What the substrate keeps per flow beside the kernel's record.
    type FlowExt: Default;
    /// The executing thread's own state, for the hooks that act on it.
    type Lane;

    /// What was declared: the graphs, where each collection's threads live,
    /// the services, the registries, the node names. Frozen while tokens
    /// move — reading it takes no lock.
    fn decls(&self) -> &Decls;
    /// Whether a cluster node is alive.
    fn node_up(&self, node: u32) -> bool;
    /// The load signal, written into `load`, which the caller lends with
    /// one slot per thread of `tc`: deliveries assigned to each thread and
    /// not finished; `u32::MAX` for a thread on a dead node.
    fn load(&self, app: u32, tc: u32, load: &mut [u32]);
    /// Run the route installed at `to`.
    fn route(&mut self, to: At, token: &dyn Token, info: &RouteInfo<'_>) -> Result<usize>;
    /// Whether tokens crossing nodes must take the full serialize/deserialize
    /// round trip (the multi-kernel debugging mode).
    fn enforce_serialization(&self) -> bool;
    /// Allocate a call id and remember where its result continues.
    fn remember_call(&mut self, ret: CallReturn) -> u64;
    /// Where the result of call `id` continues.
    fn call_return(&self, id: u64) -> Option<CallReturn>;
    /// The pin table of `graph`, under its lock for the length of `f`.
    fn pins<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Pins) -> R) -> R;
    /// The flow table of `graph`, under its lock for the length of `f`.
    fn flows<R>(&self, app: u32, graph: u32, f: impl FnOnce(&mut Flows<Self>) -> R) -> R;
    /// Rule 6 for a token of wave `key` that its route sent to thread
    /// `routed` of collection `tc`: [`Pins::route`] on the graph's table. A
    /// substrate may answer [`Routed::Follow`] from what the table told it
    /// before, as long as the table would say the same now.
    fn pin(&self, to: At, tc: u32, key: &WaveKey, routed: u32) -> Routed {
        self.pins(to.app, to.graph, |pins| {
            route_pin(self, pins, to, tc, key, routed)
        })
    }
    /// Move a token or a close from cluster node `src` to `thread` of `to`'s
    /// collection (alive when checked). No table is borrowed.
    fn send(&mut self, to: At, thread: u32, src: u32, what: Arrival, env: Envelope, sent: Sent);
    /// Rule 4 on this substrate's clock: return one credit to flow `key`
    /// first if `credit` ([`Flow::credit`]), then release the next post
    /// that the window admits and whose time has come, framed
    /// ([`Flow::pop`]), with its source node; drop the flow once drained. A
    /// credit and the release it admits take the flow table once. A
    /// substrate that holds a post back calls [`pump`] again when it is due.
    fn next_post(
        &mut self,
        app: u32,
        graph: u32,
        key: FlowKey,
        credit: bool,
    ) -> Option<(Carried, Envelope, u32)>;
    /// A single post leaves node `from`: [`emit`] it when it is due.
    fn leave(&mut self, post: Self::Post, from: At, src: u32, env: Envelope);
    /// A token left `graph` altogether.
    fn output(&mut self, app: u32, graph: u32, token: Carried);
    /// A runtime error of `app`: the run fails with it.
    fn fail(&mut self, app: u32, e: DpsError);
    /// The operation that ran on `lane` marked a scheduled chunk of `iters`
    /// iterations complete: report it to the feedback sink.
    fn report(&mut self, lane: &mut Self::Lane, iters: u64);
    /// Lend `f` the tracer, the track and the stamps of `on`; `None`, with
    /// `f` not called, when no trace is attached there.
    fn trace<R>(&self, on: On<'_, Self::Lane>, f: impl FnOnce(Rec<'_>) -> R) -> Option<R>;
    /// The split at `at` opens a wave: allocate its id.
    fn opened(&mut self, lane: &mut Self::Lane, at: At) -> u64;
    /// Wave `key`, consumed on `lane` at `at`, completed: drop its record.
    fn wave_done(&mut self, lane: &mut Self::Lane, at: At, key: &WaveKey);
}

/// [`Pins::route`] on `pins`, the table of `to`'s graph, as substrate `s`
/// sees liveness: the whole of the provided [`Substrate::pin`].
pub fn route_pin<S: Substrate + ?Sized>(
    s: &S,
    pins: &mut Pins,
    to: At,
    tc: u32,
    key: &WaveKey,
    routed: u32,
) -> Routed {
    pins.route(key, routed, |t| s.node_up(s.decls().host(to.app, tc, t)))
}

/// The delivery to `to`, on thread `thread` of collection `tc`, whose node
/// is dead, cannot be re-queued elsewhere.
pub fn node_down<S: Substrate>(s: &S, to: At, tc: u32, thread: u32) -> DpsError {
    let d = s.decls();
    DpsError::NodeDown {
        node: d.node_name(d.host(to.app, tc, thread)).to_string(),
        target: d.def(to.app, to.graph).node(to.node).name.clone(),
    }
}

/// Which operation instance serves a delivery (rule 7).
pub enum Served<'a> {
    /// The split/leaf instance in this slot of the thread's table.
    Node(&'a mut Instances, (u32, u32)),
    /// The instance of this merge/stream wave.
    Wave(&'a mut Wave),
}

/// The widest collection whose load snapshot [`route_to`] takes on its
/// stack; a wider one takes it on the heap.
const STACK_LOAD: usize = 32;

/// Route `token` to one of the `thread_count` threads of `to`'s collection
/// `tc`, on a load snapshot taken now (a one-thread collection takes none —
/// routing there is forced), and follow or set the wave's pin (rule 6): a
/// total that was parked for the wave rides on, on the token's own frame.
/// `None` when the route failed the run.
#[inline]
fn route_to<S: Substrate>(
    s: &mut S,
    to: At,
    (tc, thread_count): (u32, usize),
    token: &dyn Token,
    env: &mut Envelope,
    key: Option<&WaveKey>,
) -> Option<u32> {
    let (mut stack, mut heap) = ([0; STACK_LOAD], Vec::new());
    let load = match thread_count {
        0 | 1 => None,
        2..=STACK_LOAD => Some(&mut stack[..thread_count]),
        _ => {
            heap.resize(thread_count, 0);
            Some(&mut heap[..])
        }
    };
    let load = load.map(|load| {
        s.load(to.app, tc, load);
        &*load
    });
    let info = RouteInfo { thread_count, load };
    let routed = s.route(to, token, &info);
    let thread = routed.map_err(|e| s.fail(to.app, e)).ok()? as u32;
    let Some(key) = key else { return Some(thread) };
    Some(match s.pin(to, tc, key, thread) {
        Routed::Follow(pinned) => pinned,
        Routed::Pinned { parked: None } => thread,
        Routed::Pinned { parked } => {
            env.frames.last_mut().expect("keyed by it").total = parked;
            thread
        }
    })
}

/// Deliver `token` to node `to`: route it to a thread and hand it to the
/// substrate. Work bound to a dead node that cannot move fails the run
/// `NodeDown`.
pub fn deliver<S: Substrate>(s: &mut S, to: At, src: u32, token: Carried, mut env: Envelope) {
    let At { app, graph, node } = to;
    let (tc, kind) = {
        let n = s.decls().def(app, graph).node(node);
        (n.tc, n.kind)
    };
    let key = matches!(kind, OpKind::Merge | OpKind::Stream)
        .then(|| env.wave_key().expect("validated: merges are under a split"));
    let threads = (tc, s.decls().threads(app, tc));
    let Some(mut thread) = route_to(s, to, threads, &*token, &mut env, key.as_ref()) else {
        return;
    };
    let mut dst = s.decls().host(app, tc, thread);
    if !s.node_up(dst) {
        // The thread was picked from a snapshot older than its node's death,
        // or is a pin that died since it was looked up: route once more, on
        // a snapshot taken now (a dead pin moves).
        if threads.1 > 1 {
            match route_to(s, to, threads, &*token, &mut env, key.as_ref()) {
                Some(again) => thread = again,
                None => return,
            }
            dst = s.decls().host(app, tc, thread);
        }
        if !s.node_up(dst) {
            // The route insists on a dead thread (stateful affinity, or the
            // whole collection is down): the work cannot be re-queued.
            return s.fail(app, node_down(s, to, tc, thread));
        }
    }
    let token = match s.enforce_serialization() && src != dst {
        true => match wire_roundtrip(&*token, s.decls().registry(app)) {
            Ok(t) => Carried::from_box(t),
            Err(e) => return s.fail(app, e),
        },
        false => token,
    };
    let sent = enqueue(s, src, &*token, &env);
    s.send(to, thread, src, Arrival::Token(token), env, sent);
}

/// `token` leaves node `from` (rule 5): on to its successor, back into the
/// calling graph and on from the call node, or out as an output.
pub fn emit<S: Substrate>(s: &mut S, mut from: At, src: u32, token: Carried, mut env: Envelope) {
    loop {
        let def = s.decls().def(from.app, from.graph);
        let next = exit(def, from.node, &*token, &env, |id| s.call_return(id));
        match next {
            Ok(Exit::To(node)) => return deliver(s, At { node, ..from }, src, token, env),
            Ok(Exit::Return(ret)) => (from, env) = (ret.at, ret.env),
            Ok(Exit::Output) => return s.output(from.app, from.graph, token),
            Err(e) => return s.fail(from.app, e),
        }
    }
}

/// Hand the close of the wave `env` names to the thread the wave is pinned
/// on, or park it until a token pins the wave and takes it along (rule 6).
pub fn close<S: Substrate>(s: &mut S, app: u32, graph: u32, env: Envelope, total: u32) {
    let key = env
        .wave_key()
        .expect("close envelopes carry the wave frame");
    let node = match close_node(s.decls().def(app, graph), &key) {
        Ok(n) => n,
        Err(e) => return s.fail(app, e),
    };
    let tc = s.decls().def(app, graph).node(node).tc;
    let alive = |t| s.node_up(s.decls().host(app, tc, t));
    let found = s.pins(app, graph, |pins| pins.close(&key, total, alive));
    if let CloseTo::Deliver(thread) = found {
        // A close is control info of the wave's own node: never on a wire.
        let host = s.decls().host(app, tc, thread);
        let to = At { app, graph, node };
        s.send(to, thread, host, Arrival::Close(total), env, None)
    }
}

/// Rule 6, the loss: the node of thread `thread` died, and `lane` — its
/// instances — dies with it. A wave it counted a token of is lost: the run
/// fails `NodeDown`. A wave it counted none of moves, and a total it had
/// heard goes back through [`close`] — to follow the new pin, or to park.
/// Either way the wave is un-pinned, so a pin still found on a dead thread
/// is a wave nothing was consumed of.
fn lose<S: Substrate>(s: &mut S, app: u32, thread: u32, lane: Instances) {
    // No rule reads a table in iteration order: by wave id.
    let mut waves: Vec<_> = lane.waves.into_iter().collect();
    waves.sort_by_key(|(key, _)| key.wave);
    for (key, wave) in waves {
        s.pins(app, wave.graph, |pins| pins.unpin(&key, thread));
        if wave.received > 0 {
            let at = At {
                app,
                graph: wave.graph,
                node: wave.node,
            };
            let tc = s.decls().def(app, wave.graph).node(wave.node).tc;
            s.fail(app, node_down(s, at, tc, thread));
        } else if let (Some(total), Some(env)) = (wave.expected, wave.closed_under) {
            close(s, app, wave.graph, env, total);
        }
    }
}

/// Who died, as [`bury`] is told.
pub enum Death<'a, L> {
    /// Cluster node `n` dies now, with the feedback sink to tell, if one is
    /// registered. Recorded on the node's track.
    Node(u32, Option<Feedback<'a>>),
    /// The thread of this lane is on a node that died before, and still
    /// held something: a token that landed there since, or what a tombstone
    /// drains. Recorded on the lane's track.
    Lane(&'a mut L),
}

/// Rules 6 and 8: a node died, and what its threads held is lost or moves —
/// the one body of a kill, on every engine. `lanes` are its threads
/// (application, index within the collection, instances), `stranded` the
/// arrivals found on them (where headed, what, under which envelope).
///
/// A kill records `NodeDown` and tells the feedback sink which workers it
/// lost; each lane gives its waves up (`lose`); a `Requeue` of the stranded
/// tokens is recorded, and a kill's `Fault` breadcrumb repeats that count;
/// then the stranded arrivals go back to the router from cluster node
/// `from`: a token is delivered again, a close follows its wave or parks —
/// tokens first, so a close follows its wave to where its first re-routed
/// token re-pinned it.
pub fn bury<S: Substrate>(
    s: &mut S,
    death: Death<'_, S::Lane>,
    lanes: Vec<(u32, u32, Instances)>,
    mut stranded: Vec<(At, Arrival, Envelope)>,
    from: u32,
) {
    let on = match death {
        Death::Node(node, feedback) => {
            s.trace(On::Node(node), |mut rec| {
                rec.record(rec.now, EventKind::NodeDown { node: node as u16 });
                rec.count(Counter::NodesDown, 1);
            });
            if let Some((sink, reporters)) = feedback {
                for worker in lost_workers(s.decls(), reporters, node) {
                    sink.worker_lost(worker);
                }
            }
            On::Node(node)
        }
        Death::Lane(lane) => On::Lane(lane),
    };
    for (app, thread, lane) in lanes {
        lose(s, app, thread, lane);
    }
    stranded.sort_by_key(|(_, what, _)| matches!(what, Arrival::Close(_)));
    let tokens = stranded.partition_point(|(_, what, _)| matches!(what, Arrival::Token(_))) as u32;
    let killed = matches!(on, On::Node(_));
    s.trace(on, |mut rec| {
        if tokens > 0 {
            rec.record(rec.now, EventKind::Requeue { tokens });
            rec.count(Counter::Requeues, tokens.into());
        }
        if killed {
            let (code, detail) = (fault_code::NODE_KILL, tokens.into());
            rec.record(rec.now, EventKind::Fault { code, detail });
        }
    });
    for (to, what, env) in stranded {
        match what {
            Arrival::Token(token) => deliver(s, to, from, token, env),
            Arrival::Close(total) => close(s, to.app, to.graph, env, total),
        }
    }
}

/// Rules 6 and 8 for node `node`, dead, whose threads another process
/// served (after [`bury`]): nothing they held comes back. A wave pinned on
/// one of them is lost, and so are the `n` data objects `owed` says thread
/// `(app, tc, thread)` did not answer: either fails the run `NodeDown`.
pub fn lose_served<S: Substrate>(s: &mut S, node: u32, owed: Option<((u32, u32, u32), u32)>) {
    let d = s.decls();
    let mut lost = None;
    for (app, a) in (0..).zip(d.apps()) {
        for graph in 0..a.graphs.len() as u32 {
            let def = d.def(app, graph);
            let on_node = |key: &WaveKey, thread| {
                let at = At {
                    app,
                    graph,
                    node: close_node(def, key).ok()?,
                };
                let tc = def.node(at.node).tc;
                (d.host(app, tc, thread) == node).then_some((at, tc, thread))
            };
            // The first by id: no rule reads a table in iteration order.
            let pinned = s.pins(app, graph, |pins| {
                let on = pins.0.iter().filter_map(|(key, slot)| match *slot {
                    Slot::Pinned(thread) => on_node(key, thread).map(|on| (key.wave, on)),
                    Slot::Parked(_) => None,
                });
                on.min_by_key(|&(wave, _)| wave).map(|(_, on)| on)
            });
            if let (None, Some((at, tc, thread))) = (&lost, pinned) {
                lost = Some((app, node_down(s, at, tc, thread)));
            }
        }
    }
    let lost = lost.or_else(|| {
        let ((app, tc, thread), n) = owed?;
        let target = format!("thread {thread} of collection {tc} ({n} unanswered)");
        let node = d.node_name(node).to_string();
        Some((app, DpsError::NodeDown { node, target }))
    });
    if let Some((app, e)) = lost {
        s.fail(app, e);
    }
}

/// Release what flow `key` may release now; each post goes through [`emit`].
pub fn pump<S: Substrate>(s: &mut S, app: u32, graph: u32, key: FlowKey) {
    release(s, app, graph, key, false);
}

/// The matching merge consumed one token of flow `key`: return the credit,
/// and release what it admits — the credit rides on the first
/// [`Substrate::next_post`], so it takes the flow table no extra time.
pub fn credit<S: Substrate>(s: &mut S, app: u32, graph: u32, key: FlowKey) {
    release(s, app, graph, key, true);
}

fn release<S: Substrate>(s: &mut S, app: u32, graph: u32, key: FlowKey, mut credit: bool) {
    let node = GNodeId(key.0);
    while let Some((token, env, src)) = s.next_post(app, graph, key, std::mem::take(&mut credit)) {
        emit(s, At { app, graph, node }, src, token, env);
    }
}

fn contract(s: &impl Substrate, at: At, reason: String) -> DpsError {
    DpsError::OperationContract {
        node: s.decls().def(at.app, at.graph).node(at.node).name.clone(),
        reason,
    }
}

/// An operation [`serve`] found ready to run, here or in another process.
pub struct Ready<'a> {
    /// The operation instance (rule 7).
    pub served: Served<'a>,
    /// The node it serves.
    pub gnode: &'a GraphNode,
    /// The token to consume; `None` for a close that completed its wave.
    pub token: Option<Carried>,
    /// The arrival completes a merge/stream wave: its finalize runs.
    pub completes: bool,
}

impl Ready<'_> {
    /// Run it into `out`, which the calling thread keeps from one run to the
    /// next: it is cleared first ([`OpOutput::clear`]), then `on_token` runs
    /// if a token arrived, then `on_finalize` if the arrival completes the
    /// wave. The caller drains the posts (into [`then`]), so a run allocates
    /// nothing for them.
    #[inline]
    pub fn run(self, data: &mut dyn Any, info: ExecInfo, out: &mut OpOutput) -> Result<()> {
        let gnode = self.gnode;
        let op = match self.served {
            Served::Node(inst, slot) => inst.node_op(slot, gnode)?,
            Served::Wave(wave) => wave.op(gnode)?,
        };
        out.clear();
        if let Some(token) = self.token {
            op.on_token(out, data, info, &gnode.name, token)?;
        }
        if self.completes {
            op.on_finalize(out, data, info, &gnode.name)?;
        }
        Ok(())
    }
}

/// What an arrival at a thread calls for.
pub enum Serve<'a> {
    /// Run the operation, then hand its posts to [`then`] with the `Then`.
    Run(Ready<'a>, Then),
    /// A token reached call node `At` under this envelope: the engine makes
    /// the [`call`] and delivers the token to the callee when it chooses.
    Call(At, Envelope, Carried),
    /// A close found data objects still missing: the finalize waits for them.
    Wait,
}

/// What `what`, arriving under `env` at node `at` on a thread whose
/// instances are `inst`, calls for — on every engine. A split/leaf token
/// runs the node's instance. A merge/stream arrival finds the record of the
/// wave `env` names on its top frame, or enters it — only then is the key
/// cloned and `out_wave` asked for the id the wave's stream output travels
/// under — is counted in (rule 1) and runs the wave's instance, unless it is
/// a close that finds data objects missing. A call node's token makes a
/// graph call. No substrate is borrowed, so an engine can lend its
/// declarations and a thread's instances side by side.
#[inline]
pub fn serve<'a>(
    d: &'a Decls,
    inst: &'a mut Instances,
    at: At,
    what: Arrival,
    mut env: Envelope,
    out_wave: impl FnOnce() -> u64,
) -> Result<Serve<'a>> {
    let gnode = d.def(at.app, at.graph).node(at.node);
    let (served, token, completes, then) = match (gnode.kind, what) {
        (OpKind::Split | OpKind::Leaf, Arrival::Token(token)) => {
            let served = Served::Node(inst, (at.graph, at.node.0));
            (served, Some(token), false, Then::Exec { at, env })
        }
        (OpKind::Merge | OpKind::Stream, what) => {
            let key = env.wave_key().expect("validated depth >= 1");
            if !inst.waves.contains_key(&key) {
                let entered = Wave::new(at.graph, at.node, out_wave());
                inst.waves.insert(key.clone(), entered);
            }
            let wave = inst.waves.get_mut(&key).expect("entered above");
            let frame = env.pop().expect("keyed by it");
            let (token, completes) = match what {
                Arrival::Token(token) => (Some(token), wave.admit(frame.total, &gnode.name)?),
                Arrival::Close(total) if wave.close(total, &gnode.name)? => (None, true),
                Arrival::Close(_) => {
                    env.push(frame);
                    wave.closed_under = Some(env);
                    return Ok(Serve::Wait);
                }
            };
            let step = WaveStep {
                at,
                key,
                parent_env: env,
                out_wave: wave.out_wave,
                completes,
                consumed: token.is_some(),
            };
            (Served::Wave(wave), token, completes, Then::Wave { step })
        }
        (OpKind::Call | OpKind::CallSplit, Arrival::Token(token)) => {
            return Ok(Serve::Call(at, env, token));
        }
        (_, Arrival::Close(_)) => unreachable!("closes only target merge/stream nodes"),
    };
    let ready = Ready {
        served,
        gnode,
        token,
        completes,
    };
    Ok(Serve::Run(ready, then))
}

/// What the posts of the operation [`serve`] picked call for, once it ran —
/// here, or in the process serving the thread, which sends it back with
/// them (it is a [`Wire`](dps_serial::Wire) value).
#[derive(Debug, Clone, PartialEq)]
pub enum Then {
    /// A split/leaf ran at `at`, under `env`.
    Exec {
        /// The split/leaf.
        at: At,
        /// The envelope it ran under.
        env: Envelope,
    },
    /// A merge/stream consumed and/or finalized one step of its wave.
    Wave {
        /// The step.
        step: WaveStep,
    },
}

impl Then {
    /// The wave this step completed, if it did: a process that ran the step
    /// for another one's [`then`] drops the wave's record itself.
    pub fn completed(&self) -> Option<&WaveKey> {
        match self {
            Then::Wave { step } if step.completes => Some(&step.key),
            _ => None,
        }
    }

    /// The arrival the step served was a data object, not a wave's close.
    pub fn took_token(&self) -> bool {
        match self {
            Then::Exec { .. } => true,
            Then::Wave { step } => step.consumed,
        }
    }
}

impl_wire_enum!(Then {
    0 => Exec { at, env },
    1 => Wave { step },
});

/// The operation [`serve`] picked ran on `lane`, on cluster node `src`, and
/// came back with `posts`, having marked a scheduled chunk of `marked`
/// iterations complete: apply them as `then` says. `posts` is taken as it
/// comes — an operation's own `Vec` mapped to what the substrate holds per
/// post — so no second collection is built to hand it over. A split returns
/// the key of the flow it opened.
pub fn then<S: Substrate>(
    s: &mut S,
    lane: &mut S::Lane,
    then: Then,
    src: u32,
    posts: impl IntoIterator<Item = S::Post, IntoIter: ExactSizeIterator>,
    marked: Option<u64>,
) -> Result<Option<FlowKey>> {
    match then {
        Then::Exec { at, env } => after_exec(s, lane, at, src, env, posts.into_iter(), marked),
        Then::Wave { step } => {
            after_wave(s, lane, step, src, posts.into_iter(), marked).map(|()| None)
        }
    }
}

/// A split/leaf ran at `at` on cluster node `src` and came back with
/// `posts`: a split's open a wave behind the flow window (rule 2) — the key
/// of that flow is returned — a leaf's single post moves on.
fn after_exec<S: Substrate>(
    s: &mut S,
    lane: &mut S::Lane,
    at: At,
    src: u32,
    env: Envelope,
    mut posts: impl ExactSizeIterator<Item = S::Post>,
    marked: Option<u64>,
) -> Result<Option<FlowKey>> {
    let gnode = s.decls().def(at.app, at.graph).node(at.node);
    let (kind, name) = (gnode.kind, &gnode.name);
    s.trace(On::Lane(lane), |rec| {
        ran(rec, at, name, env_wave(&env), marked)
    });
    if let Some(iters) = marked {
        s.report(lane, iters);
    }
    match kind {
        OpKind::Split => {
            let wave = s.opened(lane, at);
            wave_edge(s, lane, at, wave, true);
            let def = s.decls().def(at.app, at.graph);
            let flow = open_wave(def, at.node, wave, env, posts, src);
            let key = (at.node.0, wave);
            s.flows(at.app, at.graph, |flows| flows.insert(key, flow));
            pump(s, at.app, at.graph, key);
            Ok(Some(key))
        }
        OpKind::Leaf => {
            // A local leaf is held to this by its adapter; a remote one is
            // only as good as the process that answered.
            let n = posts.len();
            let (Some(post), 1) = (posts.next(), n) else {
                let reason = format!("leaf execution returned {n} posts (exactly 1 required)");
                return Err(contract(s, at, reason));
            };
            s.leave(post, at, src, env);
            Ok(None)
        }
        _ => unreachable!("only splits and leaves execute"),
    }
}

/// One step of a merge/stream wave, from [`serve`] to [`then`].
#[derive(Debug, Clone, PartialEq)]
pub struct WaveStep {
    /// The merge/stream node.
    at: At,
    /// The wave.
    key: WaveKey,
    /// The arrival's envelope, the wave's frame popped.
    parent_env: Envelope,
    /// The id the wave's stream output travels under.
    out_wave: u64,
    /// The arrival completed the wave: its finalize ran.
    completes: bool,
    /// The arrival was a token (it returns a flow credit), not the close.
    consumed: bool,
}

impl_wire!(WaveStep {
    at,
    key,
    parent_env,
    out_wave,
    completes,
    consumed
});

/// A consume and/or finalize ran on cluster node `src` and came back with
/// `posts`: a completed merge's output moves on, a stream's posts join its
/// output flow (rule 3; a total no pending post can carry goes out as a
/// close); a completed wave leaves the tables, a consumed token returns its
/// credit.
fn after_wave<S: Substrate>(
    s: &mut S,
    lane: &mut S::Lane,
    step: WaveStep,
    src: u32,
    posts: impl ExactSizeIterator<Item = S::Post>,
    marked: Option<u64>,
) -> Result<()> {
    let (at, out_wave, completes) = (step.at, step.out_wave, step.completes);
    let At { app, graph, node } = at;
    // A marked chunk is recorded and reported before any post can be seen
    // downstream. A consume's span is recorded before its posts leave, a
    // close's after: recorded schedules (and their hashes) keep their event
    // order.
    let wave = step.key.wave as u32;
    let span = |s: &S, lane: &mut S::Lane, marked| {
        let name = &s.decls().def(app, graph).node(node).name;
        s.trace(On::Lane(lane), |rec| ran(rec, at, name, wave, marked));
    };
    if step.consumed {
        span(s, lane, marked);
    } else if let Some(iters) = marked {
        s.trace(On::Lane(lane), |mut rec| chunk(&mut rec, iters));
    }
    if let Some(iters) = marked {
        s.report(lane, iters);
    }
    match s.decls().def(app, graph).node(node).kind {
        OpKind::Merge if completes => {
            let Some(post) = posts.last() else {
                let reason = "merge wave completed without an output".into();
                return Err(contract(s, at, reason));
            };
            s.leave(post, at, src, step.parent_env);
        }
        OpKind::Stream if completes || posts.len() > 0 => {
            let flow_key = (node.0, out_wave);
            let stream = &s.decls().def(app, graph).node(node).name;
            let parent = step.parent_env;
            let closing = s.flows(app, graph, |flows| {
                let opened = || Flow::stream(src, node, out_wave, parent);
                flows
                    .entry(flow_key)
                    .or_insert_with(opened)
                    .append(stream, posts, completes)
            })?;
            if let Some((close_env, total)) = closing {
                close(s, app, graph, close_env, total);
            }
            pump(s, app, graph, flow_key);
        }
        OpKind::Merge | OpKind::Stream => {}
        _ => unreachable!("only merges and streams consume waves"),
    }
    if !step.consumed {
        span(s, lane, None);
    }
    if completes {
        wave_edge(s, lane, at, step.key.wave, false);
        s.wave_done(lane, at, &step.key);
        s.pins(app, graph, |pins| pins.remove(&step.key));
    }
    if step.consumed {
        credit(s, app, graph, (step.key.src.0, step.key.wave));
    }
    Ok(())
}

/// The token at call node `at` enters the graph its service names (rule 5),
/// under a root envelope whose call stack is the caller's plus this call.
/// Returns the callee's entry and that envelope: the substrate delivers
/// the token there once the call's own overhead has passed.
pub fn call<S: Substrate>(s: &mut S, at: At, env: Envelope) -> Result<(At, Envelope)> {
    let service = s
        .decls()
        .def(at.app, at.graph)
        .node(at.node)
        .service
        .as_deref();
    let service = service.expect("call nodes carry a service name");
    let Some(GraphHandle { app, graph }) = s.decls().service(service) else {
        let name = service.to_string();
        return Err(DpsError::UnknownService { name });
    };
    let mut callee = Envelope::root();
    callee.calls = env.calls.clone();
    let call_id = s.remember_call(CallReturn { at, env });
    callee.calls.push(CallFrame {
        caller_app: at.app,
        caller_graph: at.graph,
        call_node: at.node,
        call_id,
    });
    let node = s.decls().def(app, graph).entry();
    Ok((At { app, graph, node }, callee))
}
