//! The rules of a wave: what a flow graph means, whatever executes it.
//!
//! Wave counting, merge completion, stream numbering, flow-control credits,
//! wave pinning, graph exits and call returns are properties of the *graph*.
//! They are written here once, and every engine — the simulator in this
//! crate, the `dps-mt` worker, the `dps-netengine` executor lane — calls
//! them; `docs/ARCHITECTURE.md` §1 "The rules of a wave" is the reference
//! table.
//!
//! The one contract: **every rule is pure over the tables passed in.**
//! Nothing here takes a lock, reads a clock, records a trace event, sends a
//! message or schedules anything. The caller owns locking (a `&mut` here is
//! whatever its mutex yields), time (when a released post actually leaves)
//! and tracing; a rule only says what happens to the wave.

use std::collections::{HashMap, VecDeque};

use crate::envelope::{CallFrame, Envelope, Frame, GNodeId, WaveKey};
use crate::error::{DpsError, Result};
use crate::graph::{Flowgraph, GraphNode};
use crate::ops::DynOp;
use crate::token::Token;

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
/// tokens arrived against how many its producer posted (rule 1), where its
/// stream output stands (rule 3), and its operation instance (rule 7).
///
/// A thread that only accounts for a wave executed elsewhere (`dps-mt`
/// with a remote host) never asks for the instance; the host executing it
/// never counts.
pub struct Wave {
    /// Graph the wave is consumed in.
    pub graph: u32,
    /// The merge/stream node consuming it.
    pub node: GNodeId,
    received: u32,
    expected: Option<u32>,
    out_wave: u64,
    out_index: u32,
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
            out_index: 0,
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

    /// No token consumed yet: nothing is lost if the wave moves (rule 6).
    pub fn is_fresh(&self) -> bool {
        self.received == 0
    }

    /// Tokens counted in so far.
    pub fn received(&self) -> u32 {
        self.received
    }

    /// The wave size, once known.
    pub fn expected(&self) -> Option<u32> {
        self.expected
    }

    /// The id this wave's stream output travels under.
    pub fn out_wave(&self) -> u64 {
        self.out_wave
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

    /// Rule 3: queue what one consume (or the finalize, `completes`) of a
    /// stream posted onto the wave's output `flow`. Posts are numbered
    /// contiguously from 0 across the whole wave. When the wave completes,
    /// the total rides on the last post still pending; if none is — the last
    /// data object is already in flight — it must travel as a wave-close,
    /// and this returns that close's envelope and total for the caller to
    /// deliver.
    pub fn append<P>(
        &mut self,
        flow: &mut Flow<P>,
        stream: &GraphNode,
        parent_env: &Envelope,
        posts: impl IntoIterator<Item = P>,
        completes: bool,
    ) -> Result<Option<(Envelope, u32)>> {
        let out_wave = self.out_wave;
        let framed = |index, total| {
            let mut env = parent_env.clone();
            env.push(Frame {
                src: stream.id,
                wave: out_wave,
                index,
                total,
            });
            env
        };
        for post in posts {
            flow.pending.push_back((post, framed(self.out_index, None)));
            self.out_index += 1;
        }
        if !completes {
            return Ok(None);
        }
        let total = self.out_index;
        if total == 0 {
            return Err(DpsError::OperationContract {
                node: stream.name.clone(),
                reason: "stream operation posted no tokens across its wave".into(),
            });
        }
        flow.complete = true;
        Ok(match flow.pending.back_mut() {
            Some((_, env)) => {
                env.frames.last_mut().expect("framed above").total = Some(total);
                None
            }
            None => Some((framed(0, Some(total)), total)),
        })
    }
}

/// Rule 7: the operation instances within one scope — a DPS thread, or one
/// graph of the simulator. A split/leaf node has one instance per thread,
/// made on first use and kept; a merge/stream has one per [`Wave`].
#[derive(Default)]
pub struct Instances {
    nodes: HashMap<(u32, u32), Box<dyn DynOp>>,
    /// The live waves: entered when the wave is first heard of, removed by
    /// the caller when it completes.
    pub waves: HashMap<WaveKey, Wave>,
}

impl Instances {
    /// The split/leaf instance in `slot` — any pair that names (graph, node,
    /// thread) within this table: a per-thread table passes `(graph, node)`,
    /// a per-graph one `(node, thread)`.
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
/// window. `P` is whatever the engine holds per pending post next to its
/// envelope (the token; on the simulator also its send time).
///
/// A post is *pending* until released, then *outstanding* until the
/// matching merge consumed it and returned the credit.
pub struct Flow<P> {
    pending: VecDeque<(P, Envelope)>,
    outstanding: u32,
    /// No further post will be appended (always true for a split's wave).
    complete: bool,
    /// No merge of this graph returns credits (rule 2): not window-limited.
    unbounded: bool,
}

impl<P> Flow<P> {
    /// The still-open output flow of a stream wave (filled by
    /// [`Wave::append`]).
    pub fn stream() -> Self {
        Self {
            pending: VecDeque::new(),
            outstanding: 0,
            complete: false,
            unbounded: false,
        }
    }

    fn open(&self, window: u32) -> bool {
        self.unbounded || window == 0 || self.outstanding < window
    }

    /// The post [`pop`](Self::pop) would release next, if `window` (0 = no
    /// limit) admits one.
    pub fn front(&self, window: u32) -> Option<&P> {
        self.pending
            .front()
            .filter(|_| self.open(window))
            .map(|(p, _)| p)
    }

    /// Release the next pending post if `window` admits one.
    pub fn pop(&mut self, window: u32) -> Option<(P, Envelope)> {
        if !self.open(window) {
            return None;
        }
        let post = self.pending.pop_front()?;
        self.outstanding += 1;
        Some(post)
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
/// in it; the last one carries the total. A split with no matching merge in
/// its own graph (the exit split of a serving graph) opens an unbounded
/// flow.
pub fn open_wave<P>(
    def: &Flowgraph,
    split: GNodeId,
    wave: u64,
    env: &Envelope,
    posts: impl ExactSizeIterator<Item = P>,
) -> Flow<P> {
    let total = posts.len() as u32;
    let pending = posts
        .enumerate()
        .map(|(i, post)| {
            let index = i as u32;
            let mut env = env.clone();
            env.push(Frame {
                src: split,
                wave,
                index,
                total: (index + 1 == total).then_some(total),
            });
            (post, env)
        })
        .collect();
    Flow {
        pending,
        outstanding: 0,
        complete: true,
        unbounded: def.matching_pop(split).is_none(),
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
/// When the pinned thread's node has died, a *fresh* wave (nothing
/// consumed) moves; one with partial state is lost and the caller reports
/// `NodeDown` for the thread returned as the error.
#[derive(Default)]
pub struct Pins(HashMap<WaveKey, Slot>);

/// Where [`Pins::route`] sends a token.
#[derive(Debug, PartialEq, Eq)]
pub enum Routed {
    /// The wave is pinned on this live thread.
    Follow(u32),
    /// The wave is now pinned on the thread the route picked; `parked` is
    /// the total of a close that was waiting for it, to be applied there
    /// ahead of the token.
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
    /// whether thread `t`'s node is up; `fresh()` — asked only about a dead
    /// pin — whether the wave has consumed nothing there.
    pub fn route(
        &mut self,
        key: &WaveKey,
        routed: u32,
        alive: impl Fn(u32) -> bool,
        fresh: impl FnOnce() -> bool,
    ) -> std::result::Result<Routed, u32> {
        let Some(slot) = self.0.get_mut(key) else {
            self.0.insert(key.clone(), Slot::Pinned(routed));
            return Ok(Routed::Pinned { parked: None });
        };
        match *slot {
            Slot::Pinned(t) if alive(t) => return Ok(Routed::Follow(t)),
            Slot::Pinned(t) if !fresh() => return Err(t),
            _ => {}
        }
        match std::mem::replace(slot, Slot::Pinned(routed)) {
            Slot::Pinned(_) => Ok(Routed::Pinned { parked: None }),
            Slot::Parked(total) => Ok(Routed::Pinned {
                parked: Some(total),
            }),
        }
    }

    /// The close of wave `key` (carrying `total`) looks for the wave: alive
    /// pin ⇒ deliver there; no pin, or a dead pin on a fresh wave (which is
    /// un-pinned) ⇒ park; dead pin with partial state ⇒ `Err(thread)`.
    pub fn close(
        &mut self,
        key: &WaveKey,
        total: u32,
        alive: impl Fn(u32) -> bool,
        fresh: impl FnOnce() -> bool,
    ) -> std::result::Result<CloseTo, u32> {
        match self.0.get(key) {
            Some(&Slot::Pinned(t)) if alive(t) => return Ok(CloseTo::Deliver(t)),
            Some(&Slot::Pinned(t)) if !fresh() => return Err(t),
            _ => {}
        }
        self.0.insert(key.clone(), Slot::Parked(total));
        Ok(CloseTo::Parked)
    }

    /// The wave completed (or is lost): forget it.
    pub fn remove(&mut self, key: &WaveKey) {
        self.0.remove(key);
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

/// Where the result of a graph call continues: the call node, and the
/// envelope the call was made under.
#[derive(Debug, Clone)]
pub struct CallReturn {
    /// Calling application.
    pub app: u32,
    /// Graph of the call node.
    pub graph: u32,
    /// The call node.
    pub node: GNodeId,
    /// Envelope of the token that made the call.
    pub env: Envelope,
}

/// Rule 5, outbound: the token at call node `node` enters the callee graph
/// under a root envelope whose call stack is the caller's plus this call.
/// Returns what to remember under `call_id` and the callee envelope.
pub fn call(
    call_id: u64,
    app: u32,
    graph: u32,
    node: GNodeId,
    env: Envelope,
) -> (CallReturn, Envelope) {
    let mut callee = Envelope::root();
    callee.calls = env.calls.clone();
    callee.calls.push(CallFrame {
        caller_app: app,
        caller_graph: graph,
        call_node: node,
        call_id,
    });
    (
        CallReturn {
            app,
            graph,
            node,
            env,
        },
        callee,
    )
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
/// it, so [`lost_workers`] knows whose thread indices the sink speaks.
pub fn note_reporter(reporters: &mut Vec<(u32, u32)>, app: u32, tc: u32) {
    if !reporters.contains(&(app, tc)) {
        reporters.push((app, tc));
    }
}

/// Rule 8: the `FeedbackSink::worker_lost` indices of cluster node `dead`.
/// The sink's worker indices are thread indices within the *reporting*
/// collections, so only those are consulted (`hosts(app, tc)` is the node of
/// each of a collection's threads): an unrelated collection hosted on the
/// dead node must not wipe a live worker that shares a thread index.
pub fn lost_workers<'a, N: PartialEq + 'a>(
    reporters: &[(u32, u32)],
    hosts: impl Fn(u32, u32) -> &'a [N],
    dead: &N,
) -> Vec<usize> {
    let mut lost = Vec::new();
    for &(app, tc) in reporters {
        for (thread, host) in hosts(app, tc).iter().enumerate() {
            if host == dead && !lost.contains(&thread) {
                lost.push(thread);
            }
        }
    }
    lost
}
