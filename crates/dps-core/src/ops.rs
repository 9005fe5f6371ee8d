//! The four elementary DPS operations and their execution contexts.
//!
//! Paper §2: "The nodes on the graph are user-written functions deriving
//! from the elementary DPS operations: leaf operation, split operation,
//! merge operation, and stream operation."
//!
//! * A **split** takes one data object and posts several (the subtasks).
//! * A **leaf** takes one data object and posts exactly one.
//! * A **merge** collects the whole wave produced by the matching split and
//!   posts exactly one result. The paper's merge loops on
//!   `waitForNextToken()`; a blocking call cannot run on the deterministic
//!   single-threaded simulator, so the same control flow is expressed as a
//!   state machine: the loop body becomes [`MergeOperation::consume`] and
//!   the code after the loop becomes [`MergeOperation::finalize`]. One
//!   operation instance exists per wave, so loop-local state becomes fields.
//! * A **stream** collects like a merge but may post data objects *at any
//!   time* ("a merge and a split operation combined"), pipelining successive
//!   split-merge constructs.
//!
//! Operations execute on the threads of a [`ThreadCollection`]
//! (crate::ThreadCollection) and may keep per-thread state of type
//! [`Self::Thread`] — that is how distributed data structures are built
//! (paper §2: "operations can store data within their local threads, e.g. a
//! matrix distributed across different nodes").
//!
//! ## Virtual time
//!
//! Inside an operation, [`OpCtx::charge`] / [`OpCtx::charge_flops`] advance
//! the operation's virtual cost; a token posted after a charge leaves at
//! that offset into the operation ("data objects are transferred as soon as
//! they are computed"). Operations that never charge are billed the
//! engine's fixed per-operation overhead.

use std::any::Any;
use std::marker::PhantomData;

use dps_des::SimSpan;

use crate::error::{DpsError, Result};
use crate::token::{Carried, Token};

/// Per-thread user state. Automatically implemented for any
/// `Default + Send + 'static` type; use `()` when no thread state is needed.
pub trait ThreadData: Any + Send + Default + 'static {}
impl<T: Any + Send + Default + 'static> ThreadData for T {}

/// One posted output with its virtual-time offset into the operation.
#[derive(Debug)]
pub struct Post {
    /// The posted data object: in place if it is small (see
    /// [`OpCtx::post`]).
    pub token: Carried,
    /// Charged virtual time at the moment of posting (relative to the
    /// operation's start, excluding the engine's base overhead).
    pub offset: SimSpan,
}

/// Type-erased execution record filled in by an operation run; consumed by
/// the engine. An engine thread keeps one and reuses it from run to run
/// (`kernel::Ready::run` clears it first), draining the posts after each, so the
/// post buffer is allocated once per thread, not once per run.
#[derive(Debug, Default)]
pub struct OpOutput {
    /// Posted tokens in post order.
    pub posts: Vec<Post>,
    /// Total virtual time charged by the operation.
    pub charged: SimSpan,
    /// Set via [`OpCtx::mark_chunk`]: this execution completed a scheduled
    /// chunk of that many loop iterations. Engines report the chunk's
    /// completion time to their registered feedback sink.
    pub completed_iters: Option<u64>,
}

/// The most posts a reused [`OpOutput`] keeps room for from one run to the
/// next: a wider buffer — a split that posted a whole loop's chunks — is
/// given back rather than pinned for the life of the thread.
const RETAINED_POSTS: usize = 1024;

impl OpOutput {
    /// Empty it for the next run: no post, nothing charged, no chunk
    /// marked. The post buffer is kept unless it holds room for more than
    /// `RETAINED_POSTS` (1024).
    pub fn clear(&mut self) {
        match self.posts.capacity() > RETAINED_POSTS {
            true => self.posts = Vec::new(),
            false => self.posts.clear(),
        }
        self.charged = SimSpan::ZERO;
        self.completed_iters = None;
    }

    /// The posts with their buffer, if it holds room for more than
    /// `RETAINED_POSTS`: a wide split's posts are handed over whole, so an
    /// engine converts them in place into the queue of the flow they open
    /// (`Vec::into_iter().map(..).collect()` and `VecDeque::from_iter` of a
    /// `Vec` keep its allocation) instead of copying them out of a buffer
    /// the thread keeps.
    pub fn take_wide(&mut self) -> Option<Vec<Post>> {
        (self.posts.capacity() > RETAINED_POSTS).then(|| std::mem::take(&mut self.posts))
    }
}

/// Immutable facts about the executing thread, provided by the engine.
#[derive(Debug, Clone, Copy)]
pub struct ExecInfo {
    /// Index of the executing thread within its collection.
    pub thread_index: usize,
    /// Number of threads in the collection.
    pub thread_count: usize,
    /// Compute rate (FLOP/s) of the node hosting the thread, used by
    /// [`OpCtx::charge_flops`].
    pub node_flops: f64,
    /// Virtual time at operation start, in nanoseconds since run start.
    pub start_nanos: u64,
}

impl ExecInfo {
    /// What a wall-clock engine tells an operation of thread `thread_index`
    /// of `thread_count`. A charge advances no clock there, so nothing reads
    /// what [`OpCtx::charge_flops`] charges: the rate is a nominal 1 GFLOP/s
    /// and the start 0.
    pub fn wall_clock(thread_index: usize, thread_count: usize) -> Self {
        Self {
            thread_index,
            thread_count,
            node_flops: 1e9,
            start_nanos: 0,
        }
    }
}

/// Execution context passed to every operation: typed posting, thread-local
/// state access, and virtual-time accounting.
pub struct OpCtx<'a, Td: ThreadData, Out: Token> {
    pub(crate) out: &'a mut OpOutput,
    pub(crate) thread: &'a mut dyn Any,
    pub(crate) info: ExecInfo,
    pub(crate) _m: PhantomData<fn(Td, Out)>,
}

impl<'a, Td: ThreadData, Out: Token> OpCtx<'a, Td, Out> {
    /// Post an output data object. It leaves the operation at the current
    /// charged offset.
    ///
    /// A token of at most 32 bytes whose alignment is at most 8 — a chunk's
    /// ticket and its result, most control tokens — travels in place from
    /// here to the operation that consumes it: posting it allocates nothing,
    /// and consuming it frees nothing. A larger or over-aligned token is
    /// boxed once, here.
    pub fn post(&mut self, token: Out) {
        self.out.posts.push(Post {
            token: Carried::new(token),
            offset: self.out.charged,
        });
    }

    /// Post a data object of a type other than the primary output type —
    /// used for multi-path graphs (paper Fig. 3) where the selected path
    /// depends on the posted token's type. Checked against the successor
    /// types at runtime.
    pub fn post_other<T: Token>(&mut self, token: T) {
        self.out.posts.push(Post {
            token: Carried::new(token),
            offset: self.out.charged,
        });
    }

    /// Mutable access to the thread-local state of the executing thread.
    pub fn thread(&mut self) -> &mut Td {
        self.thread
            .downcast_mut::<Td>()
            .expect("thread data type is enforced by the typed builder")
    }

    /// Index of the executing thread within its collection.
    pub fn thread_index(&self) -> usize {
        self.info.thread_index
    }

    /// Number of threads in the executing collection — the paper's
    /// `threadCount()`.
    pub fn thread_count(&self) -> usize {
        self.info.thread_count
    }

    /// Virtual nanoseconds since run start at which this operation began.
    pub fn start_nanos(&self) -> u64 {
        self.info.start_nanos
    }

    /// Charge `span` of virtual compute time to this operation.
    pub fn charge(&mut self, span: SimSpan) {
        self.out.charged += span;
    }

    /// Charge the virtual time needed to execute `flops` floating-point
    /// operations on the hosting node.
    pub fn charge_flops(&mut self, flops: f64) {
        let span = SimSpan::from_secs_f64(flops / self.info.node_flops);
        self.charge(span);
    }

    /// Total charged so far.
    pub fn charged(&self) -> SimSpan {
        self.out.charged
    }

    /// Declare that this execution completed `iters` iterations of a
    /// scheduled loop chunk (see [`crate::sched`]). The engine then reports
    /// the chunk's execution time — virtual on the simulator, wall-clock on
    /// the threaded engine — to its registered
    /// [`FeedbackSink`](dps_sched::FeedbackSink), feeding adaptive policies
    /// such as AWF.
    pub fn mark_chunk(&mut self, iters: u64) {
        self.out.completed_iters = Some(iters);
    }
}

/// A split operation: one input data object, several outputs (paper Fig. 1).
pub trait SplitOperation: Send + 'static {
    /// Thread-local state type of the collection this operation runs on.
    type Thread: ThreadData;
    /// Input data object type.
    type In: Token;
    /// Primary output data object type.
    type Out: Token;

    /// Process `input`, posting one output per subtask. Must post at least
    /// one token.
    fn execute(&mut self, ctx: &mut OpCtx<'_, Self::Thread, Self::Out>, input: Self::In);
}

/// A leaf (compute) operation: one input, exactly one output.
pub trait LeafOperation: Send + 'static {
    /// Thread-local state type.
    type Thread: ThreadData;
    /// Input data object type.
    type In: Token;
    /// Output data object type.
    type Out: Token;

    /// Process `input`, posting exactly one output.
    fn execute(&mut self, ctx: &mut OpCtx<'_, Self::Thread, Self::Out>, input: Self::In);
}

/// A merge operation: collects every data object of the matching split's
/// wave, then posts exactly one result.
///
/// One instance exists per wave, created from the factory passed to
/// [`GraphBuilder::merge`](crate::GraphBuilder::merge); accumulate into
/// `self`.
pub trait MergeOperation: Send + 'static {
    /// Thread-local state type.
    type Thread: ThreadData;
    /// Input data object type.
    type In: Token;
    /// Output data object type.
    type Out: Token;

    /// Called once per arriving data object, in arrival order.
    fn consume(&mut self, ctx: &mut OpCtx<'_, Self::Thread, Self::Out>, input: Self::In);

    /// Called once all data objects of the wave have been consumed; must
    /// post exactly one output.
    fn finalize(&mut self, ctx: &mut OpCtx<'_, Self::Thread, Self::Out>);
}

/// A stream operation: collects a wave like a merge, but may post outputs
/// from `consume` as well as `finalize`, enabling pipelining of successive
/// parallel constructs (paper §3, Fig. 4; crucial for the LU speedups of
/// Fig. 15).
pub trait StreamOperation: Send + 'static {
    /// Thread-local state type.
    type Thread: ThreadData;
    /// Input data object type.
    type In: Token;
    /// Output data object type.
    type Out: Token;

    /// Called once per arriving data object; may post outputs immediately.
    fn consume(&mut self, ctx: &mut OpCtx<'_, Self::Thread, Self::Out>, input: Self::In);

    /// Called when the input wave is complete; may post further outputs.
    /// Across `consume` and `finalize`, at least one token must be posted.
    fn finalize(&mut self, ctx: &mut OpCtx<'_, Self::Thread, Self::Out>);
}

// ---------------------------------------------------------------------------
// Type-erased adapters used by the engines.
// ---------------------------------------------------------------------------

/// Type-erased operation driven by an engine.
#[doc(hidden)]
pub trait DynOp: Send {
    /// Handle one arriving token (split/leaf: the whole execution;
    /// merge/stream: one `consume`).
    fn on_token(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        node_name: &str,
        tok: Carried,
    ) -> Result<()>;

    /// Finalize (merge/stream only).
    fn on_finalize(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        node_name: &str,
    ) -> Result<()>;
}

fn downcast_input<T: Token>(tok: Carried, node_name: &str) -> Result<T> {
    tok.take::<T>().map_err(|t| DpsError::OperationContract {
        node: node_name.to_string(),
        reason: format!(
            "received token of type {} but expects {}",
            t.type_name(),
            std::any::type_name::<T>()
        ),
    })
}

pub(crate) struct SplitAdapter<O>(pub O);

impl<O: SplitOperation> DynOp for SplitAdapter<O> {
    fn on_token(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        node_name: &str,
        tok: Carried,
    ) -> Result<()> {
        let input = downcast_input::<O::In>(tok, node_name)?;
        let mut ctx = OpCtx::<O::Thread, O::Out> {
            out,
            thread,
            info,
            _m: PhantomData,
        };
        self.0.execute(&mut ctx, input);
        if out.posts.is_empty() {
            return Err(DpsError::OperationContract {
                node: node_name.to_string(),
                reason: "split operation posted no tokens".into(),
            });
        }
        Ok(())
    }

    fn on_finalize(
        &mut self,
        _out: &mut OpOutput,
        _thread: &mut dyn Any,
        _info: ExecInfo,
        node_name: &str,
    ) -> Result<()> {
        Err(DpsError::OperationContract {
            node: node_name.to_string(),
            reason: "finalize called on a split operation".into(),
        })
    }
}

pub(crate) struct LeafAdapter<O>(pub O);

impl<O: LeafOperation> DynOp for LeafAdapter<O> {
    fn on_token(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        node_name: &str,
        tok: Carried,
    ) -> Result<()> {
        let input = downcast_input::<O::In>(tok, node_name)?;
        let mut ctx = OpCtx::<O::Thread, O::Out> {
            out,
            thread,
            info,
            _m: PhantomData,
        };
        self.0.execute(&mut ctx, input);
        if out.posts.len() != 1 {
            return Err(DpsError::OperationContract {
                node: node_name.to_string(),
                reason: format!(
                    "leaf operation must post exactly one token, posted {}",
                    out.posts.len()
                ),
            });
        }
        Ok(())
    }

    fn on_finalize(
        &mut self,
        _out: &mut OpOutput,
        _thread: &mut dyn Any,
        _info: ExecInfo,
        node_name: &str,
    ) -> Result<()> {
        Err(DpsError::OperationContract {
            node: node_name.to_string(),
            reason: "finalize called on a leaf operation".into(),
        })
    }
}

pub(crate) struct MergeAdapter<O>(pub O);

impl<O: MergeOperation> DynOp for MergeAdapter<O> {
    fn on_token(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        node_name: &str,
        tok: Carried,
    ) -> Result<()> {
        let input = downcast_input::<O::In>(tok, node_name)?;
        let posts_before = out.posts.len();
        let mut ctx = OpCtx::<O::Thread, O::Out> {
            out,
            thread,
            info,
            _m: PhantomData,
        };
        self.0.consume(&mut ctx, input);
        if out.posts.len() != posts_before {
            return Err(DpsError::OperationContract {
                node: node_name.to_string(),
                reason: "merge operation posted from consume (use a stream operation)".into(),
            });
        }
        Ok(())
    }

    fn on_finalize(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        node_name: &str,
    ) -> Result<()> {
        let posts_before = out.posts.len();
        let mut ctx = OpCtx::<O::Thread, O::Out> {
            out,
            thread,
            info,
            _m: PhantomData,
        };
        self.0.finalize(&mut ctx);
        if out.posts.len() != posts_before + 1 {
            return Err(DpsError::OperationContract {
                node: node_name.to_string(),
                reason: format!(
                    "merge finalize must post exactly one token, posted {}",
                    out.posts.len() - posts_before
                ),
            });
        }
        Ok(())
    }
}

pub(crate) struct StreamAdapter<O>(pub O);

impl<O: StreamOperation> DynOp for StreamAdapter<O> {
    fn on_token(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        _node_name: &str,
        tok: Carried,
    ) -> Result<()> {
        let input = downcast_input::<O::In>(tok, _node_name)?;
        let mut ctx = OpCtx::<O::Thread, O::Out> {
            out,
            thread,
            info,
            _m: PhantomData,
        };
        self.0.consume(&mut ctx, input);
        Ok(())
    }

    fn on_finalize(
        &mut self,
        out: &mut OpOutput,
        thread: &mut dyn Any,
        info: ExecInfo,
        _node_name: &str,
    ) -> Result<()> {
        let mut ctx = OpCtx::<O::Thread, O::Out> {
            out,
            thread,
            info,
            _m: PhantomData,
        };
        self.0.finalize(&mut ctx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dps_token;

    dps_token! {
        pub struct Num { pub v: u32 }
    }

    fn info() -> ExecInfo {
        ExecInfo {
            thread_index: 1,
            thread_count: 4,
            node_flops: 1e9,
            start_nanos: 0,
        }
    }

    struct FanOut;
    impl SplitOperation for FanOut {
        type Thread = ();
        type In = Num;
        type Out = Num;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), Num>, input: Num) {
            for i in 0..input.v {
                ctx.charge(SimSpan::from_nanos(10));
                ctx.post(Num { v: i });
            }
        }
    }

    #[test]
    fn split_adapter_posts_with_offsets() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut op = SplitAdapter(FanOut);
        op.on_token(
            &mut out,
            td.as_mut(),
            info(),
            "FanOut",
            Carried::new(Num { v: 3 }),
        )
        .unwrap();
        assert_eq!(out.posts.len(), 3);
        assert_eq!(out.posts[0].offset, SimSpan::from_nanos(10));
        assert_eq!(out.posts[2].offset, SimSpan::from_nanos(30));
        assert_eq!(out.charged, SimSpan::from_nanos(30));
    }

    /// A reused buffer runs the next operation from nothing — the split
    /// adapter's "posted no tokens" check sees only its own posts — and
    /// keeps its room unless a wide split grew it past `RETAINED_POSTS`.
    #[test]
    fn a_cleared_output_starts_empty_and_gives_back_a_wide_buffer() {
        let mut td: Box<dyn Any> = Box::new(());
        let mut out = OpOutput::default();
        for (fan, kept) in [(3, true), (RETAINED_POSTS as u32 + 1, false), (1, true)] {
            out.clear();
            let (mut op, tok) = (SplitAdapter(FanOut), Carried::new(Num { v: fan }));
            op.on_token(&mut out, td.as_mut(), info(), "FanOut", tok)
                .unwrap();
            out.completed_iters = Some(7);
            assert_eq!(out.posts.len(), fan as usize);
            assert_eq!(out.charged, SimSpan::from_nanos(10 * u64::from(fan)));
            let room = out.posts.capacity();
            out.clear();
            assert!(out.posts.is_empty() && out.completed_iters.is_none());
            assert_eq!(out.charged, SimSpan::ZERO);
            assert_eq!(out.posts.capacity() == room, kept, "fan {fan}");
        }
        let mut op = SplitAdapter(FanOut);
        let none = op.on_token(
            &mut out,
            td.as_mut(),
            info(),
            "FanOut",
            Carried::new(Num { v: 0 }),
        );
        assert!(none.is_err(), "a cleared buffer holds no earlier post");
    }

    /// Only a buffer wider than `RETAINED_POSTS` is handed over whole, its
    /// posts in order; a narrow one stays with the output for the next run.
    #[test]
    fn only_a_wide_split_hands_its_buffer_over() {
        let mut td: Box<dyn Any> = Box::new(());
        for (fan, wide) in [(3, false), (RETAINED_POSTS as u32 + 1, true)] {
            let mut out = OpOutput::default();
            let tok = Carried::new(Num { v: fan });
            (SplitAdapter(FanOut).on_token(&mut out, td.as_mut(), info(), "FanOut", tok)).unwrap();
            let room = out.posts.capacity();
            match out.take_wide() {
                Some(posts) => {
                    assert!(wide && posts.capacity() == room && out.posts.capacity() == 0);
                    let order = posts.into_iter().map(|p| p.token.take::<Num>().unwrap().v);
                    assert!(order.eq(0..fan));
                }
                None => assert!(!wide && out.posts.len() == fan as usize),
            }
        }
    }

    #[test]
    fn split_posting_nothing_is_contract_error() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut op = SplitAdapter(FanOut);
        let err = op
            .on_token(
                &mut out,
                td.as_mut(),
                info(),
                "FanOut",
                Carried::new(Num { v: 0 }),
            )
            .unwrap_err();
        assert!(matches!(err, DpsError::OperationContract { .. }));
    }

    #[test]
    fn wrong_token_type_is_contract_error() {
        dps_token! { pub struct Other { pub x: u8 } }
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut op = SplitAdapter(FanOut);
        let err = op
            .on_token(
                &mut out,
                td.as_mut(),
                info(),
                "FanOut",
                Carried::new(Other { x: 0 }),
            )
            .unwrap_err();
        assert!(err.to_string().contains("expects"));
    }

    struct Double;
    impl LeafOperation for Double {
        type Thread = u64;
        type In = Num;
        type Out = Num;
        fn execute(&mut self, ctx: &mut OpCtx<'_, u64, Num>, input: Num) {
            *ctx.thread() += 1; // count executions in thread state
            ctx.post(Num { v: input.v * 2 });
        }
    }

    #[test]
    fn leaf_adapter_accesses_thread_state() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(0u64);
        let mut op = LeafAdapter(Double);
        op.on_token(
            &mut out,
            td.as_mut(),
            info(),
            "Double",
            Carried::new(Num { v: 21 }),
        )
        .unwrap();
        assert_eq!(out.posts.len(), 1);
        assert_eq!(*td.downcast_ref::<u64>().unwrap(), 1);
        let num = out.posts.pop().unwrap().token.take::<Num>().unwrap();
        assert_eq!(num.v, 42);
    }

    #[derive(Default)]
    struct Sum {
        acc: u32,
    }
    impl MergeOperation for Sum {
        type Thread = ();
        type In = Num;
        type Out = Num;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Num>, input: Num) {
            self.acc += input.v;
        }
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Num>) {
            ctx.post(Num { v: self.acc });
        }
    }

    #[test]
    fn merge_adapter_accumulates_then_posts() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut op = MergeAdapter(Sum::default());
        for v in [1, 2, 3] {
            op.on_token(
                &mut out,
                td.as_mut(),
                info(),
                "Sum",
                Carried::new(Num { v }),
            )
            .unwrap();
        }
        assert!(out.posts.is_empty());
        op.on_finalize(&mut out, td.as_mut(), info(), "Sum")
            .unwrap();
        assert_eq!(out.posts.len(), 1);
        let num = out.posts.pop().unwrap().token.take::<Num>().unwrap();
        assert_eq!(num.v, 6);
    }

    #[derive(Default)]
    struct BadMerge;
    impl MergeOperation for BadMerge {
        type Thread = ();
        type In = Num;
        type Out = Num;
        fn consume(&mut self, ctx: &mut OpCtx<'_, (), Num>, input: Num) {
            ctx.post(input); // illegal: merges must not post from consume
        }
        fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Num>) {}
    }

    #[test]
    fn merge_posting_from_consume_rejected() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut op = MergeAdapter(BadMerge);
        let err = op
            .on_token(
                &mut out,
                td.as_mut(),
                info(),
                "BadMerge",
                Carried::new(Num { v: 1 }),
            )
            .unwrap_err();
        assert!(err.to_string().contains("stream"));
    }

    #[derive(Default)]
    struct Passthrough;
    impl StreamOperation for Passthrough {
        type Thread = ();
        type In = Num;
        type Out = Num;
        fn consume(&mut self, ctx: &mut OpCtx<'_, (), Num>, input: Num) {
            ctx.post(input); // streams may forward immediately
        }
        fn finalize(&mut self, _ctx: &mut OpCtx<'_, (), Num>) {}
    }

    #[test]
    fn stream_adapter_posts_from_consume() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut op = StreamAdapter(Passthrough);
        op.on_token(
            &mut out,
            td.as_mut(),
            info(),
            "P",
            Carried::new(Num { v: 5 }),
        )
        .unwrap();
        assert_eq!(out.posts.len(), 1);
        op.on_finalize(&mut out, td.as_mut(), info(), "P").unwrap();
        assert_eq!(out.posts.len(), 1);
    }

    #[test]
    fn charge_flops_uses_node_rate() {
        let mut out = OpOutput::default();
        let mut td: Box<dyn Any> = Box::new(());
        let mut ctx = OpCtx::<(), Num> {
            out: &mut out,
            thread: td.as_mut(),
            info: ExecInfo {
                node_flops: 70.0e6,
                ..info()
            },
            _m: PhantomData,
        };
        ctx.charge_flops(70.0e6); // one second of work
        assert_eq!(ctx.charged(), SimSpan::from_secs(1));
        assert_eq!(ctx.thread_count(), 4);
        assert_eq!(ctx.thread_index(), 1);
    }
}
