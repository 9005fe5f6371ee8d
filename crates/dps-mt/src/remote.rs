//! The remote-execution seam: distributed engines delegate *op execution*
//! to other processes while this engine keeps the whole control plane.
//!
//! The threaded engine already implements everything a cluster run needs
//! except distribution itself: wave accounting, split/merge flow control,
//! credit windows, routing, service calls. A distributed engine reuses all
//! of that by embedding an [`MtEngine`](crate::MtEngine) on the master
//! process and installing a [`RemoteExec`] hook
//! ([`MtEngine::set_remote_exec`](crate::MtEngine::set_remote_exec)): a
//! thread whose cluster node is hosted *outside* this process ships a
//! [`RemoteTask`] at each op-execution point instead of running the
//! operation locally.
//!
//! The seam is a lane per thread, which the thread's worker loop gets from
//! the hook at its start. [`RemoteLane::ship`] sends a task without
//! waiting; [`RemoteLane::wait`] blocks until the owning process has
//! returned the posts of the oldest task not yet waited for: the k-th wait
//! answers the k-th ship, and no task carries an id. Between the two the
//! worker loop keeps going: it runs the wave accounting of its next queued
//! messages and ships their tasks too, up to a fixed depth, and only then
//! waits, and applies the posts of that oldest task before looking at the
//! next. That is sound on one condition, which is the whole contract of an
//! implementation: **the tasks of one lane execute, and are answered, in
//! the order they were shipped.** Per-thread execution order, post order
//! and wave accounting are then exactly those of running each operation to
//! completion before the next; only the round trips overlap.
//!
//! Three task kinds cover the three execution points of the worker loop:
//!
//! | kind | worker-side effect |
//! |---|---|
//! | [`RemoteKind::Exec`] | run a split/leaf's `execute` on the token |
//! | [`RemoteKind::Consume`] | run a merge/stream `consume`; finalize too when `completes` |
//! | [`RemoteKind::Finalize`] | finalize a merge/stream wave (close arrived after its last token) |
//!
//! A task names its wave by [`RemoteTask::wave`], the id on the top frame of
//! the token's envelope before the consuming pop. This engine's one wave
//! counter issued it, so it is unique in the process: the remote process
//! keeps one operation instance per `(graph, node, wave)` of a
//! `Consume`/`Finalize`, mirroring the local wave table, and derives
//! nothing from an envelope. [`RemoteKind`] is what crosses the wire.

use dps_core::{DpsError, GNodeId, TokenBox};
use dps_serial::{Reader, Wire, WireError, Writer};

/// Hook asked by the worker loop of each thread, once, for that thread's
/// lane.
///
/// Implementations are transports: a lane frames each task and sends it to
/// the process hosting the thread's cluster node, and receives the replies.
/// A lane is used with **no engine locks held**, so `wait` may block
/// indefinitely without wedging delivery on other threads.
pub trait RemoteExec: Send + Sync {
    /// The lane of thread `thread` of collection `tc` of application `app`,
    /// whose cluster node is `node`, if that node is hosted outside this
    /// process. Without one, the thread runs its operations in-process
    /// exactly as without a hook.
    fn lane(&self, app: u32, tc: u32, thread: u32, node: u32) -> Option<Box<dyn RemoteLane>>;
}

/// One thread's tasks on their way to the process hosting its node, and
/// their replies on the way back — in one order.
pub trait RemoteLane: Send {
    /// Ship `task`, without waiting for it to run. A task that cannot be
    /// shipped gets no reply: the error is the task's result, which the
    /// worker loop reports at the task's turn, so failures surface in op
    /// order like results do.
    fn ship(&mut self, task: RemoteTask) -> Result<(), DpsError>;

    /// Block until the oldest shipped task not yet waited for has executed,
    /// and return the tokens it posted. Errors propagate like local
    /// operation errors (they fail the run).
    fn wait(&mut self) -> Result<RemoteOutcome, DpsError>;
}

/// One op execution shipped to a remote process, on its thread's lane.
pub struct RemoteTask {
    /// Graph index within the application.
    pub graph: u32,
    /// The executing graph node.
    pub node: GNodeId,
    /// Which execution point this is.
    pub kind: RemoteKind,
    /// The arriving token (`None` for [`RemoteKind::Finalize`]).
    pub token: Option<TokenBox>,
    /// The wave id on the top frame of the arriving envelope (0 at the
    /// root): which instance a `Consume`/`Finalize` runs, and the wave its
    /// trace events name.
    pub wave: u64,
}

/// The execution point a [`RemoteTask`] replays remotely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteKind {
    /// Split/leaf `execute` on the arriving token.
    Exec,
    /// Merge/stream `consume`; when `completes`, the wave's last token —
    /// finalize and drop the wave instance afterwards.
    Consume {
        /// This token completes the wave.
        completes: bool,
    },
    /// Finalize a wave whose close raced ahead of delivery: all tokens were
    /// already consumed, only the finalize remains.
    Finalize,
}

impl RemoteKind {
    /// In wire order: a kind travels as its index here, in one byte.
    const ALL: [RemoteKind; 4] = [
        RemoteKind::Exec,
        RemoteKind::Consume { completes: false },
        RemoteKind::Consume { completes: true },
        RemoteKind::Finalize,
    ];
}

impl Wire for RemoteKind {
    fn wire_size(&self) -> usize {
        1
    }
    fn encode(&self, w: &mut Writer) {
        let idx = Self::ALL.iter().position(|k| k == self).expect("listed");
        w.put_u8(idx as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let idx = r.get_u8()?;
        Self::ALL
            .get(usize::from(idx))
            .copied()
            .ok_or(WireError::InvalidDiscriminant {
                type_name: "RemoteKind",
                value: u32::from(idx),
            })
    }
}

/// What the remote execution produced.
#[derive(Default)]
pub struct RemoteOutcome {
    /// Tokens the operation posted, in post order.
    pub posts: Vec<TokenBox>,
    /// Completed-chunk measurements (`(iters, secs)` per chunk, in the
    /// *remote* host's wall clock) to apply to the master's feedback sink
    /// under the executing thread's index.
    pub reports: Vec<(u64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_kind_round_trips_and_rejects_unknown_discriminants() {
        for kind in RemoteKind::ALL {
            let bytes = dps_serial::to_bytes(&kind);
            assert_eq!(bytes.len(), kind.wire_size());
            assert_eq!(RemoteKind::decode(&mut Reader::new(&bytes)).unwrap(), kind);
        }
        let mut w = Writer::with_capacity(1);
        w.put_u8(9);
        let bytes = w.into_bytes();
        assert!(RemoteKind::decode(&mut Reader::new(&bytes)).is_err());
    }
}
