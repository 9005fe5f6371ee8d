//! Chunk-lease traffic between processes: **a lease lives where it was
//! opened; claims go to its home.**
//!
//! Shared-memory engines hand every operation the same `Arc<ChunkHub>`.
//! Across process boundaries that `Arc` cannot travel, so every process of
//! a distributed engine holds its own [`ChunkHub`], homed at its rank
//! ([`ChunkHub::homed`]). A lease id carries the rank that opened it
//! ([`ChunkHub::home_of`]), and that rank's hub holds the lease's counter:
//!
//! * `open` never leaves the process, and neither does a `claim` or `close`
//!   of a lease opened there — the lock-free path of a private hub;
//! * a `claim` or `close` of a lease opened *elsewhere* goes through the
//!   hub's [`RemoteHub`] delegate, which frames it as a [`HubRequest`],
//!   ships it towards the lease's home and blocks on the [`HubResponse`] —
//!   one round trip per chunk, the cost model of arXiv:2101.07050's
//!   distributed chunk calculation (one shared-state access per chunk);
//! * the home answers with [`HubRequest::serve`], from its own directory
//!   only. A home that is gone is answered for with
//!   [`HubRequest::refused`]: its leases died with it.
//!
//! The chunk arithmetic never travels: the home evaluates its own
//! [`ChunkCalc`](crate::ChunkCalc) and ships the finished [`Chunk`].
//!
//! This module defines only the framing and the delegate seam; the
//! transport (sockets, channels) and the routing between ranks belong to
//! the engine crates.
//!
//! ```
//! use dps_sched::{ChunkCalc, ChunkHub, PolicyKind};
//! use dps_sched::remote::{HubRequest, HubResponse};
//!
//! // Rank 2 opens a lease; the id names its home.
//! let home = ChunkHub::homed(2, None);
//! let lease = home.open(ChunkCalc::new(PolicyKind::Gss, 100, 4, &[]));
//! assert_eq!(ChunkHub::home_of(lease.id), 2);
//!
//! // Another rank frames a claim; rank 2 decodes and serves it.
//! let bytes = dps_serial::to_bytes(&HubRequest::Claim { id: lease.id });
//! let req: HubRequest = dps_serial::from_bytes(&bytes).unwrap();
//! let HubResponse::Claimed { chunk } = req.serve(&home) else { unreachable!() };
//! assert_eq!(chunk.unwrap().start, 0);
//!
//! // A hub serves only what it is home to.
//! let elsewhere = ChunkHub::new();
//! assert_eq!(req.serve(&elsewhere), req.refused());
//! ```

use dps_serial::{impl_wire, impl_wire_enum};

use crate::calc::ChunkHub;
use crate::scheduler::Chunk;

/// The delegate a [`ChunkHub`] hands the operations on leases homed at
/// another rank (see [`ChunkHub::homed`]). Implementations frame the call
/// as a [`HubRequest`], send it towards the lease's home, and block on the
/// matching [`HubResponse`]; a home that cannot be reached answers like an
/// unknown lease (`None` / `false`).
pub trait RemoteHub: Send + Sync {
    /// [`ChunkHub::claim`] of a lease homed elsewhere.
    fn claim(&self, id: u64) -> Option<Chunk>;
    /// [`ChunkHub::close`] of a lease homed elsewhere.
    fn close(&self, id: u64) -> bool;
}

/// One operation on a lease, framed for its home rank. (Tag 0 was `Open`,
/// which no longer travels.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubRequest {
    /// [`ChunkHub::claim`] — next chunk of lease `id`, if any.
    Claim { id: u64 },
    /// [`ChunkHub::close`] — retire lease `id` early.
    Close { id: u64 },
}

impl HubRequest {
    /// The lease this request is about; [`ChunkHub::home_of`] it is the
    /// rank that answers.
    pub fn id(&self) -> u64 {
        match *self {
            HubRequest::Claim { id } | HubRequest::Close { id } => id,
        }
    }

    /// Answer this request from `hub`'s own directory. Never consults the
    /// hub's delegate: a lease homed elsewhere is [`refused`](Self::refused)
    /// like any unknown one, so a connection reader can serve without ever
    /// waiting on another connection.
    pub fn serve(self, hub: &ChunkHub) -> HubResponse {
        match self {
            HubRequest::Claim { id } => HubResponse::Claimed {
                chunk: hub.claim_here(id),
            },
            HubRequest::Close { id } => HubResponse::Closed {
                closed: hub.close_here(id),
            },
        }
    }

    /// The answer for a lease nobody holds — unknown, or homed at a rank
    /// that is down: no chunk, nothing closed.
    pub fn refused(self) -> HubResponse {
        match self {
            HubRequest::Claim { .. } => HubResponse::Claimed { chunk: None },
            HubRequest::Close { .. } => HubResponse::Closed { closed: false },
        }
    }
}

/// The home's answer to a [`HubRequest`], variant-matched by position:
/// `Claim → Claimed`, `Close → Closed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HubResponse {
    /// Next chunk, or `None` when the lease is drained/closed/unknown.
    Claimed { chunk: Option<Chunk> },
    /// Whether the close retired an open lease.
    Closed { closed: bool },
}

impl_wire!(Chunk {
    seq,
    start,
    len,
    worker
});
impl_wire_enum!(HubRequest {
    1 => Claim { id },
    2 => Close { id },
});
impl_wire_enum!(HubResponse {
    1 => Claimed { chunk },
    2 => Closed { closed },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChunkCalc, PolicyKind};
    use dps_serial::Wire;
    use std::sync::Arc;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = dps_serial::to_bytes(v);
        assert_eq!(bytes.len(), v.wire_size(), "wire_size is exact");
        let back: T = dps_serial::from_bytes(&bytes).expect("decodes");
        assert_eq!(&back, v, "round-trips");
    }

    #[test]
    fn hub_frames_round_trip() {
        roundtrip(&HubRequest::Claim { id: u64::MAX });
        roundtrip(&HubRequest::Close { id: 0 });
        roundtrip(&HubResponse::Claimed {
            chunk: Some(Chunk {
                seq: 3,
                start: 128,
                len: 32,
                worker: 2,
            }),
        });
        roundtrip(&HubResponse::Claimed { chunk: None });
        roundtrip(&HubResponse::Closed { closed: true });
        // The tag `Open` used to travel under is not reassigned.
        let open = dps_serial::to_bytes(&0u32);
        assert!(dps_serial::from_bytes::<HubRequest>(&open).is_err());
        assert!(dps_serial::from_bytes::<HubResponse>(&open).is_err());
    }

    /// The home's directory, reached the way a distributed engine reaches
    /// it: frame, serve, unframe.
    struct Direct(Arc<ChunkHub>);
    impl RemoteHub for Direct {
        fn claim(&self, id: u64) -> Option<Chunk> {
            match (HubRequest::Claim { id }).serve(&self.0) {
                HubResponse::Claimed { chunk } => chunk,
                other => unreachable!("claim answered with {other:?}"),
            }
        }
        fn close(&self, id: u64) -> bool {
            match (HubRequest::Close { id }).serve(&self.0) {
                HubResponse::Closed { closed } => closed,
                other => unreachable!("close answered with {other:?}"),
            }
        }
    }

    /// Only the operations on a lease homed elsewhere reach the delegate,
    /// and they land in the home's directory, not the caller's.
    #[test]
    fn foreign_leases_go_to_their_home() {
        let home = Arc::new(ChunkHub::homed(1, None));
        let caller = ChunkHub::homed(2, Some(Arc::new(Direct(home.clone()))));
        let theirs = home.open(ChunkCalc::new(PolicyKind::Static, 10, 2, &[]));
        let mine = caller.open(ChunkCalc::new(PolicyKind::Ss, 3, 2, &[]));
        assert_eq!(ChunkHub::home_of(theirs.id), 1);
        assert_eq!(ChunkHub::home_of(mine.id), 2);

        let mut covered = 0;
        while let Some(c) = caller.claim(theirs.id) {
            covered += c.len;
        }
        assert_eq!(covered, 10);
        assert!(!caller.close(theirs.id), "already drained");
        assert_eq!(home.open_leases(), 0, "drained at its home");
        assert_eq!(caller.open_leases(), 1, "the caller tracks only its own");
        assert!(caller.progress(theirs.id).is_none());

        assert!(home.claim(mine.id).is_none(), "rank 1 has no delegate");
        assert!(caller.close(mine.id));
        assert!(caller.abandoned_leases().is_empty());
    }
}
