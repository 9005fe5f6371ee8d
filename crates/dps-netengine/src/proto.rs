//! The master↔worker wire protocol: control frames carrying graph
//! synchronization, remote op execution, chunk-lease traffic and the end
//! of each run.
//!
//! Every frame is one [`Frame`] value encoded with the workspace wire
//! format (`dps-serial`). Tokens travel *tagged*: a payload is prefixed with
//! its [`WireId`](dps_serial::WireId) and the format version, exactly as
//! `dps_core::wire_roundtrip` frames them, so the receiving kernel decodes
//! through its own [`TokenRegistry`].
//! A token is a [`Payload`] field of its frame: encoded in place when the
//! frame is written, a view into the received buffer when it is read.
//!
//! A connection encodes every frame it sends through its
//! [`SendTable`](dps_serial::SendTable), so a `Buffer` several tokens share
//! crosses it once: the first frame that carries it adds it to the table,
//! later frames name it by id. The connection's reader hands each frame to
//! [`decode_frame_on`], which applies the frame's table section to the
//! peer's [`RecvTable`] and returns what the frame captured of it; the
//! frame's tokens decode against that ([`decode_received`]), on whichever
//! thread and however late. The handshake frames and an injected `Die` go
//! below the table, through [`send_frame`] and [`decode_frame`].
//!
//! | frame | direction | meaning |
//! |---|---|---|
//! | `Hello` | worker → master | first frame after connect; announces the rank |
//! | `Welcome` | master → worker | accepts the worker; cluster size |
//! | `Sync` | worker → master | declarations done; carries the declaration signature |
//! | `Exec` | master → worker | a data object or a wave's close for one thread the worker serves, with its envelope |
//! | `Done` | worker → master | what the thread's `kernel::serve` made of an `Exec` — a step's `Then` and its posts and chunk reports, a call to make, or an error (a close that finds data objects missing is not answered) |
//! | `Hub` | requester → home, through rank 0 | one [`HubRequest`] on a lease opened at another rank |
//! | `HubReply` | home → requester, through rank 0 | the matching [`HubResponse`] |
//! | `Release` | master → worker | one `run_to_idle` finished: the outputs it drained, so SPMD asserts see them, or its error |
//! | `Shutdown` | master → worker | the run is over; stop serving and exit |
//! | `Trace` | worker → master | a traced worker's answer to a successful `Release`: its trace log of the run ([`WireLog`]) and its clock |
//! | `Ping` | master → worker | liveness probe; a healthy worker answers immediately |
//! | `Pong` | worker → master | the `Ping` answer; resets the miss budget |
//! | `Die` | master → worker | fault injection: crash the worker process *now* |
//!
//! ```
//! use dps_netengine::proto::{decode_frame, Frame};
//!
//! let f = Frame::Release { run: 3, error: None, outputs: vec![] };
//! let bytes = dps_serial::to_bytes(&f);
//! assert_eq!(decode_frame(bytes).unwrap(), f);
//! ```

use std::io;

use dps_core::{DpsError, Envelope, GNodeId, Token, TokenBox, TokenRegistry};
pub use dps_mt::Reply;
use dps_obs::{EventKind, TraceEvent, TraceLog};
use dps_sched::remote::{HubRequest, HubResponse};
use dps_serial::{impl_wire_enum, Bytes, Captured, Reader, RecvTable, Wire, WireError, Writer};

use crate::transport::FrameTx;

/// A tagged token as a field of a [`Frame`]: `u32` length, then wire id,
/// format version and payload — the layout of a byte vector holding
/// [`encode_token`]'s output (where the frame names no shared buffer).
#[derive(Debug, Clone)]
pub enum Payload<'a> {
    /// The encoded bytes: what a received frame holds (a view into the
    /// receive buffer), and empty where a frame carries no token.
    Bytes(Bytes),
    /// A live token, encoded straight into the frame's writer when the
    /// frame is sent — it is never serialized on its own first.
    Token(&'a dyn Token),
}

impl Payload<'_> {
    /// No token (the payload of a close).
    pub fn empty() -> Self {
        Payload::Bytes(Bytes::new())
    }

    /// The tagged bytes (encoding a live token).
    pub fn into_bytes(self) -> Bytes {
        match self {
            Payload::Bytes(b) => b,
            Payload::Token(t) => encode_token(t).into(),
        }
    }
}

/// Payloads are equal when they put the same bytes on the wire.
impl PartialEq for Payload<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().into_bytes() == other.clone().into_bytes()
    }
}

/// A live token's `wire_size` is what it takes inline: an upper bound, since
/// a connection table names shared buffers instead. Its length prefix is
/// written after it.
impl Wire for Payload<'_> {
    fn wire_size(&self) -> usize {
        4 + match self {
            Payload::Bytes(b) => b.len(),
            Payload::Token(t) => TAG_LEN + t.payload_size(),
        }
    }
    fn encode(&self, w: &mut Writer) {
        match self {
            Payload::Bytes(b) => b.encode(w),
            Payload::Token(t) => w.put_len_prefixed(|w| put_tagged(w, *t)),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Payload::Bytes(Bytes::decode(r)?))
    }
}

/// One protocol frame. See the module table for directions and meanings.
/// The lifetime is that of the live tokens a frame being sent borrows; a
/// decoded frame borrows nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<'a> {
    /// Worker's first frame: its rank (1-based; the master is rank 0).
    Hello {
        /// The connecting worker's rank.
        rank: u32,
    },
    /// Master's acceptance: the cluster size, which the worker checks
    /// against its own.
    Welcome {
        /// Total cluster nodes (master included).
        nodes: u32,
    },
    /// Worker finished declaring; `sig` is the signature of its table
    /// ([`dps_core::Decls::signature`]) — the master refuses to run if it
    /// differs from its own (the SPMD driver diverged).
    Sync {
        /// Declaration-table signature.
        sig: u64,
    },
    /// A data object, or the close of a wave, for a thread the worker
    /// serves: its lane serves it after the lane's earlier `Exec`s.
    Exec {
        /// Application index (declaration order).
        app: u32,
        /// Thread collection within the application.
        tc: u32,
        /// Thread index within the collection.
        thread: u32,
        /// Graph index within the application.
        graph: u32,
        /// The graph node it arrives at.
        node: GNodeId,
        /// The data object (empty for a close).
        token: Payload<'a>,
        /// The wave's total, for a close (`None` for a data object).
        close: Option<u32>,
        /// The envelope it travels under.
        env: Envelope,
        /// At a stream node, the id a wave it enters there has its posts
        /// travel under ([`dps_mt::Foreign::out_wave`]).
        out_wave: u64,
        /// The traced flow it was sent under, off by one (0: untraced).
        flow: u64,
    },
    /// What a lane made of one of its `Exec`s, in their order.
    Done {
        /// Application index of the lane's thread.
        app: u32,
        /// Thread collection of the lane's thread.
        tc: u32,
        /// The lane's thread index within the collection.
        thread: u32,
        /// What the lane's `kernel::serve` made of it, and how it went.
        reply: Reply,
        /// The tokens the op posted, in post order (a call's: its token).
        posts: Vec<Payload<'a>>,
        /// `(iters, secs)` per completed scheduled chunk (worker wall clock).
        reports: Vec<(u64, f64)>,
    },
    /// One chunk-hub operation on a lease the sender did not open, on its
    /// way to the rank that did (rank 0 serves its own and relays the rest).
    Hub {
        /// Reply-matching request id.
        req: u64,
        /// The operation.
        body: HubRequest,
    },
    /// The reply to `Hub` with the matching `req`.
    HubReply {
        /// Matches the `Hub` request id.
        req: u64,
        /// The home hub's answer.
        body: HubResponse,
    },
    /// One master `run_to_idle` completed, and the worker's matching call
    /// returns with the outputs it carries, so the SPMD worker's driver
    /// code sees the same outputs the master does.
    Release {
        /// Run ordinal (1-based).
        run: u64,
        /// The master-side error if the run failed.
        error: Option<String>,
        /// The tokens the run drained from its graph, in their order (none
        /// if it failed). The worker decodes them against the registry of
        /// the graph its own `run_to_idle` was asked to run.
        outputs: Vec<Payload<'a>>,
    },
    /// The engine is shutting down; stop serving and exit.
    Shutdown,
    /// A traced worker's answer to a successful `Release`: its trace log of
    /// the run, taken (and so drained) before its `run_to_idle` returns. An
    /// untraced worker sends none.
    Trace {
        /// The released run's ordinal.
        run: u64,
        /// The worker collector's `TraceCollector::clock` — the system
        /// clock and its own, read together — with which the master moves
        /// the log onto its epoch.
        clock: (u64, u64),
        /// The log, decoded with its frame: a log that does not decode is
        /// a frame that does not.
        log: WireLog,
    },
    /// Liveness probe from the master's heartbeat monitor. A healthy
    /// worker's reader thread answers with a [`Frame::Pong`]; a worker that
    /// stops answering for a full miss budget is declared dead (see
    /// `NetTimeouts`).
    Ping,
    /// The `Ping` answer. Any inbound frame proves liveness; this one
    /// guarantees there is one.
    Pong,
    /// Fault injection only: the worker process must terminate immediately
    /// and *abruptly* — no Release handshake, no clean shutdown — so the
    /// master's death-detection path (EOF + heartbeat miss) is exercised
    /// exactly as a real crash would.
    Die,
}

impl_wire_enum!(Frame<'a> {
    0 => Hello { rank },
    1 => Welcome { nodes },
    2 => Sync { sig },
    3 => Exec { app, tc, thread, graph, node, token, close, env, out_wave, flow },
    4 => Done { app, tc, thread, reply, posts, reports },
    5 => Hub { req, body },
    6 => HubReply { req, body },
    // Tags 7 and 10 are retired, so that the other kinds keep their bytes.
    8 => Release { run, error, outputs },
    9 => Shutdown { },
    11 => Trace { run, clock, log },
    12 => Ping { },
    13 => Pong { },
    14 => Die { },
});

/// A trace log as a field of a [`Frame::Trace`]: the label table as a
/// `Vec<String>`, then the events, each its time, its track (`node << 16 |
/// thread`), its [`EventKind::tag`] and the three [`EventKind::payload`]
/// words. An unknown tag fails the decode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireLog(pub TraceLog);

/// Bytes an event takes: time, track, tag and three payload words.
const EVENT_LEN: usize = 8 + 4 + 1 + 3 * 8;

impl Wire for WireLog {
    fn wire_size(&self) -> usize {
        self.0.labels.wire_size() + 4 + self.0.events.len() * EVENT_LEN
    }
    fn encode(&self, w: &mut Writer) {
        self.0.labels.encode(w);
        w.put_len(self.0.events.len());
        for e in &self.0.events {
            w.put_u64(e.at);
            w.put_u32(u32::from(e.node) << 16 | u32::from(e.thread));
            w.put_u8(e.kind.tag());
            let (a, b, c) = e.kind.payload();
            [a, b, c].into_iter().for_each(|word| w.put_u64(word));
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let labels = Vec::decode(r)?;
        let len = r.get_len()?;
        let mut events = Vec::with_capacity(len.min(r.remaining() / EVENT_LEN));
        for _ in 0..len {
            let (at, track, tag) = (r.get_u64()?, r.get_u32()?, r.get_u8()?);
            let (a, b, c) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
            let kind =
                EventKind::from_wire(tag, a, b, c).ok_or(WireError::InvalidDiscriminant {
                    type_name: "EventKind",
                    value: tag.into(),
                })?;
            events.push(TraceEvent {
                at,
                node: (track >> 16) as u16,
                thread: track as u16,
                kind,
            });
        }
        Ok(WireLog(TraceLog { labels, events }))
    }
}

/// Send a frame below any connection table (the handshake, an injected
/// `Die`): header fields and token payloads are encoded in a single pass
/// into one exactly-sized buffer, and that buffer goes to the transport as
/// one [`FrameTx::send`].
pub fn send_frame(tx: &mut dyn FrameTx, frame: &Frame<'_>) -> io::Result<()> {
    tx.send(&dps_serial::to_bytes(frame))
}

/// Decode a frame sent below any connection table in place: `bytes`
/// becomes a shared buffer and every payload of the frame a view into it.
pub fn decode_frame(bytes: Vec<u8>) -> Result<Frame<'static>, WireError> {
    dps_serial::from_shared(&Bytes::from(bytes))
}

/// [`decode_frame`] of the next frame a connection received, whose peer's
/// buffer table is `table`: the frame's table section is applied to it, and
/// what the frame captured of it comes back for [`decode_received`].
pub fn decode_frame_on(
    bytes: Vec<u8>,
    table: &mut RecvTable,
) -> Result<(Frame<'static>, Captured), WireError> {
    let bytes = Bytes::from(bytes);
    let mut r = Reader::shared(&bytes);
    let frame = Frame::decode(&mut r)?;
    Ok((frame, table.apply(&mut r)?))
}

/// Bytes a tagged token spends on its wire id and format version.
const TAG_LEN: usize = 8 + 2;

fn put_tagged(w: &mut Writer, tok: &dyn Token) {
    w.put_u64(tok.wire_id().0);
    w.put_u16(dps_serial::WIRE_FORMAT_VERSION);
    tok.encode_payload(w);
}

/// Encode a token in the tagged form every kernel's registry understands:
/// wire id, format version, payload (the same frame `wire_roundtrip` uses).
pub fn encode_token(tok: &dyn Token) -> Vec<u8> {
    let mut w = Writer::with_capacity(TAG_LEN + tok.payload_size());
    put_tagged(&mut w, tok);
    w.into_bytes()
}

/// Decode a tagged token through `reg`; unknown wire ids and version
/// mismatches surface as [`DpsError::Wire`].
pub fn decode_token(reg: &TokenRegistry, bytes: &[u8]) -> Result<TokenBox, DpsError> {
    decode_received(reg, bytes, &Captured::default())
}

/// [`decode_token`] of a token a received frame carried: the shared buffers
/// it names come from what that frame `captured` ([`decode_frame_on`]).
pub fn decode_received(
    reg: &TokenRegistry,
    bytes: &[u8],
    captured: &Captured,
) -> Result<TokenBox, DpsError> {
    reg.decode_tagged(&mut Reader::new(bytes).resolving(captured))
        .map_err(|e| DpsError::Wire(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::internal::kernel::{At, Then};
    use dps_core::{dps_token, Frame as WaveFrame};

    dps_token! { pub struct Probe { pub x: u64 } }

    /// An envelope one wave deep: post 3 of wave 77 of node 1, of five.
    fn env() -> Envelope {
        let mut env = Envelope::root();
        env.push(WaveFrame {
            src: GNodeId(1),
            wave: 77,
            index: 3,
            total: Some(5),
        });
        env
    }

    fn at() -> At {
        At {
            app: 0,
            graph: 1,
            node: GNodeId(4),
        }
    }

    fn roundtrip(f: &Frame<'_>) {
        let bytes = dps_serial::to_bytes(f);
        assert_eq!(bytes.len(), f.wire_size(), "wire_size is exact");
        let back = decode_frame(bytes).expect("decodes");
        assert_eq!(&back, f);
    }

    fn run(bytes: &[u8]) -> Payload<'static> {
        Payload::Bytes(Bytes::copy_from_slice(bytes))
    }

    #[test]
    fn every_frame_round_trips() {
        roundtrip(&Frame::Hello { rank: 2 });
        roundtrip(&Frame::Welcome { nodes: 3 });
        roundtrip(&Frame::Sync { sig: u64::MAX });
        // An `Exec` and the other `Done`s round-trip with their golden bytes.
        roundtrip(&Frame::Done {
            app: 0,
            tc: 1,
            thread: 2,
            reply: Reply::Call {
                at: at(),
                env: env(),
            },
            posts: vec![run(&[7; 4])],
            reports: vec![],
        });
        roundtrip(&Frame::Hub {
            req: 1,
            body: HubRequest::Claim { id: 4 },
        });
        roundtrip(&Frame::HubReply {
            req: 1,
            body: HubResponse::Claimed { chunk: None },
        });
        roundtrip(&Frame::Release {
            run: 2,
            error: None,
            outputs: vec![run(&[9; 17]), run(&[])],
        });
        roundtrip(&Frame::Release {
            run: 2,
            error: Some("timed out".into()),
            outputs: vec![],
        });
        roundtrip(&Frame::Shutdown);
        roundtrip(&Frame::Trace {
            run: 5,
            clock: (1_760_000_000_000_000_000, 12_345),
            log: WireLog(sample_log()),
        });
        roundtrip(&Frame::Trace {
            run: 6,
            clock: (0, 0),
            log: WireLog::default(),
        });
        roundtrip(&Frame::Ping);
        roundtrip(&Frame::Pong);
        roundtrip(&Frame::Die);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The encoded token-carrying frames, byte for byte as the commit
    /// before the single-pass encoder wrote them (captured there from
    /// `to_bytes` of the same frames with `encode_token` output in
    /// `Vec<u8>` fields): the layout did not move. The `Trace` frame
    /// carries the worker's clock between its run and its log. Re-pinned
    /// on purpose three times: once when an `Exec` came to name its wave by
    /// id in place of an envelope, and the `Welcome` to carry the cluster
    /// size alone; once when an `Exec` and its `Done` lost their sequence
    /// number (the `Done` names its lane's thread instead, and a lane's
    /// replies come in its order), and `Ping` / `Pong` the number they
    /// echoed, which nothing read; once when a worker came to serve its own
    /// threads' arrivals: an `Exec` is a data object or a close with its
    /// envelope, and a `Done` what the worker's `serve` made of it. The
    /// `Release` and `Trace` goldens are new with the `Release` that carries
    /// its run's outputs (the `Output` frame's token is its one output, in
    /// the same tagged bytes) and the log that is a field of its frame.
    #[test]
    fn token_frames_keep_their_golden_bytes() {
        let (one, max) = (Probe { x: 1 }, Probe { x: u64::MAX });
        let (exec_tok, out_tok) = (Probe { x: 1234 }, Probe { x: 99 });
        let golden = [
            (Frame::Welcome { nodes: 3 }, "0100000003000000"),
            (
                Frame::Exec {
                    app: 0,
                    tc: 1,
                    thread: 2,
                    graph: 0,
                    node: GNodeId(4),
                    token: Payload::Token(&exec_tok),
                    close: None,
                    env: env(),
                    out_wave: 78,
                    flow: 9,
                },
                "0300000000000000010000000200000000000000040000001200000051b9c7df\
                 8a7836b90200d2040000000000000001000000010000004d0000000000000003\
                 0000000105000000000000004e000000000000000900000000000000",
            ),
            (
                Frame::Exec {
                    app: 1,
                    tc: 0,
                    thread: 0,
                    graph: 2,
                    node: GNodeId(1),
                    token: Payload::empty(),
                    close: Some(5),
                    env: env(),
                    out_wave: 0,
                    flow: 0,
                },
                "0300000001000000000000000000000002000000010000000000000001050000\
                 0001000000010000004d00000000000000030000000105000000000000000000\
                 0000000000000000000000000000",
            ),
            (
                Frame::Done {
                    app: 0,
                    tc: 1,
                    thread: 2,
                    reply: Reply::Ran {
                        then: Then::Exec {
                            at: at(),
                            env: env(),
                        },
                    },
                    posts: vec![Payload::Token(&one), Payload::Token(&max)],
                    reports: vec![(12, 0.5)],
                },
                "0400000000000000010000000200000000000000000000000000000001000000\
                 0400000001000000010000004d00000000000000030000000105000000000000\
                 00020000001200000051b9c7df8a7836b9020001000000000000001200000051\
                 b9c7df8a7836b90200ffffffffffffffff010000000c00000000000000000000\
                 000000e03f",
            ),
            (
                Frame::Done {
                    app: 1,
                    tc: 0,
                    thread: 0,
                    reply: Reply::Failed {
                        token: true,
                        error: "op failed".into(),
                    },
                    posts: vec![],
                    reports: vec![],
                },
                "040000000100000000000000000000000200000001090000006f70206661696c\
                 65640000000000000000",
            ),
            (
                Frame::Release {
                    run: 2,
                    error: None,
                    outputs: vec![Payload::Token(&out_tok)],
                },
                "08000000020000000000000000010000001200000051b9c7df8a7836b9020063\
                 00000000000000",
            ),
            (
                Frame::Trace {
                    run: 5,
                    clock: (1, 2),
                    log: WireLog(TraceLog {
                        labels: vec![String::new(), "g".into()],
                        events: vec![TraceEvent {
                            at: 9,
                            node: 1,
                            thread: 2,
                            kind: EventKind::WaveStart {
                                graph: dps_obs::LabelId(1),
                                wave: 3,
                            },
                        }],
                    }),
                },
                "0b00000005000000000000000100000000000000020000000000000002000000\
                 0000000001000000670100000009000000000000000200010000010000000000\
                 000003000000000000000000000000000000",
            ),
            (Frame::Ping, "0c000000"),
            (Frame::Pong, "0d000000"),
        ];
        for (frame, want) in &golden {
            let bytes = dps_serial::to_bytes(frame);
            assert_eq!(hex(&bytes), *want, "{frame:?}");
            assert_eq!(bytes.len(), frame.wire_size());
            assert_eq!(&decode_frame(bytes).unwrap(), frame);
        }
    }

    /// The hub frames, byte for byte as the commit before leases got a
    /// home rank wrote them: `Claim` / `Close` and `Claimed` / `Closed`
    /// keep tags 1 and 2 now that `Open` / `Opened` (tag 0) no longer
    /// travel, and a home rank is just high bits of the same `u64`.
    #[test]
    fn hub_frames_keep_their_golden_bytes() {
        let chunk = dps_sched::Chunk {
            seq: 3,
            start: 128,
            len: 32,
            worker: 2,
        };
        let golden = [
            (
                Frame::Hub {
                    req: 7,
                    body: HubRequest::Claim { id: 2 << 40 | 5 },
                },
                "050000000700000000000000010000000500000000020000",
            ),
            (
                Frame::Hub {
                    req: 8,
                    body: HubRequest::Close { id: 3 },
                },
                "050000000800000000000000020000000300000000000000",
            ),
            (
                Frame::HubReply {
                    req: 7,
                    body: HubResponse::Claimed { chunk: Some(chunk) },
                },
                "0600000007000000000000000100000001030000008000000000000000200000\
                 000000000002000000",
            ),
            (
                Frame::HubReply {
                    req: 9,
                    body: HubResponse::Claimed { chunk: None },
                },
                "0600000009000000000000000100000000",
            ),
            (
                Frame::HubReply {
                    req: 8,
                    body: HubResponse::Closed { closed: true },
                },
                "0600000008000000000000000200000001",
            ),
        ];
        for (frame, want) in &golden {
            let bytes = dps_serial::to_bytes(frame);
            assert_eq!(hex(&bytes), *want, "{frame:?}");
            assert_eq!(&decode_frame(bytes).unwrap(), frame);
        }
        assert_eq!(dps_serial::WIRE_FORMAT_VERSION, 2);
    }

    /// A live token in a frame is exactly `encode_token`'s bytes in a byte
    /// run, and what the receiver gets back is a view of the frame buffer.
    #[test]
    fn live_tokens_encode_in_place_and_decode_as_views() {
        let tok = Probe { x: 7 };
        let tagged = encode_token(&tok);
        let release = |token| Frame::Release {
            run: 3,
            error: None,
            outputs: vec![token],
        };
        let bytes = dps_serial::to_bytes(&release(Payload::Token(&tok)));
        assert_eq!(bytes, dps_serial::to_bytes(&release(run(&tagged))));

        let shared = Bytes::from(bytes);
        let Frame::Release { mut outputs, .. } = dps_serial::from_shared(&shared).unwrap() else {
            panic!("a Release frame");
        };
        let token = outputs.pop().unwrap().into_bytes();
        assert_eq!(&token[..], &tagged[..]);
        let at = shared.len() - tagged.len();
        assert_eq!(token.as_ptr(), shared[at..].as_ptr(), "not copied out");
    }

    /// A log of every event kind, with the labels they name.
    fn sample_log() -> TraceLog {
        use dps_obs::{fault_code, LabelId};
        let kinds = [
            EventKind::WaveStart {
                graph: LabelId(1),
                wave: 3,
            },
            EventKind::WaveEnd {
                graph: LabelId(1),
                wave: 3,
            },
            EventKind::OpStart {
                op: LabelId(3),
                wave: 3,
            },
            EventKind::OpEnd {
                op: LabelId(3),
                wave: 3,
            },
            EventKind::ChunkClaim {
                lease: 5,
                start: 100,
                len: 20,
            },
            EventKind::ChunkExec {
                iters: 20,
                nanos: 1234,
            },
            EventKind::ChunkReport {
                worker: 4,
                iters: 20,
                nanos: 1234,
            },
            EventKind::TokenEnqueue {
                token: LabelId(2),
                wave: 3,
                flow: 77,
            },
            EventKind::TokenDeliver {
                token: LabelId(2),
                wave: 3,
                flow: 77,
            },
            EventKind::FrameSend {
                frame: LabelId(4),
                bytes: 512,
            },
            EventKind::FrameRecv {
                frame: LabelId(4),
                bytes: u64::MAX,
            },
            EventKind::NodeDown { node: 3 },
            EventKind::Requeue { tokens: 6 },
            EventKind::OpFailed { op: LabelId(3) },
            EventKind::Fault {
                code: fault_code::NODE_KILL,
                detail: 6,
            },
        ];
        TraceLog {
            labels: ["", "lu-pipelined", "ChunkTicket", "lu:leaf", "Exec"]
                .map(String::from)
                .into(),
            events: (0..)
                .zip(kinds)
                .map(|(i, kind)| TraceEvent {
                    at: 1_000 * i,
                    node: (i % 3) as u16,
                    thread: u16::MAX - i as u16,
                    kind,
                })
                .collect(),
        }
    }

    /// Every event kind crosses in a `Trace` frame and comes back as it
    /// was, labels and tracks too.
    #[test]
    fn a_trace_log_of_every_event_kind_round_trips() {
        let log = sample_log();
        let tags: Vec<u8> = log.events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags, (0..15).collect::<Vec<u8>>(), "every kind, once");
        let frame = Frame::Trace {
            run: 1,
            clock: (2, 3),
            log: WireLog(log),
        };
        roundtrip(&frame);
    }

    /// A `Trace` frame whose log is cut short, runs on past its end or
    /// names an event kind there is none of does not decode.
    #[test]
    fn a_trace_frame_with_a_bad_log_is_refused() {
        let frame = Frame::Trace {
            run: 1,
            clock: (2, 3),
            log: WireLog(sample_log()),
        };
        let bytes = dps_serial::to_bytes(&frame);
        assert!(decode_frame(Vec::new()).is_err());
        let mut cut = bytes.clone();
        cut.pop();
        assert!(decode_frame(cut).is_err(), "truncation detected");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_frame(trailing).is_err(), "trailing bytes detected");
        // The last event's tag sits before its three payload words.
        let mut unknown = bytes;
        let at = unknown.len() - 1 - 3 * 8;
        assert_eq!(unknown[at], 14, "the last event is a fault");
        unknown[at] = 15;
        assert_eq!(
            decode_frame(unknown),
            Err(WireError::InvalidDiscriminant {
                type_name: "EventKind",
                value: 15
            })
        );
    }

    #[test]
    fn tagged_tokens_round_trip_through_a_registry() {
        let mut reg = TokenRegistry::new();
        dps_core::register_token::<Probe>(&mut reg);
        let bytes = encode_token(&Probe { x: 1234 });
        let back = decode_token(&reg, &bytes).unwrap();
        assert_eq!(dps_core::downcast::<Probe>(back).unwrap().x, 1234);
    }

    #[test]
    fn unknown_token_types_fail_to_decode() {
        dps_token! { pub struct Stranger { pub x: u64 } }
        let reg = TokenRegistry::new();
        assert!(decode_token(&reg, &encode_token(&Stranger { x: 1 })).is_err());
    }
}
