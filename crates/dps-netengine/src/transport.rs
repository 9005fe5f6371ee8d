//! Byte transports between kernels: length-prefixed frames over a
//! connection-oriented duplex.
//!
//! The engine speaks [`crate::proto::Frame`]s; this module moves the framed
//! bytes. A [`Transport`] hands out listening endpoints ([`Acceptor`]) and
//! outgoing connections ([`Duplex`]); each duplex is a pair of independent
//! halves so one task can read while another writes.
//!
//! Two implementations ship:
//!
//! * [`TcpTransport`] — real sockets on `127.0.0.1` (`TCP_NODELAY`; every
//!   frame is one write). This is what multi-process runs use.
//! * [`LoopbackTransport`] — in-memory channels with identical framing
//!   semantics, for single-process tests and the three-backend
//!   differential suite.
//!
//! ## Frame format
//!
//! Each frame on a byte-stream transport is `len: u32` (little-endian,
//! payload length) followed by `len` payload bytes. The loopback transport
//! moves whole frames through channels, so the prefix never materializes —
//! but the observable unit (one `send` arrives as one `recv`) is the same.
//!
//! On TCP a frame costs one system call to send — prefix and payload (a
//! body, its buffer-table section, and every large `Buffer` run, read from
//! the buffer's own allocation, when the engine hands it over in parts)
//! leave in a single vectored write, so `TCP_NODELAY` never ships a lone
//! prefix — and no copy. A frame of more parts than the kernel takes in one
//! call (`IOV_MAX`), or than the socket buffer holds, takes several. The receiver reads through a 64 KiB buffer,
//! so a prefix and a small frame (or many) arrive in one read; a frame
//! larger than the buffer is read straight into its own allocation, which
//! is never zeroed first.

use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Frames larger than this are rejected as corrupt rather than allocated.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Sending half of a connection: one call transmits one frame.
pub trait FrameTx: Send {
    /// Transmit `frame` (the payload only; framing is the transport's job).
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Transmit one frame given as `parts` back to back — a body, its
    /// buffer-table section and its large runs, none copied into another
    /// where the transport can write several buffers at once.
    fn send_parts(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.send(&parts.concat())
    }
}

/// Receiving half of a connection: one call yields one frame.
pub trait FrameRx: Send {
    /// Block for the next frame. `Err` means the peer closed or the stream
    /// is corrupt; no further frames will arrive.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
}

/// A bidirectional connection, split into independently-owned halves.
pub struct Duplex {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
}

/// A listening endpoint produced by [`Transport::bind`].
pub trait Acceptor: Send {
    /// Block for the next inbound connection.
    fn accept(&mut self) -> io::Result<Duplex>;
}

/// A connection-oriented byte transport.
pub trait Transport: Send + Sync {
    /// Open a listening endpoint; returns its address (opaque string that
    /// [`connect`](Self::connect) on a matching transport understands).
    fn bind(&self) -> io::Result<(String, Box<dyn Acceptor>)>;

    /// Connect to a bound endpoint.
    fn connect(&self, addr: &str) -> io::Result<Duplex>;
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// Real sockets on the local host (`127.0.0.1`, ephemeral ports).
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

struct TcpAcceptor(TcpListener);

/// Bytes a TCP receiver buffers per connection: frames up to this size are
/// read through the buffer, larger ones directly into their allocation.
const RX_BUF: usize = 64 * 1024;

struct TcpTx(TcpStream);

/// The receiving half: `buf[start..end]` holds bytes read off the socket
/// and not yet returned as frames.
struct TcpRx {
    stream: TcpStream,
    buf: Box<[u8]>,
    start: usize,
    end: usize,
}

impl TcpRx {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: vec![0; RX_BUF].into(),
            start: 0,
            end: 0,
        }
    }

    /// Read until at least `need` (≤ [`RX_BUF`]) bytes are buffered.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        while self.end - self.start < need {
            // Back to the front when nothing is buffered (room for a whole
            // read) or the tail cannot hold what is still missing.
            if self.start == self.end || self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Take the next `n` buffered bytes (after a `fill(n)`).
    fn buffered(&mut self, n: usize) -> &[u8] {
        let at = self.start;
        self.start += n;
        &self.buf[at..at + n]
    }
}

fn tcp_duplex(stream: TcpStream) -> io::Result<Duplex> {
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    Ok(Duplex {
        tx: Box::new(TcpTx(stream)),
        rx: Box::new(TcpRx::new(reader)),
    })
}

impl Transport for TcpTransport {
    fn bind(&self) -> io::Result<(String, Box<dyn Acceptor>)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        Ok((addr, Box::new(TcpAcceptor(listener))))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        tcp_duplex(TcpStream::connect(addr)?)
    }
}

impl Acceptor for TcpAcceptor {
    fn accept(&mut self) -> io::Result<Duplex> {
        let (stream, _) = self.0.accept()?;
        tcp_duplex(stream)
    }
}

impl FrameTx for TcpTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let len = u32::try_from(parts.iter().map(|p| p.len()).sum::<usize>())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        let prefix = len.to_le_bytes();
        let mut slices: Vec<IoSlice<'_>> = std::iter::once(&prefix[..])
            .chain(parts.iter().copied())
            .map(IoSlice::new)
            .collect();
        let mut left = &mut slices[..];
        // One vectored write almost always takes everything; a full socket
        // buffer may take a 2 MiB frame in several, and a frame of more
        // than `IOV_MAX` parts always does (std passes at most that many).
        while !left.is_empty() {
            match self.0.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.fill(4)?;
        let prefix = self.buffered(4).try_into().expect("four bytes");
        let len = u32::from_le_bytes(prefix);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        let len = len as usize;
        if len <= self.buf.len() {
            self.fill(len)?;
            return Ok(self.buffered(len).to_vec());
        }
        // A large frame: what is buffered is its beginning; the rest goes
        // from the socket straight into the frame's spare capacity.
        let mut frame = Vec::with_capacity(len);
        let head = self.end - self.start;
        frame.extend_from_slice(self.buffered(head));
        let rest = (len - head) as u64;
        if (&self.stream).take(rest).read_to_end(&mut frame)? as u64 != rest {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------------

/// In-memory transport: connections are channel pairs within one process.
/// Addresses (`loop:N`) are scoped to the transport instance that bound
/// them.
#[derive(Default)]
pub struct LoopbackTransport {
    bound: Arc<Mutex<HashMap<String, Sender<Duplex>>>>,
    next: AtomicU64,
}

impl LoopbackTransport {
    /// Fresh transport with no bound endpoints.
    pub fn new() -> Self {
        Self::default()
    }
}

struct LoopAcceptor(Receiver<Duplex>);

struct ChanTx(Sender<Vec<u8>>);
struct ChanRx(Receiver<Vec<u8>>);

impl Transport for LoopbackTransport {
    fn bind(&self) -> io::Result<(String, Box<dyn Acceptor>)> {
        let addr = format!("loop:{}", self.next.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = unbounded();
        self.bound.lock().insert(addr.clone(), tx);
        Ok((addr, Box::new(LoopAcceptor(rx))))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        let slot = self.bound.lock().get(addr).cloned().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no endpoint at {addr}"))
        })?;
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        let server_side = Duplex {
            tx: Box::new(ChanTx(s2c_tx)),
            rx: Box::new(ChanRx(c2s_rx)),
        };
        slot.send(server_side)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "acceptor dropped"))?;
        Ok(Duplex {
            tx: Box::new(ChanTx(c2s_tx)),
            rx: Box::new(ChanRx(s2c_rx)),
        })
    }
}

impl Acceptor for LoopAcceptor {
    fn accept(&mut self) -> io::Result<Duplex> {
        self.0
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "transport dropped"))
    }
}

impl FrameTx for ChanTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.send_parts(&[frame])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.0
            .send(parts.concat())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))
    }
}

impl FrameRx for ChanRx {
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.0
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames of every size — empty, small, larger than one MTU — arrive
    /// whole and in order, on both transports.
    fn frames_round_trip(transport: &dyn Transport) {
        let (addr, mut acceptor) = transport.bind().unwrap();
        let mut client = transport.connect(&addr).unwrap();
        let mut server = acceptor.accept().unwrap();

        let payloads: Vec<Vec<u8>> =
            vec![vec![], vec![7], (0..=255).collect(), vec![0xAB; 100_000]];
        for p in &payloads {
            client.tx.send(p).unwrap();
        }
        for p in &payloads {
            assert_eq!(&server.rx.recv().unwrap(), p);
        }
        // A frame in parts arrives as one.
        let (head, tail) = payloads[3].split_at(7);
        client.tx.send_parts(&[head, &[], tail]).unwrap();
        assert_eq!(server.rx.recv().unwrap(), payloads[3]);
        // And the other direction on the same duplex.
        server.tx.send(b"pong").unwrap();
        assert_eq!(client.rx.recv().unwrap(), b"pong");
    }

    #[test]
    fn tcp_frames_round_trip() {
        frames_round_trip(&TcpTransport);
    }

    #[test]
    fn loopback_frames_round_trip() {
        frames_round_trip(&LoopbackTransport::new());
    }

    #[test]
    fn loopback_connect_to_unknown_address_fails() {
        let t = LoopbackTransport::new();
        assert!(t.connect("loop:99").is_err());
    }

    #[test]
    fn recv_reports_peer_close() {
        let t = LoopbackTransport::new();
        let (addr, mut acceptor) = t.bind().unwrap();
        let client = t.connect(&addr).unwrap();
        let mut server = acceptor.accept().unwrap();
        drop(client);
        assert!(server.rx.recv().is_err());
    }

    /// `TcpRx` against a peer that writes the byte stream in the worst
    /// shapes: one byte per segment, a hundred frames in one write, frames
    /// at and around the buffer size, a 3 MiB frame that starts mid-buffer
    /// and is followed at once by a small one. Every frame arrives whole
    /// and in order; then an oversize prefix is refused.
    #[test]
    fn tcp_rx_reassembles_whatever_the_peer_writes() {
        fn framed(payload: &[u8]) -> Vec<u8> {
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(payload);
            f
        }
        let dribbled: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![9; 300], vec![]];
        let mut packed: Vec<Vec<u8>> = (0..100usize).map(|i| vec![i as u8; i * 7 % 300]).collect();
        // Frames that force the buffer to compact, and the two sides of the
        // through-the-buffer / straight-to-the-allocation line.
        packed.extend([vec![4; 40_000], vec![5; 40_000], vec![6; 40_000]]);
        packed.extend([vec![7; RX_BUF], vec![8; RX_BUF + 1]]);
        packed.push(
            (0..3 * 1024 * 1024)
                .map(|i| ((i * 31) >> 3) as u8)
                .collect(),
        );
        packed.push(b"tail".to_vec());

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (to_dribble, to_pack) = (dribbled.clone(), packed.clone());
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            for byte in to_dribble.iter().flat_map(|p| framed(p)) {
                s.write_all(&[byte]).unwrap();
            }
            let one_write: Vec<u8> = to_pack.iter().flat_map(|p| framed(p)).collect();
            s.write_all(&one_write).unwrap();
            s.write_all(&framed(&[])).unwrap();
            s.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        });

        let (stream, _) = listener.accept().unwrap();
        let mut rx = TcpRx::new(stream);
        for want in dribbled.iter().chain(&packed) {
            let got = rx.recv().unwrap();
            assert!(got == *want, "a {}-byte frame arrived changed", want.len());
        }
        assert_eq!(rx.recv().unwrap(), Vec::<u8>::new(), "zero-length frame");
        let refused = rx.recv().unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        writer.join().unwrap();
    }

    /// A frame far larger than the socket buffers takes several vectored
    /// writes; the frames after it still start where they should.
    #[test]
    fn tcp_tx_finishes_partial_writes() {
        let (addr, mut acceptor) = TcpTransport.bind().unwrap();
        let mut client = TcpTransport.connect(&addr).unwrap();
        let mut server = acceptor.accept().unwrap();
        let big: Vec<u8> = (0..16 * 1024 * 1024).map(|i| (i >> 5) as u8).collect();
        let sent = big.clone();
        let writer = std::thread::spawn(move || {
            client.tx.send(&sent).unwrap();
            client.tx.send(b"after").unwrap();
            client.tx.send(&[]).unwrap();
        });
        assert!(server.rx.recv().unwrap() == big);
        assert_eq!(server.rx.recv().unwrap(), b"after");
        assert!(server.rx.recv().unwrap().is_empty());
        writer.join().unwrap();
    }

    /// A peer that closes mid-frame is an EOF, on the buffered path and on
    /// the direct one.
    #[test]
    fn tcp_rx_reports_a_truncated_frame_as_eof() {
        for (announced, sent) in [(100u32, 40usize), (1 << 20, 100_000)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&announced.to_le_bytes()).unwrap();
                s.write_all(&vec![3; sent]).unwrap();
            });
            let (stream, _) = listener.accept().unwrap();
            let err = TcpRx::new(stream).recv().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            writer.join().unwrap();
        }
    }

    #[test]
    fn tcp_length_prefix_is_validated() {
        // A hand-written oversized length prefix must be rejected, not
        // allocated.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut rx = TcpRx::new(stream);
        assert!(rx.recv().is_err());
        writer.join().unwrap();
    }
}
