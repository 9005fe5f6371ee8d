//! Growable little-endian byte writer, and the parts of a frame it hands
//! over.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::pod::Pod;
use crate::table::SendTable;

/// Bytes from which a [`Buffer`](crate::Buffer)'s elements, when they have
/// a [byte view](Pod::wire_bytes), go on the wire as a [`Part`] of their
/// own, read from the buffer's allocation, instead of being copied into
/// their frame's: four pages a fresh frame would otherwise fault in. Below
/// it a run is copied. A constant, not an option.
pub(crate) const RUN_PART: usize = 16 * 1024;

/// A growable byte sink used by [`Wire::encode`](crate::Wire::encode).
///
/// All multi-byte integers are written little-endian with fixed width, which
/// keeps the format trivially deterministic across nodes — the property DPS
/// relies on when a kernel deserializes a data object produced by another
/// application instance.
///
/// A writer made by [`SendTable::encode`] also names the shared
/// [`Buffer`](crate::Buffer)s it meets through that connection table, and
/// leaves every run of 16 KiB or more with a [byte view](Pod::wire_bytes)
/// out of its own bytes, to go out as a [`Part`] of the frame; one made by
/// [`new`](Self::new) or [`with_capacity`](Self::with_capacity) writes
/// every buffer whole, into its bytes.
#[derive(Debug, Default)]
pub struct Writer<'t> {
    buf: BytesMut,
    /// The table of the connection a frame is encoded for, if any.
    table: Option<&'t mut SendTable>,
    /// The large runs left out of `buf`, when the writer writes a frame's
    /// parts.
    runs: Option<Runs>,
}

/// The runs a writer left out, each with the length `buf` had where it
/// belongs, and their bytes in all.
#[derive(Debug, Default)]
struct Runs {
    at: Vec<(usize, Arc<dyn WireBytes>)>,
    bytes: usize,
}

impl Writer<'static> {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create a writer with `cap` bytes preallocated (typically the value of
    /// [`Wire::wire_size`](crate::Wire::wire_size), making encoding a single
    /// allocation).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
            table: None,
            runs: None,
        }
    }
}

impl<'t> Writer<'t> {
    /// A writer of a frame's parts, `cap` bytes preallocated for what it
    /// writes itself, naming shared buffers through `table` if there is one.
    pub(crate) fn parts(cap: usize, table: Option<&'t mut SendTable>) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
            table,
            runs: Some(Runs::default()),
        }
    }

    /// The id `data` goes by on the connection whose table this writer
    /// encodes for, if it is named rather than written whole.
    pub(crate) fn name<T: Pod>(&mut self, data: &Arc<Vec<T>>) -> Option<u64> {
        self.table.as_deref_mut()?.name(data)
    }

    /// Write `data`'s elements: as a run of their own when this writer
    /// writes a frame's parts and they are at least [`RUN_PART`] bytes with
    /// a byte view, encoded in place otherwise.
    pub(crate) fn put_elements<T: Pod>(&mut self, data: &Arc<Vec<T>>) {
        if let Some(runs) = &mut self.runs {
            if data.len() * T::WIDTH >= RUN_PART {
                if let Some(bytes) = T::wire_bytes(data) {
                    runs.bytes += bytes.len();
                    runs.at.push((self.buf.len(), Arc::clone(data) as _));
                    return;
                }
            }
        }
        T::encode_slice(data, self);
    }

    /// Hand what was written over as parts, in wire order: the written
    /// bytes, cut where each run belongs, and the runs.
    pub(crate) fn into_parts(self, parts: &mut Vec<Part>) {
        let written = self.buf.freeze();
        let mut from = 0;
        for (at, run) in self.runs.map(|runs| runs.at).unwrap_or_default() {
            if at > from {
                parts.push(Part(Piece::Written(written.slice(from..at))));
            }
            parts.push(Part(Piece::Run(run)));
            from = at;
        }
        if written.len() > from {
            parts.push(Part(Piece::Written(written.slice(from..))));
        }
    }

    /// Number of bytes written so far, runs left out included.
    pub fn len(&self) -> usize {
        self.buf.len() + self.runs.as_ref().map_or(0, |runs| runs.bytes)
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the writer, yielding the encoded bytes (the writer's own
    /// buffer — nothing is copied).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into()
    }

    /// Borrow the bytes written so far (under [`SendTable::encode`], less
    /// the runs left out).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Write a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a `u16` little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Write a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Write a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Write a `u128` little-endian.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.put_u128_le(v);
    }

    /// Write an `i8`.
    #[inline]
    pub fn put_i8(&mut self, v: i8) {
        self.buf.put_i8(v);
    }

    /// Write an `i16` little-endian.
    #[inline]
    pub fn put_i16(&mut self, v: i16) {
        self.buf.put_i16_le(v);
    }

    /// Write an `i32` little-endian.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.buf.put_i32_le(v);
    }

    /// Write an `i64` little-endian.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Write an `i128` little-endian.
    #[inline]
    pub fn put_i128(&mut self, v: i128) {
        self.buf.put_i128_le(v);
    }

    /// Write an `f32` as its IEEE-754 bits, little-endian.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    /// Write an `f64` as its IEEE-754 bits, little-endian.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Write a length prefix (`u32`); DPS data objects never exceed 4 GiB.
    ///
    /// # Panics
    /// Panics if `len` does not fit in a `u32`.
    #[inline]
    pub fn put_len(&mut self, len: usize) {
        let v = u32::try_from(len).expect("wire length exceeds u32::MAX");
        self.put_u32(v);
    }

    /// Write what `f` writes behind a `u32` length prefix — for a value whose
    /// length is known only once it is written: under a connection table a
    /// value that names a shared buffer is shorter than its `wire_size`.
    ///
    /// # Panics
    /// Panics if `f` writes more than `u32::MAX` bytes.
    pub fn put_len_prefixed(&mut self, f: impl FnOnce(&mut Self)) {
        let (at, start) = (self.buf.len(), self.len());
        self.put_u32(0);
        f(self);
        let len = u32::try_from(self.len() - start - 4).expect("wire length exceeds u32::MAX");
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Append raw bytes verbatim (used for the [`Buffer`](crate::Buffer)
    /// bulk fast path and for pre-serialized payloads).
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }
}

/// Elements with a [byte view](Pod::wire_bytes), type-erased: a run a
/// writer left out holds its buffer's allocation through one, so the
/// elements stay as they are until the part is dropped (a write to the
/// buffer meanwhile copies it first).
trait WireBytes: Send + Sync {
    fn wire_bytes(&self) -> &[u8];
}

impl<T: Pod> WireBytes for Vec<T> {
    fn wire_bytes(&self) -> &[u8] {
        T::wire_bytes(self).expect("only elements with a byte view are left out")
    }
}

impl fmt::Debug for dyn WireBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Run({} bytes)", self.wire_bytes().len())
    }
}

/// One part of a frame [`SendTable::encode`] wrote: bytes it wrote, or a
/// large run of a [`Buffer`](crate::Buffer)'s elements, read from the
/// buffer's own allocation. The parts of a frame go out back to back (one
/// vectored write on a socket); concatenated they are the frame's bytes.
#[derive(Clone)]
pub struct Part(Piece);

#[derive(Clone)]
enum Piece {
    Written(Bytes),
    Run(Arc<dyn WireBytes>),
}

impl Deref for Part {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Piece::Written(bytes) => bytes,
            Piece::Run(run) => run.wire_bytes(),
        }
    }
}

/// So a frame's parts [`concat`](slice::concat) into its bytes.
impl Borrow<[u8]> for Part {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Piece::Written(bytes) => write!(f, "Written({} bytes)", bytes.len()),
            Piece::Run(run) => run.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut w = Writer::new();
        w.put_u32(0x0403_0201);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn len_tracking_and_into_bytes() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.put_u8(7);
        w.put_u64(1);
        assert_eq!(w.len(), 9);
        let written = w.as_slice().as_ptr();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes[0], 7);
        assert_eq!(bytes.as_ptr(), written, "the buffer is handed over");
    }

    #[test]
    fn a_length_prefix_is_written_after_its_run() {
        let mut w = Writer::new();
        w.put_u8(9);
        w.put_len_prefixed(|w| w.put_slice(&[1, 2, 3]));
        assert_eq!(w.as_slice(), &[9, 3, 0, 0, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "wire length exceeds")]
    fn oversized_len_panics() {
        let mut w = Writer::new();
        w.put_len(u32::MAX as usize + 1);
    }

    #[test]
    fn floats_roundtrip_bits() {
        let mut w = Writer::new();
        w.put_f64(std::f64::consts::PI);
        let bytes = w.into_bytes();
        assert_eq!(
            f64::from_le_bytes(bytes[..8].try_into().unwrap()),
            std::f64::consts::PI
        );
    }
}
