//! Bounds-checked little-endian byte reader.

use std::sync::Arc;

use bytes::Bytes;

use crate::error::WireError;
use crate::pod::Pod;
use crate::table::Captured;

/// Sanity cap on decoded length prefixes: a single DPS container larger than
/// this (1 GiB of elements) indicates stream corruption rather than a real
/// data object, and is rejected before any allocation is attempted.
pub(crate) const MAX_WIRE_LEN: u64 = 1 << 30;

/// A cursor over received bytes used by [`Wire::decode`](crate::Wire::decode).
///
/// Every read is bounds-checked and returns [`WireError::UnexpectedEof`]
/// rather than panicking, since the bytes may come from a remote peer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared buffer `buf` views, when there is one: byte runs then
    /// decode as slices of it instead of copies.
    shared: Option<&'a Bytes>,
    /// What the received frame `buf` belongs to captured of its
    /// connection's table: a named [`Buffer`](crate::Buffer) decodes from it.
    captured: Option<&'a Captured>,
}

impl<'a> Reader<'a> {
    /// Create a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            shared: None,
            captured: None,
        }
    }

    /// Create a reader over a shared buffer: every [`get_bytes`](Self::get_bytes)
    /// is a view into `buf`, so a received frame's payloads are never
    /// copied out of it.
    pub fn shared(buf: &'a Bytes) -> Self {
        Self {
            buf,
            pos: 0,
            shared: Some(buf),
            captured: None,
        }
    }

    /// The same reader, resolving the shared buffers a received frame names
    /// from what [`RecvTable::apply`](crate::RecvTable::apply) captured for
    /// it.
    pub fn resolving(self, captured: &'a Captured) -> Self {
        Self {
            captured: Some(captured),
            ..self
        }
    }

    /// The elements of the shared buffer named `id`.
    pub(crate) fn named<T: Pod>(&self, id: u64) -> Result<Arc<Vec<T>>, WireError> {
        match self.captured {
            Some(captured) => captured.get(id),
            None => Err(WireError::SharedBuffer { id }),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute read position from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` little-endian.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32` little-endian.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` little-endian.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u128` little-endian.
    #[inline]
    pub fn get_u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read an `i8`.
    #[inline]
    pub fn get_i8(&mut self) -> Result<i8, WireError> {
        Ok(self.get_u8()? as i8)
    }

    /// Read an `i16` little-endian.
    #[inline]
    pub fn get_i16(&mut self) -> Result<i16, WireError> {
        Ok(self.get_u16()? as i16)
    }

    /// Read an `i32` little-endian.
    #[inline]
    pub fn get_i32(&mut self) -> Result<i32, WireError> {
        Ok(self.get_u32()? as i32)
    }

    /// Read an `i64` little-endian.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an `i128` little-endian.
    #[inline]
    pub fn get_i128(&mut self) -> Result<i128, WireError> {
        Ok(self.get_u128()? as i128)
    }

    /// Read an `f32` from IEEE-754 bits.
    #[inline]
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an `f64` from IEEE-754 bits.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length prefix written by [`Writer::put_len`](crate::Writer::put_len),
    /// rejecting implausible values before any allocation happens.
    #[inline]
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_u32()?;
        self.check_len(len)
    }

    /// [`get_len`](Self::get_len)'s checks of a length prefix already read.
    #[inline]
    pub(crate) fn check_len(&self, len: u32) -> Result<usize, WireError> {
        let len = u64::from(len);
        if len > MAX_WIRE_LEN {
            return Err(WireError::LengthOverflow { len });
        }
        // A length can never exceed the remaining payload: each element is at
        // least one byte on the wire. This turns huge-but-under-cap corrupt
        // lengths into an early error instead of an OOM in Vec::with_capacity.
        if len as usize > self.remaining() {
            return Err(WireError::UnexpectedEof {
                needed: len as usize,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Read exactly `n` raw bytes.
    #[inline]
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read exactly `n` raw bytes as an owned [`Bytes`]: a view when the
    /// reader is over a [shared](Self::shared) buffer, a copy otherwise.
    pub fn get_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        let at = self.pos;
        let run = self.take(n)?;
        Ok(match self.shared {
            Some(whole) => whole.slice(at..at + n),
            None => Bytes::copy_from_slice(run),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads() {
        let bytes = [1u8, 0, 0, 0, 0xff];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 1);
        assert_eq!(r.get_u8().unwrap(), 0xff);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn eof_is_reported_not_panicked() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedEof {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn len_rejects_overflow() {
        // length prefix of MAX_WIRE_LEN + 1
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(((MAX_WIRE_LEN + 1) as u32).to_le_bytes()));
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_len().unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn len_rejects_more_than_remaining() {
        // plausible length (100) but only 4 bytes of payload follow
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_len().unwrap_err(),
            WireError::UnexpectedEof { needed: 100, .. }
        ));
    }

    #[test]
    fn shared_readers_hand_out_views() {
        let whole = Bytes::from(vec![9u8, 1, 2, 3, 4]);
        let mut r = Reader::shared(&whole);
        assert_eq!(r.get_u8().unwrap(), 9);
        let run = r.get_bytes(3).unwrap();
        assert_eq!(&run[..], &[1, 2, 3]);
        assert_eq!(run.as_ptr(), whole[1..].as_ptr(), "a view, not a copy");
        assert!(matches!(
            r.get_bytes(2).unwrap_err(),
            WireError::UnexpectedEof {
                needed: 2,
                remaining: 1
            }
        ));
        // An unshared reader yields the same bytes, copied.
        let copy = Reader::new(&whole).get_bytes(2).unwrap();
        assert_eq!(&copy[..], &[9, 1]);
        assert_ne!(copy.as_ptr(), whole.as_ptr());
    }

    #[test]
    fn position_tracks_consumption() {
        let bytes = [0u8; 10];
        let mut r = Reader::new(&bytes);
        r.get_u64().unwrap();
        assert_eq!(r.position(), 8);
        assert_eq!(r.remaining(), 2);
    }
}
