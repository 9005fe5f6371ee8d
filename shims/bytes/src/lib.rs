//! Minimal API-compatible subset of the `bytes` crate. The workspace builds
//! hermetically (no registry access), so the real crate is replaced by this
//! shim via a path dependency; swap the `[workspace.dependencies]` entry to
//! use the real package.
//!
//! [`BytesMut`] is a growable buffer over `Vec<u8>`; [`Bytes`] is a cheaply
//! cloneable, cheaply sliceable immutable view of a shared `Vec<u8>`.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable contiguous byte buffer. Clones and
/// [`slice`](Self::slice)s share one allocation; taking over a `Vec<u8>`
/// does not copy it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        data.to_vec().into()
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` within this buffer, sharing its allocation.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of bounds of a {len}-byte buffer"
        );
        Self {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self, f)
    }
}

/// Growable mutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy out into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Grow (filling with `value`) or truncate to `new_len` bytes.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    /// Freeze into an immutable, cheaply cloneable [`Bytes`] (no copy).
    pub fn freeze(self) -> Bytes {
        self.data.into()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Hand the buffer over without copying it.
impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Self {
        b.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(&self.data, f)
    }
}

fn debug_bytes(data: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in data {
        write!(f, "{}", std::ascii::escape_default(b))?;
    }
    write!(f, "\"")
}

/// Write access to a growable byte sink (little-endian putters only — the DPS
/// wire format is strictly little-endian).
pub trait BufMut {
    /// Append raw bytes verbatim.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append an `i8`.
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    /// Append a `u16` little-endian.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u32` little-endian.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a `u128` little-endian.
    fn put_u128_le(&mut self, v: u128) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `i16` little-endian.
    fn put_i16_le(&mut self, v: i16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `i32` little-endian.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `i64` little-endian.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `i128` little-endian.
    fn put_i128_le(&mut self, v: i128) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as IEEE-754 bits, little-endian.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as IEEE-754 bits, little-endian.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytesmut_le_layout_and_freeze() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u32_le(0x0403_0201);
        b.put_u8(9);
        assert_eq!(&b[..], &[1, 2, 3, 4, 9]);
        let frozen = b.freeze();
        let clone = frozen.clone();
        assert_eq!(&clone[..], &[1, 2, 3, 4, 9]);
        assert_eq!(frozen, clone);
    }

    #[test]
    fn slices_and_clones_share_the_allocation() {
        let whole = Bytes::from((0u8..10).collect::<Vec<_>>());
        let base = whole.as_ptr();
        let mid = whole.slice(2..8);
        assert_eq!(&mid[..], &[2, 3, 4, 5, 6, 7]);
        assert_eq!(mid.as_ptr(), base.wrapping_add(2), "a view, not a copy");
        let inner = mid.slice(1..=2);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(inner.len(), 2);
        assert!(whole.slice(10..).is_empty());
        assert_eq!(mid.clone(), Bytes::copy_from_slice(&[2, 3, 4, 5, 6, 7]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![1, 2, 3]).slice(2..5);
    }

    #[test]
    fn bytesmut_hands_its_buffer_over() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(&[1, 2, 3]);
        b.resize(5, 9);
        b[0] = 7;
        let ptr = b.as_ptr();
        let v: Vec<u8> = b.into();
        assert_eq!(v, [7, 2, 3, 9, 9]);
        assert_eq!(v.as_ptr(), ptr, "moved, not cloned");
    }

    #[test]
    fn vec_is_a_bufmut() {
        let mut v: Vec<u8> = Vec::new();
        v.put_u16_le(0x0201);
        v.put_slice(&[7]);
        assert_eq!(v, [1, 2, 7]);
    }
}
