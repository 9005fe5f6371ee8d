//! The paper's container templates: `Buffer<T>`, `Vector<T>`, and `CT<T>`.

use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::sync::Arc;

use crate::error::WireError;
use crate::pod::Pod;
use crate::reader::Reader;
use crate::table::NAMED;
use crate::wire::Wire;
use crate::writer::Writer;

/// Variable-size array of *simple* elements, bulk-copied on the wire.
///
/// Equivalent of the paper's `Buffer<int>`: "a variable-size array of
/// integers" serialized with memory copies. Use this for large numeric
/// payloads (matrix blocks, pixel rows, cell bands); `u8` and, on a
/// little-endian target, the numeric element types encode with one memory
/// copy.
///
/// # Who owns the bytes
///
/// The elements sit behind a reference count, shared copy-on-write, so a
/// block handed to many tasks in one address space costs a pointer each:
///
/// * **O(1), no copy:** [`Clone`] (a reference-count bump — the clones
///   share one allocation), every read (`Deref`, `Index`, [`as_slice`]),
///   [`From<Vec<T>>`] / [`from_vec`] (the vector's allocation is adopted),
///   and [`into_vec`] of a buffer nobody else holds (the same allocation
///   comes back).
/// * **Copies the elements, once:** the first write (`DerefMut`,
///   `IndexMut`, [`as_mut_slice`]) to a buffer that *is* shared — the
///   writer moves to a private copy, the other holders never see the
///   write — and [`into_vec`] of a shared buffer. A write to a buffer
///   nobody else holds copies nothing.
///
/// An empty buffer holds no allocation at all. Without a connection table
/// the wire format knows none of this: a buffer encodes as its length and
/// its elements, and decodes into an allocation of its own. A frame
/// encoded through a connection's [`SendTable`](crate::SendTable) names a
/// shared buffer by id instead, so it crosses that connection once, and
/// every value the peer decodes from it shares one allocation there too.
/// There a run of 16 KiB or more whose memory is its encoding
/// ([`Pod::wire_bytes`]) is not copied into the frame at all: the frame's
/// part for it holds a clone of the buffer and is written to the socket
/// from the buffer's own allocation, which copy-on-write keeps unchanged
/// until the write returns.
///
/// [`as_slice`]: Buffer::as_slice
/// [`as_mut_slice`]: Buffer::as_mut_slice
/// [`from_vec`]: Buffer::from_vec
/// [`into_vec`]: Buffer::into_vec
#[derive(Debug, Clone, Default)]
pub struct Buffer<T: Pod> {
    /// `None` is the empty buffer: the placeholder field of the many small
    /// tokens that carry no block costs no allocation to build or decode.
    data: Option<Arc<Vec<T>>>,
}

impl<T: Pod> Buffer<T> {
    /// Empty buffer.
    pub fn new() -> Self {
        Self { data: None }
    }

    /// Buffer taking ownership of `data` (its allocation is adopted, not
    /// copied).
    pub fn from_vec(data: Vec<T>) -> Self {
        Self {
            data: (!data.is_empty()).then(|| Arc::new(data)),
        }
    }

    /// Buffer of `len` copies of `fill`.
    pub fn filled(fill: T, len: usize) -> Self {
        Self::from_vec(vec![fill; len])
    }

    /// Extract the owned element vector: the buffer's own allocation if
    /// nobody shares it, a copy otherwise.
    pub fn into_vec(self) -> Vec<T> {
        self.data.map(Arc::unwrap_or_clone).unwrap_or_default()
    }

    /// Borrow the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        self
    }

    /// Borrow the elements mutably (copying them first if the buffer is
    /// shared).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self
    }
}

impl<T: Pod> From<Vec<T>> for Buffer<T> {
    fn from(data: Vec<T>) -> Self {
        Self::from_vec(data)
    }
}

impl<T: Pod + PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Pod> Deref for Buffer<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        match &self.data {
            Some(data) => data,
            None => const { &Vec::new() },
        }
    }
}

impl<T: Pod> DerefMut for Buffer<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(self.data.get_or_insert_default())
    }
}

impl<T: Pod> Index<usize> for Buffer<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &(**self)[i]
    }
}

impl<T: Pod> IndexMut<usize> for Buffer<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut (**self)[i]
    }
}

impl<T: Pod> Wire for Buffer<T> {
    fn wire_size(&self) -> usize {
        4 + self.len() * T::WIDTH
    }
    fn encode(&self, w: &mut Writer) {
        if let Some(id) = self.data.as_ref().and_then(|data| w.name(data)) {
            w.put_u32(NAMED);
            w.put_u64(id);
            return;
        }
        w.put_len(self.len());
        if let Some(data) = &self.data {
            w.put_elements(data);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = match r.get_u32()? {
            NAMED => {
                let id = r.get_u64()?;
                return Ok(Self {
                    data: Some(r.named(id)?),
                });
            }
            len => r.check_len(len)?,
        };
        Ok(Self::from_vec(T::decode_slice(len, r)?))
    }
}

impl<T: Pod> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

/// Variable-size array of *complex* elements (nested [`Wire`] values).
///
/// Equivalent of the paper's `Vector<Something>`. In Rust this is a thin
/// newtype over `Vec<T>` — kept as a distinct type so DPS data-object
/// declarations read like the published API.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector<T: Wire> {
    data: Vec<T>,
}

impl<T: Wire> Vector<T> {
    /// Empty vector.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Vector taking ownership of `data`.
    pub fn from_vec(data: Vec<T>) -> Self {
        Self { data }
    }

    /// Extract the owned element vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Wire> From<Vec<T>> for Vector<T> {
    fn from(data: Vec<T>) -> Self {
        Self::from_vec(data)
    }
}

impl<T: Wire> Deref for Vector<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.data
    }
}

impl<T: Wire> DerefMut for Vector<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }
}

impl<T: Wire> Wire for Vector<T> {
    fn wire_size(&self) -> usize {
        self.data.wire_size()
    }
    fn encode(&self, w: &mut Writer) {
        self.data.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            data: Vec::<T>::decode(r)?,
        })
    }
}

impl<T: Wire> FromIterator<T> for Vector<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

/// Transparent wrapper marking a *simple* type embedded in a complex data
/// object — the paper's `CT<int>` / `CT<std::string>`.
///
/// The C++ library needs `CT` to route simple members through the complex
/// serializer; Rust's trait system does not, so this is a zero-cost newtype
/// preserved for API fidelity. `CT<T>` derefs to `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CT<T: Wire>(pub T);

impl<T: Wire> Deref for CT<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Wire> DerefMut for CT<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Wire> From<T> for CT<T> {
    fn from(v: T) -> Self {
        CT(v)
    }
}

impl<T: Wire> Wire for CT<T> {
    fn wire_size(&self) -> usize {
        self.0.wire_size()
    }
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CT(T::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn buffer_roundtrip_and_size() {
        let buf: Buffer<f64> = vec![1.0, 2.5, -3.0].into();
        assert_eq!(buf.wire_size(), 4 + 3 * 8);
        let got: Buffer<f64> = from_bytes(&to_bytes(&buf)).unwrap();
        assert_eq!(got, buf);
    }

    #[test]
    fn buffer_u8_fast_path_layout() {
        let buf: Buffer<u8> = vec![9, 8, 7].into();
        let bytes = to_bytes(&buf);
        assert_eq!(&bytes[4..], &[9, 8, 7]);
    }

    #[test]
    fn buffer_deref_and_index() {
        let mut buf: Buffer<u32> = Buffer::filled(0, 4);
        buf[2] = 99;
        buf.push(5);
        assert_eq!(buf.len(), 5);
        assert_eq!(buf[2], 99);
        assert_eq!(buf.as_slice(), &[0, 0, 99, 0, 5]);
    }

    #[test]
    fn buffer_golden_bytes() {
        // The format across the change of representation: a `u32` length,
        // then the elements little-endian, nothing else.
        let f: Buffer<f64> = vec![1.0, -2.5].into();
        assert_eq!(
            to_bytes(&f),
            [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0x04, 0xc0]
        );
        let u: Buffer<u32> = vec![1, 0x0102_0304, u32::MAX].into();
        assert_eq!(
            to_bytes(&u),
            [3, 0, 0, 0, 1, 0, 0, 0, 4, 3, 2, 1, 0xff, 0xff, 0xff, 0xff]
        );
        let b: Buffer<u8> = vec![9, 8, 7].into();
        assert_eq!(to_bytes(&b), [3, 0, 0, 0, 9, 8, 7]);
        for empty in [Buffer::<f64>::new(), Vec::new().into(), Buffer::default()] {
            assert_eq!(to_bytes(&empty), [0, 0, 0, 0]);
            assert_eq!(empty.wire_size(), 4);
            assert_eq!(from_bytes::<Buffer<f64>>(&[0, 0, 0, 0]).unwrap(), empty);
        }
    }

    #[test]
    fn buffer_clone_shares_storage_until_a_write() {
        let a: Buffer<f64> = vec![1.0, 2.0, 3.0].into();
        let mut b = a.clone();
        let mut c = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        // A write through a clone moves the writer to a private copy...
        b[0] = 9.0;
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(b.as_slice(), &[9.0, 2.0, 3.0]);
        // ...through any of the mutable doors...
        c.as_mut_slice()[1] = 8.0;
        assert_eq!(c.as_slice(), &[1.0, 8.0, 3.0]);
        // ...and the other holders never see it; nor does a write through
        // the original reach a clone taken before it.
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        let d = a.clone();
        let mut a = a;
        a.push(4.0);
        assert_eq!(d.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn buffer_write_to_an_unshared_buffer_copies_nothing() {
        let mut a: Buffer<u32> = vec![1, 2, 3].into();
        let before = a.as_slice().as_ptr();
        a[1] = 7;
        a.as_mut_slice()[2] = 8;
        assert_eq!(a.as_slice().as_ptr(), before);
        assert_eq!(a.as_slice(), &[1, 7, 8]);
    }

    #[test]
    fn buffer_into_vec_is_free_when_unique_and_a_copy_when_shared() {
        let v = vec![1.0f64; 1000];
        let allocation = v.as_ptr();
        let unique: Buffer<f64> = v.into();
        assert_eq!(unique.as_slice().as_ptr(), allocation, "from_vec adopts");
        let shared = unique.clone();
        let copy = shared.into_vec();
        assert_ne!(copy.as_ptr(), allocation);
        assert_eq!(copy, vec![1.0; 1000]);
        // `shared` is gone: the first handle is unique again.
        let back = unique.into_vec();
        assert_eq!(back.as_ptr(), allocation);
    }

    #[test]
    fn buffer_emptied_equals_empty() {
        let mut b: Buffer<u8> = vec![1, 2].into();
        b.clear();
        assert_eq!(b, Buffer::new());
        let mut e = Buffer::<u8>::new();
        e.push(5);
        assert_eq!(e.into_vec(), vec![5]);
    }

    #[test]
    fn buffer_crosses_threads() {
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<Buffer<f64>>();
    }

    #[test]
    fn vector_of_complex_roundtrip() {
        let v: Vector<String> = vec!["a".to_string(), "bb".to_string()].into();
        let got: Vector<String> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn nested_vector_of_buffers() {
        let v: Vector<Buffer<u16>> =
            vec![Buffer::from_vec(vec![1, 2]), Buffer::from_vec(vec![])].into();
        let got: Vector<Buffer<u16>> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn ct_is_transparent() {
        let id: CT<i32> = 42.into();
        assert_eq!(*id, 42);
        assert_eq!(id.wire_size(), 4);
        let got: CT<i32> = from_bytes(&to_bytes(&id)).unwrap();
        assert_eq!(got, id);
    }

    #[test]
    fn buffer_from_iterator() {
        let buf: Buffer<u32> = (0..5).collect();
        assert_eq!(buf.as_slice(), &[0, 1, 2, 3, 4]);
    }
}
