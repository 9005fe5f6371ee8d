//! The [`Wire`] trait and implementations for standard types.

use crate::error::WireError;
use crate::reader::Reader;
use crate::writer::Writer;

/// Serialization contract for DPS data objects and their fields.
///
/// Mirrors what the paper's `IDENTIFY` machinery provides implicitly in C++:
/// a way to measure, write, and reconstruct a value from a byte stream with a
/// single declaration of its fields (see [`impl_wire!`](crate::impl_wire)).
///
/// Invariants:
/// * `encode` writes exactly `wire_size()` bytes — at most that many into a
///   writer of a connection table ([`SendTable`](crate::SendTable)), which
///   names a shared buffer instead of writing it;
/// * `decode(encode(v)) == v` for every value (round-trip);
/// * the encoding is independent of host endianness and platform word size.
pub trait Wire {
    /// Exact number of bytes `encode` will produce for `self`.
    fn wire_size(&self) -> usize;

    /// Append the serialized form of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Reconstruct a value from the byte stream.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;
}

macro_rules! impl_wire_primitive {
    ($($ty:ty => $put:ident, $get:ident, $size:expr;)*) => {
        $(
            impl Wire for $ty {
                #[inline]
                fn wire_size(&self) -> usize { $size }
                #[inline]
                fn encode(&self, w: &mut Writer) { w.$put(*self); }
                #[inline]
                fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> { r.$get() }
            }
        )*
    };
}

impl_wire_primitive! {
    u8   => put_u8,   get_u8,   1;
    u16  => put_u16,  get_u16,  2;
    u32  => put_u32,  get_u32,  4;
    u64  => put_u64,  get_u64,  8;
    u128 => put_u128, get_u128, 16;
    i8   => put_i8,   get_i8,   1;
    i16  => put_i16,  get_i16,  2;
    i32  => put_i32,  get_i32,  4;
    i64  => put_i64,  get_i64,  8;
    i128 => put_i128, get_i128, 16;
    f32  => put_f32,  get_f32,  4;
    f64  => put_f64,  get_f64,  8;
}

/// `usize` travels as `u64` so 32- and 64-bit nodes interoperate.
impl Wire for usize {
    #[inline]
    fn wire_size(&self) -> usize {
        8
    }
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow { len: v })
    }
}

impl Wire for bool {
    #[inline]
    fn wire_size(&self) -> usize {
        1
    }
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }
}

impl Wire for char {
    #[inline]
    fn wire_size(&self) -> usize {
        4
    }
    #[inline]
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self as u32);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.get_u32()?;
        char::from_u32(v).ok_or(WireError::InvalidChar(v))
    }
}

impl Wire for () {
    #[inline]
    fn wire_size(&self) -> usize {
        0
    }
    #[inline]
    fn encode(&self, _w: &mut Writer) {}
    #[inline]
    fn decode(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        w.put_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let bytes = r.get_slice(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

/// A run of raw bytes: `u32` length, then the bytes, moved with one copy in
/// each direction — and none on decode when the [`Reader`] is over a
/// [shared](Reader::shared) buffer. The same layout as a `Vec<u8>` or a
/// `Buffer<u8>` field.
impl Wire for bytes::Bytes {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        w.put_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        r.get_bytes(len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_size)
    }
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(WireError::InvalidBool(b)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_size(&self) -> usize {
        4 + self.iter().map(Wire::wire_size).sum::<usize>()
    }
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Box<T> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn wire_size(&self) -> usize {
        self.iter().map(Wire::wire_size).sum()
    }
    fn encode(&self, w: &mut Writer) {
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Build into a Vec first; avoids unsafe MaybeUninit juggling for the
        // cold decode path.
        let mut v = Vec::with_capacity(N);
        for _ in 0..N {
            v.push(T::decode(r)?);
        }
        v.try_into()
            .map_err(|_| unreachable!("length is guaranteed to be N"))
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn wire_size(&self) -> usize {
                0 $(+ self.$idx.wire_size())+
            }
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(bytes.len(), v.wire_size(), "wire_size must match encode");
        let got: T = from_bytes(&bytes).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(i16::MIN);
        roundtrip(0x1234_5678u32);
        roundtrip(u64::MAX);
        roundtrip(i128::MIN);
        roundtrip(-0.0f32);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip('é');
        roundtrip(());
        roundtrip(usize::MAX / 2);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = f64::NAN;
        let bytes = to_bytes(&v);
        let got: f64 = from_bytes(&bytes).unwrap();
        assert_eq!(got.to_bits(), v.to_bits());
    }

    #[test]
    fn compound_roundtrip() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u16, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(vec![Some(vec![1u8, 2]), None]);
        roundtrip(Box::new(7i64));
        roundtrip([1u32, 2, 3, 4]);
        roundtrip((1u8, String::from("x"), -3i32));
        roundtrip((1u8, 2u8, 3u8, 4u8, 5u8, 6u8));
    }

    #[test]
    fn bytes_share_the_byte_vector_layout() {
        let run = bytes::Bytes::from(vec![1u8, 2, 3, 250]);
        roundtrip(run.clone());
        roundtrip(bytes::Bytes::new());
        assert_eq!(to_bytes(&run), to_bytes(&run.to_vec()));
        // Decoded from a shared buffer, the run is a view into it.
        let frame = bytes::Bytes::from(to_bytes(&(7u8, run.clone())));
        let (tag, got): (u8, bytes::Bytes) = crate::from_shared(&frame).unwrap();
        assert_eq!((tag, &got), (7, &run));
        assert_eq!(got.as_ptr(), frame[5..].as_ptr());
    }

    #[test]
    fn invalid_bool_rejected() {
        let err = from_bytes::<bool>(&[2]).unwrap_err();
        assert_eq!(err, WireError::InvalidBool(2));
    }

    #[test]
    fn invalid_char_rejected() {
        let bytes = 0xD800u32.to_le_bytes(); // surrogate: invalid scalar
        let err = from_bytes::<char>(&bytes).unwrap_err();
        assert_eq!(err, WireError::InvalidChar(0xD800));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let err = from_bytes::<String>(&bytes).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8);
    }

    #[test]
    fn truncated_vec_rejected() {
        let bytes = to_bytes(&vec![1u32, 2, 3]);
        let err = from_bytes::<Vec<u32>>(&bytes[..bytes.len() - 2]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
    }

    #[test]
    fn usize_is_eight_bytes_on_wire() {
        assert_eq!(5usize.wire_size(), 8);
    }
}
