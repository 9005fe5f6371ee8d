//! Plain-old-data marker and the bulk-copied [`Buffer`](crate::Buffer)
//! element contract.

use crate::error::WireError;
use crate::reader::Reader;
use crate::wire::Wire;
use crate::writer::Writer;

/// Marker for *simple* element types in the paper's sense: fixed wire size,
/// no internal structure, eligible for bulk copy inside a
/// [`Buffer`](crate::Buffer).
///
/// The C++ DPS library serializes `SimpleToken`s and `Buffer<int>` contents
/// "with simple memory copies". Rust cannot portably memcpy structs with
/// padding, so `Pod` instead guarantees a fixed `WIDTH` and bulk slice
/// encode/decode, each one pass over the slice. Where a slice's memory *is*
/// its wire encoding — `u8`, and the numeric primitives on a little-endian
/// target — [`wire_bytes`](Self::wire_bytes) says so: encoding is then one
/// memory copy, and a large run a frame carries to a connection goes on the
/// wire from the buffer that holds it (see [`SendTable`](crate::SendTable)).
/// Every `Pod` is a plain value a connection table can hold behind a
/// type-erased handle (`Send + Sync + 'static`).
pub trait Pod: Wire + Copy + Sized + Send + Sync + 'static {
    /// Serialized width of every value of this type, in bytes.
    const WIDTH: usize;

    /// The bytes `slice` occupies in memory, when they are exactly what
    /// [`encode_slice`](Self::encode_slice) writes; `None` (the default)
    /// when they are not, as for `bool`, `char` and every multi-byte type
    /// on a big-endian target.
    fn wire_bytes(slice: &[Self]) -> Option<&[u8]> {
        let _ = slice;
        None
    }

    /// Encode a whole slice: exactly the bytes of encoding each element in
    /// turn.
    fn encode_slice(slice: &[Self], w: &mut Writer);

    /// Decode `len` elements into a vector: exactly the values (or the
    /// error) of decoding each element in turn, except that a `len` the
    /// remaining input cannot hold is [`WireError::UnexpectedEof`] before
    /// anything is allocated.
    fn decode_slice(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError>;
}

/// Each element's encoding in turn, in one pass over `slice`: the encoder
/// of a type whose memory is not its wire encoding.
#[inline]
fn put_each<T: Copy, const W: usize>(slice: &[T], w: &mut Writer, to_le: impl Fn(T) -> [u8; W]) {
    for &v in slice {
        w.put_slice(&to_le(v));
    }
}

/// The next `len` elements of `W` bytes each — checked against what is left
/// of the input, so a corrupt length costs no allocation.
#[inline]
fn take_run<'a, const W: usize>(
    len: usize,
    r: &mut Reader<'a>,
) -> Result<&'a [[u8; W]], WireError> {
    Ok(r.get_slice(len.saturating_mul(W))?.as_chunks::<W>().0)
}

macro_rules! impl_pod {
    ($($ty:ty => $width:expr;)*) => {$(
        impl Pod for $ty {
            const WIDTH: usize = $width;

            fn wire_bytes(slice: &[Self]) -> Option<&[u8]> {
                cfg!(target_endian = "little").then(|| {
                    // SAFETY: `$ty` is a numeric primitive: it has no
                    // padding and every byte of every value is initialized,
                    // so the slice's memory is `size_of_val(slice)` readable
                    // bytes, borrowed for as long as the slice and with no
                    // alignment to keep. On a little-endian target they are
                    // each element's `to_le_bytes` in turn.
                    unsafe {
                        std::slice::from_raw_parts(
                            slice.as_ptr().cast::<u8>(),
                            std::mem::size_of_val(slice),
                        )
                    }
                })
            }

            fn encode_slice(slice: &[Self], w: &mut Writer) {
                match Self::wire_bytes(slice) {
                    Some(bytes) => w.put_slice(bytes),
                    None => put_each(slice, w, <$ty>::to_le_bytes),
                }
            }

            fn decode_slice(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
                let run = take_run::<{ $width }>(len, r)?;
                Ok(run.iter().map(|c| <$ty>::from_le_bytes(*c)).collect())
            }
        }
    )*};
}

impl_pod! {
    i8 => 1;
    u16 => 2; u32 => 4; u64 => 8; u128 => 16;
    i16 => 2; i32 => 4; i64 => 8; i128 => 16;
    f32 => 4; f64 => 8;
}

impl Pod for u8 {
    const WIDTH: usize = 1;

    fn wire_bytes(slice: &[Self]) -> Option<&[u8]> {
        Some(slice)
    }

    fn encode_slice(slice: &[Self], w: &mut Writer) {
        w.put_slice(slice);
    }

    fn decode_slice(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        Ok(r.get_slice(len)?.to_vec())
    }
}

impl Pod for bool {
    const WIDTH: usize = 1;

    fn encode_slice(slice: &[Self], w: &mut Writer) {
        put_each(slice, w, |v| [u8::from(v)]);
    }

    fn decode_slice(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let run = take_run::<1>(len, r)?;
        run.iter()
            .map(|c| bool::decode(&mut Reader::new(c)))
            .collect()
    }
}

impl Pod for char {
    const WIDTH: usize = 4;

    fn encode_slice(slice: &[Self], w: &mut Writer) {
        put_each(slice, w, |v| u32::from(v).to_le_bytes());
    }

    fn decode_slice(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, WireError> {
        let run = take_run::<4>(len, r)?;
        run.iter()
            .map(|c| char::decode(&mut Reader::new(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_wire_size() {
        assert_eq!(<u32 as Pod>::WIDTH, 0u32.wire_size());
        assert_eq!(<f64 as Pod>::WIDTH, 0f64.wire_size());
        assert_eq!(<bool as Pod>::WIDTH, true.wire_size());
        assert_eq!(<char as Pod>::WIDTH, 'x'.wire_size());
    }

    #[test]
    fn a_byte_view_is_the_encoding_where_there_is_one() {
        /// Whether `values` have a byte view, checking any they have.
        fn viewed<T: Pod>(values: &[T]) -> bool {
            let mut w = Writer::new();
            values.iter().for_each(|v| v.encode(&mut w));
            let view = T::wire_bytes(values);
            if let Some(view) = view {
                assert_eq!(view, w.as_slice());
                assert_eq!(view.as_ptr(), values.as_ptr().cast());
            }
            view.is_some()
        }
        let little = cfg!(target_endian = "little");
        assert!(viewed(&[1u8, 2, 255]));
        assert_eq!(viewed(&[1.5f64, -0.0, f64::NAN]), little);
        assert_eq!(viewed(&[i128::MIN, 3]), little);
        assert_eq!(viewed(&[u16::MAX, 7]), little);
        assert!(!viewed(&[true, false]));
        assert!(!viewed(&['x', '\u{10FFFF}']));
    }

    #[test]
    fn u8_bulk_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        let mut w = Writer::new();
        u8::encode_slice(&data, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, data);
        let got = u8::decode_slice(data.len(), &mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn i8_bulk_roundtrip() {
        let data: Vec<i8> = vec![-128, -1, 0, 1, 127];
        let mut w = Writer::new();
        i8::encode_slice(&data, &mut w);
        let bytes = w.into_bytes();
        let got = i8::decode_slice(data.len(), &mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn generic_bulk_roundtrip() {
        let data: Vec<f32> = vec![1.5, -2.25, 0.0];
        let mut w = Writer::new();
        f32::encode_slice(&data, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), data.len() * <f32 as Pod>::WIDTH);
        let got = f32::decode_slice(data.len(), &mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, data);
    }
}
