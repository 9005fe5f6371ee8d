//! Property tests: the bulk [`Pod`] slice codecs are the element-wise
//! encoding, bit for bit, for every `Pod` type — and a length the input
//! cannot hold is refused before anything is allocated for it.

use dps_serial::{Pod, Reader, WireError, Writer};
use proptest::prelude::*;

/// The reference: each element through its own `Wire::encode`.
fn encode_each<T: Pod>(values: &[T]) -> Vec<u8> {
    let mut w = Writer::new();
    for v in values {
        v.encode(&mut w);
    }
    w.into_bytes()
}

/// The reference: `len` elements through `Wire::decode`, one at a time.
fn decode_each<T: Pod>(len: usize, bytes: &[u8]) -> Result<Vec<T>, WireError> {
    let mut r = Reader::new(bytes);
    (0..len).map(|_| T::decode(&mut r)).collect()
}

fn encode_bulk<T: Pod>(values: &[T]) -> Vec<u8> {
    let mut w = Writer::new();
    T::encode_slice(values, &mut w);
    w.into_bytes()
}

fn is_eof<T>(r: &Result<T, WireError>) -> bool {
    matches!(r, Err(WireError::UnexpectedEof { .. }))
}

/// Everything the bulk codecs promise, for one slice of one type. Values
/// are compared through their encodings, so NaN payloads and the sign of
/// zero count.
fn bulk_matches_reference<T: Pod + std::fmt::Debug>(values: &[T]) -> Result<(), TestCaseError> {
    let want = encode_each(values);
    let bytes = encode_bulk(values);
    prop_assert_eq!(&bytes, &want);
    prop_assert_eq!(bytes.len(), values.len() * T::WIDTH);

    // Appended to what the writer already holds, not written over it.
    let mut w = Writer::new();
    w.put_u8(0xEE);
    T::encode_slice(values, &mut w);
    prop_assert_eq!(&w.as_slice()[1..], &want[..]);
    prop_assert_eq!(w.as_slice()[0], 0xEE);

    let mut r = Reader::new(&bytes);
    let bulk = T::decode_slice(values.len(), &mut r).expect("decodes what it encoded");
    prop_assert_eq!(r.remaining(), 0, "consumes exactly len × WIDTH");
    prop_assert_eq!(bulk.len(), values.len());
    prop_assert_eq!(encode_each(&bulk), want.clone());
    let each = decode_each::<T>(values.len(), &bytes).expect("reference decodes");
    prop_assert_eq!(encode_each(&each), want);

    // Truncated input: one byte short, and cut in the middle.
    for cut in [bytes.len().saturating_sub(1), bytes.len() / 2] {
        if cut < bytes.len() {
            let got = T::decode_slice(values.len(), &mut Reader::new(&bytes[..cut]));
            prop_assert!(
                is_eof(&got),
                "truncated at {}: {:?}",
                cut,
                got.map(|v| v.len())
            );
        }
    }
    // Over-long lengths, up to ones whose byte count overflows `usize`: an
    // allocation sized from any of these would abort the test.
    for extra in [
        1,
        1 << 20,
        1 << 40,
        usize::MAX / 2,
        usize::MAX - values.len(),
    ] {
        let got = T::decode_slice(values.len() + extra, &mut Reader::new(&bytes));
        prop_assert!(is_eof(&got), "len + {}: {:?}", extra, got.map(|v| v.len()));
    }
    Ok(())
}

/// On arbitrary bytes the bulk decoder agrees with the reference: the same
/// values, or — for the two types with invalid bit patterns — the same
/// error.
fn bulk_decodes_like_reference<T: Pod + std::fmt::Debug>(
    bytes: &[u8],
) -> Result<(), TestCaseError> {
    let len = bytes.len() / T::WIDTH;
    let bulk = T::decode_slice(len, &mut Reader::new(bytes));
    let each = decode_each::<T>(len, bytes);
    match (bulk, each) {
        (Ok(a), Ok(b)) => prop_assert_eq!(encode_each(&a), encode_each(&b)),
        (a, b) => prop_assert_eq!(a.map(|v| v.len()), b.map(|v| v.len())),
    }
    Ok(())
}

macro_rules! pod_properties {
    ($($name:ident: $ty:ty;)*) => {
        proptest! {
            $(
                #[test]
                fn $name(
                    values in proptest::collection::vec(any::<$ty>(), 0..67),
                    noise in proptest::collection::vec(any::<u8>(), 0..131),
                ) {
                    bulk_matches_reference::<$ty>(&values)?;
                    bulk_decodes_like_reference::<$ty>(&noise)?;
                }
            )*
        }
    };
}

pod_properties! {
    pod_u8: u8; pod_u16: u16; pod_u32: u32; pod_u64: u64; pod_u128: u128;
    pod_i8: i8; pod_i16: i16; pod_i32: i32; pod_i64: i64; pod_i128: i128;
    pod_f32: f32; pod_f64: f64; pod_bool: bool; pod_char: char;
}

#[test]
fn float_edge_values_survive_bit_for_bit() {
    let quiet = f64::from_bits(0x7ff8_0000_dead_beef);
    let signalling = f64::from_bits(0x7ff0_0000_0000_0001);
    let values = [
        0.0,
        -0.0,
        quiet,
        signalling,
        f64::MIN_POSITIVE / 2.0,
        f64::NEG_INFINITY,
    ];
    bulk_matches_reference(&values).unwrap();
    let bytes = encode_bulk(&values);
    let back = f64::decode_slice(values.len(), &mut Reader::new(&bytes)).unwrap();
    for (a, b) in values.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let singles = [-0.0f32, f32::from_bits(0xffc0_1234)];
    bulk_matches_reference(&singles).unwrap();
}

#[test]
fn empty_slices_write_and_read_nothing() {
    bulk_matches_reference::<u64>(&[]).unwrap();
    bulk_matches_reference::<u8>(&[]).unwrap();
    bulk_matches_reference::<char>(&[]).unwrap();
}

#[test]
fn invalid_bit_patterns_are_the_element_error() {
    assert_eq!(
        bool::decode_slice(3, &mut Reader::new(&[1, 0, 2])).unwrap_err(),
        WireError::InvalidBool(2)
    );
    let surrogate = 0xD800u32.to_le_bytes();
    assert_eq!(
        char::decode_slice(1, &mut Reader::new(&surrogate)).unwrap_err(),
        WireError::InvalidChar(0xD800)
    );
}
