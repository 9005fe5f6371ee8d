//! # dps-serial — serialization substrate for DPS data objects
//!
//! The DPS paper (§3 *Expressing data objects*) lets application developers
//! declare plain C++ classes and obtain serialization, deserialization and an
//! abstract class factory "for free" through the `IDENTIFY` macro and the
//! `Buffer`/`Vector`/`CT` container templates. This crate is the Rust
//! equivalent:
//!
//! * [`Wire`] — the serialization trait (size / encode / decode), implemented
//!   for primitives, tuples, arrays, `String`, `Option`, `Vec`, `Box`.
//! * [`Writer`] / [`Reader`] — byte-stream cursors (little-endian, fixed
//!   width) built on the `bytes` crate; a run of raw bytes travels as a
//!   [`Bytes`], zero-copy on decode from a [shared](Reader::shared) buffer.
//! * [`Buffer`] — variable-size array of *simple* (plain-old-data) elements,
//!   bulk-copied on the wire (the paper's `Buffer<int>`); [`Pod`] is the
//!   element contract, and [`Pod::wire_bytes`] the byte view that makes the
//!   copy one `memcpy` — or, to a connection, none.
//! * [`SendTable`] / [`RecvTable`] / [`Captured`] — a connection's table
//!   of the shared buffers it has carried, so each crosses it once; a frame
//!   leaves it in [`Part`]s, a large run written from its buffer's own
//!   memory, and a received entry is a view of its frame until decoded.
//! * [`Vector`] — variable-size array of *complex* (nested `Wire`) elements
//!   (the paper's `Vector<Something>`).
//! * [`CT`] — transparent wrapper marking a simple type embedded in a complex
//!   data object (the paper's `CT<int>`); in Rust it is a zero-cost newtype
//!   kept for fidelity with the published API.
//! * [`WireId`] / [`Identified`] / [`Registry`] — stable type identifiers and
//!   the abstract factory used to instantiate objects during deserialization
//!   (the paper cites the *Design Patterns* factory, ref.\ \[23\]).
//! * [`impl_wire!`](crate::impl_wire) / [`impl_wire_enum!`](crate::impl_wire_enum)
//!   / [`identify!`](crate::identify) — macros replacing the C++ `IDENTIFY`
//!   macro, so a data object is declared once with no redundant field lists.
//!
//! The format is deliberately simple and deterministic: little-endian fixed
//! width integers, `u32` lengths, UTF-8 strings. Every *tagged* value starts
//! with its [`WireId`] and a format version so a receiving node can
//! instantiate the right concrete type via its [`Registry`].
//!
//! ```
//! use dps_serial::{impl_wire, identify, Wire, Writer, Reader};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct CharToken { chr: u8, pos: u32 }
//! impl_wire!(CharToken { chr, pos });
//! identify!(CharToken);
//!
//! let tok = CharToken { chr: b'a', pos: 7 };
//! let mut w = Writer::new();
//! tok.encode(&mut w);
//! let bytes = w.into_bytes();
//! let got = CharToken::decode(&mut Reader::new(&bytes)).unwrap();
//! assert_eq!(got, tok);
//! ```

mod containers;
mod error;
mod id;
mod macros;
mod maps;
mod pod;
mod reader;
mod registry;
mod table;
mod wire;
mod writer;

pub use bytes::Bytes;
pub use containers::{Buffer, Vector, CT};
pub use error::WireError;
pub use id::{hash_name, Identified, WireId, WIRE_FORMAT_VERSION};
pub use pod::Pod;
pub use reader::Reader;
pub use registry::{encode_tagged, tagged_size, DecodeFn, Registry};
pub use table::{Captured, RecvTable, SendTable};
pub use wire::Wire;
pub use writer::{Part, Writer};

/// Serialize any [`Wire`] value to a fresh byte vector.
///
/// Convenience for tests and one-shot messaging; hot paths should reuse a
/// [`Writer`].
pub fn to_bytes<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::with_capacity(value.wire_size());
    value.encode(&mut w);
    w.into_bytes()
}

/// Deserialize a [`Wire`] value from a byte slice, requiring that the whole
/// slice is consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    decode_all(Reader::new(bytes))
}

/// [`from_bytes`] over a shared buffer: every [`Bytes`] field of the value
/// comes back as a view into `bytes` instead of a copy.
pub fn from_shared<T: Wire>(bytes: &Bytes) -> Result<T, WireError> {
    decode_all(Reader::shared(bytes))
}

fn decode_all<T: Wire>(mut r: Reader<'_>) -> Result<T, WireError> {
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_via_helpers() {
        let v: Vec<u32> = vec![1, 2, 3, 0xdead_beef];
        let bytes = to_bytes(&v);
        let got: Vec<u32> = from_bytes(&bytes).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = to_bytes(&42u32);
        bytes.push(0xff);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { remaining: 1 }));
    }
}
