//! Error type for wire encoding and decoding.

use std::fmt;

use crate::id::WireId;

/// Errors produced while decoding DPS wire data.
///
/// Encoding is infallible (the [`Writer`](crate::Writer) grows as needed);
/// all failure modes are on the decode side, where the bytes may come from a
/// remote, differently-versioned, or simply corrupted peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran out of bytes while `needed` more were required.
    UnexpectedEof {
        /// Bytes still required by the decoder.
        needed: usize,
        /// Bytes actually remaining in the buffer.
        remaining: usize,
    },
    /// A length prefix exceeded the sanity limit, indicating corruption.
    LengthOverflow {
        /// The decoded (implausible) length.
        len: u64,
    },
    /// A `bool` byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A `char` was not a valid Unicode scalar value.
    InvalidChar(u32),
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// An enum discriminant did not match any known variant.
    InvalidDiscriminant {
        /// Name of the enum type being decoded.
        type_name: &'static str,
        /// The unknown discriminant value.
        value: u32,
    },
    /// A tagged value announced a [`WireId`] unknown to the registry.
    UnknownTypeId(WireId),
    /// A tagged value was encoded with an incompatible format version.
    VersionMismatch {
        /// Version expected by this build.
        expected: u16,
        /// Version found in the byte stream.
        found: u16,
    },
    /// Decoding succeeded but left unconsumed bytes where none were expected.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A buffer named by id is not one the frame's connection table holds
    /// for it, or its bytes are not a run of the named element type.
    SharedBuffer {
        /// The id the buffer was named by.
        id: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of wire data: needed {needed} bytes, {remaining} remaining"
            ),
            WireError::LengthOverflow { len } => {
                write!(f, "implausible length prefix {len} (corrupted stream?)")
            }
            WireError::InvalidBool(b) => write!(f, "invalid bool byte {b:#x}"),
            WireError::InvalidChar(c) => write!(f, "invalid char scalar {c:#x}"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::InvalidDiscriminant { type_name, value } => {
                write!(f, "invalid discriminant {value} for enum {type_name}")
            }
            WireError::UnknownTypeId(id) => {
                write!(f, "wire id {id:?} is not registered in the type registry")
            }
            WireError::VersionMismatch { expected, found } => write!(
                f,
                "wire format version mismatch: expected {expected}, found {found}"
            ),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            WireError::SharedBuffer { id } => write!(
                f,
                "shared buffer {id} is not in this frame's connection table, \
                 or not a run of the elements named"
            ),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        let s = e.to_string();
        assert!(s.contains("needed 8"));
        assert!(s.contains("3 remaining"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(WireError::InvalidUtf8);
        assert!(e.to_string().contains("UTF-8"));
    }
}
