//! Stable type identifiers — the factory half of the paper's `IDENTIFY`.

use crate::wire::Wire;

/// Version stamp embedded in every tagged value; lets mixed-version clusters
/// fail fast with [`WireError::VersionMismatch`](crate::WireError::VersionMismatch)
/// instead of silently misdecoding.
pub const WIRE_FORMAT_VERSION: u16 = 2;

/// Stable identifier of a wire type, derived from its registered name.
///
/// Computed with FNV-1a over the type *name* (not Rust's `TypeId`, which is
/// not stable across builds), so two independently compiled application
/// instances — the DPS scenario of one parallel program calling another —
/// agree on identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub u64);

impl WireId {
    /// Identifier for a type registered under `name`.
    pub fn of_name(name: &str) -> Self {
        WireId(hash_name(name))
    }
}

/// FNV-1a 64-bit hash of a name. Deterministic across platforms and builds,
/// and a `const fn`, so a type's identifier is computed when it is compiled.
pub const fn hash_name(name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = name.as_bytes();
    let mut h = OFFSET;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(PRIME);
        i += 1;
    }
    h
}

/// A wire type with a stable name and identifier — what the paper's
/// `IDENTIFY(ClassName)` macro declares.
///
/// Implemented via the [`identify!`](crate::identify) macro:
///
/// ```
/// use dps_serial::{impl_wire, identify, Identified, WireId};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct StringToken { s: String }
/// impl_wire!(StringToken { s });
/// identify!(StringToken);
///
/// assert_eq!(StringToken::WIRE_NAME, "StringToken");
/// assert_eq!(StringToken::wire_id(), WireId::of_name("StringToken"));
/// ```
pub trait Identified: Wire {
    /// Registered name; defaults to the bare type name in `identify!`.
    const WIRE_NAME: &'static str;

    /// Stable identifier derived from [`Self::WIRE_NAME`], a compile-time
    /// constant of the type.
    fn wire_id() -> WireId {
        WireId(const { hash_name(Self::WIRE_NAME) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Known FNV-1a 64 results.
        assert_eq!(hash_name(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_name("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_name("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_names_distinct_ids() {
        assert_ne!(WireId::of_name("CharToken"), WireId::of_name("StringToken"));
    }

    #[test]
    fn a_types_wire_id_is_the_hash_of_its_name() {
        #[derive(Debug, Clone, PartialEq)]
        struct Plain {
            x: u32,
        }
        crate::impl_wire!(Plain { x });
        crate::identify!(Plain);
        #[derive(Debug, Clone, PartialEq)]
        struct Named {
            s: String,
        }
        crate::impl_wire!(Named { s });
        crate::identify!(Named, "app.Named");
        assert_eq!(Plain::wire_id(), WireId::of_name(Plain::WIRE_NAME));
        assert_eq!(Named::wire_id(), WireId::of_name("app.Named"));
        assert_ne!(Plain::wire_id(), Named::wire_id());
        const AT_COMPILE_TIME: u64 = hash_name("foobar");
        assert_eq!(AT_COMPILE_TIME, 0x85944171f73967e8);
    }

    #[test]
    fn id_is_stable() {
        let a = WireId::of_name("MatrixBlock");
        let b = WireId::of_name("MatrixBlock");
        assert_eq!(a, b);
    }
}
