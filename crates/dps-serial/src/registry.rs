//! Abstract factory: instantiate values from wire identifiers.

use std::collections::HashMap;

use crate::error::WireError;
use crate::id::{Identified, WireId, WIRE_FORMAT_VERSION};
use crate::reader::Reader;
use crate::wire::Wire;
use crate::writer::Writer;

/// Factory function reconstructing one boxed value of a registered type.
pub type DecodeFn<B> = fn(&mut Reader<'_>) -> Result<B, WireError>;

/// Registry mapping [`WireId`]s to decode factories — the paper's abstract
/// class factory that "instantiate\[s\] the data object during deserialization".
///
/// The boxed output type `B` is chosen by the embedding layer; `dps-core`
/// uses `Box<dyn Token>`. Registration is explicit (Rust has no static
/// constructors): each application registers its token types once at start-up,
/// mirroring how a DPS C++ binary contains its `IDENTIFY` factories.
pub struct Registry<B> {
    factories: HashMap<WireId, (&'static str, DecodeFn<B>)>,
}

// By hand: a derive would ask for `B: Clone`, and only fn pointers are held.
impl<B> Clone for Registry<B> {
    fn clone(&self) -> Self {
        Self {
            factories: self.factories.clone(),
        }
    }
}

impl<B> Default for Registry<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> std::fmt::Debug for Registry<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.factories.values().map(|(n, _)| *n).collect();
        names.sort_unstable();
        f.debug_struct("Registry").field("types", &names).finish()
    }
}

impl<B> Registry<B> {
    /// Empty registry.
    pub fn new() -> Self {
        Self {
            factories: HashMap::new(),
        }
    }

    /// Register a factory for `id` under a human-readable `name`.
    ///
    /// Returns `false` (and keeps the existing entry) if `id` was already
    /// registered — re-registration of the same type is a no-op so shared
    /// set-up code can run repeatedly.
    pub fn register_raw(&mut self, id: WireId, name: &'static str, f: DecodeFn<B>) -> bool {
        use std::collections::hash_map::Entry;
        match self.factories.entry(id) {
            Entry::Occupied(e) => {
                let (existing, _) = e.get();
                assert_eq!(
                    *existing, name,
                    "wire id collision: {existing:?} vs {name:?} hash to the same WireId"
                );
                false
            }
            Entry::Vacant(e) => {
                e.insert((name, f));
                true
            }
        }
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True if no types are registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Whether `id` has a registered factory.
    pub fn contains(&self, id: WireId) -> bool {
        self.factories.contains_key(&id)
    }

    /// Every registered id, ascending — the registry's content in an order
    /// that does not depend on registration order.
    pub fn ids(&self) -> Vec<WireId> {
        let mut ids: Vec<WireId> = self.factories.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Decode one *tagged* value: `[wire id: u64][version: u16][payload]`.
    ///
    /// This is the receive path of a DPS kernel: look up the announced type,
    /// check the format version, and invoke the factory.
    pub fn decode_tagged(&self, r: &mut Reader<'_>) -> Result<B, WireError> {
        let id = WireId(r.get_u64()?);
        let version = r.get_u16()?;
        if version != WIRE_FORMAT_VERSION {
            return Err(WireError::VersionMismatch {
                expected: WIRE_FORMAT_VERSION,
                found: version,
            });
        }
        let (_, f) = self
            .factories
            .get(&id)
            .ok_or(WireError::UnknownTypeId(id))?;
        f(r)
    }
}

/// Encode one tagged value: `[wire id][version][payload]`. The inverse of
/// [`Registry::decode_tagged`].
pub fn encode_tagged<T: Identified>(value: &T, w: &mut Writer) {
    w.put_u64(T::wire_id().0);
    w.put_u16(WIRE_FORMAT_VERSION);
    value.encode(w);
}

/// Wire size of a value once tagged (id + version + payload).
pub fn tagged_size<T>(value: &T) -> usize
where
    T: Identified + Wire + ?Sized,
{
    8 + 2 + value.wire_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identify, impl_wire};

    #[derive(Debug, Clone, PartialEq)]
    struct Ping {
        seq: u32,
    }
    impl_wire!(Ping { seq });
    identify!(Ping);

    #[derive(Debug, Clone, PartialEq)]
    struct Pong {
        seq: u32,
    }
    impl_wire!(Pong { seq });
    identify!(Pong);

    #[derive(Debug, PartialEq)]
    enum AnyMsg {
        Ping(Ping),
        Pong(Pong),
    }

    fn registry() -> Registry<AnyMsg> {
        let mut reg = Registry::new();
        reg.register_raw(Ping::wire_id(), Ping::WIRE_NAME, |r| {
            Ok(AnyMsg::Ping(Ping::decode(r)?))
        });
        reg.register_raw(Pong::wire_id(), Pong::WIRE_NAME, |r| {
            Ok(AnyMsg::Pong(Pong::decode(r)?))
        });
        reg
    }

    #[test]
    fn tagged_roundtrip_dispatches_on_type() {
        let reg = registry();
        let mut w = Writer::new();
        encode_tagged(&Ping { seq: 1 }, &mut w);
        encode_tagged(&Pong { seq: 2 }, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            reg.decode_tagged(&mut r).unwrap(),
            AnyMsg::Ping(Ping { seq: 1 })
        );
        assert_eq!(
            reg.decode_tagged(&mut r).unwrap(),
            AnyMsg::Pong(Pong { seq: 2 })
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unknown_id_rejected() {
        let reg: Registry<AnyMsg> = Registry::new();
        let mut w = Writer::new();
        encode_tagged(&Ping { seq: 1 }, &mut w);
        let bytes = w.into_bytes();
        let err = reg.decode_tagged(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err, WireError::UnknownTypeId(Ping::wire_id()));
    }

    #[test]
    fn version_mismatch_rejected() {
        let reg = registry();
        let mut w = Writer::new();
        w.put_u64(Ping::wire_id().0);
        w.put_u16(WIRE_FORMAT_VERSION + 1);
        w.put_u32(5);
        let bytes = w.into_bytes();
        let err = reg.decode_tagged(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, WireError::VersionMismatch { .. }));
    }

    #[test]
    fn duplicate_registration_is_noop() {
        let mut reg = registry();
        let fresh = reg.register_raw(Ping::wire_id(), Ping::WIRE_NAME, |r| {
            Ok(AnyMsg::Ping(Ping::decode(r)?))
        });
        assert!(!fresh);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn tagged_size_matches() {
        let p = Ping { seq: 9 };
        let mut w = Writer::new();
        encode_tagged(&p, &mut w);
        assert_eq!(w.len(), tagged_size(&p));
    }

    #[test]
    fn debug_lists_names() {
        let reg = registry();
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("Ping") && dbg.contains("Pong"));
    }
}
