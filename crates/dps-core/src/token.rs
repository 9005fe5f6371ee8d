//! Data objects ("tokens") circulating through flow graphs.

use std::any::Any;
use std::fmt::Debug;

use dps_serial::{Identified, Reader, Registry, Wire, WireId, Writer};

mod carried;
pub use carried::Carried;

/// A DPS data object: any serializable, sendable, cloneable value with a
/// stable wire identity.
///
/// This trait is implemented automatically for every type that implements
/// [`Wire`] + [`Identified`] + `Clone` + `Debug` + `Send` — i.e. for every
/// type declared with [`dps_token!`](crate::dps_token) or with the
/// `impl_wire!`/`identify!` pair. User code never implements it by hand.
pub trait Token: Any + Send + Debug {
    /// Serialized payload size in bytes (drives the network model).
    fn payload_size(&self) -> usize;
    /// Serialize the payload.
    fn encode_payload(&self, w: &mut Writer);
    /// Stable type identifier.
    fn wire_id(&self) -> WireId;
    /// Registered type name (diagnostics).
    fn type_name(&self) -> &'static str;
    /// Clone into a fresh boxed token.
    fn clone_token(&self) -> TokenBox;
    /// Upcast for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Consume into `Any` for owned downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T> Token for T
where
    T: Wire + Identified + Clone + Debug + Send + 'static,
{
    fn payload_size(&self) -> usize {
        self.wire_size()
    }
    fn encode_payload(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn wire_id(&self) -> WireId {
        T::wire_id()
    }
    fn type_name(&self) -> &'static str {
        T::WIRE_NAME
    }
    fn clone_token(&self) -> TokenBox {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// An owned, type-erased token.
pub type TokenBox = Box<dyn Token>;

/// Downcast an owned token to a concrete type, returning it unchanged on
/// mismatch.
pub fn downcast<T: Token>(tok: TokenBox) -> std::result::Result<Box<T>, TokenBox> {
    if tok.as_any().is::<T>() {
        Ok(tok.into_any().downcast::<T>().expect("checked by is::<T>"))
    } else {
        Err(tok)
    }
}

/// Registry of token types for deserialization on receiving nodes — the
/// abstract class factory of the paper's `IDENTIFY` mechanism, specialised
/// to boxed tokens.
pub type TokenRegistry = Registry<TokenBox>;

/// Register a token type `T` in `reg` (idempotent).
pub fn register_token<T>(reg: &mut TokenRegistry)
where
    T: Wire + Identified + Clone + Debug + Send + 'static,
{
    reg.register_raw(T::wire_id(), T::WIRE_NAME, |r: &mut Reader<'_>| {
        Ok(Box::new(T::decode(r)?) as TokenBox)
    });
}

/// Serialize a token (tagged with its wire id and format version) and
/// deserialize it back through `reg` — the round-trip a token undergoes when
/// crossing address spaces. Used by engines that enforce the networking code
/// path even within one process (the paper's multi-kernel debugging mode).
pub fn wire_roundtrip(tok: &dyn Token, reg: &TokenRegistry) -> crate::error::Result<TokenBox> {
    let mut w = Writer::with_capacity(tok.payload_size() + 10);
    w.put_u64(tok.wire_id().0);
    w.put_u16(dps_serial::WIRE_FORMAT_VERSION);
    tok.encode_payload(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    reg.decode_tagged(&mut r)
        .map_err(|e| crate::error::DpsError::Wire(e.to_string()))
}

/// Declare a DPS data object: struct definition, `Wire` implementation,
/// stable identity, and the derives tokens need — the Rust analogue of the
/// paper's class declaration plus `IDENTIFY(ClassName)`.
///
/// A token whose struct takes at most 32 bytes at an alignment of at most 8
/// — a few integers, a chunk's ticket or its result — travels in place from
/// the operation that posts it to the one that consumes it: it costs no heap
/// block on its way. A larger one (or one declared `#[repr(align(16))]`) is
/// boxed once, when posted. A `Vec` or `String` field counts as its 24-byte
/// header; what it owns is on the heap either way.
///
/// ```
/// use dps_core::dps_token;
///
/// dps_token! {
///     /// A character and its position within a string (paper §3).
///     pub struct CharToken {
///         pub chr: u8,
///         pub pos: u32,
///     }
/// }
///
/// let t = CharToken { chr: b'a', pos: 0 };
/// assert_eq!(dps_serial::to_bytes(&t).len(), 5);
/// ```
#[macro_export]
macro_rules! dps_token {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$fmeta:meta])* pub $field:ident : $fty:ty),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field : $fty,)*
        }
        $crate::serial::impl_wire!($name { $($field),* });
        $crate::serial::identify!($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    dps_token! {
        /// Paper §3 tutorial token.
        pub struct CharToken {
            pub chr: u8,
            pub pos: u32,
        }
    }

    dps_token! {
        /// A marker with no fields.
        pub struct Done {}
    }

    fn registry() -> TokenRegistry {
        let mut reg = TokenRegistry::new();
        register_token::<CharToken>(&mut reg);
        register_token::<Done>(&mut reg);
        reg
    }

    /// A token's wire id is the FNV hash of its name, whether computed when
    /// the type is compiled or from the name at run time.
    #[test]
    fn a_tokens_wire_id_is_the_hash_of_its_name() {
        use crate::sched::{ChunkDone, ChunkTicket};
        let boxed: [TokenBox; 4] = [
            Box::new(CharToken { chr: b'x', pos: 3 }),
            Box::new(Done {}),
            Box::new(ChunkTicket {
                step: 0,
                lease: 1,
                seq: 2,
                base: 3,
                worker: 4,
            }),
            Box::new(ChunkDone {
                step: 0,
                worker: 1,
                start: 2,
                len: 3,
            }),
        ];
        for tok in &boxed {
            assert_eq!(
                tok.wire_id(),
                WireId::of_name(tok.type_name()),
                "{}",
                tok.type_name()
            );
        }
        assert_eq!(
            <ChunkTicket as Identified>::wire_id(),
            WireId::of_name(ChunkTicket::WIRE_NAME)
        );
    }

    #[test]
    fn boxed_token_reports_identity() {
        let tok: TokenBox = Box::new(CharToken { chr: b'x', pos: 3 });
        assert_eq!(tok.type_name(), "CharToken");
        assert_eq!(tok.payload_size(), 5);
        assert_eq!(tok.wire_id(), <CharToken as Identified>::wire_id());
    }

    #[test]
    fn downcast_roundtrip() {
        let tok: TokenBox = Box::new(CharToken { chr: b'x', pos: 3 });
        let got = downcast::<CharToken>(tok).unwrap();
        assert_eq!(got.pos, 3);
    }

    #[test]
    fn downcast_wrong_type_returns_original() {
        let tok: TokenBox = Box::new(Done {});
        let back = downcast::<CharToken>(tok).unwrap_err();
        assert_eq!(back.type_name(), "Done");
    }

    #[test]
    fn clone_token_preserves_value() {
        let tok: TokenBox = Box::new(CharToken { chr: b'q', pos: 9 });
        let cl = tok.clone_token();
        let got = downcast::<CharToken>(cl).unwrap();
        assert_eq!(*got, CharToken { chr: b'q', pos: 9 });
    }

    #[test]
    fn wire_roundtrip_through_registry() {
        let reg = registry();
        let tok: TokenBox = Box::new(CharToken { chr: b'z', pos: 42 });
        let got = wire_roundtrip(tok.as_ref(), &reg).unwrap();
        let got = downcast::<CharToken>(got).unwrap();
        assert_eq!(got.pos, 42);
        assert_eq!(got.chr, b'z');
    }

    #[test]
    fn wire_roundtrip_unknown_type_errors() {
        let reg = TokenRegistry::new();
        let tok: TokenBox = Box::new(Done {});
        assert!(wire_roundtrip(tok.as_ref(), &reg).is_err());
    }
}
