//! Declaration macros replacing the C++ `IDENTIFY` machinery.

/// Implement [`Wire`](crate::Wire) for a struct by listing its fields once.
///
/// The C++ DPS library walks data-object fields "with pointer arithmetic" so
/// no redundant declarations are needed; in Rust the single field list in
/// `impl_wire!` plays that role. Every field must itself implement `Wire`.
///
/// ```
/// use dps_serial::{impl_wire, Buffer, Wire};
///
/// #[derive(Debug, Clone, PartialEq, Default)]
/// struct FramePart {
///     frame: u64,
///     part: u32,
///     pixels: Buffer<u8>,
/// }
/// impl_wire!(FramePart { frame, part, pixels });
///
/// let fp = FramePart { frame: 3, part: 1, pixels: vec![1, 2, 3].into() };
/// assert_eq!(fp.wire_size(), 8 + 4 + (4 + 3));
/// ```
///
/// Unit structs are supported with `impl_wire!(Marker {});`.
#[macro_export]
macro_rules! impl_wire {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Wire for $ty {
            fn wire_size(&self) -> usize {
                0usize $(+ $crate::Wire::wire_size(&self.$field))*
            }
            fn encode(&self, w: &mut $crate::Writer) {
                $( $crate::Wire::encode(&self.$field, w); )*
                let _ = w; // silence unused for field-less structs
            }
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                let _ = &r; // silence unused for field-less structs
                Ok(Self {
                    $( $field: $crate::Wire::decode(r)?, )*
                })
            }
        }
    };
}

/// Implement [`Wire`](crate::Wire) for an enum with struct- or unit-like
/// variants, using an explicit `u32` discriminant per variant.
///
/// ```
/// use dps_serial::{impl_wire_enum, Wire};
///
/// #[derive(Debug, Clone, PartialEq)]
/// enum Command {
///     Start { node: u32 },
///     Stop,
///     Resize { w: u16, h: u16 },
/// }
/// impl_wire_enum!(Command {
///     0 => Start { node },
///     1 => Stop { },
///     2 => Resize { w, h },
/// });
///
/// let c = Command::Resize { w: 4, h: 2 };
/// let bytes = dps_serial::to_bytes(&c);
/// assert_eq!(dps_serial::from_bytes::<Command>(&bytes).unwrap(), c);
/// ```
///
/// An enum that borrows (`impl_wire_enum!(Msg<'a> { .. })`) names its one
/// lifetime parameter after the type.
#[macro_export]
macro_rules! impl_wire_enum {
    ($ty:ident $(<$lt:lifetime>)? { $($disc:literal => $variant:ident { $($field:ident),* $(,)? }),* $(,)? }) => {
        impl $(<$lt>)? $crate::Wire for $ty $(<$lt>)? {
            fn wire_size(&self) -> usize {
                match self {
                    $( $ty::$variant { $($field),* } => {
                        4usize $(+ $crate::Wire::wire_size($field))*
                    } )*
                }
            }
            fn encode(&self, w: &mut $crate::Writer) {
                match self {
                    $( $ty::$variant { $($field),* } => {
                        w.put_u32($disc);
                        $( $crate::Wire::encode($field, w); )*
                    } )*
                }
            }
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                match r.get_u32()? {
                    $( $disc => Ok($ty::$variant {
                        $( $field: $crate::Wire::decode(r)?, )*
                    }), )*
                    value => Err($crate::WireError::InvalidDiscriminant {
                        type_name: stringify!($ty),
                        value,
                    }),
                }
            }
        }
    };
}

/// Give a wire type a stable name and identifier — the paper's
/// `IDENTIFY(ClassName)`.
///
/// `identify!(Foo)` registers the bare name; `identify!(Foo, "my.app.Foo")`
/// chooses an explicit registered name (useful to avoid collisions between
/// applications sharing a cluster).
#[macro_export]
macro_rules! identify {
    ($ty:ident) => {
        impl $crate::Identified for $ty {
            const WIRE_NAME: &'static str = stringify!($ty);
        }
    };
    ($ty:ident, $name:literal) => {
        impl $crate::Identified for $ty {
            const WIRE_NAME: &'static str = $name;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_bytes, to_bytes, Buffer, Identified, Vector, Wire, WireId, CT};

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Complex {
        id: CT<i32>,
        name: String,
        children: Vector<Child>,
        a_buffer: Buffer<i32>,
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Child {
        tag: u8,
    }

    impl_wire!(Child { tag });
    impl_wire!(Complex {
        id,
        name,
        children,
        a_buffer
    });
    identify!(Complex, "tests.Complex");

    #[derive(Debug, Clone, PartialEq)]
    struct Empty {}
    impl_wire!(Empty {});

    #[test]
    fn paper_complex_token_shape_roundtrips() {
        // Mirrors the paper's MyComplexToken: CT<int>, string, Vector, Buffer.
        let v = Complex {
            id: 7.into(),
            name: "token".into(),
            children: vec![Child { tag: 1 }, Child { tag: 2 }].into(),
            a_buffer: vec![10, 20, 30].into(),
        };
        let got: Complex = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn explicit_name_is_used() {
        assert_eq!(Complex::WIRE_NAME, "tests.Complex");
        assert_eq!(Complex::wire_id(), WireId::of_name("tests.Complex"));
    }

    #[test]
    fn empty_struct_is_zero_bytes() {
        let e = Empty {};
        assert_eq!(e.wire_size(), 0);
        let got: Empty = from_bytes(&to_bytes(&e)).unwrap();
        assert_eq!(got, e);
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        A { x: u32 },
        B,
        C { s: String, f: f64 },
    }
    impl_wire_enum!(Msg {
        0 => A { x },
        1 => B { },
        2 => C { s, f },
    });

    #[test]
    fn enum_variants_roundtrip() {
        for v in [
            Msg::A { x: 5 },
            Msg::B,
            Msg::C {
                s: "hi".into(),
                f: 2.5,
            },
        ] {
            let got: Msg = from_bytes(&to_bytes(&v)).unwrap();
            assert_eq!(got, v);
        }
    }

    #[test]
    fn enum_bad_discriminant_rejected() {
        let bytes = 99u32.to_le_bytes();
        let err = from_bytes::<Msg>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            crate::WireError::InvalidDiscriminant {
                type_name: "Msg",
                value: 99
            }
        ));
    }

    #[test]
    fn enum_size_matches_encoding() {
        let v = Msg::C {
            s: "abc".into(),
            f: 1.0,
        };
        assert_eq!(to_bytes(&v).len(), v.wire_size());
    }
}
