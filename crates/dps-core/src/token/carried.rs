//! A token carried in place: the one value every engine moves a data object
//! in, from the operation that posts it to the one that consumes it.
//!
//! A token of at most `ROOM` (32) bytes whose alignment is at most 8 —
//! a chunk's ticket, its result, most control tokens — is held in the
//! value's own four words, so posting it allocates nothing and consuming it
//! frees nothing. Any other token keeps its [`TokenBox`] in the same words:
//! one representation, no knob. A token leaves as a box
//! ([`Carried::into_box`]) where the public API hands it out.
//!
//! This module holds all of `dps-core`'s `unsafe`: writing a token into the
//! words, seeing it there through its type's table, and moving it out once.

use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop, MaybeUninit};
use std::ops::Deref;
use std::ptr;

use super::{Token, TokenBox};

/// The words a token is held in: room for `ROOM` bytes, aligned to 8.
type Words = [MaybeUninit<u64>; 4];

/// The most bytes a token held in place may take.
const ROOM: usize = mem::size_of::<Words>();

/// Whether a `T` is held in place: it fits the words in size and alignment.
const fn fits<T>() -> bool {
    mem::size_of::<T>() <= ROOM && mem::align_of::<T>() <= mem::align_of::<Words>()
}

/// How a [`Carried`]'s words hold its token: one table per token type held
/// in place, one for a box.
struct Table {
    /// Where the token lies.
    view: unsafe fn(*const Words) -> *const dyn Token,
    /// Move the token out of the words into a box.
    unload: unsafe fn(*mut Words) -> TokenBox,
    /// The words hold a [`TokenBox`].
    boxed: bool,
}

struct InPlace<T>(PhantomData<T>);

impl<T: Token> InPlace<T> {
    const TABLE: &'static Table = &Table {
        view: view_in_place::<T>,
        unload: unload_in_place::<T>,
        boxed: false,
    };
}

const BOXED: &Table = &Table {
    view: view_boxed,
    unload: unload_boxed,
    boxed: true,
};

fn view_in_place<T: Token>(words: *const Words) -> *const dyn Token {
    words.cast::<T>()
}

/// # Safety
/// `words` holds a `T`, which this moves out: it is not read again.
unsafe fn unload_in_place<T: Token>(words: *mut Words) -> TokenBox {
    Box::new(words.cast::<T>().read())
}

/// # Safety
/// `words` holds a [`TokenBox`], valid for as long as the pointer returned
/// is used.
unsafe fn view_boxed(words: *const Words) -> *const dyn Token {
    &**words.cast::<TokenBox>()
}

/// # Safety
/// `words` holds a [`TokenBox`], which this moves out: it is not read again.
unsafe fn unload_boxed(words: *mut Words) -> TokenBox {
    words.cast::<TokenBox>().read()
}

/// An owned, type-erased token as the kernel moves it: held in place when it
/// fits in 32 bytes at an alignment of at most 8, boxed otherwise. It
/// derefs to `&dyn Token`, is taken out by value ([`take`](Self::take)) and
/// leaves as a box ([`into_box`](Self::into_box)).
pub struct Carried {
    table: &'static Table,
    words: Words,
    /// It owns a `dyn Token`: `Send`, as a token is, and never `Sync`.
    _owns: PhantomData<TokenBox>,
}

impl Carried {
    /// Carry `token`: in place if it fits, else in a box of its own.
    #[inline]
    pub fn new<T: Token>(token: T) -> Self {
        if !fits::<T>() {
            return Self::from_box(Box::new(token));
        }
        let mut words = [MaybeUninit::uninit(); 4];
        // SAFETY: a `T` fits the words in size and alignment (`fits`), and
        // the table written beside it is `T`'s.
        unsafe { words.as_mut_ptr().cast::<T>().write(token) };
        Self {
            table: InPlace::<T>::TABLE,
            words,
            _owns: PhantomData,
        }
    }

    /// Carry a token that is boxed already, in its box.
    #[inline]
    pub fn from_box(token: TokenBox) -> Self {
        const { assert!(fits::<TokenBox>()) };
        let mut words = [MaybeUninit::uninit(); 4];
        // SAFETY: a `TokenBox` fits the words (asserted above), and the
        // table written beside it is `BOXED`.
        unsafe { words.as_mut_ptr().cast::<TokenBox>().write(token) };
        Self {
            table: BOXED,
            words,
            _owns: PhantomData,
        }
    }

    /// The token lies in this value, not in a box.
    #[cfg(test)]
    fn is_in_place(&self) -> bool {
        !self.table.boxed
    }

    /// The token by value if it is a `T`; handed back unchanged otherwise.
    #[inline]
    pub fn take<T: Token>(self) -> Result<T, Self> {
        if !self.as_any().is::<T>() {
            return Err(self);
        }
        let mut this = ManuallyDrop::new(self);
        let words: *mut Words = &mut this.words;
        // SAFETY: the token is a `T` (checked above), held as the table
        // says: in place, or in a box. `this` is never dropped, so the
        // token is moved out once.
        Ok(unsafe {
            match this.table.boxed {
                false => words.cast::<T>().read(),
                true => *unload_boxed(words)
                    .into_any()
                    .downcast::<T>()
                    .expect("checked to be a T"),
            }
        })
    }

    /// The token in a box of its own: its box, or a new one.
    #[inline]
    pub fn into_box(self) -> TokenBox {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: the table is the one the words were written with; `this`
        // is never dropped, so the token is moved out once.
        unsafe { (this.table.unload)(&mut this.words) }
    }
}

impl Deref for Carried {
    type Target = dyn Token;

    #[inline]
    fn deref(&self) -> &dyn Token {
        // SAFETY: the table is the one the words were written with, and the
        // token lives as long as `self` is borrowed.
        unsafe { &*(self.table.view)(&self.words) }
    }
}

impl Drop for Carried {
    fn drop(&mut self) {
        let words: *mut Words = &mut self.words;
        // SAFETY: the words hold what the table says, once: a token that
        // was moved out left with a `ManuallyDrop` of this value.
        unsafe {
            match self.table.boxed {
                true => ptr::drop_in_place(words.cast::<TokenBox>()),
                false => ptr::drop_in_place((self.table.view)(words).cast_mut()),
            }
        }
    }
}

impl fmt::Debug for Carried {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::dps_token;
    use crate::sched::{ChunkDone, ChunkTicket};
    use dps_serial::{Identified, Reader, WireError, Writer};

    /// A token of exactly `N` bytes at alignment 1.
    #[derive(Debug, Clone, PartialEq)]
    struct Raw<const N: usize>([u8; N]);

    impl<const N: usize> dps_serial::Wire for Raw<N> {
        fn wire_size(&self) -> usize {
            N
        }
        fn encode(&self, w: &mut Writer) {
            self.0.iter().for_each(|&b| w.put_u8(b));
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            let mut bytes = [0; N];
            for b in &mut bytes {
                *b = r.get_u8()?;
            }
            Ok(Raw(bytes))
        }
    }

    impl<const N: usize> Identified for Raw<N> {
        const WIRE_NAME: &'static str = "Raw";
    }

    dps_token! {
        /// Sixteen bytes at alignment 16: small, but over-aligned.
        #[repr(align(16))]
        pub struct Wide { pub x: u64 }
    }

    dps_token! {
        pub struct Quad { pub a: u64, pub b: u64, pub c: u64, pub d: u64 }
    }

    fn bytes(tok: &dyn Token) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(tok.wire_id().0);
        tok.encode_payload(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_32_byte_token_is_held_in_place_and_a_larger_or_over_aligned_one_is_boxed() {
        assert_eq!(mem::size_of::<Raw<32>>(), 32);
        assert!(Carried::new(Raw([7; 32])).is_in_place());
        assert!(Carried::new(Quad {
            a: 1,
            b: 2,
            c: 3,
            d: 4
        })
        .is_in_place());
        assert!(!Carried::new(Raw([7; 33])).is_in_place());
        assert_eq!((mem::size_of::<Wide>(), mem::align_of::<Wide>()), (16, 16));
        assert!(!Carried::new(Wide { x: 1 }).is_in_place());
        // A chunk's ticket and its result, the token-bound loop's two.
        let ticket = ChunkTicket {
            step: 0,
            lease: 1,
            seq: 2,
            base: 3,
            worker: 4,
        };
        let done = ChunkDone {
            step: 0,
            worker: 1,
            start: 2,
            len: 3,
        };
        assert!(Carried::new(ticket).is_in_place() && Carried::new(done).is_in_place());
        assert!(!Carried::from_box(Box::new(Raw([0; 4]))).is_in_place());
        assert_eq!(mem::size_of::<Carried>(), 40);
        assert_eq!(mem::size_of::<Option<Carried>>(), 40);
    }

    #[test]
    fn take_gives_the_value_back_from_either_representation() {
        let small = Raw([1, 2, 3]);
        assert_eq!(Carried::new(small.clone()).take::<Raw<3>>().unwrap(), small);
        let boxed = Carried::from_box(Box::new(small.clone()));
        assert_eq!(boxed.take::<Raw<3>>().unwrap(), small);
        let big = Raw([9; 40]);
        assert_eq!(Carried::new(big.clone()).take::<Raw<40>>().unwrap(), big);
        let wide = Wide { x: 5 };
        assert_eq!(Carried::new(wide.clone()).take::<Wide>().unwrap(), wide);
        let boxed = Carried::new(Quad {
            a: 1,
            b: 2,
            c: 3,
            d: 4,
        })
        .into_box();
        assert_eq!(crate::downcast::<Quad>(boxed).unwrap().d, 4);
    }

    #[test]
    fn take_of_the_wrong_type_hands_the_token_back_intact() {
        let tokens = [
            Carried::new(Quad {
                a: 1,
                b: 2,
                c: 3,
                d: 4,
            }),
            Carried::from_box(Box::new(Quad {
                a: 1,
                b: 2,
                c: 3,
                d: 4,
            })),
            Carried::new(Raw([5; 48])),
        ];
        for tok in tokens {
            let (name, wire, in_place) = (tok.type_name(), bytes(&*tok), tok.is_in_place());
            let back = tok.take::<Wide>().unwrap_err();
            assert_eq!(back.type_name(), name);
            assert_eq!(bytes(&*back), wire);
            assert_eq!(back.is_in_place(), in_place);
        }
    }

    #[test]
    fn a_token_in_place_and_in_a_box_encode_and_print_alike() {
        let value = Quad {
            a: 1,
            b: u64::MAX,
            c: 3,
            d: 0,
        };
        let (in_place, boxed) = (
            Carried::new(value.clone()),
            Carried::from_box(Box::new(value)),
        );
        assert!(in_place.is_in_place() && !boxed.is_in_place());
        assert_eq!(bytes(&*in_place), bytes(&*boxed));
        assert_eq!(format!("{in_place:?}"), format!("{boxed:?}"));
        assert_eq!(
            format!("{in_place:?}"),
            format!("{:?}", in_place.into_box())
        );
    }

    thread_local! {
        static DROPPED: Cell<u32> = const { Cell::new(0) };
    }

    /// A token whose drops are counted on this thread.
    #[derive(Debug, Clone)]
    struct Counted<const N: usize>([u8; N]);

    impl<const N: usize> Drop for Counted<N> {
        fn drop(&mut self) {
            DROPPED.set(DROPPED.get() + 1);
        }
    }

    impl<const N: usize> dps_serial::Wire for Counted<N> {
        fn wire_size(&self) -> usize {
            0
        }
        fn encode(&self, _w: &mut Writer) {}
        fn decode(_r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(Counted([0; N]))
        }
    }

    impl<const N: usize> Identified for Counted<N> {
        const WIRE_NAME: &'static str = "Counted";
    }

    /// Each way a carried token ends — dropped, taken, boxed, handed back —
    /// drops it exactly once, in place and boxed.
    #[test]
    fn every_way_out_drops_the_token_once() {
        fn ways<const N: usize>() {
            let ends: [fn(Carried); 5] = [
                drop,
                |c| drop(c.take::<Counted<N>>().unwrap()),
                |c| drop(c.into_box()),
                |c| drop(c.take::<Wide>().unwrap_err()),
                |c| drop(crate::downcast::<Counted<N>>(c.into_box()).unwrap()),
            ];
            for (i, end) in ends.into_iter().enumerate() {
                let makes: [fn(Counted<N>) -> Carried; 2] =
                    [Carried::new, |t| Carried::from_box(Box::new(t))];
                for make in makes {
                    DROPPED.set(0);
                    end(make(Counted([0; N])));
                    assert_eq!(DROPPED.get(), 1, "size {N}, way {i}");
                }
            }
        }
        ways::<0>();
        ways::<32>();
        ways::<33>();
    }
}
