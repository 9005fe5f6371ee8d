//! The lock-free growable array behind both directories of this crate:
//! the [`FeedbackBoard`](crate::FeedbackBoard)'s per-worker slots and the
//! [`ChunkHub`](crate::ChunkHub)'s per-lease slots.

use std::sync::OnceLock;

/// Slots `0..` in `SEGS` segments that double in size — segment `k` holds
/// `1 << (SEG0_BITS + k)` slots — each allocated on first touch. A slot
/// never moves, so finding one is arithmetic and one atomic load.
pub(crate) struct Doubling<T, const SEG0_BITS: u32, const SEGS: usize> {
    segments: [OnceLock<Box<[T]>>; SEGS],
}

impl<T: Default, const SEG0_BITS: u32, const SEGS: usize> Doubling<T, SEG0_BITS, SEGS> {
    pub fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Slot `i`'s `(segment, offset)`, if the segments reach it.
    #[inline]
    fn locate(i: usize) -> Option<(usize, usize)> {
        let pos = i.checked_add(1 << SEG0_BITS)?;
        let seg = (pos.ilog2() - SEG0_BITS) as usize;
        (seg < SEGS).then(|| (seg, pos - (1 << (seg as u32 + SEG0_BITS))))
    }

    /// Slot `i`, if its segment was ever touched.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        let (seg, idx) = Self::locate(i)?;
        self.segments[seg].get().map(|s| &s[idx])
    }

    /// Slot `i`, allocating its segment on first touch; `None` past the
    /// last segment.
    pub fn get_or_alloc(&self, i: usize) -> Option<&T> {
        let (seg, idx) = Self::locate(i)?;
        let len = 1 << (seg as u32 + SEG0_BITS);
        let slots = self.segments[seg].get_or_init(|| (0..len).map(|_| T::default()).collect());
        Some(&slots[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    type Small = Doubling<AtomicU64, 2, 3>; // 4 + 8 + 16 = 28 slots

    #[test]
    fn slots_fill_each_segment_in_order_and_stop_past_the_last() {
        let at = |i| Small::locate(i);
        assert_eq!(at(0), Some((0, 0)));
        assert_eq!(at(3), Some((0, 3)));
        assert_eq!(at(4), Some((1, 0)));
        assert_eq!(at(11), Some((1, 7)));
        assert_eq!(at(12), Some((2, 0)));
        assert_eq!(at(27), Some((2, 15)));
        assert_eq!(at(28), None);
        assert_eq!(at(usize::MAX), None, "the index must not wrap");
        // Every reachable slot has a place of its own.
        let mut seen = std::collections::HashSet::new();
        for i in 0..28 {
            assert!(seen.insert(at(i).unwrap()), "slot {i} shares a place");
        }
    }

    #[test]
    fn a_slot_appears_with_its_segment_and_never_moves() {
        let dir = Small::new();
        assert!(dir.get(5).is_none(), "nothing is allocated up front");
        let slot = dir.get_or_alloc(5).unwrap();
        slot.store(7, Ordering::Relaxed);
        // The whole segment came with it, and no other segment did.
        assert_eq!(dir.get(4).unwrap().load(Ordering::Relaxed), 0);
        assert!(dir.get(0).is_none());
        assert!(dir.get(12).is_none());
        // Touching more segments moves nothing already handed out.
        for i in 0..28 {
            dir.get_or_alloc(i).unwrap();
        }
        assert!(std::ptr::eq(dir.get(5).unwrap(), slot));
        assert_eq!(dir.get(5).unwrap().load(Ordering::Relaxed), 7);
        assert!(dir.get_or_alloc(28).is_none());
    }
}
