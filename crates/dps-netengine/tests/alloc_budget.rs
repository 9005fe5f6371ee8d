//! The allocation budget of a large block on a connection (docs/ARCHITECTURE.md
//! §6, the copy budget): a run of a `Buffer` goes on the wire from the
//! buffer's own allocation, so encoding a frame that carries 8 MiB of
//! product allocates no frame of that size; a received table entry is a
//! view of its frame, so applying the frame copies nothing out of it; and
//! the entry's first typed decode is the one allocation of its size.
//!
//! A test binary of its own, because it counts every allocation of the
//! process through its `#[global_allocator]`. Run it with
//! `cargo test --release -p dps-netengine --test alloc_budget -- --nocapture`
//! to see the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use dps_core::{dps_token, register_token, TokenRegistry};
use dps_netengine::proto::{decode_frame_on, decode_received, Frame, Payload};
use dps_serial::{Buffer, Captured, RecvTable, SendTable};

/// The system allocator, counting the bytes of the blocks it hands out (an
/// `alloc`, an `alloc_zeroed` or a `realloc` is one block each), and the
/// blocks of [`LARGE`] bytes or more.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_BLOCKS: AtomicU64 = AtomicU64::new(0);
static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

/// What counts as a large block: a frame's worth, not a header's.
const LARGE: usize = 64 * 1024;

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed atomic adds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this binary count process-wide numbers: one at a time.
static ALONE: Mutex<()> = Mutex::new(());

/// What a closure allocated.
#[derive(Debug)]
struct Spent {
    bytes: u64,
    large_blocks: u64,
    large_bytes: u64,
}

/// `f`'s result, and what it allocated.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Spent) {
    let now = || [&BYTES, &LARGE_BLOCKS, &LARGE_BYTES].map(|c| c.load(Ordering::Relaxed));
    let before = now();
    let out = f();
    let after = now();
    let [bytes, large_blocks, large_bytes] = [0, 1, 2].map(|i| after[i] - before[i]);
    let spent = Spent {
        bytes,
        large_blocks,
        large_bytes,
    };
    (out, spent)
}

dps_token! { pub struct Product { pub c: Buffer<f64> } }
dps_token! { pub struct Task { pub j: u32, pub strip: Buffer<f64> } }

const MIB: usize = 1 << 20;

/// The broadcast of a run's 8 MiB product: its frame's body is a few bytes
/// and the product goes out as a part read from the token's buffer, so the
/// encode allocates less than a large block in all — not a fresh 8 MiB.
#[test]
fn an_output_frame_of_an_8_mib_block_allocates_no_frame_of_it() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let product = Product {
        c: (0..MIB).map(|i| i as f64).collect(),
    };
    let frame = Frame::Output {
        app: 0,
        graph: 0,
        token: Payload::Token(&product),
    };
    let mut table = SendTable::default();
    let (parts, spent) = counted(|| table.encode(&frame));
    println!("encode of an 8 MiB Output frame: {spent:?}");
    assert!(spent.bytes < LARGE as u64, "{spent:?}");
    let from_the_buffer = parts
        .iter()
        .any(|p| p.as_ptr() == product.c.as_ptr().cast() && p.len() == 8 * MIB);
    assert!(from_the_buffer, "the product is a part of its own");
    assert_eq!(parts.concat(), dps_serial::to_bytes(&frame));
}

/// A 1 MiB strip two tasks share crosses the connection in the first
/// task's frame. Applying that frame holds the entry as a view of it, with
/// no large block; the entry's first typed decode allocates the strip's
/// one block of 1 MiB; the second task's decode shares it.
#[test]
fn a_received_entry_is_a_view_until_its_one_decode() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let strip: Buffer<f64> = (0..MIB / 8).map(|i| i as f64 * 0.5).collect();
    let tasks = [1, 2].map(|j| Task {
        j,
        strip: strip.clone(),
    });
    let mut reg = TokenRegistry::new();
    register_token::<Task>(&mut reg);
    let (mut sent, mut held) = (SendTable::default(), RecvTable::default());
    let [first, second] = tasks.each_ref().map(|task| {
        let frame = Frame::Output {
            app: 0,
            graph: 0,
            token: Payload::Token(task),
        };
        sent.encode(&frame).concat()
    });
    assert!(first.len() > MIB && second.len() < 100);

    let (received, spent) = counted(|| decode_frame_on(first, &mut held).unwrap());
    println!("apply of a frame bringing a 1 MiB entry: {spent:?}");
    assert_eq!(spent.large_blocks, 0, "{spent:?}");
    assert_eq!(held.len(), 1);

    let decode = |(frame, captured): &(Frame<'static>, Captured)| {
        let Frame::Output { token, .. } = frame else {
            unreachable!("an Output was sent");
        };
        decode_received(&reg, &token.clone().into_bytes(), captured).unwrap()
    };
    let (one, spent) = counted(|| decode(&received));
    println!("first typed decode of the entry: {spent:?}");
    assert_eq!(
        (spent.large_blocks, spent.large_bytes),
        (1, MIB as u64),
        "{spent:?}"
    );

    let next = decode_frame_on(second, &mut held).unwrap();
    let (two, spent) = counted(|| decode(&next));
    assert_eq!(spent.large_blocks, 0, "{spent:?}");
    let [one, two] = [one, two].map(|t| dps_core::downcast::<Task>(t).unwrap());
    assert_eq!((&one.strip, &two.strip), (&strip, &strip));
    assert_eq!(one.strip.as_ptr(), two.strip.as_ptr(), "one allocation");
}
