//! The bytes a connection table puts on the wire: a frame's parts, back to
//! back, are the format `SendTable` documents — pinned by a hash of a fixed
//! sequence of frames — whichever of them go out as runs of their own, and
//! they decode through a `RecvTable` to the values encoded.

use dps_serial::{Buffer, Reader, RecvTable, SendTable, Wire};
use proptest::prelude::*;

/// FNV-1a, 64 bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every frame, parts concatenated, then the frames back to back.
fn frames_of(table: &mut SendTable, frames: &mut Vec<u8>, value: &impl Wire) {
    frames.extend_from_slice(&table.encode(value).concat());
}

/// Captured from the commit before a large run left the frame's buffer:
/// the bytes did not move.
const GOLDEN: u64 = 0xbf49_7b17_cd7e_93fa;

#[test]
fn a_fixed_sequence_of_frames_keeps_its_bytes() {
    let strip: Buffer<f64> = (0..131_072).map(|i| f64::from(i) * 0.5 - 7.0).collect();
    let rows = strip.clone();
    let block = (3u32, (0..16_384).map(f64::from).collect::<Buffer<f64>>());
    let small = (
        4u32,
        (0..128).map(|i| -f64::from(i)).collect::<Buffer<f64>>(),
    );
    let flags: Buffer<bool> = (0..20_000).map(|i| i % 3 == 0).collect();
    let raw = (
        6u32,
        (0..40_000u32)
            .map(|i| (i * 7) as u8)
            .collect::<Buffer<u8>>(),
    );

    let mut table = SendTable::default();
    let mut frames = Vec::new();
    // A shared 1 MiB strip: fresh, then named.
    frames_of(&mut table, &mut frames, &(1u32, strip.clone()));
    frames_of(&mut table, &mut frames, &(2u32, rows.clone()));
    // A uniquely held 128 KiB block, a 1 KiB one.
    frames_of(&mut table, &mut frames, &block);
    frames_of(&mut table, &mut frames, &small);
    // Above the size of a run, shared, but with no byte view.
    frames_of(&mut table, &mut frames, &(5u32, flags.clone()));
    frames_of(&mut table, &mut frames, &raw);
    // Every holder of the strip gone: the next frame retires it.
    drop((strip, rows));
    frames_of(&mut table, &mut frames, &(7u32, Buffer::<u8>::new()));

    assert_eq!(frames.len(), 1_240_840);
    assert_eq!(fnv1a(&frames), GOLDEN, "{:#x}", fnv1a(&frames));
}

/// A value the way a frame carries a token: a length-prefixed run, decoded
/// after the frame's section is applied.
struct Framed<'a, T>(&'a T);

impl<T: Wire> Wire for Framed<'_, T> {
    fn wire_size(&self) -> usize {
        4 + self.0.wire_size()
    }
    fn encode(&self, w: &mut dps_serial::Writer) {
        w.put_len_prefixed(|w| self.0.encode(w));
    }
    fn decode(_: &mut Reader<'_>) -> Result<Self, dps_serial::WireError> {
        unreachable!("read back as a run")
    }
}

/// Send `value` through `tx` as one frame, parts concatenated, and read it
/// back through `rx`.
fn cross<T: Wire>(tx: &mut SendTable, rx: &mut RecvTable, value: &T) -> (Vec<u8>, T) {
    let bytes = tx.encode(&Framed(value)).concat();
    let frame = dps_serial::Bytes::from(bytes.clone());
    let mut r = Reader::shared(&frame);
    let len = r.get_len().expect("a run");
    let run = r.get_slice(len).expect("the run");
    let captured = rx.apply(&mut r).expect("the section applies");
    let got = T::decode(&mut Reader::new(run).resolving(&captured)).expect("decodes");
    (bytes, got)
}

/// Buffers of `T` whose sizes straddle the size of a run, each held once or
/// shared, crossing one connection twice: equal values both times, and a
/// frame that adds nothing to the table is exactly the plain encoding.
fn runs_cross<T: dps_serial::Pod + PartialEq + std::fmt::Debug>(
    shapes: &[(usize, bool)],
    make: impl Fn(usize) -> T,
) -> Result<(), TestCaseError> {
    let run = 16 * 1024 / T::WIDTH;
    let mut held = Vec::new();
    let value: Vec<Buffer<T>> = shapes
        .iter()
        .enumerate()
        .map(|(k, &(offset, shared))| {
            let b: Buffer<T> = (0..run - 3 + offset).map(|i| make(i + k)).collect();
            if shared {
                held.push(b.clone());
            }
            b
        })
        .collect();
    let (mut tx, mut rx) = (SendTable::default(), RecvTable::default());
    for _ in 0..2 {
        let (bytes, got) = cross(&mut tx, &mut rx, &value);
        prop_assert_eq!(&got, &value);
        if held.is_empty() {
            prop_assert_eq!(bytes, dps_serial::to_bytes(&Framed(&value)));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn runs_straddling_the_part_size_round_trip(
        shapes in proptest::collection::vec((0usize..7, any::<bool>()), 1..5),
    ) {
        runs_cross(&shapes, |i| i as f64 * 0.25)?;
        runs_cross(&shapes, |i| (i * 31) as u8)?;
        runs_cross(&shapes, |i| i % 3 == 1)?;
        runs_cross(&shapes, |i| i as u32)?;
    }
}
