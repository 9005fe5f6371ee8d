//! Connection buffer tables: a shared [`Buffer`](crate::Buffer) crosses a
//! connection once.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use bytes::Bytes;

use crate::error::WireError;
use crate::pod::Pod;
use crate::reader::Reader;
use crate::wire::Wire;
use crate::writer::{Part, Writer, RUN_PART};

/// The length word of a named buffer: no length a [`Reader`] accepts
/// reaches it.
pub(crate) const NAMED: u32 = u32::MAX;

/// Bytes a named buffer takes in a frame's body: the marker and the id.
const REFERENCE: usize = 4 + 8;

/// One buffer a connection has carried, as its sender keeps it.
struct Sent {
    id: u64,
    /// Dead once every holder has dropped the buffer. Until the entry is
    /// swept it keeps the allocation's address from being reused, so an
    /// address found in the table is the buffer that was sent.
    alive: Weak<dyn Any + Send + Sync>,
    /// The last frame that named it: a frame lists an id once.
    frame: u64,
}

/// The sending half of a connection's buffer table: every frame a
/// connection sends is encoded through it, in the order the frames go out.
///
/// A buffer held more than once (`Arc::strong_count > 1`) whose plain
/// encoding is no shorter than a reference — a factored panel every task
/// of a step carries, an operand strip every task of a row reads — is added
/// to the table by the first frame that carries it, and from then on every
/// frame names it by id, until every holder has dropped it. Everything else
/// goes inline: a uniquely held block still decodes into an allocation of
/// its own, and a frame's body is never longer than its plain encoding.
///
/// A frame is its body — the value's plain encoding, except that a named
/// buffer is the reference `u32::MAX, id: u64` where its length and
/// elements would be — followed by a *table section* when the frame has
/// something to tell the peer's [`RecvTable`]:
///
/// ```text
/// retired  Vec<u64>   ids whose buffers the sender dropped before this frame
/// named    Vec<u64>   ids already in the table that the body names
/// fresh    u32 count, then per entry: id u64, u32 length, the elements
/// ```
///
/// A frame with nothing to tell has no section: its bytes are exactly
/// [`to_bytes`](crate::to_bytes)'s.
///
/// The frame comes back in [`Part`]s, to go out back to back: the body,
/// the section's head, the fresh entries. The elements of a buffer of
/// 16 KiB or more — inline or a fresh entry — are not copied into any of
/// them when their memory is their encoding ([`Pod::wire_bytes`]): they
/// are a part of their own, read from the buffer's allocation.
///
/// ```
/// use dps_serial::{to_bytes, Buffer, SendTable};
///
/// let panel: Buffer<f64> = vec![0.5; 512].into();
/// let tasks = [(1u32, panel.clone()), (2u32, panel.clone())];
/// let mut table = SendTable::default();
/// let lens = |parts: &[_]| parts.iter().map(|p: &dps_serial::Part| p.len()).collect::<Vec<_>>();
/// // Body, the section's head, the panel's entry.
/// assert_eq!(lens(&table.encode(&tasks[0])), [4 + 12, 12, 12 + 512 * 8]);
/// // Body, the head naming it.
/// assert_eq!(lens(&table.encode(&tasks[1])), [4 + 12, 12 + 8]);
/// assert_eq!(to_bytes(&tasks[1]).len(), 4 + 4 + 512 * 8);
///
/// // A 1 MiB strip held once goes inline, from where it lies.
/// let strip: Buffer<f64> = vec![0.25; 1 << 17].into();
/// let token = (3u32, strip);
/// let parts = table.encode(&token);
/// assert_eq!(lens(&parts), [4 + 4, 1 << 20]);
/// assert_eq!(parts[1].as_ptr(), token.1.as_ptr().cast());
/// assert_eq!(parts.concat(), to_bytes(&token));
/// ```
#[derive(Default)]
pub struct SendTable {
    /// By the address of the buffer's allocation.
    sent: HashMap<usize, Sent>,
    next_id: u64,
    /// Frames encoded so far.
    frame: u64,
    /// The ids the frame being encoded names that were in the table before.
    named: Vec<u64>,
    /// The entries the frame being encoded adds, as they go on the wire,
    /// and how many.
    fresh: Option<Writer<'static>>,
    entries: usize,
}

impl fmt::Debug for SendTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SendTable")
            .field("entries", &self.sent.len())
            .field("frames", &self.frame)
            .finish()
    }
}

impl SendTable {
    /// Encode `value` as the next frame of this table's connection: the
    /// entries whose buffers every holder dropped since the last frame are
    /// retired, and the frame is written in parts to go out back to back —
    /// the body, then, when the frame has something to tell, its section's
    /// head and its fresh entries — with every large run a part of its own.
    pub fn encode<T: Wire + ?Sized>(&mut self, value: &T) -> Vec<Part> {
        let mut retired = Vec::new();
        self.sent.retain(|_, sent| {
            let live = sent.alive.strong_count() > 0;
            if !live {
                retired.push(sent.id);
            }
            live
        });
        self.frame += 1;
        // `wire_size` counts every buffer's elements, but a named buffer
        // and a run of `RUN_PART` bytes or more leave the body, which
        // starts at most that large and grows only for many smaller runs.
        let mut body = Writer::parts(value.wire_size().min(RUN_PART), Some(self));
        value.encode(&mut body);
        let mut parts = Vec::new();
        body.into_parts(&mut parts);
        let fresh = self.fresh.take();
        if !(retired.is_empty() && self.named.is_empty() && fresh.is_none()) {
            let mut head = Writer::with_capacity(retired.wire_size() + self.named.wire_size() + 4);
            retired.encode(&mut head);
            self.named.encode(&mut head);
            head.put_len(std::mem::take(&mut self.entries));
            self.named.clear();
            head.into_parts(&mut parts);
            if let Some(fresh) = fresh {
                fresh.into_parts(&mut parts);
            }
        }
        parts
    }

    /// The id `data` goes by in the frame being encoded, if it is named
    /// rather than written whole.
    pub(crate) fn name<T: Pod>(&mut self, data: &Arc<Vec<T>>) -> Option<u64> {
        let at = Arc::as_ptr(data) as usize;
        if let Some(sent) = self.sent.get_mut(&at) {
            if sent.frame != self.frame {
                sent.frame = self.frame;
                self.named.push(sent.id);
            }
            return Some(sent.id);
        }
        if Arc::strong_count(data) < 2 || 4 + data.len() * T::WIDTH < REFERENCE {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let alive: Weak<dyn Any + Send + Sync> = Arc::<Vec<T>>::downgrade(data);
        let frame = self.frame;
        self.sent.insert(at, Sent { id, alive, frame });
        let bytes = data.len() * T::WIDTH;
        let entry = self
            .fresh
            .get_or_insert_with(|| Writer::parts(8 + 4 + bytes.min(RUN_PART), None));
        entry.put_u64(id);
        entry.put_len(bytes);
        entry.put_elements(data);
        self.entries += 1;
        Some(id)
    }
}

/// One buffer a connection has carried, as its receiver keeps it: its
/// bytes, a view of the frame that brought them, until a value names it;
/// from then on the one allocation every value that names it shares. The
/// first decode is the one copy, and it lets the frame go.
struct Entry(Mutex<Held>);

enum Held {
    Bytes(Bytes),
    Typed(Arc<dyn Any + Send + Sync>),
}

impl Entry {
    fn typed<T: Pod>(&self, id: u64) -> Result<Arc<Vec<T>>, WireError> {
        // A decode replaces the bytes only once it succeeded, so the entry
        // is whole even if another decode panicked while holding it.
        let mut held = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Held::Bytes(bytes) = &*held {
            if bytes.len() % T::WIDTH != 0 {
                return Err(WireError::SharedBuffer { id });
            }
            let elements = T::decode_slice(bytes.len() / T::WIDTH, &mut Reader::new(bytes))?;
            *held = Held::Typed(Arc::new(elements));
        }
        let Held::Typed(any) = &*held else {
            unreachable!("decoded above");
        };
        Arc::clone(any)
            .downcast()
            .map_err(|_| WireError::SharedBuffer { id })
    }
}

/// The receiving half of a connection's buffer table (see [`SendTable`]):
/// the reader of the connection hands it each frame's section, in the
/// order the frames arrive.
#[derive(Default)]
pub struct RecvTable {
    entries: HashMap<u64, Arc<Entry>>,
}

impl fmt::Debug for RecvTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecvTable")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl RecvTable {
    /// Handle what follows a frame's body (`r` is positioned there):
    /// register the entries the frame adds, capture every entry it names,
    /// then drop the ones its sender retired. The frame's values decode
    /// against the capture, however much later, whatever has been retired
    /// since. Over a [shared](Reader::shared) frame an entry is a view of
    /// it, which pins the frame until the entry's first decode or its
    /// retirement; otherwise it is a copy.
    pub fn apply(&mut self, r: &mut Reader<'_>) -> Result<Captured, WireError> {
        if r.remaining() == 0 {
            return Ok(Captured::default());
        }
        let retired = Vec::<u64>::decode(r)?;
        let named = Vec::<u64>::decode(r)?;
        let fresh = r.get_len()?;
        let mut held = Vec::with_capacity(fresh + named.len());
        for _ in 0..fresh {
            let id = r.get_u64()?;
            let len = r.get_len()?;
            let entry = Arc::new(Entry(Mutex::new(Held::Bytes(r.get_bytes(len)?))));
            self.entries.insert(id, Arc::clone(&entry));
            held.push((id, entry));
        }
        for id in named {
            let entry = self
                .entries
                .get(&id)
                .ok_or(WireError::SharedBuffer { id })?;
            held.push((id, Arc::clone(entry)));
        }
        for id in &retired {
            self.entries.remove(id);
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        held.sort_unstable_by_key(|&(id, _)| id);
        Ok(Captured((!held.is_empty()).then(|| held.into())))
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The entries of a connection's table one frame named, captured when the
/// connection's reader handled the frame: what the buffers of the frame's
/// values decode from (see [`Reader::resolving`]). Cloning it is a
/// reference-count bump.
#[derive(Clone, Default)]
pub struct Captured(Option<Entries>);

/// Entries by id, ascending.
type Entries = Arc<[(u64, Arc<Entry>)]>;

impl fmt::Debug for Captured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids = self.0.iter().flat_map(|held| held.iter().map(|(id, _)| id));
        f.debug_list().entries(ids).finish()
    }
}

impl Captured {
    pub(crate) fn get<T: Pod>(&self, id: u64) -> Result<Arc<Vec<T>>, WireError> {
        let held = self.0.as_deref().unwrap_or_default();
        let at = held
            .binary_search_by_key(&id, |&(id, _)| id)
            .map_err(|_| WireError::SharedBuffer { id })?;
        held[at].1.typed(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes, Buffer};

    /// A value the way a frame carries a token: a length-prefixed run,
    /// decoded later, against the frame's capture.
    struct Run<'a, T>(&'a T);

    impl<T: Wire> Wire for Run<'_, T> {
        fn wire_size(&self) -> usize {
            4 + self.0.wire_size()
        }
        fn encode(&self, w: &mut Writer) {
            w.put_len_prefixed(|w| self.0.encode(w));
        }
        fn decode(_: &mut Reader<'_>) -> Result<Self, WireError> {
            unreachable!("a run is read back as bytes")
        }
    }

    /// Encode `value` through `tx`, handle the frame's section through
    /// `rx`, decode the value against the capture: the frame's length and
    /// the value.
    fn cross<T: Wire>(tx: &mut SendTable, rx: &mut RecvTable, value: &T) -> (usize, T) {
        let frame = tx.encode(&Run(value)).concat();
        let mut r = Reader::new(&frame);
        let len = r.get_len().expect("a run");
        let run = r.get_slice(len).expect("the run");
        let captured = rx.apply(&mut r).expect("the section applies");
        let got = T::decode(&mut Reader::new(run).resolving(&captured)).expect("decodes");
        (frame.len(), got)
    }

    #[test]
    fn a_shared_buffer_crosses_once_and_decodes_into_one_allocation() {
        let strip: Buffer<f64> = (0..1000).map(f64::from).collect();
        let (mut tx, mut rx) = (SendTable::default(), RecvTable::default());
        let (a, first) = cross(&mut tx, &mut rx, &(1u8, strip.clone()));
        let (b, second) = cross(&mut tx, &mut rx, &(2u8, strip.clone()));
        assert!(a > 8000 && b < 64, "{a} then {b} bytes");
        assert_eq!((&first.1, &second.1), (&strip, &strip));
        assert_eq!(first.1.as_ptr(), second.1.as_ptr(), "one allocation");
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn a_buffer_held_once_goes_inline_and_a_frame_without_news_is_plain() {
        let token = (3u32, Buffer::<u32>::from(vec![7, 8, 9]));
        let (mut tx, mut rx) = (SendTable::default(), RecvTable::default());
        let parts = tx.encode(&token);
        assert_eq!((parts.len(), parts.concat()), (1, to_bytes(&token)));
        let (_, got) = cross(&mut tx, &mut rx, &token);
        assert_eq!(got, token);
        assert!(rx.is_empty());
        // Shared, but no longer than a reference: inline too.
        let tiny: Buffer<u8> = vec![1, 2, 3].into();
        let both = (tiny.clone(), tiny.clone());
        let parts = tx.encode(&both);
        assert_eq!((parts.len(), parts.concat()), (1, to_bytes(&both)));
    }

    #[test]
    fn a_large_run_goes_out_from_its_buffer_and_is_a_view_until_decoded() {
        let strip: Buffer<f64> = (0..4096).map(f64::from).collect();
        let block: Buffer<u64> = (0..4096).collect();
        let flags: Buffer<bool> = (0..RUN_PART).map(|i| i % 2 == 0).collect();
        let token = (strip.clone(), block, flags.clone(), flags.clone());
        let mut tx = SendTable::default();
        let parts = tx.encode(&Run(&token));
        // Body: the inline block's run between its written bytes; head;
        // the strip's entry, its run after its id and length; the flags'
        // entry, which has no byte view, written.
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(
            lens,
            [
                4 + 12 + 4,
                4096 * 8,
                12 + 12,
                12,
                12,
                4096 * 8,
                12 + RUN_PART
            ]
        );
        assert_eq!(parts[1].as_ptr(), token.1.as_ptr().cast());
        assert_eq!(parts[5].as_ptr(), strip.as_ptr().cast());

        let frame = bytes::Bytes::from(parts.concat());
        let mut r = Reader::shared(&frame);
        let len = r.get_len().unwrap();
        let run = r.get_slice(len).unwrap();
        let captured = RecvTable::default().apply(&mut r).unwrap();
        let strip_entry = &captured.0.as_ref().unwrap()[0].1;
        match &*strip_entry.0.lock().unwrap() {
            Held::Bytes(view) => assert!(frame.as_ptr_range().contains(&view.as_ptr())),
            Held::Typed(_) => panic!("an entry is a view of its frame until decoded"),
        }
        let got = <(Buffer<f64>, Buffer<u64>, Buffer<bool>, Buffer<bool>)>::decode(
            &mut Reader::new(run).resolving(&captured),
        );
        assert_eq!(got.unwrap(), token);
    }

    #[test]
    fn a_named_buffer_is_resolved_from_its_frame_or_refused() {
        let shared: Buffer<u64> = vec![5; 4].into();
        let pair = (shared.clone(), shared.clone());
        let frame = SendTable::default().encode(&pair).concat();
        let err = from_bytes::<(Buffer<u64>, Buffer<u64>)>(&frame).unwrap_err();
        assert_eq!(err, WireError::SharedBuffer { id: 0 });
        // The body is two references; its section adds entry 0.
        let (body, mut section) = (Reader::new(&frame), Reader::new(&frame[2 * REFERENCE..]));
        let captured = RecvTable::default().apply(&mut section).unwrap();
        let got = <(Buffer<u64>, Buffer<u64>)>::decode(&mut body.clone().resolving(&captured));
        assert_eq!(got.unwrap(), pair);
        // Named as another element type, the entry is refused, not
        // reinterpreted.
        let err = <Buffer<u32>>::decode(&mut body.resolving(&captured)).unwrap_err();
        assert_eq!(err, WireError::SharedBuffer { id: 0 });
    }
}
