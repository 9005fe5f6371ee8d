//! The trace collector: label interning, per-worker writer handles, and the
//! merged event log.
//!
//! One [`TraceCollector`] is attached to an engine (`set_trace_sink`); the
//! engine hands each executing thread its own [`TraceWriter`] (one SPSC ring
//! per writer, single-producer by construction) and calls
//! [`drain`](TraceCollector::drain) at wave boundaries. [`take_log`]
//! (TraceCollector::take_log) yields the merged, time-ordered [`TraceLog`]
//! the exporters and the schedule hash consume.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use crate::event::{EventKind, LabelId, TraceEvent};
use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::ring::EventRing;

/// Default per-writer ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// A drained, merged, time-ordered trace: the label table plus the events.
///
/// This is the exchange format between collectors (the process engine ships
/// worker logs to the master as one of these) and the input to the Chrome
/// exporter, the wave summaries and the schedule hash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Interned strings; [`LabelId`] indexes into this table.
    pub labels: Vec<String>,
    /// Events, stably ordered by timestamp.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// The string behind `id` (empty for out-of-range ids).
    pub fn label(&self, id: LabelId) -> &str {
        self.labels.get(id.0 as usize).map_or("", |s| s.as_str())
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Label interner: id 0 is always the empty string.
#[derive(Default)]
struct Interner {
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> LabelId {
        if self.names.is_empty() {
            self.names.push(String::new());
        }
        if let Some(i) = self.names.iter().position(|n| n == s) {
            return LabelId(i as u32);
        }
        self.names.push(s.to_string());
        LabelId((self.names.len() - 1) as u32)
    }

    fn snapshot(&self) -> Vec<String> {
        if self.names.is_empty() {
            vec![String::new()]
        } else {
            self.names.clone()
        }
    }
}

/// The engine-facing trace sink: interns labels, hands out per-worker
/// [`TraceWriter`]s, merges their rings into one ordered log, and carries
/// the [`MetricsRegistry`].
///
/// All methods take `&self`; the collector is shared via `Arc` between the
/// application (which exports) and the engine (which records).
pub struct TraceCollector {
    labels: Mutex<Interner>,
    rings: Mutex<Vec<Arc<EventRing>>>,
    log: Mutex<Vec<TraceEvent>>,
    metrics: Arc<MetricsRegistry>,
    epoch: Instant,
    ring_capacity: usize,
    /// Ring-drop totals already folded into the metrics counter.
    folded_drops: AtomicU64,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("writers", &self.rings.lock().unwrap().len())
            .field("pending_log", &self.log.lock().unwrap().len())
            .finish()
    }
}

impl TraceCollector {
    /// A collector with the default per-writer ring capacity.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A collector whose writers get rings of at least `capacity` events.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self {
            labels: Mutex::new(Interner::default()),
            rings: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            epoch: Instant::now(),
            ring_capacity: capacity,
            folded_drops: AtomicU64::new(0),
        }
    }

    /// Intern `name`, returning its stable id (cold path: takes a lock).
    pub fn label(&self, name: &str) -> LabelId {
        self.labels.lock().unwrap().intern(name)
    }

    /// Wall-clock nanoseconds since this collector was created — the
    /// timestamp base for the wall-clock engines. (The simulator passes its
    /// own virtual nanoseconds instead.)
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The system clock and [`now_nanos`](Self::now_nanos), read together:
    /// `(nanoseconds since the Unix epoch, now_nanos)`. Where two
    /// collectors share one host's system clock, one's readings place the
    /// other's stamps on its own epoch ([`ingest`](Self::ingest)).
    pub fn clock(&self) -> (u64, u64) {
        let unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap_or_default();
        (unix.as_nanos() as u64, self.now_nanos())
    }

    /// What [`now_nanos`](Self::now_nanos) read at `instant`.
    pub fn stamp(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The metrics registry, shared with e.g. a `ChunkHub`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A clonable handle to the metrics registry.
    pub fn metrics_arc(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Register a new single-producer writer stamping `(node, thread)` by
    /// default. Cold path — engines call this once per executing thread.
    pub fn writer(self: &Arc<Self>, node: u16, thread: u16) -> TraceWriter {
        let ring = Arc::new(EventRing::new(self.ring_capacity));
        let mut rings = self.rings.lock().unwrap();
        rings.push(Arc::clone(&ring));
        self.metrics
            .gauge_max(Gauge::WritersPeak, rings.len() as u64);
        drop(rings);
        TraceWriter {
            ring,
            cached_head: 0,
            node,
            thread,
        }
    }

    /// Record one event directly into the merged log, bypassing the rings —
    /// the cold path for rare events (errors, node-down) recorded from
    /// threads that have no writer of their own. Timestamped with
    /// [`now_nanos`](Self::now_nanos).
    pub fn record_now(&self, node: u16, thread: u16, kind: EventKind) {
        let at = self.now_nanos();
        self.log.lock().unwrap().push(TraceEvent {
            at,
            node,
            thread,
            kind,
        });
    }

    /// Drain every writer's ring into the pending log and order what was
    /// drained stably by timestamp — cheap while each writer records in
    /// time order, as the engines do but for a few events. Engines call this
    /// once per wave and once at idle.
    pub fn drain(&self) {
        let rings = self.rings.lock().unwrap();
        let mut log = self.log.lock().unwrap();
        let fresh = log.len();
        let mut total_drops = 0;
        for r in rings.iter() {
            r.drain_into(&mut log);
            total_drops += r.dropped();
        }
        drop(rings);
        let folded = self.folded_drops.swap(total_drops, Ordering::Relaxed);
        if total_drops > folded {
            self.metrics
                .add(Counter::EventsDropped, total_drops - folded);
        }
        log[fresh..].sort_by_key(|e| e.at);
    }

    /// Append an already-merged log from another collector (the process
    /// engine's master ingesting a worker's shipped trace), remapping the
    /// foreign label ids into this collector's table and moving its stamps
    /// from the foreign collector's epoch onto this one's. `clock` is the
    /// foreign collector's [`clock`](Self::clock), read on the same host.
    pub fn ingest(&self, foreign: &TraceLog, clock: (u64, u64)) {
        let map: Vec<LabelId> = {
            let mut labels = self.labels.lock().unwrap();
            foreign.labels.iter().map(|n| labels.intern(n)).collect()
        };
        let remap = |id: LabelId| map.get(id.0 as usize).copied().unwrap_or(LabelId(0));
        // Each epoch in system-clock nanoseconds: where the clock stood
        // when the collector read zero.
        let epoch = |(unix, now): (u64, u64)| i128::from(unix) - i128::from(now);
        let shift = epoch(clock) - epoch(self.clock());
        let moved = |at: u64| (i128::from(at) + shift).clamp(0, i128::from(u64::MAX)) as u64;
        let mut log = self.log.lock().unwrap();
        log.extend(foreign.events.iter().map(|e| TraceEvent {
            at: moved(e.at),
            kind: e.kind.map_labels(remap),
            ..*e
        }));
    }

    /// Drain, then move the accumulated events out as a time-ordered
    /// [`TraceLog`]. The collector stays usable (labels and metrics are
    /// kept; the event log restarts empty).
    pub fn take_log(&self) -> TraceLog {
        self.drain();
        let mut events = std::mem::take(&mut *self.log.lock().unwrap());
        events.sort_by_key(|e| e.at);
        TraceLog {
            labels: self.labels.lock().unwrap().snapshot(),
            events,
        }
    }

    /// Drain, then copy the accumulated events without clearing them.
    pub fn snapshot_log(&self) -> TraceLog {
        self.drain();
        let mut events = self.log.lock().unwrap().clone();
        events.sort_by_key(|e| e.at);
        TraceLog {
            labels: self.labels.lock().unwrap().snapshot(),
            events,
        }
    }
}

impl EventKind {
    /// Rewrite every label id through `f` (collector-to-collector ingest).
    pub fn map_labels(self, f: impl Fn(LabelId) -> LabelId) -> Self {
        match self {
            EventKind::WaveStart { graph, wave } => EventKind::WaveStart {
                graph: f(graph),
                wave,
            },
            EventKind::WaveEnd { graph, wave } => EventKind::WaveEnd {
                graph: f(graph),
                wave,
            },
            EventKind::OpStart { op, wave } => EventKind::OpStart { op: f(op), wave },
            EventKind::OpEnd { op, wave } => EventKind::OpEnd { op: f(op), wave },
            EventKind::TokenEnqueue { token, wave, flow } => EventKind::TokenEnqueue {
                token: f(token),
                wave,
                flow,
            },
            EventKind::TokenDeliver { token, wave, flow } => EventKind::TokenDeliver {
                token: f(token),
                wave,
                flow,
            },
            EventKind::FrameSend { frame, bytes } => EventKind::FrameSend {
                frame: f(frame),
                bytes,
            },
            EventKind::FrameRecv { frame, bytes } => EventKind::FrameRecv {
                frame: f(frame),
                bytes,
            },
            EventKind::OpFailed { op } => EventKind::OpFailed { op: f(op) },
            other => other,
        }
    }
}

/// One worker thread's recording handle: owns that thread's ring (single
/// producer) and stamps its `(node, thread)` track by default.
///
/// `record` is the hot path: no lock, no allocation, no RMW — a bounds
/// check against a cached consumer position and a handful of plain stores
/// (see [`EventRing::push`]).
pub struct TraceWriter {
    ring: Arc<EventRing>,
    cached_head: u64,
    node: u16,
    thread: u16,
}

impl std::fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("node", &self.node)
            .field("thread", &self.thread)
            .finish()
    }
}

impl TraceWriter {
    /// Record `kind` at engine time `at` on this writer's own track.
    #[inline]
    pub fn record(&mut self, at: u64, kind: EventKind) {
        let (node, thread) = (self.node, self.thread);
        self.record_on(at, node, thread, kind);
    }

    /// Record `kind` at `at` on an explicit `(node, thread)` track — the
    /// single-threaded simulator records every track through one writer.
    #[inline]
    pub fn record_on(&mut self, at: u64, node: u16, thread: u16, kind: EventKind) {
        self.ring.push(
            &mut self.cached_head,
            TraceEvent {
                at,
                node,
                thread,
                kind,
            },
        );
    }

    /// The track this writer stamps by default.
    pub fn track(&self) -> (u16, u16) {
        (self.node, self.thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_intern_stably() {
        let c = TraceCollector::new();
        let a = c.label("lu");
        let b = c.label("life");
        assert_eq!(c.label("lu"), a);
        assert_ne!(a, b);
        assert_ne!(a, LabelId(0), "id 0 is reserved for the empty string");
        let log = c.take_log();
        assert_eq!(log.label(a), "lu");
        assert_eq!(log.label(LabelId(0)), "");
        assert_eq!(log.label(LabelId(999)), "");
    }

    #[test]
    fn writers_merge_time_ordered() {
        let c = TraceCollector::new();
        let mut w0 = c.writer(0, 0);
        let mut w1 = c.writer(0, 1);
        let g = c.label("g");
        w1.record(20, EventKind::WaveEnd { graph: g, wave: 1 });
        w0.record(10, EventKind::WaveStart { graph: g, wave: 1 });
        let log = c.take_log();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].at, 10);
        assert_eq!(log.events[0].thread, 0);
        assert_eq!(log.events[1].at, 20);
        // Collector reusable after take.
        w0.record(30, EventKind::WaveStart { graph: g, wave: 2 });
        assert_eq!(c.take_log().events.len(), 1);
    }

    #[test]
    fn ingest_remaps_labels_and_moves_stamps_onto_its_epoch() {
        let worker = TraceCollector::new();
        let lu = worker.label("lu");
        let mut w = worker.writer(2, 0);
        w.record(5, EventKind::WaveStart { graph: lu, wave: 0 });
        let shipped = worker.take_log();

        let master = TraceCollector::new();
        master.label("something-else"); // shift the id space

        // A worker whose collector started three seconds after this one.
        let (unix, now) = master.clock();
        let started = 3_000_000_000;
        master.ingest(&shipped, (unix - now + started + 5, 5));
        let log = master.take_log();
        assert_eq!(log.events.len(), 1);
        let EventKind::WaveStart { graph, .. } = log.events[0].kind else {
            panic!("wrong kind");
        };
        assert_eq!(log.label(graph), "lu");
        assert_eq!(log.events[0].node, 2, "track survives the ship");
        // Read twice, the two clocks drift apart by far less than 1 ms.
        let at = log.events[0].at;
        assert!(at.abs_diff(started + 5) < 1_000_000, "stamped {at}");
    }
}
