//! The metrics registry: fixed, enum-indexed monotonic counters and
//! peak-tracking gauges, shared by all three engines.
//!
//! Counters are deliberately a closed enum rather than a string-keyed map:
//! incrementing is one relaxed `fetch_add` on a dedicated cache-padded
//! atomic — cheap enough to leave permanently enabled on paths like frame
//! sends and chunk claims, and the closed set keeps the per-engine meanings
//! aligned so one export path serves them all.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// The monotonic counters every engine can surface.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Wire frames sent (process engine).
    FramesSent,
    /// Wire frames received (process engine).
    FramesRecv,
    /// Payload bytes sent over the wire (process engine) or across node
    /// boundaries (simulated network).
    WireBytesSent,
    /// Payload bytes received over the wire.
    WireBytesRecv,
    /// Tokens routed and queued toward a destination thread.
    TokensEnqueued,
    /// Tokens delivered to their destination thread.
    TokensDelivered,
    /// Chunk-hub lease opens (one per scheduled wave).
    LeasesOpened,
    /// Chunks claimed from hub leases (distributed chunk calculation).
    ChunkClaims,
    /// Chunk completions reported to the feedback sink.
    ChunkReports,
    /// Deliveries re-queued off failed nodes.
    Requeues,
    /// Nodes (or worker processes) declared dead.
    NodesDown,
    /// Trace events dropped because a ring was full.
    EventsDropped,
}

impl Counter {
    /// Every counter, in index order.
    pub const ALL: [Counter; 12] = [
        Counter::FramesSent,
        Counter::FramesRecv,
        Counter::WireBytesSent,
        Counter::WireBytesRecv,
        Counter::TokensEnqueued,
        Counter::TokensDelivered,
        Counter::LeasesOpened,
        Counter::ChunkClaims,
        Counter::ChunkReports,
        Counter::Requeues,
        Counter::NodesDown,
        Counter::EventsDropped,
    ];

    /// Stable snake_case name (export key).
    pub const fn name(&self) -> &'static str {
        match self {
            Counter::FramesSent => "frames_sent",
            Counter::FramesRecv => "frames_recv",
            Counter::WireBytesSent => "wire_bytes_sent",
            Counter::WireBytesRecv => "wire_bytes_recv",
            Counter::TokensEnqueued => "tokens_enqueued",
            Counter::TokensDelivered => "tokens_delivered",
            Counter::LeasesOpened => "leases_opened",
            Counter::ChunkClaims => "chunk_claims",
            Counter::ChunkReports => "chunk_reports",
            Counter::Requeues => "requeues",
            Counter::NodesDown => "nodes_down",
            Counter::EventsDropped => "events_dropped",
        }
    }
}

/// The peak-tracking gauges (updated with `fetch_max`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Deepest per-thread delivery queue observed.
    QueueDepthPeak,
    /// Most trace-ring writers registered.
    WritersPeak,
}

impl Gauge {
    /// Every gauge, in index order.
    pub const ALL: [Gauge; 2] = [Gauge::QueueDepthPeak, Gauge::WritersPeak];

    /// Stable snake_case name (export key).
    pub const fn name(&self) -> &'static str {
        match self {
            Gauge::QueueDepthPeak => "queue_depth_peak",
            Gauge::WritersPeak => "writers_peak",
        }
    }
}

/// Monotonic counters and peak gauges, shared between an engine and
/// whoever exports them. Cloneable via `Arc`; all methods take `&self`.
pub struct MetricsRegistry {
    counters: [CachePadded<AtomicU64>; Counter::ALL.len()],
    gauges: [CachePadded<AtomicU64>; Gauge::ALL.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
            gauges: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("MetricsRegistry");
        for c in Counter::ALL {
            d.field(c.name(), &self.get(c));
        }
        for g in Gauge::ALL {
            d.field(g.name(), &self.gauge(g));
        }
        d.finish()
    }
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1 to `c`.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Add `n` to `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Raise gauge `g` to at least `v`.
    #[inline]
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// `(name, value)` snapshot of every counter then every gauge, in
    /// declaration order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.get(c)))
            .chain(Gauge::ALL.iter().map(|&g| (g.name(), self.gauge(g))))
            .collect()
    }

    /// Zero everything (between benchmark configurations).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = MetricsRegistry::new();
        m.incr(Counter::FramesSent);
        m.add(Counter::WireBytesSent, 512);
        m.gauge_max(Gauge::QueueDepthPeak, 3);
        m.gauge_max(Gauge::QueueDepthPeak, 2); // peak keeps 3
        assert_eq!(m.get(Counter::FramesSent), 1);
        assert_eq!(m.get(Counter::WireBytesSent), 512);
        assert_eq!(m.gauge(Gauge::QueueDepthPeak), 3);
        let snap = m.snapshot();
        assert_eq!(snap.len(), Counter::ALL.len() + Gauge::ALL.len());
        assert!(snap.contains(&("wire_bytes_sent", 512)));
        m.reset();
        assert!(m.snapshot().iter().all(|&(_, v)| v == 0));
    }
}
