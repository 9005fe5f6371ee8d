//! # dps-obs — tracing and metrics for Dynamic Parallel Schedules
//!
//! One observability substrate for all three DPS execution engines. The
//! paper's whole argument is about *where time goes* — the overlap of
//! computation and communication in the flow graph — and this crate is how
//! that becomes visible:
//!
//! * [`TraceEvent`]/[`EventKind`] — the event model: wave start/end, chunk
//!   claim/exec/report, token enqueue/deliver, op start/end, frame
//!   send/recv, node down/requeue. Events are `Copy`, label strings are
//!   interned ([`LabelId`]), so recording never allocates.
//! * [`EventRing`] — per-worker cache-padded SPSC rings, the same
//!   single-writer idiom as the feedback board's seqlock slots: no lock on
//!   the hot path, drained once per wave. Full rings drop (and count) —
//!   tracing never blocks the traced system.
//! * [`TraceCollector`]/[`TraceWriter`] — the sink engines attach via
//!   `Engine::set_trace_sink`: the simulator records virtual timestamps
//!   through one writer, the OS-thread engine one writer per thread
//!   (wall-clock), and the process engine's workers ship their local logs
//!   to the master as a field of a `Trace` wire frame (the encoding is the
//!   net engine's, from [`EventKind::tag`]/[`EventKind::payload`]) for
//!   [`ingest`](TraceCollector::ingest)ing.
//! * [`MetricsRegistry`] — fixed monotonic [`Counter`]s and peak
//!   [`Gauge`]s (frames, wire bytes, chunk claims, requeues, queue depths).
//! * Exporters: [`chrome_trace_json`] (loads in Perfetto — per-node/thread
//!   tracks, op spans nested under waves, flow arrows for deliveries, with
//!   [`validate_chrome_trace`] as the structural checker) and
//!   [`wave_summaries`]/[`render_summary`] (makespan, per-worker busy
//!   fraction, delivery-latency histogram).
//! * [`schedule_hash`] — an FNV-1a digest over the ordered event stream.
//!   On the deterministic simulator this is the **schedule-trace hash**:
//!   equal across replays of the same seeded workload, different the moment
//!   the schedule diverges.

mod chrome;
mod collect;
mod event;
mod hash;
mod metrics;
mod ring;
mod summary;

pub use chrome::{chrome_trace_json, parse_json, validate_chrome_trace, ChromeStats, Json};
pub use collect::{TraceCollector, TraceLog, TraceWriter, DEFAULT_RING_CAPACITY};
pub use event::{fault_code, EventKind, LabelId, TraceEvent};
pub use hash::{first_divergence, logs_identical, schedule_hash, Divergence, Fnv1a};
pub use metrics::{Counter, Gauge, MetricsRegistry};
pub use ring::EventRing;
pub use summary::{render_summary, wave_summaries, LatencyHistogram, WaveSummary};
