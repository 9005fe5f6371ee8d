//! The DPS flow graphs of the Life application (paper Fig. 7, 8, 10).

use dps_cluster::default_mapping;
use dps_core::prelude::*;
use dps_core::{downcast, dps_token, Engine, GraphHandle};
use dps_des::SimSpan;
use dps_serial::Buffer;

use crate::band::LifeBand;
use crate::sched::{LoadWorld, WorldLoaded};
use crate::world::World;

dps_token! {
    /// Master order to advance the world one generation.
    pub struct IterOrder { pub iter: u32 }
}
dps_token! {
    /// Per-worker order to send its border rows (Fig. 7/8 step 2).
    pub struct SendOrder { pub t: u32 }
}
dps_token! {
    /// Per-worker order to compute one chunk of the band interior
    /// (improved graph only). Chunking bounds single-operation run time so
    /// interactive service calls stay responsive.
    pub struct CenterOrder { pub t: u32, pub chunk: u32, pub chunks: u32 }
}
dps_token! {
    /// A border row travelling to a neighbouring band (step 3). An empty
    /// `row` is a placeholder used when a worker has no neighbours.
    pub struct BorderData {
        pub from: u32,
        pub to: u32,
        /// True if this row becomes the receiver's *top* inbox.
        pub is_top: bool,
        pub row: Buffer<u8>,
    }
}
dps_token! {
    /// Acknowledgement that a border row was stored (step 4).
    pub struct BorderAck { pub from: u32, pub to: u32 }
}
dps_token! {
    /// Border-row request sent to a neighbour (improved graph, Fig. 8
    /// steps 2/3: the requester's split opens the wave, so the requester's
    /// merge collects exactly its own borders).
    pub struct BorderRequest { pub from: u32, pub to: u32 }
}
dps_token! {
    /// A border row returning to its requester. An empty `row` is the
    /// placeholder response of a worker with no neighbours.
    pub struct BorderResponse {
        pub to: u32,
        /// True if this row becomes the requester's *top* inbox.
        pub is_top: bool,
        pub row: Buffer<u8>,
    }
}
dps_token! {
    /// A worker finished one phase (border exchange or interior compute).
    pub struct PhaseDone { pub t: u32 }
}
dps_token! {
    /// Global synchronization: all phases of the iteration step done
    /// (Fig. 7 step 5).
    pub struct SyncDone { pub iter: u32 }
}
dps_token! {
    /// Per-worker order to compute (simple: whole band; improved: border
    /// rows only) and commit the generation (steps 6/7).
    pub struct ComputeOrder { pub t: u32, pub whole_band: bool }
}
dps_token! {
    /// A worker committed its band (step 8).
    pub struct RowsDone { pub t: u32, pub live: u64 }
}
dps_token! {
    /// Iteration result: generation counter and total population.
    pub struct IterDone { pub iter: u32, pub population: u64 }
}

dps_token! {
    /// One band of the world on its way to its worker thread (loader graph).
    pub struct BandLoad {
        pub t: u32,
        pub start_row: u32,
        pub rows: u32,
        pub cols: u32,
        pub cells: Buffer<u8>,
    }
}
dps_token! {
    /// A worker thread installed its band (loader graph).
    pub struct BandLoaded { pub rows: u32 }
}

dps_token! {
    /// World-subset read request (the Fig. 10 service; Table 2 workload).
    pub struct ReadReq { pub col0: u32, pub row0: u32, pub width: u32, pub height: u32 }
}
dps_token! {
    /// Per-worker part of a read request.
    pub struct ReadPart { pub col0: u32, pub row0: u32, pub width: u32, pub height: u32 }
}
dps_token! {
    /// Rows extracted from one band.
    pub struct PartData { pub row0: u32, pub rows: u32, pub width: u32, pub data: Buffer<u8> }
}
dps_token! {
    /// Assembled world subset returned to the caller.
    pub struct Subset { pub row0: u32, pub rows: u32, pub width: u32, pub data: Buffer<u8> }
}

/// Even band partition: `(start_row, height)` per worker; the remainder
/// spreads over the first bands.
pub fn partition(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    assert!(workers >= 1 && rows >= workers, "at least one row per band");
    let base = rows / workers;
    let extra = rows % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for t in 0..workers {
        let h = base + usize::from(t < extra);
        out.push((start, h));
        start += h;
    }
    out
}

/// Cost in flop-equivalents of updating `cells` Life cells.
pub(crate) fn cell_cost(cells: usize) -> f64 {
    cells as f64 * dps_linalg_cell_ops()
}

// Local copy of the constant to avoid a dependency cycle with dps-linalg.
fn dps_linalg_cell_ops() -> f64 {
    12.0
}

/// Interior chunks per band per improved-graph iteration: one operation
/// per chunk, bounding how long a worker thread is unavailable to
/// interactive service calls (Table 2's visualization reads). Small bands
/// use fewer chunks — per-operation overhead would otherwise dominate.
pub fn interior_chunks(band_rows: usize) -> u32 {
    (band_rows / 64).clamp(1, 8) as u32
}

/// Number of local operations worker `t` performs in one improved-graph
/// iteration: its interior chunks, its own border computation, and the
/// border responses it owes its neighbours. The band commits when the last
/// of them finishes — counting the responses is what guarantees a worker
/// never hands out next-generation rows to a late-requesting neighbour.
fn improved_phases(t: u32, p: u32, chunks: u32) -> u8 {
    let responses = if p == 1 {
        1 // the self-request placeholder
    } else {
        u32::from(t > 0) + u32::from(t + 1 < p)
    };
    (chunks + 1 + responses) as u8
}

// --- operations -----------------------------------------------------------------

/// Fig. 7 (1): split the iteration to the workers. In the improved graph
/// every worker also receives an interior-compute order, and the exchange
/// is request-driven.
struct SplitIteration {
    p: u32,
    improved: bool,
    chunks: u32,
}
impl SplitOperation for SplitIteration {
    type Thread = ();
    type In = IterOrder;
    type Out = SendOrder;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), SendOrder>, _o: IterOrder) {
        for t in 0..self.p {
            ctx.post(SendOrder { t });
            if self.improved {
                for chunk in 0..self.chunks {
                    ctx.post_other(CenterOrder {
                        t,
                        chunk,
                        chunks: self.chunks,
                    });
                }
            }
        }
    }
}

/// Improved graph (Fig. 8 step 2): each worker requests its border rows
/// from its neighbours; the responses come back to *this* worker's merge.
struct RequestBorders {
    p: u32,
}
impl SplitOperation for RequestBorders {
    type Thread = LifeBand;
    type In = SendOrder;
    type Out = BorderRequest;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, BorderRequest>, o: SendOrder) {
        let t = o.t;
        let mut posted = false;
        if t > 0 {
            ctx.post(BorderRequest { from: t, to: t - 1 });
            posted = true;
        }
        if t + 1 < self.p {
            ctx.post(BorderRequest { from: t, to: t + 1 });
            posted = true;
        }
        if !posted {
            // Single-band world: self-request keeps the wave non-empty.
            ctx.post(BorderRequest { from: t, to: t });
        }
    }
}

/// Improved graph (Fig. 8 step 3): a neighbour answers with its adjacent
/// border row. Serving a response is one of the responder's iteration
/// phases — its band must not commit before every neighbour got this
/// generation's border.
struct RespondBorder {
    p: u32,
    chunks: u32,
}
impl LeafOperation for RespondBorder {
    type Thread = LifeBand;
    type In = BorderRequest;
    type Out = BorderResponse;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, BorderResponse>, r: BorderRequest) {
        let p = self.p;
        if r.to == r.from {
            ctx.thread()
                .finish_phase_of(improved_phases(r.to, p, self.chunks));
            ctx.post(BorderResponse {
                to: r.from,
                is_top: true,
                row: Buffer::new(),
            });
            return;
        }
        let band = ctx.thread();
        // The requester sits below us (is_top) or above us.
        let requester_below = r.from > r.to;
        let row = if requester_below {
            band.bottom_row()
        } else {
            band.top_row()
        };
        band.finish_phase_of(improved_phases(r.to, p, self.chunks));
        ctx.charge_flops(row.len() as f64);
        ctx.post(BorderResponse {
            to: r.from,
            is_top: requester_below,
            row: row.into(),
        });
    }
}

/// Improved graph (Fig. 8 steps 4/5): collect this worker's borders, then
/// immediately compute its border rows; commit if the interior phase
/// already finished.
struct CollectAndComputeBorders {
    t: u32,
    p: u32,
    chunks: u32,
}
impl CollectAndComputeBorders {
    fn new(p: u32, chunks: u32) -> impl Fn() -> Self {
        move || Self { t: 0, p, chunks }
    }
}
impl MergeOperation for CollectAndComputeBorders {
    type Thread = LifeBand;
    type In = BorderResponse;
    type Out = PhaseDone;
    fn consume(&mut self, ctx: &mut OpCtx<'_, LifeBand, PhaseDone>, b: BorderResponse) {
        self.t = b.to;
        if !b.row.is_empty() {
            let row = b.row.into_vec();
            if b.is_top {
                ctx.thread().inbox_top = Some(row);
            } else {
                ctx.thread().inbox_bottom = Some(row);
            }
        }
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, LifeBand, PhaseDone>) {
        let band = ctx.thread();
        let cells = band.compute_borders();
        band.finish_phase_of(improved_phases(self.t, self.p, self.chunks));
        ctx.charge_flops(cell_cost(cells));
        ctx.post(PhaseDone { t: self.t });
    }
}

/// Fig. 7 (2): each worker splits border transfers to its neighbours.
struct SendBorders {
    p: u32,
}
impl SplitOperation for SendBorders {
    type Thread = LifeBand;
    type In = SendOrder;
    type Out = BorderData;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, BorderData>, o: SendOrder) {
        let t = o.t;
        let mut posted = false;
        if t > 0 {
            let row = ctx.thread().top_row();
            ctx.charge_flops(row.len() as f64);
            ctx.post(BorderData {
                from: t,
                to: t - 1,
                is_top: false, // the receiver below-edge: our top row is their bottom inbox
                row: row.into(),
            });
            posted = true;
        }
        if t + 1 < self.p {
            let row = ctx.thread().bottom_row();
            ctx.charge_flops(row.len() as f64);
            ctx.post(BorderData {
                from: t,
                to: t + 1,
                is_top: true,
                row: row.into(),
            });
            posted = true;
        }
        if !posted {
            // Single-band world: keep the wave non-empty with a placeholder.
            ctx.post(BorderData {
                from: t,
                to: t,
                is_top: true,
                row: Buffer::new(),
            });
        }
    }
}

/// Fig. 7 (3): the neighbour stores the arriving border row.
struct StoreBorder;
impl LeafOperation for StoreBorder {
    type Thread = LifeBand;
    type In = BorderData;
    type Out = BorderAck;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, BorderAck>, b: BorderData) {
        if !b.row.is_empty() {
            let row = b.row.into_vec();
            if b.is_top {
                ctx.thread().inbox_top = Some(row);
            } else {
                ctx.thread().inbox_bottom = Some(row);
            }
        }
        ctx.post(BorderAck {
            from: b.from,
            to: b.to,
        });
    }
}

/// Fig. 7 (4): collect one worker's border acknowledgements.
#[derive(Default)]
struct CollectAcks {
    t: u32,
}
impl MergeOperation for CollectAcks {
    type Thread = ();
    type In = BorderAck;
    type Out = PhaseDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), PhaseDone>, a: BorderAck) {
        self.t = a.from;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), PhaseDone>) {
        ctx.post(PhaseDone { t: self.t });
    }
}

/// Improved graph (Fig. 8 step 6): compute one chunk of the band interior
/// while the borders travel; whichever phase finishes last commits.
struct ComputeInterior {
    p: u32,
}

impl LeafOperation for ComputeInterior {
    type Thread = LifeBand;
    type In = CenterOrder;
    type Out = PhaseDone;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, PhaseDone>, o: CenterOrder) {
        let band = ctx.thread();
        let cells = band.compute_interior_chunk(o.chunk as usize, o.chunks as usize);
        band.finish_phase_of(improved_phases(o.t, self.p, o.chunks));
        ctx.charge_flops(cell_cost(cells));
        ctx.post(PhaseDone { t: o.t });
    }
}

/// Fig. 7 (5): global synchronization of the exchange (and, in the improved
/// graph, interior-compute) phase.
#[derive(Default)]
struct GlobalSync {
    iter: u32,
}
impl MergeOperation for GlobalSync {
    type Thread = ();
    type In = PhaseDone;
    type Out = SyncDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), SyncDone>, _p: PhaseDone) {}
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), SyncDone>) {
        ctx.post(SyncDone { iter: self.iter });
    }
}

/// Fig. 7 (6): split the compute orders.
struct SplitCompute {
    p: u32,
    whole_band: bool,
}
impl SplitOperation for SplitCompute {
    type Thread = ();
    type In = SyncDone;
    type Out = ComputeOrder;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ComputeOrder>, _s: SyncDone) {
        for t in 0..self.p {
            ctx.post(ComputeOrder {
                t,
                whole_band: self.whole_band,
            });
        }
    }
}

/// Fig. 7 (7): compute the next generation (whole band in the simple graph,
/// border rows only in the improved graph) and commit.
struct ComputeBand;
impl LeafOperation for ComputeBand {
    type Thread = LifeBand;
    type In = ComputeOrder;
    type Out = RowsDone;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, RowsDone>, o: ComputeOrder) {
        let band = ctx.thread();
        let cells = if o.whole_band {
            band.compute_rows(0, band.rows)
        } else {
            band.compute_borders()
        };
        band.commit();
        let live: u64 = band.cells.iter().map(|&c| u64::from(c)).sum();
        ctx.charge_flops(cell_cost(cells));
        ctx.post(RowsDone { t: o.t, live });
    }
}

/// Fig. 8 (7): synchronize the end of the improved iteration — the only
/// global synchronization of the improved graph.
#[derive(Default)]
struct EndImproved {
    count: u32,
}
impl MergeOperation for EndImproved {
    type Thread = ();
    type In = PhaseDone;
    type Out = IterDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), IterDone>, _p: PhaseDone) {
        self.count += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), IterDone>) {
        ctx.post(IterDone {
            iter: 0,
            population: u64::from(self.count),
        });
    }
}

/// Fig. 7 (8): synchronize the end of the iteration.
#[derive(Default)]
struct EndIteration {
    live: u64,
}
impl MergeOperation for EndIteration {
    type Thread = ();
    type In = RowsDone;
    type Out = IterDone;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), IterDone>, r: RowsDone) {
        self.live += r.live;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), IterDone>) {
        ctx.post(IterDone {
            iter: 0,
            population: self.live,
        });
    }
}

// --- loader ---------------------------------------------------------------------------

/// Cut the world into one band per worker thread.
struct SplitWorld {
    p: usize,
}
impl SplitOperation for SplitWorld {
    type Thread = ();
    type In = LoadWorld;
    type Out = BandLoad;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), BandLoad>, w: LoadWorld) {
        let cols = w.cols as usize;
        let cells = w.cells.as_slice();
        for (t, (start, h)) in partition(w.rows as usize, self.p).into_iter().enumerate() {
            ctx.post(BandLoad {
                t: t as u32,
                start_row: start as u32,
                rows: h as u32,
                cols: w.cols,
                cells: cells[start * cols..(start + h) * cols].to_vec().into(),
            });
        }
    }
}

/// Install one band into its worker thread's [`LifeBand`].
struct LoadBand;
impl LeafOperation for LoadBand {
    type Thread = LifeBand;
    type In = BandLoad;
    type Out = BandLoaded;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, BandLoaded>, b: BandLoad) {
        let rows = b.rows;
        ctx.thread().load(
            b.start_row as usize,
            rows as usize,
            b.cols as usize,
            b.cells.into_vec(),
        );
        ctx.post(BandLoaded { rows });
    }
}

/// Count the installed rows.
#[derive(Default)]
struct CountLoaded {
    rows: u32,
}
impl MergeOperation for CountLoaded {
    type Thread = ();
    type In = BandLoaded;
    type Out = WorldLoaded;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), WorldLoaded>, b: BandLoaded) {
        self.rows += b.rows;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), WorldLoaded>) {
        ctx.post(WorldLoaded { rows: self.rows });
    }
}

// --- read service (Fig. 10) -------------------------------------------------------

/// (a) split the request to the workers holding the requested rows.
struct SplitRead {
    bands: Vec<(usize, usize)>,
}
impl SplitOperation for SplitRead {
    type Thread = ();
    type In = ReadReq;
    type Out = ReadPart;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), ReadPart>, r: ReadReq) {
        let req_lo = r.row0 as usize;
        let req_hi = req_lo + r.height as usize;
        for (start, h) in self.bands.iter().copied() {
            let lo = req_lo.max(start);
            let hi = req_hi.min(start + h);
            if lo < hi {
                ctx.post(ReadPart {
                    col0: r.col0,
                    row0: lo as u32,
                    width: r.width,
                    height: (hi - lo) as u32,
                });
            }
        }
    }
}

/// (b) read the requested rows from the local band.
struct ReadRows;
impl LeafOperation for ReadRows {
    type Thread = LifeBand;
    type In = ReadPart;
    type Out = PartData;
    fn execute(&mut self, ctx: &mut OpCtx<'_, LifeBand, PartData>, p: ReadPart) {
        let band = ctx.thread();
        let mut data = Vec::with_capacity((p.height * p.width) as usize);
        for r in 0..p.height as usize {
            let band_row = p.row0 as usize + r - band.start_row;
            let row = band.row(band_row);
            data.extend_from_slice(&row[p.col0 as usize..(p.col0 + p.width) as usize]);
        }
        ctx.charge_flops(data.len() as f64);
        ctx.post(PartData {
            row0: p.row0,
            rows: p.height,
            width: p.width,
            data: data.into(),
        });
    }
}

/// (c) merge the parts into the requested subset.
#[derive(Default)]
struct AssembleSubset {
    parts: Vec<(u32, u32, Vec<u8>)>,
    width: u32,
}
impl MergeOperation for AssembleSubset {
    type Thread = ();
    type In = PartData;
    type Out = Subset;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Subset>, p: PartData) {
        self.width = p.width;
        self.parts.push((p.row0, p.rows, p.data.into_vec()));
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Subset>) {
        self.parts.sort_by_key(|&(r0, ..)| r0);
        let row0 = self.parts.first().map(|&(r0, ..)| r0).unwrap_or(0);
        let rows: u32 = self.parts.iter().map(|&(_, h, _)| h).sum();
        let data: Vec<u8> = self.parts.drain(..).flat_map(|(_, _, d)| d).collect();
        ctx.post(Subset {
            row0,
            rows,
            width: self.width,
            data: data.into(),
        });
    }
}

// --- graph builders ------------------------------------------------------------------

/// Which of the paper's two iteration graphs to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Fig. 7: exchange, synchronize, compute.
    Simple,
    /// Fig. 8: interior compute overlaps the border exchange.
    Improved,
}

/// Build one iteration step graph over the given collections.
///
/// * **Simple** (Fig. 7): send borders → store → acks → global sync →
///   compute whole bands → end-of-iteration sync.
/// * **Improved** (Fig. 8): each worker *requests* its borders (so its own
///   merge collects them and computes the border rows immediately) while
///   the interior computes in parallel; whichever of the two phases ends
///   second commits the band locally. Only one global synchronization
///   remains, at the end of the iteration.
pub fn build_step_graph<E: Engine>(
    eng: &mut E,
    variant: Variant,
    master: &ThreadCollection<()>,
    workers: &ThreadCollection<LifeBand>,
    world_rows: usize,
) -> Result<GraphHandle> {
    let p = workers.thread_count() as u32;
    let improved = variant == Variant::Improved;
    let chunks = interior_chunks(world_rows / workers.thread_count().max(1));
    let mut b = GraphBuilder::new(match variant {
        Variant::Simple => "life-simple",
        Variant::Improved => "life-improved",
    });
    let s1 = b.split(
        master,
        || ToThread(0),
        move || SplitIteration {
            p,
            improved,
            chunks,
        },
    );
    if improved {
        b.declare_output::<CenterOrder, _, _>(s1);
        let w1 = b.split(
            workers,
            || ByKey::new(|o: &SendOrder| o.t as usize),
            move || RequestBorders { p },
        );
        let w2 = b.leaf(
            workers,
            || ByKey::new(|r: &BorderRequest| r.to as usize),
            move || RespondBorder { p, chunks },
        );
        let mb = b.merge(
            workers,
            || ByKey::new(|r: &BorderResponse| r.to as usize),
            CollectAndComputeBorders::new(p, chunks),
        );
        let wc = b.leaf(
            workers,
            || ByKey::new(|o: &CenterOrder| o.t as usize),
            move || ComputeInterior { p },
        );
        let mend = b.merge(master, || ToThread(0), EndImproved::default);
        b.add(s1 >> w1 >> w2 >> mb >> mend);
        b.connect_alt(s1, wc);
        b.add(wc >> mend);
    } else {
        let w1 = b.split(
            workers,
            || ByKey::new(|o: &SendOrder| o.t as usize),
            move || SendBorders { p },
        );
        let w2 = b.leaf(
            workers,
            || ByKey::new(|d: &BorderData| d.to as usize),
            || StoreBorder,
        );
        let m1 = b.merge(master, || ToThread(0), CollectAcks::default);
        let msync = b.merge(master, || ToThread(0), GlobalSync::default);
        let s2 = b.split(
            master,
            || ToThread(0),
            move || SplitCompute {
                p,
                whole_band: true,
            },
        );
        let w3 = b.leaf(
            workers,
            || ByKey::new(|o: &ComputeOrder| o.t as usize),
            || ComputeBand,
        );
        let m3 = b.merge(master, || ToThread(0), EndIteration::default);
        b.add(s1 >> w1 >> w2 >> m1 >> msync >> s2 >> w3 >> m3);
    }
    eng.build_graph(b)
}

/// Build the world-subset read graph (Fig. 10) over the same collections.
pub fn build_read_service<E: Engine>(
    eng: &mut E,
    master: &ThreadCollection<()>,
    workers: &ThreadCollection<LifeBand>,
    rows: usize,
) -> Result<GraphHandle> {
    let bands = partition(rows, workers.thread_count());
    let bands_for_route = bands.clone();
    let mut b = GraphBuilder::new("life-read");
    let s = b.split(
        master,
        || ToThread(0),
        move || SplitRead {
            bands: bands.clone(),
        },
    );
    let read = b.leaf(
        workers,
        move || {
            let bands = bands_for_route.clone();
            ByKey::new(move |p: &ReadPart| {
                bands
                    .iter()
                    .position(|&(start, h)| {
                        (p.row0 as usize) < start + h && start <= p.row0 as usize
                    })
                    .expect("request rows are within the world")
            })
        },
        || ReadRows,
    );
    let m = b.merge(master, || ToThread(0), AssembleSubset::default);
    b.add(s >> read >> m);
    // Short random reads must stay responsive while iterations run
    // (Table 2); on the testbed the OS preempts, here the deliveries jump
    // the queue.
    b.set_interactive();
    eng.build_graph(b)
}

/// Build the loader graph (`LoadWorld → WorldLoaded`): a split on the
/// master cuts the world into [`partition`] bands, a leaf on band thread
/// `t` installs band `t`, and a merge counts the installed rows.
fn build_loader<E: Engine>(
    eng: &mut E,
    master: &ThreadCollection<()>,
    workers: &ThreadCollection<LifeBand>,
) -> Result<GraphHandle> {
    let p = workers.thread_count();
    let mut b = GraphBuilder::new("life-load-bands");
    let s = b.split(master, || ToThread(0), move || SplitWorld { p });
    let load = b.leaf(
        workers,
        || ByKey::new(|b: &BandLoad| b.t as usize),
        || LoadBand,
    );
    let m = b.merge(master, || ToThread(0), CountLoaded::default);
    b.add(s >> load >> m);
    eng.build_graph(b)
}

// --- driver -----------------------------------------------------------------------------

/// Parameters of one Life run.
#[derive(Debug, Clone)]
pub struct LifeConfig {
    /// World height.
    pub rows: usize,
    /// World width.
    pub cols: usize,
    /// Generations to advance.
    pub iterations: usize,
    /// Which iteration graph to use.
    pub variant: Variant,
    /// Worker nodes.
    pub nodes: usize,
    /// Worker threads per node.
    pub threads_per_node: usize,
    /// Initial live-cell density.
    pub density: f64,
    /// World seed.
    pub seed: u64,
    /// How iteration work reaches the workers: `Static` keeps the paper's
    /// banded layout (one fixed band per worker, borders exchanged);
    /// `Scheduled(kind)` drives row-band chunks through the dynamic
    /// loop-scheduling stack (`ScheduledSplit` + worker-side chunk
    /// claiming, see [`crate::sched`]) — the world lives on the master and
    /// any worker can compute any chunk, so the schedule adapts to node
    /// speeds and survives node failures.
    pub dist: dps_sched::Distribution,
}

/// Outcome of one Life run.
pub struct LifeRunReport {
    /// Total virtual time for all iterations (excluding set-up).
    pub elapsed: SimSpan,
    /// Virtual time of each iteration.
    pub per_iter: Vec<SimSpan>,
    /// Final world gathered from the workers.
    pub world: World,
}

/// A banded Life application set up on an engine: the paper's layout, one
/// fixed band of the world per worker thread.
pub struct BandedLife {
    /// The iteration graph (`IterOrder → IterDone`, Fig. 7 or Fig. 8).
    pub step: GraphHandle,
    /// The world-subset read service (`ReadReq → Subset`, Fig. 10).
    pub read: GraphHandle,
    rows: usize,
    cols: usize,
}

impl BandedLife {
    /// Advance the world one generation; returns the iteration report.
    pub fn step_once<E: Engine>(&self, eng: &mut E, iter: u32) -> Result<IterDone> {
        eng.submit(self.step, Box::new(IterOrder { iter }))?;
        eng.run_to_idle(self.step, 1)?;
        let out = eng.take_outputs(self.step).pop().expect("one IterDone");
        Ok(*downcast::<IterDone>(out).expect("IterDone output"))
    }

    /// Read a subset of the world through the read service.
    pub fn read_subset<E: Engine>(&self, eng: &mut E, req: ReadReq) -> Result<Subset> {
        eng.submit(self.read, Box::new(req))?;
        eng.run_to_idle(self.read, 1)?;
        let out = eng.take_outputs(self.read).pop().expect("one Subset");
        Ok(*downcast::<Subset>(out).expect("Subset output"))
    }

    /// Gather the distributed bands back into a [`World`]: one full-world
    /// read.
    pub fn gather_world<E: Engine>(&self, eng: &mut E) -> Result<World> {
        let sub = self.read_subset(
            eng,
            ReadReq {
                col0: 0,
                row0: 0,
                width: self.cols as u32,
                height: self.rows as u32,
            },
        )?;
        Ok(World::from_flat(self.rows, self.cols, sub.data.into_vec()))
    }
}

/// Set up a banded Life application on any engine: collections, the
/// iteration, read and loader graphs (all declared before the first run),
/// then the world's bands shipped to their workers through the loader.
pub fn setup_life<E: Engine>(eng: &mut E, cfg: &LifeConfig, world: &World) -> Result<BandedLife> {
    let app = eng.app("life");
    eng.preload_app(app);
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0")?;
    let mapping = default_mapping(cfg.nodes, cfg.threads_per_node);
    let workers: ThreadCollection<LifeBand> = eng.thread_collection(app, "bands", &mapping)?;
    let step = build_step_graph(eng, cfg.variant, &master, &workers, cfg.rows)?;
    let read = build_read_service(eng, &master, &workers, cfg.rows)?;
    let loader = build_loader(eng, &master, &workers)?;
    eng.submit(
        loader,
        Box::new(LoadWorld {
            rows: cfg.rows as u32,
            cols: cfg.cols as u32,
            cells: world.as_slice().to_vec().into(),
        }),
    )?;
    eng.run_to_idle(loader, 1)?;
    let loaded = eng.take_outputs(loader).pop().expect("one WorldLoaded");
    let loaded = downcast::<WorldLoaded>(loaded).expect("WorldLoaded output");
    debug_assert_eq!(loaded.rows as usize, cfg.rows, "every band loaded");
    Ok(BandedLife {
        step,
        read,
        rows: cfg.rows,
        cols: cfg.cols,
    })
}

/// Run a full Life experiment on any engine: set up, iterate, gather, and
/// report per-iteration times in the engine's own notion of time.
/// `Distribution::Static` runs the paper's banded graphs;
/// `Distribution::Scheduled` runs [`run_life_scheduled`](crate::run_life_scheduled).
pub fn run_life<E: Engine>(eng: &mut E, cfg: &LifeConfig) -> Result<LifeRunReport> {
    if let dps_sched::Distribution::Scheduled(kind) = cfg.dist {
        return crate::sched::run_life_scheduled(eng, cfg, kind);
    }
    let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
    let life = setup_life(eng, cfg, &world)?;
    let mut per_iter = Vec::with_capacity(cfg.iterations);
    let start = eng.now_secs();
    for i in 0..cfg.iterations {
        let t0 = eng.now_secs();
        life.step_once(eng, i as u32)?;
        per_iter.push(SimSpan::from_secs_f64(eng.now_secs() - t0));
    }
    let elapsed = SimSpan::from_secs_f64(eng.now_secs() - start);
    let world = life.gather_world(eng)?;
    Ok(LifeRunReport {
        elapsed,
        per_iter,
        world,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_cluster::ClusterSpec;
    use dps_core::SimEngine;

    fn check(cfg: &LifeConfig) -> LifeRunReport {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(cfg.nodes));
        let rep = run_life(&mut eng, cfg).unwrap();
        let expect =
            World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed).step_n(cfg.iterations);
        assert_eq!(rep.world, expect, "parallel Life diverged from reference");
        rep
    }

    fn base(variant: Variant, nodes: usize) -> LifeConfig {
        LifeConfig {
            rows: 24,
            cols: 16,
            iterations: 5,
            variant,
            nodes,
            threads_per_node: 1,
            density: 0.35,
            seed: 42,
            dist: dps_sched::Distribution::Static,
        }
    }

    #[test]
    fn simple_graph_is_correct() {
        check(&base(Variant::Simple, 3));
    }

    #[test]
    fn improved_graph_is_correct() {
        check(&base(Variant::Improved, 3));
    }

    #[test]
    fn single_worker_still_works() {
        let mut cfg = base(Variant::Improved, 1);
        cfg.threads_per_node = 1;
        check(&cfg);
    }

    #[test]
    fn two_threads_per_node() {
        let mut cfg = base(Variant::Simple, 2);
        cfg.threads_per_node = 2;
        check(&cfg);
    }

    #[test]
    fn improved_is_faster_when_communication_matters() {
        // Small world on several nodes: border exchange dominates, so the
        // improved graph must win (the Fig. 9 effect).
        let mk = |variant| LifeConfig {
            rows: 64,
            cols: 400,
            iterations: 4,
            variant,
            nodes: 4,
            threads_per_node: 1,
            density: 0.3,
            seed: 1,
            dist: dps_sched::Distribution::Static,
        };
        let elapsed = |variant| {
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));
            run_life(&mut eng, &mk(variant)).unwrap().elapsed
        };
        let t_simple = elapsed(Variant::Simple);
        let t_improved = elapsed(Variant::Improved);
        assert!(
            t_improved < t_simple,
            "improved {t_improved} should beat simple {t_simple}"
        );
    }

    #[test]
    fn read_service_returns_correct_subset() {
        let cfg = base(Variant::Simple, 2);
        let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(2));
        let life = setup_life(&mut eng, &cfg, &world).unwrap();
        let sub = life
            .read_subset(
                &mut eng,
                ReadReq {
                    col0: 2,
                    row0: 5,
                    width: 6,
                    height: 12,
                },
            )
            .unwrap();
        assert_eq!(sub.rows, 12);
        assert_eq!(sub.width, 6);
        for r in 0..12usize {
            for c in 0..6usize {
                assert_eq!(
                    sub.data[r * 6 + c],
                    world.get(5 + r, 2 + c),
                    "subset mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn the_loader_and_the_read_service_round_trip_the_world() {
        for (nodes, threads_per_node) in [(1, 1), (3, 1), (5, 1), (2, 3)] {
            let mut cfg = base(Variant::Simple, nodes);
            cfg.threads_per_node = threads_per_node;
            let world = World::random(cfg.rows, cfg.cols, cfg.density, cfg.seed);
            let mut eng = SimEngine::new(ClusterSpec::paper_testbed(nodes));
            let life = setup_life(&mut eng, &cfg, &world).unwrap();
            assert_eq!(
                life.gather_world(&mut eng).unwrap(),
                world,
                "{nodes} nodes × {threads_per_node} threads"
            );
        }
    }

    #[test]
    fn partition_covers_all_rows() {
        for (rows, p) in [(10, 3), (8, 8), (100, 7)] {
            let parts = partition(rows, p);
            assert_eq!(parts.len(), p);
            assert_eq!(parts.iter().map(|&(_, h)| h).sum::<usize>(), rows);
            let mut next = 0;
            for (start, h) in parts {
                assert_eq!(start, next);
                assert!(h >= 1);
                next = start + h;
            }
        }
    }
}
