//! Block LU factorization with partial pivoting under DPS — Fig. 11–15.
//!
//! The matrix is distributed "onto the computation nodes as columns of
//! vertically adjacent blocks" (paper §5): block-column `j` lives in the
//! thread state of worker `j mod p`. The schedule follows Fig. 12:
//!
//! * **(a)** the entry split factors the top-left panel and posts one task
//!   per other block column, each carrying the panel (`L11`, `L21`) and the
//!   pivot record — that broadcast is the step's communication (a handle
//!   per task where sender and receiver share an address space, one copy
//!   per connection between processes);
//! * **(b)/(d)** a leaf per column applies the row flips, solves the
//!   triangular system (`trsm`), and performs its column's trailing-matrix
//!   multiplications, then posts a notification; the notification for the
//!   *next panel column* carries the column's updated panel rows;
//! * **(e)** a *stream* operation collects the notifications. It runs in a
//!   **separate thread collection** on the next panel owner's node (the
//!   paper maps collective work to separate collections "for load balancing
//!   purposes", Fig. 14), so the moment the next panel column reports, the
//!   node's second processor factors the next panel while the first
//!   processor keeps updating the remaining columns; step-`k+1` tasks then
//!   stream out as each column reports — the pipelining of Fig. 13;
//! * **(f)** row flips on previous columns travel as cheap pivot-only
//!   tasks, and the factored panel travels back to its owner as a
//!   store-back task;
//! * **(g)** a final merge collects the last step's notifications.
//!
//! The **non-pipelined** variant replaces each stream with a merge (wait
//! for *all* notifications, then factor the panel) followed by a split that
//! rebroadcasts — "a standard merge-split construct instead of the stream
//! operations" — exactly the comparison of Fig. 15.
//!
//! Per-column task ordering is causal by construction: the step-`k+1` task
//! for column `j` is only posted after the notification that column `j`
//! finished step `k` was received.
//!
//! # Chunked trailing updates
//!
//! The trailing update — the `A_ij -= L21 · U_kj` gemm dominating each
//! step — is no longer one monolithic task per block column. The column
//! worker (`ColumnWork`) is a nested *split*: it performs the row flips
//! and the `trsm` (once per column), then opens a [`dps_sched::ChunkHub`] lease
//! over the column's tail *row blocks* and posts a wave of boundary-free
//! [`UpdTicket`]s (the distributed chunk-calculation protocol of the
//! `ScheduledSplit` machinery: tickets carry only the lease id, and each
//! executor claims its `(start, len)` boundary locally — or over the wire
//! on the distributed engine). A leaf (`UpdateWork`) claims one chunk
//! per ticket and runs the partial gemm through the blocked kernel; a
//! matching per-column merge (`ChunkMerge`) closes the wave on the
//! column's owner and forwards exactly one final notification, so the
//! step collectors see the same one-notify-per-column protocol as the
//! unchunked schedule. [`LuConfig::update_chunks`] controls the
//! granularity (1 = the legacy one-task-per-column shape). Chunks split
//! the *row* dimension only, so every element's ascending-`k`
//! accumulation chain is untouched and the factorization stays bitwise
//! identical to the sequential reference at any granularity.
//!
//! # Who copies a block
//!
//! A block is copied when it changes owner, not when an operation reads
//! it. The collector factors a panel into one `Buffer<f64>` (pivots: one
//! `Buffer<u32>`) and every task of the step carries a *handle* to it — on
//! one node the "broadcast" is a reference count; over TCP the panel
//! crosses each connection once, by the connection's buffer table, and the
//! tasks the worker kernel decodes share one allocation of it. A column
//! worker solves
//! `U_kj` where `A_kj` lies in its column, reading `L11` out of the
//! token; keeps the token's handle (not a copy of `L21`) for the chunks;
//! and each chunk runs the gemm on views — `L21`'s rows in the shared
//! panel, `U_kj` above a row split of the column, the chunk's tail rows
//! below it (`MatMut::split_rows_mut`, which is what makes in-place safe
//! without `unsafe`). Two copies per step remain, because two owners must
//! work at once: the next panel's rows leave their column for the
//! collector (which factors them while the worker keeps updating the
//! column), and the factored panel comes home. No block is copied to
//! start: the matrix is born distributed, as the paper's is. A
//! [`LoadColumn`] carries a seed, not a column, and each owner generates
//! its own columns into its store ([`Matrix::random_general_strip`]), so
//! the columns' pages are first touched by the threads that keep them —
//! in parallel on `mt`, and on `net` with no staging byte on a
//! connection. The one copy of the whole matrix is the gather at the end,
//! column by column in order. `tests/copy_budget.rs` holds the whole run
//! to a small multiple of the matrix.

use std::collections::HashMap;
use std::sync::Arc;

use dps_cluster::default_mapping;
use dps_core::prelude::*;
use dps_core::sched::{build_placement, chunk_calc_cost, OwnerMap};
use dps_core::{dps_token, Engine};
use dps_des::SimSpan;
use dps_sched::{Chunk, ChunkCalc, ChunkHub, Distribution, PolicyKind};
use dps_serial::Buffer;

use crate::factor::{panel_lu, LuFactors};
use crate::flops;
use crate::kernel::{gemm_acc, trsm_view};
use crate::matrix::{Matrix, Strips};
use crate::view::MatRef;

dps_token! {
    /// Kick-off order (also the trigger between merge and split in the
    /// non-pipelined variant).
    pub struct LuStart { pub nb: u32, pub r: u32 }
}

dps_token! {
    /// One per-column task of step `k`:
    /// * `j > k` — apply pivots, trsm, trailing update (`panel` holds the
    ///   step's factored panel);
    /// * `j < k` — row flips only (`panel` empty);
    /// * `j == k` — store the factored panel back into its owning column
    ///   (`panel` holds the factor values).
    pub struct LuTask {
        pub k: u32,
        pub j: u32,
        pub nb: u32,
        pub r: u32,
        pub panel: Buffer<f64>,
        pub pivots: Buffer<u32>,
    }
}

dps_token! {
    /// Notification that a chunk of column `j`'s step-`k` work landed.
    /// `done == 1` marks the column's *final* chunk — only then may the
    /// collector post the column's step-`k+1` task; earlier chunks report
    /// with `done == 0` so the merge accounting stays one-output-per-input
    /// exact. When `j` is the next panel column (`j == k+1`), the final
    /// notification's `panel` carries the column's updated rows
    /// `(k+1)·r..n` so the collector can factor the next panel without
    /// touching the owner's thread state.
    pub struct LuNotify { pub k: u32, pub j: u32, pub r: u32, pub done: u32, pub panel: Buffer<f64> }
}

dps_token! {
    /// Boundary-free trailing-update ticket: step `k`, column `j`, and the
    /// [`ChunkHub`] lease the executor claims its row-block range from
    /// (the distributed chunk-calculation protocol — tickets carry no
    /// `start`/`len`). `chunks == 0` is a passthrough for tasks with no
    /// trailing work (row flips, the panel store-back): the update leaf
    /// forwards the column's notification unchanged.
    pub struct UpdTicket {
        pub k: u32,
        pub j: u32,
        pub nb: u32,
        pub r: u32,
        pub lease: u64,
        pub chunks: u32,
    }
}

dps_token! {
    /// Termination token.
    pub struct LuFinished { pub nb: u32 }
}

dps_token! {
    /// Have the owner of block column `j` generate it into its store: the
    /// `rows × r` column strip `j` of
    /// [`Matrix::random_general`]`(rows, rows, seed)`. The token carries
    /// the seed, not the column, so it is the same few bytes at any order.
    pub struct LoadColumn { pub j: u32, pub rows: u32, pub r: u32, pub seed: u64 }
}

dps_token! {
    /// Acknowledgement of a [`LoadColumn`].
    pub struct ColumnLoaded { pub j: u32 }
}

dps_token! {
    /// Ask column `j`'s owner for the factored column and its pivot record.
    pub struct DumpColumn { pub j: u32 }
}

dps_token! {
    /// A factored block column travelling back to the driver.
    pub struct ColumnDump { pub j: u32, pub rows: u32, pub data: Buffer<f64>, pub pivots: Buffer<u32> }
}

/// Per-worker distributed state: the block columns this worker owns and the
/// pivot records needed to assemble the global factorization.
#[derive(Default)]
pub struct ColumnStore {
    /// Block columns owned by this thread: `j → n×r column`.
    pub cols: HashMap<u32, Matrix>,
    /// Pivot records per step (recorded by the owner of each panel).
    pub pivots: HashMap<u32, Buffer<u32>>,
    /// The step's shared panel for each in-flight chunked trailing update,
    /// keyed `(k, j)`: a handle to the buffer the task arrived with — the
    /// one allocation every column of the step reads `L21` from — stashed
    /// by the column worker, read chunk by chunk, dropped with the last
    /// chunk.
    pub panels: HashMap<(u32, u32), Buffer<f64>>,
    /// Chunks still outstanding per in-flight trailing update `(k, j)`.
    pub pending: HashMap<(u32, u32), u32>,
}

/// Per-collector state (streams / step merges): the cached factored panel
/// between the merge and split halves of the non-pipelined construct.
#[derive(Default)]
pub struct PanelStore {
    /// `k → (packed panel rows k·r.., pivots)`.
    pub cache: HashMap<u32, (Buffer<f64>, Buffer<u32>)>,
}

/// FLOP cost of factoring panel `k`.
fn panel_cost(k: u32, nb: u32, r: u32) -> f64 {
    let rows = (nb - k) as usize * r as usize;
    flops::panel_lu(rows, r as usize)
}

/// Factor a panel that has just changed hands and seal it for the step:
/// one buffer of factors and one of pivots, which every task of the step
/// holds a handle to.
fn factor_panel(rows: usize, r: usize, data: Vec<f64>) -> (Buffer<f64>, Buffer<u32>) {
    let mut panel = Matrix::from_vec(rows, r, data);
    let pivots = panel_lu(&mut panel).into_iter().map(|p| p as u32).collect();
    (panel.into_vec().into(), pivots)
}

/// Build the step-`k` task for column `j`: a handle to the step's panel
/// and pivots, not a copy of them.
fn make_task(k: u32, j: u32, nb: u32, r: u32, panel: &Buffer<f64>, pivots: &Buffer<u32>) -> LuTask {
    let needs_panel = j >= k; // updates and the store-back carry data
    LuTask {
        k,
        j,
        nb,
        r,
        panel: if needs_panel {
            panel.clone()
        } else {
            Buffer::new()
        },
        pivots: pivots.clone(),
    }
}

/// All step-`k` tasks in priority order: the factored panel's store-back
/// first, then trailing updates (the next panel column leading), then the
/// cheap row flips.
fn step_tasks(k: u32, nb: u32, r: u32, panel: &Buffer<f64>, pivots: &Buffer<u32>) -> Vec<LuTask> {
    let mut out = Vec::with_capacity(nb as usize);
    out.push(make_task(k, k, nb, r, panel, pivots));
    for j in k + 1..nb {
        out.push(make_task(k, j, nb, r, panel, pivots));
    }
    for j in 0..k {
        out.push(make_task(k, j, nb, r, panel, pivots));
    }
    out
}

/// What the head half of a column task produced.
enum HeadOutcome {
    /// No trailing work (row flips, store-back): the ticket passes straight
    /// through to the notification.
    Done { cost: f64 },
    /// Flips + trsm done, the step's panel is stashed; the trailing update
    /// covers `tail_blocks` row blocks awaiting chunked execution.
    Update { cost: f64, tail_blocks: u64 },
}

/// Execute the head half of one [`LuTask`] against the local column store:
/// everything except the trailing update (which [`run_update_chunk`] does
/// chunk by chunk).
fn run_head_task(store: &mut ColumnStore, t: &LuTask) -> HeadOutcome {
    let (k, j, nb, r) = (t.k as usize, t.j as usize, t.nb as usize, t.r as usize);
    let n = nb * r;
    let col = store
        .cols
        .get_mut(&t.j)
        .expect("task routed to the column owner");
    if j == k {
        // Store-back: the collector factored this panel remotely. An empty
        // panel is the entry split's self-acknowledgement (it factored
        // locally); only the pivot record travels then. Rows `k·r..n` of
        // an `n × r` column are one contiguous run, so the factored panel
        // coming home — one of the two copies a step needs — is a single
        // `copy_from_slice`.
        if !t.panel.is_empty() {
            col.as_mut_slice()[k * r * r..].copy_from_slice(&t.panel);
        }
        store.pivots.insert(t.k, t.pivots.clone());
        return HeadOutcome::Done {
            cost: t.panel.len() as f64,
        };
    }
    // Row flips of this step's pivoting (offset k·r).
    for (idx, &p) in t.pivots.iter().enumerate() {
        col.swap_rows(k * r + idx, k * r + p as usize);
    }
    let mut cost = (t.pivots.len() * r) as f64;
    if j < k {
        return HeadOutcome::Done { cost };
    }
    // trsm: U_kj = L11⁻¹ · A_kj, solved where A_kj lies (rows k·r.. of the
    // column) with L11 read straight out of the token's panel.
    let panel_rows = n - k * r;
    let l11 = MatRef::from_slice(&t.panel, panel_rows, r).block(0, 0, r, r);
    trsm_view(l11, col.view_mut().block(k * r, 0, r, r));
    cost += flops::trsm(r, r);
    // Keep a handle to the panel for the chunked trailing update, which
    // reads L21 from its rows r.. (j > k implies k < nb−1, so the tail is
    // non-empty).
    store.panels.insert((t.k, t.j), t.panel.clone());
    HeadOutcome::Update {
        cost,
        tail_blocks: ((panel_rows - r) / r) as u64,
    }
}

/// Execute one claimed trailing-update chunk — row blocks
/// `start..start+len` of the tail of column `j` at step `k` — through the
/// blocked gemm kernel. Returns `(flop cost, column finished this step,
/// panel rows for the k+1 notification if this column is the next panel)`.
fn run_update_chunk(store: &mut ColumnStore, t: &UpdTicket, c: &Chunk) -> (f64, bool, Vec<f64>) {
    let (k, j, nb, r) = (t.k as usize, t.j as usize, t.nb as usize, t.r as usize);
    let n = nb * r;
    let chunk_rows = c.len as usize * r;
    let panel = store
        .panels
        .get(&(t.k, t.j))
        .expect("head stashed the step's panel");
    let col = store
        .cols
        .get_mut(&t.j)
        .expect("ticket routed to the column owner");
    // A_ij -= L21 · U_kj, restricted to this chunk's rows: splitting the
    // row dimension never touches an element's k-accumulation chain. All
    // three operands stay where they lie — L21's rows in the shared panel
    // (below its r rows of L11), U_kj above the split of the column, the
    // chunk's tail rows below it.
    let l21 =
        MatRef::from_slice(panel, n - k * r, r).block(r + c.start as usize * r, 0, chunk_rows, r);
    let row0 = (k + 1 + c.start as usize) * r;
    let (above, below) = col.view_mut().split_rows_mut(row0);
    gemm_acc(
        -1.0,
        l21,
        above.view().block(k * r, 0, r, r),
        below.block(0, 0, chunk_rows, r),
    );
    let cost = flops::gemm_cost(chunk_rows, r, r);
    let rem = store
        .pending
        .get_mut(&(t.k, t.j))
        .expect("pending count for the in-flight update");
    *rem -= 1;
    let finished = *rem == 0;
    let mut next_panel = Vec::new();
    if finished {
        store.pending.remove(&(t.k, t.j));
        store.panels.remove(&(t.k, t.j));
        // If this column becomes the next panel, ship its updated rows
        // with the notification (zero network cost: the collector sits on
        // this node). This is the other copy a step needs: the rows leave
        // their column for the collector, which factors them while this
        // worker keeps updating (and flipping rows of) the column.
        if j == k + 1 {
            next_panel = col.as_slice()[(k + 1) * r * r..].to_vec();
        }
    }
    (cost, finished, next_panel)
}

// --- operations ---------------------------------------------------------------

/// Entry split (Fig. 12 a): factor panel 0 locally, broadcast step-0 tasks.
struct StartSplit;
impl SplitOperation for StartSplit {
    type Thread = ColumnStore;
    type In = LuStart;
    type Out = LuTask;
    fn execute(&mut self, ctx: &mut OpCtx<'_, ColumnStore, LuTask>, s: LuStart) {
        let (nb, r) = (s.nb, s.r);
        ctx.charge_flops(panel_cost(0, nb, r));
        let store = ctx.thread();
        // Column 0 is the panel, whole: factor it where it lies. The tasks
        // get a copy — the column's rows go on being flipped by later
        // steps while the step-0 tasks are still reading the panel.
        let col = store.cols.get_mut(&0).expect("column 0 is local");
        let piv: Buffer<u32> = panel_lu(col).into_iter().map(|p| p as u32).collect();
        let panel: Buffer<f64> = col.as_slice().to_vec().into();
        store.pivots.insert(0, piv.clone());
        // Self-acknowledgement first: every column — including this one —
        // must emit a step-0 notification, because all later tasks for a
        // column are posted in response to its previous notification.
        ctx.post(LuTask {
            k: 0,
            j: 0,
            nb,
            r,
            panel: Buffer::new(),
            pivots: piv.clone(),
        });
        for j in 1..nb {
            ctx.post(make_task(0, j, nb, r, &panel, &piv));
        }
    }
}

/// Per-column worker (Fig. 12 b/d/f), head half: row flips, trsm, and —
/// for trailing updates — opening the chunk lease and posting the wave of
/// boundary-free [`UpdTicket`]s that [`UpdateWork`] claims against. A
/// *split*, because a trailing update fans out into `update_chunks`
/// tickets; [`ChunkMerge`] closes each wave.
struct ColumnWork {
    hub: Arc<ChunkHub>,
    chunks: u32,
}
impl SplitOperation for ColumnWork {
    type Thread = ColumnStore;
    type In = LuTask;
    type Out = UpdTicket;
    fn execute(&mut self, ctx: &mut OpCtx<'_, ColumnStore, UpdTicket>, t: LuTask) {
        match run_head_task(ctx.thread(), &t) {
            HeadOutcome::Done { cost } => {
                ctx.charge_flops(cost);
                ctx.post(UpdTicket {
                    k: t.k,
                    j: t.j,
                    nb: t.nb,
                    r: t.r,
                    lease: u64::MAX,
                    chunks: 0,
                });
            }
            HeadOutcome::Update { cost, tail_blocks } => {
                ctx.charge_flops(cost);
                // Announce the tail's row blocks on the hub (this process's
                // own on the distributed engine: the tickets come back to
                // this thread) and post one boundary-free ticket per chunk;
                // the static partition keeps the chunk boundaries
                // deterministic.
                let lease = self.hub.open(ChunkCalc::new(
                    PolicyKind::Static,
                    tail_blocks,
                    self.chunks.max(1) as usize,
                    &[],
                ));
                ctx.thread().pending.insert((t.k, t.j), lease.chunks);
                for _ in 0..lease.chunks {
                    ctx.post(UpdTicket {
                        k: t.k,
                        j: t.j,
                        nb: t.nb,
                        r: t.r,
                        lease: lease.id,
                        chunks: lease.chunks,
                    });
                }
            }
        }
    }
}

/// Per-column worker, update half: claims one trailing-update chunk per
/// ticket from the hub lease, runs the partial gemm, and posts one
/// notification per chunk — marked final (`done == 1`) only when the last
/// chunk of the column's step has landed.
struct UpdateWork {
    hub: Arc<ChunkHub>,
}
impl LeafOperation for UpdateWork {
    type Thread = ColumnStore;
    type In = UpdTicket;
    type Out = LuNotify;
    fn execute(&mut self, ctx: &mut OpCtx<'_, ColumnStore, LuNotify>, t: UpdTicket) {
        if t.chunks == 0 {
            // Passthrough: flips / store-back finished in the head.
            ctx.post(LuNotify {
                k: t.k,
                j: t.j,
                r: t.r,
                done: 1,
                panel: Buffer::new(),
            });
            return;
        }
        let c = self
            .hub
            .claim(t.lease)
            .expect("one chunk per posted ticket");
        ctx.charge(chunk_calc_cost());
        let (cost, finished, next_panel) = run_update_chunk(ctx.thread(), &t, &c);
        ctx.charge_flops(cost);
        ctx.mark_chunk(c.len);
        ctx.post(LuNotify {
            k: t.k,
            j: t.j,
            r: t.r,
            done: u32::from(finished),
            panel: next_panel.into(),
        });
    }
}

/// Closes the chunk wave [`ColumnWork`] opened: collects the per-chunk
/// notifications of one column's step on the column's owner and forwards
/// the single final one (`done == 1`, carrying the next panel when the
/// column is `k+1`) — so the step collectors keep seeing exactly one
/// notification per column, chunked or not.
#[derive(Default)]
struct ChunkMerge {
    last: Option<LuNotify>,
}
impl MergeOperation for ChunkMerge {
    type Thread = ColumnStore;
    type In = LuNotify;
    type Out = LuNotify;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, ColumnStore, LuNotify>, n: LuNotify) {
        if n.done == 1 {
            self.last = Some(n);
        }
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, ColumnStore, LuNotify>) {
        ctx.post(
            self.last
                .take()
                .expect("every chunk wave ends with a final notification"),
        );
    }
}

/// Pipelined step collector (Fig. 12 e): a stream operation in the separate
/// collector collection on the next panel owner's node. Factors the next
/// panel the moment that column reports; streams each step-`k+1` task out
/// as its column reports step `k` done.
struct StepStream {
    k: u32,
    nb: u32,
    r: u32,
    panel: Option<(Buffer<f64>, Buffer<u32>)>,
    waiting: Vec<u32>,
}

impl StepStream {
    fn new(k: u32, nb: u32, r: u32) -> impl Fn() -> Self {
        move || Self {
            k,
            nb,
            r,
            panel: None,
            waiting: Vec::new(),
        }
    }

    fn post_task(&self, ctx: &mut OpCtx<'_, PanelStore, LuTask>, j: u32) {
        let (panel, pivots) = self.panel.as_ref().expect("panel factored");
        ctx.post(make_task(self.k + 1, j, self.nb, self.r, panel, pivots));
    }
}

impl StreamOperation for StepStream {
    type Thread = PanelStore;
    type In = LuNotify;
    type Out = LuTask;
    fn consume(&mut self, ctx: &mut OpCtx<'_, PanelStore, LuTask>, n: LuNotify) {
        debug_assert_eq!(n.k, self.k);
        debug_assert_eq!(n.done, 1, "ChunkMerge forwards only final notifications");
        let next = self.k + 1;
        if n.j == next {
            // The next panel column is up to date: factor it *now* on this
            // node's second processor, without waiting for the rest of the
            // step (the pipelining of Fig. 13).
            ctx.charge_flops(panel_cost(next, self.nb, self.r));
            let rows = (self.nb - next) as usize * self.r as usize;
            self.panel = Some(factor_panel(rows, self.r as usize, n.panel.into_vec()));
            // Send the factors home first, then release whoever already
            // reported (updates lead, flips trail).
            self.post_task(ctx, next);
            let mut waiting = std::mem::take(&mut self.waiting);
            waiting.sort_by_key(|&j| (j <= next, j));
            for j in waiting {
                self.post_task(ctx, j);
            }
        } else if self.panel.is_some() {
            self.post_task(ctx, n.j);
        } else {
            self.waiting.push(n.j);
        }
    }
    fn finalize(&mut self, _ctx: &mut OpCtx<'_, PanelStore, LuTask>) {
        debug_assert!(self.waiting.is_empty(), "all tasks posted on the fly");
    }
}

/// Non-pipelined step collector: a *merge* (wait for the whole step), whose
/// finalize factors the next panel; the split half rebroadcasts — the
/// paper's "standard merge-split construct".
struct StepMerge {
    k: u32,
    nb: u32,
    r: u32,
    panel_data: Vec<f64>,
}
impl StepMerge {
    fn new(k: u32, nb: u32, r: u32) -> impl Fn() -> Self {
        move || Self {
            k,
            nb,
            r,
            panel_data: Vec::new(),
        }
    }
}
impl MergeOperation for StepMerge {
    type Thread = PanelStore;
    type In = LuNotify;
    type Out = LuStart;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, PanelStore, LuStart>, n: LuNotify) {
        debug_assert_eq!(n.done, 1, "ChunkMerge forwards only final notifications");
        if n.j == self.k + 1 {
            self.panel_data = n.panel.into_vec();
        }
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, PanelStore, LuStart>) {
        let next = self.k + 1;
        ctx.charge_flops(panel_cost(next, self.nb, self.r));
        let rows = (self.nb - next) as usize * self.r as usize;
        let factored = factor_panel(rows, self.r as usize, std::mem::take(&mut self.panel_data));
        ctx.thread().cache.insert(next, factored);
        ctx.post(LuStart {
            nb: self.nb,
            r: self.r,
        });
    }
}

/// Non-pipelined rebroadcast split (reads the panel its merge cached in the
/// collector thread's store).
struct StepSplit {
    k: u32,
}
impl StepSplit {
    fn new(k: u32) -> impl Fn() -> Self {
        move || Self { k }
    }
}
impl SplitOperation for StepSplit {
    type Thread = PanelStore;
    type In = LuStart;
    type Out = LuTask;
    fn execute(&mut self, ctx: &mut OpCtx<'_, PanelStore, LuTask>, s: LuStart) {
        let (panel, pivots) = ctx
            .thread()
            .cache
            .remove(&self.k)
            .expect("merge finalize cached the panel");
        for t in step_tasks(self.k, s.nb, s.r, &panel, &pivots) {
            ctx.post(t);
        }
    }
}

/// Final merge (Fig. 12 g): collect the last step's notifications.
#[derive(Default)]
struct FinishMerge {
    nb: u32,
}
impl MergeOperation for FinishMerge {
    type Thread = PanelStore;
    type In = LuNotify;
    type Out = LuFinished;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, PanelStore, LuFinished>, n: LuNotify) {
        self.nb = self.nb.max(n.k + 1);
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, PanelStore, LuFinished>) {
        ctx.post(LuFinished { nb: self.nb });
    }
}

/// Generate a block column on its owner, into the owner's store: the
/// column is made by the thread that keeps it, and no other thread or
/// process holds a copy of it.
struct InstallColumn;
impl LeafOperation for InstallColumn {
    type Thread = ColumnStore;
    type In = LoadColumn;
    type Out = ColumnLoaded;
    fn execute(&mut self, ctx: &mut OpCtx<'_, ColumnStore, ColumnLoaded>, t: LoadColumn) {
        let (n, r, j) = (t.rows as usize, t.r as usize, t.j as usize);
        let col = Matrix::random_general_strip(n, r, t.seed, Strips::Cols, j);
        ctx.thread().cols.insert(t.j, col);
        ctx.post(ColumnLoaded { j: t.j });
    }
}

/// Extract a factored block column (and its step's pivot record) from the
/// owning worker's store.
struct ExtractColumn;
impl LeafOperation for ExtractColumn {
    type Thread = ColumnStore;
    type In = DumpColumn;
    type Out = ColumnDump;
    fn execute(&mut self, ctx: &mut OpCtx<'_, ColumnStore, ColumnDump>, d: DumpColumn) {
        let store = ctx.thread();
        let col = store
            .cols
            .remove(&d.j)
            .expect("dump routed to the column owner");
        let pivots = store
            .pivots
            .get(&d.j)
            .unwrap_or_else(|| panic!("pivot record for step {} missing", d.j))
            .clone();
        ctx.post(ColumnDump {
            j: d.j,
            rows: col.rows() as u32,
            data: col.into_vec().into(),
            pivots,
        });
    }
}

// --- driver ---------------------------------------------------------------------

/// Parameters of one LU run.
#[derive(Debug, Clone)]
pub struct LuConfig {
    /// Matrix order `n` (must be a multiple of `r`).
    pub n: usize,
    /// Block size `r`.
    pub r: usize,
    /// Stream-pipelined schedule (true) or merge-split baseline (false).
    pub pipelined: bool,
    /// Matrix seed.
    pub seed: u64,
    /// Worker nodes.
    pub nodes: usize,
    /// Worker threads per node (the collector collection always adds one
    /// more thread per node — the paper's separate collection, Fig. 14).
    pub threads_per_node: usize,
    /// How block columns are assigned to workers: the paper's static
    /// `j mod p` layout, or a chunk-policy partition sized from measured
    /// worker rates (a calibration wave runs first; with AWF, fast nodes
    /// own proportionally more columns). The factorization result is
    /// identical either way — only the placement (and hence the makespan
    /// on heterogeneous clusters) changes.
    pub dist: Distribution,
    /// Sub-column chunks each trailing update is split into (clamped to
    /// the column's tail row blocks): 1 reproduces the legacy
    /// one-task-per-column granularity, larger values interleave a step's
    /// columns at finer grain. The factorization is bitwise identical at
    /// any setting — chunks split rows, never an accumulation chain.
    pub update_chunks: u32,
}

/// Outcome of one LU run.
pub struct LuRunReport {
    /// Execution time of the factorization proper (staging excluded), in
    /// the engine's own notion of time.
    pub elapsed: SimSpan,
    /// Assembled packed factors + global pivot record.
    pub factors: LuFactors,
}

/// Run one block LU factorization of `Matrix::random_general(n, n, seed)`
/// with the chosen schedule on **any engine** — one entry point for the
/// simulator, OS threads and processes.
/// Verify with [`lu_residual`](crate::lu_residual) on the report.
///
/// Everything is declared up front (collections, calibration loop, the
/// factorization graph, column loader/dump graphs); for
/// `Distribution::Scheduled` the column-ownership [`OwnerMap`] resolves
/// *after* the calibration waves measured the workers — routes read it per
/// token, so the late binding is invisible to the graphs.
pub fn run_lu<E: Engine>(eng: &mut E, cfg: &LuConfig) -> Result<LuRunReport> {
    assert!(cfg.n.is_multiple_of(cfg.r), "r must divide n");
    let nb = (cfg.n / cfg.r) as u32;
    assert!(nb >= 2, "need at least two block columns");
    let r = cfg.r as u32;

    let app = eng.app("lu");
    eng.preload_app(app); // steady-state measurement, as in the paper

    // The hub the chunked trailing updates announce to and claim from —
    // process-local on the shared-memory engines, one per process (homed
    // at its rank) on the distributed engine.
    let hub = eng.chunk_hub();
    let update_chunks = cfg.update_chunks.max(1);
    let worker_map = default_mapping(cfg.nodes, cfg.threads_per_node);
    let workers: ThreadCollection<ColumnStore> = eng.thread_collection(app, "cols", &worker_map)?;
    // The collectors (streams / step merges) live in their own collection,
    // one thread per node, co-located with the column owners so the panel
    // hand-over is an address-space pointer pass.
    let collectors: ThreadCollection<PanelStore> =
        eng.thread_collection(app, "collect", &default_mapping(cfg.nodes, 1))?;
    let p = workers.thread_count();
    let pc = collectors.thread_count();
    let tpn = cfg.threads_per_node.max(1);

    // Column ownership: `j mod p` for the paper's static layout, resolved
    // immediately; for dynamic scheduling the map resolves after the
    // calibration waves below.
    let owners = Arc::new(match cfg.dist {
        Distribution::Static => OwnerMap::fixed((0..nb as usize).map(|j| j % p).collect()),
        Distribution::Scheduled(_) => OwnerMap::new(),
    });
    let placement = build_placement(eng, app, &worker_map, cfg.dist)?;
    // Collector thread for step k: the node hosting column k's owner
    // (resolved at route time — the owner map may still be pending).
    let collector_of = {
        let owners = Arc::clone(&owners);
        move |k: u32| (owners.owner(k as usize, p) / tpn) % pc
    };

    // Build the dynamic graph to fit the problem size (paper: "the graph is
    // created to fit the size of the problem").
    let mut b = GraphBuilder::new(if cfg.pipelined {
        "lu-pipelined"
    } else {
        "lu-merge-split"
    });
    let entry = {
        let owners = Arc::clone(&owners);
        b.split(
            &workers,
            move || {
                let owners = Arc::clone(&owners);
                ByKey::new(move |_t: &LuStart| owners.owner(0, p))
            },
            || StartSplit,
        )
    };
    let owner_route = {
        let owners = Arc::clone(&owners);
        move || {
            let owners = Arc::clone(&owners);
            ByKey::new(move |t: &LuTask| owners.owner(t.j as usize, p))
        }
    };
    // Update tickets stay on their column's owner: the tail rows live in
    // the owner's store, so chunking must not shed them elsewhere.
    let ticket_route = {
        let owners = Arc::clone(&owners);
        move || {
            let owners = Arc::clone(&owners);
            ByKey::new(move |t: &UpdTicket| owners.owner(t.j as usize, p))
        }
    };
    let head_of = |b: &mut GraphBuilder| {
        let hub = Arc::clone(&hub);
        b.split(&workers, owner_route.clone(), move || ColumnWork {
            hub: Arc::clone(&hub),
            chunks: update_chunks,
        })
    };
    let upd_of = |b: &mut GraphBuilder| {
        let hub = Arc::clone(&hub);
        b.leaf(&workers, ticket_route.clone(), move || UpdateWork {
            hub: Arc::clone(&hub),
        })
    };
    // The chunk merge pins each column's wave to the column owner, so the
    // whole chunked fan-out stays node-local; only the final notification
    // travels to the step collector.
    let notify_route = {
        let owners = Arc::clone(&owners);
        move || {
            let owners = Arc::clone(&owners);
            ByKey::new(move |n: &LuNotify| owners.owner(n.j as usize, p))
        }
    };
    let cm_of = |b: &mut GraphBuilder| b.merge(&workers, notify_route.clone(), ChunkMerge::default);
    let mut prev = {
        let w0 = head_of(&mut b);
        let u0 = upd_of(&mut b);
        let c0 = cm_of(&mut b);
        b.add(entry >> w0 >> u0 >> c0);
        c0
    };
    for k in 0..nb - 1 {
        if cfg.pipelined {
            let route = collector_of.clone();
            let t = b.stream(
                &collectors,
                move || {
                    let route = route.clone();
                    ByKey::new(move |_n: &LuNotify| route(k + 1))
                },
                StepStream::new(k, nb, r),
            );
            let w = head_of(&mut b);
            let u = upd_of(&mut b);
            let c = cm_of(&mut b);
            b.add(prev >> t >> w >> u >> c);
            prev = c;
        } else {
            let route = collector_of.clone();
            let m = b.merge(
                &collectors,
                move || {
                    let route = route.clone();
                    ByKey::new(move |_n: &LuNotify| route(k + 1))
                },
                StepMerge::new(k, nb, r),
            );
            let route = collector_of.clone();
            let sp = b.split(
                &collectors,
                move || {
                    let route = route.clone();
                    ByKey::new(move |_s: &LuStart| route(k + 1))
                },
                StepSplit::new(k + 1),
            );
            let w = head_of(&mut b);
            let u = upd_of(&mut b);
            let c = cm_of(&mut b);
            b.add(prev >> m >> sp >> w >> u >> c);
            prev = c;
        }
    }
    let m = b.merge(
        &collectors,
        || ByKey::new(|_n: &LuNotify| 0usize),
        FinishMerge::default,
    );
    b.add(prev >> m);
    let graph = eng.build_graph(b)?;

    // Column staging graphs (declared before the first run, like the rest).
    let loader = {
        let owners = Arc::clone(&owners);
        let mut b = GraphBuilder::new("lu-load");
        let _ = b.leaf(
            &workers,
            move || {
                let owners = Arc::clone(&owners);
                ByKey::new(move |t: &LoadColumn| owners.owner(t.j as usize, p))
            },
            || InstallColumn,
        );
        eng.build_graph(b)?
    };
    let dumper = {
        let owners = Arc::clone(&owners);
        let mut b = GraphBuilder::new("lu-dump");
        let _ = b.leaf(
            &workers,
            move || {
                let owners = Arc::clone(&owners);
                ByKey::new(move |t: &DumpColumn| owners.owner(t.j as usize, p))
            },
            || ExtractColumn,
        );
        eng.build_graph(b)?
    };

    // Scheduled distribution: measure the workers, then resolve ownership
    // from the chunk policy's partition under the measured weights.
    if let Some(p) = &placement {
        p.resolve(eng, &owners, nb as u64, 2)?;
    }

    // Have each owner generate its column blocks (paper §5: the matrix
    // starts distributed). A general (non diagonally-dominant) matrix keeps
    // the partial pivoting honest.
    for j in 0..nb {
        eng.submit(
            loader,
            Box::new(LoadColumn {
                j,
                rows: cfg.n as u32,
                r,
                seed: cfg.seed,
            }),
        )?;
    }
    eng.run_to_idle(loader, nb as usize)?;
    let _ = eng.take_outputs(loader);

    let t0 = eng.now_secs();
    eng.submit(graph, Box::new(LuStart { nb, r }))?;
    eng.run_to_idle(graph, 1)?;
    let elapsed = SimSpan::from_secs_f64(eng.now_secs() - t0);
    let outs = eng.take_outputs(graph);
    assert_eq!(outs.len(), 1, "one LuFinished per run");

    // Gather the factored columns and pivot records back from the workers,
    // in column order, each column dropped as soon as it is copied: the
    // first columns fault in the result's pages while the fewest columns
    // are still held.
    for j in 0..nb {
        eng.submit(dumper, Box::new(DumpColumn { j }))?;
    }
    eng.run_to_idle(dumper, nb as usize)?;
    let mut dumps: Vec<Box<ColumnDump>> = eng
        .take_outputs(dumper)
        .into_iter()
        .map(|out| downcast::<ColumnDump>(out).expect("ColumnDump output"))
        .collect();
    dumps.sort_unstable_by_key(|d| d.j);
    let mut lu = Matrix::zeros(cfg.n, cfg.n);
    let mut pivots = vec![0usize; cfg.n];
    for d in dumps {
        let j = d.j as usize;
        lu.view_mut()
            .block(0, j * cfg.r, cfg.n, cfg.r)
            .copy_from(MatRef::from_slice(&d.data, d.rows as usize, cfg.r));
        for (t, &pv) in d.pivots.iter().enumerate() {
            pivots[j * cfg.r + t] = j * cfg.r + pv as usize;
        }
    }
    Ok(LuRunReport {
        elapsed,
        factors: LuFactors { lu, pivots },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{blocked_lu, lu_residual};
    use dps_cluster::ClusterSpec;

    fn check(cfg: &LuConfig) -> LuRunReport {
        let mut eng = SimEngine::new(ClusterSpec::paper_testbed(cfg.nodes));
        let rep = run_lu(&mut eng, cfg).unwrap();
        let a = Matrix::random_general(cfg.n, cfg.n, cfg.seed);
        let res = lu_residual(&a, &rep.factors);
        assert!(res < 1e-8, "residual {res}");
        // The parallel schedule must compute the *same* factorization as
        // the sequential block driver (identical pivoting path).
        let reference = blocked_lu(&a, cfg.r);
        assert_eq!(rep.factors.pivots, reference.pivots);
        rep
    }

    #[test]
    fn a_steps_tasks_alias_one_panel() {
        // The collector factors the panel into one buffer; the store-back
        // and every trailing update of the step hold a handle to it, and
        // the row flips carry none.
        let (panel, pivots) = factor_panel(24, 8, Matrix::random_general(24, 8, 1).into_vec());
        let tasks = step_tasks(2, 5, 8, &panel, &pivots);
        assert_eq!(tasks.len(), 5);
        for t in &tasks {
            assert_eq!(t.pivots.as_ptr(), pivots.as_ptr(), "column {}", t.j);
            if t.j >= t.k {
                assert_eq!(t.panel.as_ptr(), panel.as_ptr(), "column {}", t.j);
            } else {
                assert!(t.panel.is_empty(), "column {}", t.j);
            }
        }
    }

    #[test]
    fn pipelined_lu_is_correct() {
        check(&LuConfig {
            n: 48,
            r: 8,
            pipelined: true,
            seed: 21,
            nodes: 3,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        });
    }

    #[test]
    fn merge_split_lu_is_correct() {
        check(&LuConfig {
            n: 48,
            r: 8,
            pipelined: false,
            seed: 21,
            nodes: 3,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        });
    }

    #[test]
    fn lu_on_more_workers_than_columns() {
        check(&LuConfig {
            n: 16,
            r: 8,
            pipelined: true,
            seed: 2,
            nodes: 4,
            threads_per_node: 2,
            dist: Distribution::Static,
            update_chunks: 1,
        });
    }

    #[test]
    fn pivoting_actually_pivots() {
        // Regression guard: the final step's row flips must reach previous
        // columns. A non-dominant matrix exercises non-trivial pivots.
        let cfg = LuConfig {
            n: 40,
            r: 8,
            pipelined: true,
            seed: 5,
            nodes: 2,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        };
        let rep = check(&cfg);
        let nontrivial = rep
            .factors
            .pivots
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p != i)
            .count();
        assert!(nontrivial > 0, "test matrix should force row swaps");
    }

    #[test]
    fn chunked_trailing_updates_are_byte_identical() {
        // Chunking splits rows, never an accumulation chain: the packed
        // factors must match the sequential reference bit for bit at every
        // granularity (including chunk counts beyond the tail's blocks).
        let (n, r) = (64usize, 8usize);
        let a = Matrix::random_general(n, n, 13);
        let reference = blocked_lu(&a, r);
        for chunks in [1u32, 2, 3, 7, 16] {
            for pipelined in [true, false] {
                let cfg = LuConfig {
                    n,
                    r,
                    pipelined,
                    seed: 13,
                    nodes: 3,
                    threads_per_node: 1,
                    dist: Distribution::Static,
                    update_chunks: chunks,
                };
                let mut eng = SimEngine::new(ClusterSpec::paper_testbed(cfg.nodes));
                let rep = run_lu(&mut eng, &cfg).unwrap();
                assert_eq!(
                    rep.factors.pivots, reference.pivots,
                    "pivots diverged: chunks={chunks} pipelined={pipelined}"
                );
                assert_eq!(
                    rep.factors.lu, reference.lu,
                    "bits diverged: chunks={chunks} pipelined={pipelined}"
                );
            }
        }
    }

    fn timed(spec: ClusterSpec, cfg: &LuConfig) -> SimSpan {
        let rep = run_lu(&mut SimEngine::new(spec), cfg).unwrap();
        let a = Matrix::random_general(cfg.n, cfg.n, cfg.seed);
        assert!(lu_residual(&a, &rep.factors) < 1e-8);
        rep.elapsed
    }

    #[test]
    fn streams_beat_merge_split() {
        // Fig. 15's claim: the stream-pipelined variant outperforms the
        // merge-split variant.
        let mk = |pipelined| LuConfig {
            n: 192,
            r: 16,
            pipelined,
            seed: 7,
            nodes: 4,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        };
        let spec = ClusterSpec::paper_testbed(4);
        let t_pipe = timed(spec.clone(), &mk(true));
        let t_merge = timed(spec, &mk(false));
        assert!(
            t_pipe < t_merge,
            "pipelined {t_pipe} should beat merge-split {t_merge}"
        );
    }

    #[test]
    fn lu_speedup_with_more_nodes() {
        let mk = |nodes| LuConfig {
            n: 256,
            r: 32,
            pipelined: true,
            seed: 9,
            nodes,
            threads_per_node: 1,
            dist: Distribution::Static,
            update_chunks: 1,
        };
        let t1 = timed(ClusterSpec::paper_testbed(1), &mk(1));
        let t4 = timed(ClusterSpec::paper_testbed(4), &mk(4));
        assert!(
            t4.as_secs_f64() < t1.as_secs_f64() * 0.7,
            "4 nodes ({t4}) should be well under 1 node ({t1})"
        );
    }
}
