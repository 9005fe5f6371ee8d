//! The drop ledger of a carried token: every token a run makes is dropped
//! exactly once, whether it travelled in place or in a box, on `mt` and on
//! the simulator — in a run that completes, in one whose leaf breaks its
//! contract, and in one that loses a node whose tombstone drains its queue.
//!
//! Each token here holds a [`Tally`], which counts every value made (new,
//! cloned or decoded) and every value dropped. The counts are process-wide,
//! so the tests of this binary run one at a time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use dps_core::prelude::*;
use dps_core::serial::{Reader, Wire, WireError, Writer};
use dps_core::{Engine, EngineConfig};
use dps_mt::{FailHandle, MtConfig, MtEngine};

static MADE: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// The counts are process-wide: one test at a time.
static ALONE: Mutex<()> = Mutex::new(());

/// A counted value: made and dropped are tallied.
#[derive(Debug, PartialEq)]
pub struct Tally(u32);

impl Tally {
    fn new(v: u32) -> Self {
        MADE.fetch_add(1, Ordering::Relaxed);
        Tally(v)
    }
}

impl Clone for Tally {
    fn clone(&self) -> Self {
        Tally::new(self.0)
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

impl Wire for Tally {
    fn wire_size(&self) -> usize {
        4
    }
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
        Ok(Tally::new(r.get_u32()?))
    }
}

dps_token! {
    /// Four bytes: travels in place.
    pub struct Small { pub n: Tally }
}

dps_token! {
    /// Forty bytes: travels in a box.
    pub struct Big { pub n: Tally, pub a: u64, pub b: u64, pub c: u64, pub d: u64 }
}

/// A job of `n` pieces on its way in, an answer, or the count on its way
/// out.
fn small(n: u32) -> Small {
    Small { n: Tally::new(n) }
}

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Small;
    type Out = Big;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Big>, job: Small) {
        for i in 0..job.n.0 {
            let (n, a, b, c, d) = (Tally::new(i), 0, 1, 2, 3);
            ctx.post(Big { n, a, b, c, d });
        }
    }
}

/// What the leaf's thread `t` does with piece `i` before it answers: the
/// number of answers it posts (one keeps the contract).
type Hook = Arc<dyn Fn(usize, u32) -> usize + Send + Sync>;

struct Answer(Hook);
impl LeafOperation for Answer {
    type Thread = ();
    type In = Big;
    type Out = Small;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Small>, piece: Big) {
        for _ in 0..(self.0)(ctx.thread_index(), piece.n.0) {
            ctx.post(small(piece.n.0));
        }
    }
}

#[derive(Default)]
struct Count(u32);
impl MergeOperation for Count {
    type Thread = ();
    type In = Small;
    type Out = Small;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Small>, _answer: Small) {
        self.0 += 1;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Small>) {
        ctx.post(small(self.0));
    }
}

/// Piece `i` goes to thread `i` modulo the collection, or, if that one's
/// node is down, to the next live one.
struct Deal;
impl Route<Big> for Deal {
    fn route(&mut self, piece: &Big, info: &RouteInfo<'_>) -> usize {
        let count = info.thread_count;
        let up = |t: &usize| info.load.is_none_or(|load| load[*t] != u32::MAX);
        let dealt = piece.n.0 as usize;
        (dealt..dealt + count)
            .map(|t| t % count)
            .find(up)
            .unwrap_or(dealt % count)
    }
}

/// `Small` → split into `n` `Big`s → a leaf on `node0 node1` answers each
/// with a `Small` → merged into one `Small`: both representations, both
/// ways. A leaf that breaks its contract leaves its `Small`s in place, to
/// be dropped unconsumed.
fn build<E: Engine>(eng: &mut E, hook: Hook) -> GraphHandle {
    assert!(size_of::<Small>() <= 32 && size_of::<Big>() > 32);
    let app = eng.app("ledger");
    eng.preload_app(app);
    let main: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let workers: ThreadCollection<()> = eng
        .thread_collection(app, "workers", "node0 node1")
        .unwrap();
    let mut b = GraphBuilder::new("ledger");
    let s = b.split(&main, || ToThread(0), || Fan);
    let l = b.leaf(&workers, || Deal, move || Answer(hook.clone()));
    let m = b.merge(&main, || ToThread(0), Count::default);
    b.add(s >> l >> m);
    eng.build_graph(b).unwrap()
}

/// Run `n` pieces through the ledger graph on `eng`; what the run returned
/// and, if it completed, the count its output carries.
fn run<E: Engine>(eng: &mut E, g: GraphHandle, n: u32) -> Result<u32> {
    eng.submit(g, Box::new(small(n)))?;
    eng.run_to_idle(g, 1)?;
    let out = eng.take_outputs(g).pop().expect("one output");
    Ok(downcast::<Small>(out).expect("a Small").n.0)
}

/// Made and dropped over `body`, which drops its engine before it returns:
/// both counts, checked equal.
fn ledger(body: impl FnOnce()) -> u64 {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (made, dropped) = (
        MADE.load(Ordering::Relaxed),
        DROPPED.load(Ordering::Relaxed),
    );
    body();
    let made = MADE.load(Ordering::Relaxed) - made;
    let dropped = DROPPED.load(Ordering::Relaxed) - dropped;
    assert_eq!(made, dropped, "tokens made and tokens dropped");
    made
}

const N: u32 = 2_000;

fn mt() -> MtEngine {
    let cfg = MtConfig {
        flow_window: 0,
        ..MtConfig::default()
    };
    MtEngine::with_config(2, cfg)
}

#[test]
fn every_token_of_an_mt_run_is_dropped_once() {
    let made = ledger(|| {
        let mut eng = mt();
        let g = build(&mut eng, Arc::new(|_, _| 1));
        assert_eq!(run(&mut eng, g, N).unwrap(), N);
    });
    // The job, its pieces, their answers and the count.
    assert_eq!(made, 2 + 2 * u64::from(N));
}

#[test]
fn every_token_of_an_mt_run_whose_leaf_fails_is_dropped_once() {
    let made = ledger(|| {
        let mut eng = mt();
        let g = build(&mut eng, Arc::new(|_, i| if i == N / 2 { 2 } else { 1 }));
        let err = run(&mut eng, g, N).unwrap_err();
        assert!(
            matches!(&err, DpsError::OperationContract { reason, .. } if reason.contains("exactly one")),
            "{err}"
        );
    });
    assert!(made > u64::from(N), "{made}");
}

#[test]
fn every_token_a_tombstone_drains_is_dropped_once() {
    let made = ledger(|| {
        let mut eng = mt();
        let kill: Arc<OnceLock<FailHandle>> = Arc::default();
        let armed = kill.clone();
        // Node 1's thread holds its first piece until node 0's has run half
        // of its own and killed node 1, so node 1's queue holds every odd
        // piece dealt since: its tombstone drains them to node 0.
        let (killed, wait) = std::sync::mpsc::channel();
        let (killed, wait) = (Mutex::new(killed), Mutex::new(wait));
        let hook: Hook = Arc::new(move |thread, i| {
            let kill = armed.get().expect("armed before the submit");
            match thread {
                0 if i >= N / 2 && !kill.is_dead(1) => {
                    kill.fail_node(1).expect("node1 exists");
                    killed.lock().unwrap().send(()).unwrap();
                }
                1 if !kill.is_dead(1) => {
                    let wait = wait.lock().unwrap();
                    wait.recv_timeout(Duration::from_secs(60))
                        .expect("node 1 killed");
                }
                _ => {}
            }
            1
        });
        let sink = dps_obs::TraceCollector::new();
        eng.set_trace_sink(sink.clone());
        let g = build(&mut eng, hook);
        assert!(kill.set(eng.fail_handle()).is_ok());
        assert_eq!(
            run(&mut eng, g, N).unwrap(),
            N,
            "the survivor answers every piece"
        );
        assert!(kill.get().expect("armed").is_dead(1));
        let drained = sink.metrics().get(dps_obs::Counter::Requeues);
        assert!(
            drained >= u64::from(N) / 4,
            "the tombstone drained {drained} pieces"
        );
    });
    assert_eq!(made, 2 + 2 * u64::from(N));
}

#[test]
fn every_token_of_a_sim_run_is_dropped_once() {
    let made = ledger(|| {
        let spec = dps_cluster::ClusterSpec::uniform(2, 1);
        let mut eng = SimEngine::with_config(spec, EngineConfig::default());
        let g = build(&mut eng, Arc::new(|_, _| 1));
        assert_eq!(run(&mut eng, g, N).unwrap(), N);
    });
    assert_eq!(made, 2 + 2 * u64::from(N));
}
