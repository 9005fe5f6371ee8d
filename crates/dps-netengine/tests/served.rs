//! A worker rank serves its own threads' arrivals, so a rank that dies
//! holding a wave pinned on its thread fails the run at once. Driven through
//! the loopback engine's public API.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dps_core::prelude::*;
use dps_core::{dps_token, DpsError};
use dps_netengine::{NetEngine, NetEngineConfig};

dps_token! { pub struct Job { pub shards: u32 } }
dps_token! { pub struct Shard { pub value: u64 } }
dps_token! { pub struct Total { pub sum: u64 } }

/// How long a test waits for something another thread is about to do.
const PATIENCE: Duration = Duration::from_secs(20);

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Job;
    type Out = Shard;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, j: Job) {
        for value in 0..u64::from(j.shards) {
            ctx.post(Shard { value });
        }
    }
}

/// Sums the shards of its wave, and says when it consumed one.
struct Sum(u64, Sender<()>);
impl MergeOperation for Sum {
    type Thread = ();
    type In = Shard;
    type Out = Total;
    fn consume(&mut self, _c: &mut OpCtx<'_, (), Total>, s: Shard) {
        self.0 += s.value;
        let _ = self.1.send(());
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Total>) {
        ctx.post(Total { sum: self.0 });
    }
}

/// Passes shard 0 on at once and holds shard 1 until the test lets it go,
/// saying when it starts holding.
struct HoldSecond {
    started: Sender<()>,
    gate: Arc<Mutex<Receiver<()>>>,
}
impl LeafOperation for HoldSecond {
    type Thread = ();
    type In = Shard;
    type Out = Shard;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Shard>, s: Shard) {
        if s.value == 1 {
            let _ = self.started.send(());
            let _ = self.gate.lock().unwrap().recv();
        }
        ctx.post(s);
    }
}

/// Thread 1 while its node is up, thread 0 after.
struct PreferOne;
impl Route<Shard> for PreferOne {
    fn route(&mut self, _s: &Shard, info: &RouteInfo<'_>) -> usize {
        match info.load {
            Some(load) if load[1] == u32::MAX => 0,
            _ => 1,
        }
    }
}

/// Rank 1 dies holding a merge wave pinned on its thread: shard 0 was sent
/// there and consumed, and shard 1 is held on node 0, so the rank owes no
/// reply. The run fails `NodeDown` for the wave as soon as the death is
/// detected, well inside the run timeout. Without the pin rule, shard 1
/// would move the wave to node 0, which would wait there for the shard that
/// died with rank 1 until the run timed out.
#[test]
fn a_rank_that_dies_holding_a_pinned_wave_fails_the_run_at_once() {
    // Rank 1's merge says so on rank 0's channel.
    let (consumed, consumes) = unbounded();
    let consumes = Mutex::new(consumes);
    NetEngine::loopback(2, NetEngineConfig::default(), |eng| {
        let app = eng.app("pinned");
        let main: ThreadCollection<()> = eng.thread_collection(app, "m", "node0").unwrap();
        let sums: ThreadCollection<()> = eng.thread_collection(app, "s", "node0 node1").unwrap();
        let (started, starts) = unbounded();
        let consumed = consumed.clone();
        let (open, gate) = unbounded::<()>();
        let gate = Arc::new(Mutex::new(gate));
        let mut b = GraphBuilder::new("pinned");
        let s = b.split(&main, || ToThread(0), || Fan);
        let l = b.leaf(
            &main,
            || ToThread(0),
            move || HoldSecond {
                started: started.clone(),
                gate: gate.clone(),
            },
        );
        let m = b.merge(&sums, || PreferOne, move || Sum(0, consumed.clone()));
        b.add(s >> l >> m);
        let g = eng.build_graph(b).unwrap();
        eng.submit(g, Box::new(Job { shards: 2 })).unwrap();
        if !eng.is_master() {
            // Killed mid-run: the run ends with the rank's connection.
            let _ = eng.run_to_idle(g, 1);
            return;
        }
        starts.recv_timeout(PATIENCE).expect("shard 1 held");
        (consumes.lock().unwrap())
            .recv_timeout(PATIENCE)
            .expect("shard 0 consumed on rank 1");

        eng.fail_worker(1).unwrap();
        let failed = Instant::now();
        let err = eng.run_to_idle(g, 1).unwrap_err();
        assert!(
            matches!(&err, DpsError::NodeDown { target, .. } if !target.contains("unanswered")),
            "degraded to {err}"
        );
        assert!(eng.worker_down(1));
        assert!(failed.elapsed() < PATIENCE / 2, "left to the run timeout");
        drop(open);
    });
}
