//! Trivial-token flow graphs: the token path of an engine with no work in
//! it. One leaf for single-token round trips, one split → leaf → merge for
//! throughput. Generic over the engine, so `mt` and `net` run the same
//! graphs.

use std::time::Instant;

use dps_core::prelude::*;
use dps_core::Engine;

dps_token! { pub struct Burst { pub n: u32 } }
dps_token! { pub struct Unit { pub v: u64 } }
dps_token! { pub struct Sum { pub sum: u64 } }

struct Fan;
impl SplitOperation for Fan {
    type Thread = ();
    type In = Burst;
    type Out = Unit;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Unit>, b: Burst) {
        for v in 0..u64::from(b.n) {
            ctx.post(Unit { v });
        }
    }
}

struct Echo;
impl LeafOperation for Echo {
    type Thread = ();
    type In = Unit;
    type Out = Unit;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Unit>, u: Unit) {
        ctx.post(Unit { v: u.v + 1 });
    }
}

#[derive(Default)]
struct Add {
    sum: u64,
}
impl MergeOperation for Add {
    type Thread = ();
    type In = Unit;
    type Out = Sum;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), Sum>, u: Unit) {
        self.sum += u.v;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), Sum>) {
        ctx.post(Sum { sum: self.sum });
    }
}

/// What [`run`] measured.
pub struct TokenProbe {
    /// Seconds of each sequential `submit → run_to_idle → take_outputs`
    /// round trip of one token through the leaf.
    pub rtts: Vec<f64>,
    /// Seconds for the burst wave (split, `burst` leaf executions, merge).
    pub burst_s: f64,
    /// Seconds from the first declaration to the end of the first round
    /// trip: what an engine costs before it does useful work (thread
    /// start-up on `mt`, the declaration barrier on `net`).
    pub start_s: f64,
    /// Every value the ping graph put out, and the burst's sums.
    echoes: Vec<u64>,
    sums: Vec<u64>,
}

impl TokenProbe {
    /// Check the outputs: ping `i` echoed `i + 1`, the burst summed every
    /// echo once. Only the process that reports may ask — a `NetEngine`
    /// worker sees the master's outputs re-broadcast on the master's
    /// schedule, not once per round of its own loop.
    pub fn verify(&self, pings: u32, burst: u32) -> std::result::Result<(), String> {
        let want: Vec<u64> = (1..=u64::from(pings)).collect();
        if self.echoes != want {
            return Err(format!(
                "ping outputs wrong: {} values, expected 1..={pings} in order",
                self.echoes.len()
            ));
        }
        let n = u64::from(burst);
        if self.sums != [n * (n + 1) / 2] {
            return Err(format!("burst sum wrong: {:?}", self.sums));
        }
        Ok(())
    }
}

/// Declare both graphs on `eng`, with the master thread on `node0` and the
/// leaf threads on `leaf_mapping`, then time `pings` sequential round trips
/// and one wave of `burst` tokens. [`TokenProbe::verify`] checks the outputs.
pub fn run<E: Engine>(
    eng: &mut E,
    leaf_mapping: &str,
    pings: u32,
    burst: u32,
) -> Result<TokenProbe> {
    let t_start = Instant::now();
    let app = eng.app("tokens");
    eng.preload_app(app);
    let master: ThreadCollection<()> = eng.thread_collection(app, "master", "node0")?;
    let leaves: ThreadCollection<()> = eng.thread_collection(app, "leaves", leaf_mapping)?;
    let p = leaves.thread_count();

    let ping = {
        let mut b = GraphBuilder::new("ping");
        let _ = b.leaf(&leaves, || ToThread(0), || Echo);
        eng.build_graph(b)?
    };
    let fan = {
        let mut b = GraphBuilder::new("fan");
        let s = b.split(&master, || ToThread(0), || Fan);
        let l = b.leaf(
            &leaves,
            move || ByKey::new(move |u: &Unit| u.v as usize % p),
            || Echo,
        );
        let m = b.merge(&master, || ToThread(0), Add::default);
        b.add(s >> l >> m);
        eng.build_graph(b)?
    };

    let mut rtts = Vec::with_capacity(pings as usize);
    let mut echoes = Vec::with_capacity(pings as usize);
    let mut start_s = 0.0;
    for i in 0..u64::from(pings) {
        let t0 = Instant::now();
        eng.submit(ping, Box::new(Unit { v: i }))?;
        eng.run_to_idle(ping, 1)?;
        let outs = eng.take_outputs(ping);
        let rtt = t0.elapsed().as_secs_f64();
        if i == 0 {
            start_s = t_start.elapsed().as_secs_f64();
        } else {
            // The first round trip pays the engine's lazy start; it is
            // reported as `start_s`, not as a round trip.
            rtts.push(rtt);
        }
        echoes.extend(
            outs.into_iter()
                .map(|o| downcast::<Unit>(o).expect("Unit").v),
        );
    }

    let t0 = Instant::now();
    eng.submit(fan, Box::new(Burst { n: burst }))?;
    eng.run_to_idle(fan, 1)?;
    let outs = eng.take_outputs(fan);
    let burst_s = t0.elapsed().as_secs_f64();
    let sums = outs
        .into_iter()
        .map(|o| downcast::<Sum>(o).expect("Sum").sum)
        .collect();

    Ok(TokenProbe {
        rtts,
        burst_s,
        start_s,
        echoes,
        sums,
    })
}
