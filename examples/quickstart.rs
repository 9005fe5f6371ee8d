//! Quickstart — the paper's §3 tutorial application.
//!
//! "It converts in parallel a character string from lowercase to uppercase
//! by splitting the string into its individual character components":
//! `SplitString` posts one `CharToken` per character, `ToUpperCase` leaves
//! map them on a round-robin-routed worker collection, and `MergeString`
//! reassembles the string by position.
//!
//! Run with: `cargo run --release --example quickstart`

use dps::cluster::ClusterSpec;
use dps::core::prelude::*;
use dps::core::{dps_token, route, SimEngine};

const TEXT: &str = "dynamic parallel schedules";

dps_token! {
    /// A whole string (the tutorial's StringToken).
    pub struct StringToken { pub str_: String }
}

dps_token! {
    /// A character and its position within the string (the tutorial's
    /// CharToken).
    pub struct CharToken { pub chr: u8, pub pos: u32 }
}

// ROUTE(RoundRobinRoute, ComputeThread, CharToken,
//       currentToken->pos % threadCount());
route!(pub RoundRobinRoute for CharToken =
    |token, info| token.pos as usize % info.thread_count);

/// The tutorial's SplitString: one token per character.
struct SplitString;
impl SplitOperation for SplitString {
    type Thread = ();
    type In = StringToken;
    type Out = CharToken;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), CharToken>, input: StringToken) {
        for (pos, chr) in input.str_.bytes().enumerate() {
            ctx.post(CharToken {
                chr,
                pos: pos as u32,
            });
        }
    }
}

/// The tutorial's ToUpperCase leaf.
struct ToUpperCase;
impl LeafOperation for ToUpperCase {
    type Thread = ();
    type In = CharToken;
    type Out = CharToken;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), CharToken>, input: CharToken) {
        ctx.post(CharToken {
            chr: input.chr.to_ascii_uppercase(),
            pos: input.pos,
        });
    }
}

/// The tutorial's MergeString: store each incoming character at its
/// position; the runtime knows when all characters have arrived.
#[derive(Default)]
struct MergeString {
    chars: Vec<u8>,
}
impl MergeOperation for MergeString {
    type Thread = ();
    type In = CharToken;
    type Out = StringToken;
    fn consume(&mut self, _ctx: &mut OpCtx<'_, (), StringToken>, input: CharToken) {
        let pos = input.pos as usize;
        if self.chars.len() <= pos {
            self.chars.resize(pos + 1, b' ');
        }
        self.chars[pos] = input.chr;
    }
    fn finalize(&mut self, ctx: &mut OpCtx<'_, (), StringToken>) {
        ctx.post(StringToken {
            str_: String::from_utf8_lossy(&self.chars).into_owned(),
        });
    }
}

fn main() {
    // A 4-node cluster shaped like the paper's testbed.
    let mut eng = SimEngine::new(ClusterSpec::paper_testbed(4));
    let app = eng.app("tutorial");

    // theMainThread / computeThreads, with the paper's mapping-string
    // syntax ("nodeA*2 nodeB"): two compute threads on node1, one each on
    // node2 and node3.
    let main_thread: ThreadCollection<()> = eng.thread_collection(app, "main", "node0").unwrap();
    let compute_threads: ThreadCollection<()> = eng
        .thread_collection(app, "proc", "node1*2 node2 node3")
        .unwrap();

    // theGraphBuilder = FlowgraphNode<SplitString, MainRoute>(theMainThread)
    //   >> FlowgraphNode<ToUpperCase, RoundRobinRoute>(computeThreads)
    //   >> FlowgraphNode<MergeString, MainRoute>(theMainThread);
    let mut b = GraphBuilder::new("graph");
    let split = b.split(&main_thread, || ToThread(0), || SplitString);
    let upper = b.leaf(&compute_threads, || RoundRobinRoute, || ToUpperCase);
    let merge = b.merge(&main_thread, || ToThread(0), MergeString::default);
    b.add(split >> upper >> merge);
    let graph = eng.build_graph(b).unwrap();

    eng.submit(
        graph,
        Box::new(StringToken {
            str_: TEXT.to_string(),
        }),
    )
    .unwrap();
    eng.run_until_idle().unwrap();

    let tok = eng.take_outputs(graph).pop().expect("one output");
    let result = downcast::<StringToken>(tok).unwrap();
    println!("input : {TEXT}");
    println!("output: {}", result.str_);
    let at = eng.now();
    println!("virtual time: {at} (includes lazy app-instance launches)");
    assert_eq!(result.str_, TEXT.to_uppercase());
}
