//! The declaration table's signature: what two SPMD processes compare
//! before the first token moves. Derived from the table, so it is the same
//! for the same declarations and different when one of them differs. And
//! the trace track a declared thread records on.

use dps_cluster::ClusterSpec;
use dps_core::prelude::*;
use dps_core::Decls;

dps_token! { pub struct Ask { pub n: u64 } }
dps_token! { pub struct Answer { pub n: u64 } }
dps_token! { pub struct Extra { pub n: u64 } }

struct Double;
impl LeafOperation for Double {
    type Thread = ();
    type In = Ask;
    type Out = Answer;
    fn execute(&mut self, ctx: &mut OpCtx<'_, (), Answer>, a: Ask) {
        ctx.post(Answer { n: 2 * a.n });
    }
}

/// One schedule, with a knob for each thing the signature must see.
#[derive(Clone, Copy)]
struct Schedule {
    apps: [&'static str; 2],
    mapping: &'static str,
    /// Which of the two collections the leaf sits on.
    leaf_on: usize,
    extra_token: bool,
    service: &'static str,
}

const BASE: Schedule = Schedule {
    apps: ["front", "back"],
    mapping: "node0 node1",
    leaf_on: 0,
    extra_token: false,
    service: "double",
};

fn signature(s: Schedule) -> u64 {
    let mut d = Decls::new(ClusterSpec::uniform(3, 1));
    let app = d.app(s.apps[0]);
    d.app(s.apps[1]);
    let tcs: [ThreadCollection<()>; 2] = [
        d.thread_collection(app, s.mapping).unwrap(),
        d.thread_collection(app, "node2").unwrap(),
    ];
    if s.extra_token {
        d.register_token::<Extra>(app);
    }
    let mut b = GraphBuilder::new("double");
    let _ = b.leaf(&tcs[s.leaf_on], || ToThread(0), || Double);
    let g = d.build_graph(b).unwrap();
    d.expose_service(g, s.service);
    d.signature()
}

#[test]
fn the_same_declarations_sign_the_same() {
    assert_eq!(signature(BASE), signature(BASE));
}

#[test]
fn one_differing_declaration_signs_differently() {
    let base = signature(BASE);
    let variants = [
        (
            "application order",
            Schedule {
                apps: ["back", "front"],
                ..BASE
            },
        ),
        (
            "mapping",
            Schedule {
                mapping: "node0 node2",
                ..BASE
            },
        ),
        (
            "thread count",
            Schedule {
                mapping: "node0*2 node1",
                ..BASE
            },
        ),
        ("node → collection", Schedule { leaf_on: 1, ..BASE }),
        (
            "token wire id",
            Schedule {
                extra_token: true,
                ..BASE
            },
        ),
        (
            "service name",
            Schedule {
                service: "twice",
                ..BASE
            },
        ),
    ];
    for (what, schedule) in variants {
        assert_ne!(signature(schedule), base, "{what} does not show");
    }
}

/// Each thread of a node has an index of its own on that node, counted in
/// declaration order across collections and applications: two collections
/// with a thread 0 on one node record on two tracks.
#[test]
fn a_thread_is_indexed_among_the_threads_of_its_node() {
    let mut d = Decls::new(ClusterSpec::uniform(2, 1));
    let a = d.app("a");
    let _: ThreadCollection<()> = d.thread_collection(a, "node0").unwrap();
    let _: ThreadCollection<()> = d.thread_collection(a, "node0 node1 node0").unwrap();
    let b = d.app("b");
    let _: ThreadCollection<()> = d.thread_collection(b, "node1 node0").unwrap();
    let tracks: Vec<(u32, u32)> = [
        (0, 0, 0),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
        (1, 0, 0),
        (1, 0, 1),
    ]
    .map(|(app, tc, thread)| (d.host(app, tc, thread), d.node_thread(app, tc, thread)))
    .into();
    assert_eq!(tracks, [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3)]);
}

/// The signature of [`BASE`], as the commit before the fold moved onto
/// `dps_obs::Fnv1a` computed it: the same basis, prime and little-endian
/// words, so a kernel of either build signs the same declarations alike.
#[test]
fn the_signature_of_a_schedule_is_pinned() {
    assert_eq!(signature(BASE), 0x89f9_2469_b20b_f9a1);
}
