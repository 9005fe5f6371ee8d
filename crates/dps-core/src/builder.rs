//! The typed flow-graph builder.
//!
//! Mirrors the paper's construction syntax: graph nodes pair an operation
//! with the routing function used to reach it and the thread collection it
//! executes on; the `>>` operator chains nodes into paths, and `+=` adds
//! alternative paths to a builder (paper §3, *Expressing thread collections
//! and flow graphs*). Connecting two operations whose token types do not
//! match is a **compile-time error**, exactly as in the C++ library:
//!
//! ```compile_fail
//! # use dps_core::*;
//! # dps_token! { pub struct A { pub x: u8 } }
//! # dps_token! { pub struct B { pub x: u8 } }
//! # struct SplitA;
//! # impl SplitOperation for SplitA {
//! #     type Thread = (); type In = A; type Out = A;
//! #     fn execute(&mut self, ctx: &mut OpCtx<'_, (), A>, t: A) { ctx.post(t); }
//! # }
//! # struct LeafB;
//! # impl LeafOperation for LeafB {
//! #     type Thread = (); type In = B; type Out = B;
//! #     fn execute(&mut self, ctx: &mut OpCtx<'_, (), B>, t: B) { ctx.post(t); }
//! # }
//! # fn demo(tc: ThreadCollection<()>) {
//! let mut b = GraphBuilder::new("bad");
//! let s = b.split(&tc, || ToThread(0), || SplitA);
//! let l = b.leaf(&tc, || ToThread(0), || LeafB);
//! b.add(s >> l); // error: SplitA outputs A, LeafB expects B
//! # }
//! ```

use std::any::TypeId;
use std::marker::PhantomData;
use std::ops::{AddAssign, Shr};

use dps_serial::{Identified, Wire};

use crate::envelope::GNodeId;
use crate::graph::{GraphNode, OpKind};
use crate::ops::{
    DynOp, LeafAdapter, LeafOperation, MergeAdapter, MergeOperation, SplitAdapter, SplitOperation,
    StreamAdapter, StreamOperation, ThreadData,
};
use crate::route::{Route, RouteAdapter};
use crate::threads::ThreadCollection;
use crate::token::Token;

/// Typed reference to a node under construction. `In`/`Out` are the node's
/// token types; the `>>` operator uses them to type-check connections.
pub struct NodeRef<In: Token, Out: Token> {
    idx: u32,
    _m: PhantomData<fn(In) -> Out>,
}

impl<In: Token, Out: Token> Clone for NodeRef<In, Out> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<In: Token, Out: Token> Copy for NodeRef<In, Out> {}

impl<In: Token, Out: Token> NodeRef<In, Out> {
    /// The node id this reference will have in the assembled graph.
    pub fn id(&self) -> GNodeId {
        GNodeId(self.idx)
    }
}

/// A typed chain of connected nodes produced by `>>`.
pub struct Path<In: Token, Out: Token> {
    first: u32,
    last: u32,
    edges: Vec<(u32, u32)>,
    _m: PhantomData<fn(In) -> Out>,
}

impl<I: Token, M: Token, O: Token> Shr<NodeRef<M, O>> for NodeRef<I, M> {
    type Output = Path<I, O>;
    fn shr(self, rhs: NodeRef<M, O>) -> Path<I, O> {
        Path {
            first: self.idx,
            last: rhs.idx,
            edges: vec![(self.idx, rhs.idx)],
            _m: PhantomData,
        }
    }
}

impl<I: Token, M: Token, O: Token> Shr<NodeRef<M, O>> for Path<I, M> {
    type Output = Path<I, O>;
    fn shr(mut self, rhs: NodeRef<M, O>) -> Path<I, O> {
        self.edges.push((self.last, rhs.idx));
        Path {
            first: self.first,
            last: rhs.idx,
            edges: self.edges,
            _m: PhantomData,
        }
    }
}

/// Builds a flow graph from typed nodes and `>>` paths; consumed by
/// [`Engine::build_graph`](crate::Engine::build_graph), which validates and
/// installs it.
pub struct GraphBuilder {
    pub(crate) name: String,
    pub(crate) nodes: Vec<GraphNode>,
    pub(crate) edges: Vec<(u32, u32)>,
    pub(crate) app: Option<u32>,
    pub(crate) interactive: bool,
    pub(crate) serving: bool,
    /// Deferred token registrations, one per distinct token type that
    /// appears in a node signature. Engines apply them to the owning
    /// application's registry when the graph is installed, so every type a
    /// graph can carry is decodable without per-application
    /// `register_token` calls — a requirement once tokens cross process
    /// boundaries (`dps-netengine`), and a convenience for the
    /// serialization-enforcement debugging mode.
    pub(crate) registrations: Vec<(dps_serial::WireId, crate::graph::TokenRegFn)>,
}

impl GraphBuilder {
    /// Start building a graph named `name` (graphs are named so they can be
    /// reused and exposed as parallel services).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            app: None,
            interactive: false,
            serving: false,
            registrations: Vec::new(),
        }
    }

    /// Mark this graph as *serving*: its exit may sit inside one open split
    /// construct, whose wave is returned to the calling application and
    /// merged **there** (the inter-application split/merge pair of the
    /// paper's future work, §6). Callers invoke serving graphs with
    /// [`call_split`](Self::call_split).
    pub fn set_serving(&mut self) {
        self.serving = true;
    }

    /// Mark the graph *interactive*: its deliveries overtake queued
    /// non-interactive work on shared threads. Use for short-request
    /// service graphs (the paper's Fig. 10 visualization reads) that must
    /// stay responsive while batch iterations run — on the paper's testbed
    /// the operating system's preemptive scheduling provides this; the
    /// virtual-time engine models it as queue priority.
    pub fn set_interactive(&mut self) {
        self.interactive = true;
    }

    /// Record a deferred registration for token type `T`, once per wire id.
    fn note_token<T>(&mut self)
    where
        T: Token + Identified + Wire + Clone,
    {
        let id = <T as Identified>::wire_id();
        if !self.registrations.iter().any(|&(seen, _)| seen == id) {
            self.registrations
                .push((id, Box::new(|reg| crate::token::register_token::<T>(reg))));
        }
    }

    fn check_app(&mut self, app: u32) {
        match self.app {
            None => self.app = Some(app),
            Some(a) => assert_eq!(
                a, app,
                "all thread collections of one graph must belong to the same application"
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_node<In: Token + Identified, Out: Token + Identified>(
        &mut self,
        kind: OpKind,
        name: String,
        tc_app: u32,
        tc: u32,
        td_type: TypeId,
        op_factory: Option<crate::graph::OpFactory>,
        route_factory: crate::graph::RouteFactory,
        service: Option<String>,
    ) -> NodeRef<In, Out> {
        self.check_app(tc_app);
        let idx = self.nodes.len() as u32;
        self.nodes.push(GraphNode {
            id: GNodeId(idx),
            kind,
            name,
            in_type: <In as Identified>::wire_id(),
            in_type_name: In::WIRE_NAME,
            out_types: vec![(<Out as Identified>::wire_id(), Out::WIRE_NAME)],
            tc,
            service,
            op_factory,
            route_factory,
            td_type,
        });
        NodeRef {
            idx,
            _m: PhantomData,
        }
    }

    /// Add a split node: `op` instances run on `tc`, tokens reach it via
    /// routes made by `route`.
    pub fn split<O, R>(
        &mut self,
        tc: &ThreadCollection<O::Thread>,
        route: impl Fn() -> R + Send + Sync + 'static,
        op: impl Fn() -> O + Send + Sync + 'static,
    ) -> NodeRef<O::In, O::Out>
    where
        O: SplitOperation,
        O::In: Identified + Wire + Clone,
        O::Out: Identified + Wire + Clone,
        R: Route<O::In>,
    {
        self.note_token::<O::In>();
        self.note_token::<O::Out>();
        self.push_node(
            OpKind::Split,
            short_type_name::<O>(),
            tc.app,
            tc.tc,
            ThreadCollection::<O::Thread>::td_type(),
            Some(Box::new(move || {
                Box::new(SplitAdapter(op())) as Box<dyn DynOp>
            })),
            route_factory::<O::In, R>(route),
            None,
        )
    }

    /// Add a leaf (compute) node.
    pub fn leaf<O, R>(
        &mut self,
        tc: &ThreadCollection<O::Thread>,
        route: impl Fn() -> R + Send + Sync + 'static,
        op: impl Fn() -> O + Send + Sync + 'static,
    ) -> NodeRef<O::In, O::Out>
    where
        O: LeafOperation,
        O::In: Identified + Wire + Clone,
        O::Out: Identified + Wire + Clone,
        R: Route<O::In>,
    {
        self.note_token::<O::In>();
        self.note_token::<O::Out>();
        self.push_node(
            OpKind::Leaf,
            short_type_name::<O>(),
            tc.app,
            tc.tc,
            ThreadCollection::<O::Thread>::td_type(),
            Some(Box::new(move || {
                Box::new(LeafAdapter(op())) as Box<dyn DynOp>
            })),
            route_factory::<O::In, R>(route),
            None,
        )
    }

    /// Add a merge node. A fresh operation instance (from `op`) is created
    /// for every wave.
    pub fn merge<O, R>(
        &mut self,
        tc: &ThreadCollection<O::Thread>,
        route: impl Fn() -> R + Send + Sync + 'static,
        op: impl Fn() -> O + Send + Sync + 'static,
    ) -> NodeRef<O::In, O::Out>
    where
        O: MergeOperation,
        O::In: Identified + Wire + Clone,
        O::Out: Identified + Wire + Clone,
        R: Route<O::In>,
    {
        self.note_token::<O::In>();
        self.note_token::<O::Out>();
        self.push_node(
            OpKind::Merge,
            short_type_name::<O>(),
            tc.app,
            tc.tc,
            ThreadCollection::<O::Thread>::td_type(),
            Some(Box::new(move || {
                Box::new(MergeAdapter(op())) as Box<dyn DynOp>
            })),
            route_factory::<O::In, R>(route),
            None,
        )
    }

    /// Add a stream node. A fresh operation instance is created per wave.
    pub fn stream<O, R>(
        &mut self,
        tc: &ThreadCollection<O::Thread>,
        route: impl Fn() -> R + Send + Sync + 'static,
        op: impl Fn() -> O + Send + Sync + 'static,
    ) -> NodeRef<O::In, O::Out>
    where
        O: StreamOperation,
        O::In: Identified + Wire + Clone,
        O::Out: Identified + Wire + Clone,
        R: Route<O::In>,
    {
        self.note_token::<O::In>();
        self.note_token::<O::Out>();
        self.push_node(
            OpKind::Stream,
            short_type_name::<O>(),
            tc.app,
            tc.tc,
            ThreadCollection::<O::Thread>::td_type(),
            Some(Box::new(move || {
                Box::new(StreamAdapter(op())) as Box<dyn DynOp>
            })),
            route_factory::<O::In, R>(route),
            None,
        )
    }

    /// Add a *distributing* call node: invokes a **serving** graph exposed
    /// by another application whose exit split's wave returns directly into
    /// this graph — this node therefore behaves like a split here and must
    /// be matched by a merge downstream. Inter-application split/merge
    /// pairs "are the key to interoperable parallel program components"
    /// (paper §6).
    pub fn call_split<In, Out, Td, R>(
        &mut self,
        service: &str,
        tc: &ThreadCollection<Td>,
        route: impl Fn() -> R + Send + Sync + 'static,
    ) -> NodeRef<In, Out>
    where
        In: Token + Identified + Wire + Clone,
        Out: Token + Identified + Wire + Clone,
        Td: ThreadData,
        R: Route<In>,
    {
        self.note_token::<In>();
        self.note_token::<Out>();
        self.push_node(
            OpKind::CallSplit,
            format!("call-split:{service}"),
            tc.app,
            tc.tc,
            ThreadCollection::<Td>::td_type(),
            None,
            route_factory::<In, R>(route),
            Some(service.to_string()),
        )
    }

    /// Add a call node invoking the parallel service `service` exposed by
    /// another application (paper §5, Fig. 10). The call behaves like a
    /// leaf: the token enters the callee graph and the callee's result
    /// continues in this graph. `In`/`Out` must match the callee graph's
    /// entry input and exit output types (checked at runtime when the call
    /// returns).
    pub fn call<In, Out, Td, R>(
        &mut self,
        service: &str,
        tc: &ThreadCollection<Td>,
        route: impl Fn() -> R + Send + Sync + 'static,
    ) -> NodeRef<In, Out>
    where
        In: Token + Identified + Wire + Clone,
        Out: Token + Identified + Wire + Clone,
        Td: ThreadData,
        R: Route<In>,
    {
        self.note_token::<In>();
        self.note_token::<Out>();
        self.push_node(
            OpKind::Call,
            format!("call:{service}"),
            tc.app,
            tc.tc,
            ThreadCollection::<Td>::td_type(),
            None,
            route_factory::<In, R>(route),
            Some(service.to_string()),
        )
    }

    /// Declare that a node may also post tokens of type `T` (multi-path
    /// graphs, paper Fig. 3: "programmers may create at runtime different
    /// types of data objects that will be routed to different operations").
    pub fn declare_output<T, I: Token, O: Token>(&mut self, node: NodeRef<I, O>)
    where
        T: Token + Identified + Wire + Clone,
    {
        self.note_token::<T>();
        let n = &mut self.nodes[node.idx as usize];
        let tid = <T as Identified>::wire_id();
        if !n.out_types.iter().any(|&(id, _)| id == tid) {
            n.out_types.push((tid, T::WIRE_NAME));
        }
    }

    /// Add a path (or a single edge) built with `>>` to the graph. The
    /// paper's `+=` operator is also available via `builder += path`.
    pub fn add<I: Token, O: Token>(&mut self, path: Path<I, O>) {
        self.edges.extend(path.edges);
    }

    /// Connect an *alternative-type* edge for multi-path graphs (paper
    /// Fig. 3): `from` must have declared `to`'s input type as an extra
    /// output via [`declare_output`](Self::declare_output). The primary
    /// output path keeps the compile-time check of `>>`; alternative paths
    /// are validated when the graph is assembled.
    pub fn connect_alt<I1, O1, I2, O2>(&mut self, from: NodeRef<I1, O1>, to: NodeRef<I2, O2>)
    where
        I1: Token,
        O1: Token,
        I2: Token,
        O2: Token,
    {
        self.edges.push((from.idx, to.idx));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validate and assemble into a [`Flowgraph`](crate::Flowgraph),
    /// returning the owning application index (engine use only).
    #[doc(hidden)]
    pub fn assemble_for_engine(self) -> crate::Result<(crate::Flowgraph, u32)> {
        let app = self.app.ok_or_else(|| crate::DpsError::InvalidGraph {
            reason: "graph has no nodes".into(),
        })?;
        let mut g = crate::Flowgraph::assemble(self.name, self.nodes, &self.edges, self.serving)?;
        g.set_interactive(self.interactive);
        g.set_registrations(self.registrations);
        Ok((g, app))
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `(name, input wire id)` of the graph's entry node, if it is already
    /// unambiguous (exactly one node has no incoming edge). Used by the
    /// typed [`Application`](crate::Application) front door to check the
    /// declared input type before the engine assembles the graph.
    pub fn entry_signature(&self) -> Option<(String, dps_serial::WireId)> {
        let mut entries = self
            .nodes
            .iter()
            .filter(|n| !self.edges.iter().any(|&(_, to)| to == n.id.0));
        let entry = entries.next()?;
        if entries.next().is_some() {
            return None; // ambiguous; assembly will reject it with context
        }
        Some((entry.name.clone(), entry.in_type))
    }
}

impl<I: Token, O: Token> AddAssign<Path<I, O>> for GraphBuilder {
    fn add_assign(&mut self, path: Path<I, O>) {
        self.add(path);
    }
}

fn route_factory<T: Token, R: Route<T>>(
    f: impl Fn() -> R + Send + Sync + 'static,
) -> crate::graph::RouteFactory {
    Box::new(move || {
        Box::new(RouteAdapter {
            route: f(),
            _m: PhantomData::<fn(T)>,
        }) as Box<dyn crate::route::DynRoute>
    })
}

/// Last path segment of a type name: `my_app::ops::SplitString` →
/// `SplitString`, matching the names used in the paper's figures.
fn short_type_name<T>() -> String {
    let full = std::any::type_name::<T>();
    full.rsplit("::").next().unwrap_or(full).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::ToThread;
    use crate::{dps_token, OpCtx};

    dps_token! {
        pub struct T1 { pub v: u32 }
    }
    dps_token! {
        pub struct T2 { pub v: u32 }
    }

    struct S;
    impl SplitOperation for S {
        type Thread = ();
        type In = T1;
        type Out = T2;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), T2>, t: T1) {
            ctx.post(T2 { v: t.v });
        }
    }
    struct L;
    impl LeafOperation for L {
        type Thread = ();
        type In = T2;
        type Out = T2;
        fn execute(&mut self, ctx: &mut OpCtx<'_, (), T2>, t: T2) {
            ctx.post(t);
        }
    }
    #[derive(Default)]
    struct M;
    impl MergeOperation for M {
        type Thread = ();
        type In = T2;
        type Out = T1;
        fn consume(&mut self, _ctx: &mut OpCtx<'_, (), T1>, _t: T2) {}
        fn finalize(&mut self, ctx: &mut OpCtx<'_, (), T1>) {
            ctx.post(T1 { v: 0 });
        }
    }

    fn tc() -> ThreadCollection<()> {
        ThreadCollection {
            app: 0,
            tc: 0,
            threads: 2,
            _m: PhantomData,
        }
    }

    #[test]
    fn chain_records_nodes_and_edges() {
        let tc = tc();
        let mut b = GraphBuilder::new("g");
        let s = b.split(&tc, || ToThread(0), || S);
        let l = b.leaf(&tc, || ToThread(0), || L);
        let m = b.merge(&tc, || ToThread(0), M::default);
        b.add(s >> l >> m);
        assert_eq!(b.node_count(), 3);
        assert_eq!(b.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(b.nodes[0].name, "S");
        assert_eq!(b.nodes[0].kind, OpKind::Split);
    }

    #[test]
    fn add_assign_matches_paper_syntax() {
        let tc = tc();
        let mut b = GraphBuilder::new("g");
        let s = b.split(&tc, || ToThread(0), || S);
        let l1 = b.leaf(&tc, || ToThread(0), || L);
        let l2 = b.leaf(&tc, || ToThread(0), || L);
        let m = b.merge(&tc, || ToThread(0), M::default);
        b += s >> l1 >> m;
        b += s >> l2 >> m;
        assert_eq!(b.edges.len(), 4);
    }

    #[test]
    fn declare_output_extends_out_types() {
        let tc = tc();
        let mut b = GraphBuilder::new("g");
        let s = b.split(&tc, || ToThread(0), || S);
        b.declare_output::<T1, _, _>(s);
        b.declare_output::<T1, _, _>(s); // idempotent
        assert_eq!(b.nodes[0].out_types.len(), 2);
    }

    #[test]
    fn node_ref_reports_future_id() {
        let tc = tc();
        let mut b = GraphBuilder::new("g");
        let s = b.split(&tc, || ToThread(0), || S);
        assert_eq!(s.id(), GNodeId(0));
    }

    #[test]
    #[should_panic(expected = "same application")]
    fn mixing_applications_panics() {
        let tc0 = tc();
        let tc1 = ThreadCollection::<()> {
            app: 1,
            tc: 0,
            threads: 1,
            _m: PhantomData,
        };
        let mut b = GraphBuilder::new("g");
        let _ = b.split(&tc0, || ToThread(0), || S);
        let _ = b.leaf(&tc1, || ToThread(0), || L);
    }
}
