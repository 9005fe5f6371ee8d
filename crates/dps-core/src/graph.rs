//! Runtime flow-graph representation and validation.
//!
//! A flow graph is a directed acyclic graph of operation nodes (paper §2).
//! The typed [`GraphBuilder`](crate::GraphBuilder) produces the proto form;
//! [`Flowgraph::assemble`] checks the structural invariants the C++ library
//! enforces with templates and adds the ones only a whole-graph analysis can
//! see:
//!
//! * single entry, every node reachable, acyclic;
//! * every edge type-compatible (producer output ∈ consumer input);
//! * unambiguous successor selection: when a node has several successors
//!   (paper Fig. 3), their input types must be distinct, because "the input
//!   data object types of the destinations are used to determine which path
//!   to follow";
//! * balanced split/merge nesting: each node is reached at one consistent
//!   frame depth, merges never pop an empty envelope, and graph outputs
//!   leave at depth zero.

use std::collections::{BTreeMap, VecDeque};

use dps_serial::WireId;

use crate::envelope::GNodeId;
use crate::error::{DpsError, Result};
use crate::ops::DynOp;
use crate::route::DynRoute;

/// The kind of operation a graph node executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One input, several outputs; opens a wave.
    Split,
    /// One input, one output.
    Leaf,
    /// Collects a wave, one output; closes a wave.
    Merge,
    /// Collects a wave while posting; closes one wave and opens another.
    Stream,
    /// Calls a parallel service exposed by another application (behaves
    /// like a leaf in the calling graph; paper §5, Fig. 10).
    Call,
    /// Calls a *serving* graph whose exit is a split: the callee's wave
    /// returns directly into the calling graph and is merged there — the
    /// inter-application split/merge pair of the paper's future work (§6).
    CallSplit,
}

impl OpKind {
    /// Whether tokens arriving here must carry at least one frame.
    fn pops_frame(self) -> bool {
        matches!(self, OpKind::Merge | OpKind::Stream)
    }

    /// Whether outputs of this node carry one more frame than its inputs.
    fn pushes_frame(self) -> bool {
        matches!(self, OpKind::Split | OpKind::Stream | OpKind::CallSplit)
    }
}

/// Factory producing a fresh type-erased operation instance.
pub(crate) type OpFactory = Box<dyn Fn() -> Box<dyn DynOp> + Send + Sync>;
/// Factory producing a fresh type-erased route instance.
pub(crate) type RouteFactory = Box<dyn Fn() -> Box<dyn DynRoute> + Send + Sync>;
/// Deferred token registration captured at graph declaration (applied to
/// the owning application's registry when the graph is installed).
pub(crate) type TokenRegFn = Box<dyn Fn(&mut crate::token::TokenRegistry) + Send + Sync>;

/// One node of a runtime flow graph.
pub struct GraphNode {
    /// Node id (index).
    pub id: GNodeId,
    /// Operation kind.
    pub kind: OpKind,
    /// Diagnostic name (operation type name).
    pub name: String,
    /// Input token type.
    pub in_type: WireId,
    /// Input token type name (diagnostics).
    pub in_type_name: &'static str,
    /// Possible output token types (primary first).
    pub out_types: Vec<(WireId, &'static str)>,
    /// Thread collection index within the owning application.
    pub tc: u32,
    /// For [`OpKind::Call`]: the service name to invoke.
    pub service: Option<String>,
    pub(crate) op_factory: Option<OpFactory>,
    pub(crate) route_factory: RouteFactory,
    /// Thread-data type expected on the collection (checked against it by
    /// `Decls::build_graph`).
    pub(crate) td_type: std::any::TypeId,
}

impl std::fmt::Debug for GraphNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphNode")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("name", &self.name)
            .field("tc", &self.tc)
            .finish()
    }
}

impl GraphNode {
    /// Instantiate a fresh type-erased operation (engine use only).
    /// `None` for [`OpKind::Call`] nodes, which carry no user operation.
    #[doc(hidden)]
    pub fn make_op(&self) -> Option<Box<dyn DynOp>> {
        self.op_factory.as_ref().map(|f| f())
    }

    /// Instantiate a fresh type-erased route (engine use only).
    #[doc(hidden)]
    pub fn make_route(&self) -> Box<dyn DynRoute> {
        (self.route_factory)()
    }
}

/// A validated, executable flow graph.
pub struct Flowgraph {
    name: String,
    nodes: Vec<GraphNode>,
    succs: Vec<Vec<GNodeId>>,
    preds: Vec<Vec<GNodeId>>,
    entry: GNodeId,
    depths: Vec<u32>,
    /// For each split/stream node: the node that pops its frames.
    pops: Vec<Option<GNodeId>>,
    /// Interactive graphs: deliveries jump thread queues (service graphs
    /// answering short requests while long batch operations run).
    interactive: bool,
    /// Deferred registrations for every token type in a node signature,
    /// deduplicated by wire id (see [`register_tokens`](Self::register_tokens)).
    registrations: Vec<(WireId, TokenRegFn)>,
}

impl std::fmt::Debug for Flowgraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flowgraph")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("entry", &self.entry)
            .finish()
    }
}

impl Flowgraph {
    /// Validate and assemble a graph from nodes and directed edges.
    ///
    /// Edges are `(from, to)` node-index pairs. See the module docs for the
    /// enforced invariants.
    pub(crate) fn assemble(
        name: impl Into<String>,
        nodes: Vec<GraphNode>,
        edges: &[(u32, u32)],
        serving: bool,
    ) -> Result<Self> {
        let name = name.into();
        let n = nodes.len();
        if n == 0 {
            return Err(DpsError::InvalidGraph {
                reason: "graph has no nodes".into(),
            });
        }
        let mut succs: Vec<Vec<GNodeId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<GNodeId>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            let (a, b) = (a as usize, b as usize);
            if a >= n || b >= n {
                return Err(DpsError::InvalidGraph {
                    reason: format!("edge ({a}, {b}) references a missing node"),
                });
            }
            if succs[a].contains(&GNodeId(b as u32)) {
                continue; // duplicate edges collapse
            }
            succs[a].push(GNodeId(b as u32));
            preds[b].push(GNodeId(a as u32));
        }

        // Type compatibility and successor unambiguity.
        for (i, node) in nodes.iter().enumerate() {
            let mut seen_in_types = BTreeMap::new();
            for &s in &succs[i] {
                let succ = &nodes[s.0 as usize];
                if !node.out_types.iter().any(|&(id, _)| id == succ.in_type) {
                    return Err(DpsError::TypeMismatch {
                        from: node.name.clone(),
                        to: succ.name.clone(),
                        produced: node.out_types.first().map(|&(_, n)| n).unwrap_or("?"),
                        expected: succ.in_type_name,
                    });
                }
                if let Some(prev) = seen_in_types.insert(succ.in_type, succ.name.clone()) {
                    return Err(DpsError::InvalidGraph {
                        reason: format!(
                            "node {} has two successors ({} and {}) accepting the same \
                             input type; path selection would be ambiguous",
                            node.name, prev, succ.name
                        ),
                    });
                }
            }
        }

        // Single entry.
        let entries: Vec<usize> = (0..n).filter(|&i| preds[i].is_empty()).collect();
        let entry = match entries.as_slice() {
            [e] => GNodeId(*e as u32),
            [] => {
                return Err(DpsError::InvalidGraph {
                    reason: "graph has no entry node (cycle through every node)".into(),
                })
            }
            many => {
                return Err(DpsError::InvalidGraph {
                    reason: format!(
                        "graph has {} entry nodes; exactly one is required",
                        many.len()
                    ),
                })
            }
        };

        // BFS from entry tracking the full stack of *open* split/stream
        // constructs per node. This checks reachability and balanced,
        // consistent nesting, and records which node pops the frames each
        // split/stream opens — every path of one wave must converge on one
        // matching merge, or the token accounting could never complete.
        let mut stacks: Vec<Option<Vec<u32>>> = vec![None; n];
        let mut pops: Vec<Option<GNodeId>> = vec![None; n]; // opener -> popper
        stacks[entry.0 as usize] = Some(Vec::new());
        let mut queue = VecDeque::from([entry]);
        let mut visited = vec![false; n];
        visited[entry.0 as usize] = true;
        while let Some(u) = queue.pop_front() {
            let ui = u.0 as usize;
            let mut stack = stacks[ui].clone().expect("set before enqueue");
            let kind = nodes[ui].kind;
            if kind.pops_frame() {
                let Some(opener) = stack.pop() else {
                    return Err(DpsError::InvalidGraph {
                        reason: format!(
                            "{} ({:?}) would pop an empty envelope: no enclosing split",
                            nodes[ui].name, kind
                        ),
                    });
                };
                match pops[opener as usize] {
                    None => pops[opener as usize] = Some(u),
                    Some(prev) if prev != u => {
                        return Err(DpsError::InvalidGraph {
                            reason: format!(
                                "tokens split by {} are merged at both {} and {}; \
                                 a wave must converge on a single merge",
                                nodes[opener as usize].name,
                                nodes[prev.0 as usize].name,
                                nodes[ui].name
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
            if kind.pushes_frame() {
                stack.push(u.0);
            }
            let allowed_exit_depth = usize::from(serving);
            if succs[ui].is_empty() && stack.len() != allowed_exit_depth {
                return Err(DpsError::InvalidGraph {
                    reason: format!(
                        "outputs of {} leave the graph at split depth {} \
                         (expected {allowed_exit_depth}); split/merge \
                         constructs are unbalanced",
                        nodes[ui].name,
                        stack.len()
                    ),
                });
            }
            for &v in &succs[ui] {
                let vi = v.0 as usize;
                match &stacks[vi] {
                    None => {
                        stacks[vi] = Some(stack.clone());
                        if !visited[vi] {
                            visited[vi] = true;
                            queue.push_back(v);
                        }
                    }
                    Some(existing) if *existing != stack => {
                        return Err(DpsError::InvalidGraph {
                            reason: format!(
                                "node {} is reached under inconsistent split/merge \
                                 nesting (depths {} and {})",
                                nodes[vi].name,
                                existing.len(),
                                stack.len()
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        if let Some(unreached) = (0..n).find(|&i| !visited[i]) {
            return Err(DpsError::InvalidGraph {
                reason: format!(
                    "node {} is not reachable from the entry",
                    nodes[unreached].name
                ),
            });
        }

        // Acyclicity via Kahn's algorithm.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut topo_queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = topo_queue.pop_front() {
            seen += 1;
            for &v in &succs[u] {
                let vi = v.0 as usize;
                indeg[vi] -= 1;
                if indeg[vi] == 0 {
                    topo_queue.push_back(vi);
                }
            }
        }
        if seen != n {
            return Err(DpsError::InvalidGraph {
                reason: "graph contains a cycle (flow graphs are acyclic by definition)".into(),
            });
        }

        let depths = stacks
            .into_iter()
            .map(|s| s.expect("all nodes visited").len() as u32)
            .collect();
        Ok(Self {
            name,
            pops,
            interactive: false,
            registrations: Vec::new(),
            nodes,
            succs,
            preds,
            entry,
            depths,
        })
    }

    /// Graph name (graphs are named so other applications can call them).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never true for assembled graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The entry node.
    pub fn entry(&self) -> GNodeId {
        self.entry
    }

    /// Node accessor.
    pub fn node(&self, id: GNodeId) -> &GraphNode {
        &self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Successors of a node.
    pub fn succs(&self, id: GNodeId) -> &[GNodeId] {
        &self.succs[id.0 as usize]
    }

    /// Predecessors of a node.
    pub fn preds(&self, id: GNodeId) -> &[GNodeId] {
        &self.preds[id.0 as usize]
    }

    /// Envelope depth of tokens arriving at `id`.
    pub fn depth(&self, id: GNodeId) -> u32 {
        self.depths[id.0 as usize]
    }

    /// The merge/stream node that pops the frames opened by split/stream
    /// node `opener`, if `opener` opens frames at all.
    pub fn matching_pop(&self, opener: GNodeId) -> Option<GNodeId> {
        self.pops[opener.0 as usize]
    }

    /// Whether deliveries of this graph jump thread queues.
    pub fn is_interactive(&self) -> bool {
        self.interactive
    }

    pub(crate) fn set_interactive(&mut self, on: bool) {
        self.interactive = on;
    }

    pub(crate) fn set_registrations(&mut self, regs: Vec<(WireId, TokenRegFn)>) {
        self.registrations = regs;
    }

    /// Register every token type appearing in this graph's node signatures
    /// with `reg` (idempotent). Engines call this when installing the
    /// graph, so tokens the graph can carry are decodable on the wire
    /// without per-application `register_token` calls — required where
    /// tokens cross process boundaries (the network engine) and under
    /// serialization enforcement.
    #[doc(hidden)]
    pub fn register_tokens(&self, reg: &mut crate::token::TokenRegistry) {
        for (_, f) in &self.registrations {
            f(reg);
        }
    }

    /// Find the successor of `id` accepting tokens of type `ty`, if any —
    /// the runtime path selection of multi-path graphs (paper Fig. 3).
    pub fn successor_for(&self, id: GNodeId, ty: WireId) -> Option<GNodeId> {
        self.succs[id.0 as usize]
            .iter()
            .copied()
            .find(|&s| self.node(s).in_type == ty)
    }
}
