//! What an application declares: the one table every engine runs.
//!
//! In DPS a schedule is *declared* at run time — applications, thread
//! collections mapped onto nodes with mapping strings, flow graphs built to
//! fit the problem, services — and then executed. What was declared does not
//! depend on what executes it, so it is kept here once: [`Decls`] holds the
//! table, its five steps are the only way to add to it, [`build_graph`]
//! validates a graph against the collections it names, and [`signature`]
//! fingerprints the finished table. An engine owns a `Decls` and adds only
//! what it needs to *run* it (queues, threads, connections).
//!
//! [`build_graph`]: Decls::build_graph
//! [`signature`]: Decls::signature

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::Arc;

use dps_cluster::{resolve_mapping, ClusterSpec};
use dps_net::NodeId;
use dps_obs::Fnv1a;

use crate::builder::GraphBuilder;
use crate::error::{DpsError, Result};
use crate::graph::{Flowgraph, OpKind};
use crate::ops::ThreadData;
use crate::threads::ThreadCollection;
use crate::token::{register_token, TokenRegistry};

/// Handle to a declared application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppHandle {
    /// Index of the application in the table.
    pub app: u32,
}

/// Handle to a built graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphHandle {
    /// Index of the owning application.
    pub app: u32,
    /// Index of the graph within it.
    pub graph: u32,
}

/// Makes the thread-local state of one thread of a collection.
pub type DataFactory = Arc<dyn Fn() -> Box<dyn Any + Send> + Send + Sync>;

/// One declared thread collection.
pub struct TcDecl {
    /// The cluster node hosting each thread, in thread order.
    pub nodes: Vec<u32>,
    /// Makes one thread's state (`Td::default()`).
    pub factory: DataFactory,
    td_type: TypeId,
}

/// One declared application.
pub struct AppDecl {
    /// The name it was declared under.
    pub name: String,
    /// Decodes every token type registered with it or carried by one of its
    /// graphs. Behind an `Arc` so an executor can keep a snapshot.
    pub registry: Arc<TokenRegistry>,
    /// Its thread collections, in declaration order.
    pub tcs: Vec<TcDecl>,
    /// Its graphs, in declaration order.
    pub graphs: Vec<Arc<Flowgraph>>,
}

/// Everything declared on one engine.
pub struct Decls {
    spec: ClusterSpec,
    apps: Vec<AppDecl>,
    services: BTreeMap<String, GraphHandle>,
}

impl Decls {
    /// An empty table over the cluster `spec`, whose node names mapping
    /// strings are resolved against.
    pub fn new(spec: ClusterSpec) -> Self {
        Self {
            spec,
            apps: Vec::new(),
            services: BTreeMap::new(),
        }
    }

    /// Declare a parallel application.
    pub fn app(&mut self, name: &str) -> AppHandle {
        self.apps.push(AppDecl {
            name: name.to_string(),
            registry: Arc::default(),
            tcs: Vec::new(),
            graphs: Vec::new(),
        });
        AppHandle {
            app: self.apps.len() as u32 - 1,
        }
    }

    /// Register token type `T` with `app`'s deserialization factory.
    pub fn register_token<T>(&mut self, app: AppHandle)
    where
        T: dps_serial::Wire + dps_serial::Identified + Clone + std::fmt::Debug + Send + 'static,
    {
        register_token::<T>(Arc::make_mut(&mut self.apps[app.app as usize].registry));
    }

    /// Create a thread collection and map it (`"node0*2 node1"` syntax).
    pub fn thread_collection<Td: ThreadData>(
        &mut self,
        app: AppHandle,
        mapping: &str,
    ) -> Result<ThreadCollection<Td>> {
        let nodes: Vec<u32> = resolve_mapping(&self.spec, mapping)?
            .into_iter()
            .map(|n| n.0)
            .collect();
        let tcs = &mut self.apps[app.app as usize].tcs;
        let handle = ThreadCollection::from_raw(app.app, tcs.len() as u32, nodes.len());
        tcs.push(TcDecl {
            nodes,
            factory: Arc::new(|| Box::new(Td::default())),
            td_type: TypeId::of::<Td>(),
        });
        Ok(handle)
    }

    /// Validate a built graph — every node sits on a collection its
    /// application declared, holding the thread-data type the node's
    /// operation expects; then the whole-graph checks of
    /// [`Flowgraph`] — and install it into its application. The token types
    /// its nodes carry become decodable there.
    pub fn build_graph(&mut self, builder: GraphBuilder) -> Result<GraphHandle> {
        let app = builder.app.and_then(|app| self.apps.get(app as usize));
        for n in &builder.nodes {
            let tc = app.and_then(|a| a.tcs.get(n.tc as usize)).ok_or_else(|| {
                DpsError::UnmappedCollection {
                    name: format!("tc#{}", n.tc),
                }
            })?;
            if tc.td_type != n.td_type {
                return Err(DpsError::InvalidGraph {
                    reason: format!(
                        "node {} expects a different thread-data type than collection tc#{}",
                        n.name, n.tc
                    ),
                });
            }
        }
        let (def, app) = builder.assemble_for_engine()?;
        let a = &mut self.apps[app as usize];
        def.register_tokens(Arc::make_mut(&mut a.registry));
        a.graphs.push(Arc::new(def));
        Ok(GraphHandle {
            app,
            graph: a.graphs.len() as u32 - 1,
        })
    }

    /// Expose a graph as a named parallel service callable from other
    /// applications' graphs (paper §5). A name exposed twice names the
    /// later graph.
    pub fn expose_service(&mut self, graph: GraphHandle, name: &str) {
        self.services.insert(name.to_string(), graph);
    }

    /// The declared applications.
    pub fn apps(&self) -> &[AppDecl] {
        &self.apps
    }

    /// The name `app` was declared under.
    pub fn app_name(&self, app: u32) -> &str {
        &self.apps[app as usize].name
    }

    /// `app`'s token registry.
    pub fn registry(&self, app: u32) -> &TokenRegistry {
        &self.apps[app as usize].registry
    }

    /// A declared graph.
    #[inline]
    pub fn def(&self, app: u32, graph: u32) -> &Flowgraph {
        &self.apps[app as usize].graphs[graph as usize]
    }

    /// Number of threads of collection `tc`.
    #[inline]
    pub fn threads(&self, app: u32, tc: u32) -> usize {
        self.apps[app as usize].tcs[tc as usize].nodes.len()
    }

    /// Cluster node hosting a thread.
    #[inline]
    pub fn host(&self, app: u32, tc: u32, thread: u32) -> u32 {
        self.apps[app as usize].tcs[tc as usize].nodes[thread as usize]
    }

    /// A thread's index among the threads its cluster node hosts, counted in
    /// declaration order: with the node, the trace track it records on.
    pub fn node_thread(&self, app: u32, tc: u32, thread: u32) -> u32 {
        let node = self.host(app, tc, thread);
        let (app, tc) = (app as usize, tc as usize);
        let before = self.apps[..=app].iter().enumerate().flat_map(|(a, decl)| {
            let tcs = if a < app { decl.tcs.len() } else { tc };
            decl.tcs[..tcs].iter().flat_map(|c| &c.nodes)
        });
        let same_tc = &self.apps[app].tcs[tc].nodes[..thread as usize];
        before.chain(same_tc).filter(|&&n| n == node).count() as u32
    }

    /// The graph exposed as service `name`.
    pub fn service(&self, name: &str) -> Option<GraphHandle> {
        self.services.get(name).copied()
    }

    /// Number of cluster nodes.
    pub fn nodes(&self) -> usize {
        self.spec.len()
    }

    /// A cluster node's declared name.
    pub fn node_name(&self, node: u32) -> &str {
        &self.spec.node(NodeId(node)).name
    }

    /// A fingerprint of everything that decides how the declared schedule
    /// executes: per application its name, the wire ids it can decode, each
    /// collection's placement and each graph's name and per-node structure
    /// (name, kind, collection, token types); then every service. Derived
    /// from the table, so two processes that ran the same declarations
    /// agree on it, and any that did not differ (FNV-1a; compared between
    /// processes of one binary only).
    pub fn signature(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.spec.len() as u64);
        h.write_u64(self.apps.len() as u64);
        for a in &self.apps {
            write_str(&mut h, &a.name);
            let ids = a.registry.ids();
            h.write_u64(ids.len() as u64);
            ids.iter().for_each(|id| h.write_u64(id.0));
            h.write_u64(a.tcs.len() as u64);
            for tc in &a.tcs {
                h.write_u64(tc.nodes.len() as u64);
                tc.nodes.iter().for_each(|&n| h.write_u64(u64::from(n)));
            }
            h.write_u64(a.graphs.len() as u64);
            for def in &a.graphs {
                write_str(&mut h, def.name());
                h.write_u64(def.len() as u64);
                for node in def.nodes() {
                    write_str(&mut h, &node.name);
                    h.write_u64(kind_index(node.kind));
                    h.write_u64(u64::from(node.tc));
                    h.write_u64(node.in_type.0);
                    h.write_u64(node.out_types.len() as u64);
                    node.out_types
                        .iter()
                        .for_each(|(out, _)| h.write_u64(out.0));
                }
            }
        }
        h.write_u64(self.services.len() as u64);
        for (name, g) in &self.services {
            write_str(&mut h, name);
            h.write_u64(u64::from(g.app));
            h.write_u64(u64::from(g.graph));
        }
        h.finish()
    }
}

/// Fold `s` in length-delimited, so `"ab"` then `"c"` differs from `"a"`
/// then `"bc"`.
fn write_str(h: &mut Fnv1a, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

fn kind_index(kind: OpKind) -> u64 {
    match kind {
        OpKind::Split => 0,
        OpKind::Leaf => 1,
        OpKind::Merge => 2,
        OpKind::Stream => 3,
        OpKind::Call => 4,
        OpKind::CallSplit => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::{write_str, Fnv1a};

    #[test]
    fn strings_are_length_delimited() {
        let fold = |parts: [&str; 2]| {
            let mut h = Fnv1a::new();
            parts.iter().for_each(|s| write_str(&mut h, s));
            h.finish()
        };
        assert_eq!(fold(["ab", "c"]), fold(["ab", "c"]));
        assert_ne!(fold(["ab", "c"]), fold(["a", "bc"]));
    }
}
