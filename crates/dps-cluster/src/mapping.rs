//! Thread-collection mapping strings.
//!
//! The paper maps thread collections to nodes with strings such as
//! `"nodeA*2 nodeB"` — "names of the nodes separated by spaces, with an
//! optional multiplier to create multiple threads on the same node". The
//! string can come from a configuration file, a constant, or be built at
//! runtime; this module parses and resolves it.

use std::fmt;

use dps_net::NodeId;

use crate::spec::ClusterSpec;

/// Errors from mapping-string parsing or resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The string contained no node names.
    Empty,
    /// A multiplier was not a positive integer.
    BadMultiplier {
        /// The offending token.
        token: String,
    },
    /// A node name is not part of the cluster.
    UnknownNode {
        /// The unknown name.
        name: String,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::Empty => write!(f, "mapping string contains no node names"),
            MappingError::BadMultiplier { token } => {
                write!(f, "bad multiplier in mapping token {token:?}")
            }
            MappingError::UnknownNode { name } => {
                write!(f, "mapping names unknown node {name:?}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Parse a mapping string into `(node name, thread count)` pairs without
/// resolving names against a cluster.
///
/// ```
/// use dps_cluster::parse_mapping;
///
/// let m = parse_mapping("nodeA*2 nodeB").unwrap();
/// assert_eq!(m, vec![("nodeA".to_string(), 2), ("nodeB".to_string(), 1)]);
/// ```
pub fn parse_mapping(s: &str) -> Result<Vec<(String, usize)>, MappingError> {
    let mut out = Vec::new();
    for token in s.split_whitespace() {
        match token.split_once('*') {
            None => out.push((token.to_string(), 1)),
            Some((name, mult)) => {
                let count: usize = mult.parse().map_err(|_| MappingError::BadMultiplier {
                    token: token.to_string(),
                })?;
                if count == 0 || name.is_empty() {
                    return Err(MappingError::BadMultiplier {
                        token: token.to_string(),
                    });
                }
                out.push((name.to_string(), count));
            }
        }
    }
    if out.is_empty() {
        return Err(MappingError::Empty);
    }
    Ok(out)
}

/// Parse and resolve a mapping string against a cluster, producing one
/// [`NodeId`] per thread in collection order.
///
/// `"nodeA*2 nodeB"` resolves to `[nodeA, nodeA, nodeB]` — the thread with
/// index 0 and 1 live on nodeA, thread 2 on nodeB.
pub fn resolve_mapping(spec: &ClusterSpec, s: &str) -> Result<Vec<NodeId>, MappingError> {
    let mut out = Vec::new();
    for (name, count) in parse_mapping(s)? {
        let id = spec
            .node_id(&name)
            .ok_or(MappingError::UnknownNode { name })?;
        out.extend(std::iter::repeat_n(id, count));
    }
    Ok(out)
}

/// The mapping string for `per_node` threads on each of the first `nodes`
/// nodes, `"node0*2 node1*2"` — the conventional `node0..node{n-1}` names
/// every [`ClusterSpec`] constructor and the OS-thread engine use, so
/// engine-generic setup code builds its worker mapping without a cluster
/// handle.
pub fn default_mapping(nodes: usize, per_node: usize) -> String {
    default_mapping_from(0, nodes, per_node)
}

/// [`default_mapping`] starting at node `first` — for layouts that keep a
/// dedicated master machine and place the workers on the remaining nodes.
pub fn default_mapping_from(first: usize, nodes: usize, per_node: usize) -> String {
    assert!(nodes >= 1, "at least one node");
    (first..first + nodes)
        .map(|i| {
            if per_node == 1 {
                format!("node{i}")
            } else {
                format!("node{i}*{per_node}")
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mapping_names_every_spec_constructors_nodes() {
        for spec in [
            ClusterSpec::uniform(3, 1),
            ClusterSpec::paper_testbed(3),
            ClusterSpec::heterogeneous(1, &[1.0e6, 2.0e6, 3.0e6]),
        ] {
            let ids = resolve_mapping(&spec, &default_mapping(3, 2)).unwrap();
            assert_eq!(ids.len(), 6);
            assert_eq!(ids[4], NodeId(2));
        }
        assert_eq!(default_mapping(2, 1), "node0 node1");
    }

    #[test]
    fn paper_example_parses() {
        // The exact string from §3 of the paper.
        let m = parse_mapping("nodeA*2 nodeB").unwrap();
        assert_eq!(m, vec![("nodeA".into(), 2), ("nodeB".into(), 1)]);
    }

    #[test]
    fn whitespace_is_flexible() {
        let m = parse_mapping("  a   b*3\tc ").unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m[1], ("b".into(), 3));
    }

    #[test]
    fn bad_multipliers_rejected() {
        assert!(matches!(
            parse_mapping("a*x"),
            Err(MappingError::BadMultiplier { .. })
        ));
        assert!(matches!(
            parse_mapping("a*0"),
            Err(MappingError::BadMultiplier { .. })
        ));
        assert!(matches!(
            parse_mapping("*3"),
            Err(MappingError::BadMultiplier { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(parse_mapping("   "), Err(MappingError::Empty));
    }

    #[test]
    fn resolution_expands_threads() {
        let spec = ClusterSpec::uniform(3, 2);
        let ids = resolve_mapping(&spec, "node0*2 node2").unwrap();
        assert_eq!(ids, vec![NodeId(0), NodeId(0), NodeId(2)]);
    }

    #[test]
    fn unknown_node_rejected() {
        let spec = ClusterSpec::uniform(2, 1);
        assert!(matches!(
            resolve_mapping(&spec, "node0 ghost"),
            Err(MappingError::UnknownNode { .. })
        ));
    }

    #[test]
    fn default_mapping_builder() {
        assert_eq!(default_mapping(2, 1), "node0 node1");
        assert_eq!(default_mapping(2, 2), "node0*2 node1*2");
        assert_eq!(default_mapping_from(1, 2, 1), "node1 node2");
    }
}
