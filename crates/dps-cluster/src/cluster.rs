//! The assembled virtual cluster.

use dps_des::SimTime;
use dps_net::{NetworkModel, NodeId, Traffic, TransferPlan};

use crate::deploy::{AppId, Deployment};
use crate::spec::ClusterSpec;

/// The complete virtual-cluster world: inventory, network, application
/// deployment, and node liveness.
///
/// This is the state the DPS simulation engine embeds; every timing decision
/// about "the machines" goes through here.
#[derive(Debug)]
pub struct Cluster {
    spec: ClusterSpec,
    /// The network model (public: the engine reserves NIC time directly).
    pub net: NetworkModel,
    /// Application instance deployment state.
    pub deploy: Deployment,
    alive: Vec<bool>,
}

impl Cluster {
    /// Build the cluster from a spec, every node alive.
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = spec.len();
        let net = NetworkModel::new(nodes, spec.net.clone());
        Self {
            spec,
            net,
            deploy: Deployment::default(),
            alive: vec![true; nodes],
        }
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.spec.len()
    }

    /// True if the cluster has no nodes (not constructible via specs).
    pub fn is_empty(&self) -> bool {
        self.spec.is_empty()
    }

    /// Whether `node` is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Inject a node failure: the node goes down and all application
    /// instances on it are evicted. Returns the affected applications.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<AppId> {
        self.alive[node.index()] = false;
        self.deploy.evict_node(node)
    }

    /// Restart a failed node (alive again; no instances yet).
    pub fn restart_node(&mut self, node: NodeId) {
        self.alive[node.index()] = true;
    }

    /// Plan delivery of a DPS data object of `bytes` from `src` to `dst`,
    /// including lazy application-instance launch on the destination:
    /// the token cannot be processed before the instance is up.
    pub fn deliver_token(
        &mut self,
        now: SimTime,
        app: AppId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> TransferPlan {
        let mut plan = self.net.transfer(now, src, dst, bytes, Traffic::DpsObject);
        let ready = self.deploy.ensure_instance(plan.delivered, app, dst);
        plan.delivered = plan.delivered.max(ready);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_des::SimSpan;
    use dps_net::NetConfig;

    fn cluster(n: usize) -> Cluster {
        let mut spec = ClusterSpec::uniform(n, 2);
        spec.net = NetConfig::ideal();
        Cluster::new(spec)
    }

    #[test]
    fn every_node_is_alive_on_construction() {
        let c = cluster(3);
        assert_eq!(c.len(), 3);
        assert!((0..3).all(|n| c.is_alive(NodeId(n))));
    }

    #[test]
    fn failure_evicts_and_restart_revives() {
        let mut c = cluster(2);
        c.deploy.ensure_instance(SimTime::ZERO, AppId(1), NodeId(1));
        let affected = c.fail_node(NodeId(1));
        assert!(!c.is_alive(NodeId(1)));
        assert!(c.is_alive(NodeId(0)));
        assert_eq!(affected, vec![AppId(1)]);
        c.restart_node(NodeId(1));
        assert!(c.is_alive(NodeId(1)));
    }

    #[test]
    fn token_delivery_waits_for_instance_launch() {
        let mut c = cluster(2);
        // Zero-cost network, but the instance must launch (120 ms default).
        c.deploy = Deployment::new(SimSpan::from_millis(120));
        c.deploy.preload(AppId(1), NodeId(0));
        let plan = c.deliver_token(SimTime::ZERO, AppId(1), NodeId(0), NodeId(1), 0);
        assert_eq!(plan.delivered, SimTime::ZERO + SimSpan::from_millis(120));
        // Second token arrives after start-up: no extra delay.
        let plan2 = c.deliver_token(plan.delivered, AppId(1), NodeId(0), NodeId(1), 0);
        assert_eq!(plan2.delivered, plan.delivered);
    }

    #[test]
    fn same_node_delivery_still_checks_instance() {
        let mut c = cluster(1);
        c.deploy = Deployment::new(SimSpan::from_millis(50));
        let plan = c.deliver_token(SimTime::ZERO, AppId(7), NodeId(0), NodeId(0), 10);
        assert_eq!(plan.delivered, SimTime::ZERO + SimSpan::from_millis(50));
    }
}
