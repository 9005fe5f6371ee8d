//! Lazy application-instance deployment.
//!
//! Paper §4: "When an application thread posts a data object to a thread
//! running on a node where there is no active instance of the application,
//! the kernel on that node starts a new instance of the application. This
//! strategy minimizes resource consumption […] However, this approach
//! requires a slightly longer startup time (e.g. one second on an 8 node
//! system)".

use std::collections::BTreeMap;

use dps_des::{SimSpan, SimTime};
use dps_net::NodeId;

/// Identifier of a running parallel application within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u32);

/// Lifecycle of one application instance on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// The kernel is starting the instance; it becomes usable at the instant.
    Starting(SimTime),
    /// The instance is up and can process tokens.
    Running,
}

/// Tracks which application instances exist on which nodes and charges the
/// start-up delay for lazily launched ones.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Ordered, not hashed: a lookup per token transfer over a handful of
    /// entries is a few integer comparisons.
    instances: BTreeMap<(AppId, NodeId), InstanceState>,
    launch_delay: SimSpan,
    launches: u64,
}

impl Deployment {
    /// Deployment with the given per-instance launch delay.
    ///
    /// The default used by the simulator is 120 ms: the paper reports ~1 s
    /// to reach full N-to-N start-up on 8 nodes, i.e. on the order of 100 ms
    /// per instance launch.
    pub fn new(launch_delay: SimSpan) -> Self {
        Self {
            instances: BTreeMap::new(),
            launch_delay,
            launches: 0,
        }
    }

    /// Per-instance launch delay.
    pub fn launch_delay(&self) -> SimSpan {
        self.launch_delay
    }

    /// Number of instances ever launched.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Mark an instance as already running (the node where the user started
    /// the application binary by hand).
    pub fn preload(&mut self, app: AppId, node: NodeId) {
        self.instances.insert((app, node), InstanceState::Running);
    }

    /// Ensure an instance of `app` exists on `node`, launching it lazily if
    /// needed. Returns the earliest instant (≥ `now`) at which the instance
    /// can accept a token.
    pub fn ensure_instance(&mut self, now: SimTime, app: AppId, node: NodeId) -> SimTime {
        match self.instances.get(&(app, node)) {
            Some(InstanceState::Running) => now,
            Some(InstanceState::Starting(ready)) => {
                let ready = *ready;
                if ready <= now {
                    self.instances.insert((app, node), InstanceState::Running);
                    now
                } else {
                    ready
                }
            }
            None => {
                let ready = now + self.launch_delay;
                self.launches += 1;
                if self.launch_delay.is_zero() {
                    self.instances.insert((app, node), InstanceState::Running);
                    now
                } else {
                    self.instances
                        .insert((app, node), InstanceState::Starting(ready));
                    ready
                }
            }
        }
    }

    /// Current state of an instance, if any.
    pub fn state(&self, app: AppId, node: NodeId) -> Option<InstanceState> {
        self.instances.get(&(app, node)).copied()
    }

    /// Remove all instances on `node` (node shutdown / failure), returning
    /// the affected applications.
    pub fn evict_node(&mut self, node: NodeId) -> Vec<AppId> {
        let keys: Vec<_> = self
            .instances
            .keys()
            .filter(|(_, n)| *n == node)
            .copied()
            .collect();
        let mut apps: Vec<AppId> = keys.iter().map(|(a, _)| *a).collect();
        for k in &keys {
            self.instances.remove(k);
        }
        apps.sort();
        apps.dedup();
        apps
    }
}

impl Default for Deployment {
    fn default() -> Self {
        Self::new(SimSpan::from_millis(120))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: AppId = AppId(1);
    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn first_token_pays_launch_delay() {
        let mut d = Deployment::new(SimSpan::from_millis(100));
        let ready = d.ensure_instance(SimTime::ZERO, APP, N0);
        assert_eq!(ready, SimTime::ZERO + SimSpan::from_millis(100));
        assert_eq!(d.launches(), 1);
        // A second token while starting waits for the same instant.
        let ready2 = d.ensure_instance(SimTime(1), APP, N0);
        assert_eq!(ready2, ready);
        assert_eq!(d.launches(), 1);
    }

    #[test]
    fn instance_becomes_running_after_delay() {
        let mut d = Deployment::new(SimSpan::from_millis(100));
        let ready = d.ensure_instance(SimTime::ZERO, APP, N0);
        let later = ready + SimSpan::from_millis(5);
        assert_eq!(d.ensure_instance(later, APP, N0), later);
        assert_eq!(d.state(APP, N0), Some(InstanceState::Running));
    }

    #[test]
    fn preload_skips_delay() {
        let mut d = Deployment::new(SimSpan::from_millis(100));
        d.preload(APP, N0);
        assert_eq!(d.ensure_instance(SimTime(7), APP, N0), SimTime(7));
        assert_eq!(d.launches(), 0);
    }

    #[test]
    fn distinct_nodes_and_apps_launch_separately() {
        let mut d = Deployment::new(SimSpan::from_millis(10));
        d.ensure_instance(SimTime::ZERO, APP, N0);
        d.ensure_instance(SimTime::ZERO, APP, N1);
        d.ensure_instance(SimTime::ZERO, AppId(2), N0);
        assert_eq!(d.launches(), 3);
    }

    #[test]
    fn zero_delay_runs_immediately() {
        let mut d = Deployment::new(SimSpan::ZERO);
        assert_eq!(d.ensure_instance(SimTime(3), APP, N0), SimTime(3));
        assert_eq!(d.state(APP, N0), Some(InstanceState::Running));
    }

    #[test]
    fn evict_drops_the_nodes_instances_only() {
        let mut d = Deployment::new(SimSpan::ZERO);
        d.ensure_instance(SimTime::ZERO, APP, N0);
        d.ensure_instance(SimTime::ZERO, AppId(2), N1);
        let affected = d.evict_node(N1);
        assert_eq!(affected, vec![AppId(2)]);
        assert_eq!(d.state(AppId(2), N1), None);
        assert_eq!(d.state(APP, N0), Some(InstanceState::Running));
    }
}
