//! Runtime errors.

use std::error::Error;
use std::fmt;

/// Errors produced by the simulation runtimes.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A node index had no actor assigned before `run`.
    UnassignedNode {
        /// The node missing an actor.
        node: usize,
    },
    /// The run's stats registry has fewer per-node gauges than the graph
    /// has nodes, so some nodes' queue and done counts would be lost.
    RegistryTooSmall {
        /// Nodes in the graph.
        nodes: usize,
        /// Nodes the registry covers.
        registry: usize,
    },
    /// The event budget was exhausted before quiescence — either the
    /// protocol livelocked or the budget was too small for the instance.
    EventBudgetExhausted {
        /// Events delivered before giving up.
        delivered: u64,
    },
    /// The network runtime could not establish or handshake a connection
    /// (socket failure, handshake rejection). Setup-time only: once the
    /// mesh is up, peer failures degrade per node instead.
    Transport {
        /// Human-readable failure description, including the edge.
        detail: String,
    },
    /// A [`Fleet::replay`](crate::Fleet::replay) script delivery that
    /// does not decode, or that its honest sender never sent.
    ReplayDiverged {
        /// The delivery's position in the script.
        index: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnassignedNode { node } => {
                write!(f, "node {node} has no process or adversary assigned")
            }
            SimError::RegistryTooSmall { nodes, registry } => {
                write!(f, "stats registry covers {registry} nodes but the graph has {nodes}")
            }
            SimError::EventBudgetExhausted { delivered } => {
                write!(f, "event budget exhausted after {delivered} deliveries")
            }
            SimError::Transport { detail } => {
                write!(f, "network transport setup failed: {detail}")
            }
            SimError::ReplayDiverged { index } => write!(f, "replay diverged at delivery {index}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SimError::UnassignedNode { node: 3 }.to_string().contains('3'));
        assert!(SimError::EventBudgetExhausted { delivered: 9 }.to_string().contains('9'));
        let small = SimError::RegistryTooSmall { nodes: 4, registry: 3 }.to_string();
        assert!(small.contains("covers 3") && small.contains("has 4"), "{small}");
        let transport = SimError::Transport { detail: "0<->1: refused".into() };
        assert!(transport.to_string().contains("0<->1"));
        assert!(SimError::ReplayDiverged { index: 41 }.to_string().contains("41"));
    }

    #[test]
    fn is_error() {
        fn assert_error<E: Error>(_: E) {}
        assert_error(SimError::UnassignedNode { node: 0 });
    }
}
