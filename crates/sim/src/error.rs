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
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnassignedNode { node } => {
                write!(f, "node {node} has no process or adversary assigned")
            }
            SimError::EventBudgetExhausted { delivered } => {
                write!(f, "event budget exhausted after {delivered} deliveries")
            }
            SimError::Transport { detail } => {
                write!(f, "network transport setup failed: {detail}")
            }
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
        let transport = SimError::Transport { detail: "0<->1: refused".into() };
        assert!(transport.to_string().contains("0<->1"));
    }

    #[test]
    fn is_error() {
        fn assert_error<E: Error>(_: E) {}
        assert_error(SimError::UnassignedNode { node: 0 });
    }
}
