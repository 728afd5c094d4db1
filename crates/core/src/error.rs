//! Error types for protocol configuration and runs.

use dbac_graph::GraphError;
use dbac_sim::SimError;
use std::error::Error;
use std::fmt;

/// Errors building or executing a consensus run.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The configuration was inconsistent (wrong input count, bad ε, …).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// More Byzantine nodes were configured than the fault bound `f`.
    TooManyFaults {
        /// Configured faulty nodes.
        configured: usize,
        /// The bound `f`.
        f: usize,
    },
    /// The input vector's length does not match the node count.
    InputLengthMismatch {
        /// One input per node is required.
        expected: usize,
        /// What the scenario supplied.
        got: usize,
    },
    /// The agreement parameter must be strictly positive (and finite).
    NonPositiveEpsilon {
        /// The rejected value.
        epsilon: f64,
    },
    /// A fault assignment names a node outside the graph.
    FaultOutsideGraph {
        /// The out-of-range node index.
        node: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// The same node was assigned two fault behaviours.
    DuplicateFault {
        /// The doubly-assigned node index.
        node: usize,
    },
    /// A link fault names an edge the graph does not contain.
    LinkFaultOutsideGraph {
        /// Source node index of the missing edge.
        from: usize,
        /// Target node index of the missing edge.
        to: usize,
    },
    /// A link fault's parameters are malformed (probability outside
    /// `[0, 1]`, inverted partition window, …).
    InvalidLinkFault {
        /// Source node index of the offending edge.
        from: usize,
        /// Target node index of the offending edge.
        to: usize,
        /// What is wrong with the fault.
        reason: &'static str,
    },
    /// The selected protocol cannot express the requested fault behaviour.
    UnsupportedFault {
        /// Protocol name (see `Protocol::name`).
        protocol: &'static str,
        /// Display label of the rejected [`FaultKind`](crate::scenario::FaultKind).
        fault: &'static str,
    },
    /// The protocol's resilience bound rejects this `(n, f)` pair — `f`
    /// exceeds what the protocol tolerates on this network.
    ResilienceExceeded {
        /// Protocol name.
        protocol: &'static str,
        /// Network size.
        n: usize,
        /// Requested fault bound.
        f: usize,
        /// Human-readable statement of the bound (e.g. `"n > 3f"`).
        requires: &'static str,
    },
    /// The protocol runs on complete networks only.
    IncompleteGraph {
        /// Protocol name.
        protocol: &'static str,
    },
    /// Topology precomputation failed (typically: path enumeration budget).
    Graph(GraphError),
    /// The underlying runtime failed (event budget, timeout, …).
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            RunError::TooManyFaults { configured, f: bound } => {
                write!(f, "{configured} Byzantine nodes exceed the fault bound f = {bound}")
            }
            RunError::InputLengthMismatch { expected, got } => {
                write!(f, "expected {expected} inputs (one per node), got {got}")
            }
            RunError::NonPositiveEpsilon { epsilon } => {
                write!(f, "epsilon must be positive and finite, got {epsilon}")
            }
            RunError::FaultOutsideGraph { node, nodes } => {
                write!(f, "fault assigned to node {node}, but the graph has only {nodes} nodes")
            }
            RunError::DuplicateFault { node } => {
                write!(f, "node {node} was assigned two fault behaviours")
            }
            RunError::LinkFaultOutsideGraph { from, to } => {
                write!(f, "link fault on edge {from} -> {to}, which the graph does not contain")
            }
            RunError::InvalidLinkFault { from, to, reason } => {
                write!(f, "invalid link fault on edge {from} -> {to}: {reason}")
            }
            RunError::UnsupportedFault { protocol, fault } => {
                write!(f, "protocol {protocol} cannot express the fault kind {fault}")
            }
            RunError::ResilienceExceeded { protocol, n, f: bound, requires } => {
                write!(
                    f,
                    "protocol {protocol} requires {requires}; n = {n}, f = {bound} violates it"
                )
            }
            RunError::IncompleteGraph { protocol } => {
                write!(f, "protocol {protocol} runs on complete networks only")
            }
            RunError::Graph(e) => write!(f, "topology precomputation failed: {e}"),
            RunError::Sim(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Graph(e) => Some(e),
            RunError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = RunError::from(GraphError::EmptyGraph);
        assert!(e.to_string().contains("topology"));
        assert!(e.source().is_some());
        let e = RunError::TooManyFaults { configured: 2, f: 1 };
        assert!(e.to_string().contains("f = 1"));
        assert!(e.source().is_none());
    }

    #[test]
    fn link_fault_variants_display() {
        let e = RunError::LinkFaultOutsideGraph { from: 2, to: 5 };
        assert!(e.to_string().contains("2 -> 5"));
        let e =
            RunError::InvalidLinkFault { from: 0, to: 1, reason: "probability 2 not in [0, 1]" };
        assert!(e.to_string().contains("probability"));
    }
}
