//! Wire messages of the BW protocol.

use crate::message_set::CompletePayload;
use crate::precompute::Topology;
use dbac_graph::{NodeId, NodeSet, PathId};
use std::sync::Arc;

/// Protocol round index.
pub type Round = u32;

/// A message on a directed link.
///
/// Paths travel as interned [`PathId`]s — the intern numbering is a pure
/// function of the shared topology, so ids are meaningful on the wire. A
/// wire path ends at the **sender**; the receiver extends it with itself
/// (one forwarding-table lookup) before storing or forwarding (Appendix E).
/// Links are authenticated: the runtime supplies the true edge tail, and a
/// Byzantine sender may carry *any* id bits, so [`validate_flood`] /
/// [`validate_complete`] resolve and reject unknown or inconsistent ids
/// rather than trusting them.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolMsg {
    /// RedundantFlood of a state value (Algorithm 1 line 4 / Algorithm 4).
    Flood {
        /// Asynchronous round the value belongs to.
        round: Round,
        /// The propagated state value.
        value: f64,
        /// Propagation path so far (ends at the sender).
        path: PathId,
    },
    /// FIFO-flooded `(M_c, COMPLETE(F))` (Algorithm 1 line 11, Appendix F).
    Complete {
        /// Round of the originating Maximal-Consistency event.
        round: Round,
        /// The suspect set `F` in `COMPLETE(F)`.
        suspects: NodeSet,
        /// The initiator's `M_c|_F̄` as receivers read it: the initiators
        /// it holds messages from and one value each ([`CompletePayload`]).
        payload: Arc<CompletePayload>,
        /// Propagation path so far (simple; ends at the sender).
        path: PathId,
        /// The initiator's FIFO counter for this flood (Appendix F).
        seq: u64,
    },
}

impl ProtocolMsg {
    /// The round a message belongs to.
    #[must_use]
    pub fn round(&self) -> Round {
        match self {
            ProtocolMsg::Flood { round, .. } | ProtocolMsg::Complete { round, .. } => *round,
        }
    }
}

/// Validates an incoming flood message at node `me` and returns the stored
/// path (wire path extended with `me`). Returns `None` for forged or
/// malformed messages, which the paper's model allows a receiver to drop:
///
/// * the wire id must refer to an interned path (the population holds every
///   admissible path of the active flood mode, so an unknown id is provably
///   forged or inadmissible);
/// * the path must end at the authenticated sender, who must be a true
///   in-neighbor;
/// * the extension with `me` must stay in the population — exactly the
///   redundant-path (resp. simple-path, in the ablation) admissibility the
///   paper requires of honest relays.
///
/// Every check is O(1): intern metadata replaces the per-message path
/// re-validation and `is_redundant` re-scan of the unindexed design.
#[must_use]
pub fn validate_flood(topo: &Topology, me: NodeId, from: NodeId, wire: PathId) -> Option<PathId> {
    let index = topo.index();
    if !index.contains_id(wire) || from == me || index.ter(wire) != from {
        return None;
    }
    // The forwarding table is the admissibility authority: it is indexed by
    // the out-neighbors of ter(wire) = from, so a Some here also proves
    // (from, me) is a real edge.
    index.extend(wire, me)
}

/// Validates an incoming `COMPLETE` message at `me`: the wire id must
/// intern a **simple** path ending at the sender, extend simply to `me`,
/// carry a positive FIFO sequence number, and its initiator must not be in
/// its own suspect set (honest initiators never suspect themselves,
/// Algorithm 1 line 5). Returns the extended path.
#[must_use]
pub fn validate_complete(
    topo: &Topology,
    me: NodeId,
    from: NodeId,
    wire: PathId,
    suspects: NodeSet,
    seq: u64,
) -> Option<PathId> {
    let index = topo.index();
    if !index.contains_id(wire) || from == me || seq == 0 {
        return None;
    }
    if index.ter(wire) != from || !index.is_simple(wire) {
        return None;
    }
    if suspects.contains(index.init(wire)) {
        return None;
    }
    // As in validate_flood, the forwarding table proves (from, me) ∈ E.
    index.extend_simple(wire, me)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FloodMode;
    use crate::test_support::{pid, topo_of};
    use dbac_graph::{generators, Digraph, Path};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn topo(g: Digraph) -> Topology {
        topo_of(g, 1, FloodMode::Redundant)
    }

    #[test]
    fn flood_validation_accepts_honest_extension() {
        let t = topo(generators::clique(4));
        let ext = validate_flood(&t, id(2), id(1), pid(&t, &[0, 1])).unwrap();
        assert_eq!(ext, pid(&t, &[0, 1, 2]));
    }

    #[test]
    fn flood_validation_rejects_forgeries() {
        let t = topo(generators::clique(4));
        // Path does not end at the authenticated sender.
        assert!(validate_flood(&t, id(2), id(1), pid(&t, &[0, 3])).is_none());
        // Unknown id (nothing interned there).
        assert!(validate_flood(&t, id(2), id(1), PathId::from_raw(u32::MAX - 1)).is_none());
        // Path uses a non-edge: in a sparse graph the forged sequence is
        // simply not interned, so it cannot even be expressed as an id.
        let sparse = topo(Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap());
        assert!(sparse.index().resolve(&Path::from_indices(&[2, 1]).unwrap()).is_none());
        // A non-redundant sequence cannot even be expressed as an id …
        assert!(t.index().resolve(&Path::from_indices(&[0, 2, 0, 2, 0]).unwrap()).is_none());
        // … and a redundant wire path whose extension would break
        // redundancy is rejected by the forwarding table.
        let ext_breaker = pid(&t, &[2, 0, 1, 2, 0]);
        assert!(validate_flood(&t, id(1), id(0), ext_breaker).is_none());
    }

    #[test]
    fn complete_validation_requires_simple_paths() {
        let t = topo(generators::clique(4));
        assert!(validate_complete(&t, id(2), id(1), pid(&t, &[0, 1]), NodeSet::EMPTY, 1).is_some());
        // Cycle in the wire path.
        assert!(validate_complete(&t, id(3), id(1), pid(&t, &[0, 2, 0, 1]), NodeSet::EMPTY, 1)
            .is_none());
        // Extension would repeat `me`.
        assert!(validate_complete(&t, id(0), id(1), pid(&t, &[0, 1]), NodeSet::EMPTY, 1).is_none());
        // Zero sequence number.
        assert!(validate_complete(&t, id(2), id(1), pid(&t, &[0, 1]), NodeSet::EMPTY, 0).is_none());
        // Initiator inside its own suspect set.
        let sus = NodeSet::singleton(id(0));
        assert!(validate_complete(&t, id(2), id(1), pid(&t, &[0, 1]), sus, 1).is_none());
        // Unknown id.
        assert!(validate_complete(&t, id(2), id(1), PathId::from_raw(1 << 30), NodeSet::EMPTY, 1)
            .is_none());
    }

    #[test]
    fn message_round_accessor() {
        let t = topo(generators::clique(4));
        let m = ProtocolMsg::Flood { round: 3, value: 1.0, path: t.index().trivial(id(0)) };
        assert_eq!(m.round(), 3);
        let payload = Arc::new(CompletePayload::from_iter([]));
        let c = ProtocolMsg::Complete {
            round: 7,
            suspects: NodeSet::EMPTY,
            payload,
            path: t.index().trivial(id(0)),
            seq: 1,
        };
        assert_eq!(c.round(), 7);
    }
}
