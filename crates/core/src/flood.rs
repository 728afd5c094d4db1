//! RedundantFlood (Appendix E): forwarding rules for value floods.
//!
//! A node that accepts `(x, p)` stores `(x, p‖v)` and forwards `(x, p‖v)`
//! to each out-neighbor `w` for which `p‖v‖w` is still a redundant path
//! (a simple path in the ablation mode). Admissibility is one lookup in
//! the [`PathIndex`](dbac_graph::PathIndex) forwarding table — the interned
//! population holds exactly the admissible paths of the active flood mode.
//! The helpers here are shared by honest nodes and by adversaries that
//! need to *look* honest while tampering.

use crate::message::{ProtocolMsg, Round};
use crate::precompute::Topology;
use dbac_graph::{NodeId, PathId};

/// The initial flood of a state value: `(x, ⟨me⟩)` to every out-neighbor
/// (Algorithm 4 line 1). The two-node extension is always admissible.
#[must_use]
pub fn initial_flood(
    topo: &Topology,
    me: NodeId,
    round: Round,
    value: f64,
) -> Vec<(NodeId, ProtocolMsg)> {
    let path = topo.index().trivial(me);
    topo.graph()
        .out_neighbors(me)
        .iter()
        .map(|w| (w, ProtocolMsg::Flood { round, value, path }))
        .collect()
}

/// Forwards for a freshly stored flood path (which ends at `me`): sends
/// `(value, stored)` to each `w` with `stored‖w` admissible under the
/// flood mode — i.e. present in the forwarding table. Yields the sends
/// rather than collecting them; the table is only asked which slots are
/// filled.
pub fn flood_forwards(
    topo: &Topology,
    me: NodeId,
    round: Round,
    value: f64,
    stored: PathId,
) -> impl Iterator<Item = (NodeId, ProtocolMsg)> + '_ {
    let index = topo.index();
    debug_assert_eq!(index.ter(stored), me);
    index
        .extension_targets(stored)
        .map(move |w| (w, ProtocolMsg::Flood { round, value, path: stored }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FloodMode;
    use crate::test_support::{pid, topo_of};
    use dbac_graph::{generators, Path};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn topo(n: usize, mode: FloodMode) -> Topology {
        topo_of(generators::clique(n), 1, mode)
    }

    #[test]
    fn initial_flood_reaches_all_out_neighbors() {
        let t = topo(4, FloodMode::Redundant);
        let msgs = initial_flood(&t, id(0), 0, 1.5);
        assert_eq!(msgs.len(), 3);
        for (_, m) in &msgs {
            match m {
                ProtocolMsg::Flood { round, value, path } => {
                    assert_eq!((*round, *value), (0, 1.5));
                    assert_eq!(*path, t.index().trivial(id(0)));
                }
                ProtocolMsg::Complete { .. } => panic!("wrong message kind"),
            }
        }
    }

    #[test]
    fn forwards_keep_redundancy_invariant() {
        let t = topo(4, FloodMode::Redundant);
        // Stored path ⟨1,2,0⟩ at node 0: forwarding to 3 gives ⟨1,2,0,3⟩
        // (redundant); forwarding to 1 gives ⟨1,2,0,1⟩ (also redundant —
        // splits as ⟨1,2,0⟩‖⟨0,1⟩).
        let stored = pid(&t, &[1, 2, 0]);
        let fw: Vec<_> = flood_forwards(&t, id(0), 2, 7.0, stored).collect();
        let targets: Vec<usize> = fw.iter().map(|(w, _)| w.index()).collect();
        assert!(targets.contains(&3));
        assert!(targets.contains(&1));
        for (_, m) in &fw {
            if let ProtocolMsg::Flood { path, .. } = m {
                assert_eq!(*path, stored, "wire path ends at the sender");
            }
        }
    }

    #[test]
    fn forwards_stop_when_redundancy_would_break() {
        let t = topo(3, FloodMode::Redundant);
        // ⟨2,0,1,2,0⟩ is redundant (⟨2,0,1⟩‖⟨1,2,0⟩, both simple), but
        // extending by 1 gives ⟨2,0,1,2,0,1⟩ which has no simple split.
        assert!(Path::from_indices(&[2, 0, 1, 2, 0]).unwrap().is_redundant());
        let stored = pid(&t, &[2, 0, 1, 2, 0]);
        let fw: Vec<_> = flood_forwards(&t, id(0), 0, 1.0, stored).collect();
        let targets: Vec<usize> = fw.iter().map(|(w, _)| w.index()).collect();
        assert!(!targets.contains(&1), "⟨2,0,1,2,0,1⟩ is not redundant");
    }

    #[test]
    fn simple_mode_blocks_cycles() {
        let t = topo(4, FloodMode::SimpleOnly);
        let stored = pid(&t, &[1, 2, 0]);
        let fw: Vec<_> = flood_forwards(&t, id(0), 0, 1.0, stored).collect();
        let targets: Vec<usize> = fw.iter().map(|(w, _)| w.index()).collect();
        assert_eq!(targets, vec![3], "only the cycle-free extension survives");
    }
}
