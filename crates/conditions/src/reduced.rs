//! Reduced graphs and source components (Definitions 5 and 6).
//!
//! The reduced graph `G_{F1,F2}` silences all *outgoing* links of nodes in
//! `F1 ∪ F2`; its **source component** `S_{F1,F2}` is the set of nodes that
//! still have directed paths to *every* node. The source component is the
//! paper's "source of common influence": Algorithm 2 (Completeness)
//! verifies values against source components, and Theorems 5, 11, 12 hinge
//! on their properties.

use dbac_graph::paths::reachable_from;
use dbac_graph::{Digraph, NodeSet};

/// Computes the source component `S_{F1,F2}` of `g`: the nodes of the
/// reduced graph `G_{F1,F2}` (Definition 5) that reach all nodes.
///
/// By construction `S_{F1,F2} = S_{F2,F1}`, `S ∩ (F1 ∪ F2) = ∅` (silenced
/// nodes reach nobody but themselves), and the result is strongly connected
/// (paper remark after Definition 6). It may be empty when the graph is
/// poorly connected.
///
/// # Example
///
/// ```
/// use dbac_conditions::reduced::source_component;
/// use dbac_graph::{generators, NodeId, NodeSet};
///
/// let g = generators::clique(4);
/// let f1 = NodeSet::singleton(NodeId::new(0));
/// let s = source_component(&g, f1, NodeSet::EMPTY);
/// // The three unsilenced nodes still reach everyone.
/// assert_eq!(s.len(), 3);
/// assert!(!s.contains(NodeId::new(0)));
/// ```
#[must_use]
pub fn source_component(g: &Digraph, f1: NodeSet, f2: NodeSet) -> NodeSet {
    let silenced = f1 | f2;
    let reduced = g.reduced(silenced, NodeSet::EMPTY);
    let all = g.vertex_set();
    let mut s = NodeSet::EMPTY;
    for v in (all - silenced).iter() {
        if reachable_from(&reduced, v) == all {
            s.insert(v);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::{generators, scc, NodeId};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ns(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| id(i)).collect()
    }

    #[test]
    fn clique_source_component_is_complement_of_silenced() {
        let g = generators::clique(5);
        let s = source_component(&g, ns(&[0]), ns(&[2]));
        assert_eq!(s, ns(&[1, 3, 4]));
    }

    #[test]
    fn symmetric_in_f1_f2() {
        let g = generators::figure_1b_small();
        let f1 = ns(&[0]);
        let f2 = ns(&[5]);
        assert_eq!(source_component(&g, f1, f2), source_component(&g, f2, f1));
    }

    #[test]
    fn source_component_is_strongly_connected() {
        // Paper remark after Definition 6.
        let g = generators::figure_1b_small();
        for silenced in [ns(&[]), ns(&[0]), ns(&[1, 6]), ns(&[2, 3])] {
            let s = source_component(&g, silenced, NodeSet::EMPTY);
            assert!(
                scc::is_strongly_connected_within(&g.reduced(silenced, NodeSet::EMPTY), s),
                "S for silenced {silenced} not strongly connected"
            );
        }
    }

    #[test]
    fn silenced_nodes_are_excluded() {
        let g = generators::clique(4);
        let s = source_component(&g, ns(&[1]), ns(&[2]));
        assert!(s.is_disjoint(ns(&[1, 2])));
    }

    #[test]
    fn may_be_empty_without_connectivity() {
        // Directed path 0 -> 1 -> 2: silencing 0 leaves nobody reaching all.
        let g = generators::directed_path(3);
        assert_eq!(source_component(&g, ns(&[0]), NodeSet::EMPTY), NodeSet::EMPTY);
        // Even with nobody silenced only node 0 reaches everyone.
        assert_eq!(source_component(&g, NodeSet::EMPTY, NodeSet::EMPTY), ns(&[0]));
    }
}
