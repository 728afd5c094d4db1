//! The propagation relation `A ⇝_C B` (Definition 10).
//!
//! Set `A` *propagates in `C` to* `B` when either `B = ∅` or every `b ∈ B`
//! is reached by at least `f + 1` node-disjoint `(A, b)`-paths inside the
//! induced subgraph `G_C`. With at most `f` faults, at least one of those
//! paths survives — this is how common influence from a source component
//! reaches the rest of the network (Theorem 5).

use dbac_graph::maxflow::max_disjoint_paths_from_set;
use dbac_graph::{Digraph, NodeSet};

/// Checks `A ⇝_C B` for fault bound `f` (Definition 10).
///
/// # Panics
///
/// Panics if `A ∩ B ≠ ∅` or `B ⊄ C`, which the definition requires.
#[must_use]
#[allow(clippy::int_plus_one)] // `≥ f + 1` is the paper's phrasing
pub fn propagates(g: &Digraph, a: NodeSet, b: NodeSet, c: NodeSet, f: usize) -> bool {
    assert!(a.is_disjoint(b), "Definition 10 requires A ∩ B = ∅");
    assert!(b.is_subset(c), "Definition 10 requires B ⊆ C");
    b.iter().all(|t| max_disjoint_paths_from_set(g, a, t, c) >= f + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::{generators, NodeId};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ns(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| id(i)).collect()
    }

    #[test]
    fn empty_b_always_propagates() {
        let g = generators::directed_path(3);
        assert!(propagates(&g, ns(&[0]), NodeSet::EMPTY, g.vertex_set(), 5));
    }

    #[test]
    fn clique_propagates_with_enough_sources() {
        let g = generators::clique(5);
        // A = {0,1,2}: every other node has 3 disjoint (A,b)-paths (direct edges).
        let a = ns(&[0, 1, 2]);
        let b = ns(&[3, 4]);
        assert!(propagates(&g, a, b, g.vertex_set(), 2));
        assert!(!propagates(&g, a, b, g.vertex_set(), 3));
    }

    #[test]
    fn chain_fails_beyond_f_zero() {
        let g = generators::directed_path(3);
        let a = ns(&[0]);
        let b = ns(&[2]);
        assert!(propagates(&g, a, b, g.vertex_set(), 0));
        assert!(!propagates(&g, a, b, g.vertex_set(), 1));
    }

    #[test]
    fn restriction_to_c_matters() {
        // A = {1, 2} reaches 3 along two fully node-disjoint routes;
        // restricting C to drop node 2 leaves one.
        let g = Digraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let a = ns(&[1, 2]);
        let b = ns(&[3]);
        assert!(propagates(&g, a, b, g.vertex_set(), 1));
        let c = g.vertex_set() - ns(&[2]);
        assert!(!propagates(&g, a, b, c, 1));
        assert!(propagates(&g, a, b, c, 0));
    }

    #[test]
    fn node_disjointness_includes_initial_nodes() {
        // Definition 10's (A,b)-paths are pairwise node-disjoint including
        // their initial nodes: a singleton A yields at most one path, no
        // matter how many routes fan out of it.
        let g = Digraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        assert!(!propagates(&g, ns(&[0]), ns(&[3]), g.vertex_set(), 1));
        assert!(propagates(&g, ns(&[0]), ns(&[3]), g.vertex_set(), 0));
    }

    #[test]
    #[should_panic(expected = "A ∩ B")]
    fn overlapping_a_b_panics() {
        let g = generators::clique(3);
        let _ = propagates(&g, ns(&[0]), ns(&[0, 1]), g.vertex_set(), 1);
    }

    #[test]
    #[should_panic(expected = "B ⊆ C")]
    fn b_outside_c_panics() {
        let g = generators::clique(3);
        let _ = propagates(&g, ns(&[0]), ns(&[1]), ns(&[0, 2]), 1);
    }
}
