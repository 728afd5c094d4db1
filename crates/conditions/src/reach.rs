//! Reach sets (Definitions 2 and 15 of the paper).
//!
//! `reach_v(F) = {u ∈ V∖F : u has a directed path to v in G_{V∖F}}` — the
//! nodes whose influence can still flow to `v` after removing a suspected
//! fault set `F`. The node `v` itself is trivially in its own reach set.

use dbac_graph::paths::reaching_to;
use dbac_graph::{Digraph, NodeId, NodeSet};
use std::collections::HashMap;

/// Computes `reach_v(F)` in `g`.
///
/// Returns the empty set when `v ∈ F` (the definition requires
/// `F ⊆ V ∖ {v}`; callers quantify over sets excluding `v`).
///
/// # Example
///
/// ```
/// use dbac_conditions::reach::reach_set;
/// use dbac_graph::{Digraph, NodeId, NodeSet};
///
/// // 0 -> 1 -> 2: removing node 1 cuts 0's influence on 2.
/// let g = Digraph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let r = reach_set(&g, NodeId::new(2), NodeSet::singleton(NodeId::new(1)));
/// assert_eq!(r, NodeSet::singleton(NodeId::new(2)));
/// # Ok::<(), dbac_graph::GraphError>(())
/// ```
#[must_use]
pub fn reach_set(g: &Digraph, v: NodeId, removed: NodeSet) -> NodeSet {
    let keep = removed.complement_in(g.node_count());
    reach_within(&g.induced(keep), keep, v)
}

/// `reach_v(removed)` for every node `v` at once, indexed by node (empty
/// for the removed nodes): one induced subgraph serves them all.
#[must_use]
pub fn reach_sets(g: &Digraph, removed: NodeSet) -> Vec<NodeSet> {
    let keep = removed.complement_in(g.node_count());
    let sub = g.induced(keep);
    g.nodes().map(|v| reach_within(&sub, keep, v)).collect()
}

/// `reach_v(V ∖ keep)`, given `sub = G[keep]`.
fn reach_within(sub: &Digraph, keep: NodeSet, v: NodeId) -> NodeSet {
    if keep.contains(v) {
        reaching_to(sub, v) & keep
    } else {
        NodeSet::EMPTY
    }
}

/// Memoizing wrapper around [`reach_sets`].
///
/// The condition checkers evaluate `reach_v(X)` for the same removal set
/// `X` across many nodes `v`; the cache stores, per removal set, the reach
/// set of *every* node at once.
#[derive(Debug, Default)]
pub struct ReachCache {
    /// removal set → reach set per node index (EMPTY for removed nodes).
    by_removed: HashMap<NodeSet, Vec<NodeSet>>,
}

impl ReachCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `reach_v(removed)`, computing and caching all nodes' reach
    /// sets for this removal set on first use.
    pub fn reach(&mut self, g: &Digraph, v: NodeId, removed: NodeSet) -> NodeSet {
        self.by_removed.entry(removed).or_insert_with(|| reach_sets(g, removed))[v.index()]
    }

    /// Number of distinct removal sets cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_removed.len()
    }

    /// Returns `true` if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_removed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn ns(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| id(i)).collect()
    }

    #[test]
    fn contains_self() {
        let g = generators::clique(4);
        let r = reach_set(&g, id(0), NodeSet::EMPTY);
        assert!(r.contains(id(0)));
        assert_eq!(r, g.vertex_set());
    }

    #[test]
    fn clique_reach_is_everything_outside_f() {
        let g = generators::clique(5);
        let f = ns(&[1, 3]);
        assert_eq!(reach_set(&g, id(0), f), f.complement_in(5));
    }

    #[test]
    fn empty_when_v_removed() {
        let g = generators::clique(3);
        assert_eq!(reach_set(&g, id(0), ns(&[0])), NodeSet::EMPTY);
    }

    #[test]
    fn directed_chain_reach() {
        // 0 -> 1 -> 2 -> 3
        let g = dbac_graph::generators::directed_path(4);
        assert_eq!(reach_set(&g, id(3), NodeSet::EMPTY), NodeSet::universe(4));
        assert_eq!(reach_set(&g, id(0), NodeSet::EMPTY), ns(&[0]));
        // Removing 1 splits the chain.
        assert_eq!(reach_set(&g, id(3), ns(&[1])), ns(&[2, 3]));
    }

    #[test]
    fn paths_must_avoid_removed_nodes_entirely() {
        // 0 -> 1 -> 2 and 0 -> 2: removing 1 keeps the direct edge.
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(reach_set(&g, id(2), ns(&[1])), ns(&[0, 2]));
    }

    #[test]
    fn cache_agrees_with_direct_computation() {
        let g = generators::figure_1b_small();
        let mut cache = ReachCache::new();
        for f_bits in [ns(&[]), ns(&[0]), ns(&[3, 5]), ns(&[1, 6])] {
            for v in g.nodes() {
                assert_eq!(cache.reach(&g, v, f_bits), reach_set(&g, v, f_bits));
            }
        }
        assert_eq!(cache.len(), 4);
        assert!(!cache.is_empty());
    }
}
