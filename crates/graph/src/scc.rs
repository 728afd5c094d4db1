//! Strongly connected components (Tarjan).
//!
//! The paper's source component `S_{F1,F2}` (Definition 6) is a strongly
//! connected component of the reduced graph; this module provides the SCC
//! decomposition it is built from.

use crate::digraph::Digraph;
use crate::node::NodeId;
use crate::nodeset::NodeSet;

/// Computes the strongly connected components of `g` restricted to the
/// nodes in `within` (pass [`Digraph::vertex_set`] for the whole graph).
///
/// Components are returned in *reverse topological order* of the
/// condensation: if component `A` appears before component `B`, there is no
/// edge from `A` to `B`.
///
/// # Example
///
/// ```
/// use dbac_graph::{Digraph, scc};
///
/// let g = Digraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])?;
/// let comps = scc::strongly_connected_components(&g, g.vertex_set());
/// assert_eq!(comps.len(), 2);
/// # Ok::<(), dbac_graph::GraphError>(())
/// ```
#[must_use]
pub fn strongly_connected_components(g: &Digraph, within: NodeSet) -> Vec<NodeSet> {
    let n = g.node_count();
    let mut state = Tarjan {
        g,
        within,
        index: vec![usize::MAX; n],
        lowlink: vec![usize::MAX; n],
        on_stack: NodeSet::EMPTY,
        stack: Vec::new(),
        next_index: 0,
        components: Vec::new(),
    };
    for v in within.iter() {
        if v.index() < n && state.index[v.index()] == usize::MAX {
            state.visit(v);
        }
    }
    state.components
}

/// Returns `true` if every node of `set` can reach every other node of
/// `set` inside the subgraph induced by `set`.
#[must_use]
pub fn is_strongly_connected_within(g: &Digraph, set: NodeSet) -> bool {
    if set.is_empty() {
        return true;
    }
    let comps = strongly_connected_components(g, set);
    comps.len() == 1 && comps[0] == set
}

struct Tarjan<'a> {
    g: &'a Digraph,
    within: NodeSet,
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: NodeSet,
    stack: Vec<NodeId>,
    next_index: usize,
    components: Vec<NodeSet>,
}

impl Tarjan<'_> {
    fn visit(&mut self, v: NodeId) {
        self.index[v.index()] = self.next_index;
        self.lowlink[v.index()] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack.insert(v);

        for w in (self.g.out_neighbors(v) & self.within).iter() {
            if self.index[w.index()] == usize::MAX {
                self.visit(w);
                self.lowlink[v.index()] = self.lowlink[v.index()].min(self.lowlink[w.index()]);
            } else if self.on_stack.contains(w) {
                self.lowlink[v.index()] = self.lowlink[v.index()].min(self.index[w.index()]);
            }
        }

        if self.lowlink[v.index()] == self.index[v.index()] {
            let mut comp = NodeSet::EMPTY;
            loop {
                let w = self.stack.pop().expect("stack holds the component");
                self.on_stack.remove(w);
                comp.insert(w);
                if w == v {
                    break;
                }
            }
            self.components.push(comp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn clique_is_one_component() {
        let g = generators::clique(5);
        let comps = strongly_connected_components(&g, g.vertex_set());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], g.vertex_set());
        assert!(is_strongly_connected_within(&g, g.vertex_set()));
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let comps = strongly_connected_components(&g, g.vertex_set());
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn reverse_topological_order() {
        // 0 <-> 1 feeds into 2 <-> 3: the sink component {2,3} comes first.
        let g = Digraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]).unwrap();
        let comps = strongly_connected_components(&g, g.vertex_set());
        assert_eq!(comps.len(), 2);
        assert!(comps[0].contains(id(2)) && comps[0].contains(id(3)));
        assert!(comps[1].contains(id(0)) && comps[1].contains(id(1)));
    }

    #[test]
    fn respects_within_restriction() {
        let g = generators::clique(4);
        let within: NodeSet = [id(0), id(1)].into_iter().collect();
        let comps = strongly_connected_components(&g, within);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], within);
    }

    #[test]
    fn strongly_connected_within_subsets() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        assert!(is_strongly_connected_within(&g, [id(0), id(1)].into_iter().collect()));
        assert!(!is_strongly_connected_within(&g, [id(0), id(2)].into_iter().collect()));
        assert!(is_strongly_connected_within(&g, NodeSet::EMPTY));
        assert!(is_strongly_connected_within(&g, NodeSet::singleton(id(3))));
    }

    #[test]
    fn directed_cycle_is_single_component() {
        let g = generators::directed_cycle(6);
        assert!(is_strongly_connected_within(&g, g.vertex_set()));
    }
}
