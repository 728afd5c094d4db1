//! The directed communication network `G(V, E)`.

use crate::error::GraphError;
use crate::node::NodeId;
use crate::nodeset::{NodeSet, MAX_NODES};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple directed graph on nodes `{0, …, n-1}` with no self-loops,
/// matching the paper's system model (Section 2): node `i` can reliably
/// transmit to `j` iff the directed edge `(i, j) ∈ E`.
///
/// Both adjacency directions are stored as [`NodeSet`] bitsets, so
/// neighborhood queries and induced-subgraph masking are *O(1)* per node.
///
/// # Example
///
/// ```
/// use dbac_graph::{Digraph, NodeId};
///
/// let mut g = Digraph::new(3)?;
/// g.add_edge(NodeId::new(0), NodeId::new(1))?;
/// g.add_edge(NodeId::new(1), NodeId::new(2))?;
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(1), NodeId::new(0)));
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), dbac_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Digraph {
    n: usize,
    out: Vec<NodeSet>,
    inn: Vec<NodeSet>,
}

impl Digraph {
    /// Creates a graph with `n` isolated nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if `n == 0` and
    /// [`GraphError::TooManyNodes`] if `n > MAX_NODES`.
    pub fn new(n: usize) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if n > MAX_NODES {
            return Err(GraphError::TooManyNodes { requested: n });
        }
        Ok(Digraph { n, out: vec![NodeSet::EMPTY; n], inn: vec![NodeSet::EMPTY; n] })
    }

    /// Builds a graph from a list of directed edges given as index pairs.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Digraph::new`] and [`Digraph::add_edge`].
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Digraph::new(n)?;
        for &(u, v) in edges {
            g.add_edge_idx(u, v)?;
        }
        Ok(g)
    }

    /// Builds a *bidirectional* digraph from undirected edges — how the
    /// paper's Table 1 embeds undirected networks into the directed model.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Digraph::new`] and [`Digraph::add_edge`].
    pub fn from_undirected_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Digraph::new(n)?;
        for &(u, v) in edges {
            g.add_edge_idx(u, v)?;
            g.add_edge_idx(v, u)?;
        }
        Ok(g)
    }

    /// Number of nodes `n = |V|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The full vertex set `V` as a [`NodeSet`].
    #[must_use]
    pub fn vertex_set(&self) -> NodeSet {
        NodeSet::universe(self.n)
    }

    /// Iterates over all nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// Validates that `v` belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() < self.n {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node: v, node_count: self.n })
        }
    }

    /// Adds the directed edge `(u, v)`. Returns `true` if the edge was new.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for `u == v` and
    /// [`GraphError::NodeOutOfRange`] for out-of-range endpoints.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let added = self.out[u.index()].insert(v);
        self.inn[v.index()].insert(u);
        Ok(added)
    }

    fn add_edge_idx(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: NodeId::new(u.min(MAX_NODES - 1)),
                node_count: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: NodeId::new(v.min(MAX_NODES - 1)),
                node_count: self.n,
            });
        }
        self.add_edge(NodeId::new(u), NodeId::new(v))
    }

    /// Removes the directed edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.n || v.index() >= self.n {
            return false;
        }
        let removed = self.out[u.index()].remove(v);
        self.inn[v.index()].remove(u);
        removed
    }

    /// Returns `true` if the directed edge `(u, v)` exists.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.n && self.out[u.index()].contains(v)
    }

    /// Out-neighborhood `N⁺_v`.
    #[must_use]
    pub fn out_neighbors(&self, v: NodeId) -> NodeSet {
        self.out[v.index()]
    }

    /// In-neighborhood `N⁻_v`.
    #[must_use]
    pub fn in_neighbors(&self, v: NodeId) -> NodeSet {
        self.inn[v.index()]
    }

    /// Incoming neighborhood of a *set* `B`: all nodes outside `B` with an
    /// edge into `B` (the paper's `N⁻_B`, Appendix A).
    #[must_use]
    pub fn in_neighbors_of_set(&self, b: NodeSet) -> NodeSet {
        let mut result = NodeSet::EMPTY;
        for v in b.iter() {
            result |= self.inn[v.index()];
        }
        result - b
    }

    /// Total number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(|s| s.len()).sum()
    }

    /// Iterates over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| self.out[u.index()].iter().map(move |v| (u, v)))
    }

    /// The subgraph induced by `keep` — the paper's `G_Y`. Node indices are
    /// preserved; nodes outside `keep` lose all incident edges.
    #[must_use]
    pub fn induced(&self, keep: NodeSet) -> Digraph {
        let mut g = Digraph {
            n: self.n,
            out: vec![NodeSet::EMPTY; self.n],
            inn: vec![NodeSet::EMPTY; self.n],
        };
        for v in keep.iter() {
            if v.index() >= self.n {
                continue;
            }
            g.out[v.index()] = self.out[v.index()] & keep;
            g.inn[v.index()] = self.inn[v.index()] & keep;
        }
        g
    }

    /// The reduced graph `G_{F1,F2}` of Definition 5: all *outgoing* edges
    /// of nodes in `F1 ∪ F2` are removed (incoming edges remain).
    #[must_use]
    pub fn reduced(&self, f1: NodeSet, f2: NodeSet) -> Digraph {
        let silenced = f1 | f2;
        let mut g = self.clone();
        for v in silenced.iter() {
            if v.index() >= self.n {
                continue;
            }
            for w in g.out[v.index()].iter() {
                g.inn[w.index()].remove(v);
            }
            g.out[v.index()] = NodeSet::EMPTY;
        }
        g
    }

    /// The reverse graph (every edge flipped).
    #[must_use]
    pub fn reverse(&self) -> Digraph {
        Digraph { n: self.n, out: self.inn.clone(), inn: self.out.clone() }
    }

    /// Returns `true` if every ordered pair of distinct nodes is an edge.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.nodes().all(|v| self.out[v.index()].len() == self.n - 1)
    }

    /// Returns `true` if for every edge `(u, v)` the edge `(v, u)` also
    /// exists, i.e. the digraph models an undirected network.
    #[must_use]
    pub fn is_bidirectional(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }
}

impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digraph(n={}, m={}; ", self.n, self.edge_count())?;
        let mut first = true;
        for (u, v) in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}->{}", u.index(), v.index())?;
            first = false;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn construction_bounds() {
        assert_eq!(Digraph::new(0).unwrap_err(), GraphError::EmptyGraph);
        assert!(matches!(
            Digraph::new(MAX_NODES + 1).unwrap_err(),
            GraphError::TooManyNodes { requested } if requested == MAX_NODES + 1
        ));
        assert!(Digraph::new(MAX_NODES).is_ok());
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Digraph::new(4).unwrap();
        assert!(g.add_edge(id(0), id(1)).unwrap());
        assert!(!g.add_edge(id(0), id(1)).unwrap());
        assert!(g.has_edge(id(0), id(1)));
        assert!(g.in_neighbors(id(1)).contains(id(0)));
        assert!(g.remove_edge(id(0), id(1)));
        assert!(!g.remove_edge(id(0), id(1)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Digraph::new(2).unwrap();
        assert_eq!(g.add_edge(id(1), id(1)).unwrap_err(), GraphError::SelfLoop { node: id(1) });
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = Digraph::new(2).unwrap();
        assert!(g.add_edge(id(0), id(5)).is_err());
        assert!(Digraph::from_edges(2, &[(0, 3)]).is_err());
    }

    #[test]
    fn from_undirected_is_bidirectional() {
        let g = Digraph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(g.is_bidirectional());
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn induced_subgraph_masks_edges() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let keep: NodeSet = [id(0), id(1), id(2)].into_iter().collect();
        let sub = g.induced(keep);
        assert!(sub.has_edge(id(0), id(1)));
        assert!(sub.has_edge(id(1), id(2)));
        assert!(!sub.has_edge(id(2), id(3)));
        assert!(!sub.has_edge(id(3), id(0)));
        assert_eq!(sub.edge_count(), 2);
    }

    #[test]
    fn reduced_graph_removes_only_outgoing() {
        // Definition 5: nodes in F1 ∪ F2 keep incoming edges.
        let g = Digraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let f1 = NodeSet::singleton(id(1));
        let r = g.reduced(f1, NodeSet::EMPTY);
        assert!(r.has_edge(id(0), id(1)), "incoming edge into F preserved");
        assert!(!r.has_edge(id(1), id(0)), "outgoing edge from F removed");
        assert!(!r.has_edge(id(1), id(2)));
        assert!(r.has_edge(id(2), id(1)));
    }

    #[test]
    fn reverse_flips_edges() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let r = g.reverse();
        assert!(r.has_edge(id(1), id(0)));
        assert!(r.has_edge(id(2), id(1)));
        assert_eq!(r.edge_count(), 2);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn set_neighborhoods() {
        let g = Digraph::from_edges(4, &[(0, 1), (3, 1), (1, 2), (2, 0)]).unwrap();
        let b: NodeSet = [id(1), id(2)].into_iter().collect();
        assert_eq!(g.in_neighbors_of_set(b), [id(0), id(3)].into_iter().collect());
    }

    #[test]
    fn completeness_check() {
        let mut g = Digraph::new(3).unwrap();
        for u in 0..3 {
            for v in 0..3 {
                if u != v {
                    g.add_edge(id(u), id(v)).unwrap();
                }
            }
        }
        assert!(g.is_complete());
        g.remove_edge(id(0), id(1));
        assert!(!g.is_complete());
    }

    #[test]
    fn edges_iterator_is_exhaustive() {
        let g = Digraph::from_edges(3, &[(0, 1), (2, 0), (1, 2)]).unwrap();
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }
}
