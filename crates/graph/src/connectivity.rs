//! Vertex connectivity `κ(G)`.
//!
//! Table 1 of the paper states the classical tight conditions for
//! *undirected* networks in terms of `κ(G)` (e.g. Byzantine consensus needs
//! `n > 3f` and `κ(G) > 2f`). We compute κ on the bidirectional-digraph
//! embedding of an undirected network; for general digraphs the same
//! routine yields *strong* vertex connectivity.

use crate::digraph::Digraph;
use crate::maxflow::max_vertex_disjoint_paths;
use crate::paths::reachable_from;

/// Returns `true` if `g` is strongly connected.
#[must_use]
pub fn is_strongly_connected(g: &Digraph) -> bool {
    let v0 = crate::node::NodeId::new(0);
    reachable_from(g, v0) == g.vertex_set() && reachable_from(&g.reverse(), v0) == g.vertex_set()
}

/// (Strong) vertex connectivity: the minimum number of nodes whose removal
/// disconnects some ordered pair, computed via Menger as
/// `min_{(s,t): (s,t) ∉ E} maxdisjoint(s, t)`; `n - 1` for complete graphs.
///
/// For a bidirectional digraph this is exactly the undirected `κ(G)`.
///
/// # Example
///
/// ```
/// use dbac_graph::{connectivity, generators};
///
/// // Figure 1(a) requires κ(G) > 2f = 2; the wheel on 5 nodes has κ = 3.
/// let g = generators::figure_1a();
/// assert_eq!(connectivity::vertex_connectivity(&g), 3);
/// ```
#[must_use]
pub fn vertex_connectivity(g: &Digraph) -> usize {
    let n = g.node_count();
    if n == 1 {
        return 0;
    }
    let mut best = n - 1;
    let mut any_non_adjacent = false;
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t || g.has_edge(s, t) {
                continue;
            }
            any_non_adjacent = true;
            best = best.min(max_vertex_disjoint_paths(g, s, t));
            if best == 0 {
                return 0;
            }
        }
    }
    if any_non_adjacent {
        best
    } else {
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn clique_connectivity_is_n_minus_1() {
        for n in 2..6 {
            assert_eq!(vertex_connectivity(&generators::clique(n)), n - 1);
        }
    }

    #[test]
    fn cycle_connectivity() {
        assert_eq!(vertex_connectivity(&generators::bidirectional_cycle(5)), 2);
        assert_eq!(vertex_connectivity(&generators::directed_cycle(5)), 1);
    }

    #[test]
    fn disconnected_graph_has_zero() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(vertex_connectivity(&g), 0);
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn wheel_has_connectivity_three() {
        assert_eq!(vertex_connectivity(&generators::wheel(5)), 3);
    }

    #[test]
    fn strong_connectivity_checks() {
        assert!(is_strongly_connected(&generators::directed_cycle(4)));
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn figure_1a_is_minimally_3_connected() {
        // The paper: "removing any edge will reduce κ(G)".
        let g = generators::figure_1a();
        assert_eq!(vertex_connectivity(&g), 3);
        for (u, v) in g.edges().collect::<Vec<_>>() {
            let mut h = g.clone();
            h.remove_edge(u, v);
            h.remove_edge(v, u);
            assert!(vertex_connectivity(&h) < 3, "removing {u}->{v} kept κ ≥ 3");
        }
    }
}
