//! Differential harness: the canonical-glue redundant-path enumeration
//! against the retired `HashSet<Path>` implementation, exercised through the
//! public API.
//!
//! The set-deduplicating enumeration is kept as the test-only oracle
//! `tests/oracles/paths.rs`. Both
//! must return the same paths in the same order: the order fixes every
//! `PathId`, and so every run's outcome.

#[path = "oracles/paths.rs"]
mod reference;

use dbac_graph::paths::redundant_paths_ending_at;
use dbac_graph::{generators, Digraph, NodeId, NodeSet, PathBudget};

fn assert_agree(g: &Digraph, to: NodeId, forbidden: NodeSet) {
    let budget = PathBudget::default();
    assert_eq!(
        redundant_paths_ending_at(g, to, forbidden, budget).expect("in budget"),
        reference::redundant_paths_ending_at(g, to, forbidden, budget).expect("in budget"),
        "terminal {to}, forbidden {forbidden:?}, graph {g:?}"
    );
}

/// Every labelled digraph on 4 nodes (2¹² edge masks), every terminal, with
/// nothing forbidden and with each single node forbidden.
#[test]
fn every_4_node_digraph_matches_the_oracle() {
    let n = 4;
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v))).collect();
    for mask in 0u32..1 << pairs.len() {
        let edges: Vec<(usize, usize)> =
            pairs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &e)| e).collect();
        let g = Digraph::from_edges(n, &edges).expect("valid edges");
        for to in g.nodes() {
            assert_agree(&g, to, NodeSet::EMPTY);
            for x in g.nodes() {
                assert_agree(&g, to, NodeSet::singleton(x));
            }
        }
    }
}

/// The fixtures the protocol runs on, every terminal, nothing forbidden.
#[test]
fn named_graphs_match_the_oracle() {
    for g in [
        generators::clique(5),
        generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]),
        generators::figure_1b_small(),
    ] {
        for to in g.nodes() {
            assert_agree(&g, to, NodeSet::EMPTY);
        }
    }
}
