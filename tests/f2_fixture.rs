//! The `f = 2` fixture, `generators::k7_minus_matching`: a 7-node graph
//! on which 3-reach holds at `f = 2` and whose redundant-path population
//! fits the default `PathBudget`, so Algorithm BW can run on it.
//!
//! The default run checks the graph itself: 3-reach holds at `f = 2`, it is
//! edge-minimal for that, and greedy deletion from `K_7` reproduces it.
//! The interned population (4,450,903 redundant paths) is an ignored
//! test, run in release:
//! `cargo test -q --release --test f2_fixture -- --ignored`.

use dbac::conditions::kreach::three_reach;
use dbac::core::{FloodMode, Topology};
use dbac::graph::{generators, Digraph, NodeId, PathBudget};

fn edges(g: &Digraph) -> Vec<(NodeId, NodeId)> {
    g.edges().collect()
}

#[test]
fn three_reach_holds_at_f2_and_every_edge_is_needed() {
    let g = generators::k7_minus_matching();
    assert_eq!(g.node_count(), 7);
    assert_eq!(g.edge_count(), 36);
    for v in g.nodes() {
        let expected = if v.index() == 6 { 6 } else { 5 };
        assert_eq!(g.in_neighbors(v).len(), expected, "in-degree of {v}");
    }
    assert!(three_reach(&g, 2).holds());
    for (u, v) in edges(&g) {
        let mut h = g.clone();
        h.remove_edge(u, v);
        assert!(!three_reach(&h, 2).holds(), "3-reach survives removing {u} -> {v}");
    }
}

#[test]
fn greedy_deletion_from_k7_yields_the_fixture() {
    let mut g = generators::clique(7);
    for (u, v) in edges(&generators::clique(7)) {
        g.remove_edge(u, v);
        if !three_reach(&g, 2).holds() {
            g.add_edge(u, v).expect("valid edge");
        }
    }
    assert_eq!(edges(&g), edges(&generators::k7_minus_matching()));
}

#[test]
#[ignore = "interns 4.45M paths: run in release"]
fn f2_topology_interns_the_full_redundant_population() {
    let g = generators::k7_minus_matching();
    let topo = Topology::new(g, 2, FloodMode::Redundant, PathBudget::default()).expect("in budget");
    let index = topo.index();
    assert_eq!(index.len(), 4_450_903);
    for v in topo.graph().nodes() {
        let block = if v.index() == 6 { 574_075 } else { 646_138 };
        assert_eq!(index.paths_ending_at(v).len(), block, "block of {v}");
    }
}
