//! Differential harnesses for the path populations, exercised through the
//! public API.
//!
//! * The canonical-glue redundant-path enumeration against the retired
//!   `HashSet<Path>` implementation, kept as the test-only oracle
//!   `tests/oracles/paths.rs`. Both must return the same paths in the same
//!   order.
//! * The generated indexes, [`PathIndex::redundant`] and
//!   [`PathIndex::simple`], against [`PathIndex::build`] over the
//!   enumerated pools. Their ids differ (generation order against pool
//!   order), so the two are compared through `resolve`: the same paths,
//!   the same metadata, forwarding table, classes and masks, and the same
//!   budget verdict.

#[path = "oracles/paths.rs"]
mod reference;

use dbac_graph::paths::{redundant_paths_ending_at, simple_paths_ending_at};
use dbac_graph::{generators, Digraph, GraphError, NodeId, NodeSet, Path, PathBudget};
use dbac_graph::{PathId, PathIndex};
use std::collections::HashMap;

type Enumerate = fn(&Digraph, NodeId, NodeSet, PathBudget) -> Result<Vec<Path>, GraphError>;
type Generate = fn(&Digraph, PathBudget) -> Result<PathIndex, GraphError>;

/// Each population: its name, its per-terminal enumerator and its
/// generator.
const POPULATIONS: [(&str, Enumerate, Generate); 2] = [
    ("redundant", redundant_paths_ending_at, PathIndex::redundant),
    ("simple", simple_paths_ending_at, PathIndex::simple),
];

fn assert_agree(g: &Digraph, to: NodeId, forbidden: NodeSet) {
    let budget = PathBudget::default();
    assert_eq!(
        redundant_paths_ending_at(g, to, forbidden, budget).expect("in budget"),
        reference::redundant_paths_ending_at(g, to, forbidden, budget).expect("in budget"),
        "terminal {to}, forbidden {forbidden:?}, graph {g:?}"
    );
}

/// Every labelled digraph on 4 nodes (2¹² edge masks).
fn every_4_node_digraph() -> impl Iterator<Item = Digraph> {
    let n = 4;
    let pairs: Vec<(usize, usize)> =
        (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v))).collect();
    (0u32..1 << pairs.len()).map(move |mask| {
        let edges: Vec<(usize, usize)> =
            pairs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &e)| e).collect();
        Digraph::from_edges(n, &edges).expect("valid edges")
    })
}

/// The fixtures the protocol runs on.
fn named_graphs() -> [Digraph; 3] {
    [
        generators::clique(5),
        generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]),
        generators::figure_1b_small(),
    ]
}

/// Every terminal, with nothing forbidden and with each single node
/// forbidden.
#[test]
fn every_4_node_digraph_matches_the_oracle() {
    for g in every_4_node_digraph() {
        for to in g.nodes() {
            assert_agree(&g, to, NodeSet::EMPTY);
            for x in g.nodes() {
                assert_agree(&g, to, NodeSet::singleton(x));
            }
        }
    }
}

/// Every terminal, nothing forbidden.
#[test]
fn named_graphs_match_the_oracle() {
    for g in named_graphs() {
        for to in g.nodes() {
            assert_agree(&g, to, NodeSet::EMPTY);
        }
    }
}

/// `true` if bit `id` of the id-indexed mask is set.
fn bit(mask: &[u64], id: PathId) -> bool {
    mask[id.index() / 64] >> (id.index() % 64) & 1 == 1
}

/// Checks `generate` against `build` over the pools of `enumerate`, on
/// every id.
fn assert_generated_matches_built(
    g: &Digraph,
    name: &str,
    enumerate: Enumerate,
    generate: Generate,
) {
    let budget = PathBudget::default();
    let pools: Vec<Vec<Path>> =
        g.nodes().map(|v| enumerate(g, v, NodeSet::EMPTY, budget).expect("in budget")).collect();
    let built = PathIndex::build(g, &pools);
    let generated = generate(g, budget).expect("in budget");
    let label = format!("{name} population of {g:?}");
    assert_eq!(generated.len(), built.len(), "{label}");
    assert_eq!(generated.class_count(), built.class_count(), "{label}");
    for v in g.nodes() {
        let size = pools[v.index()].len();
        assert_eq!(generated.paths_ending_at(v).len(), size, "{label}: block {v}");
        assert_eq!(built.paths_ending_at(v).len(), size, "{label}: block {v}");
    }

    // Every enumerated path resolves in both, to ids with the same
    // metadata; `to_built` maps the generated ids onto the built ones.
    let mut to_built = vec![None; generated.len()];
    for path in pools.iter().flatten() {
        let a = generated.resolve(path).unwrap_or_else(|| panic!("{label}: {path} not generated"));
        let b = built.resolve(path).unwrap_or_else(|| panic!("{label}: {path} not built"));
        assert_eq!(to_built[a.index()].replace(b), None, "{label}: {a} resolved twice");
        assert_eq!(generated.init(a), built.init(b), "{label}: {path}");
        assert_eq!(generated.ter(a), built.ter(b), "{label}: {path}");
        assert_eq!(generated.node_set(a), built.node_set(b), "{label}: {path}");
        assert_eq!(generated.node_count(a), built.node_count(b), "{label}: {path}");
        assert_eq!(generated.is_simple(a), built.is_simple(b), "{label}: {path}");
        assert_eq!(generated.is_trivial(a), built.is_trivial(b), "{label}: {path}");
    }
    let to_built: Vec<PathId> =
        to_built.into_iter().map(|b| b.expect("every id resolved")).collect();

    // The forwarding table, the class partition and the masks, per id.
    let mut class_to_built = HashMap::new();
    let mut class_from_built = HashMap::new();
    for (a, &b) in to_built.iter().enumerate() {
        let a = PathId::from_raw(a as u32);
        for w in g.nodes() {
            let extended = generated.extend(a, w).map(|e| to_built[e.index()]);
            assert_eq!(extended, built.extend(b, w), "{label}: extend({a}, {w})");
        }
        assert!(generated.extension_targets(a).eq(built.extension_targets(b)), "{label}: {a}");
        let (ca, cb) = (generated.class(a), built.class(b));
        assert_eq!(*class_to_built.entry(ca).or_insert(cb), cb, "{label}: class of {a}");
        assert_eq!(*class_from_built.entry(cb).or_insert(ca), ca, "{label}: class of {a}");
        for v in g.nodes() {
            for (mask_a, mask_b) in [
                (generated.member_words(v), built.member_words(v)),
                (generated.init_words(v), built.init_words(v)),
                (generated.terminal_words(v), built.terminal_words(v)),
            ] {
                assert_eq!(bit(mask_a, a), bit(mask_b, b), "{label}: masks of {v} at {a}");
            }
        }
    }
    for v in g.nodes() {
        let mut simple: Vec<PathId> =
            generated.simple_paths_ending_at(v).iter().map(|a| to_built[a.index()]).collect();
        simple.sort_unstable();
        assert_eq!(simple, built.simple_paths_ending_at(v), "{label}: simple paths to {v}");
    }

    // The budget verdict is the enumerators' at the largest block size
    // and one below it.
    let largest = pools.iter().map(Vec::len).max().expect("a node");
    for max_paths in [largest, largest - 1] {
        let budget = PathBudget::new(max_paths);
        let enumerated = g.nodes().all(|v| enumerate(g, v, NodeSet::EMPTY, budget).is_ok());
        assert_eq!(enumerated, max_paths == largest, "{label}: enumerators at {max_paths}");
        match generate(g, budget) {
            Ok(index) => assert!(enumerated && index.len() == built.len(), "{label}"),
            Err(e) => {
                assert!(!enumerated, "{label}: refused at {max_paths}");
                assert_eq!(e, GraphError::BudgetExceeded { limit: max_paths }, "{label}");
            }
        }
    }
}

#[test]
fn generated_indexes_match_the_built_ones_on_every_4_node_digraph() {
    for g in every_4_node_digraph() {
        for (name, enumerate, generate) in POPULATIONS {
            assert_generated_matches_built(&g, name, enumerate, generate);
        }
    }
}

#[test]
fn generated_indexes_match_the_built_ones_on_the_named_graphs() {
    for g in named_graphs() {
        for (name, enumerate, generate) in POPULATIONS {
            assert_generated_matches_built(&g, name, enumerate, generate);
        }
    }
    // K5 holds 3,201 redundant paths per terminal.
    let k5 = generators::clique(5);
    assert!(PathIndex::redundant(&k5, PathBudget::new(3_201)).is_ok());
    assert_eq!(
        PathIndex::redundant(&k5, PathBudget::new(3_200)).unwrap_err(),
        GraphError::BudgetExceeded { limit: 3_200 }
    );
}
