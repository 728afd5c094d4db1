//! Pins the interned path population: for each fixture graph and each
//! path class, the number of interned paths and an FNV-1a 64 digest over
//! every id in order.
//!
//! The index keeps no path sequences, so the test rebuilds them from its
//! own pools in id order: per terminal `v`, first `⟨v⟩`, then the pool's
//! non-trivial paths in pool order. Each of them must `resolve` to exactly
//! its position, and `len()` must equal their count, so the digest pins
//! the ids the index actually assigned.
//!
//! The digest starts at `0xcbf29ce484222325` and, for each id, folds in the
//! path's node count and then each node index, every value as a `u64` in
//! little-endian bytes, with prime `0x100000001b3`. It covers the id
//! numbering and every node of every path, so a change to the enumeration
//! order, to deduplication or to interning moves it.

use dbac::graph::paths::{redundant_paths_ending_at, simple_paths_ending_at};
use dbac::graph::{generators, Digraph, GraphError, NodeId, NodeSet, Path, PathBudget};
use dbac::graph::{PathId, PathIndex};

type Enumerate = fn(&Digraph, NodeId, NodeSet, PathBudget) -> Result<Vec<Path>, GraphError>;

fn fnv(hash: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// `(PathIndex::len, digest)` of the index built from per-terminal pools.
fn population(g: &Digraph, enumerate: Enumerate) -> (usize, u64) {
    let pools: Vec<Vec<Path>> = g
        .nodes()
        .map(|v| enumerate(g, v, NodeSet::EMPTY, PathBudget::default()).expect("in budget"))
        .collect();
    let index = PathIndex::build(g, &pools);
    let trivial: Vec<Path> = g.nodes().map(Path::single).collect();
    let in_id_order = pools.iter().zip(&trivial).flat_map(|(pool, single)| {
        std::iter::once(single).chain(pool.iter().filter(|p| !p.is_empty()))
    });
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let mut count = 0;
    for (raw, path) in in_id_order.enumerate() {
        assert_eq!(index.resolve(path), Some(PathId::from_raw(raw as u32)), "{path}");
        fnv(&mut hash, path.node_count() as u64);
        for v in path.nodes() {
            fnv(&mut hash, v.index() as u64);
        }
        count += 1;
    }
    assert_eq!(index.len(), count, "every interned id is accounted for");
    (count, hash)
}

fn assert_pinned(g: &Digraph, redundant: (usize, u64), simple: (usize, u64)) {
    assert_eq!(population(g, redundant_paths_ending_at), redundant, "redundant population");
    assert_eq!(population(g, simple_paths_ending_at), simple, "simple population");
}

#[test]
fn figure_1b_small_population_is_pinned() {
    assert_pinned(
        &generators::figure_1b_small(),
        (378_762, 16_331_631_723_563_727_075),
        (2_074, 2_006_306_975_913_060_419),
    );
}

#[test]
fn clique_5_population_is_pinned() {
    assert_pinned(
        &generators::clique(5),
        (16_005, 14_261_137_082_343_244_384),
        (325, 17_934_448_934_700_149_664),
    );
}

#[test]
fn bridged_k3_population_is_pinned() {
    assert_pinned(
        &generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]),
        (3_040, 9_606_387_695_970_633_188),
        (170, 11_503_098_197_104_370_661),
    );
}
