//! Pins the interned path populations: for each fixture graph and each
//! path class, the number of interned paths and an FNV-1a 64 digest over
//! every id in order, once for the index `PathIndex::build` interns from
//! the enumerated pools (pool order) and once for the index the product
//! runs on, `PathIndex::redundant` / `PathIndex::simple` (generation
//! order, the ids on the wire).
//!
//! The index keeps no path sequences, so the test rebuilds them from the
//! pools. For `build`, id order is per terminal `v`, first `⟨v⟩`, then the
//! pool's non-trivial paths in pool order, and each of them must `resolve`
//! to exactly its position. For a generated index, each enumerated path
//! is placed at the id it `resolve`s to, and every id must be hit once.
//! Either way `len()` must equal the count, so the digest pins the ids the
//! index actually assigned.
//!
//! The digest starts at `0xcbf29ce484222325` and, for each id, folds in the
//! path's node count and then each node index, every value as a `u64` in
//! little-endian bytes, with prime `0x100000001b3`. It covers the id
//! numbering and every node of every path, so a change to the enumeration
//! or generation order, to deduplication or to interning moves it.

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

type Generate = fn(&Digraph, PathBudget) -> Result<PathIndex, GraphError>;

/// `(count, digest)` of paths listed in id order.
fn digest<'a>(in_id_order: impl Iterator<Item = &'a Path>) -> (usize, u64) {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let mut count = 0;
    for path in in_id_order {
        fnv(&mut hash, path.node_count() as u64);
        for v in path.nodes() {
            fnv(&mut hash, v.index() as u64);
        }
        count += 1;
    }
    (count, hash)
}

fn pools(g: &Digraph, enumerate: Enumerate) -> Vec<Vec<Path>> {
    g.nodes()
        .map(|v| enumerate(g, v, NodeSet::EMPTY, PathBudget::default()).expect("in budget"))
        .collect()
}

/// `(PathIndex::len, digest)` of the index built from per-terminal pools.
fn built(g: &Digraph, enumerate: Enumerate) -> (usize, u64) {
    let pools = pools(g, enumerate);
    let index = PathIndex::build(g, &pools);
    let trivial: Vec<Path> = g.nodes().map(Path::single).collect();
    let in_id_order: Vec<&Path> = pools
        .iter()
        .zip(&trivial)
        .flat_map(|(pool, single)| {
            std::iter::once(single).chain(pool.iter().filter(|p| !p.is_empty()))
        })
        .collect();
    for (raw, path) in in_id_order.iter().enumerate() {
        assert_eq!(index.resolve(path), Some(PathId::from_raw(raw as u32)), "{path}");
    }
    assert_eq!(index.len(), in_id_order.len(), "every interned id is accounted for");
    digest(in_id_order.into_iter())
}

/// `(PathIndex::len, digest)` of the generated index: the enumerated
/// paths, each at the id it resolves to.
fn generated(g: &Digraph, enumerate: Enumerate, generate: Generate) -> (usize, u64) {
    let index = generate(g, PathBudget::default()).expect("in budget");
    let mut in_id_order: Vec<Option<Path>> = vec![None; index.len()];
    for path in pools(g, enumerate).into_iter().flatten() {
        let id = index.resolve(&path).unwrap_or_else(|| panic!("{path} not interned"));
        assert_eq!(in_id_order[id.index()].replace(path), None, "{id} resolved twice");
    }
    digest(in_id_order.iter().map(|path| path.as_ref().expect("every id is a pooled path")))
}

/// Pins `[built, generated]` for the redundant and the simple population.
fn assert_pinned(g: &Digraph, redundant: [(usize, u64); 2], simple: [(usize, u64); 2]) {
    let pinned = [
        (redundant, redundant_paths_ending_at as Enumerate, PathIndex::redundant as Generate),
        (simple, simple_paths_ending_at, PathIndex::simple),
    ];
    for ([from_pools, from_graph], enumerate, generate) in pinned {
        assert_eq!(built(g, enumerate), from_pools, "population built from pools");
        assert_eq!(generated(g, enumerate, generate), from_graph, "generated population");
    }
}

#[test]
fn figure_1b_small_population_is_pinned() {
    assert_pinned(
        &generators::figure_1b_small(),
        [(378_762, 16_331_631_723_563_727_075), (378_762, 5_886_121_221_353_130_339)],
        [(2_074, 2_006_306_975_913_060_419), (2_074, 11_627_011_748_626_646_371)],
    );
}

#[test]
fn clique_5_population_is_pinned() {
    assert_pinned(
        &generators::clique(5),
        [(16_005, 14_261_137_082_343_244_384), (16_005, 5_552_070_450_056_352_544)],
        [(325, 17_934_448_934_700_149_664), (325, 2_416_587_677_783_303_328)],
    );
}

#[test]
fn bridged_k3_population_is_pinned() {
    assert_pinned(
        &generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]),
        [(3_040, 9_606_387_695_970_633_188), (3_040, 16_911_843_989_534_087_588)],
        [(170, 11_503_098_197_104_370_661), (170, 14_638_185_472_122_787_333)],
    );
}
