//! Path interning: dense [`PathId`]s over a precomputed path population.
//!
//! # Why intern
//!
//! Algorithm BW's cost is dominated by path-indexed work: RedundantFlood
//! propagates a value along *every* redundant path, and FIFO reception
//! tracks one ordered channel per `(initiator, simple path)` pair. The path
//! population is enumerated **once** per topology at startup — yet a naïve
//! implementation keeps cloning and hashing owned `Path(Vec<NodeId>)`
//! values per message, per hop. Interning replaces every hot-path `Path` by
//! a `u32` [`PathId`] into a [`PathIndex`] that keeps, per path id:
//!
//! * its [`NodeSet`] bitmask — `intersects` / `is_within` become a handful
//!   of word-wise ANDs;
//! * `init` / `ter` endpoints and simple/trivial classification;
//! * a forwarding table `extend: PathId × NodeId → Option<PathId>`, so
//!   "does `p‖w` stay admissible, and which path is it?" is one array
//!   lookup instead of clone + `extended()` + `is_simple()` re-scan.
//!
//! The index also exposes the *transposed* view: per node `v`, `u64`
//! bitmaps over the whole id space marking the paths that contain `v`
//! ([`PathIndex::member_words`]), start at `v` ([`PathIndex::init_words`])
//! or end at `v` ([`PathIndex::terminal_words`]). A columnar message set
//! whose presence bitmap shares this id-indexed layout turns the paper's
//! set algebra — exclusion `M|_Ā`, fullness for `(A, v)` — into
//! word-at-a-time AND/ANDNOT/popcount scans over these masks.
//!
//! The index keeps no path sequences: [`PathIndex::resolve`] maps a node
//! sequence to its id, and there is no way back.
//!
//! # Trust boundary: Byzantine-supplied paths
//!
//! Interning is an *optimization*, not an assumption. Honest nodes only
//! ever produce interned paths (they start from trivial paths and extend
//! through the table), but a Byzantine sender controls every bit it sends,
//! so wire messages may carry ids that intern nothing. Receivers therefore
//! **resolve** incoming references at the validation boundary —
//! [`PathIndex::contains_id`] for id-carrying wires, [`PathIndex::resolve`]
//! for explicit node sequences (such as the paths an adversary forges) —
//! and drop anything unknown, exactly as the paper's model lets
//! a receiver drop provably forged messages. `resolve` keeps no map of its
//! own: it rejects nodes outside the graph, then walks the forwarding
//! table hop by hop from the sequence's first node, so a forged sequence
//! falls out at its first non-edge or inadmissible hop. Every id accepted past
//! validation refers to a path that was enumerated from the real graph, so
//! downstream code may use the precomputed metadata without re-checking
//! path validity.
//!
//! # Population and closure
//!
//! The index is built from per-terminal enumerations (redundant paths in
//! the paper's flood mode, simple paths in the ablation). Because the
//! population contains *every* admissible path of its class, the class is
//! closed under admissible extension: `extend` returns `Some` **iff** the
//! extension is again in the population. Flood-mode admissibility checks
//! thus collapse into table membership.

use crate::digraph::Digraph;
use crate::fasthash::{FastHashMap, FastHasher};
use crate::node::NodeId;
use crate::nodeset::NodeSet;
use crate::paths::Path;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;

/// Dense identifier of an interned path.
///
/// Ids are assigned in deterministic order (terminal-major, enumeration
/// order within a terminal), so all nodes sharing a topology agree on the
/// numbering and ids are valid on the wire.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PathId(u32);

impl PathId {
    /// Reconstructs an id from its raw wire representation. The result is
    /// **unvalidated**: check [`PathIndex::contains_id`] before trusting it.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        PathId(raw)
    }

    /// The raw wire representation.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The id as a dense array index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Sentinel for "no interned extension" in the flat forwarding table, and
/// for the end of a hash chain while it is filled.
const NO_EXT: u32 = u32::MAX;

/// Content hash of a node sequence, for finding prefixes while the
/// forwarding table is filled.
fn seq_hash(nodes: &[NodeId]) -> u64 {
    let mut h = FastHasher::default();
    for &v in nodes {
        h.write_u32(v.index() as u32);
    }
    h.write_usize(nodes.len());
    h.finish()
}

/// An immutable intern table over a graph's enumerated path population:
/// per-id columns and the forwarding table, but no path sequences.
#[derive(Debug)]
pub struct PathIndex {
    /// Out-neighborhoods of the graph, for extension-rank computation.
    out: Vec<NodeSet>,
    /// id → the path's node-set bitmask.
    node_sets: Vec<NodeSet>,
    /// id → `init(p)`.
    inits: Vec<NodeId>,
    /// id → `ter(p)`.
    ters: Vec<NodeId>,
    /// id → number of node occurrences (trivial paths have 1).
    lens: Vec<u32>,
    /// id → whether the path is simple.
    simple: Vec<bool>,
    /// node → id of the trivial path `⟨v⟩`.
    trivial: Vec<PathId>,
    /// terminal → ids of all interned paths ending there.
    by_terminal: Vec<Vec<PathId>>,
    /// terminal → ids of the *simple* interned paths ending there.
    simple_by_terminal: Vec<Vec<PathId>>,
    /// id → offset into `ext_entries`.
    ext_offsets: Vec<u32>,
    /// Flat forwarding table: for each id, one entry per out-neighbor of
    /// its terminal (ascending node order); `NO_EXT` if `p‖w` is not
    /// interned.
    ext_entries: Vec<u32>,
    /// Number of `u64` words covering the id space (`ceil(len / 64)`).
    word_count: usize,
    /// node → bitmap over ids: paths whose node set contains the node.
    member_words: Vec<Vec<u64>>,
    /// node → bitmap over ids: paths starting at the node.
    init_words: Vec<Vec<u64>>,
    /// node → bitmap over ids: paths ending at the node.
    terminal_words: Vec<Vec<u64>>,
}

impl PathIndex {
    /// Interns the given per-terminal path population over `graph`.
    ///
    /// `pools[v]` must list distinct paths ending at node `v` that are
    /// valid in `graph`. Ids follow pool order, each pool behind the
    /// trivial path `⟨v⟩`, which is interned for every node; a pool may
    /// list `⟨v⟩` itself or omit it. The pools are read in place, not copied.
    ///
    /// # Panics
    ///
    /// Panics if a pooled path does not end at its pool's terminal, is
    /// invalid in `graph`, is listed twice (other than `⟨v⟩`), or has a
    /// one-step prefix outside the population, or if the population
    /// exceeds `u32::MAX` paths.
    #[must_use]
    pub fn build(graph: &Digraph, pools: &[Vec<Path>]) -> Self {
        let n = graph.node_count();
        assert_eq!(pools.len(), n, "one pool per node required");

        // Intern in pool order with no lookup: the one repeat a pool may
        // hold is `⟨v⟩`, and any other duplicate trips the forwarding-table
        // fill below, where both copies claim the same slot. `paths` borrows
        // each id's path from the pools, or `⟨v⟩` from `singles`.
        let singles: Vec<Path> = graph.nodes().map(Path::single).collect();
        let mut paths: Vec<&Path> =
            Vec::with_capacity(n + pools.iter().map(Vec::len).sum::<usize>());
        let mut by_terminal: Vec<Vec<PathId>> = Vec::with_capacity(n);
        let mut trivial = Vec::with_capacity(n);
        for ((v, pool), single) in pools.iter().enumerate().zip(&singles) {
            let v = NodeId::new(v);
            let first = paths.len();
            paths.push(single);
            for path in pool {
                assert_eq!(path.ter(), v, "pooled path must end at its terminal");
                assert!(path.is_valid_in(graph), "pooled path invalid in graph");
                if !path.is_empty() {
                    paths.push(path);
                }
            }
            assert!(paths.len() <= NO_EXT as usize, "path population exceeds u32 ids");
            trivial.push(PathId(first as u32));
            by_terminal.push((first..paths.len()).map(|id| PathId(id as u32)).collect());
        }

        let node_sets: Vec<NodeSet> = paths.iter().map(|p| p.node_set()).collect();
        let inits: Vec<NodeId> = paths.iter().map(|p| p.init()).collect();
        let ters: Vec<NodeId> = paths.iter().map(|p| p.ter()).collect();
        let lens: Vec<u32> = paths.iter().map(|p| p.node_count() as u32).collect();
        let simple: Vec<bool> = paths.iter().map(|p| p.is_simple()).collect();
        let simple_by_terminal: Vec<Vec<PathId>> = by_terminal
            .iter()
            .map(|pool| pool.iter().copied().filter(|id| simple[id.index()]).collect())
            .collect();

        let out: Vec<NodeSet> = (0..n).map(|v| graph.out_neighbors(NodeId::new(v))).collect();
        let mut ext_offsets = Vec::with_capacity(paths.len());
        let mut total = 0usize;
        for &t in &ters {
            ext_offsets.push(u32::try_from(total).expect("extension table overflow"));
            total += out[t.index()].len();
        }
        // Fill by prefix registration: every non-trivial interned path is
        // the extension of its one-step prefix, and path classes are
        // prefix-closed (dropping the last node keeps a path simple resp.
        // redundant), so the prefix is always interned. Prefixes are found
        // through a transient content-hash map to the last id with that
        // hash, chained through `earlier` to the other ids sharing it; both
        // are dropped when `build` returns.
        let mut heads: FastHashMap<u64, u32> =
            FastHashMap::with_capacity_and_hasher(paths.len(), Default::default());
        let mut earlier = vec![NO_EXT; paths.len()];
        for (id, path) in paths.iter().enumerate() {
            if let Some(prev) = heads.insert(seq_hash(path.nodes()), id as u32) {
                earlier[id] = prev;
            }
        }
        let mut ext_entries = vec![NO_EXT; total];
        for (id, path) in paths.iter().enumerate() {
            let nodes = path.nodes();
            let Some((&last, prefix)) = nodes.split_last() else { unreachable!("non-empty") };
            if prefix.is_empty() {
                continue; // trivial paths extend others, nothing precedes them
            }
            let mut pid = heads.get(&seq_hash(prefix)).copied().unwrap_or(NO_EXT);
            while pid != NO_EXT && paths[pid as usize].nodes() != prefix {
                pid = earlier[pid as usize];
            }
            assert_ne!(pid, NO_EXT, "one-step prefix of an interned path is interned");
            let neighbors = out[prefix.last().expect("non-empty prefix").index()];
            debug_assert!(neighbors.contains(last), "pooled path uses a non-edge");
            let slot = ext_offsets[pid as usize] as usize + neighbors.rank_below(last);
            assert_eq!(ext_entries[slot], NO_EXT, "duplicate pooled path {path}");
            ext_entries[slot] = id as u32;
        }

        // Transposed per-node masks over the id space, for columnar scans.
        let word_count = paths.len().div_ceil(64);
        let mut member_words = vec![vec![0u64; word_count]; n];
        let mut init_words = vec![vec![0u64; word_count]; n];
        let mut terminal_words = vec![vec![0u64; word_count]; n];
        for id in 0..paths.len() {
            let (word, bit) = (id / 64, 1u64 << (id % 64));
            for v in node_sets[id].iter() {
                member_words[v.index()][word] |= bit;
            }
            init_words[inits[id].index()][word] |= bit;
            terminal_words[ters[id].index()][word] |= bit;
        }

        PathIndex {
            out,
            node_sets,
            inits,
            ters,
            lens,
            simple,
            trivial,
            by_terminal,
            simple_by_terminal,
            ext_offsets,
            ext_entries,
            word_count,
            member_words,
            init_words,
            terminal_words,
        }
    }

    /// Number of interned paths.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ters.len()
    }

    /// Returns `true` if nothing is interned (never happens for a built
    /// index: trivial paths are always present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ters.is_empty()
    }

    /// Returns `true` if `id` refers to an interned path. This is the
    /// validation gate for ids arriving on the wire.
    #[must_use]
    pub fn contains_id(&self, id: PathId) -> bool {
        id.index() < self.ters.len()
    }

    /// Resolves an explicit node sequence to its id, or `None` for paths
    /// outside the population (forged, malformed, or simply inadmissible).
    ///
    /// Walks the forwarding table from the trivial path of the first node,
    /// one [`PathIndex::extend`] per further node. The population is
    /// prefix-closed, so every interned path is reached this way; a
    /// sequence naming a node outside the graph is rejected before the
    /// walk.
    #[must_use]
    pub fn resolve(&self, path: &Path) -> Option<PathId> {
        let nodes = path.nodes();
        if nodes.iter().any(|v| v.index() >= self.trivial.len()) {
            return None;
        }
        nodes[1..].iter().try_fold(self.trivial(nodes[0]), |id, &w| self.extend(id, w))
    }

    /// The path's node-set bitmask.
    #[must_use]
    pub fn node_set(&self, id: PathId) -> NodeSet {
        self.node_sets[id.index()]
    }

    /// `init(p)` — the path's first node.
    #[must_use]
    pub fn init(&self, id: PathId) -> NodeId {
        self.inits[id.index()]
    }

    /// `ter(p)` — the path's last node.
    #[must_use]
    pub fn ter(&self, id: PathId) -> NodeId {
        self.ters[id.index()]
    }

    /// Number of node occurrences (with repetition).
    #[must_use]
    pub fn node_count(&self, id: PathId) -> usize {
        self.lens[id.index()] as usize
    }

    /// Returns `true` for a simple path.
    #[must_use]
    pub fn is_simple(&self, id: PathId) -> bool {
        self.simple[id.index()]
    }

    /// Returns `true` for a trivial single-node path `⟨v⟩`.
    #[must_use]
    pub fn is_trivial(&self, id: PathId) -> bool {
        self.lens[id.index()] == 1
    }

    /// The id of the trivial path `⟨v⟩`.
    #[must_use]
    pub fn trivial(&self, v: NodeId) -> PathId {
        self.trivial[v.index()]
    }

    /// Returns `true` if the path shares a node with `set` — `C ∩ p ≠ ∅`
    /// as one AND.
    #[must_use]
    pub fn intersects(&self, id: PathId, set: NodeSet) -> bool {
        !self.node_sets[id.index()].is_disjoint(set)
    }

    /// Returns `true` if the path lies entirely inside `allowed` — `p ⊆ C`
    /// as one AND.
    #[must_use]
    pub fn is_within(&self, id: PathId, allowed: NodeSet) -> bool {
        self.node_sets[id.index()].is_subset(allowed)
    }

    /// All interned paths ending at `v`, in id order.
    #[must_use]
    pub fn paths_ending_at(&self, v: NodeId) -> &[PathId] {
        &self.by_terminal[v.index()]
    }

    /// The simple interned paths ending at `v`, in id order.
    #[must_use]
    pub fn simple_paths_ending_at(&self, v: NodeId) -> &[PathId] {
        &self.simple_by_terminal[v.index()]
    }

    /// The forwarding table: the id of `p‖w`, or `None` when the extension
    /// leaves the population (inadmissible) or `(ter(p), w)` is not an
    /// edge. One rank computation and one array load.
    #[must_use]
    pub fn extend(&self, id: PathId, w: NodeId) -> Option<PathId> {
        let t = self.ters[id.index()];
        let neighbors = self.out[t.index()];
        if !neighbors.contains(w) {
            return None;
        }
        let rank = neighbors.rank_below(w);
        let entry = self.ext_entries[self.ext_offsets[id.index()] as usize + rank];
        (entry != NO_EXT).then_some(PathId(entry))
    }

    /// Like [`PathIndex::extend`], additionally requiring the extension to
    /// be simple (the FIFO-flood discipline for `COMPLETE` messages).
    #[must_use]
    pub fn extend_simple(&self, id: PathId, w: NodeId) -> Option<PathId> {
        self.extend(id, w).filter(|&ext| self.simple[ext.index()])
    }

    /// Number of `u64` words covering the id space (`ceil(len / 64)`).
    /// All per-node masks below have exactly this length.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.word_count
    }

    /// Bitmap over ids (bit `i` of word `i / 64`): paths containing `v`.
    /// ANDNOT against a presence bitmap is the exclusion `M|_{v̄}` scan.
    #[must_use]
    pub fn member_words(&self, v: NodeId) -> &[u64] {
        &self.member_words[v.index()]
    }

    /// Bitmap over ids: paths with `init(p) = v`. AND against a presence
    /// bitmap finds the messages reported by initiator `v`.
    #[must_use]
    pub fn init_words(&self, v: NodeId) -> &[u64] {
        &self.init_words[v.index()]
    }

    /// Bitmap over ids: paths with `ter(p) = v` — the fullness requirement
    /// pool for terminal `v` in mask form.
    #[must_use]
    pub fn terminal_words(&self, v: NodeId) -> &[u64] {
        &self.terminal_words[v.index()]
    }

    /// The word at `word` of the union mask `⋃_{a ∈ set} member_words(a)`:
    /// the ids whose path meets `set`, one word at a time. This is the
    /// kernel of the columnar exclusion and fullness scans.
    #[must_use]
    pub fn excluded_word(&self, set: NodeSet, word: usize) -> u64 {
        set.iter().fold(0u64, |acc, a| acc | self.member_words[a.index()][word])
    }

    /// The fullness-requirement census for `(a, v)`: how many pool paths
    /// end at `v` and avoid `a` — `popcount(terminal ∧ ¬excluded)` word at
    /// a time. The single source of truth for every per-guess requirement
    /// counter (BW witness threads, crash-protocol rounds).
    #[must_use]
    pub fn required_count(&self, a: NodeSet, v: NodeId) -> usize {
        let terminal = &self.terminal_words[v.index()];
        (0..self.word_count)
            .map(|w| (terminal[w] & !self.excluded_word(a, w)).count_ones() as usize)
            .sum()
    }

    /// The word range of the id space covering every interned path ending
    /// at `v`. Ids are assigned terminal-major, so a terminal's pool is a
    /// contiguous id block; scans that pair a per-terminal mask with a
    /// presence column only need to walk these words, not the whole id
    /// space. Never empty: the trivial path `⟨v⟩` is always interned.
    #[must_use]
    pub fn terminal_word_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let pool = &self.by_terminal[v.index()];
        let first = pool.first().expect("trivial path always interned").index();
        let last = pool.last().expect("trivial path always interned").index();
        debug_assert!(
            pool.len() == last - first + 1,
            "terminal-major id assignment keeps a pool contiguous"
        );
        (first / 64)..(last / 64 + 1)
    }

    /// Materializes the per-guess avoiding mask for `(set, v)` over a word
    /// range: `terminal_words(v) ∧ ¬⋃_{a ∈ set} member_words(a)`, i.e. the
    /// pool paths ending at `v` that avoid `set`, in word form. This is the
    /// mask a witness thread probes per flood arrival (one load + AND
    /// replaces a per-path `NodeSet` disjointness test) and scans for its
    /// Maximal-Consistency census; `popcount` of the result equals
    /// [`PathIndex::required_count`].
    #[must_use]
    pub fn avoiding_words(
        &self,
        set: NodeSet,
        v: NodeId,
        words: std::ops::Range<usize>,
    ) -> Vec<u64> {
        let terminal = &self.terminal_words[v.index()];
        words.map(|w| terminal[w] & !self.excluded_word(set, w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::paths::{redundant_paths_ending_at, simple_paths_ending_at, PathBudget};
    use crate::GraphError;

    /// Two bridged K3s: directed, non-complete, population small enough
    /// to check exhaustively in debug builds (the full figure-1b(small)
    /// population is ~4·10⁵ paths).
    fn small_bridged() -> Digraph {
        generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)])
    }

    type Enumerate = fn(&Digraph, NodeId, NodeSet, PathBudget) -> Result<Vec<Path>, GraphError>;

    /// One pool per terminal of `graph`, from `enumerate`.
    fn pools_of(graph: &Digraph, enumerate: Enumerate) -> Vec<Vec<Path>> {
        graph
            .nodes()
            .map(|v| enumerate(graph, v, NodeSet::EMPTY, PathBudget::default()).unwrap())
            .collect()
    }

    fn build(graph: &Digraph) -> PathIndex {
        PathIndex::build(graph, &pools_of(graph, redundant_paths_ending_at))
    }

    /// The paths `PathIndex::build` interns from `pools`, in id order: per
    /// terminal `v`, first `⟨v⟩`, then the pool's non-trivial paths in pool
    /// order.
    fn in_id_order(pools: &[Vec<Path>]) -> Vec<Path> {
        pools
            .iter()
            .enumerate()
            .flat_map(|(v, pool)| {
                std::iter::once(Path::single(NodeId::new(v)))
                    .chain(pool.iter().filter(|p| !p.is_empty()).cloned())
            })
            .collect()
    }

    /// Builds over trivial-only pools, except `pools[v] = pool`.
    fn build_with(graph: &Digraph, v: usize, pool: &[&[usize]]) -> PathIndex {
        let mut pools: Vec<Vec<Path>> = graph.nodes().map(|v| vec![Path::single(v)]).collect();
        pools[v] = pool.iter().map(|seq| Path::from_indices(seq).unwrap()).collect();
        PathIndex::build(graph, &pools)
    }

    #[test]
    fn round_trip_over_full_population() {
        for graph in [generators::clique(4), small_bridged()] {
            let pools = pools_of(&graph, redundant_paths_ending_at);
            let index = PathIndex::build(&graph, &pools);
            let paths = in_id_order(&pools);
            assert!(!index.is_empty());
            assert_eq!(index.len(), paths.len());
            // Every interned path resolves to its own id, and the metadata
            // matches the owned path's own answers.
            for (raw, path) in paths.iter().enumerate() {
                let id = PathId::from_raw(raw as u32);
                assert!(index.contains_id(id));
                assert_eq!(index.resolve(path), Some(id), "{path}");
                assert_eq!(index.node_set(id), path.node_set());
                assert_eq!(index.init(id), path.init());
                assert_eq!(index.ter(id), path.ter());
                assert_eq!(index.node_count(id), path.node_count());
                assert_eq!(index.is_simple(id), path.is_simple());
                assert_eq!(index.is_trivial(id), path.is_empty());
                assert!(path.is_valid_in(&graph));
            }
            // Every enumerated path is present, with no duplicates.
            let simple = pools_of(&graph, simple_paths_ending_at);
            for v in graph.nodes() {
                let direct = &pools[v.index()];
                assert_eq!(direct.len(), index.paths_ending_at(v).len());
                for p in direct {
                    let id = index.resolve(p).expect("enumerated path interned");
                    assert!(index.paths_ending_at(v).contains(&id));
                }
                assert_eq!(simple[v.index()].len(), index.simple_paths_ending_at(v).len());
            }
        }
    }

    #[test]
    fn extend_table_agrees_with_owned_path_extension() {
        for graph in [generators::clique(4), small_bridged()] {
            let pools = pools_of(&graph, redundant_paths_ending_at);
            let index = PathIndex::build(&graph, &pools);
            let paths = in_id_order(&pools);
            for (raw, path) in paths.iter().enumerate() {
                let id = PathId::from_raw(raw as u32);
                for w in graph.nodes() {
                    let expected = if graph.has_edge(path.ter(), w) {
                        path.extended(w).ok().filter(|e| e.is_redundant())
                    } else {
                        None
                    };
                    let got = index.extend(id, w).map(|e| paths[e.index()].clone());
                    assert_eq!(got, expected, "extend({path}, {w})");
                    // extend_simple additionally demands simplicity.
                    let got_simple = index.extend_simple(id, w).map(|e| paths[e.index()].clone());
                    assert_eq!(got_simple, expected.filter(Path::is_simple));
                }
            }
        }
    }

    #[test]
    fn unknown_and_forged_paths_resolve_to_none() {
        let graph = small_bridged();
        let index = build(&graph);
        // An id past the population is rejected, not a panic.
        assert!(!index.contains_id(PathId::from_raw(index.len() as u32)));
        assert!(!index.contains_id(PathId::from_raw(u32::MAX)));
        // A sequence using a non-edge (w1 -> v1 is absent: only v1 -> w1).
        let forged = Path::from_indices(&[3, 0]).unwrap();
        assert!(!forged.is_valid_in(&graph));
        assert_eq!(index.resolve(&forged), None);
        // A non-redundant sequence over real edges.
        let non_redundant = Path::from_indices(&[0, 1, 0, 1, 0, 1]).unwrap();
        assert!(non_redundant.is_valid_in(&graph) && !non_redundant.is_redundant());
        assert_eq!(index.resolve(&non_redundant), None);
    }

    #[test]
    fn out_of_graph_nodes_resolve_to_none() {
        let index = build(&generators::clique(4));
        for seq in [&[0, 99][..], &[99], &[99, 0], &[0, 1, 99]] {
            assert_eq!(index.resolve(&Path::from_indices(seq).unwrap()), None, "{seq:?}");
        }
    }

    #[test]
    fn simple_population_round_trips_through_resolve() {
        // The crash protocol's index: simple paths only.
        let graph = small_bridged();
        let pools = pools_of(&graph, simple_paths_ending_at);
        let index = PathIndex::build(&graph, &pools);
        let paths = in_id_order(&pools);
        assert_eq!(index.len(), paths.len());
        for (raw, path) in paths.iter().enumerate() {
            assert_eq!(index.resolve(path), Some(PathId::from_raw(raw as u32)), "{path}");
        }
        // A redundant but non-simple sequence is outside this population.
        assert_eq!(index.resolve(&Path::from_indices(&[0, 1, 0]).unwrap()), None);
    }

    #[test]
    fn trivial_path_listed_in_its_own_pool_is_interned_once() {
        let graph = generators::clique(3);
        let pools = pools_of(&graph, simple_paths_ending_at);
        assert!(graph.nodes().all(|v| pools[v.index()].contains(&Path::single(v))));
        let index = PathIndex::build(&graph, &pools);
        assert_eq!(index.len(), pools.iter().map(Vec::len).sum::<usize>());
        for v in graph.nodes() {
            assert_eq!(index.paths_ending_at(v).len(), pools[v.index()].len());
            assert_eq!(index.paths_ending_at(v)[0], index.trivial(v));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate pooled path")]
    fn duplicated_pooled_path_panics() {
        build_with(&generators::clique(3), 1, &[&[0, 1], &[0, 1]]);
    }

    #[test]
    #[should_panic(expected = "pooled path must end at its terminal")]
    fn pooled_path_at_another_terminal_panics() {
        build_with(&generators::clique(3), 1, &[&[1], &[0, 2]]);
    }

    #[test]
    #[should_panic(expected = "pooled path invalid in graph")]
    fn pooled_path_over_a_non_edge_panics() {
        build_with(&generators::directed_path(3), 0, &[&[0], &[1, 0]]); // only 0 → 1 → 2
    }

    #[test]
    #[should_panic(expected = "pooled path invalid in graph")]
    fn pooled_path_through_a_node_outside_the_graph_panics() {
        build_with(&generators::clique(3), 1, &[&[1], &[7, 1]]);
    }

    #[test]
    #[should_panic(expected = "one-step prefix of an interned path is interned")]
    fn pooled_path_without_its_prefix_panics() {
        // ⟨0,1,2⟩ is pooled at 2, but its prefix ⟨0,1⟩ is not pooled at 1.
        build_with(&generators::clique(3), 2, &[&[2], &[1, 2], &[0, 1, 2]]);
    }

    #[test]
    fn trivial_paths_always_interned() {
        let graph = generators::directed_path(4); // sparse: tiny pools
        let index = PathIndex::build(&graph, &pools_of(&graph, simple_paths_ending_at));
        for v in graph.nodes() {
            let t = index.trivial(v);
            assert!(index.is_trivial(t));
            assert_eq!(index.init(t), v);
            assert_eq!(index.ter(t), v);
        }
    }

    #[test]
    fn per_node_word_masks_transpose_the_metadata() {
        for graph in [generators::clique(4), small_bridged()] {
            let index = build(&graph);
            assert_eq!(index.word_count(), index.len().div_ceil(64));
            for v in graph.nodes() {
                let member = index.member_words(v);
                let init = index.init_words(v);
                let terminal = index.terminal_words(v);
                assert_eq!(member.len(), index.word_count());
                assert_eq!(init.len(), index.word_count());
                assert_eq!(terminal.len(), index.word_count());
                for raw in 0..index.len() as u32 {
                    let id = PathId::from_raw(raw);
                    let (w, b) = (id.index() / 64, 1u64 << (id.index() % 64));
                    assert_eq!(member[w] & b != 0, index.node_set(id).contains(v), "{id} ∋ {v}");
                    assert_eq!(init[w] & b != 0, index.init(id) == v);
                    assert_eq!(terminal[w] & b != 0, index.ter(id) == v);
                }
                // No mask bit past the population.
                for (w, &word) in member.iter().enumerate() {
                    let valid = if (w + 1) * 64 <= index.len() {
                        u64::MAX
                    } else {
                        (1u64 << (index.len() % 64)) - 1
                    };
                    assert_eq!(word & !valid, 0, "ghost bits in word {w}");
                }
            }
        }
    }

    #[test]
    fn required_count_matches_pool_filter() {
        for graph in [generators::clique(4), small_bridged()] {
            let index = build(&graph);
            let sets = [
                NodeSet::EMPTY,
                NodeSet::singleton(NodeId::new(1)),
                [NodeId::new(0), NodeId::new(2)].into_iter().collect(),
            ];
            for v in graph.nodes() {
                for &a in &sets {
                    let direct = index
                        .paths_ending_at(v)
                        .iter()
                        .filter(|&&p| !index.intersects(p, a))
                        .count();
                    assert_eq!(index.required_count(a, v), direct, "census({a:?}, {v})");
                }
            }
        }
    }

    #[test]
    fn terminal_word_range_covers_exactly_the_pool() {
        for graph in [generators::clique(4), small_bridged()] {
            let index = build(&graph);
            for v in graph.nodes() {
                let words = index.terminal_word_range(v);
                assert!(!words.is_empty());
                for raw in 0..index.len() as u32 {
                    let id = PathId::from_raw(raw);
                    if index.ter(id) == v {
                        assert!(words.contains(&(id.index() / 64)), "{id} outside range of {v}");
                    }
                }
                // The range is tight: its boundary words carry pool bits.
                let terminal = index.terminal_words(v);
                assert_ne!(terminal[words.start], 0);
                assert_ne!(terminal[words.end - 1], 0);
            }
        }
    }

    #[test]
    fn avoiding_words_match_the_filtered_pool() {
        for graph in [generators::clique(4), small_bridged()] {
            let index = build(&graph);
            let sets = [
                NodeSet::EMPTY,
                NodeSet::singleton(NodeId::new(1)),
                [NodeId::new(0), NodeId::new(2)].into_iter().collect(),
            ];
            for v in graph.nodes() {
                let words = index.terminal_word_range(v);
                for &a in &sets {
                    let mask = index.avoiding_words(a, v, words.clone());
                    assert_eq!(mask.len(), words.len());
                    let count: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
                    assert_eq!(count, index.required_count(a, v), "census({a:?}, {v})");
                    for (w, &word) in mask.iter().enumerate() {
                        for b in 0..64 {
                            let id = PathId::from_raw(((words.start + w) * 64 + b) as u32);
                            let expected = index.contains_id(id)
                                && index.ter(id) == v
                                && !index.intersects(id, a);
                            assert_eq!(word & (1 << b) != 0, expected, "{id} in mask({a:?}, {v})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn excluded_word_is_the_member_union() {
        let graph = small_bridged();
        let index = build(&graph);
        let set: NodeSet = [NodeId::new(0), NodeId::new(4)].into_iter().collect();
        for w in 0..index.word_count() {
            let expected =
                index.member_words(NodeId::new(0))[w] | index.member_words(NodeId::new(4))[w];
            assert_eq!(index.excluded_word(set, w), expected);
            assert_eq!(index.excluded_word(NodeSet::EMPTY, w), 0);
        }
    }

    #[test]
    fn bitmask_operations_match_path_semantics() {
        let graph = generators::clique(4);
        let pools = pools_of(&graph, redundant_paths_ending_at);
        let index = PathIndex::build(&graph, &pools);
        let set: NodeSet = [NodeId::new(1), NodeId::new(3)].into_iter().collect();
        for (raw, path) in in_id_order(&pools).iter().enumerate() {
            let id = PathId::from_raw(raw as u32);
            assert_eq!(index.intersects(id, set), path.intersects(set));
            assert_eq!(index.is_within(id, set), path.is_within(set));
        }
    }
}
