//! Path interning: dense [`PathId`]s over a precomputed path population.
//!
//! # Why intern
//!
//! Algorithm BW's cost is dominated by path-indexed work: RedundantFlood
//! propagates a value along *every* redundant path, and FIFO reception
//! tracks one ordered channel per `(initiator, simple path)` pair. The path
//! population is generated **once** per topology at startup — yet a naïve
//! implementation keeps cloning and hashing owned `Path(Vec<NodeId>)`
//! values per message, per hop. Interning replaces every hot-path `Path` by
//! a `u32` [`PathId`] into a [`PathIndex`] that answers, per path id:
//!
//! * its node set as a [`NodeSet`] bitmask, read from its class (below) —
//!   `intersects` / `is_within` become a handful of word-wise ANDs;
//! * `init` / `ter` endpoints and simple/trivial classification;
//! * a forwarding table `extend: PathId × NodeId → Option<PathId>`, so
//!   "does `p‖w` stay admissible, and which path is it?" is a rank
//!   computation and at most two loads instead of clone + `extended()` +
//!   `is_simple()` re-scan.
//!
//! # Layout: what is stored per id
//!
//! Every message reads this index, so it is kept to a few bytes per id.
//! Only two `u32` columns are per id: the node count, and the path's
//! *class*. A class is an `(init, node set)` pair; paths sharing both share
//! the class, and a small class table holds each pair once (686 classes
//! for the 378,762 ids of `figure_1b_small`, 80 on K5). `init`,
//! `node_set` and simplicity (node count = class size) read the table.
//!
//! The rest follows from the id layout. Ids are terminal-major: the paths
//! ending at `v` are the contiguous block `starts[v] .. starts[v + 1]`,
//! headed by the trivial path `⟨v⟩`. So `ter(id)` is a binary search over
//! the `n + 1` block starts, and the forwarding row of an id — one slot per
//! out-neighbor of its terminal, ascending — starts at its block's row
//! base plus `(id − start) · degree`. Most slots are empty, because most
//! extensions leave the population (1,361,560 slots hold 378,754 children
//! on `figure_1b_small`). The table therefore keeps a bitmap of the filled
//! slots, with the number of filled slots before each bitmap word, and the
//! children packed in slot order: a lookup tests the slot's bit and ranks
//! it into the packed list.
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
//! a receiver drop provably forged messages. A lookup on an id outside the
//! population panics instead of answering from a neighbouring block.
//! `resolve` keeps no map of its own: it rejects nodes outside the graph,
//! then walks the forwarding table hop by hop from the sequence's first
//! node, so a forged sequence falls out at its first non-edge or
//! inadmissible hop. Every id accepted past validation refers to a path
//! that was generated from the real graph, so downstream code may use the
//! precomputed metadata without re-checking path validity.
//!
//! # Population and closure
//!
//! [`PathIndex::redundant`] (the paper's flood mode) and
//! [`PathIndex::simple`] (the ablation and the crash protocol) generate
//! their population straight from the graph: one depth-first search per
//! initiator, from `⟨v⟩`, taking only admissible extensions. Each path is
//! interned as it is reached, linked to its one-step prefix, so no owned
//! path is ever built and nothing is walked twice. Admissibility is a
//! two-state automaton per path: while the path is simple, an extension
//! must leave it simple or make its first repeat; after that, it must keep
//! the suffix from the end of the longest simple prefix simple. That is
//! exact, because a path is redundant iff that suffix is simple.
//!
//! Because the population contains *every* admissible path of its class,
//! the class is closed under admissible extension: `extend` returns `Some`
//! **iff** the extension is again in the population. Flood-mode
//! admissibility checks thus collapse into table membership.
//!
//! [`PathIndex::build`] interns an explicit population instead, from
//! per-terminal pools such as those of
//! [`redundant_paths_ending_at`](crate::paths::redundant_paths_ending_at),
//! and numbers it in pool order. It serves as the oracle the generated
//! indexes are tested against.

use crate::digraph::Digraph;
use crate::error::GraphError;
use crate::fasthash::FastHashMap;
use crate::node::NodeId;
use crate::nodeset::{NodeSet, WordIter, NODE_WORDS};
use crate::paths::{Path, PathBudget};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;

/// Dense identifier of an interned path.
///
/// Ids are terminal-major: the trivial path `⟨v⟩` heads the block of the
/// paths ending at `v`. In a generated index the rest of the block follows
/// in generation order, by initiator ascending, then in depth-first
/// preorder with successors ascending; [`PathIndex::build`] follows pool
/// order. The numbering is a pure function of the graph (and the pools),
/// so all nodes sharing a topology agree on it and ids are valid on the
/// wire.
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

/// Sentinel for an unset class while an index is assembled, for an empty
/// slot of `build`'s walk table, and for a memo miss of the class steps.
const NONE: u32 = u32::MAX;

/// `Assembly::slot_of`'s entry for a trivial path, which fills no slot.
const NO_SLOT: usize = usize::MAX;

/// The `(init, node set)` pair shared by the paths of one class.
#[derive(Debug)]
struct PathClass {
    init: NodeId,
    node_set: NodeSet,
    /// `|node_set|`: a path of the class is simple iff it has this many
    /// node occurrences.
    size: u32,
}

/// The forwarding rows of one terminal's id block.
#[derive(Debug)]
struct TerminalRows {
    /// Out-neighbors of the terminal: each row has one slot per member,
    /// ascending.
    out: NodeSet,
    /// `|out|`, the row width.
    degree: usize,
    /// Slot of the block's first row.
    base: usize,
}

impl TerminalRows {
    /// The first slot of the row of the path at `offset` in the block.
    fn row(&self, offset: u32) -> usize {
        self.base + offset as usize * self.degree
    }

    /// The slot of `p‖w`, for `p` at `offset` in the block and `w ∈ out`.
    fn slot(&self, offset: u32, w: NodeId) -> usize {
        self.row(offset) + self.out.rank_below(w)
    }
}

/// One bitmap word of the forwarding table: which of its 64 slots are
/// filled, and how many filled slots precede it.
#[derive(Clone, Copy, Debug)]
struct SlotWord {
    filled: u64,
    before: u32,
}

/// The forwarding table without its empty slots.
#[derive(Debug)]
struct Forwarding {
    words: Vec<SlotWord>,
    /// The children of the filled slots, in slot order.
    children: Vec<PathId>,
}

impl Forwarding {
    /// Packs the children given the bitmap of the filled slots and, per
    /// id, the slot holding it (`NO_SLOT` for a trivial path).
    fn pack(filled: Vec<u64>, slot_of: &[usize]) -> Self {
        let mut before = 0;
        let words = filled
            .into_iter()
            .map(|bits| {
                let word = SlotWord { filled: bits, before };
                before += bits.count_ones();
                word
            })
            .collect();
        let mut forwarding = Forwarding { words, children: vec![PathId(0); before as usize] };
        for (id, &slot) in slot_of.iter().enumerate() {
            if slot != NO_SLOT {
                let rank = forwarding.rank(slot);
                forwarding.children[rank] = PathId(id as u32);
            }
        }
        forwarding
    }

    fn is_filled(&self, slot: usize) -> bool {
        self.words[slot / 64].filled & (1 << (slot % 64)) != 0
    }

    /// The position of a filled slot's child in `children`.
    fn rank(&self, slot: usize) -> usize {
        let word = self.words[slot / 64];
        word.before as usize + (word.filled & ((1 << (slot % 64)) - 1)).count_ones() as usize
    }

    fn get(&self, slot: usize) -> Option<PathId> {
        self.is_filled(slot).then(|| self.children[self.rank(slot)])
    }
}

/// Assigns classes while paths are linked one node at a time: the class
/// of `p‖w` is the class of `p` stepped by `w`, memoised per
/// `(class, w)`, so the `(init, node set)` map is only hashed on a memo
/// miss — at most once per class and node.
struct ClassInterner {
    n: usize,
    classes: Vec<PathClass>,
    /// `class · n + w` → the class of a path of `class` extended by `w`,
    /// or `NONE` before the first such step.
    steps: Vec<u32>,
    by_pair: FastHashMap<(NodeId, NodeSet), u32>,
}

impl ClassInterner {
    fn new(n: usize) -> Self {
        ClassInterner { n, classes: Vec::new(), steps: Vec::new(), by_pair: FastHashMap::default() }
    }

    fn intern(&mut self, init: NodeId, node_set: NodeSet) -> u32 {
        if let Some(&class) = self.by_pair.get(&(init, node_set)) {
            return class;
        }
        let class = self.classes.len() as u32;
        self.classes.push(PathClass { init, node_set, size: node_set.len() as u32 });
        self.steps.resize(self.steps.len() + self.n, NONE);
        self.by_pair.insert((init, node_set), class);
        class
    }

    fn step(&mut self, class: u32, w: NodeId) -> u32 {
        let memo = class as usize * self.n + w.index();
        if self.steps[memo] == NONE {
            let PathClass { init, node_set, .. } = self.classes[class as usize];
            self.steps[memo] = if node_set.contains(w) {
                class
            } else {
                self.intern(init, node_set | NodeSet::singleton(w))
            };
        }
        self.steps[memo]
    }
}

/// The ids ordered by node count, shortest first (a counting sort).
fn shortest_first(lens: &[u32]) -> Vec<u32> {
    let longest = lens.iter().copied().max().unwrap_or(0) as usize;
    let mut next = vec![0usize; longest + 2];
    for &len in lens {
        next[len as usize + 1] += 1;
    }
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }
    let mut order = vec![0u32; lens.len()];
    for (id, &len) in lens.iter().enumerate() {
        order[next[len as usize]] = id as u32;
        next[len as usize] += 1;
    }
    order
}

/// The tail every constructor shares. Once the ids are laid out in
/// terminal blocks, each non-trivial path is linked to its one-step
/// prefix, prefixes first; the classes, node counts and forwarding slots
/// follow from those links, and [`Assembly::finish`] derives the rest.
struct Assembly {
    starts: Vec<u32>,
    rows: Vec<TerminalRows>,
    interner: ClassInterner,
    classes: Vec<u32>,
    lens: Vec<u32>,
    /// Bitmap of the filled forwarding slots.
    filled: Vec<u64>,
    /// id → the forwarding slot holding it (`NO_SLOT` for `⟨v⟩`).
    slot_of: Vec<usize>,
}

impl Assembly {
    /// Lays out the blocks `starts` (`starts[n]` is the population size)
    /// and interns each trivial path `⟨v⟩` at the head of its block.
    fn new(graph: &Digraph, starts: Vec<u32>) -> Self {
        let n = graph.node_count();
        let len = starts[n] as usize;
        let mut slots = 0;
        let rows: Vec<TerminalRows> = graph
            .nodes()
            .map(|v| {
                let out = graph.out_neighbors(v);
                let rows = TerminalRows { out, degree: out.len(), base: slots };
                slots += (starts[v.index() + 1] - starts[v.index()]) as usize * out.len();
                rows
            })
            .collect();
        let mut interner = ClassInterner::new(n);
        let mut classes = vec![NONE; len];
        let mut lens = vec![0; len];
        for v in graph.nodes() {
            let id = starts[v.index()] as usize;
            classes[id] = interner.intern(v, NodeSet::singleton(v));
            lens[id] = 1;
        }
        Assembly {
            starts,
            rows,
            interner,
            classes,
            lens,
            filled: vec![0; slots.div_ceil(64)],
            slot_of: vec![NO_SLOT; len],
        }
    }

    /// The forwarding slot of `p‖w`, for the path `p` ending at `t`.
    fn slot(&self, p: u32, t: NodeId, w: NodeId) -> usize {
        self.rows[t.index()].slot(p - self.starts[t.index()], w)
    }

    /// Interns `id` as `p‖w`, for the already linked path `p` ending at `t`.
    fn link(&mut self, p: u32, t: NodeId, id: u32, w: NodeId) {
        let slot = self.slot(p, t, w);
        self.filled[slot / 64] |= 1 << (slot % 64);
        self.slot_of[id as usize] = slot;
        self.classes[id as usize] = self.interner.step(self.classes[p as usize], w);
        self.lens[id as usize] = self.lens[p as usize] + 1;
    }

    /// Packs the forwarding table and derives the per-node masks and the
    /// simple paths per terminal.
    fn finish(self) -> PathIndex {
        let Assembly { starts, rows, interner, classes, lens, filled, slot_of } = self;
        let n = rows.len();
        let forwarding = Forwarding::pack(filled, &slot_of);
        drop(slot_of);
        let class_table = interner.classes;

        // Transposed per-node masks over the id space, for columnar scans,
        // and the simple paths per terminal.
        let word_count = classes.len().div_ceil(64);
        let mut member_words = vec![vec![0u64; word_count]; n];
        let mut init_words = vec![vec![0u64; word_count]; n];
        let mut terminal_words = vec![vec![0u64; word_count]; n];
        let mut simple_by_terminal = vec![Vec::new(); n];
        for v in 0..n {
            for id in starts[v]..starts[v + 1] {
                let class = &class_table[classes[id as usize] as usize];
                let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                for u in class.node_set.iter() {
                    member_words[u.index()][word] |= bit;
                }
                init_words[class.init.index()][word] |= bit;
                terminal_words[v][word] |= bit;
                if lens[id as usize] == class.size {
                    simple_by_terminal[v].push(PathId(id));
                }
            }
        }

        PathIndex {
            starts,
            rows,
            classes,
            class_table,
            lens,
            simple_by_terminal,
            forwarding,
            word_count,
            member_words,
            init_words,
            terminal_words,
        }
    }
}

/// One node of the path a [`walk`] is on: the path's handle and
/// terminal, whether it has repeated a node, and the successors of its
/// terminal still to try.
struct Frame {
    handle: u32,
    ter: NodeId,
    cycled: bool,
    successors: WordIter<NODE_WORDS>,
}

/// Visits every path of the redundant population (`redundant`) or of the
/// simple one, by one depth-first search per initiator: initiators
/// ascending, each search in preorder with successors ascending. `visit`
/// sees each path once, after its one-step prefix, given the prefix's
/// handle and terminal (`None` for `⟨v⟩`) and the path's own terminal,
/// and returns the path's handle; an error stops the walk.
///
/// Admissibility is a two-state automaton, exact with no lookup. While a
/// path `p` is simple, `prefix` holds its node set, and `p‖w` is simple
/// iff `w ∉ p`. The first repeat `w ∈ p` switches the path to tracking its
/// suffix `⟨ter(p), w⟩` in `suffix`; from then on `p‖w` is admissible iff
/// `w` is not in that suffix. This is exact because a path is redundant
/// iff its suffix from the end of its longest simple prefix is simple. The
/// simple population never switches.
fn walk<E>(
    graph: &Digraph,
    redundant: bool,
    mut visit: impl FnMut(Option<(u32, NodeId)>, NodeId) -> Result<u32, E>,
) -> Result<(), E> {
    let frame = |handle, ter: NodeId, cycled| Frame {
        handle,
        ter,
        cycled,
        successors: graph.out_neighbors(ter).iter(),
    };
    let (mut prefix, mut suffix) = (NodeSet::EMPTY, NodeSet::EMPTY);
    let mut stack = Vec::new();
    for v in graph.nodes() {
        prefix.insert(v);
        stack.push(frame(visit(None, v)?, v, false));
        while let Some(top) = stack.last_mut() {
            let (handle, u, cycled) = (top.handle, top.ter, top.cycled);
            let Some(w) = top.successors.next() else {
                // Backtrack: `u` leaves the set it entered.
                if cycled {
                    suffix.remove(u);
                } else {
                    prefix.remove(u);
                }
                stack.pop();
                continue;
            };
            let repeats = !cycled && prefix.contains(w);
            if repeats {
                if !redundant {
                    continue;
                }
                suffix = NodeSet::singleton(u);
            }
            let cycled = cycled || repeats;
            if !(if cycled { &mut suffix } else { &mut prefix }).insert(w) {
                continue;
            }
            stack.push(frame(visit(Some((handle, u)), w)?, w, cycled));
        }
    }
    Ok(())
}

/// An immutable intern table over a graph's path population: per-id
/// classes and node counts, per-terminal id blocks, and the forwarding
/// table, but no path sequences.
#[derive(Debug)]
pub struct PathIndex {
    /// `starts[v] .. starts[v + 1]` are the ids of the paths ending at
    /// `v`, the first being `⟨v⟩`; `starts[n]` is the population size.
    starts: Vec<u32>,
    /// terminal → its out-neighborhood and forwarding-row base.
    rows: Vec<TerminalRows>,
    /// id → index of its class in `class_table`.
    classes: Vec<u32>,
    /// class → its `(init, node set)` pair.
    class_table: Vec<PathClass>,
    /// id → number of node occurrences (trivial paths have 1).
    lens: Vec<u32>,
    /// terminal → ids of the *simple* interned paths ending there.
    simple_by_terminal: Vec<Vec<PathId>>,
    /// `extend`'s table: slot `rows[t].slot(id − starts[t], w)` holds the
    /// id of `p‖w`, or is empty if `p‖w` is not interned.
    forwarding: Forwarding,
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
    /// Interns every redundant path of `graph` — the population of the
    /// paper's flood mode — generated straight from the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BudgetExceeded`] iff more than
    /// `budget.max_paths` redundant paths (`⟨v⟩` included) end at some
    /// node `v`: the verdict of
    /// [`redundant_paths_ending_at`](crate::paths::redundant_paths_ending_at)
    /// on some terminal.
    ///
    /// # Panics
    ///
    /// Panics if the population exceeds `u32::MAX` paths.
    pub fn redundant(graph: &Digraph, budget: PathBudget) -> Result<Self, GraphError> {
        Self::generate(graph, true, budget)
    }

    /// Interns every simple path of `graph` — the population of the
    /// ablation's flood mode and of the crash protocol — generated straight
    /// from the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BudgetExceeded`] iff more than
    /// `budget.max_paths` simple paths (`⟨v⟩` included) end at some node
    /// `v`: the verdict of
    /// [`simple_paths_ending_at`](crate::paths::simple_paths_ending_at) on
    /// some terminal.
    ///
    /// # Panics
    ///
    /// Panics if the population exceeds `u32::MAX` paths.
    pub fn simple(graph: &Digraph, budget: PathBudget) -> Result<Self, GraphError> {
        Self::generate(graph, false, budget)
    }

    /// Two walks over the same paths in the same order: the first sizes
    /// the terminal blocks and gives the budget verdict, stopping at the
    /// first terminal that overflows; the second numbers each path behind
    /// its block's `⟨v⟩` and links it to its prefix as it comes.
    fn generate(graph: &Digraph, redundant: bool, budget: PathBudget) -> Result<Self, GraphError> {
        let n = graph.node_count();
        let mut sizes = vec![0usize; n];
        walk(graph, redundant, |_, w| {
            let size = &mut sizes[w.index()];
            *size += 1;
            if *size > budget.max_paths {
                return Err(GraphError::BudgetExceeded { limit: budget.max_paths });
            }
            Ok(0)
        })?;
        let mut starts = Vec::with_capacity(n + 1);
        let mut total = 0;
        for size in sizes {
            starts.push(total as u32);
            total += size;
            assert!(total <= NONE as usize, "path population exceeds u32 ids");
        }
        starts.push(total as u32);

        let mut assembly = Assembly::new(graph, starts);
        let mut next: Vec<u32> = assembly.starts[..n].iter().map(|&start| start + 1).collect();
        walk(graph, redundant, |prefix, w| {
            let Some((p, t)) = prefix else { return Ok(assembly.starts[w.index()]) };
            let id = next[w.index()];
            next[w.index()] += 1;
            assembly.link(p, t, id, w);
            Ok::<_, Infallible>(id)
        })
        .unwrap_or_else(|never| match never {});
        Ok(assembly.finish())
    }

    /// Interns an explicit per-terminal path population over `graph`.
    ///
    /// `pools[v]` must list distinct paths ending at node `v` that are
    /// valid in `graph`. Ids follow pool order, each pool behind the
    /// trivial path `⟨v⟩`, which is interned for every node; a pool may
    /// list `⟨v⟩` itself or omit it. The pools are read in place, not
    /// copied. [`PathIndex::redundant`] and [`PathIndex::simple`] intern
    /// the full populations without pools, in their own id order.
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
        // hold is `⟨v⟩`, and any other duplicate trips the walk below,
        // where both copies claim the same slot. `paths` borrows each id's
        // path from the pools, or `⟨v⟩` from `singles`.
        let singles: Vec<Path> = graph.nodes().map(Path::single).collect();
        let mut paths: Vec<&Path> =
            Vec::with_capacity(n + pools.iter().map(Vec::len).sum::<usize>());
        let mut starts = Vec::with_capacity(n + 1);
        for ((v, pool), single) in pools.iter().enumerate().zip(&singles) {
            let v = NodeId::new(v);
            starts.push(paths.len() as u32);
            paths.push(single);
            for path in pool {
                assert_eq!(path.ter(), v, "pooled path must end at its terminal");
                assert!(path.is_valid_in(graph), "pooled path invalid in graph");
                if !path.is_empty() {
                    paths.push(path);
                }
            }
            assert!(paths.len() <= NONE as usize, "path population exceeds u32 ids");
        }
        starts.push(paths.len() as u32);
        let lens: Vec<u32> = paths.iter().map(|p| p.node_count() as u32).collect();
        let mut assembly = Assembly::new(graph, starts);

        // Link shortest paths first. Every non-trivial interned path is the
        // extension of its one-step prefix, and path classes are
        // prefix-closed (dropping the last node keeps a path simple resp.
        // redundant), so the prefix is interned, one node shorter, and
        // already in `table`, the children by forwarding slot: walking it
        // from `⟨init⟩` finds the prefix's id without any map over the
        // population.
        let mut table = vec![NONE; assembly.filled.len() * 64];
        for id in shortest_first(&lens) {
            let nodes = paths[id as usize].nodes();
            let Some((&last, prefix)) = nodes.split_last() else { unreachable!("non-empty") };
            let Some(&first) = prefix.first() else { continue };
            let mut parent = assembly.starts[first.index()];
            for hop in prefix.windows(2) {
                parent = table[assembly.slot(parent, hop[0], hop[1])];
                assert_ne!(parent, NONE, "one-step prefix of an interned path is interned");
            }
            let ter = prefix[prefix.len() - 1];
            let slot = assembly.slot(parent, ter, last);
            assert_eq!(table[slot], NONE, "duplicate pooled path {}", paths[id as usize]);
            table[slot] = id;
            assembly.link(parent, ter, id, last);
        }
        drop(table);
        assembly.finish()
    }

    /// Number of interned paths.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if nothing is interned (never happens for a built
    /// index: trivial paths are always present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Number of path classes: [`PathIndex::class`] is below it.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_table.len()
    }

    /// Number of nodes of the graph: one terminal id block per node.
    #[must_use]
    pub fn graph_node_count(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if `id` refers to an interned path. This is the
    /// validation gate for ids arriving on the wire.
    #[must_use]
    pub fn contains_id(&self, id: PathId) -> bool {
        id.index() < self.classes.len()
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
        if nodes.iter().any(|v| v.index() >= self.rows.len()) {
            return None;
        }
        nodes[1..].iter().try_fold(self.trivial(nodes[0]), |id, &w| self.extend(id, w))
    }

    /// The id block of terminal `v`.
    fn block(&self, v: usize) -> Range<u32> {
        self.starts[v]..self.starts[v + 1]
    }

    /// The terminal whose block holds `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not interned.
    fn terminal_of(&self, id: PathId) -> usize {
        assert!(self.contains_id(id), "{id} is not interned");
        self.starts.partition_point(|&start| start <= id.0) - 1
    }

    fn class_of(&self, id: PathId) -> &PathClass {
        &self.class_table[self.classes[id.index()] as usize]
    }

    /// The path's node-set bitmask.
    #[must_use]
    pub fn node_set(&self, id: PathId) -> NodeSet {
        self.class_of(id).node_set
    }

    /// `init(p)` — the path's first node.
    #[must_use]
    pub fn init(&self, id: PathId) -> NodeId {
        self.class_of(id).init
    }

    /// `ter(p)` — the path's last node.
    #[must_use]
    pub fn ter(&self, id: PathId) -> NodeId {
        NodeId::new(self.terminal_of(id))
    }

    /// The path's class, a dense index: two ids share a class iff their
    /// paths share both `init` and node set.
    #[must_use]
    pub fn class(&self, id: PathId) -> usize {
        self.classes[id.index()] as usize
    }

    /// Number of node occurrences (with repetition).
    #[must_use]
    pub fn node_count(&self, id: PathId) -> usize {
        self.lens[id.index()] as usize
    }

    /// Returns `true` for a simple path.
    #[must_use]
    pub fn is_simple(&self, id: PathId) -> bool {
        self.lens[id.index()] == self.class_of(id).size
    }

    /// Returns `true` for a trivial single-node path `⟨v⟩`.
    #[must_use]
    pub fn is_trivial(&self, id: PathId) -> bool {
        self.lens[id.index()] == 1
    }

    /// The id of the trivial path `⟨v⟩`.
    #[must_use]
    pub fn trivial(&self, v: NodeId) -> PathId {
        PathId(self.block(v.index()).start)
    }

    /// Returns `true` if the path shares a node with `set` — `C ∩ p ≠ ∅`
    /// as one AND.
    #[must_use]
    pub fn intersects(&self, id: PathId, set: NodeSet) -> bool {
        !self.node_set(id).is_disjoint(set)
    }

    /// Returns `true` if the path lies entirely inside `allowed` — `p ⊆ C`
    /// as one AND.
    #[must_use]
    pub fn is_within(&self, id: PathId, allowed: NodeSet) -> bool {
        self.node_set(id).is_subset(allowed)
    }

    /// All interned paths ending at `v`, in id order: one contiguous id
    /// range, starting with `⟨v⟩`.
    pub fn paths_ending_at(&self, v: NodeId) -> impl ExactSizeIterator<Item = PathId> + Clone {
        self.block(v.index()).map(PathId)
    }

    /// The simple interned paths ending at `v`, in id order.
    #[must_use]
    pub fn simple_paths_ending_at(&self, v: NodeId) -> &[PathId] {
        &self.simple_by_terminal[v.index()]
    }

    /// The forwarding table: the id of `p‖w`, or `None` when the extension
    /// leaves the population (inadmissible) or `(ter(p), w)` is not an
    /// edge. A rank computation, one bitmap-word load, and one load from
    /// the packed children when the slot is filled.
    #[must_use]
    pub fn extend(&self, id: PathId, w: NodeId) -> Option<PathId> {
        let t = self.terminal_of(id);
        let rows = &self.rows[t];
        if !rows.out.contains(w) {
            return None;
        }
        self.forwarding.get(rows.slot(id.0 - self.starts[t], w))
    }

    /// The out-neighbors `w` of `ter(p)` for which `p‖w` is interned, in
    /// ascending order — the `w` where [`PathIndex::extend`] is `Some`,
    /// read from the slot bitmap alone.
    pub fn extension_targets(&self, id: PathId) -> impl Iterator<Item = NodeId> + '_ {
        let t = self.terminal_of(id);
        let rows = &self.rows[t];
        let row = rows.row(id.0 - self.starts[t]);
        rows.out
            .iter()
            .enumerate()
            .filter(move |&(r, _)| self.forwarding.is_filled(row + r))
            .map(|(_, w)| w)
    }

    /// Like [`PathIndex::extend`], additionally requiring the extension to
    /// be simple (the FIFO-flood discipline for `COMPLETE` messages).
    #[must_use]
    pub fn extend_simple(&self, id: PathId, w: NodeId) -> Option<PathId> {
        self.extend(id, w).filter(|&ext| self.is_simple(ext))
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
    pub fn terminal_word_range(&self, v: NodeId) -> Range<usize> {
        let block = self.block(v.index());
        (block.start as usize / 64)..((block.end as usize - 1) / 64 + 1)
    }

    /// Materializes the per-guess avoiding mask for `(set, v)` over a word
    /// range: `terminal_words(v) ∧ ¬⋃_{a ∈ set} member_words(a)`, i.e. the
    /// pool paths ending at `v` that avoid `set`, in word form. This is the
    /// mask a witness thread probes per flood arrival (one load + AND
    /// replaces a per-path `NodeSet` disjointness test) and scans for its
    /// Maximal-Consistency census; `popcount` of the result equals
    /// [`PathIndex::required_count`].
    #[must_use]
    pub fn avoiding_words(&self, set: NodeSet, v: NodeId, words: Range<usize>) -> Vec<u64> {
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

    /// Populations to check every id of: the full redundant populations
    /// of two graphs (`true`: closed under redundant extension), plus
    /// hand-made pools whose terminal blocks meet the 64-id words at their
    /// edges. On K64 the pool at 0 is `⟨0⟩` and the 63 paths `⟨i, 0⟩`, so
    /// block 0 ends exactly at id 64, and the 63 trivial-only blocks after
    /// it share the word of ids 64..128. The simple population of a
    /// directed path puts all four blocks in one word.
    fn populations() -> Vec<(Digraph, Vec<Vec<Path>>, bool)> {
        let mut cases: Vec<(Digraph, Vec<Vec<Path>>, bool)> =
            [generators::clique(4), small_bridged()]
                .into_iter()
                .map(|graph| {
                    let pools = pools_of(&graph, redundant_paths_ending_at);
                    (graph, pools, true)
                })
                .collect();
        let k64 = generators::clique(64);
        let mut pools: Vec<Vec<Path>> = k64.nodes().map(|v| vec![Path::single(v)]).collect();
        pools[0].extend((1..64).map(|i| Path::from_indices(&[i, 0]).unwrap()));
        cases.push((k64, pools, false));
        let line = generators::directed_path(4);
        let pools = pools_of(&line, simple_paths_ending_at);
        cases.push((line, pools, false));
        cases
    }

    #[test]
    fn round_trip_over_full_population() {
        for (graph, pools, _) in populations() {
            let index = PathIndex::build(&graph, &pools);
            let paths = in_id_order(&pools);
            assert!(!index.is_empty());
            assert_eq!(index.len(), paths.len());
            // Every interned path resolves to its own id, and the metadata
            // — derived from the id's block, class and node count — matches
            // the owned path's own answers.
            for (raw, path) in paths.iter().enumerate() {
                let id = PathId::from_raw(raw as u32);
                assert!(index.contains_id(id));
                assert_eq!(index.resolve(path), Some(id), "{path}");
                assert_eq!(index.node_set(id), path.node_set(), "{path}");
                assert_eq!(index.init(id), path.init(), "{path}");
                assert_eq!(index.ter(id), path.ter(), "{path}");
                assert_eq!(index.node_count(id), path.node_count());
                assert_eq!(index.is_simple(id), path.is_simple());
                assert_eq!(index.is_trivial(id), path.is_empty());
                assert!(path.is_valid_in(&graph));
            }
            // Ids share a class iff they share (init, node set).
            let mut pair_of = std::collections::HashMap::new();
            let mut class_of = std::collections::HashMap::new();
            for (raw, path) in paths.iter().enumerate() {
                let class = index.class(PathId::from_raw(raw as u32));
                let pair = (path.init(), path.node_set());
                assert_eq!(*pair_of.entry(class).or_insert(pair), pair, "{path}");
                assert_eq!(*class_of.entry(pair).or_insert(class), class, "{path}");
            }
            // Each terminal's block is exactly its pool, behind ⟨v⟩.
            for v in graph.nodes() {
                let block: Vec<PathId> = index.paths_ending_at(v).collect();
                let pooled: Vec<&Path> = paths.iter().filter(|p| p.ter() == v).collect();
                assert_eq!(block.len(), pooled.len());
                assert_eq!(block[0], index.trivial(v));
                for (&id, p) in block.iter().zip(&pooled) {
                    assert_eq!(index.resolve(p), Some(id));
                }
                let simple: Vec<PathId> =
                    block.iter().copied().filter(|&id| paths[id.index()].is_simple()).collect();
                assert_eq!(index.simple_paths_ending_at(v), &simple[..]);
            }
        }
    }

    #[test]
    fn extend_table_agrees_with_owned_path_extension() {
        for (graph, pools, closed) in populations() {
            let index = PathIndex::build(&graph, &pools);
            let paths = in_id_order(&pools);
            let interned: std::collections::HashSet<&Path> = paths.iter().collect();
            for (raw, path) in paths.iter().enumerate() {
                let id = PathId::from_raw(raw as u32);
                for w in graph.nodes() {
                    // `None` for every non-edge and every empty slot.
                    let expected = if graph.has_edge(path.ter(), w) {
                        path.extended(w).ok().filter(|e| interned.contains(e))
                    } else {
                        None
                    };
                    if closed && graph.has_edge(path.ter(), w) {
                        let e = path.extended(w).unwrap();
                        assert_eq!(expected.is_some(), e.is_redundant(), "closure at {e}");
                    }
                    let got = index.extend(id, w).map(|e| paths[e.index()].clone());
                    assert_eq!(got, expected, "extend({path}, {w})");
                    // extend_simple additionally demands simplicity.
                    let got_simple = index.extend_simple(id, w).map(|e| paths[e.index()].clone());
                    assert_eq!(got_simple, expected.filter(Path::is_simple));
                }
                // extension_targets lists exactly the `w` with an extension.
                let targets: Vec<NodeId> = index.extension_targets(id).collect();
                let expected: Vec<NodeId> =
                    graph.nodes().filter(|&w| index.extend(id, w).is_some()).collect();
                assert_eq!(targets, expected, "extension_targets({path})");
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
            assert_eq!(index.paths_ending_at(v).next(), Some(index.trivial(v)));
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
                    let direct =
                        index.paths_ending_at(v).filter(|&p| !index.intersects(p, a)).count();
                    assert_eq!(index.required_count(a, v), direct, "census({a:?}, {v})");
                }
            }
        }
    }

    #[test]
    fn terminal_word_range_covers_exactly_the_pool() {
        for (graph, pools, _) in populations() {
            let index = PathIndex::build(&graph, &pools);
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
