//! Differential testing of the columnar [`MessageSet`] against the
//! BTreeMap [`reference`] model (`tests/oracles/message_set.rs`).
//!
//! Both backends are driven with **identical generated operation
//! sequences** — inserts, exclusions, consistency probes, fullness probes,
//! wire round-trips — and every observable must be byte-for-byte identical
//! after every step (values compared as `f64` bit patterns, iteration in
//! exact order). Sequences are drawn from a deterministic splitmix64
//! stream, so failures reproduce by seed.
//!
//! ≥ 1,000 sequences run per topology class and column layout; the
//! classes cover the population shapes the protocol actually meets
//! (complete, directed non-complete, bridged, simple-only ablation).
//!
//! Every sequence and every property case runs on each column layout: a
//! set built by `MessageSet::new()` (columns from id 0) and, per terminal,
//! a round history, whose columns are pinned to that terminal's id block.
//! A pinned set must reject an id outside its block — without a panic —
//! and otherwise agree with the model on every observable.

#[path = "oracles/message_set.rs"]
mod reference;

use dbac_core::config::FloodMode;
use dbac_core::message_set::MessageSet;
use dbac_core::precompute::Topology;
use dbac_core::witness::{NodePlan, RoundCore, WitnessScratch};
use dbac_graph::{generators, NodeId, NodeSet, PathBudget, PathId};
use std::ops::Range;

/// The column layout a harness set starts from.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// `MessageSet::new()`: columns grow from id 0.
    Base0,
    /// A round history: columns pinned to terminal `v`'s id block.
    Block(NodeId),
}

impl Layout {
    /// Every layout of a topology: base 0, then one block per terminal.
    fn all(t: &Topology) -> Vec<Layout> {
        std::iter::once(Layout::Base0).chain(t.graph().nodes().map(Layout::Block)).collect()
    }

    /// An empty set in this layout. The crate pins a set to a block only
    /// for a round's history, so a block set is taken from a started
    /// round and emptied by excluding its terminal (every path ending at
    /// `v` contains `v`); exclusion keeps the columns.
    fn empty(self, t: &Topology) -> MessageSet {
        match self {
            Layout::Base0 => MessageSet::new(),
            Layout::Block(v) => {
                let plan = NodePlan::new(t, v);
                let mut core = RoundCore::new(t, &plan);
                core.start(0.0, t, &plan, &mut WitnessScratch::new());
                let empty = core.message_set().exclusion(NodeSet::singleton(v), t.index());
                assert!(empty.is_empty(), "{self:?}: emptied");
                empty
            }
        }
    }

    /// The raw ids a set in this layout holds (capped at the population).
    fn span(self, t: &Topology) -> Range<u32> {
        let population = t.index().len();
        let ids = match self {
            Layout::Base0 => 0..population,
            Layout::Block(v) => {
                let words = t.index().terminal_word_range(v);
                words.start * 64..(words.end * 64).min(population)
            }
        };
        ids.start as u32..ids.end as u32
    }

    /// Draws an id from one random word: for a block set one draw in
    /// eight comes from the whole population, so out-of-block ids are
    /// tried too; the rest fall inside the block.
    fn draw(self, t: &Topology, word: u64) -> PathId {
        let span = self.span(t);
        let (lo, width) = match self {
            Layout::Block(_) if word >> 61 != 0 => (span.start, span.end - span.start),
            _ => (0, t.index().len() as u32),
        };
        PathId::from_raw(lo + (word % u64::from(width)) as u32)
    }
}

/// Deterministic stream: splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(span)) >> 64) as u64
    }
}

/// The value alphabet: small, collision-heavy, bit-distinguishable
/// (`0.0` vs `-0.0`), with extremes.
const VALUES: [f64; 7] = [0.0, -0.0, 1.0, -1.0, 7.25, 1e9, -1e9];

/// Sparse bit-exact snapshot: the canonical wire form of either backend.
fn snapshot_columnar(m: &MessageSet) -> Vec<(u32, u64)> {
    m.iter().map(|(p, v)| (p.raw(), v.to_bits())).collect()
}

fn snapshot_reference(m: &reference::MessageSet) -> Vec<(u32, u64)> {
    m.iter().map(|(p, v)| (p.raw(), v.to_bits())).collect()
}

/// Asserts every observable of the two backends is identical.
fn assert_observables(t: &Topology, col: &MessageSet, model: &reference::MessageSet, ctx: &str) {
    let index = t.index();
    assert_eq!(col.len(), model.len(), "{ctx}: len");
    assert_eq!(col.is_empty(), model.is_empty(), "{ctx}: is_empty");
    assert_eq!(snapshot_columnar(col), snapshot_reference(model), "{ctx}: entries");
    assert_eq!(
        col.paths().collect::<Vec<_>>(),
        model.paths().collect::<Vec<_>>(),
        "{ctx}: path iteration"
    );
    assert_eq!(col.is_consistent(index), model.is_consistent(index), "{ctx}: consistency");
    assert_eq!(col.initiators(index), model.initiators(index), "{ctx}: initiators");
    for v in t.graph().nodes() {
        assert_eq!(
            col.value_of(v, index).map(f64::to_bits),
            model.value_of(v, index).map(f64::to_bits),
            "{ctx}: value_of({v})"
        );
    }
}

/// One generated sequence against one topology.
/// A pseudo-random subset of `{0, …, n-1}` drawn from one 64-bit word
/// (the differential fixtures never exceed 64 nodes).
fn random_subset(mask: u64, n: usize) -> NodeSet {
    assert!(n <= 64);
    NodeSet::universe(n).iter().filter(|v| mask >> v.index() & 1 == 1).collect()
}

/// Inserts into both backends, feeding the model only ids the layout
/// holds; a pinned set must refuse the rest.
fn insert_both(
    t: &Topology,
    layout: Layout,
    col: &mut MessageSet,
    model: &mut reference::MessageSet,
    (p, v): (PathId, f64),
    ctx: &str,
) {
    let held = layout.span(t).contains(&p.raw());
    let expected = held && model.insert(p, v);
    assert_eq!(col.insert(p, v), expected, "{ctx}: insert({p}, {v})");
}

fn run_sequence(t: &Topology, layout: Layout, empty: &MessageSet, seed: u64) {
    let index = t.index();
    let n = t.graph().node_count();
    let mut rng = Rng(seed);
    let mut col = empty.clone();
    let mut model = reference::MessageSet::new();
    let ops = 8 + rng.below(40);
    for op in 0..ops {
        let ctx = format!("{layout:?} seed {seed} op {op}");
        match rng.below(10) {
            // Insert dominates: it is the only mutation and every other
            // observable is only interesting on a populated set.
            0..=5 => {
                let p = layout.draw(t, rng.next());
                let v = VALUES[rng.below(VALUES.len() as u64) as usize];
                insert_both(t, layout, &mut col, &mut model, (p, v), &ctx);
                assert_eq!(col.contains_path(p), model.contains_path(p), "{ctx}: contains");
                assert_eq!(
                    col.value_on_path(p).map(f64::to_bits),
                    model.value_on_path(p).map(f64::to_bits),
                    "{ctx}: value_on_path"
                );
            }
            // Exclusion on a random node set (guess-sized through universe).
            6 => {
                let set = random_subset(rng.next(), n);
                let (ec, em) = (col.exclusion(set, index), model.exclusion(set, index));
                assert_observables(t, &ec, &em, &format!("{ctx}: exclusion({set:?})"));
            }
            // Fullness for a random (guess, terminal) pair, both forms.
            7 => {
                let set = random_subset(rng.next(), n);
                let v = dbac_graph::NodeId::new(rng.below(n as u64) as usize);
                assert_eq!(
                    col.is_full_avoiding(set, v, index),
                    model.is_full_avoiding(set, v, index),
                    "{ctx}: is_full_avoiding({set:?}, {v})"
                );
                let required: Vec<PathId> =
                    index.paths_ending_at(v).filter(|&p| !index.intersects(p, set)).collect();
                assert_eq!(
                    col.is_full_for(&required),
                    model.is_full_for(&required),
                    "{ctx}: is_full_for"
                );
            }
            // Wire round-trip: sparse egress, re-ingress, still equivalent.
            8 => {
                let wire: Vec<(PathId, f64)> = col.clone().into();
                let back = MessageSet::from(wire);
                assert_observables(t, &back, &model, &format!("{ctx}: wire round-trip"));
            }
            // Rebuild the model from the columnar iteration (and vice
            // versa): FromIterator is observable too.
            _ => {
                let rebuilt_model: reference::MessageSet = col.iter().collect();
                let rebuilt_col: MessageSet = model.iter().collect();
                assert_observables(t, &col, &rebuilt_model, &format!("{ctx}: rebuild model"));
                assert_observables(t, &rebuilt_col, &model, &format!("{ctx}: rebuild columnar"));
            }
        }
        assert_observables(t, &col, &model, &ctx);
    }
}

const SEQUENCES: u64 = 1200;

fn run_class(name: &str, t: &Topology, salt: u64) {
    let layouts = Layout::all(t);
    let empties: Vec<MessageSet> = layouts.iter().map(|l| l.empty(t)).collect();
    // Every seed runs on every layout, so each layout gets the full
    // `SEQUENCES` budget.
    for i in 0..SEQUENCES {
        let seed = salt.wrapping_mul(0xD131_0BA6) ^ i;
        for (&layout, empty) in layouts.iter().zip(&empties) {
            run_sequence(t, layout, empty, seed);
        }
    }
    // A final deterministic deep sequence per layout: offer the whole
    // population; a block set takes exactly its block.
    for (&layout, empty) in layouts.iter().zip(&empties) {
        let ctx = format!("{name} {layout:?}: full population");
        let mut col = empty.clone();
        let mut model = reference::MessageSet::new();
        for raw in 0..t.index().len() as u32 {
            let v = VALUES[(raw as usize) % VALUES.len()];
            insert_both(t, layout, &mut col, &mut model, (PathId::from_raw(raw), v), &ctx);
        }
        assert_eq!(col.len(), layout.span(t).len(), "{ctx}: the layout's ids all held");
        assert_observables(t, &col, &model, &ctx);
        for &guess in t.guesses() {
            for v in t.graph().nodes() {
                assert_eq!(
                    col.is_full_avoiding(guess, v, t.index()),
                    model.is_full_avoiding(guess, v, t.index()),
                    "{ctx}: fullness({guess:?}, {v})"
                );
                let holds_pool = match layout {
                    Layout::Base0 => true,
                    Layout::Block(b) => b == v,
                };
                if holds_pool {
                    assert!(col.is_full_avoiding(guess, v, t.index()), "{ctx}: full at {v}");
                }
            }
        }
    }
}

/// A block set refuses every id outside its block's words — below them,
/// just past them, and far past the population — without a panic and
/// without changing, and still takes ids inside them.
fn assert_out_of_block_rejected(t: &Topology) {
    for v in t.graph().nodes() {
        let layout = Layout::Block(v);
        let span = layout.span(t);
        let past_block = (t.index().terminal_word_range(v).end * 64) as u32;
        let mut set = layout.empty(t);
        let mut outside = vec![past_block, u32::MAX];
        if span.start > 0 {
            outside.extend([0, span.start - 1]);
        }
        for raw in outside {
            let p = PathId::from_raw(raw);
            assert!(!set.insert(p, 1.0), "{layout:?}: id {raw} refused");
            assert!(!set.contains_path(p) && set.value_on_path(p).is_none(), "{layout:?}: {raw}");
            assert!(set.is_empty(), "{layout:?}: a refused id leaves the set empty");
        }
        let inside = PathId::from_raw(span.start);
        assert!(set.insert(inside, 2.0), "{layout:?}: in-block id taken");
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![(inside, 2.0)]);
        let wire: Vec<(PathId, f64)> = set.clone().into();
        assert_eq!(MessageSet::from(wire), set, "{layout:?}: wire form");
    }
}

fn topo(g: dbac_graph::Digraph, f: usize, mode: FloodMode) -> Topology {
    Topology::new(g, f, mode, PathBudget::default()).expect("in budget")
}

#[test]
fn clique_redundant() {
    run_class("K4/redundant", &topo(generators::clique(4), 1, FloodMode::Redundant), 1);
}

#[test]
fn block_sets_reject_out_of_block_ids() {
    assert_out_of_block_rejected(&topo(generators::clique(4), 1, FloodMode::Redundant));
    assert_out_of_block_rejected(&topo(generators::clique(5), 1, FloodMode::SimpleOnly));
    assert_out_of_block_rejected(&topo(generators::figure_1a(), 1, FloodMode::Redundant));
}

#[test]
fn clique_simple_only() {
    run_class("K5/simple", &topo(generators::clique(5), 1, FloodMode::SimpleOnly), 2);
}

#[test]
fn bridged_cliques_redundant() {
    let g = generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]);
    run_class("2xK3/redundant", &topo(g, 1, FloodMode::Redundant), 3);
}

#[test]
fn figure_1a_redundant() {
    run_class("fig1a/redundant", &topo(generators::figure_1a(), 1, FloodMode::Redundant), 4);
}

/// Property tests: the columnar set and the BTreeMap reference model
/// agree on every observable under random operation interleavings over
/// arbitrary small topologies, in either column layout (proptest shrinks
/// what the generated sequences above only reproduce by seed).
mod equivalence {
    use super::{reference, topo as topo_of, Layout};
    use dbac_core::config::FloodMode;
    use dbac_core::message_set::MessageSet;
    use dbac_core::precompute::Topology;
    use dbac_graph::{generators, NodeSet, PathId};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One topology class, with an empty set in each of its layouts.
    struct Class {
        topo: Topology,
        layouts: Vec<(Layout, MessageSet)>,
    }

    /// The topology classes the properties quantify over.
    fn catalog() -> &'static Vec<Class> {
        static CATALOG: OnceLock<Vec<Class>> = OnceLock::new();
        CATALOG.get_or_init(|| {
            [
                topo_of(generators::clique(4), 1, FloodMode::Redundant),
                topo_of(generators::clique(5), 1, FloodMode::SimpleOnly),
                topo_of(
                    generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]),
                    1,
                    FloodMode::Redundant,
                ),
                topo_of(generators::figure_1a(), 1, FloodMode::Redundant),
            ]
            .into_iter()
            .map(|topo| {
                let layouts = Layout::all(&topo).into_iter().map(|l| (l, l.empty(&topo))).collect();
                Class { topo, layouts }
            })
            .collect()
        })
    }

    /// The class `topo_sel` selects and an empty set in each of its
    /// layouts; every property runs each case on all of them.
    fn pick(topo_sel: usize) -> (&'static Topology, &'static [(Layout, MessageSet)]) {
        let class = &catalog()[topo_sel];
        (&class.topo, &class.layouts)
    }

    /// Decodes one op word into an insertion over the layout's ids (and,
    /// for a block set, sometimes past them).
    fn decode(word: u64, t: &Topology, layout: Layout) -> (PathId, f64) {
        let path = layout.draw(t, word);
        // A tiny value alphabet maximizes collisions (consistency and
        // first-value-wins are only interesting under collisions);
        // include the 0.0 / -0.0 bit distinction.
        let value = [0.0, -0.0, 1.0, -1.5, 7.25][(word >> 32) as usize % 5];
        (path, value)
    }

    /// Fills both backends from the op words; a pinned set refuses the
    /// ids outside its block, and the model never sees them.
    fn fill(
        t: &Topology,
        layout: Layout,
        col: &mut MessageSet,
        words: &[u64],
    ) -> reference::MessageSet {
        let mut model = reference::MessageSet::new();
        for &w in words {
            super::insert_both(t, layout, col, &mut model, decode(w, t, layout), "fill");
        }
        model
    }

    /// Asserts every observable of the two backends is identical.
    fn assert_equivalent(t: &Topology, col: &MessageSet, model: &reference::MessageSet) {
        let index = t.index();
        prop_assert_eq!(col.len(), model.len());
        prop_assert_eq!(col.is_empty(), model.is_empty());
        let col_entries: Vec<(PathId, u64)> = col.iter().map(|(p, v)| (p, v.to_bits())).collect();
        let model_entries: Vec<(PathId, u64)> =
            model.iter().map(|(p, v)| (p, v.to_bits())).collect();
        prop_assert_eq!(col_entries, model_entries, "iteration differs");
        prop_assert_eq!(col.is_consistent(index), model.is_consistent(index));
        prop_assert_eq!(col.initiators(index), model.initiators(index));
        for v in t.graph().nodes() {
            prop_assert_eq!(
                col.value_of(v, index).map(f64::to_bits),
                model.value_of(v, index).map(f64::to_bits),
                "value_of({}) differs",
                v
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert interleavings leave identical sets, and every
        /// per-path probe agrees.
        #[test]
        fn inserts_probe_identically(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 1..48),
        ) {
            let (t, layouts) = pick(topo_sel);
            for (layout, empty) in layouts {
                let (layout, mut col) = (*layout, empty.clone());
                let mut model = reference::MessageSet::new();
                for &w in &words {
                    let (p, v) = decode(w, t, layout);
                    super::insert_both(t, layout, &mut col, &mut model, (p, v), "insert");
                    prop_assert_eq!(col.contains_path(p), model.contains_path(p));
                    prop_assert_eq!(
                        col.value_on_path(p).map(f64::to_bits),
                        model.value_on_path(p).map(f64::to_bits)
                    );
                }
                assert_equivalent(t, &col, &model);
            }
        }

        /// Exclusion agrees for every guess-sized fault set, and the
        /// excluded sets are again equivalent (closure under the op).
        #[test]
        fn exclusion_agrees_on_every_guess(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 0..32),
        ) {
            let (t, layouts) = pick(topo_sel);
            for (layout, empty) in layouts {
                let mut col = empty.clone();
                let model = fill(t, *layout, &mut col, &words);
                for &guess in t.guesses() {
                    assert_equivalent(t, &col.exclusion(guess, t.index()), &model.exclusion(guess, t.index()));
                }
                // Arbitrary (non-guess) sets too, including the universe.
                let n = t.graph().node_count();
                for set in [NodeSet::universe(n), NodeSet::universe(n.min(2))] {
                    assert_equivalent(t, &col.exclusion(set, t.index()), &model.exclusion(set, t.index()));
                }
            }
        }

        /// Mask-scan fullness agrees with the reference filter for every
        /// (guess, terminal) pair, as does the requirement-list form.
        #[test]
        fn fullness_agrees_on_every_guess_terminal_pair(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let (t, layouts) = pick(topo_sel);
            let index = t.index();
            for (layout, empty) in layouts {
                let mut col = empty.clone();
                let model = fill(t, *layout, &mut col, &words);
                for &guess in t.guesses() {
                    for v in t.graph().nodes() {
                        prop_assert_eq!(
                            col.is_full_avoiding(guess, v, index),
                            model.is_full_avoiding(guess, v, index),
                            "{:?}: fullness({:?}, {}) differs", layout, guess, v
                        );
                        let required: Vec<PathId> = index
                            .paths_ending_at(v)
                            .filter(|&p| !index.intersects(p, guess))
                            .collect();
                        prop_assert_eq!(col.is_full_for(&required), model.is_full_for(&required));
                    }
                }
            }
        }

        /// The sparse wire form round-trips through both backends.
        #[test]
        fn wire_form_is_backend_agnostic(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 0..32),
        ) {
            let (t, layouts) = pick(topo_sel);
            for (layout, empty) in layouts {
                let mut col = empty.clone();
                let model = fill(t, *layout, &mut col, &words);
                let wire: Vec<(PathId, f64)> = col.clone().into();
                let model_wire: Vec<(PathId, f64)> = model.iter().collect();
                prop_assert_eq!(
                    wire.iter().map(|&(p, v)| (p, v.to_bits())).collect::<Vec<_>>(),
                    model_wire.iter().map(|&(p, v)| (p, v.to_bits())).collect::<Vec<_>>()
                );
                prop_assert_eq!(&MessageSet::from(wire), &col);
            }
        }
    }
}
