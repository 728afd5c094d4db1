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
//! ≥ 1,000 sequences run per topology class; the classes cover the
//! population shapes the protocol actually meets (complete, directed
//! non-complete, bridged, simple-only ablation).

#[path = "oracles/message_set.rs"]
mod reference;

use dbac_core::config::FloodMode;
use dbac_core::message_set::{CompletePayload, MessageSet};
use dbac_core::precompute::Topology;
use dbac_graph::{generators, NodeSet, PathBudget, PathId};

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

fn run_sequence(t: &Topology, seed: u64) {
    let index = t.index();
    let population = index.len() as u64;
    let n = t.graph().node_count();
    let mut rng = Rng(seed);
    let mut col = MessageSet::new();
    let mut model = reference::MessageSet::new();
    let ops = 8 + rng.below(40);
    for op in 0..ops {
        let ctx = format!("seed {seed} op {op}");
        match rng.below(10) {
            // Insert dominates: it is the only mutation and every other
            // observable is only interesting on a populated set.
            0..=5 => {
                let p = PathId::from_raw(rng.below(population) as u32);
                let v = VALUES[rng.below(VALUES.len() as u64) as usize];
                assert_eq!(col.insert(p, v), model.insert(p, v), "{ctx}: insert({p}, {v})");
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
                // Exclusion is the protocol's snapshot op: its payload form
                // must agree too.
                assert_eq!(
                    CompletePayload::from_message_set(&ec).entries(),
                    em.iter().collect::<Vec<_>>().as_slice(),
                    "{ctx}: payload of exclusion"
                );
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
                let required: Vec<PathId> = index
                    .paths_ending_at(v)
                    .iter()
                    .copied()
                    .filter(|&p| !index.intersects(p, set))
                    .collect();
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
    for i in 0..SEQUENCES {
        run_sequence(t, salt.wrapping_mul(0xD131_0BA6) ^ i);
    }
    // A final deterministic deep sequence: fill the whole population.
    let mut col = MessageSet::new();
    let mut model = reference::MessageSet::new();
    for raw in 0..t.index().len() as u32 {
        let p = PathId::from_raw(raw);
        let v = VALUES[(raw as usize) % VALUES.len()];
        assert_eq!(col.insert(p, v), model.insert(p, v));
    }
    assert_observables(t, &col, &model, &format!("{name}: full population"));
    for &guess in t.guesses() {
        for v in t.graph().nodes() {
            assert!(col.is_full_avoiding(guess, v, t.index()), "{name}: full set must be full");
        }
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
/// arbitrary small topologies (proptest shrinks what the generated
/// sequences above only reproduce by seed).
mod equivalence {
    use super::{reference, topo as topo_of};
    use dbac_core::config::FloodMode;
    use dbac_core::message_set::MessageSet;
    use dbac_core::precompute::Topology;
    use dbac_graph::{generators, NodeSet, PathId};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The topology classes the properties quantify over.
    fn catalog() -> &'static Vec<Topology> {
        static CATALOG: OnceLock<Vec<Topology>> = OnceLock::new();
        CATALOG.get_or_init(|| {
            vec![
                topo_of(generators::clique(4), 1, FloodMode::Redundant),
                topo_of(generators::clique(5), 1, FloodMode::SimpleOnly),
                topo_of(
                    generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]),
                    1,
                    FloodMode::Redundant,
                ),
                topo_of(generators::figure_1a(), 1, FloodMode::Redundant),
            ]
        })
    }

    /// Decodes one op word into an insertion over the population.
    fn decode(word: u64, population: usize) -> (PathId, f64) {
        let path = PathId::from_raw((word % population as u64) as u32);
        // A tiny value alphabet maximizes collisions (consistency and
        // first-value-wins are only interesting under collisions);
        // include the 0.0 / -0.0 bit distinction.
        let value = [0.0, -0.0, 1.0, -1.5, 7.25][(word >> 32) as usize % 5];
        (path, value)
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
            let t = &catalog()[topo_sel];
            let population = t.index().len();
            let mut col = MessageSet::new();
            let mut model = reference::MessageSet::new();
            for &w in &words {
                let (p, v) = decode(w, population);
                prop_assert_eq!(col.insert(p, v), model.insert(p, v));
                prop_assert_eq!(col.contains_path(p), model.contains_path(p));
                prop_assert_eq!(
                    col.value_on_path(p).map(f64::to_bits),
                    model.value_on_path(p).map(f64::to_bits)
                );
            }
            assert_equivalent(t, &col, &model);
        }

        /// Exclusion agrees for every guess-sized fault set, and the
        /// excluded sets are again equivalent (closure under the op).
        #[test]
        fn exclusion_agrees_on_every_guess(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 0..32),
        ) {
            let t = &catalog()[topo_sel];
            let population = t.index().len();
            let mut col = MessageSet::new();
            let mut model = reference::MessageSet::new();
            for &w in &words {
                let (p, v) = decode(w, population);
                col.insert(p, v);
                model.insert(p, v);
            }
            for &guess in t.guesses() {
                assert_equivalent(t, &col.exclusion(guess, t.index()), &model.exclusion(guess, t.index()));
            }
            // Arbitrary (non-guess) sets too, including the universe.
            let n = t.graph().node_count();
            for set in [NodeSet::universe(n), NodeSet::universe(n.min(2))] {
                assert_equivalent(t, &col.exclusion(set, t.index()), &model.exclusion(set, t.index()));
            }
        }

        /// Mask-scan fullness agrees with the reference filter for every
        /// (guess, terminal) pair, as does the requirement-list form.
        #[test]
        fn fullness_agrees_on_every_guess_terminal_pair(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let t = &catalog()[topo_sel];
            let index = t.index();
            let mut col = MessageSet::new();
            let mut model = reference::MessageSet::new();
            for &w in &words {
                let (p, v) = decode(w, index.len());
                col.insert(p, v);
                model.insert(p, v);
            }
            for &guess in t.guesses() {
                for v in t.graph().nodes() {
                    prop_assert_eq!(
                        col.is_full_avoiding(guess, v, index),
                        model.is_full_avoiding(guess, v, index),
                        "fullness({:?}, {}) differs", guess, v
                    );
                    let required: Vec<PathId> = index
                        .paths_ending_at(v)
                        .iter()
                        .copied()
                        .filter(|&p| !index.intersects(p, guess))
                        .collect();
                    prop_assert_eq!(col.is_full_for(&required), model.is_full_for(&required));
                }
            }
        }

        /// The sparse wire form round-trips through both backends.
        #[test]
        fn wire_form_is_backend_agnostic(
            topo_sel in 0usize..4,
            words in prop::collection::vec(0u64..u64::MAX, 0..32),
        ) {
            let t = &catalog()[topo_sel];
            let mut col = MessageSet::new();
            let mut model = reference::MessageSet::new();
            for &w in &words {
                let (p, v) = decode(w, t.index().len());
                col.insert(p, v);
                model.insert(p, v);
            }
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
