//! Differential testing of the mask-batched witness state machine
//! ([`RoundCore`]) against the counter-based [`reference`] oracle
//! (`tests/oracles/witness.rs`).
//!
//! Both implementations are driven with **identical generated
//! flood/COMPLETE sequences** — round start at a random point, flood
//! arrivals over random pool paths (with duplicates and equivocating
//! values), FIFO `COMPLETE` deliveries over random simple paths with
//! random suspect sets and a payload pool covering consistent,
//! inconsistent, partial and empty snapshots — and after every step the
//! emitted [`RoundAction`] streams must be identical (guesses, payload
//! entries and fingerprints, Filter-and-Average outcomes), as must the
//! `started`/`fired` flags and the accumulated message set. Sequences are
//! drawn from a deterministic splitmix64 stream, so failures reproduce by
//! seed.

#[path = "oracles/witness.rs"]
mod reference;

use dbac_core::config::FloodMode;
use dbac_core::message_set::{CompletePayload, MessageSet};
use dbac_core::precompute::Topology;
use dbac_core::witness::{NodePlan, RoundAction, RoundCore, WitnessScratch};
use dbac_graph::{generators, NodeId, NodeSet, PathBudget};
use std::sync::Arc;

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

/// The value alphabet: small and collision-heavy (Maximal-Consistency is
/// only interesting when initiators repeat values), bit-distinguishable.
const VALUES: [f64; 5] = [0.0, -0.0, 1.0, -1.5, 7.25];

fn assert_actions_equal(a: &[RoundAction], b: &[RoundAction], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: action count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (
                RoundAction::FloodComplete { guess: g1, payload: p1 },
                RoundAction::FloodComplete { guess: g2, payload: p2 },
            ) => {
                assert_eq!(g1, g2, "{ctx}: action {i} guess");
                assert_eq!(p1.entries(), p2.entries(), "{ctx}: action {i} payload");
                assert_eq!(p1.fingerprint(), p2.fingerprint(), "{ctx}: action {i} fingerprint");
            }
            (
                RoundAction::Advance { guess: g1, outcome: o1 },
                RoundAction::Advance { guess: g2, outcome: o2 },
            ) => {
                assert_eq!(g1, g2, "{ctx}: action {i} winning guess");
                assert_eq!(o1, o2, "{ctx}: action {i} outcome");
            }
            _ => panic!("{ctx}: action {i} kind diverged"),
        }
    }
}

/// One node's worth of prebuilt fixtures for a topology class.
struct NodeFixture {
    me: NodeId,
    plan: NodePlan,
    model_plan: reference::NodePlan,
    /// Payload pool: per-peer consistent snapshots, an equivocating one,
    /// a partial one (missing source-component values) and an empty one.
    payloads: Vec<Arc<CompletePayload>>,
}

fn fixtures(t: &Topology) -> Vec<NodeFixture> {
    t.graph()
        .nodes()
        .map(|me| {
            let mut payloads: Vec<Arc<CompletePayload>> = Vec::new();
            for (k, c) in t.graph().nodes().enumerate() {
                let mut m = MessageSet::new();
                for &p in t.required_paths_to(c) {
                    m.insert(p, t.index().init(p).index() as f64 + k as f64);
                }
                payloads.push(Arc::new(CompletePayload::from_message_set(&m)));
            }
            // Equivocating snapshot: value depends on the path length.
            let mut bad = MessageSet::new();
            for &p in t.required_paths_to(me) {
                bad.insert(p, t.index().node_count(p) as f64);
            }
            payloads.push(Arc::new(CompletePayload::from_message_set(&bad)));
            // Partial snapshot: a single entry, sources likely missing.
            let mut partial = MessageSet::new();
            if let Some(&p) = t.required_paths_to(me).first() {
                partial.insert(p, 3.0);
            }
            payloads.push(Arc::new(CompletePayload::from_message_set(&partial)));
            payloads.push(Arc::new(CompletePayload::from_message_set(&MessageSet::new())));
            NodeFixture {
                me,
                plan: NodePlan::new(t, me),
                model_plan: reference::NodePlan::new(t, me),
                payloads,
            }
        })
        .collect()
}

/// One generated sequence against one node of one topology.
fn run_sequence(t: &Topology, fx: &NodeFixture, scratch: &mut WitnessScratch, seed: u64) {
    let index = t.index();
    let mut rng = Rng(seed);
    let mut core = RoundCore::new(t, &fx.plan);
    let mut model = reference::RoundCore::new(t, &fx.model_plan);
    let pool = t.required_paths_to(fx.me);
    let simple = t.simple_paths_to(fx.me);
    let guesses: Vec<NodeSet> = t.guesses().to_vec();
    let ops = 8 + rng.below(56);
    let start_at = rng.below(ops);
    let mut started = false;
    for op in 0..ops {
        let ctx = format!("seed {seed} me {} op {op}", fx.me);
        if op == start_at {
            started = true;
            let a = core.start(2.5, t, &fx.plan, scratch);
            let b = model.start(2.5, t, &fx.model_plan);
            assert_actions_equal(&a, &b, &format!("{ctx}: start"));
        } else if rng.below(10) < 6 {
            // Flood arrival: a random pool path (duplicates included) with
            // a value that usually tracks the initiator but sometimes
            // equivocates.
            let p = pool[rng.below(pool.len() as u64) as usize];
            if index.is_trivial(p) && started {
                continue; // the trivial path was ingested by start
            }
            if index.is_trivial(p) {
                continue; // floods never carry the node's own trivial path
            }
            let v = if rng.below(8) == 0 {
                VALUES[rng.below(VALUES.len() as u64) as usize]
            } else {
                index.init(p).index() as f64
            };
            let (f1, a) = core.add_flood(p, v, t, &fx.plan, scratch);
            let (f2, b) = model.add_flood(p, v, t, &fx.model_plan);
            assert_eq!(f1, f2, "{ctx}: freshness");
            assert_actions_equal(&a, &b, &format!("{ctx}: flood({p}, {v})"));
        } else {
            // FIFO COMPLETE delivery over a random simple path with a
            // random guess-sized suspect set and pooled payload.
            let p = simple[rng.below(simple.len() as u64) as usize];
            let suspects = guesses[rng.below(guesses.len() as u64) as usize];
            let init = index.init(p);
            if suspects.contains(init) {
                continue; // the validation boundary would drop it
            }
            let payload = &fx.payloads[rng.below(fx.payloads.len() as u64) as usize];
            let fp = payload.fingerprint();
            let a = core.add_fifo_delivery(init, p, suspects, payload, fp, t, &fx.plan, scratch);
            let b = model.add_fifo_delivery(init, p, suspects, payload, fp, t, &fx.model_plan);
            assert_actions_equal(&a, &b, &format!("{ctx}: delivery({p}, {suspects:?})"));
        }
        assert_eq!(core.started(), model.started(), "{ctx}: started");
        assert_eq!(core.fired(), model.fired(), "{ctx}: fired");
    }
    assert_eq!(core.message_set(), model.message_set(), "seed {seed}: final history");
}

const SEQUENCES: u64 = 400;

fn run_class(name: &str, t: &Topology, salt: u64) {
    let fixtures = fixtures(t);
    let mut scratch = WitnessScratch::new();
    for i in 0..SEQUENCES {
        let fx = &fixtures[(i % fixtures.len() as u64) as usize];
        run_sequence(t, fx, &mut scratch, salt.wrapping_mul(0xD131_0BA6) ^ i);
    }
    // A final deterministic deep sequence per node: the full honest round
    // (every pool flood with per-initiator values, then every peer's
    // COMPLETE over every simple path) must advance identically.
    for fx in &fixtures {
        let mut core = RoundCore::new(t, &fx.plan);
        let mut model = reference::RoundCore::new(t, &fx.model_plan);
        let ctx = format!("{name}: full round at {}", fx.me);
        let a = core.start(0.5, t, &fx.plan, &mut scratch);
        let b = model.start(0.5, t, &fx.model_plan);
        assert_actions_equal(&a, &b, &ctx);
        for &p in t.required_paths_to(fx.me) {
            if t.index().is_trivial(p) {
                continue;
            }
            let v = t.index().init(p).index() as f64;
            let (_, a) = core.add_flood(p, v, t, &fx.plan, &mut scratch);
            let (_, b) = model.add_flood(p, v, t, &fx.model_plan);
            assert_actions_equal(&a, &b, &ctx);
        }
        for c in t.graph().nodes() {
            let payload = &fx.payloads[c.index()];
            let fp = payload.fingerprint();
            for &p in t.simple_paths_to(fx.me) {
                if t.index().init(p) != c {
                    continue;
                }
                if t.index().is_trivial(p) && c != fx.me {
                    continue;
                }
                let a = core.add_fifo_delivery(
                    c,
                    p,
                    NodeSet::EMPTY,
                    payload,
                    fp,
                    t,
                    &fx.plan,
                    &mut scratch,
                );
                let b =
                    model.add_fifo_delivery(c, p, NodeSet::EMPTY, payload, fp, t, &fx.model_plan);
                assert_actions_equal(&a, &b, &ctx);
                assert_eq!(core.fired(), model.fired(), "{ctx}: fired");
            }
        }
        assert_eq!(core.message_set(), model.message_set(), "{ctx}: history");
    }
}

fn topo(g: dbac_graph::Digraph, f: usize, mode: FloodMode) -> Topology {
    Topology::new(g, f, mode, PathBudget::default()).expect("in budget")
}

#[test]
fn clique_f0_redundant() {
    run_class("K3/f0", &topo(generators::clique(3), 0, FloodMode::Redundant), 1);
}

#[test]
fn clique_redundant() {
    run_class("K4/redundant", &topo(generators::clique(4), 1, FloodMode::Redundant), 2);
}

#[test]
fn clique_simple_only() {
    run_class("K5/simple", &topo(generators::clique(5), 1, FloodMode::SimpleOnly), 3);
}

#[test]
fn bridged_cliques_redundant() {
    let g = generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]);
    run_class("2xK3/redundant", &topo(g, 1, FloodMode::Redundant), 4);
}

#[test]
fn figure_1a_redundant() {
    run_class("fig1a/redundant", &topo(generators::figure_1a(), 1, FloodMode::Redundant), 5);
}

#[test]
fn plan_masks_match_counter_reference() {
    // The mask popcounts must agree with the pre-mask reference plan's
    // hash-map census on every guess and witness.
    for (n, f) in [(3, 0), (4, 1), (5, 1)] {
        let topo = topo(generators::clique(n), f, FloodMode::Redundant);
        for v in topo.graph().nodes() {
            let plan = NodePlan::new(&topo, v);
            let model = reference::NodePlan::new(&topo, v);
            assert_eq!(plan.guesses().len(), model.guesses().len());
            for (gp, mp) in plan.guesses().iter().zip(model.guesses()) {
                assert_eq!(gp.guess, mp.guess);
                assert_eq!(gp.reach, mp.reach);
                assert_eq!(gp.flood_required, mp.flood_required, "census({:?})", gp.guess);
                let got: Vec<(NodeId, usize)> =
                    gp.fra_witnesses().iter().map(|w| (w.c, w.required)).collect();
                assert_eq!(got, mp.fra_required, "FRA census({:?})", gp.guess);
            }
        }
    }
}

/// Equivalence properties: the mask-batched [`RoundCore`] and the
/// counter-based [`reference::RoundCore`] must emit identical action
/// streams under random flood/COMPLETE interleavings (proptest shrinks
/// what the generated sequences above only reproduce by seed).
mod equivalence {
    use super::{reference, topo as topo_of};
    use dbac_core::config::FloodMode;
    use dbac_core::message_set::{CompletePayload, MessageSet};
    use dbac_core::precompute::Topology;
    use dbac_core::witness::{NodePlan, RoundAction, RoundCore, WitnessScratch};
    use dbac_graph::{generators, NodeId, NodeSet};
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn catalog() -> &'static Vec<Topology> {
        static CATALOG: OnceLock<Vec<Topology>> = OnceLock::new();
        CATALOG.get_or_init(|| {
            vec![
                topo_of(generators::clique(3), 0, FloodMode::Redundant),
                topo_of(generators::clique(4), 1, FloodMode::Redundant),
                topo_of(
                    generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]),
                    1,
                    FloodMode::Redundant,
                ),
            ]
        })
    }

    fn actions_equal(a: &[RoundAction], b: &[RoundAction]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (
                    RoundAction::FloodComplete { guess: g1, payload: p1 },
                    RoundAction::FloodComplete { guess: g2, payload: p2 },
                ) => g1 == g2 && p1 == p2 && p1.fingerprint() == p2.fingerprint(),
                (
                    RoundAction::Advance { guess: g1, outcome: o1 },
                    RoundAction::Advance { guess: g2, outcome: o2 },
                ) => g1 == g2 && o1 == o2,
                _ => false,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random flood orders and values produce identical action
        /// streams and message sets in both state machines.
        #[test]
        fn flood_sequences_agree(
            topo_sel in 0usize..3,
            words in prop::collection::vec(0u64..u64::MAX, 1..48),
        ) {
            let t = &catalog()[topo_sel];
            let me = NodeId::new(0);
            let plan = NodePlan::new(t, me);
            let model_plan = reference::NodePlan::new(t, me);
            let mut core = RoundCore::new(t, &plan);
            let mut model = reference::RoundCore::new(t, &model_plan);
            let mut scratch = WitnessScratch::new();
            let pool = t.required_paths_to(me);
            let a0 = core.start(0.5, t, &plan, &mut scratch);
            let b0 = model.start(0.5, t, &model_plan);
            prop_assert!(actions_equal(&a0, &b0), "start diverged");
            for &w in &words {
                let p = pool[(w % pool.len() as u64) as usize];
                if t.index().is_trivial(p) {
                    continue;
                }
                // A small value alphabet keyed off the initiator, with
                // occasional equivocation.
                let init = t.index().init(p).index() as f64;
                let v = if w & 7 == 0 { -init - 1.0 } else { init };
                let (f1, a) = core.add_flood(p, v, t, &plan, &mut scratch);
                let (f2, b) = model.add_flood(p, v, t, &model_plan);
                prop_assert_eq!(f1, f2, "freshness diverged");
                prop_assert!(actions_equal(&a, &b), "flood actions diverged");
            }
            prop_assert_eq!(core.message_set(), model.message_set());
            prop_assert_eq!(core.fired(), model.fired());
        }

        /// Random COMPLETE deliveries (varying paths, suspects and
        /// payload contents) keep the two state machines in lockstep
        /// through to Verify.
        #[test]
        fn delivery_sequences_agree(
            topo_sel in 0usize..3,
            words in prop::collection::vec(0u64..u64::MAX, 1..40),
        ) {
            let t = &catalog()[topo_sel];
            let me = NodeId::new(0);
            let plan = NodePlan::new(t, me);
            let model_plan = reference::NodePlan::new(t, me);
            let mut core = RoundCore::new(t, &plan);
            let mut model = reference::RoundCore::new(t, &model_plan);
            let mut scratch = WitnessScratch::new();
            let a0 = core.start(1.0, t, &plan, &mut scratch);
            let b0 = model.start(1.0, t, &model_plan);
            prop_assert!(actions_equal(&a0, &b0));
            // A small pool of payloads: per-initiator-consistent,
            // inconsistent, and empty.
            let payloads: Vec<Arc<CompletePayload>> = {
                let mut out = Vec::new();
                for (k, c) in t.graph().nodes().enumerate() {
                    let mut m = MessageSet::new();
                    for &p in t.required_paths_to(c) {
                        m.insert(p, t.index().init(p).index() as f64 + k as f64);
                    }
                    out.push(Arc::new(CompletePayload::from_message_set(&m)));
                }
                let mut bad = MessageSet::new();
                for (i, &p) in t.required_paths_to(me).iter().enumerate().take(4) {
                    bad.insert(p, i as f64);
                }
                out.push(Arc::new(CompletePayload::from_message_set(&bad)));
                out.push(Arc::new(CompletePayload::from_message_set(&MessageSet::new())));
                out
            };
            let simple = t.simple_paths_to(me);
            let guesses: Vec<NodeSet> = t.guesses().to_vec();
            for &w in &words {
                let p = simple[(w % simple.len() as u64) as usize];
                let suspects = guesses[((w >> 16) % guesses.len() as u64) as usize];
                let payload = &payloads[((w >> 32) % payloads.len() as u64) as usize];
                let init = t.index().init(p);
                if suspects.contains(init) {
                    continue; // validation would drop it
                }
                let fp = payload.fingerprint();
                let a = core.add_fifo_delivery(
                    init, p, suspects, payload, fp, t, &plan, &mut scratch,
                );
                let b = model.add_fifo_delivery(
                    init, p, suspects, payload, fp, t, &model_plan,
                );
                prop_assert!(actions_equal(&a, &b), "delivery actions diverged");
                prop_assert_eq!(core.fired(), model.fired());
            }
        }
    }
}
