//! Differential testing of the class-level Filter-and-Average against the
//! per-message sort-and-search [`reference`] (`tests/oracles/filter.rs`).
//!
//! Histories are drawn from a deterministic splitmix64 stream over the K4,
//! K5 and Figure 1(a) populations, and each is filtered at f = 0, 1 and 2.
//! They cover value ties, ±0.0, NaN and infinities, a distinct value on
//! every path (the Byzantine worst case, where every message is its own
//! tie class), histories whose every prefix is coverable (the filter
//! trims everything and returns `None`), and the empty history. Both
//! implementations must return the same `Option<FilterOutcome>`, the value
//! compared by its bits.

#[path = "oracles/filter.rs"]
mod reference;

use dbac_core::config::FloodMode;
use dbac_core::filter::{filter_and_average, FilterOutcome};
use dbac_core::message_set::MessageSet;
use dbac_core::precompute::Topology;
use dbac_graph::{generators, Digraph, NodeId, PathBudget, PathId};

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

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// A small, collision-heavy alphabet: ties, both zeros, extremes.
const TIES: [f64; 7] = [0.0, -0.0, 1.0, -1.0, 7.25, 1e9, -1e9];

/// Values whose `total_cmp` order differs from `<`: NaNs of both signs,
/// infinities, both zeros.
const SPECIALS: [f64; 8] =
    [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE, 1.0];

fn topo(graph: Digraph) -> Topology {
    // The index does not depend on f; the filter takes f as an argument.
    Topology::new(graph, 0, FloodMode::Redundant, PathBudget::default()).unwrap()
}

fn fixtures() -> Vec<(&'static str, Topology)> {
    vec![
        ("K4", topo(generators::clique(4))),
        ("K5", topo(generators::clique(5))),
        ("figure 1(a)", topo(generators::figure_1a())),
    ]
}

/// The paths of one generated history, before values are assigned.
fn draw_paths(t: &Topology, me: NodeId, rng: &mut Rng) -> Vec<PathId> {
    let index = t.index();
    let n = t.graph().node_count();
    match rng.below(8) {
        // The empty history.
        0 => Vec::new(),
        // Every path ending at `me` through one other node `u`: each
        // prefix is coverable by {u} once f ≥ 1.
        1 => {
            let u = NodeId::new((me.index() + 1 + rng.below(n as u64 - 1) as usize) % n);
            index.paths_ending_at(me).filter(|&p| index.node_set(p).contains(u)).collect()
        }
        // A subset of the whole population, not only one terminal's block.
        2 => {
            let keep = 1 + rng.below(8);
            (0..index.len() as u32).map(PathId::from_raw).filter(|_| rng.below(64) < keep).collect()
        }
        // A round history: a subset of `me`'s block, dense or sparse, with
        // the own trivial path three times in four.
        _ => {
            let keep = rng.pick(&[2, 16, 48, 64]);
            let trivial = rng.below(4) != 0;
            index
                .paths_ending_at(me)
                .filter(|&p| if index.is_trivial(p) { trivial } else { rng.below(64) < keep })
                .collect()
        }
    }
}

/// Assigns values to `paths` in one of five styles.
fn assign_values(t: &Topology, paths: &[PathId], rng: &mut Rng) -> Vec<(PathId, f64)> {
    let index = t.index();
    let n = t.graph().node_count();
    match rng.below(5) {
        0 => paths.iter().map(|&p| (p, rng.pick(&TIES))).collect(),
        1 => paths.iter().map(|&p| (p, rng.pick(&[0.0, -0.0]))).collect(),
        2 => paths.iter().map(|&p| (p, rng.pick(&SPECIALS))).collect(),
        // A distinct value on every path, in shuffled order.
        3 => {
            let mut order: Vec<usize> = (0..paths.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            paths
                .iter()
                .zip(order)
                .map(|(&p, k)| (p, k as f64 - paths.len() as f64 / 2.0))
                .collect()
        }
        // Honest-looking: one value per initiator, with a few deviations.
        _ => {
            let by_init: Vec<f64> = (0..n).map(|_| rng.pick(&TIES)).collect();
            paths
                .iter()
                .map(|&p| {
                    let honest = by_init[index.init(p).index()];
                    (p, if rng.below(16) == 0 { rng.pick(&TIES) } else { honest })
                })
                .collect()
        }
    }
}

fn bits(outcome: Option<FilterOutcome>) -> Option<(u64, usize, usize, usize)> {
    outcome.map(|o| (o.value.to_bits(), o.trimmed_low, o.trimmed_high, o.kept))
}

#[test]
fn class_level_filter_matches_the_sorting_oracle() {
    for (salt, (name, t)) in fixtures().into_iter().enumerate() {
        let index = t.index();
        let n = t.graph().node_count();
        let mut rng = Rng(0xF17E_0000 + salt as u64);
        let (mut trimmed, mut none) = (0, 0);
        for case in 0..300 {
            let me = NodeId::new(rng.below(n as u64) as usize);
            let paths = draw_paths(&t, me, &mut rng);
            let mset: MessageSet = assign_values(&t, &paths, &mut rng).into_iter().collect();
            for f in 0..=2 {
                let got = filter_and_average(&mset, f, me, n, index);
                let want = reference::filter_and_average(&mset, f, me, n, index);
                assert_eq!(bits(got), bits(want), "{name} case {case} f={f} me={me}: {mset:?}");
                match want {
                    Some(o) => trimmed += usize::from(o.trimmed_low + o.trimmed_high > 0),
                    None => none += 1,
                }
            }
        }
        // The generator reaches both outcomes, not only the easy one.
        assert!(trimmed > 100 && none > 100, "{name}: {trimmed} trimmed, {none} None");
    }
}
