//! Differential testing of the class-level Filter-and-Average against the
//! per-message sort-and-search [`reference`] (`tests/oracles/filter.rs`),
//! and of the cached `COMPLETE` payload summary against per-entry scans.
//!
//! Histories are drawn from a deterministic splitmix64 stream over the K4,
//! K5 and Figure 1(a) populations, and each is filtered at f = 0, 1 and 2.
//! They cover value ties, ±0.0, NaN and infinities, a distinct value on
//! every path (the Byzantine worst case, where every message is its own
//! tie class), histories whose every prefix is coverable (the filter
//! trims everything and returns `None`), and the empty history. Both
//! implementations must return the same `Option<FilterOutcome>`, the value
//! compared by its bits.
//!
//! The payload summary is checked on entry lists given out of order, with
//! duplicate ids, and with ids outside the population — alone and against
//! a second index, which must get a summary of its own.

#[path = "oracles/filter.rs"]
mod reference;

use dbac_core::config::FloodMode;
use dbac_core::filter::{filter_and_average, FilterOutcome};
use dbac_core::message_set::{CompletePayload, MessageSet};
use dbac_core::precompute::Topology;
use dbac_graph::{generators, Digraph, NodeId, PathBudget, PathId, PathIndex};

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

/// The summary's observables from a scan of the payload's entries, in
/// their stored (id) order: every id interned; Definition 8 over the
/// interned entries; per node, the value bits of its first interned entry.
fn scan(payload: &CompletePayload, index: &PathIndex) -> (bool, bool, Vec<Option<u64>>) {
    let known: Vec<(NodeId, u64)> = payload
        .entries()
        .iter()
        .filter(|&&(p, _)| index.contains_id(p))
        .map(|&(p, v)| (index.init(p), v.to_bits()))
        .collect();
    let interned = known.len() == payload.len();
    let consistent =
        interned && known.iter().all(|&(q, b)| known.iter().all(|&(r, c)| q != r || b == c));
    let first = (0..=index.graph_node_count())
        .map(|q| known.iter().find(|&&(r, _)| r.index() == q).map(|&(_, b)| b))
        .collect();
    (interned, consistent, first)
}

fn assert_summary(payload: &CompletePayload, index: &PathIndex, ctx: &str) {
    let summary = payload.summary(index);
    let (interned, consistent, first) = scan(payload, index);
    assert_eq!(summary.is_interned(), interned, "{ctx}: interned");
    assert_eq!(summary.is_consistent(), consistent, "{ctx}: consistent");
    for (q, want) in first.into_iter().enumerate() {
        let got = summary.value_of(NodeId::new(q)).map(f64::to_bits);
        assert_eq!(got, want, "{ctx}: value_of({q})");
    }
}

#[test]
fn payload_summary_matches_a_per_entry_scan() {
    let fixtures = fixtures();
    let mut rng = Rng(0x5A11_0000);
    let mut seen = [0usize; 3]; // consistent, inconsistent, uninterned
    for case in 0..600 {
        let (name, t) = &fixtures[case % fixtures.len()];
        let index = t.index();
        let len = index.len() as u64;
        let honest: Vec<f64> = (0..t.graph().node_count()).map(|_| rng.pick(&TIES)).collect();
        let mut entries: Vec<(PathId, f64)> = Vec::new();
        for _ in 0..rng.below(40) {
            // A duplicate of an earlier entry's id, one time in eight.
            let p = match rng.below(8) {
                0 if !entries.is_empty() => rng.pick(&entries).0,
                _ => PathId::from_raw(rng.below(len) as u32),
            };
            let v = if rng.below(8) != 0 { honest[index.init(p).index()] } else { rng.pick(&TIES) };
            entries.push((p, v));
        }
        // One payload in four names ids outside the population: just past
        // it, or far out.
        if rng.below(4) == 0 {
            entries.push((PathId::from_raw((len + rng.below(64)) as u32), rng.pick(&TIES)));
            if rng.below(2) == 0 {
                entries.push((PathId::from_raw(u32::MAX - 1), rng.pick(&TIES)));
            }
        }
        // `from_entries` sorts: the list goes in shuffled.
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let payload = CompletePayload::from_entries(entries);
        assert_summary(&payload, index, &format!("{name} case {case}"));
        // Read back from the cache, then against another fixture's index.
        assert_summary(&payload, index, &format!("{name} case {case} (cached)"));
        let (other_name, other) = &fixtures[(case + 1) % fixtures.len()];
        assert_summary(&payload, other.index(), &format!("{name} case {case} on {other_name}"));
        let summary = payload.summary(index);
        seen[match (summary.is_interned(), summary.is_consistent()) {
            (false, _) => 2,
            (true, true) => 0,
            (true, false) => 1,
        }] += 1;
    }
    assert!(seen.iter().all(|&k| k > 50), "consistent / inconsistent / uninterned: {seen:?}");
}
