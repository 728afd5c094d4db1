//! Algorithm 3: **Filter-and-Average**.
//!
//! A node sorts every message in its round history `M_v`, trims the longest
//! value-prefix and value-suffix whose propagation paths admit an `f`-cover
//! (i.e. could have been tampered with by *some* fault set), and moves to
//! the midpoint of the surviving extremes.
//!
//! Note on the paper's line 5: the printed update rule is
//! `(max − min)/2`, but the convergence proof (Lemma 15) manipulates
//! `(z + µ)/2 ≤ x ≤ (z + U)/2`, the algebra of the **midpoint**
//! `(max + min)/2`; we implement the midpoint, the rule the proof needs.
//!
//! Cover candidates exclude the executing node itself — a node knows its
//! own value is genuine and never suspects it — which also guarantees the
//! trimmed vector is never empty: the trivial path `⟨v⟩` is uncoverable.

use crate::message_set::MessageSet;
use dbac_conditions::cover::has_cover;
use dbac_graph::{NodeId, NodeSet, PathId, PathIndex};
use serde::{Deserialize, Serialize};

/// The result of one Filter-and-Average step.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FilterOutcome {
    /// The new state value `x_v[r+1]` — midpoint of the surviving extremes.
    pub value: f64,
    /// Messages trimmed from the low end (`O^lo_v`).
    pub trimmed_low: usize,
    /// Messages trimmed from the high end (`O^hi_v`).
    pub trimmed_high: usize,
    /// Messages surviving in `O'_v`.
    pub kept: usize,
}

/// Runs Filter-and-Average over the accumulated round history `mset` at
/// node `me` in an `n`-node network with fault bound `f`.
///
/// Returns `None` only if trimming would consume everything — impossible
/// in a genuine protocol state (the node's own trivial path is present and
/// uncoverable), but handled defensively for direct library use.
#[must_use]
pub fn filter_and_average(
    mset: &MessageSet,
    f: usize,
    me: NodeId,
    n: usize,
    index: &PathIndex,
) -> Option<FilterOutcome> {
    // Line 1: sort by value; ties broken by path id for determinism (ids
    // are canonical across nodes).
    let mut entries: Vec<(PathId, f64)> = mset.iter().collect();
    entries.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let sets: Vec<NodeSet> = entries.iter().map(|&(p, _)| index.node_set(p)).collect();
    let len = entries.len();
    if len == 0 {
        return None;
    }

    let allowed = NodeSet::universe(n) - NodeSet::singleton(me);

    // Lines 2–3: longest coverable prefix / suffix. Coverable prefixes are
    // downward closed (a cover of a superset covers the subset), so the
    // maximal length is found by binary search.
    let lo = longest_coverable(|k| &sets[..k], len, f, allowed);
    let hi = longest_coverable(|k| &sets[len - k..], len, f, allowed);

    if lo + hi >= len {
        return None;
    }
    // Line 4: remove both trims; line 5: midpoint of the extremes.
    let kept = &entries[lo..len - hi];
    let value = (kept[0].1 + kept[kept.len() - 1].1) / 2.0;
    Some(FilterOutcome { value, trimmed_low: lo, trimmed_high: hi, kept: kept.len() })
}

fn longest_coverable<'a>(
    slice: impl Fn(usize) -> &'a [NodeSet],
    len: usize,
    f: usize,
    allowed: NodeSet,
) -> usize {
    // Largest k in [0, len] with a cover; k = 0 always qualifies.
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if has_cover(slice(mid), f, allowed) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::Topology;
    use crate::test_support::{clique_topo, pid};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn topo(n: usize) -> Topology {
        clique_topo(n, 1)
    }

    #[test]
    fn no_faults_no_trim() {
        // f = 0: nothing is coverable, midpoint of raw extremes.
        let t = topo(4);
        let m: MessageSet =
            [(pid(&t, &[1, 0]), 1.0), (pid(&t, &[2, 0]), 5.0), (pid(&t, &[0]), 3.0)]
                .into_iter()
                .collect();
        let out = filter_and_average(&m, 0, id(0), 4, t.index()).unwrap();
        assert_eq!(out.value, 3.0);
        assert_eq!((out.trimmed_low, out.trimmed_high, out.kept), (0, 0, 3));
    }

    #[test]
    fn single_liar_trimmed_from_low_end() {
        // Node 3 injects an extreme low value on all its paths; every such
        // path contains node 3, so {3} is a 1-cover and the prefix goes.
        let t = topo(4);
        let m: MessageSet = [
            (pid(&t, &[3, 0]), -100.0),
            (pid(&t, &[3, 1, 0]), -100.0),
            (pid(&t, &[1, 0]), 4.0),
            (pid(&t, &[2, 0]), 6.0),
            (pid(&t, &[0]), 5.0),
        ]
        .into_iter()
        .collect();
        let out = filter_and_average(&m, 1, id(0), 4, t.index()).unwrap();
        assert_eq!(out.trimmed_low, 2);
        // The genuine high 6 also trims ({2} covers its only path); the
        // survivors are 4 and 5 — still inside the honest range.
        assert_eq!(out.trimmed_high, 1);
        assert_eq!(out.value, 4.5);
    }

    #[test]
    fn genuine_extremes_survive_when_uncoverable() {
        // The low value arrives over two node-disjoint paths — no single
        // node covers both, so it must be kept (it may be genuine).
        let t = topo(5);
        let m: MessageSet = [
            (pid(&t, &[3, 0]), -100.0),
            (pid(&t, &[4, 0]), -100.0),
            (pid(&t, &[1, 0]), 4.0),
            (pid(&t, &[0]), 5.0),
        ]
        .into_iter()
        .collect();
        let out = filter_and_average(&m, 1, id(0), 5, t.index()).unwrap();
        // The *first* -100 alone is coverable ({3}), but the prefix cannot
        // extend over both disjoint paths — one -100 message survives.
        assert_eq!(out.trimmed_low, 1);
        assert_eq!(out.value, (-100.0 + 5.0) / 2.0);
    }

    #[test]
    fn own_trivial_path_is_never_trimmed() {
        // Everything except ⟨0⟩ is coverable; the own value survives.
        let t = topo(4);
        let m: MessageSet =
            [(pid(&t, &[3, 0]), -9.0), (pid(&t, &[0]), 2.0), (pid(&t, &[3, 1, 0]), 11.0)]
                .into_iter()
                .collect();
        let out = filter_and_average(&m, 1, id(0), 4, t.index()).unwrap();
        assert_eq!(out.kept, 1);
        assert_eq!(out.value, 2.0);
    }

    #[test]
    fn two_fault_budget_trims_two_liars() {
        let t = topo(5);
        let m: MessageSet = [
            (pid(&t, &[3, 0]), -50.0),
            (pid(&t, &[4, 0]), -40.0),
            (pid(&t, &[1, 0]), 1.0),
            (pid(&t, &[0]), 2.0),
            (pid(&t, &[2, 0]), 3.0),
        ]
        .into_iter()
        .collect();
        // f = 1 cannot cover paths through 3 and 4 together.
        let out1 = filter_and_average(&m, 1, id(0), 5, t.index()).unwrap();
        assert_eq!(out1.trimmed_low, 1, "only the single lowest is 1-coverable");
        // f = 2 can.
        let out2 = filter_and_average(&m, 2, id(0), 5, t.index()).unwrap();
        assert_eq!(out2.trimmed_low, 2);
        // Survivors: 1, 2 (the genuine 3 trims as a coverable suffix).
        assert_eq!(out2.value, 1.5);
    }

    #[test]
    fn empty_set_returns_none() {
        let t = topo(3);
        assert_eq!(filter_and_average(&MessageSet::new(), 1, id(0), 3, t.index()), None);
    }

    #[test]
    fn value_ties_keep_message_granularity() {
        // Two messages with the same value: trimming is by message, and the
        // sort is deterministic under ties (id order puts ⟨0⟩ before
        // ⟨1,0⟩ before ⟨2,0⟩ in the terminal-0 pool).
        let t = topo(3);
        let m: MessageSet =
            [(pid(&t, &[1, 0]), 5.0), (pid(&t, &[2, 0]), 5.0), (pid(&t, &[0]), 5.0)]
                .into_iter()
                .collect();
        assert!(pid(&t, &[0]) < pid(&t, &[1, 0]) && pid(&t, &[1, 0]) < pid(&t, &[2, 0]));
        let out = filter_and_average(&m, 1, id(0), 3, t.index()).unwrap();
        assert_eq!(out.value, 5.0);
        // Sorted (value, id): ⟨0⟩, ⟨1,0⟩, ⟨2,0⟩. The prefix starts at the
        // uncoverable ⟨0⟩ (lo = 0); the suffix trims only ⟨2,0⟩.
        assert_eq!((out.trimmed_low, out.trimmed_high, out.kept), (0, 1, 2));
    }
}
