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
//!
//! # Trimming per path class
//!
//! Line 1's order is by value under [`f64::total_cmp`], ties broken by
//! path id (ids are canonical across nodes, so every node sorts alike).
//! Whether a set of messages admits an `f`-cover depends only on the
//! *distinct* node sets of their paths (Definition 4), and a path's node
//! set is fixed by its class ([`PathIndex::class`], the interned
//! `(init, node set)` pair). So a prefix of the sorted order is coverable
//! iff the classes it has *entered* are — and a class enters the prefix at
//! its first message in that order. The longest coverable prefix therefore
//! ends just before the **breaker**: the first message of the first class
//! (ordered by first message) whose node set makes the classes so far
//! uncoverable. The suffix is the mirror image, over each class's last
//! message.
//!
//! The implementation never sorts the messages. One pass over `M_v`
//! records each class's first and last message in line 1's order; the
//! classes (tens to hundreds, against thousands of messages) are sorted by
//! those; the binary search for the breaker runs `has_cover` over class
//! node sets; and one counting pass turns the two breakers into the trim
//! lengths. The breakers are the surviving extremes, so their values give
//! the midpoint. The outcome is exactly that of sorting every message —
//! the reference sort-and-search implementation is kept as a test oracle
//! (`tests/oracles/filter.rs`), and `tests/differential_filter.rs` checks
//! the two agree bit for bit.

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

/// A message's position in line 1's order: its value as the integer whose
/// order is [`f64::total_cmp`]'s, then its path id.
type Key = (i64, u32);

fn key(path: PathId, value: f64) -> Key {
    let bits = value.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, path.raw())
}

/// The value a [`key`] was made from (the map flips no sign bit, so it is
/// its own inverse).
fn value_of_key(key: Key) -> f64 {
    let bits = key.0 ^ (((key.0 >> 63) as u64) >> 1) as i64;
    f64::from_bits(bits as u64)
}

/// Marks a class with no message yet in `filter_and_average`'s slot table.
const NO_SPAN: u32 = u32::MAX;

/// A class's first and last message in line 1's order.
struct Span {
    first: Key,
    last: Key,
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
    // One pass, in id order: a class's first message is replaced only by a
    // strictly smaller value (an equal one has the larger id), its last by
    // any value at least as large.
    let mut slot_of = vec![NO_SPAN; index.class_count()];
    let mut spans: Vec<Span> = Vec::new();
    for (p, v) in mset.iter() {
        let k = key(p, v);
        let slot = &mut slot_of[index.class(p)];
        if *slot == NO_SPAN {
            *slot = spans.len() as u32;
            spans.push(Span { first: k, last: k });
            continue;
        }
        let span = &mut spans[*slot as usize];
        if k.0 < span.first.0 {
            span.first = k;
        }
        if k.0 >= span.last.0 {
            span.last = k;
        }
    }
    if spans.is_empty() {
        return None;
    }
    let allowed = NodeSet::universe(n) - NodeSet::singleton(me);

    // Lines 2–3: the breakers of the longest coverable prefix and suffix.
    let mut by_first: Vec<Key> = spans.iter().map(|s| s.first).collect();
    by_first.sort_unstable();
    let mut by_last: Vec<Key> = spans.iter().map(|s| s.last).collect();
    by_last.sort_unstable_by(|a, b| b.cmp(a));
    let low = breaker(&by_first, f, allowed, index)?;
    let high = breaker(&by_last, f, allowed, index)?;

    // Line 4: everything before the low breaker and after the high one
    // goes.
    let (mut trimmed_low, mut trimmed_high) = (0, 0);
    for (p, v) in mset.iter() {
        let k = key(p, v);
        trimmed_low += usize::from(k < low);
        trimmed_high += usize::from(k > high);
    }
    let len = mset.len();
    if trimmed_low + trimmed_high >= len {
        return None;
    }
    // Line 5: midpoint of the extremes, which are the breakers.
    let value = (value_of_key(low) + value_of_key(high)) / 2.0;
    Some(FilterOutcome { value, trimmed_low, trimmed_high, kept: len - trimmed_low - trimmed_high })
}

/// The message, among the class `ends` in trimming order, whose class first
/// makes the node sets so far uncoverable; `None` if all of them are
/// coverable (the whole history could be trimmed).
fn breaker(ends: &[Key], f: usize, allowed: NodeSet, index: &PathIndex) -> Option<Key> {
    let sets: Vec<NodeSet> = ends.iter().map(|k| index.node_set(PathId::from_raw(k.1))).collect();
    // Largest k in [0, len] with a cover; k = 0 always qualifies, and
    // coverable sets are downward closed (a cover of a superset covers the
    // subset), so binary search finds it.
    let (mut lo, mut hi) = (0usize, sets.len());
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if has_cover(&sets[..mid], f, allowed) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    ends.get(lo).copied()
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
