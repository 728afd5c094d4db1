//! The per-message Filter-and-Average, kept as a differential-testing
//! oracle.
//!
//! This is the implementation the class-level trim in
//! [`dbac_core::filter`] replaced: it collects every `(path, value)` of
//! `M_v`, sorts them by value (`f64::total_cmp`, ties by path id), builds
//! one node set per message and binary-searches `has_cover` over prefixes
//! and suffixes of that list. It follows Algorithm 3 line by line, which is
//! exactly what makes it a trustworthy model: `tests/differential_filter.rs`
//! runs both over generated histories and requires identical outcomes, the
//! value compared by its bits.
//!
//! Test code only — the library carries no second implementation.

use dbac_conditions::cover::has_cover;
use dbac_core::filter::FilterOutcome;
use dbac_core::message_set::MessageSet;
use dbac_graph::{NodeId, NodeSet, PathId, PathIndex};

/// Runs Filter-and-Average over `mset` at node `me` in an `n`-node network
/// with fault bound `f`, by sorting every message.
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
