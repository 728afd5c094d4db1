//! `f`-covers of path sets (Definition 4).
//!
//! A node set `C` is an *f-cover* of a path set `P` if `|C| ≤ f` and every
//! path of `P` contains a node of `C` — i.e. a fault set of size `f` could
//! have tampered with every path in `P`. Algorithm 2 (Completeness) accepts
//! a value only when the paths carrying it have **no** f-cover avoiding the
//! source component, and Algorithm 3 (Filter-and-Average) trims exactly the
//! value prefixes/suffixes that *do* have an f-cover.
//!
//! Finding a minimum hitting set is NP-hard in general; here `f` is a small
//! constant and paths have at most `2n` nodes, so bounded-depth branching
//! is exact and fast: the search explores at most `(2n)^f` branches.

use dbac_graph::NodeSet;

/// Searches for an `f`-cover of `paths` using only nodes from `allowed`.
///
/// Paths are given by their node sets (the paper interprets paths as node
/// sets for covering purposes). Returns a *witness* cover if one exists.
///
/// The `allowed` mask implements the two restrictions the paper's proofs
/// impose on candidate covers: Algorithm 2 requires `H ⊆ V ∖ S_{F_u,F_w}`,
/// and a node never counts itself as a suspect (it knows its own value
/// is genuine).
///
/// * An empty `paths` slice is covered by the empty set.
/// * A path disjoint from `allowed` can never be covered.
///
/// # Example
///
/// ```
/// use dbac_conditions::cover::find_cover;
/// use dbac_graph::{NodeId, NodeSet};
///
/// let p1: NodeSet = [NodeId::new(0), NodeId::new(1)].into_iter().collect();
/// let p2: NodeSet = [NodeId::new(1), NodeId::new(2)].into_iter().collect();
/// // Node 1 hits both paths.
/// let cover = find_cover(&[p1, p2], 1, NodeSet::universe(3)).expect("coverable");
/// assert_eq!(cover, NodeSet::singleton(NodeId::new(1)));
/// ```
#[must_use]
pub fn find_cover(paths: &[NodeSet], f: usize, allowed: NodeSet) -> Option<NodeSet> {
    search(paths, f, allowed, NodeSet::EMPTY)
}

/// Returns `true` if an `f`-cover of `paths` within `allowed` exists.
#[must_use]
pub fn has_cover(paths: &[NodeSet], f: usize, allowed: NodeSet) -> bool {
    find_cover(paths, f, allowed).is_some()
}

fn search(paths: &[NodeSet], budget: usize, allowed: NodeSet, chosen: NodeSet) -> Option<NodeSet> {
    // Find the first path not yet hit.
    let uncovered = paths.iter().find(|p| p.is_disjoint(chosen));
    let Some(&path) = uncovered else {
        return Some(chosen);
    };
    if budget == 0 {
        return None;
    }
    let candidates = path & allowed;
    if candidates.is_empty() {
        return None;
    }
    if budget == 1 {
        // Fast path: the single remaining pick must hit *all* uncovered
        // paths, i.e. lie in their common intersection.
        let mut common = candidates;
        for p in paths.iter().filter(|p| p.is_disjoint(chosen)) {
            common &= *p;
            if common.is_empty() {
                return None;
            }
        }
        let pick = common.first().expect("non-empty intersection");
        let mut cover = chosen;
        cover.insert(pick);
        return Some(cover);
    }
    for cand in candidates.iter() {
        let mut next = chosen;
        next.insert(cand);
        if let Some(cover) = search(paths, budget - 1, allowed, next) {
            return Some(cover);
        }
    }
    None
}

/// Verifies that `cover` is a genuine `f`-cover of `paths` (used by tests
/// and the experiment harness to cross-check witnesses).
#[must_use]
pub fn is_cover(paths: &[NodeSet], f: usize, cover: NodeSet) -> bool {
    cover.len() <= f && paths.iter().all(|p| !p.is_disjoint(cover))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::NodeId;

    fn ns(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn empty_path_set_is_covered_by_empty_set() {
        assert_eq!(find_cover(&[], 0, NodeSet::universe(4)), Some(NodeSet::EMPTY));
    }

    #[test]
    fn zero_budget_fails_on_any_path() {
        assert_eq!(find_cover(&[ns(&[0])], 0, NodeSet::universe(4)), None);
    }

    #[test]
    fn single_common_node() {
        let paths = [ns(&[0, 1, 2]), ns(&[2, 3]), ns(&[2, 4, 5])];
        let cover = find_cover(&paths, 1, NodeSet::universe(6)).unwrap();
        assert_eq!(cover, ns(&[2]));
        assert!(is_cover(&paths, 1, cover));
    }

    #[test]
    fn needs_two_nodes() {
        let paths = [ns(&[0, 1]), ns(&[2, 3]), ns(&[1, 2])];
        assert_eq!(find_cover(&paths, 1, NodeSet::universe(4)), None);
        let cover = find_cover(&paths, 2, NodeSet::universe(4)).unwrap();
        assert!(is_cover(&paths, 2, cover));
    }

    #[test]
    fn allowed_mask_blocks_candidates() {
        let paths = [ns(&[0, 1]), ns(&[1, 2])];
        // Node 1 covers both, but is disallowed (e.g. inside a source
        // component, per footnote 5 of the paper).
        let allowed = NodeSet::universe(3) - ns(&[1]);
        assert_eq!(find_cover(&paths, 1, allowed), None);
        let cover = find_cover(&paths, 2, allowed).unwrap();
        assert_eq!(cover, ns(&[0, 2]));
    }

    #[test]
    fn path_disjoint_from_allowed_is_uncoverable() {
        let paths = [ns(&[5])];
        assert_eq!(find_cover(&paths, 3, ns(&[0, 1, 2])), None);
    }

    #[test]
    fn three_budget_branching() {
        let paths = [ns(&[0]), ns(&[1]), ns(&[2])];
        let cover = find_cover(&paths, 3, NodeSet::universe(3)).unwrap();
        assert_eq!(cover, ns(&[0, 1, 2]));
        assert_eq!(find_cover(&paths, 2, NodeSet::universe(3)), None);
    }

    #[test]
    fn is_cover_rejects_oversized_or_missing() {
        let paths = [ns(&[0, 1])];
        assert!(!is_cover(&paths, 0, ns(&[0])));
        assert!(!is_cover(&paths, 2, ns(&[2, 3])));
        assert!(is_cover(&paths, 1, ns(&[1])));
    }

    #[test]
    fn exhaustive_cross_check_small_universe() {
        // Brute-force all subsets of a 5-node universe and compare with the
        // branching search on random-ish path systems.
        let systems: Vec<Vec<NodeSet>> = vec![
            vec![ns(&[0, 1]), ns(&[1, 2]), ns(&[3, 4])],
            vec![ns(&[0]), ns(&[0, 1, 2, 3, 4])],
            vec![ns(&[1, 2]), ns(&[2, 3]), ns(&[3, 1])],
            vec![ns(&[0, 2, 4]), ns(&[1, 3])],
        ];
        for paths in &systems {
            for f in 0..3 {
                let brute = dbac_graph::subsets::subsets_up_to(NodeSet::universe(5), f)
                    .into_iter()
                    .any(|c| is_cover(paths, f, c));
                assert_eq!(
                    has_cover(paths, f, NodeSet::universe(5)),
                    brute,
                    "mismatch for {paths:?} f={f}"
                );
            }
        }
    }
}
