//! Differential harness: the const-generic multi-word `NodeSet` against the
//! retired u128 single-word implementation, exercised through the public API.
//!
//! The u128 backend was the production bitset through PR 8; it is kept as
//! the test-only oracle `tests/oracles/nodeset.rs` so any future width or
//! word-order change is checked against the original semantics on the
//! shared `n <= 128` domain, on every `cargo test`.

#[path = "oracles/nodeset.rs"]
mod reference;

use dbac_graph::nodeset::WordSet;
use dbac_graph::{NodeId, NodeSet};
use proptest::prelude::*;
use reference::RefNodeSet;

/// Builds the same set in both implementations from raw indices.
fn both(indices: &[usize]) -> (NodeSet, RefNodeSet) {
    let mut new = NodeSet::EMPTY;
    let mut old = RefNodeSet(0);
    for &i in indices {
        new.insert(NodeId::new(i));
        old.insert(i);
    }
    (new, old)
}

/// Asserts the multi-word set and the u128 oracle hold the same members,
/// in the same iteration order, with the same cardinality.
fn agree(new: NodeSet, old: &RefNodeSet) {
    assert_eq!(new.len(), old.len(), "cardinality diverged");
    assert_eq!(new.is_empty(), old.is_empty());
    assert_eq!(new.first().map(|v| v.index()), old.first());
    let new_members: Vec<usize> = new.iter().map(|v| v.index()).collect();
    assert_eq!(new_members, old.indices(), "membership or order diverged");
}

proptest! {
    /// Set algebra (union / intersection / difference / complement) and the
    /// relational predicates must match the u128 oracle for every pair of
    /// subsets of the shared `n <= 128` domain.
    #[test]
    fn algebra_matches_the_u128_oracle(
        a in proptest::collection::vec(0usize..128, 0..40),
        b in proptest::collection::vec(0usize..128, 0..40),
    ) {
        let (na, oa) = both(&a);
        let (nb, ob) = both(&b);
        agree(na, &oa);
        agree(nb, &ob);
        agree(na.union(nb), &oa.union(ob));
        agree(na.intersection(nb), &oa.intersection(ob));
        agree(na.difference(nb), &oa.difference(ob));
        agree(na.complement_in(128), &oa.complement_in(128));
        assert_eq!(na.is_subset(nb), oa.is_subset(ob));
        assert_eq!(na.is_disjoint(nb), oa.is_disjoint(ob));
        for probe in 0..128usize {
            assert_eq!(na.contains(NodeId::new(probe)), oa.contains(probe), "probe {probe}");
            assert_eq!(na.rank_below(NodeId::new(probe)), oa.rank_below(probe), "rank {probe}");
        }
    }

    /// Interleaved insert/remove sequences must leave both implementations
    /// with identical membership. Each op packs kind and index into one
    /// integer (the proptest shim has no tuple or bool strategies):
    /// `op < 128` inserts node `op`, otherwise removes node `op - 128`.
    #[test]
    fn mutation_sequences_match_the_u128_oracle(
        ops in proptest::collection::vec(0usize..256, 0..96),
    ) {
        let mut new = NodeSet::EMPTY;
        let mut old = RefNodeSet(0);
        for op in ops {
            let i = op % 128;
            if op < 128 {
                new.insert(NodeId::new(i));
                old.insert(i);
            } else {
                new.remove(NodeId::new(i));
                old.remove(i);
            }
            agree(new, &old);
        }
    }
}

/// `universe(n)` must agree with the oracle at every width the oracle
/// supports, including both word boundaries of the multi-word layout.
#[test]
fn universes_match_the_u128_oracle() {
    for n in [0usize, 1, 5, 63, 64, 65, 100, 127, 128] {
        agree(NodeSet::universe(n), &RefNodeSet::universe(n));
    }
}

// -----------------------------------------------------------------
// A pinned 128-bit instance (`WordSet<2>`) against the oracle, so the
// comparison covers the full shared domain whatever `NODE_WORDS` is.
// -----------------------------------------------------------------

/// Builds both representations from one index list.
fn both128(ids: &[usize]) -> (WordSet<2>, RefNodeSet) {
    let mut w = WordSet::<2>::new();
    let mut r = RefNodeSet::EMPTY;
    for &i in ids {
        w.insert(NodeId::new(i));
        r.insert(i);
    }
    (w, r)
}

fn agree128(w: WordSet<2>, r: RefNodeSet) {
    assert_eq!(w.len(), r.len());
    assert_eq!(w.is_empty(), r.is_empty());
    assert_eq!(w.first().map(|v| v.index()), r.first());
    let order: Vec<usize> = w.iter().map(NodeId::index).collect();
    assert_eq!(order, r.indices(), "iteration order diverged");
}

proptest! {
    #[test]
    fn differential_vs_u128_reference(
        a in proptest::collection::vec(0usize..128, 0..24),
        b in proptest::collection::vec(0usize..128, 0..24),
        probe in 0usize..128,
        n in 0usize..=128,
    ) {
        let (wa, ra) = both128(&a);
        let (wb, rb) = both128(&b);
        agree128(wa, ra);
        agree128(wb, rb);
        agree128(wa.union(wb), ra.union(rb));
        agree128(wa.intersection(wb), ra.intersection(rb));
        agree128(wa.difference(wb), ra.difference(rb));
        prop_assert_eq!(wa.contains(NodeId::new(probe)), ra.contains(probe));
        prop_assert_eq!(wa.is_subset(wb), ra.is_subset(rb));
        prop_assert_eq!(wa.is_disjoint(wb), ra.is_disjoint(rb));
        prop_assert_eq!(wa.rank_below(NodeId::new(probe)), ra.rank_below(probe));
        let masked = wa.intersection(WordSet::<2>::universe(n));
        agree128(masked, ra.intersection(RefNodeSet::universe(n)));
        agree128(wa.complement_in(128).intersection(WordSet::<2>::universe(n)),
              ra.complement_in(128).intersection(RefNodeSet::universe(n)));
        // Ord agrees with the u128 numeric order.
        prop_assert_eq!(wa.cmp(&wb), ra.0.cmp(&rb.0));
    }

    #[test]
    fn differential_insert_remove_sequences(
        // Each op packs (kind, index): 0..128 inserts i, 128..256 removes
        // i − 128 (the shim has no tuple strategies).
        ops in proptest::collection::vec(0usize..256, 0..64),
    ) {
        let mut w = WordSet::<2>::new();
        let mut r = RefNodeSet::EMPTY;
        for op in ops {
            let i = op % 128;
            if op < 128 {
                prop_assert_eq!(w.insert(NodeId::new(i)), r.insert(i));
            } else {
                prop_assert_eq!(w.remove(NodeId::new(i)), r.remove(i));
            }
            agree128(w, r);
        }
    }
}
