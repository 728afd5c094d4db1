//! Bitset over node identifiers.
//!
//! The paper quantifies over node subsets constantly ("for any `F ⊆ V` such
//! that `|F| ≤ f` …"). [`NodeSet`] makes those subsets cheap values: a
//! const-generic multi-word bitset with *O(W)* union/intersection/
//! containment, `Copy` semantics and deterministic iteration order.
//!
//! # Width
//!
//! [`NodeSet`] is [`WordSet`] instantiated at [`NODE_WORDS`] 64-bit words,
//! so it holds node indices `0 .. MAX_NODES` where
//! `MAX_NODES = NODE_WORDS * 64`:
//!
//! * default build — 4 words, 256 nodes, a 32-byte `Copy` value;
//! * `huge-graphs` feature — 256 words, 16384 nodes, for the
//!   tens-of-thousands iterative scaling runs.
//!
//! The original `u128` single-word implementation survives as test code
//! (`tests/oracles/nodeset.rs`): the proptests of
//! `tests/nodeset_differential.rs` drive both through the same operation
//! sequences for `n ≤ 128` and require identical answers.

use crate::node::NodeId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Sub, SubAssign};

/// Number of 64-bit words backing a [`NodeSet`].
pub const NODE_WORDS: usize = if cfg!(feature = "huge-graphs") { 256 } else { 4 };

/// Maximum number of nodes representable in a [`NodeSet`].
pub const MAX_NODES: usize = NODE_WORDS * 64;

/// A set of [`NodeId`]s backed by [`NODE_WORDS`] × 64-bit words.
///
/// # Example
///
/// ```
/// use dbac_graph::{NodeId, NodeSet};
///
/// let f: NodeSet = [NodeId::new(1), NodeId::new(4)].into_iter().collect();
/// assert_eq!(f.len(), 2);
/// assert!(f.contains(NodeId::new(4)));
///
/// // The complement within a 6-node universe — the paper's `F̄ = V \ F`.
/// let complement = f.complement_in(6);
/// assert_eq!(complement.len(), 4);
/// assert!(complement.is_disjoint(f));
/// ```
pub type NodeSet = WordSet<NODE_WORDS>;

/// Iterator over the nodes of a [`NodeSet`], produced by [`NodeSet::iter`].
pub type Iter = WordIter<NODE_WORDS>;

/// A fixed-width bitset over node indices `0 .. W * 64`.
///
/// [`NodeSet`] is the workspace-wide instantiation; the width is generic so
/// the differential harness can pin a 128-bit instance (`WordSet<2>`)
/// against the retired `u128` oracle regardless of the build's
/// [`NODE_WORDS`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct WordSet<const W: usize>([u64; W]);

impl<const W: usize> WordSet<W> {
    /// The empty set.
    pub const EMPTY: WordSet<W> = WordSet([0; W]);

    /// Node-index capacity of this width (`W * 64`).
    pub const CAPACITY: usize = W * 64;

    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set containing exactly one node.
    #[must_use]
    pub fn singleton(v: NodeId) -> Self {
        let mut s = Self::EMPTY;
        s.0[v.index() / 64] = 1u64 << (v.index() % 64);
        s
    }

    /// Creates the full universe `{0, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the width's capacity (`MAX_NODES` for
    /// [`NodeSet`]).
    #[must_use]
    pub fn universe(n: usize) -> Self {
        assert!(n <= Self::CAPACITY, "universe size {n} exceeds {}", Self::CAPACITY);
        let mut s = Self::EMPTY;
        for (i, w) in s.0.iter_mut().enumerate() {
            let lo = i * 64;
            if n >= lo + 64 {
                *w = u64::MAX;
            } else if n > lo {
                *w = (1u64 << (n - lo)) - 1;
            }
        }
        s
    }

    /// Inserts a node; returns `true` if it was not already present.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let (word, bit) = (v.index() / 64, 1u64 << (v.index() % 64));
        let was_absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        was_absent
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let (word, bit) = (v.index() / 64, 1u64 << (v.index() % 64));
        let was_present = self.0[word] & bit != 0;
        self.0[word] &= !bit;
        was_present
    }

    /// Returns `true` if the set contains `v`.
    #[must_use]
    pub fn contains(self, v: NodeId) -> bool {
        self.0[v.index() / 64] & (1u64 << (v.index() % 64)) != 0
    }

    /// Number of nodes in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Set union `self ∪ other`.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        let mut out = self;
        for (o, w) in out.0.iter_mut().zip(other.0) {
            *o |= w;
        }
        out
    }

    /// Set intersection `self ∩ other`.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        let mut out = self;
        for (o, w) in out.0.iter_mut().zip(other.0) {
            *o &= w;
        }
        out
    }

    /// Set difference `self ∖ other`.
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        let mut out = self;
        for (o, w) in out.0.iter_mut().zip(other.0) {
            *o &= !w;
        }
        out
    }

    /// Complement within the universe `{0, …, n-1}` — the paper's `X̄`.
    #[must_use]
    pub fn complement_in(self, n: usize) -> Self {
        let mut out = Self::universe(n);
        for (o, w) in out.0.iter_mut().zip(self.0) {
            *o &= !w;
        }
        out
    }

    /// Returns `true` if `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: Self) -> bool {
        self.0.iter().zip(other.0).all(|(&a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share no node.
    #[must_use]
    pub fn is_disjoint(self, other: Self) -> bool {
        self.0.iter().zip(other.0).all(|(&a, b)| a & b == 0)
    }

    /// Smallest node in the set, if non-empty.
    #[must_use]
    pub fn first(self) -> Option<NodeId> {
        self.0
            .iter()
            .position(|&w| w != 0)
            .map(|i| NodeId::new(i * 64 + self.0[i].trailing_zeros() as usize))
    }

    /// Number of members with index strictly below `v` — the rank `v`
    /// would occupy in the set's sorted iteration order. This is the
    /// opaque replacement for the old `bits() & (bit - 1)` popcount
    /// idiom (dense per-neighbor slot assignment in `PathIndex`).
    #[must_use]
    pub fn rank_below(self, v: NodeId) -> usize {
        let (word, bit) = (v.index() / 64, v.index() % 64);
        let below: usize = self.0[..word].iter().map(|w| w.count_ones() as usize).sum();
        below + (self.0[word] & ((1u64 << bit) - 1)).count_ones() as usize
    }

    /// Iterates over the nodes in ascending index order.
    pub fn iter(self) -> WordIter<W> {
        WordIter { words: self.0, word: 0 }
    }

    /// The backing words, least-significant first — the compact,
    /// width-honest form for wire codecs and snapshots.
    #[must_use]
    pub fn words(&self) -> &[u64; W] {
        &self.0
    }

    /// Reconstructs a set from backing words produced by
    /// [`WordSet::words`].
    #[must_use]
    pub fn from_words(words: [u64; W]) -> Self {
        WordSet(words)
    }
}

impl<const W: usize> Default for WordSet<W> {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Numeric mask order, most-significant word first — coincides with the
/// old `u128` ordering for sets confined to the low 128 bits, so sorted
/// collections of sets keep their historical order.
impl<const W: usize> Ord for WordSet<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..W).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }
}

impl<const W: usize> PartialOrd for WordSet<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashes only the non-zero word prefix (plus its length), so small sets
/// in a wide build don't pay for hashing kilobytes of zero words. Equal
/// sets share the same prefix, keeping the impl consistent with `Eq`.
impl<const W: usize> Hash for WordSet<W> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let len = W - self.0.iter().rev().take_while(|&&w| w == 0).count();
        state.write_usize(len);
        for &w in &self.0[..len] {
            state.write_u64(w);
        }
    }
}

/// Iterator over the nodes of a [`WordSet`], produced by
/// [`WordSet::iter`].
#[derive(Clone, Debug)]
pub struct WordIter<const W: usize> {
    words: [u64; W],
    word: usize,
}

impl<const W: usize> Iterator for WordIter<W> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.word < W {
            let w = self.words[self.word];
            if w != 0 {
                self.words[self.word] = w & (w - 1);
                return Some(NodeId::new(self.word * 64 + w.trailing_zeros() as usize));
            }
            self.word += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.words[self.word..].iter().map(|w| w.count_ones() as usize).sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for WordIter<W> {}

impl<const W: usize> IntoIterator for WordSet<W> {
    type Item = NodeId;
    type IntoIter = WordIter<W>;

    fn into_iter(self) -> WordIter<W> {
        self.iter()
    }
}

impl<const W: usize> FromIterator<NodeId> for WordSet<W> {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl<const W: usize> Extend<NodeId> for WordSet<W> {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<const W: usize> BitOr for WordSet<W> {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl<const W: usize> BitOrAssign for WordSet<W> {
    fn bitor_assign(&mut self, rhs: Self) {
        for (o, w) in self.0.iter_mut().zip(rhs.0) {
            *o |= w;
        }
    }
}

impl<const W: usize> BitAnd for WordSet<W> {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl<const W: usize> BitAndAssign for WordSet<W> {
    fn bitand_assign(&mut self, rhs: Self) {
        for (o, w) in self.0.iter_mut().zip(rhs.0) {
            *o &= w;
        }
    }
}

impl<const W: usize> Sub for WordSet<W> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl<const W: usize> SubAssign for WordSet<W> {
    fn sub_assign(&mut self, rhs: Self) {
        for (o, w) in self.0.iter_mut().zip(rhs.0) {
            *o &= !w;
        }
    }
}

impl<const W: usize> fmt::Debug for WordSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl<const W: usize> fmt::Display for WordSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", v.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl<const W: usize> From<NodeId> for WordSet<W> {
    fn from(v: NodeId) -> Self {
        Self::singleton(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(3)));
        assert!(!s.insert(NodeId::new(3)));
        assert!(s.contains(NodeId::new(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId::new(3)));
        assert!(!s.remove(NodeId::new(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = ns(&[0, 1, 2]);
        let b = ns(&[2, 3]);
        assert_eq!(a.union(b), ns(&[0, 1, 2, 3]));
        assert_eq!(a.intersection(b), ns(&[2]));
        assert_eq!(a.difference(b), ns(&[0, 1]));
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersection(b));
        assert_eq!(a - b, a.difference(b));
    }

    #[test]
    fn complement_matches_paper_overline() {
        let f = ns(&[1, 4]);
        let c = f.complement_in(6);
        assert_eq!(c, ns(&[0, 2, 3, 5]));
        assert_eq!(f.union(c), NodeSet::universe(6));
        assert!(f.is_disjoint(c));
    }

    #[test]
    fn universe_edges() {
        assert_eq!(NodeSet::universe(0), NodeSet::EMPTY);
        assert_eq!(NodeSet::universe(MAX_NODES).len(), MAX_NODES);
        // Word-boundary sizes are where a multi-word fill goes wrong.
        for n in [63, 64, 65, 127, 128, 129] {
            assert_eq!(NodeSet::universe(n).len(), n);
            assert_eq!(NodeSet::universe(n).first(), (n > 0).then(|| NodeId::new(0)));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn universe_rejects_oversize() {
        let _ = NodeSet::universe(MAX_NODES + 1);
    }

    #[test]
    fn subset_and_disjoint() {
        assert!(ns(&[1]).is_subset(ns(&[0, 1])));
        assert!(!ns(&[2]).is_subset(ns(&[0, 1])));
        assert!(NodeSet::EMPTY.is_subset(NodeSet::EMPTY));
        assert!(ns(&[0]).is_disjoint(ns(&[1])));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = ns(&[5, 1, 9]);
        let order: Vec<usize> = s.iter().map(NodeId::index).collect();
        assert_eq!(order, vec![1, 5, 9]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn first_returns_minimum() {
        assert_eq!(ns(&[7, 3]).first(), Some(NodeId::new(3)));
        assert_eq!(NodeSet::EMPTY.first(), None);
    }

    #[test]
    fn display_lists_indices() {
        assert_eq!(ns(&[0, 2]).to_string(), "{0,2}");
        assert_eq!(NodeSet::EMPTY.to_string(), "{}");
    }

    /// The low 128 bits of a set as the mask the u128-era `NodeSet` held.
    fn low128(s: &NodeSet) -> u128 {
        s.words()[0] as u128 | (s.words()[1] as u128) << 64
    }

    #[test]
    fn words_round_trip_within_128() {
        let s = ns(&[0, 64, 127]);
        assert_eq!(low128(&s), 1 | 1 << 64 | 1 << 127);
        assert_eq!(NodeSet::from_words(*s.words()), s);
    }

    #[test]
    fn members_past_128_live_above_the_low_words() {
        let s = ns(&[130]);
        assert_eq!(low128(&s), 0, "the low 128 bits cannot represent member 130");
        assert_eq!(s.words()[2], 1 << 2);
    }

    #[test]
    fn words_round_trip_past_128() {
        let s = ns(&[0, 64, 127, 128, MAX_NODES - 1]);
        assert_eq!(NodeSet::from_words(*s.words()), s);
        assert_eq!(s.len(), 5);
        let order: Vec<usize> = s.iter().map(NodeId::index).collect();
        assert_eq!(order, vec![0, 64, 127, 128, MAX_NODES - 1]);
    }

    #[test]
    fn rank_below_counts_smaller_members() {
        let s = ns(&[2, 5, 64, 130]);
        assert_eq!(s.rank_below(NodeId::new(0)), 0);
        assert_eq!(s.rank_below(NodeId::new(2)), 0);
        assert_eq!(s.rank_below(NodeId::new(3)), 1);
        assert_eq!(s.rank_below(NodeId::new(64)), 2);
        assert_eq!(s.rank_below(NodeId::new(65)), 3);
        assert_eq!(s.rank_below(NodeId::new(130)), 3);
        assert_eq!(s.rank_below(NodeId::new(MAX_NODES - 1)), 4);
    }

    #[test]
    fn order_matches_the_u128_numeric_order() {
        // For sets within 128 bits the multi-word Ord must coincide with
        // the historical u128 comparison (sorted snapshots stay stable).
        let cases = [ns(&[0]), ns(&[1]), ns(&[0, 1]), ns(&[64]), ns(&[127]), ns(&[5, 127])];
        for a in &cases {
            for b in &cases {
                assert_eq!(a.cmp(b), low128(a).cmp(&low128(b)), "{a} vs {b}");
            }
        }
        // Past 128 bits the order is still total and mask-numeric.
        assert!(ns(&[130]) > ns(&[127]));
    }

    #[test]
    fn hash_is_consistent_for_equal_sets() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let a = ns(&[3, 70]);
        let mut b = ns(&[3, 70, 200]);
        b.remove(NodeId::new(200));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&ns(&[0])), hash(&ns(&[1])));
    }
}
