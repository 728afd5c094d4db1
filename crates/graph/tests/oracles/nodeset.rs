//! The retired `u128` single-word bitset, kept verbatim-in-spirit as the
//! differential oracle for the multi-word
//! [`WordSet`](dbac_graph::nodeset::WordSet). Capacity is fixed at 128
//! nodes; the harness therefore only compares behaviours for `n ≤ 128`.
//!
//! Test code only — the library carries no second implementation.

/// Reference bitset over node *indices* (plain `usize`, so the oracle
/// stays independent of [`NodeId`](dbac_graph::NodeId)'s own bounds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefNodeSet(pub u128);

impl RefNodeSet {
    /// The empty set.
    pub const EMPTY: RefNodeSet = RefNodeSet(0);

    /// The full universe `{0, …, n-1}` (`n ≤ 128`).
    #[must_use]
    pub fn universe(n: usize) -> Self {
        assert!(n <= 128);
        if n == 128 {
            RefNodeSet(u128::MAX)
        } else {
            RefNodeSet((1u128 << n) - 1)
        }
    }

    /// Inserts index `i`; returns `true` if it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        let bit = 1u128 << i;
        let was_absent = self.0 & bit == 0;
        self.0 |= bit;
        was_absent
    }

    /// Removes index `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let bit = 1u128 << i;
        let was_present = self.0 & bit != 0;
        self.0 &= !bit;
        was_present
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1u128 << i) != 0
    }

    /// Cardinality.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Emptiness test.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, o: Self) -> Self {
        RefNodeSet(self.0 | o.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, o: Self) -> Self {
        RefNodeSet(self.0 & o.0)
    }

    /// Set difference.
    #[must_use]
    pub fn difference(self, o: Self) -> Self {
        RefNodeSet(self.0 & !o.0)
    }

    /// Complement within `{0, …, n-1}`.
    #[must_use]
    pub fn complement_in(self, n: usize) -> Self {
        RefNodeSet(!self.0 & Self::universe(n).0)
    }

    /// Subset test.
    #[must_use]
    pub fn is_subset(self, o: Self) -> bool {
        self.0 & !o.0 == 0
    }

    /// Disjointness test.
    #[must_use]
    pub fn is_disjoint(self, o: Self) -> bool {
        self.0 & o.0 == 0
    }

    /// Smallest member, if any.
    #[must_use]
    pub fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// Members with index strictly below `i`.
    #[must_use]
    pub fn rank_below(self, i: usize) -> usize {
        (self.0 & ((1u128 << i) - 1)).count_ones() as usize
    }

    /// Ascending member indices.
    #[must_use]
    pub fn indices(self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        let mut bits = self.0;
        while bits != 0 {
            out.push(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
        out
    }
}
