//! The pre-columnar `BTreeMap` message set, kept as a differential-testing
//! oracle.
//!
//! This is the implementation the columnar
//! [`MessageSet`](dbac_core::message_set::MessageSet) replaced: one
//! `BTreeMap<PathId, f64>` entry per message, set operations by per-entry
//! filtering through the [`PathIndex`] metadata. It is simple enough to
//! audit by eye against Definitions 7–9, which is exactly what makes it a
//! trustworthy model: the generated-sequence harness and the
//! property tests in `tests/differential.rs` drive both backends with
//! identical operations and require identical results on every observable.
//!
//! Test code only — the library carries no second implementation.

use dbac_graph::{NodeId, NodeSet, PathId, PathIndex};

/// The original tree-backed message set (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MessageSet {
    entries: std::collections::BTreeMap<PathId, f64>,
}

impl MessageSet {
    /// Creates an empty message set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `(value, path)`; returns `false` (and keeps the original) if
    /// the path already reported.
    pub fn insert(&mut self, path: PathId, value: f64) -> bool {
        match self.entries.entry(path) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Number of messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no message has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `path` has reported.
    #[must_use]
    pub fn contains_path(&self, path: PathId) -> bool {
        self.entries.contains_key(&path)
    }

    /// The value reported along `path`, if any.
    #[must_use]
    pub fn value_on_path(&self, path: PathId) -> Option<f64> {
        self.entries.get(&path).copied()
    }

    /// Iterates over `(path, value)` in deterministic (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, f64)> + '_ {
        self.entries.iter().map(|(&p, &v)| (p, v))
    }

    /// The paper's `P(M)`: the set of propagation paths.
    pub fn paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.entries.keys().copied()
    }

    /// The exclusion `M|_Ā` (Definition 7): messages whose path avoids `A`.
    #[must_use]
    pub fn exclusion(&self, a: NodeSet, index: &PathIndex) -> MessageSet {
        MessageSet {
            entries: self
                .entries
                .iter()
                .filter(|(&p, _)| !index.intersects(p, a))
                .map(|(&p, &v)| (p, v))
                .collect(),
        }
    }

    /// Consistency (Definition 8): every initiator reports a unique value.
    #[must_use]
    pub fn is_consistent(&self, index: &PathIndex) -> bool {
        let mut seen: std::collections::BTreeMap<NodeId, u64> = std::collections::BTreeMap::new();
        for (&p, &v) in &self.entries {
            match seen.entry(index.init(p)) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v.to_bits());
                }
                std::collections::btree_map::Entry::Occupied(e) => {
                    if *e.get() != v.to_bits() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The paper's `value_q(M)`: the (first) value reported by initiator `q`.
    #[must_use]
    pub fn value_of(&self, q: NodeId, index: &PathIndex) -> Option<f64> {
        self.entries.iter().find(|(&p, _)| index.init(p) == q).map(|(_, &v)| v)
    }

    /// Fullness (Definition 9) against a pre-enumerated requirement list.
    #[must_use]
    pub fn is_full_for(&self, required: &[PathId]) -> bool {
        required.iter().all(|p| self.entries.contains_key(p))
    }

    /// Fullness for `(a, v)` by filtering the pool per entry — the model
    /// for the columnar mask scan.
    #[must_use]
    pub fn is_full_avoiding(&self, a: NodeSet, v: NodeId, index: &PathIndex) -> bool {
        index
            .paths_ending_at(v)
            .iter()
            .filter(|&&p| !index.intersects(p, a))
            .all(|&p| self.entries.contains_key(&p))
    }

    /// The set of initiators appearing in the set.
    #[must_use]
    pub fn initiators(&self, index: &PathIndex) -> NodeSet {
        self.entries.keys().map(|&p| index.init(p)).collect()
    }
}

impl FromIterator<(PathId, f64)> for MessageSet {
    fn from_iter<I: IntoIterator<Item = (PathId, f64)>>(iter: I) -> Self {
        let mut m = MessageSet::new();
        for (p, v) in iter {
            m.insert(p, v);
        }
        m
    }
}
