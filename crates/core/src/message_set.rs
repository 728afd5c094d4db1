//! Message sets (Section 4.1 of the paper, Definitions 7–9).
//!
//! A message set `M` accumulates value–path pairs `(x, p)`; the paper's
//! three operations on it drive Algorithm BW:
//!
//! * **exclusion** `M|_Ā` — keep only messages whose path avoids `A`;
//! * **consistency** — all paths from the same initiator report one value;
//! * **fullness** for `(A, v)` — every redundant path avoiding `A` and
//!   terminating at `v` has reported.
//!
//! # Columnar layout
//!
//! [`PathId`]s are dense and topology-relative: the [`PathIndex`] numbers
//! the whole enumerated population `0..P`, so a message set over that
//! population needs no tree or hash structure at all. [`MessageSet`] stores
//! two columns indexed directly by id:
//!
//! * a flat `f64` **value column** (`values[id]` is the value reported
//!   along path `id`), and
//! * a multi-word `u64` **presence bitmap** (bit `id` set iff path `id`
//!   has reported).
//!
//! `insert`/`lookup` are O(1) array ops; iteration walks the set bits of
//! the bitmap in id order (deterministic and identical at every node). The
//! set operations pair the presence bitmap with the index's precomputed
//! per-node masks ([`PathIndex::member_words`] et al.) and run word at a
//! time: exclusion is `present & !excluded`, fullness for `(A, v)` is
//! `terminal & !excluded & !present == 0`, with one AND/ANDNOT/popcount
//! per 64 paths — branch-light scans the compiler can vectorize.
//!
//! Ids are only meaningful relative to the topology whose index interned
//! them, and the columns assume the ids they hold are *dense*: memory is
//! proportional to the highest inserted id, which for validated protocol
//! traffic is bounded by the population size (and in practice by the local
//! terminal's contiguous id range, since ids are assigned terminal-major).
//! Never insert unvalidated wire ids — resolve them through the index
//! first, exactly as the validation boundary already does.
//!
//! # Wire form
//!
//! The columnar layout is an in-memory representation only. On the wire
//! (serde) a message set travels as the sparse `(PathId, f64)` entry list
//! in id order — the same canonical form [`CompletePayload`] uses — so the
//! representation can change without breaking wire compatibility. The
//! container-level `from`/`into` attributes route (de)serialization
//! through the sparse form.
//!
//! # Reference implementation
//!
//! The pre-columnar `BTreeMap<PathId, f64>` implementation survives as
//! test code (`tests/oracles/message_set.rs`): the generated-sequence
//! harness and the property tests in `tests/differential.rs` assert the
//! two backends agree on every observable, on every `cargo test`.

use dbac_graph::{NodeId, NodeSet, PathId, PathIndex};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// An accumulated set of `(value, path)` messages, keyed by interned path.
///
/// The first value received for a path wins (matching RedundantFlood's
/// "first message with path p" rule); a path can therefore never report two
/// values *within one set*. Iteration order is id order, which is
/// deterministic and identical at every node.
///
/// Storage is columnar (see the module docs): a dense value column plus a
/// presence bitmap, both indexed by [`PathId`]. Columns grow on demand to
/// the highest inserted id; [`MessageSet::with_capacity`] pre-sizes them.
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<(PathId, f64)>", into = "Vec<(PathId, f64)>")]
pub struct MessageSet {
    /// Value column: `values[id]` is meaningful iff presence bit `id` is
    /// set. Slots never inserted hold 0.0 but are never read.
    values: Vec<f64>,
    /// Presence bitmap, one bit per id, in `u64` words.
    present: Vec<u64>,
    /// Number of set presence bits (cached for O(1) `len`).
    len: usize,
}

impl MessageSet {
    /// Creates an empty message set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with columns pre-sized for ids `0..capacity`
    /// (use `index.len()` to cover a whole population).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        MessageSet {
            values: Vec::with_capacity(capacity),
            present: Vec::with_capacity(capacity.div_ceil(64)),
            len: 0,
        }
    }

    /// Grows the columns to cover `id`.
    fn grow_to(&mut self, id: usize) {
        if id >= self.values.len() {
            self.values.resize(id + 1, 0.0);
        }
        let word = id / 64;
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
    }

    /// Inserts `(value, path)`; returns `false` (and keeps the original) if
    /// the path already reported.
    pub fn insert(&mut self, path: PathId, value: f64) -> bool {
        let id = path.index();
        self.grow_to(id);
        let (word, bit) = (id / 64, 1u64 << (id % 64));
        if self.present[word] & bit != 0 {
            return false;
        }
        self.present[word] |= bit;
        self.values[id] = value;
        self.len += 1;
        true
    }

    /// Number of messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no message has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `path` has reported.
    #[must_use]
    pub fn contains_path(&self, path: PathId) -> bool {
        let id = path.index();
        self.present.get(id / 64).is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// The value reported along `path`, if any.
    #[must_use]
    pub fn value_on_path(&self, path: PathId) -> Option<f64> {
        self.contains_path(path).then(|| self.values[path.index()])
    }

    /// Iterates over `(path, value)` in deterministic (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, f64)> + '_ {
        self.paths().map(|p| (p, self.values[p.index()]))
    }

    /// The paper's `P(M)`: the set of propagation paths, in id order.
    pub fn paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &word)| {
            let base = w * 64;
            BitIter(word).map(move |b| PathId::from_raw((base + b) as u32))
        })
    }

    /// The exclusion `M|_Ā` (Definition 7): messages whose path avoids `A`.
    ///
    /// One ANDNOT per word of the presence bitmap against the index's
    /// precomputed member masks; the value column is shared by clone
    /// (excluded slots simply become unreachable).
    #[must_use]
    pub fn exclusion(&self, a: NodeSet, index: &PathIndex) -> MessageSet {
        let mut out = self.clone();
        if a.is_empty() || self.len == 0 {
            return out;
        }
        let mut len = 0usize;
        for (w, word) in out.present.iter_mut().enumerate() {
            *word &= !index.excluded_word(a, w);
            len += word.count_ones() as usize;
        }
        out.len = len;
        out
    }

    /// Consistency (Definition 8): every initiator reports a unique value.
    #[must_use]
    pub fn is_consistent(&self, index: &PathIndex) -> bool {
        values_consistent(self.iter(), index)
    }

    /// The paper's `value_q(M)`: the value reported by initiator `q`.
    /// Unique when the set is consistent; otherwise the first in id order.
    ///
    /// A word-at-a-time AND of the presence bitmap against the initiator
    /// mask; the answer is the first surviving bit.
    #[must_use]
    pub fn value_of(&self, q: NodeId, index: &PathIndex) -> Option<f64> {
        let init = index.init_words(q);
        for (w, &word) in self.present.iter().enumerate() {
            let hit = word & init.get(w).copied().unwrap_or(0);
            if hit != 0 {
                let id = w * 64 + hit.trailing_zeros() as usize;
                return Some(self.values[id]);
            }
        }
        None
    }

    /// Fullness (Definition 9) against a pre-enumerated requirement list:
    /// every required path has reported.
    #[must_use]
    pub fn is_full_for(&self, required: &[PathId]) -> bool {
        required.iter().all(|&p| self.contains_path(p))
    }

    /// Fullness for `(a, v)` (Definition 9) straight off the masks: every
    /// pool path ending at `v` and avoiding `a` has reported. One
    /// AND/ANDNOT per word — no requirement list needs materializing.
    #[must_use]
    pub fn is_full_avoiding(&self, a: NodeSet, v: NodeId, index: &PathIndex) -> bool {
        let terminal = index.terminal_words(v);
        (0..index.word_count()).all(|w| {
            let required = terminal[w] & !index.excluded_word(a, w);
            required & !self.present.get(w).copied().unwrap_or(0) == 0
        })
    }

    /// The set of initiators appearing in the set.
    #[must_use]
    pub fn initiators(&self, index: &PathIndex) -> NodeSet {
        self.paths().map(|p| index.init(p)).collect()
    }

    /// The presence-bitmap word at `w` (0 for words the columns never grew
    /// to). The raw column the witness-thread mask scans AND against —
    /// crate-internal so the columnar layout stays an implementation
    /// detail.
    #[must_use]
    pub(crate) fn present_word(&self, w: usize) -> u64 {
        self.present.get(w).copied().unwrap_or(0)
    }

    /// The value-column slot for `id`, without a presence check. Only
    /// meaningful for ids whose presence bit is set — masked gathers read
    /// this after ANDing the presence word, which also guarantees the
    /// columns grew past `id`.
    pub(crate) fn value_at(&self, id: usize) -> f64 {
        self.values[id]
    }
}

/// Equality is by contents — the `(path, value)` entries — not by column
/// capacity: a grown-then-excluded set equals a never-grown one.
impl PartialEq for MessageSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for MessageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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

/// Wire ingress: the sparse entry-list form (duplicate paths keep the
/// first value, as everywhere else).
///
/// Trust boundary: this impl cannot see a [`PathIndex`], so it cannot
/// validate ids — and the columns are dense, so memory is proportional to
/// the *highest* id in the list, not the entry count. Deserialized bytes
/// from an untrusted peer must be id-validated (`PathIndex::contains_id`)
/// *before* a set is materialized from them, exactly as the protocol's
/// validation boundary already does for every wire path; a set built from
/// unvalidated ids can also panic later inside the index-based operations.
impl From<Vec<(PathId, f64)>> for MessageSet {
    fn from(entries: Vec<(PathId, f64)>) -> Self {
        entries.into_iter().collect()
    }
}

/// Wire egress: the sparse entry list in canonical id order.
impl From<MessageSet> for Vec<(PathId, f64)> {
    fn from(m: MessageSet) -> Self {
        m.iter().collect()
    }
}

/// Iterator over the set bit positions of one word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// Process-wide random fingerprint seed. Payload entries are
/// Byzantine-influenced bytes, so the fingerprint hash must not be
/// predictable across processes (hash-flood resistance, same story as the
/// seeded maps in `witness.rs`). One seed per process keeps fingerprints
/// comparable everywhere they are actually compared — all comparisons are
/// receiver-local, and the fingerprint never crosses the wire (ingress
/// recomputes it).
fn fingerprint_seed() -> &'static RandomState {
    static SEED: OnceLock<RandomState> = OnceLock::new();
    SEED.get_or_init(RandomState::new)
}

fn fingerprint_entries(entries: &[(PathId, f64)]) -> u64 {
    let mut h = fingerprint_seed().build_hasher();
    for &(p, v) in entries {
        p.raw().hash(&mut h);
        v.to_bits().hash(&mut h);
    }
    entries.len().hash(&mut h);
    h.finish()
}

fn values_consistent(entries: impl Iterator<Item = (PathId, f64)>, index: &PathIndex) -> bool {
    let mut seen: BTreeMap<NodeId, u64> = BTreeMap::new();
    for (p, v) in entries {
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

/// The immutable payload of a `COMPLETE` message: a snapshot of the
/// initiator's `M_c|_F̄` at the moment its Maximal-Consistency condition
/// fired (Algorithm 1, line 11). Entries are kept sorted by id — ids are
/// canonical across nodes — so two payloads are equal iff their contents
/// are.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(from = "Vec<(PathId, f64)>", into = "Vec<(PathId, f64)>")]
pub struct CompletePayload {
    entries: Vec<(PathId, f64)>,
    /// Content hash, computed once at construction — fingerprinting happens
    /// on every arrival, so it must not rehash the entries each time.
    ///
    /// Trust boundary: the fingerprint is *derived* state and must never be
    /// accepted from the wire — the witness logic counts "same message" by
    /// fingerprint equality, so a forgeable hash would let a Byzantine
    /// sender alias distinct payloads. The container-level `from`/`into`
    /// attributes make the wire format the bare entry list: deserialization
    /// is forced through [`CompletePayload::from_entries`], which recomputes
    /// the hash, so wire ingress cannot supply its own.
    fingerprint: u64,
}

impl From<Vec<(PathId, f64)>> for CompletePayload {
    fn from(entries: Vec<(PathId, f64)>) -> Self {
        CompletePayload::from_entries(entries)
    }
}

impl From<CompletePayload> for Vec<(PathId, f64)> {
    fn from(payload: CompletePayload) -> Self {
        payload.entries
    }
}

/// Equality is by entries alone: the fingerprint is derived state and is
/// not serialized, so it must not participate in comparisons.
impl PartialEq for CompletePayload {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl CompletePayload {
    /// Snapshots a message set into a canonical payload.
    #[must_use]
    pub fn from_message_set(m: &MessageSet) -> Self {
        CompletePayload::from_entries(m.iter().collect())
    }

    /// Builds a payload from raw `(path, value)` entries — the only way to
    /// construct one, so the cached fingerprint always matches the entries
    /// (wire ingress cannot supply its own).
    #[must_use]
    pub fn from_entries(mut entries: Vec<(PathId, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(p, _)| p);
        let fingerprint = fingerprint_entries(&entries);
        CompletePayload { entries, fingerprint }
    }

    /// The `(path, value)` entries in canonical (id) order.
    #[must_use]
    pub fn entries(&self) -> &[(PathId, f64)] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the payload carries no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consistency of the payload (Definition 8).
    #[must_use]
    pub fn is_consistent(&self, index: &PathIndex) -> bool {
        values_consistent(self.entries.iter().copied(), index)
    }

    /// `value_q` of the payload: the (first) value reported by initiator `q`.
    #[must_use]
    pub fn value_of(&self, q: NodeId, index: &PathIndex) -> Option<f64> {
        self.entries.iter().find(|&&(p, _)| index.init(p) == q).map(|&(_, v)| v)
    }

    /// A content fingerprint used to compare payloads received over
    /// different paths ("the same message", Algorithm 1 line 12). Ids are
    /// canonical per topology, so recomputing the fingerprint at any node
    /// of this process yields the same value. O(1): the hash is
    /// precomputed at construction.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds a [`MessageSet`] view of the payload.
    #[must_use]
    pub fn to_message_set(&self) -> MessageSet {
        self.entries.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precompute::Topology;
    use crate::test_support::{clique_topo, pid};

    fn topo() -> Topology {
        clique_topo(4, 1)
    }

    fn ns(ids: &[usize]) -> NodeSet {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn first_value_per_path_wins() {
        let t = topo();
        let p01 = pid(&t, &[0, 1]);
        let mut m = MessageSet::new();
        assert!(m.insert(p01, 1.0));
        assert!(!m.insert(p01, 9.0));
        assert_eq!(m.value_on_path(p01), Some(1.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn exclusion_filters_by_path_nodes() {
        let t = topo();
        let m: MessageSet =
            [(pid(&t, &[0, 1, 2]), 1.0), (pid(&t, &[3, 2]), 2.0), (pid(&t, &[2]), 3.0)]
                .into_iter()
                .collect();
        let e = m.exclusion(ns(&[1]), t.index());
        assert_eq!(e.len(), 2);
        assert!(!e.contains_path(pid(&t, &[0, 1, 2])));
        // Exclusion on nothing is identity.
        assert_eq!(m.exclusion(NodeSet::EMPTY, t.index()), m);
    }

    #[test]
    fn consistency_per_initiator() {
        let t = topo();
        let mut m = MessageSet::new();
        m.insert(pid(&t, &[0, 2]), 5.0);
        m.insert(pid(&t, &[0, 1, 2]), 5.0);
        assert!(m.is_consistent(t.index()));
        m.insert(pid(&t, &[0, 3, 2]), 6.0);
        assert!(!m.is_consistent(t.index()));
        // … but excluding the offending path restores consistency.
        assert!(m.exclusion(ns(&[3]), t.index()).is_consistent(t.index()));
    }

    #[test]
    fn value_of_initiator() {
        let t = topo();
        let m: MessageSet =
            [(pid(&t, &[3, 2]), 8.0), (pid(&t, &[1, 2]), 3.0)].into_iter().collect();
        assert_eq!(m.value_of(NodeId::new(3), t.index()), Some(8.0));
        assert_eq!(m.value_of(NodeId::new(2), t.index()), None);
        assert_eq!(m.initiators(t.index()), ns(&[1, 3]));
    }

    #[test]
    fn fullness_against_requirements() {
        let t = topo();
        let m: MessageSet = [(pid(&t, &[0, 2]), 1.0), (pid(&t, &[2]), 0.0)].into_iter().collect();
        assert!(m.is_full_for(&[pid(&t, &[2]), pid(&t, &[0, 2])]));
        assert!(!m.is_full_for(&[pid(&t, &[2]), pid(&t, &[1, 2])]));
        assert!(m.is_full_for(&[]));
    }

    #[test]
    fn mask_fullness_matches_requirement_list() {
        // is_full_avoiding ≡ is_full_for over the filtered pool, across
        // every (guess, terminal) pair of a small topology.
        let t = topo();
        let index = t.index();
        for v in t.graph().nodes() {
            // A set holding v's full pool is full for every guess at v …
            let full: MessageSet = t.required_paths_to(v).iter().map(|&p| (p, 1.0)).collect();
            for &guess in t.guesses() {
                let required: Vec<PathId> = t
                    .required_paths_to(v)
                    .iter()
                    .copied()
                    .filter(|&p| !index.intersects(p, guess))
                    .collect();
                assert_eq!(full.is_full_avoiding(guess, v, index), full.is_full_for(&required));
                assert!(full.is_full_avoiding(guess, v, index));
                // … and dropping any required path breaks exactly the
                // guesses that still require it.
                if let Some(&missing) = required.first() {
                    let partial: MessageSet = full.iter().filter(|&(p, _)| p != missing).collect();
                    assert!(!partial.is_full_avoiding(guess, v, index));
                    assert_eq!(
                        partial.is_full_avoiding(guess, v, index),
                        partial.is_full_for(&required)
                    );
                }
            }
        }
    }

    #[test]
    fn payload_round_trip_and_fingerprint() {
        let t = topo();
        let m: MessageSet =
            [(pid(&t, &[0, 2]), 1.5), (pid(&t, &[1, 2]), 2.5)].into_iter().collect();
        let pay = CompletePayload::from_message_set(&m);
        assert_eq!(pay.len(), 2);
        assert!(pay.is_consistent(t.index()));
        assert_eq!(pay.value_of(NodeId::new(1), t.index()), Some(2.5));
        assert_eq!(pay.to_message_set(), m);

        let same = CompletePayload::from_message_set(&m.clone());
        assert_eq!(pay.fingerprint(), same.fingerprint());
        let different: MessageSet = [(pid(&t, &[0, 2]), 1.5)].into_iter().collect();
        assert_ne!(pay.fingerprint(), CompletePayload::from_message_set(&different).fingerprint());
    }

    #[test]
    fn payload_inconsistency_detected() {
        let t = topo();
        let m: MessageSet =
            [(pid(&t, &[0, 2]), 1.0), (pid(&t, &[0, 1, 2]), 2.0)].into_iter().collect();
        assert!(!CompletePayload::from_message_set(&m).is_consistent(t.index()));
    }

    #[test]
    fn deterministic_iteration_order() {
        let t = topo();
        let m: MessageSet =
            [(pid(&t, &[2]), 0.0), (pid(&t, &[0, 2]), 1.0), (pid(&t, &[1, 2]), 2.0)]
                .into_iter()
                .collect();
        let order: Vec<PathId> = m.paths().collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
    }

    #[test]
    fn sparse_wire_form_round_trips() {
        let t = topo();
        let m: MessageSet =
            [(pid(&t, &[2]), 0.5), (pid(&t, &[0, 2]), -1.0), (pid(&t, &[1, 2]), 2.0)]
                .into_iter()
                .collect();
        let wire: Vec<(PathId, f64)> = m.clone().into();
        assert!(wire.windows(2).all(|w| w[0].0 < w[1].0), "canonical id order");
        assert_eq!(MessageSet::from(wire), m);
        // Duplicate wire entries: first value wins, as in live insertion.
        let dup = vec![(pid(&t, &[2]), 7.0), (pid(&t, &[2]), 9.0)];
        assert_eq!(MessageSet::from(dup).value_on_path(pid(&t, &[2])), Some(7.0));
    }

    #[test]
    fn equality_ignores_column_capacity() {
        let t = topo();
        let (small, large) = (pid(&t, &[2]), pid(&t, &[0, 1, 2]));
        let mut grown = MessageSet::new();
        grown.insert(large, 1.0);
        grown.insert(small, 2.0);
        let excluded = grown.exclusion(ns(&[0]), t.index());
        let mut fresh = MessageSet::new();
        fresh.insert(small, 2.0);
        // `excluded` still owns full-size columns; `fresh` never grew.
        assert_eq!(excluded, fresh);
        assert_eq!(fresh, excluded);
        assert_ne!(grown, fresh);
    }
}
