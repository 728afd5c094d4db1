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
//! them, and the columns assume the ids they hold are *dense*. A set built
//! by [`MessageSet::new`] grows its columns from id 0 up to the highest
//! inserted id. The round history a node keeps holds only paths ending at
//! the node, and ids are assigned terminal-major, so those paths form one
//! contiguous id block ([`PathIndex::terminal_word_range`]): the round set
//! is built over that block alone, sized once, and its memory is the
//! block's, not the highest id's. It rejects an id outside the block
//! instead of growing. Never insert unvalidated wire ids — resolve them
//! through the index first, exactly as the validation boundary already
//! does.
//!
//! # Wire form
//!
//! The columnar layout is an in-memory representation only, and a node
//! never sends a message set. The bytes a node sends come from
//! [`crate::wire`]'s hand-rolled codec. A `COMPLETE` carries its
//! [`CompletePayload`]: the bitmap of initiators with a message in the
//! snapshot `M_c|_F̄` and one value per set bit, in node order — not the
//! snapshot's `(PathId, f64)` entries. The receiver recomputes the
//! fingerprint from those two fields; it is never read from the wire.
//! `MessageSet`'s serde derives name its sparse entry-list form through
//! their container-level `from`/`into` attributes, but the workspace's
//! serde shim is marker-only and produces no bytes.
//!
//! Why one value per initiator is enough. Maximal-Consistency fires only
//! when `M_c|_F̄` is full and consistent (Algorithm 1 line 10), so an
//! honest snapshot is the sender's whole pool avoiding `F`, each path
//! carrying its initiator's one value: `(sender, F, value per initiator)`
//! determines it exactly. And the vector changes nothing a receiver does:
//!
//! * **The entries are never read.** A receiver reads a payload's
//!   consistency and `value_q` (Algorithm 2) and its identity
//!   (FIFO-Receive-All, Algorithm 1 line 12). Two payloads with equal
//!   vectors were already treated the same by Completeness.
//! * **Identity coarsens only between payloads a receiver acts on
//!   identically.** Two payloads now share a fingerprint when they share a
//!   vector. Honest snapshots of one sender under one `F` with one vector
//!   are the same snapshot; across senders, a Completeness tracker depends
//!   on `F` and the values alone, and FIFO-Receive-All counts per sender.
//! * **An inconsistent payload is unrepresentable.** Verify skipped such
//!   payloads (Algorithm 1 line 24), so a Byzantine sender loses only a
//!   message that had no effect. A payload naming a node outside the graph
//!   is skipped the same way.
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
/// presence bitmap, both indexed by [`PathId`] relative to the set's first
/// id word. Columns grow on demand to the highest inserted id;
/// [`MessageSet::with_capacity`] pre-sizes them. A round's history is
/// instead pinned to the node's own id block (see the module docs).
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<(PathId, f64)>", into = "Vec<(PathId, f64)>")]
pub struct MessageSet {
    /// First id word the columns cover: `values[i]` holds id
    /// `64·base + i` and `present[w]` holds id word `base + w`. 0 unless
    /// the set is pinned to a block.
    base: usize,
    /// Whether the columns are pinned to one id block: such a set never
    /// grows and rejects ids outside the block.
    pinned: bool,
    /// Value column: a slot is meaningful iff its presence bit is set.
    /// Slots never inserted hold 0.0 but are never read.
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
            ..MessageSet::default()
        }
    }

    /// Creates an empty set pinned to the id words `words` — the round
    /// history of the node whose terminal block they are. The columns are
    /// sized once, here, and never grow: [`MessageSet::insert`] rejects an
    /// id outside the block.
    #[must_use]
    pub(crate) fn for_block(words: std::ops::Range<usize>) -> Self {
        MessageSet {
            base: words.start,
            pinned: true,
            values: vec![0.0; words.len() * 64],
            present: vec![0; words.len()],
            len: 0,
        }
    }

    /// The column slot of `id`, if the set's block starts at or below it.
    fn slot(&self, id: usize) -> Option<usize> {
        id.checked_sub(self.base * 64)
    }

    /// Inserts `(value, path)`; returns `false` (and keeps the original) if
    /// the path already reported, or if the set is pinned to a block that
    /// does not hold the path's id.
    pub fn insert(&mut self, path: PathId, value: f64) -> bool {
        let Some(slot) = self.slot(path.index()) else {
            return false;
        };
        if slot >= self.values.len() {
            if self.pinned {
                return false;
            }
            self.values.resize(slot + 1, 0.0);
            self.present.resize(slot / 64 + 1, 0);
        }
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.present[word] & bit != 0 {
            return false;
        }
        self.present[word] |= bit;
        self.values[slot] = value;
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
        self.slot(path.index())
            .is_some_and(|s| self.present.get(s / 64).is_some_and(|w| w & (1u64 << (s % 64)) != 0))
    }

    /// The value reported along `path`, if any.
    #[must_use]
    pub fn value_on_path(&self, path: PathId) -> Option<f64> {
        self.contains_path(path).then(|| self.value_at(path.index()))
    }

    /// Iterates over `(path, value)` in deterministic (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, f64)> + '_ {
        self.paths().map(|p| (p, self.value_at(p.index())))
    }

    /// The paper's `P(M)`: the set of propagation paths, in id order.
    pub fn paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &word)| {
            let first = (self.base + w) * 64;
            BitIter(word).map(move |b| PathId::from_raw((first + b) as u32))
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
            *word &= !index.excluded_word(a, self.base + w);
            len += word.count_ones() as usize;
        }
        out.len = len;
        out
    }

    /// Consistency (Definition 8): every initiator reports a unique value.
    #[must_use]
    pub fn is_consistent(&self, index: &PathIndex) -> bool {
        let mut first = vec![None; index.graph_node_count()];
        self.iter().all(|(p, v)| {
            let bits = v.to_bits();
            index.contains_id(p) && *first[index.init(p).index()].get_or_insert(bits) == bits
        })
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
            let hit = word & init.get(self.base + w).copied().unwrap_or(0);
            if hit != 0 {
                return Some(self.values[w * 64 + hit.trailing_zeros() as usize]);
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
            required & !self.present_word(w) == 0
        })
    }

    /// The set of initiators appearing in the set.
    #[must_use]
    pub fn initiators(&self, index: &PathIndex) -> NodeSet {
        self.paths().map(|p| index.init(p)).collect()
    }

    /// The presence-bitmap word at id word `w` (0 for words the columns
    /// do not cover). The raw column the witness-thread mask scans AND
    /// against — crate-internal so the columnar layout stays an
    /// implementation detail.
    #[must_use]
    pub(crate) fn present_word(&self, w: usize) -> u64 {
        w.checked_sub(self.base).and_then(|w| self.present.get(w)).copied().unwrap_or(0)
    }

    /// The value-column slot for `id`, without a presence check. Only
    /// meaningful for ids whose presence bit is set — masked gathers read
    /// this after ANDing the presence word, which also guarantees the
    /// columns cover `id`.
    pub(crate) fn value_at(&self, id: usize) -> f64 {
        self.values[id - self.base * 64]
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

/// Builds a set from the sparse entry-list form the serde attributes name
/// (duplicate paths keep the first value, as everywhere else). No runtime
/// path feeds it peer bytes: [`crate::wire`] decodes payloads, not sets.
///
/// Trust boundary: this impl cannot see a [`PathIndex`], so it cannot
/// validate ids — and the set it builds grows from id 0, so memory is
/// proportional to the *highest* id in the list, not the entry count.
/// Entries from an untrusted source must be id-validated
/// (`PathIndex::contains_id`) *before* a set is built from them, exactly
/// as the protocol's validation boundary already does for every wire path;
/// a set built from unvalidated ids can also panic later inside the
/// index-based operations.
impl From<Vec<(PathId, f64)>> for MessageSet {
    fn from(entries: Vec<(PathId, f64)>) -> Self {
        entries.into_iter().collect()
    }
}

/// The sparse entry-list form, in canonical id order.
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

/// Process-wide random fingerprint seed. Payload values are
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

/// The immutable payload of a `COMPLETE` message: what a receiver reads of
/// the initiator's `M_c|_F̄` at the moment its Maximal-Consistency
/// condition fired (Algorithm 1, line 11) — the set of initiators with a
/// message in it, and one value per initiator (`value_q`). See the module
/// docs for why this determines an honest payload exactly.
#[derive(Clone, Debug)]
pub struct CompletePayload {
    initiators: NodeSet,
    /// One value per member of `initiators`, in ascending node order.
    values: Vec<f64>,
    /// Content hash over `initiators` and the value bits, computed once at
    /// construction — fingerprinting happens on every arrival.
    ///
    /// Trust boundary: the fingerprint is *derived* state and is never
    /// read from the wire — the witness logic counts "same message" by
    /// fingerprint equality, so a forgeable hash would let a Byzantine
    /// sender alias distinct payloads. Every constructor, the wire decoder
    /// included, goes through [`CompletePayload::from_vector`].
    fingerprint: u64,
}

impl CompletePayload {
    /// The payload naming `initiators`, with `values[i]` the value of the
    /// `i`-th member in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold exactly one value per initiator
    /// (the wire decoder reads exactly the popcount).
    #[must_use]
    pub(crate) fn from_vector(initiators: NodeSet, values: Vec<f64>) -> Self {
        assert_eq!(initiators.len(), values.len(), "one value per initiator");
        let mut h = fingerprint_seed().build_hasher();
        initiators.words().hash(&mut h);
        for v in &values {
            v.to_bits().hash(&mut h);
        }
        CompletePayload { initiators, values, fingerprint: h.finish() }
    }

    /// Snapshots a message set. Its ids name initiators only through the
    /// [`PathIndex`] that interned them, which the set does not carry, so
    /// the snapshot names no initiator; payloads with values are built by
    /// collecting `(initiator, value)` pairs. Kept because the benchmark
    /// package (`perf/`) calls it.
    #[must_use]
    pub fn from_message_set(_m: &MessageSet) -> Self {
        CompletePayload::from_vector(NodeSet::EMPTY, Vec::new())
    }

    /// The initiators the payload carries a value for.
    #[must_use]
    pub fn initiators(&self) -> NodeSet {
        self.initiators
    }

    /// The values, one per initiator in ascending node order.
    #[must_use]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// `value_q` of the payload (Algorithm 2): the value initiator `q`
    /// reported, if the payload names `q`.
    #[must_use]
    pub(crate) fn value_of(&self, q: NodeId) -> Option<f64> {
        self.initiators.contains(q).then(|| self.values[self.initiators.rank_below(q)])
    }

    /// A content fingerprint used to compare payloads received over
    /// different paths ("the same message", Algorithm 1 line 12): equal
    /// for equal contents within one process. O(1): the hash is
    /// precomputed at construction.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Builds a payload from `(initiator, value)` pairs in any order; an
/// initiator listed twice keeps its first value.
impl FromIterator<(NodeId, f64)> for CompletePayload {
    fn from_iter<I: IntoIterator<Item = (NodeId, f64)>>(iter: I) -> Self {
        let mut pairs: Vec<(NodeId, f64)> = iter.into_iter().collect();
        pairs.sort_by_key(|&(q, _)| q);
        pairs.dedup_by_key(|&mut (q, _)| q);
        let initiators = pairs.iter().map(|&(q, _)| q).collect();
        CompletePayload::from_vector(initiators, pairs.into_iter().map(|(_, v)| v).collect())
    }
}

/// Equality is by contents — initiators and value bits, the fingerprint's
/// inputs — so NaN values compare equal to themselves.
impl PartialEq for CompletePayload {
    fn eq(&self, other: &Self) -> bool {
        self.initiators == other.initiators
            && self.values.iter().map(|v| v.to_bits()).eq(other.values.iter().map(|v| v.to_bits()))
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
    fn payload_values_and_fingerprint() {
        let pay: CompletePayload =
            [(NodeId::new(2), 1.5), (NodeId::new(0), 2.5)].into_iter().collect();
        assert_eq!(pay.initiators(), ns(&[0, 2]));
        assert_eq!(pay.values(), &[2.5, 1.5]);
        assert_eq!(pay.value_of(NodeId::new(2)), Some(1.5));
        assert_eq!(pay.value_of(NodeId::new(1)), None);

        // Equal contents, equal fingerprints, whatever the pair order.
        let same: CompletePayload =
            [(NodeId::new(0), 2.5), (NodeId::new(2), 1.5)].into_iter().collect();
        assert_eq!(pay, same);
        assert_eq!(pay.fingerprint(), same.fingerprint());
        // A value's bits, or the initiator set, tell payloads apart.
        for other in [
            [(NodeId::new(0), 2.5), (NodeId::new(2), -1.5)],
            [(NodeId::new(0), 2.5), (NodeId::new(3), 1.5)],
        ] {
            let other: CompletePayload = other.into_iter().collect();
            assert_ne!(pay, other);
            assert_ne!(pay.fingerprint(), other.fingerprint());
        }
        let zero: CompletePayload = [(NodeId::new(0), 0.0)].into_iter().collect();
        let negative_zero: CompletePayload = [(NodeId::new(0), -0.0)].into_iter().collect();
        assert_ne!(zero, negative_zero);
    }

    #[test]
    fn payload_keeps_the_first_value_per_initiator() {
        let pay: CompletePayload =
            [(NodeId::new(1), 3.0), (NodeId::new(1), 9.0), (NodeId::new(0), f64::NAN)]
                .into_iter()
                .collect();
        assert_eq!(pay.value_of(NodeId::new(1)), Some(3.0));
        assert!(pay.value_of(NodeId::new(0)).is_some_and(f64::is_nan));
        assert_eq!(pay, pay.clone(), "NaN values compare by bits");
    }

    #[test]
    fn a_message_set_snapshot_names_no_initiator() {
        let t = topo();
        let m: MessageSet = [(pid(&t, &[0, 2]), 1.5)].into_iter().collect();
        let pay = CompletePayload::from_message_set(&m);
        assert!(pay.initiators().is_empty() && pay.values().is_empty());
        assert_eq!(pay, CompletePayload::from_message_set(&MessageSet::new()));
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
