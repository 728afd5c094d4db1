//! The per-path `COMPLETE` payload, kept as a differential-testing oracle.
//!
//! This is the payload form the per-initiator vector
//! ([`CompletePayload`]) replaced: the snapshot `M_c|_F̄` as its sorted
//! `(PathId, f64)` entries, identified by a SipHash fingerprint over them,
//! and read by one pass over the entries — every id interned, consistency
//! (Definition 8), and the first value per initiator in id order
//! (`value_q`). `tests/differential_witness.rs` feeds these payloads to the
//! counter-based witness oracle and their vectors to the product, and
//! checks that every firing's vector is this summary of `M|_F̄`.
//!
//! Test code only — the library carries no second implementation.

use dbac_core::message_set::{CompletePayload, MessageSet};
use dbac_graph::{NodeId, PathId, PathIndex};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A snapshot as its entries, in id order.
#[derive(Clone, Debug, PartialEq)]
pub struct EntryPayload {
    entries: Vec<(PathId, f64)>,
    fingerprint: u64,
}

/// What a receiver reads off an [`EntryPayload`] against its index.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Every id is interned and every initiator reports one value.
    pub consistent: bool,
    /// Per node, the value bits of its first interned entry in id order.
    pub first_by_init: Vec<Option<u64>>,
}

impl EntryPayload {
    /// Snapshots a message set.
    pub fn from_message_set(m: &MessageSet) -> Self {
        let entries: Vec<(PathId, f64)> = m.iter().collect();
        let mut h = DefaultHasher::new();
        for &(p, v) in &entries {
            p.raw().hash(&mut h);
            v.to_bits().hash(&mut h);
        }
        entries.len().hash(&mut h);
        EntryPayload { entries, fingerprint: h.finish() }
    }

    /// The content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// One pass over the entries against `index`. An id outside the index
    /// makes the payload inconsistent, with no lookup on it.
    pub fn summary(&self, index: &PathIndex) -> Summary {
        let mut summary =
            Summary { consistent: true, first_by_init: vec![None; index.graph_node_count()] };
        for &(p, v) in &self.entries {
            if !index.contains_id(p) {
                summary.consistent = false;
                continue;
            }
            let bits = v.to_bits();
            if *summary.first_by_init[index.init(p).index()].get_or_insert(bits) != bits {
                summary.consistent = false;
            }
        }
        summary
    }

    /// The product payload a receiver acts on identically: the first
    /// value per initiator, if the snapshot is consistent.
    pub fn vector(&self, index: &PathIndex) -> Option<CompletePayload> {
        let summary = self.summary(index);
        summary.consistent.then(|| {
            let firsts = summary.first_by_init.into_iter().enumerate();
            firsts.filter_map(|(q, b)| Some((NodeId::new(q), f64::from_bits(b?)))).collect()
        })
    }
}
