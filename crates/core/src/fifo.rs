//! FIFO flooding and FIFO reception (Appendix F).
//!
//! Each node keeps one monotone FIFO counter shared by all of its parallel
//! threads; every `COMPLETE` it initiates carries the next counter value
//! and travels along **all simple paths**. A receiver *FIFO-receives* a
//! message with counter `k` through path `p` once it holds counters
//! `1..k-1` from the same initiator through the same path — exactly the
//! ordering a fully nonfaulty path preserves.
//!
//! Channels are keyed by interned [`PathId`] alone: a path determines its
//! initiator, so the former `(initiator, Path)` composite key — a clone
//! plus a `Vec<NodeId>` hash per arrival — collapses into one `u32` in a
//! fast-hashed map.

use crate::message::{ProtocolMsg, Round};
use crate::message_set::CompletePayload;
use crate::precompute::Topology;
use dbac_graph::{FastHashMap, NodeId, NodeSet, PathId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The initial FIFO flood of a `COMPLETE` message (Algorithm 1 line 11).
#[must_use]
pub fn initial_complete(
    topo: &Topology,
    me: NodeId,
    round: Round,
    suspects: NodeSet,
    payload: &Arc<CompletePayload>,
    seq: u64,
) -> Vec<(NodeId, ProtocolMsg)> {
    let path = topo.index().trivial(me);
    topo.graph()
        .out_neighbors(me)
        .iter()
        .map(|w| {
            (w, ProtocolMsg::Complete { round, suspects, payload: Arc::clone(payload), path, seq })
        })
        .collect()
}

/// Forwards for a freshly received `COMPLETE` whose stored path ends at
/// `me`: relayed to each `w` keeping the path simple. `p‖w` is simple iff
/// `p` is simple and `w ∉ p`, so the forwarding table is only asked which
/// slots are filled — no clone, no simplicity re-scan.
#[must_use]
pub fn complete_forwards(
    topo: &Topology,
    me: NodeId,
    round: Round,
    suspects: NodeSet,
    payload: &Arc<CompletePayload>,
    stored: PathId,
    seq: u64,
) -> Vec<(NodeId, ProtocolMsg)> {
    let index = topo.index();
    debug_assert_eq!(index.ter(stored), me);
    if !index.is_simple(stored) {
        return Vec::new();
    }
    let visited = index.node_set(stored);
    index
        .extension_targets(stored)
        .filter(|&w| !visited.contains(w))
        .map(|w| {
            let payload = Arc::clone(payload);
            (w, ProtocolMsg::Complete { round, suspects, payload, path: stored, seq })
        })
        .collect()
}

/// A message that became FIFO-received and is ready for the witness logic.
///
/// All fields are `Copy` except the payload `Arc` (a reference-count bump);
/// draining a batch no longer clones any path.
#[derive(Clone, Debug)]
pub struct FifoDelivery {
    /// The initiator `c` (the first node of the delivery path).
    pub initiator: NodeId,
    /// The full delivery path (ends at the local node).
    pub path: PathId,
    /// Round tag of the `COMPLETE`.
    pub round: Round,
    /// The suspect set `F` in `COMPLETE(F)`.
    pub suspects: NodeSet,
    /// The payload snapshot.
    pub payload: Arc<CompletePayload>,
    /// Cached payload fingerprint.
    pub fingerprint: u64,
}

/// Per-path reassembly buffers implementing FIFO reception.
#[derive(Debug, Default)]
pub struct FifoReceiver {
    channels: FastHashMap<PathId, Channel>,
}

/// A buffered arrival: round, suspect set, payload, cached fingerprint.
type Buffered = (Round, NodeSet, Arc<CompletePayload>, u64);

#[derive(Debug)]
struct Channel {
    next: u64,
    buffer: BTreeMap<u64, Vec<Buffered>>,
}

impl FifoReceiver {
    /// Creates an empty receiver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts a validated `COMPLETE` arrival and returns every message
    /// that became FIFO-received as a result (possibly several, when a gap
    /// closes; possibly none, when earlier counters are still missing).
    ///
    /// `initiator` must be `init(path)`; the caller already holds it from
    /// validation, so the receiver does not need the index.
    pub fn accept(
        &mut self,
        path: PathId,
        initiator: NodeId,
        seq: u64,
        round: Round,
        suspects: NodeSet,
        payload: Arc<CompletePayload>,
    ) -> Vec<FifoDelivery> {
        let channel = self
            .channels
            .entry(path)
            .or_insert_with(|| Channel { next: 1, buffer: BTreeMap::new() });
        // Fast path: the expected counter with nothing buffered delivers
        // without touching the reorder buffer (the overwhelmingly common
        // case on honest channels).
        if seq == channel.next && channel.buffer.is_empty() {
            channel.next += 1;
            let fingerprint = payload.fingerprint();
            return vec![FifoDelivery { initiator, path, round, suspects, payload, fingerprint }];
        }
        if seq >= channel.next {
            let fp = payload.fingerprint();
            let slot = channel.buffer.entry(seq).or_default();
            // Exact duplicates (Byzantine replays) are dropped.
            if !slot.iter().any(|(r, s, _, f)| *r == round && *s == suspects && *f == fp) {
                slot.push((round, suspects, payload, fp));
            }
        }
        let mut out = Vec::new();
        while let Some(batch) = channel.buffer.remove(&channel.next) {
            for (round, suspects, payload, fingerprint) in batch {
                out.push(FifoDelivery { initiator, path, round, suspects, payload, fingerprint });
            }
            channel.next += 1;
        }
        out
    }

    /// Number of open path channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{clique_topo, pid};

    fn topo() -> Topology {
        clique_topo(3, 1)
    }

    fn payload(tag: f64) -> Arc<CompletePayload> {
        Arc::new([(NodeId::new(1), tag)].into_iter().collect())
    }

    fn accept(
        rx: &mut FifoReceiver,
        t: &Topology,
        idx: &[usize],
        seq: u64,
        round: Round,
        pay: Arc<CompletePayload>,
    ) -> Vec<FifoDelivery> {
        let path = pid(t, idx);
        rx.accept(path, t.index().init(path), seq, round, NodeSet::EMPTY, pay)
    }

    #[test]
    fn in_order_messages_deliver_immediately() {
        let t = topo();
        let mut rx = FifoReceiver::new();
        let d1 = accept(&mut rx, &t, &[1, 0], 1, 0, payload(1.0));
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].initiator, NodeId::new(1));
        let d2 = accept(&mut rx, &t, &[1, 0], 2, 0, payload(2.0));
        assert_eq!(d2.len(), 1);
    }

    #[test]
    fn gaps_hold_messages_back() {
        let t = topo();
        let mut rx = FifoReceiver::new();
        let d = accept(&mut rx, &t, &[1, 0], 2, 0, payload(2.0));
        assert!(d.is_empty(), "seq 1 missing");
        let d = accept(&mut rx, &t, &[1, 0], 3, 1, payload(3.0));
        assert!(d.is_empty());
        let d = accept(&mut rx, &t, &[1, 0], 1, 0, payload(1.0));
        assert_eq!(d.len(), 3, "gap closes, everything drains in order");
        let rounds: Vec<u32> = d.iter().map(|x| x.round).collect();
        assert_eq!(rounds, vec![0, 0, 1]);
    }

    #[test]
    fn channels_are_per_path() {
        let t = topo();
        let mut rx = FifoReceiver::new();
        let d = accept(&mut rx, &t, &[1, 0], 1, 0, payload(1.0));
        assert_eq!(d.len(), 1);
        // Same initiator, different path: independent channel, needs seq 1.
        let d = accept(&mut rx, &t, &[1, 2, 0], 2, 0, payload(2.0));
        assert!(d.is_empty());
        assert_eq!(rx.channel_count(), 2);
    }

    #[test]
    fn exact_duplicates_are_dropped_but_conflicts_kept() {
        let t = topo();
        let mut rx = FifoReceiver::new();
        accept(&mut rx, &t, &[1, 0], 2, 0, payload(9.0));
        accept(&mut rx, &t, &[1, 0], 2, 0, payload(9.0)); // replay
        accept(&mut rx, &t, &[1, 0], 2, 0, payload(8.0)); // conflict
        let d = accept(&mut rx, &t, &[1, 0], 1, 0, payload(1.0));
        // seq 1 + the two *distinct* seq-2 contents.
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn stale_seq_is_ignored() {
        let t = topo();
        let mut rx = FifoReceiver::new();
        accept(&mut rx, &t, &[1, 0], 1, 0, payload(1.0));
        let d = accept(&mut rx, &t, &[1, 0], 1, 0, payload(7.0));
        assert!(d.is_empty(), "counter 1 already drained");
    }

    /// Regression for the PathId re-keying: channel census and drain order
    /// must match the original (initiator, owned-path) design exactly.
    #[test]
    fn rekeying_preserves_channel_count_and_drain_order() {
        let t = topo();
        let mut rx = FifoReceiver::new();
        // Open one channel per simple (·,0)-path in K3 (⟨0⟩ excluded: a
        // node does not FIFO-receive from itself over the network).
        let paths: Vec<&[usize]> = vec![&[1, 0], &[2, 0], &[1, 2, 0], &[2, 1, 0]];
        for (i, p) in paths.iter().enumerate() {
            // Arrive out of order: seq 2 first, then seq 1.
            let d = accept(&mut rx, &t, p, 2, 1, payload(i as f64));
            assert!(d.is_empty());
        }
        assert_eq!(rx.channel_count(), paths.len(), "one channel per path");
        for p in &paths {
            let d = accept(&mut rx, &t, p, 1, 0, payload(-1.0));
            // Gap closes: seq 1 then seq 2, rounds 0 then 1.
            assert_eq!(d.len(), 2);
            assert_eq!((d[0].round, d[1].round), (0, 1), "drain order per channel");
            let want = pid(&t, p);
            assert!(d.iter().all(|x| x.path == want));
            assert!(d.iter().all(|x| x.initiator == t.index().init(want)));
        }
        assert_eq!(rx.channel_count(), paths.len(), "drained channels stay open");
    }

    #[test]
    fn complete_forwards_are_the_simple_extensions() {
        // Every interned path of a directed, non-complete graph, simple or
        // not: the relay targets are exactly the `w` with a simple `p‖w`.
        let graph = dbac_graph::generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]);
        let t = crate::test_support::topo_of(graph, 1, crate::config::FloodMode::Redundant);
        let index = t.index();
        let pay = payload(1.0);
        for raw in 0..index.len() as u32 {
            let p = PathId::from_raw(raw);
            let me = index.ter(p);
            let sent: Vec<NodeId> = complete_forwards(&t, me, 0, NodeSet::EMPTY, &pay, p, 1)
                .into_iter()
                .map(|(w, _)| w)
                .collect();
            let simple: Vec<NodeId> =
                t.graph().nodes().filter(|&w| index.extend_simple(p, w).is_some()).collect();
            assert_eq!(sent, simple, "{p}");
        }
    }
}
