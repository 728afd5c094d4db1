//! Bracha reliable broadcast on complete networks (`n > 3f`).
//!
//! Guarantees: if an honest node delivers `(origin, seq, m)` then every
//! honest node eventually delivers exactly that tuple (agreement on
//! content even for Byzantine origins), and honest origins' broadcasts are
//! always delivered (validity). The Abraham–Amit–Dolev baseline
//! ([`aad04`](crate::aad04)) runs on top of this engine.

use dbac_graph::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Wire messages of the broadcast. `T` is the application payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbcMsg<T> {
    /// The origin's initial send.
    Init {
        /// Broadcasting node.
        origin: NodeId,
        /// Origin-local sequence number (distinguishes instances).
        seq: u64,
        /// The payload.
        payload: T,
    },
    /// First-phase echo.
    Echo {
        /// Broadcasting node of the echoed instance.
        origin: NodeId,
        /// Instance sequence number.
        seq: u64,
        /// The payload being echoed.
        payload: T,
    },
    /// Second-phase ready.
    Ready {
        /// Broadcasting node of the instance.
        origin: NodeId,
        /// Instance sequence number.
        seq: u64,
        /// The payload being committed.
        payload: T,
    },
}

/// A delivered broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RbcDelivery<T> {
    /// The (claimed) broadcaster.
    pub origin: NodeId,
    /// Instance sequence number.
    pub seq: u64,
    /// The agreed payload.
    pub payload: T,
}

/// Per-node engine state for arbitrarily many concurrent instances.
///
/// The engine is transport-agnostic: `broadcast` and `on_message` return
/// the messages to send to **all** nodes (including self-processing, which
/// the caller performs by feeding its own messages back in).
#[derive(Debug)]
pub struct RbcEngine<T> {
    me: NodeId,
    f: usize,
    /// Instances where we already echoed (one echo per (origin, seq)).
    echoed: HashSet<(NodeId, u64)>,
    /// Instances where we already sent ready.
    readied: HashSet<(NodeId, u64)>,
    /// Delivered instances.
    delivered: HashSet<(NodeId, u64)>,
    /// (origin, seq, payload) → echo senders.
    echoes: HashMap<(NodeId, u64, T), HashSet<NodeId>>,
    /// (origin, seq, payload) → ready senders.
    readies: HashMap<(NodeId, u64, T), HashSet<NodeId>>,
    next_seq: u64,
}

impl<T: Clone + Eq + Hash> RbcEngine<T> {
    /// Creates an engine for node `me` in an `n`-node network tolerating
    /// `f` Byzantine nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f` (Bracha's resilience bound).
    #[must_use]
    pub fn new(me: NodeId, n: usize, f: usize) -> Self {
        assert!(n > 3 * f, "reliable broadcast requires n > 3f");
        RbcEngine {
            me,
            f,
            echoed: HashSet::new(),
            readied: HashSet::new(),
            delivered: HashSet::new(),
            echoes: HashMap::new(),
            readies: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Starts broadcasting `payload`; returns the instance sequence number
    /// and the `Init` message to send to every node (including self).
    pub fn broadcast(&mut self, payload: T) -> (u64, RbcMsg<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, RbcMsg::Init { origin: self.me, seq, payload })
    }

    /// Processes a message from `from`; returns messages to send to all
    /// nodes plus any deliveries that fired.
    #[allow(clippy::int_plus_one)] // thresholds written as Bracha states them
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: RbcMsg<T>,
    ) -> (Vec<RbcMsg<T>>, Vec<RbcDelivery<T>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match msg {
            RbcMsg::Init { origin, seq, payload } => {
                // Authenticated links: only the origin may initiate.
                if origin == from && self.echoed.insert((origin, seq)) {
                    out.push(RbcMsg::Echo { origin, seq, payload });
                }
            }
            RbcMsg::Echo { origin, seq, payload } => {
                let senders = self.echoes.entry((origin, seq, payload.clone())).or_default();
                senders.insert(from);
                if senders.len() >= 2 * self.f + 1 && self.readied.insert((origin, seq)) {
                    out.push(RbcMsg::Ready { origin, seq, payload });
                }
            }
            RbcMsg::Ready { origin, seq, payload } => {
                let senders = self.readies.entry((origin, seq, payload.clone())).or_default();
                senders.insert(from);
                let count = senders.len();
                if count >= self.f + 1 && self.readied.insert((origin, seq)) {
                    out.push(RbcMsg::Ready { origin, seq, payload: payload.clone() });
                }
                if count >= 2 * self.f + 1 && self.delivered.insert((origin, seq)) {
                    delivered.push(RbcDelivery { origin, seq, payload });
                }
            }
        }
        (out, delivered)
    }

    /// Whether `(origin, seq)` has been delivered.
    #[must_use]
    pub fn is_delivered(&self, origin: NodeId, seq: u64) -> bool {
        self.delivered.contains(&(origin, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Drives a set of engines to quiescence over a lossless full mesh,
    /// processing messages in FIFO order. Returns deliveries per node.
    fn drive(
        engines: &mut [RbcEngine<u64>],
        initial: Vec<(NodeId, RbcMsg<u64>)>,
        byzantine: &[usize],
    ) -> Vec<Vec<RbcDelivery<u64>>> {
        let n = engines.len();
        let mut deliveries: Vec<Vec<RbcDelivery<u64>>> = vec![Vec::new(); n];
        // Queue of (from, to, msg): each send goes to every node.
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, RbcMsg<u64>)> =
            std::collections::VecDeque::new();
        for (from, msg) in initial {
            for to in 0..n {
                queue.push_back((from, id(to), msg.clone()));
            }
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            if byzantine.contains(&to.index()) {
                continue; // byzantine nodes stay silent here
            }
            let (outs, dels) = engines[to.index()].on_message(from, msg);
            deliveries[to.index()].extend(dels);
            for m in outs {
                for t in 0..n {
                    queue.push_back((to, id(t), m.clone()));
                }
            }
        }
        deliveries
    }

    fn engines(n: usize, f: usize) -> Vec<RbcEngine<u64>> {
        (0..n).map(|i| RbcEngine::new(id(i), n, f)).collect()
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn resilience_bound_enforced() {
        let _ = RbcEngine::<u64>::new(id(0), 3, 1);
    }

    #[test]
    fn honest_broadcast_delivered_by_all() {
        let mut es = engines(4, 1);
        let (seq, init) = es[0].broadcast(42);
        let deliveries = drive(&mut es, vec![(id(0), init)], &[]);
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.len(), 1, "node {i}");
            assert_eq!(d[0], RbcDelivery { origin: id(0), seq, payload: 42 });
        }
    }

    #[test]
    fn forged_init_is_ignored() {
        let mut es = engines(4, 1);
        // Node 1 forges an Init claiming origin 0.
        let forged = RbcMsg::Init { origin: id(0), seq: 9, payload: 7 };
        let (outs, dels) = es[2].on_message(id(1), forged);
        assert!(outs.is_empty() && dels.is_empty());
    }

    #[test]
    fn equivocating_origin_cannot_split_delivery() {
        // Byzantine node 3 sends Init(5) to half and Init(6) to the rest.
        // With one faulty origin, honest echoes split 2/2 at best — wait:
        // echoes go to everyone, so each honest node sees 2 echoes for one
        // value at most, short of 2f+1 = 3: nothing delivers; or the origin
        // converges on one value. Either way, no two honest nodes deliver
        // different payloads.
        let n = 4;
        let mut es = engines(n, 1);
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, RbcMsg<u64>)> =
            std::collections::VecDeque::new();
        queue.push_back((id(3), id(0), RbcMsg::Init { origin: id(3), seq: 0, payload: 5 }));
        queue.push_back((id(3), id(1), RbcMsg::Init { origin: id(3), seq: 0, payload: 5 }));
        queue.push_back((id(3), id(2), RbcMsg::Init { origin: id(3), seq: 0, payload: 6 }));
        let mut delivered: Vec<(usize, u64)> = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            if to.index() == 3 {
                continue;
            }
            let (outs, dels) = es[to.index()].on_message(from, msg);
            for d in dels {
                delivered.push((to.index(), d.payload));
            }
            for m in outs {
                for t in 0..n {
                    queue.push_back((to, id(t), m.clone()));
                }
            }
        }
        let payloads: HashSet<u64> = delivered.iter().map(|&(_, p)| p).collect();
        assert!(payloads.len() <= 1, "split delivery: {delivered:?}");
    }

    #[test]
    fn silent_byzantine_does_not_block_delivery() {
        let mut es = engines(4, 1);
        let (_, init) = es[1].broadcast(11);
        let deliveries = drive(&mut es, vec![(id(1), init)], &[3]);
        for (i, d) in deliveries.iter().take(3).enumerate() {
            assert_eq!(d.len(), 1, "node {i} must deliver despite silence");
        }
    }

    #[test]
    fn multiple_instances_are_independent() {
        let mut es = engines(4, 1);
        let (s0, i0) = es[0].broadcast(1);
        let (s1, i1) = es[0].broadcast(2);
        assert_ne!(s0, s1);
        let deliveries = drive(&mut es, vec![(id(0), i0), (id(0), i1)], &[]);
        for d in &deliveries {
            assert_eq!(d.len(), 2);
        }
        assert!(es[2].is_delivered(id(0), s0));
        assert!(es[2].is_delivered(id(0), s1));
    }
}
