//! The Byzantine adversary of Algorithm BW.
//!
//! One actor realises every [`FaultKind`] BW can express: the kind decides
//! what it injects at start and which value it writes into the floods it
//! relays, and everything else — validation, deduplication, forwarding —
//! is the honest relay rule, so an adversary does not flood the network
//! into its event budget. [`FaultKind::Crash`] builds [`Silent`] instead.
//!
//! The model boundary (Section 2): a faulty node fully controls what it
//! sends over its own out-edges — including fabricated protocol messages
//! with arbitrary (but well-formed) propagation paths ending at itself —
//! but it cannot impersonate other senders or affect delivery schedules
//! (timing belongs to the
//! [`DeliveryPolicy`](dbac_sim::scheduler::DeliveryPolicy)). Paths are
//! forged as interned ids: the shared topology is common knowledge, so an
//! adversary may reference any path in the population — and receivers
//! reject ids outside it at validation.

use crate::flood;
use crate::message::ProtocolMsg;
use crate::precompute::Topology;
use crate::scenario::FaultKind;
use dbac_graph::{NodeId, PathId};
use dbac_sim::process::{Adversary, Context, Silent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// A [`FaultKind`] Algorithm BW can express. Only
/// [`FaultKind::adversary_kind`] builds one.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryKind(pub(crate) FaultKind);

impl AdversaryKind {
    /// Instantiates the adversary for node `me` in a `rounds`-round run.
    #[must_use]
    pub fn build(
        &self,
        topo: Arc<Topology>,
        me: NodeId,
        rounds: u32,
    ) -> Box<dyn Adversary<ProtocolMsg> + Send> {
        let seed = match self.0 {
            FaultKind::Crash => return Box::new(Silent),
            FaultKind::Chaotic { seed } => seed ^ me.index() as u64,
            _ => 0,
        };
        Box::new(Byzantine {
            kind: self.0.clone(),
            topo,
            me,
            rounds,
            rng: SmallRng::seed_from_u64(seed),
            floods: vec![Vec::new(); rounds as usize],
            completes: HashSet::new(),
        })
    }
}

/// Every BW fault but [`FaultKind::Crash`].
struct Byzantine {
    kind: FaultKind,
    topo: Arc<Topology>,
    me: NodeId,
    rounds: u32,
    /// Draws of [`FaultKind::Chaotic`]; unused by the other kinds.
    rng: SmallRng,
    /// Per round, a presence bitmap over the actor's own terminal id block
    /// (every validated flood path ends at the actor): the floods already
    /// relayed. Allocated on a round's first flood.
    floods: Vec<Vec<u64>>,
    /// The `COMPLETE`s already relayed. The key holds wire-supplied bytes
    /// (a payload fingerprint), so the set uses the seeded default hasher.
    completes: HashSet<(PathId, u64, u64)>,
}

impl Adversary<ProtocolMsg> for Byzantine {
    fn on_start(&mut self, ctx: &mut Context<ProtocolMsg>) {
        let (topo, me) = (&self.topo, self.me);
        match self.kind {
            FaultKind::ConstantLiar { value } => {
                // Relays of other nodes spread each injection exactly like
                // a real flood.
                for round in 0..self.rounds {
                    for (to, m) in flood::initial_flood(topo, me, round, value) {
                        ctx.send(to, m);
                    }
                }
            }
            FaultKind::Equivocator { low, high } => {
                let neighbors: Vec<NodeId> = ctx.out_neighbors().iter().collect();
                let half = neighbors.len() / 2;
                let path = topo.index().trivial(me);
                for round in 0..self.rounds {
                    for (i, &w) in neighbors.iter().enumerate() {
                        let value = if i < half { low } else { high };
                        ctx.send(w, ProtocolMsg::Flood { round, value, path });
                    }
                }
            }
            FaultKind::PathFabricator { forged_value } => {
                for &path in topo.simple_paths_to(me) {
                    if topo.index().is_trivial(path) {
                        continue;
                    }
                    for (to, m) in flood::flood_forwards(topo, me, 0, forged_value, path) {
                        ctx.send(to, m);
                    }
                }
            }
            FaultKind::Chaotic { .. } => {
                let value = self.rng.gen_range(-1000.0..1000.0);
                for (to, m) in flood::initial_flood(topo, me, 0, value) {
                    if self.rng.gen_bool(0.8) {
                        ctx.send(to, m);
                    }
                }
            }
            // RelayTamperer only relays; `build` never reaches the rest.
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        let spoof = match self.kind {
            FaultKind::Equivocator { low, .. } => Some(low),
            FaultKind::RelayTamperer { spoof } => Some(spoof),
            FaultKind::Chaotic { .. } => {
                if self.rng.gen_bool(0.2) {
                    return; // drop
                }
                self.rng.gen_bool(0.3).then(|| self.rng.gen_range(-1000.0..1000.0))
            }
            _ => None,
        };
        let (topo, me) = (&*self.topo, self.me);
        match msg {
            ProtocolMsg::Flood { round, value, path } => {
                // Rounds past the run are dropped, as honest nodes drop them.
                let Some(seen) = self.floods.get_mut(round as usize) else {
                    return;
                };
                let Some(stored) = crate::message::validate_flood(topo, me, from, path) else {
                    return;
                };
                let words = topo.index().terminal_word_range(me);
                if seen.is_empty() {
                    *seen = vec![0; words.len()];
                }
                let slot = stored.index() - words.start * 64;
                let (word, bit) = (&mut seen[slot / 64], 1u64 << (slot % 64));
                if *word & bit != 0 {
                    return;
                }
                *word |= bit;
                let value = spoof.unwrap_or(value);
                for (to, m) in flood::flood_forwards(topo, me, round, value, stored) {
                    ctx.send(to, m);
                }
            }
            ProtocolMsg::Complete { round, suspects, payload, path, seq } => {
                let Some(stored) =
                    crate::message::validate_complete(topo, me, from, path, suspects, seq)
                else {
                    return;
                };
                if !self.completes.insert((stored, seq, payload.fingerprint())) {
                    return;
                }
                for (to, m) in
                    crate::fifo::complete_forwards(topo, me, round, suspects, &payload, stored, seq)
                {
                    ctx.send(to, m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::clique_topo;

    fn topo(n: usize) -> Arc<Topology> {
        Arc::new(clique_topo(n, 1))
    }

    fn ctx_for(topo: &Topology, me: NodeId) -> Context<ProtocolMsg> {
        Context::new(me, topo.graph().out_neighbors(me))
    }

    fn build(
        kind: FaultKind,
        topo: &Arc<Topology>,
        me: usize,
        rounds: u32,
    ) -> Box<dyn Adversary<ProtocolMsg> + Send> {
        kind.adversary_kind().expect("a BW fault").build(Arc::clone(topo), NodeId::new(me), rounds)
    }

    #[test]
    fn constant_liar_floods_every_round() {
        let t = topo(4);
        let mut a = build(FaultKind::ConstantLiar { value: 99.0 }, &t, 0, 3);
        let mut ctx = ctx_for(&t, NodeId::new(0));
        a.on_start(&mut ctx);
        // 3 rounds × 3 neighbors.
        assert_eq!(ctx.pending(), 9);
    }

    #[test]
    fn equivocator_splits_values() {
        let t = topo(5);
        let mut a = build(FaultKind::Equivocator { low: -5.0, high: 5.0 }, &t, 0, 1);
        let mut ctx = ctx_for(&t, NodeId::new(0));
        a.on_start(&mut ctx);
        let out = ctx.take_outbox();
        let values: Vec<f64> = out
            .iter()
            .map(|(_, m)| match m {
                ProtocolMsg::Flood { value, .. } => *value,
                ProtocolMsg::Complete { .. } => panic!("unexpected"),
            })
            .collect();
        assert!(values.contains(&-5.0) && values.contains(&5.0));
    }

    #[test]
    fn relay_tamperer_spoofs_values_but_keeps_paths() {
        let t = topo(4);
        let mut a = build(FaultKind::RelayTamperer { spoof: 42.0 }, &t, 1, 1);
        let mut ctx = ctx_for(&t, NodeId::new(1));
        let origin = t.index().trivial(NodeId::new(0));
        let wire = ProtocolMsg::Flood { round: 0, value: 7.0, path: origin };
        a.on_message(&mut ctx, NodeId::new(0), wire);
        let out = ctx.take_outbox();
        assert!(!out.is_empty());
        for (_, m) in &out {
            match m {
                ProtocolMsg::Flood { value, path, .. } => {
                    assert_eq!(*value, 42.0);
                    assert_eq!(t.index().init(*path), NodeId::new(0), "path preserved");
                }
                ProtocolMsg::Complete { .. } => panic!("unexpected"),
            }
        }
    }

    #[test]
    fn relay_dedupes_replays() {
        let t = topo(4);
        let mut a = build(FaultKind::ConstantLiar { value: 0.0 }, &t, 1, 1);
        let wire =
            ProtocolMsg::Flood { round: 0, value: 7.0, path: t.index().trivial(NodeId::new(0)) };
        let mut ctx = ctx_for(&t, NodeId::new(1));
        a.on_message(&mut ctx, NodeId::new(0), wire.clone());
        let first = ctx.take_outbox().len();
        a.on_message(&mut ctx, NodeId::new(0), wire);
        assert_eq!(ctx.pending(), 0, "duplicate relays suppressed (first: {first})");
    }

    #[test]
    fn relay_dedupes_per_round_and_drops_rounds_past_the_run() {
        let t = topo(4);
        let mut a = build(FaultKind::RelayTamperer { spoof: 1.0 }, &t, 1, 2);
        let mut ctx = ctx_for(&t, NodeId::new(1));
        let path = t.index().trivial(NodeId::new(0));
        let relays = |a: &mut Box<dyn Adversary<ProtocolMsg> + Send>,
                      ctx: &mut Context<ProtocolMsg>,
                      round| {
            a.on_message(ctx, NodeId::new(0), ProtocolMsg::Flood { round, value: 7.0, path });
            ctx.take_outbox().len()
        };
        // The same path is fresh once per round of the run …
        assert!(relays(&mut a, &mut ctx, 0) > 0);
        assert!(relays(&mut a, &mut ctx, 1) > 0);
        assert_eq!(relays(&mut a, &mut ctx, 1), 0);
        // … and a round past the run is never relayed.
        assert_eq!(relays(&mut a, &mut ctx, 2), 0);
    }

    #[test]
    fn fabricator_attributes_values_to_others() {
        let t = topo(4);
        let mut a = build(FaultKind::PathFabricator { forged_value: -77.0 }, &t, 2, 1);
        let mut ctx = ctx_for(&t, NodeId::new(2));
        a.on_start(&mut ctx);
        let out = ctx.take_outbox();
        assert!(!out.is_empty());
        assert!(out.iter().any(|(_, m)| match m {
            ProtocolMsg::Flood { path, .. } => t.index().init(*path) != NodeId::new(2),
            ProtocolMsg::Complete { .. } => false,
        }));
    }

    #[test]
    fn chaotic_is_deterministic_per_seed() {
        let t = topo(4);
        let run = |seed| {
            let mut a = build(FaultKind::Chaotic { seed }, &t, 0, 1);
            let mut ctx = ctx_for(&t, NodeId::new(0));
            a.on_start(&mut ctx);
            ctx.take_outbox().len()
        };
        assert_eq!(run(3), run(3));
    }
}
