//! Byzantine behaviour library.
//!
//! Each strategy implements [`Adversary`] over [`ProtocolMsg`]. The model
//! boundary (Section 2): a faulty node fully controls what it sends over
//! its own out-edges — including fabricated protocol messages with
//! arbitrary (but well-formed) propagation paths ending at itself — but it
//! cannot impersonate other senders or affect delivery schedules (timing
//! belongs to the [`DeliveryPolicy`](dbac_sim::scheduler::DeliveryPolicy)).
//! Paths are forged as interned ids: the shared topology is common
//! knowledge, so an adversary may reference any path in the population —
//! and receivers reject ids outside it at validation.

use crate::flood;
use crate::message::ProtocolMsg;
use crate::precompute::Topology;
use dbac_graph::{NodeId, PathId};
use dbac_sim::process::{Adversary, Context};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Re-export: the silent/crashed adversary (also models crash faults).
pub use dbac_sim::process::Silent;

/// Kinds of Byzantine behaviour available to the run harness.
#[derive(Clone, Debug, PartialEq)]
pub enum AdversaryKind {
    /// Crashed from the start — sends nothing.
    Crash,
    /// Floods a fixed extreme value each round but otherwise relays
    /// honestly (a validity attack).
    ConstantLiar {
        /// The injected value.
        value: f64,
    },
    /// Sends `low` to half of its out-neighbors and `high` to the rest,
    /// and tampers relayed flood values toward whichever extreme it told
    /// that neighbor (a split-brain / agreement attack).
    Equivocator {
        /// Value for the first half.
        low: f64,
        /// Value for the second half.
        high: f64,
    },
    /// Relays flood messages with all values replaced by `spoof`
    /// (an integrity attack on indirect paths).
    RelayTamperer {
        /// The value written into every relayed flood.
        spoof: f64,
    },
    /// Fabricates floods with forged (but well-formed) propagation paths
    /// claiming honest initiators reported `forged_value`.
    PathFabricator {
        /// The forged value attributed to other initiators.
        forged_value: f64,
    },
    /// Random mixture of lying, tampering and dropping, driven by a seed.
    Chaotic {
        /// RNG seed (keeps runs reproducible).
        seed: u64,
    },
}

impl AdversaryKind {
    /// Instantiates the strategy for node `me`.
    #[must_use]
    pub fn build(
        &self,
        topo: Arc<Topology>,
        me: NodeId,
        rounds: u32,
    ) -> Box<dyn Adversary<ProtocolMsg> + Send> {
        match *self {
            AdversaryKind::Crash => Box::new(Silent),
            AdversaryKind::ConstantLiar { value } => {
                Box::new(ConstantLiar { topo, me, value, rounds, relay: RelaySeen::new() })
            }
            AdversaryKind::Equivocator { low, high } => {
                Box::new(Equivocator { topo, me, low, high, rounds, relay: RelaySeen::new() })
            }
            AdversaryKind::RelayTamperer { spoof } => {
                Box::new(RelayTamperer { topo, me, spoof, relay: RelaySeen::new() })
            }
            AdversaryKind::PathFabricator { forged_value } => {
                Box::new(PathFabricator { topo, me, forged_value, relay: RelaySeen::new() })
            }
            AdversaryKind::Chaotic { seed } => Box::new(Chaotic {
                topo,
                me,
                rng: SmallRng::seed_from_u64(seed ^ me.index() as u64),
                relay: RelaySeen::new(),
            }),
        }
    }
}

/// Relay deduplication shared by the strategies (mirrors the honest rule so
/// adversaries do not flood the network into its event budget). Both sets
/// key on wire-supplied bytes (unbounded rounds, payload fingerprints), so
/// they use the seeded default hasher, not the fixed-key fast one.
struct RelaySeen {
    floods: HashSet<(u32, PathId)>,
    completes: HashSet<(PathId, u64, u64)>,
}

impl RelaySeen {
    fn new() -> Self {
        RelaySeen { floods: HashSet::new(), completes: HashSet::new() }
    }
}

/// Relays a message like an honest node would (optionally tampering flood
/// values through `tamper`), sending through `ctx`.
fn relay(
    topo: &Topology,
    me: NodeId,
    seen: &mut RelaySeen,
    ctx: &mut Context<ProtocolMsg>,
    from: NodeId,
    msg: &ProtocolMsg,
    tamper: impl Fn(f64) -> f64,
) {
    match msg {
        ProtocolMsg::Flood { round, value, path } => {
            let Some(stored) = crate::message::validate_flood(topo, me, from, *path) else {
                return;
            };
            if !seen.floods.insert((*round, stored)) {
                return;
            }
            let forwarded = tamper(*value);
            for (to, m) in flood::flood_forwards(topo, me, *round, forwarded, stored) {
                ctx.send(to, m);
            }
        }
        ProtocolMsg::Complete { round, suspects, payload, path, seq } => {
            let Some(stored) =
                crate::message::validate_complete(topo, me, from, *path, *suspects, *seq)
            else {
                return;
            };
            let fp = payload.fingerprint();
            if !seen.completes.insert((stored, *seq, fp)) {
                return;
            }
            for (to, m) in
                crate::fifo::complete_forwards(topo, me, *round, *suspects, payload, stored, *seq)
            {
                ctx.send(to, m);
            }
        }
    }
}

struct ConstantLiar {
    topo: Arc<Topology>,
    me: NodeId,
    value: f64,
    rounds: u32,
    relay: RelaySeen,
}

impl Adversary<ProtocolMsg> for ConstantLiar {
    fn on_start(&mut self, ctx: &mut Context<ProtocolMsg>) {
        // Inject the extreme value into every round up front; relays of
        // other nodes will spread it exactly like a real flood.
        for round in 0..self.rounds {
            for (to, m) in flood::initial_flood(&self.topo, self.me, round, self.value) {
                ctx.send(to, m);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        relay(&self.topo, self.me, &mut self.relay, ctx, from, &msg, |v| v);
    }
}

struct Equivocator {
    topo: Arc<Topology>,
    me: NodeId,
    low: f64,
    high: f64,
    rounds: u32,
    relay: RelaySeen,
}

impl Adversary<ProtocolMsg> for Equivocator {
    fn on_start(&mut self, ctx: &mut Context<ProtocolMsg>) {
        let neighbors: Vec<NodeId> = ctx.out_neighbors().iter().collect();
        let half = neighbors.len() / 2;
        for round in 0..self.rounds {
            let path = self.topo.index().trivial(self.me);
            for (i, &w) in neighbors.iter().enumerate() {
                let value = if i < half { self.low } else { self.high };
                ctx.send(w, ProtocolMsg::Flood { round, value, path });
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        // Tamper relayed values toward the low extreme (keeps the
        // equivocation asymmetric and nastier to filter).
        let low = self.low;
        relay(&self.topo, self.me, &mut self.relay, ctx, from, &msg, |_| low);
    }
}

struct RelayTamperer {
    topo: Arc<Topology>,
    me: NodeId,
    spoof: f64,
    relay: RelaySeen,
}

impl Adversary<ProtocolMsg> for RelayTamperer {
    fn on_start(&mut self, _ctx: &mut Context<ProtocolMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        let spoof = self.spoof;
        relay(&self.topo, self.me, &mut self.relay, ctx, from, &msg, |_| spoof);
    }
}

struct PathFabricator {
    topo: Arc<Topology>,
    me: NodeId,
    forged_value: f64,
    relay: RelaySeen,
}

impl Adversary<ProtocolMsg> for PathFabricator {
    fn on_start(&mut self, ctx: &mut Context<ProtocolMsg>) {
        // Claim every simple path ending at me carried `forged_value` —
        // i.e. attribute the forged value to every other initiator.
        let paths: Vec<PathId> = self.topo.simple_paths_to(self.me).to_vec();
        for path in paths {
            if self.topo.index().is_trivial(path) {
                continue;
            }
            for (to, m) in flood::flood_forwards(&self.topo, self.me, 0, self.forged_value, path) {
                ctx.send(to, m);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        relay(&self.topo, self.me, &mut self.relay, ctx, from, &msg, |v| v);
    }
}

struct Chaotic {
    topo: Arc<Topology>,
    me: NodeId,
    rng: SmallRng,
    relay: RelaySeen,
}

impl Adversary<ProtocolMsg> for Chaotic {
    fn on_start(&mut self, ctx: &mut Context<ProtocolMsg>) {
        let value = self.rng.gen_range(-1000.0..1000.0);
        for (to, m) in flood::initial_flood(&self.topo, self.me, 0, value) {
            if self.rng.gen_bool(0.8) {
                ctx.send(to, m);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        if self.rng.gen_bool(0.2) {
            return; // drop
        }
        let tampered: Option<f64> =
            if self.rng.gen_bool(0.3) { Some(self.rng.gen_range(-1000.0..1000.0)) } else { None };
        relay(&self.topo, self.me, &mut self.relay, ctx, from, &msg, |v| tampered.unwrap_or(v));
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

    #[test]
    fn constant_liar_floods_every_round() {
        let t = topo(4);
        let mut a =
            AdversaryKind::ConstantLiar { value: 99.0 }.build(Arc::clone(&t), NodeId::new(0), 3);
        let mut ctx = ctx_for(&t, NodeId::new(0));
        a.on_start(&mut ctx);
        // 3 rounds × 3 neighbors.
        assert_eq!(ctx.pending(), 9);
    }

    #[test]
    fn equivocator_splits_values() {
        let t = topo(5);
        let mut a = AdversaryKind::Equivocator { low: -5.0, high: 5.0 }.build(
            Arc::clone(&t),
            NodeId::new(0),
            1,
        );
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
        let mut a =
            AdversaryKind::RelayTamperer { spoof: 42.0 }.build(Arc::clone(&t), NodeId::new(1), 1);
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
        let mut a =
            AdversaryKind::ConstantLiar { value: 0.0 }.build(Arc::clone(&t), NodeId::new(1), 1);
        let wire =
            ProtocolMsg::Flood { round: 0, value: 7.0, path: t.index().trivial(NodeId::new(0)) };
        let mut ctx = ctx_for(&t, NodeId::new(1));
        a.on_message(&mut ctx, NodeId::new(0), wire.clone());
        let first = ctx.take_outbox().len();
        a.on_message(&mut ctx, NodeId::new(0), wire);
        assert_eq!(ctx.pending(), 0, "duplicate relays suppressed (first: {first})");
    }

    #[test]
    fn fabricator_attributes_values_to_others() {
        let t = topo(4);
        let mut a = AdversaryKind::PathFabricator { forged_value: -77.0 }.build(
            Arc::clone(&t),
            NodeId::new(2),
            1,
        );
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
            let mut a = AdversaryKind::Chaotic { seed }.build(Arc::clone(&t), NodeId::new(0), 1);
            let mut ctx = ctx_for(&t, NodeId::new(0));
            a.on_start(&mut ctx);
            ctx.take_outbox().len()
        };
        assert_eq!(run(3), run(3));
    }
}
