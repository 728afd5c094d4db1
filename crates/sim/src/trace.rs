//! Delivery traces, and the driver that replays them.
//!
//! A [`Trace`] is the global delivery order of one simulator run: every
//! delivered message with its time, its edge and its canonical wire bytes
//! ([`WireMessage::encode`] — the same body the network runtime would
//! frame). Keeping the bytes rather than a typed payload leaves the trace
//! protocol-agnostic while still letting a reader recover each message
//! with `from_bytes`.
//!
//! [`Fleet::replay`] feeds a script of deliveries to a fleet, checked
//! against what each sender sent. The impossibility experiment (Appendix
//! B) replays a *splice*: node `v`'s side consumes execution `e1`'s
//! deliveries and node `u`'s side `e2`'s, and the two outputs disagree.

use crate::error::SimError;
use crate::fleet::{Actor, Fleet};
use crate::net::codec::WireMessage;
use crate::process::Process;
use crate::time::VirtualTime;
use dbac_graph::NodeId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One delivered message: when, along which edge, and its encoded bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual delivery time.
    pub at: VirtualTime,
    /// Authenticated sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The message's `WireMessage::encode` bytes.
    pub frame: Vec<u8>,
}

/// Every delivery of a run, in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The deliveries, in the order the simulator dispatched them.
    pub deliveries: Vec<Delivery>,
}

/// What [`Fleet::replay`] hands back.
#[derive(Debug)]
pub struct Replay<P> {
    /// The honest nodes' final states (`None` at Byzantine slots).
    pub nodes: Vec<Option<P>>,
    /// Deliveries that consumed a copy their sender had sent.
    pub matched: usize,
    /// Deliveries synthesized for a Byzantine sender that sent no copy.
    pub synthesized: usize,
}

impl<P: Process> Fleet<P>
where
    P::Message: WireMessage,
{
    /// Starts every actor in node order, then delivers `script` in order
    /// (`at` unread) through the activation step and the send gate, so a
    /// link-fault plan judges each send as on any driver. A delivery
    /// consumes an equal copy from its edge's pool of surviving sends, or
    /// is synthesized for a Byzantine sender and booked as its send.
    ///
    /// # Errors
    ///
    /// As every driver; [`SimError::ReplayDiverged`] at the first delivery
    /// that does not decode, or that no copy matches and no Byzantine
    /// in-neighbour of its receiver sent.
    pub fn replay<'a>(
        mut self,
        script: impl IntoIterator<Item = &'a Delivery>,
    ) -> Result<Replay<P>, SimError> {
        self.check_runnable()?;
        let (mut gate, graph) = (self.gate(), Arc::clone(&self.graph));
        let (mut in_flight, mut outbox) = (HashMap::<_, VecDeque<Vec<u8>>>::new(), Vec::new());
        let (mut matched, mut synthesized) = (0, 0);
        let starts = graph.nodes().map(|v| (v, None));
        let script = script.into_iter().enumerate().map(|(index, d)| (d.to, Some((index, d))));
        for (v, delivery) in starts.chain(script) {
            let arrival = match delivery {
                None => None,
                Some((index, d)) => {
                    let diverged = SimError::ReplayDiverged { index };
                    let msg = P::Message::from_bytes(&d.frame).map_err(|_| diverged.clone())?;
                    let copies = in_flight.entry((d.from, v)).or_default();
                    if let Some(at) = copies.iter().position(|frame| *frame == d.frame) {
                        copies.remove(at);
                        matched += 1;
                    } else if graph.has_edge(d.from, v)
                        && matches!(self.actors[d.from.index()], Some(Actor::Byzantine(_)))
                    {
                        gate.stats.record_sent(P::classify(&msg));
                        gate.stats.record_enqueued(v.index());
                        synthesized += 1;
                    } else {
                        return Err(diverged);
                    }
                    Some((d.from, msg))
                }
            };
            let actor = self.actors[v.index()].as_mut().expect("assignment checked above");
            let out = graph.out_neighbors(v);
            actor.activate(&mut gate, v, out, &mut outbox, arrival, |to, msg, decision| {
                let copies = std::iter::repeat(msg.to_bytes()).take(decision.copies as usize);
                in_flight.entry((v, to)).or_default().extend(copies);
            });
        }
        let nodes = self.actors.into_iter().map(|a| a.and_then(Actor::into_honest)).collect();
        Ok(Replay { nodes, matched, synthesized })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{LinkFault, LinkFaultPlan};
    use crate::process::{Context, Silent};
    use crate::stats::StatsRegistry;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Broadcasts its input at start and remembers everything it hears.
    #[derive(Debug)]
    struct Gossip {
        input: u64,
        heard: Vec<(NodeId, u64)>,
    }

    impl Process for Gossip {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(&self.input);
        }
        fn on_message(&mut self, _ctx: &mut Context<u64>, from: NodeId, msg: u64) {
            self.heard.push((from, msg));
        }
    }

    /// A fleet on K`n` with honest gossipers at `0..honest` (input `10·v`)
    /// and `Silent` everywhere else.
    fn fleet(n: usize, honest: usize) -> Fleet<Gossip> {
        let mut fleet = Fleet::new(Arc::new(generators::clique(n)));
        for v in 0..n {
            if v < honest {
                fleet.set_honest(id(v), Gossip { input: 10 * v as u64, heard: Vec::new() });
            } else {
                fleet.set_byzantine(id(v), Box::new(Silent));
            }
        }
        fleet
    }

    fn delivery(from: usize, to: usize, frame: Vec<u8>) -> Delivery {
        Delivery { at: VirtualTime::ZERO, from: id(from), to: id(to), frame }
    }

    fn value(from: usize, to: usize, v: u64) -> Delivery {
        delivery(from, to, v.to_bytes())
    }

    #[test]
    fn an_honest_senders_unsent_frame_diverges_at_its_index() {
        let script = [value(0, 1, 0), value(0, 1, 5)];
        let err = fleet(3, 3).replay(&script).unwrap_err();
        assert_eq!(err, SimError::ReplayDiverged { index: 1 });
    }

    #[test]
    fn an_undecodable_frame_diverges_at_its_index() {
        // Three bytes are no `u64`, whoever the sender.
        let err = fleet(3, 2).replay(&[delivery(2, 0, vec![1, 2, 3])]).unwrap_err();
        assert_eq!(err, SimError::ReplayDiverged { index: 0 });
    }

    #[test]
    fn a_silent_senders_frame_is_synthesized_and_booked_as_its_send() {
        let registry = StatsRegistry::new(3);
        let mut fleet = fleet(3, 2);
        fleet.set_stats(Arc::clone(&registry));
        let script = [value(0, 1, 0), value(2, 0, 99), value(1, 0, 10)];
        let replay = fleet.replay(&script).expect("replays");
        assert_eq!((replay.matched, replay.synthesized), (2, 1));
        assert_eq!(replay.nodes[0].as_ref().unwrap().heard, [(id(2), 99), (id(1), 10)]);
        assert!(replay.nodes[2].is_none(), "a Byzantine slot has no state");
        // Four honest sends plus the synthesized one; the two copies
        // toward node 2 are still in flight.
        let total = registry.snapshot().transport.measured().unwrap().total();
        assert_eq!((total.sent, total.delivered, total.undelivered()), (5, 3, 2));
    }

    #[test]
    fn both_copies_of_a_duplicated_send_are_matched() {
        let duplicating = || {
            let mut fleet = fleet(2, 2);
            let plan = LinkFaultPlan::new(0);
            fleet.set_link_faults(plan.fault(id(0), id(1), LinkFault::Duplicate { prob: 1.0 }));
            fleet
        };
        let replay = duplicating().replay(&[value(0, 1, 0), value(0, 1, 0)]).expect("replays");
        assert_eq!((replay.matched, replay.synthesized), (2, 0));
        assert_eq!(replay.nodes[1].as_ref().unwrap().heard, [(id(0), 0), (id(0), 0)]);
        // A third copy was never in flight.
        let script = [value(0, 1, 0), value(0, 1, 0), value(0, 1, 0)];
        let err = duplicating().replay(&script).unwrap_err();
        assert_eq!(err, SimError::ReplayDiverged { index: 2 });
    }
}
