//! The deterministic discrete-event simulator: the virtual-time driver of
//! a [`Fleet`].
//!
//! # The event queue
//!
//! Deliveries happen in `(delivery tick, enqueue order)` order. Virtual
//! ticks only *order* deliveries, and almost every send lands a few ticks
//! ahead of the clock, so the queue is a calendar rather than a heap:
//!
//! * a ring of `W` per-tick FIFO buckets covers the window
//!   `[now, now + W)`; a send inside it is appended to bucket `at mod W`,
//!   and a `u64` occupancy bitmap, rotated to the clock, names the next
//!   non-empty tick — push and pop are O(1) and never compare events;
//! * bucket storage is fixed-size chunks drawn from one free pool shared
//!   by all buckets, so memory follows the number of events queued, not
//!   the sum of each bucket's own high-water mark;
//! * a send at `now + W` or later (held back by a link's
//!   [`Reorder`](crate::chaos::LinkFault::Reorder) window, or drawn far
//!   ahead by a custom [`DeliveryPolicy`]) is appended to its tick's FIFO
//!   in an ordered overflow map from tick to FIFO.
//!
//! No event carries a sequence number: within a tick, order is position
//! in the tick's FIFO alone.
//!
//! **Drain on advance.** Every time the clock moves, and before the event
//! that moved it is dispatched, every overflow tick the window now covers
//! is moved into its bucket, its FIFO whole and in order. An event is in
//! the overflow only if it was sent while its tick was still outside the
//! window, that is, before any send that reached the same tick's bucket
//! directly; so each bucket is always in enqueue order, a zero-delay send
//! joins the tail of the bucket being drained, and the delivery sequence
//! is exactly that of a single `(at, seq)` heap (the in-crate differential
//! test holds the two together).

mod queue;

use self::queue::CalendarQueue;
use crate::chaos::{LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::fleet::{Actor, Fleet};
use crate::process::Process;
use crate::scheduler::DeliveryPolicy;
use crate::stats::StatsRegistry;
use crate::threaded::ThreadedReport;
use crate::time::VirtualTime;
use crate::trace::Recorder;
use dbac_graph::{Digraph, NodeId};
use std::sync::Arc;

/// The transport totals of a finished (or aborted) run: the run's
/// [`StatsRegistry`] ledger summed over message classes once the run
/// lands, plus the simulator's clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the delivery queue.
    pub messages_sent: u64,
    /// Messages delivered to a recipient's handler.
    pub messages_delivered: u64,
    /// Copies still queued or in flight when the run stopped (on the
    /// simulator: delayed past [`VirtualTime::FAR_FUTURE`] by an
    /// adversarial schedule).
    pub messages_undelivered: u64,
    /// Messages destroyed by a link-fault plan (drop, partition, omit).
    pub messages_dropped: u64,
    /// Extra copies injected by a link-fault plan's duplication faults.
    pub messages_duplicated: u64,
    /// Messages damaged in flight by a link-fault plan and discarded on
    /// receipt (counted separately from clean drops).
    pub messages_corrupted: u64,
    /// Frames that arrived over a real byte stream but failed to decode
    /// and were discarded by the receiver (`Runtime::Net`-only — the
    /// in-process runtimes never serialize, so this stays zero there).
    pub messages_rejected: u64,
    /// Virtual time of the last delivery (zero on wall-clock runs).
    pub final_time: VirtualTime,
}

/// A deterministic event-driven run of one protocol instance over a fixed
/// directed network.
///
/// Construction: [`Simulation::new`], then assign a process to **every**
/// node with [`set_honest`](Simulation::set_honest), then
/// [`run`](Simulation::run) — or assemble a [`Fleet`] (which also takes
/// Byzantine actors) and put it under [`Simulation::over`].
///
/// Determinism: events are ordered by `(delivery time, enqueue sequence)`;
/// with a deterministic [`DeliveryPolicy`] the entire execution — including
/// every adversarial interleaving decision — is a pure function of the
/// configuration.
pub struct Simulation<P: Process> {
    fleet: Fleet<P>,
    policy: Box<dyn DeliveryPolicy + Send>,
    /// Owns the clock: `now` is the tick of the last delivery.
    queue: CalendarQueue<QueuedEvent<P::Message>>,
    delivered: u64,
    /// Deliveries before the run aborts with
    /// [`SimError::EventBudgetExhausted`] (10⁸).
    max_events: u64,
}

struct QueuedEvent<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<P: Process> Simulation<P> {
    /// Creates a simulation over `graph` with the given delivery policy.
    #[must_use]
    pub fn new(graph: Arc<Digraph>, policy: Box<dyn DeliveryPolicy + Send>) -> Self {
        Simulation::over(Fleet::new(graph), policy)
    }

    /// Puts an assembled `fleet` under the virtual-time driver.
    #[must_use]
    pub fn over(fleet: Fleet<P>, policy: Box<dyn DeliveryPolicy + Send>) -> Self {
        Simulation {
            fleet,
            policy,
            queue: CalendarQueue::new(),
            delivered: 0,
            max_events: 100_000_000,
        }
    }

    /// Assigns an honest process to `v`.
    pub fn set_honest(&mut self, v: NodeId, process: P) -> &mut Self {
        self.fleet.set_honest(v, process);
        self
    }

    /// Attaches a deterministic link-fault plan (see
    /// [`Fleet::set_link_faults`]): a message it destroys never reaches
    /// the delivery queue.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) -> &mut Self {
        self.fleet.set_link_faults(plan);
        self
    }

    /// Makes `registry` the run's ledger (see [`Fleet::set_stats`]). The
    /// single-threaded event loop writes one shard of it, and the
    /// [`SimStats`] that [`run`](Simulation::run) returns are its totals.
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        self.fleet.set_stats(registry);
        self
    }

    /// Immutable access to the honest process at `v` (e.g. to read its
    /// output after the run). Returns `None` for Byzantine nodes.
    #[must_use]
    pub fn honest(&self, v: NodeId) -> Option<&P> {
        self.fleet.actors[v.index()].as_ref()?.honest()
    }

    /// Consumes the simulation and reports the run as [`Fleet::run`] does:
    /// every honest node's final state (`None` for Byzantine slots), the
    /// transport totals and, when the fleet records, the trace in dispatch
    /// order. It marks the registry's done gauge of each node that
    /// satisfies `done`: the event loop runs to quiescence and polls no
    /// predicate on the way, so the gauges are settled here. `incomplete`
    /// is always empty.
    #[must_use]
    pub fn into_report(self, done: impl Fn(&P) -> bool) -> ThreadedReport<P> {
        let stats = self.fleet.ledger(self.now());
        let gauge = self.fleet.registry.register();
        let mut nodes = Vec::with_capacity(self.fleet.actors.len());
        for (i, slot) in self.fleet.actors.into_iter().enumerate() {
            let node = slot.and_then(Actor::into_honest);
            if node.as_ref().is_some_and(&done) {
                gauge.mark_done(i);
            }
            nodes.push(node);
        }
        let trace = self.fleet.trace.map(Recorder::into_trace);
        ThreadedReport { nodes, incomplete: Vec::new(), stats, trace }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualTime {
        VirtualTime::new(self.queue.now())
    }

    /// Runs `on_start` everywhere, then delivers events in order until
    /// quiescence. Events due after [`VirtualTime::FAR_FUTURE`] — delayed
    /// past every decision, Appendix B's bound `T` — stay queued and are
    /// counted in [`SimStats::messages_undelivered`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor;
    /// [`SimError::RegistryTooSmall`] if the stats registry has fewer
    /// nodes than the graph; [`SimError::EventBudgetExhausted`] if the
    /// budget runs out.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        self.fleet.check_runnable()?;
        let mut gate = self.fleet.gate(None);
        let graph = Arc::clone(&self.fleet.graph);
        let Simulation { fleet, policy, queue, delivered, max_events } = self;
        // Start phase, in node order.
        for v in graph.nodes() {
            let actor = fleet.actors[v.index()].as_mut().expect("assignment checked above");
            let out = graph.out_neighbors(v);
            actor.activate(&mut gate, v, out, VirtualTime::ZERO, None, |to, msg, decision| {
                carry(queue, policy.as_mut(), v, to, msg, decision);
            });
        }
        // Delivery loop.
        let mut gauge = None;
        let horizon = VirtualTime::FAR_FUTURE.ticks();
        while let Some(at) = queue.next_tick().filter(|&at| at <= horizon) {
            if *delivered >= *max_events {
                return Err(SimError::EventBudgetExhausted { delivered: *delivered });
            }
            // The clock gauge is written when the clock moves, not on
            // every delivery.
            if gauge != Some(at) {
                fleet.registry.record_virtual_time(at);
                gauge = Some(at);
            }
            let (_, QueuedEvent { from, to: v, msg }) = queue.pop().expect("peeked");
            *delivered += 1;
            let actor = fleet.actors[v.index()].as_mut().expect("assignment checked above");
            let (out, now, arrival) =
                (graph.out_neighbors(v), VirtualTime::new(at), Some((from, msg)));
            actor.activate(&mut gate, v, out, now, arrival, |to, msg, decision| {
                carry(queue, policy.as_mut(), v, to, msg, decision);
            });
        }
        self.fleet.absorb(gate.trace);
        Ok(self.fleet.ledger(self.now()))
    }
}

/// Queues the `decision.copies` copies of a surviving send, each at its
/// own delivery-policy draw, clamped to the clock and shifted by the
/// plan's reorder delay. Duplicates draw their arrival before the
/// original.
fn carry<M: Clone>(
    queue: &mut CalendarQueue<QueuedEvent<M>>,
    policy: &mut dyn DeliveryPolicy,
    from: NodeId,
    to: NodeId,
    msg: M,
    decision: LinkDecision,
) {
    let now = VirtualTime::new(queue.now());
    let mut arrival = || {
        policy.delivery_time(now, from, to).max(now).ticks().saturating_add(decision.extra_delay)
    };
    for _ in 1..decision.copies {
        queue.push(arrival(), QueuedEvent { from, to, msg: msg.clone() });
    }
    queue.push(arrival(), QueuedEvent { from, to, msg });
}

impl<P: Process> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.fleet.graph.node_count())
            .field("now", &self.now())
            .field("queued", &self.queue.len())
            .field("delivered", &self.delivered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::codec::WireMessage;
    use crate::process::{Context, Silent};
    use crate::scheduler::{FixedDelay, RandomDelay};
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Floods a counter value; each node remembers everything it heard.
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

    fn gossip_sim(n: usize, policy: Box<dyn DeliveryPolicy + Send>) -> Simulation<Gossip> {
        let g = Arc::new(generators::clique(n));
        let mut sim = Simulation::new(g, policy);
        for i in 0..n {
            sim.set_honest(id(i), Gossip { input: i as u64 * 10, heard: Vec::new() });
        }
        sim
    }

    #[test]
    fn delivers_every_broadcast() {
        let mut sim = gossip_sim(4, Box::new(FixedDelay::new(1)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_sent, 12);
        assert_eq!(stats.messages_delivered, 12);
        assert_eq!(stats.messages_undelivered, 0);
        for i in 0..4 {
            let p = sim.honest(id(i)).unwrap();
            assert_eq!(p.heard.len(), 3);
        }
    }

    #[test]
    fn unassigned_node_is_an_error() {
        let g = Arc::new(generators::clique(2));
        let mut sim: Simulation<Gossip> = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), Gossip { input: 0, heard: Vec::new() });
        assert_eq!(sim.run().unwrap_err(), SimError::UnassignedNode { node: 1 });
    }

    #[test]
    fn deterministic_under_random_policy() {
        let run = |seed: u64| {
            let mut sim = gossip_sim(5, Box::new(RandomDelay::new(seed, 1, 9)));
            sim.fleet.record_trace();
            sim.run().unwrap();
            sim.into_report(|_| true).trace.unwrap()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds give different schedules");
    }

    #[test]
    fn horizon_holds_back_far_future_messages() {
        let g = Arc::new(generators::clique(2));
        // `after` saturates, so both deliveries land past `FAR_FUTURE`.
        let mut sim = Simulation::new(g, Box::new(FixedDelay::new(u64::MAX)));
        sim.set_honest(id(0), Gossip { input: 1, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 2, heard: Vec::new() });
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.messages_undelivered, 2);
        assert!(sim.honest(id(0)).unwrap().heard.is_empty());
        assert!(sim.honest(id(1)).unwrap().heard.is_empty());
    }

    #[test]
    fn byzantine_silent_node_sends_nothing() {
        let mut fleet = Fleet::new(Arc::new(generators::clique(3)));
        fleet.set_honest(id(0), Gossip { input: 0, heard: Vec::new() });
        fleet.set_honest(id(1), Gossip { input: 1, heard: Vec::new() });
        fleet.set_byzantine(id(2), Box::new(Silent));
        let mut sim = Simulation::over(fleet, Box::new(FixedDelay::new(1)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_sent, 4, "two honest broadcasts of two messages");
        assert_eq!(sim.honest(id(0)).unwrap().heard.len(), 1);
    }

    #[test]
    fn event_budget_enforced() {
        /// Two nodes ping-pong forever.
        struct PingPong;
        impl Process for PingPong {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(&0);
            }
            fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
                ctx.broadcast(&(msg + 1));
            }
        }
        let g = Arc::new(generators::clique(2));
        let mut sim = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), PingPong);
        sim.set_honest(id(1), PingPong);
        sim.max_events = 100;
        assert_eq!(sim.run().unwrap_err(), SimError::EventBudgetExhausted { delivered: 100 });
        // Each delivery answers with one send, so two are always in flight;
        // the event that would have been the 101st is still queued.
        assert_eq!(sim.queue.len(), 2);
        assert!(format!("{sim:?}").contains("queued: 2"), "{sim:?}");
    }

    #[test]
    fn trace_records_deliveries_in_order() {
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(2)));
        sim.fleet.record_trace();
        sim.run().unwrap();
        let trace = sim.into_report(|_| true).trace.unwrap();
        assert_eq!(trace.deliveries.len(), 6);
        let times: Vec<u64> = trace.deliveries.iter().map(|d| d.at.ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // Each frame is the delivered value's wire encoding.
        for d in &trace.deliveries {
            assert_eq!(u64::from_bytes(&d.frame), Ok(d.from.index() as u64 * 10));
        }
    }

    #[test]
    fn stats_final_time_matches_last_delivery() {
        let mut sim = gossip_sim(2, Box::new(FixedDelay::new(7)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.final_time, VirtualTime::new(7));
        assert_eq!(sim.now(), VirtualTime::new(7));
    }

    #[test]
    fn omitted_edge_delivers_nothing() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(1)));
        sim.set_link_faults(LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Omit));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_sent, 6);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_delivered, 5);
        assert_eq!(sim.honest(id(1)).unwrap().heard.len(), 1, "only node 2's message arrives");
    }

    #[test]
    fn duplicated_edge_delivers_twice() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(1)));
        sim.set_link_faults(LinkFaultPlan::new(0).fault(
            id(0),
            id(1),
            LinkFault::Duplicate { prob: 1.0 },
        ));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_duplicated, 1);
        assert_eq!(stats.messages_delivered, 7);
        assert_eq!(sim.honest(id(1)).unwrap().heard.len(), 3);
    }

    #[test]
    fn corruption_is_counted_apart_from_drops() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(1)));
        sim.set_link_faults(
            LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Corrupt { prob: 1.0 }).fault(
                id(1),
                id(0),
                LinkFault::Drop { prob: 1.0 },
            ),
        );
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_corrupted, 1);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_delivered, 4);
    }

    #[test]
    fn zero_probability_plan_is_bit_identical_to_no_plan() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let run = |plan: Option<LinkFaultPlan>| {
            let mut sim = gossip_sim(4, Box::new(RandomDelay::new(11, 1, 9)));
            if let Some(plan) = plan {
                sim.set_link_faults(plan);
            }
            sim.fleet.record_trace();
            let stats = sim.run().unwrap();
            (stats, sim.into_report(|_| true).trace.unwrap())
        };
        let zero = LinkFaultPlan::new(99)
            .fault(id(0), id(1), LinkFault::Drop { prob: 0.0 })
            .fault(id(1), id(2), LinkFault::Duplicate { prob: 0.0 })
            .fault(id(2), id(3), LinkFault::Reorder { window: 0 });
        assert_eq!(run(None), run(Some(zero)));
    }

    #[test]
    fn reorder_shifts_arrival_times() {
        use crate::chaos::{LinkFault, LinkFaultPlan};
        let g = Arc::new(generators::clique(2));
        let mut sim = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), Gossip { input: 1, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 2, heard: Vec::new() });
        sim.set_link_faults(LinkFaultPlan::new(5).fault(
            id(0),
            id(1),
            LinkFault::Reorder { window: 40 },
        ));
        sim.fleet.record_trace();
        sim.run().unwrap();
        let late = sim
            .into_report(|_| true)
            .trace
            .unwrap()
            .deliveries
            .iter()
            .any(|d| d.from == id(0) && d.to == id(1) && d.at > VirtualTime::new(1));
        assert!(late, "a 40-tick window should displace the 0 -> 1 delivery");
    }
}
