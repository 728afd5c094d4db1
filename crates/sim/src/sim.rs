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
//! * a send at `now + W` or later (an adversarial [`EdgeDelay`], the
//!   Appendix-B "delayed past the decision point") waits in an overflow
//!   heap ordered by `(at, seq)`.
//!
//! **Drain on advance.** Every time the clock moves, and before the event
//! that moved it is dispatched, every overflow event the window now covers
//! is moved into its bucket. An event is in the overflow only if it was
//! sent while its tick was still outside the window, that is, before any
//! send that reached the same tick's bucket directly; so each bucket is
//! always in enqueue order, a zero-delay send joins the tail of the bucket
//! being drained, and the delivery sequence is exactly that of a single
//! `(at, seq)` heap (the in-crate differential test holds the two
//! together).
//!
//! [`EdgeDelay`]: crate::scheduler::EdgeDelay

mod queue;

use self::queue::CalendarQueue;
use crate::chaos::LinkFaultPlan;
use crate::error::SimError;
use crate::fleet::{Actor, Fleet, SendGate};
use crate::process::{Adversary, Context, Process};
use crate::scheduler::DeliveryPolicy;
use crate::stats::StatsRegistry;
use crate::time::VirtualTime;
use crate::trace::Trace;
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
    /// simulator: held past the horizon by adversarial far-future delays).
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
/// Construction: [`Simulation::new`], then assign an actor to **every**
/// node with [`set_honest`](Simulation::set_honest) /
/// [`set_byzantine`](Simulation::set_byzantine), then [`run`](Simulation::run)
/// — or assemble a [`Fleet`] first and put it under [`Simulation::over`].
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
    max_events: u64,
    horizon: VirtualTime,
    trace: Option<Trace<P::Message>>,
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
            horizon: VirtualTime::FAR_FUTURE,
            trace: None,
        }
    }

    /// Assigns an honest process to `v`.
    pub fn set_honest(&mut self, v: NodeId, process: P) -> &mut Self {
        self.fleet.set_honest(v, process);
        self
    }

    /// Assigns a Byzantine adversary to `v`.
    pub fn set_byzantine(
        &mut self,
        v: NodeId,
        adversary: Box<dyn Adversary<P::Message> + Send>,
    ) -> &mut Self {
        self.fleet.set_byzantine(v, adversary);
        self
    }

    /// Caps the number of deliveries before the run aborts with
    /// [`SimError::EventBudgetExhausted`] (default: 10⁸).
    pub fn set_max_events(&mut self, max_events: u64) -> &mut Self {
        self.max_events = max_events;
        self
    }

    /// Stops delivering events scheduled after `horizon`; remaining events
    /// are counted in [`SimStats::messages_undelivered`]. Models "delayed
    /// past the decision point" (Appendix B).
    pub fn set_horizon(&mut self, horizon: VirtualTime) -> &mut Self {
        self.horizon = horizon;
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

    /// Enables trace recording of every delivery.
    pub fn record_trace(&mut self) -> &mut Self {
        self.trace = Some(Trace::new());
        self
    }

    /// The recorded trace, if [`record_trace`](Simulation::record_trace)
    /// was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace<P::Message>> {
        self.trace.as_ref()
    }

    /// Immutable access to the honest process at `v` (e.g. to read its
    /// output after the run). Returns `None` for Byzantine nodes.
    #[must_use]
    pub fn honest(&self, v: NodeId) -> Option<&P> {
        self.fleet.actors[v.index()].as_ref()?.honest()
    }

    /// Consumes the simulation and returns every honest node's final state
    /// (`None` for Byzantine slots), marking the registry's done gauge of
    /// each node that satisfies `done`: the event loop runs to quiescence
    /// and polls no predicate on the way, so the gauges are settled here.
    #[must_use]
    pub fn into_nodes(self, done: impl Fn(&P) -> bool) -> Vec<Option<P>> {
        let gauge = self.fleet.registry.register();
        let mut nodes = Vec::with_capacity(self.fleet.actors.len());
        for (i, slot) in self.fleet.actors.into_iter().enumerate() {
            let node = slot.and_then(Actor::into_honest);
            if node.as_ref().is_some_and(&done) {
                gauge.mark_done(i);
            }
            nodes.push(node);
        }
        nodes
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualTime {
        VirtualTime::new(self.queue.now())
    }

    /// Runs `on_start` everywhere, then delivers events in order until
    /// quiescence (or the horizon / event budget).
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor;
    /// [`SimError::EventBudgetExhausted`] if the budget runs out.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        self.fleet.check_assigned()?;
        let mut gate = self.fleet.gate();
        let graph = Arc::clone(&self.fleet.graph);
        // One send buffer serves every activation of the run.
        let mut outbox = Vec::new();
        // Start phase.
        for v in graph.nodes() {
            let mut ctx = Context::with_outbox(v, graph.out_neighbors(v), outbox);
            self.actor(v).on_start(&mut ctx);
            outbox = self.dispatch(&mut gate, v, ctx);
        }
        // Delivery loop.
        let mut gauge = None;
        while let Some(at) = self.queue.next_tick().filter(|&at| at <= self.horizon.ticks()) {
            if self.delivered >= self.max_events {
                return Err(SimError::EventBudgetExhausted { delivered: self.delivered });
            }
            // The clock gauge is written when the clock moves, not on
            // every delivery.
            if gauge != Some(at) {
                self.fleet.registry.record_virtual_time(at);
                gauge = Some(at);
            }
            let (_, ev) = self.queue.pop().expect("peeked");
            self.delivered += 1;
            gate.stats.record_delivered(P::classify(&ev.msg));
            gate.stats.record_consumed(ev.to.index());
            if let Some(trace) = self.trace.as_mut() {
                trace.record(VirtualTime::new(at), ev.from, ev.to, ev.msg.clone());
            }
            let mut ctx = Context::with_outbox(ev.to, graph.out_neighbors(ev.to), outbox);
            self.actor(ev.to).on_message(&mut ctx, ev.from, ev.msg);
            outbox = self.dispatch(&mut gate, ev.to, ctx);
        }
        Ok(self.fleet.ledger(self.now()))
    }

    fn actor(&mut self, v: NodeId) -> &mut Actor<P> {
        self.fleet.actors[v.index()].as_mut().expect("assignment checked at run start")
    }

    /// Sends what the activation queued in `ctx`; hands its buffer back,
    /// emptied, for the next activation.
    fn dispatch(
        &mut self,
        gate: &mut SendGate,
        from: NodeId,
        mut ctx: Context<P::Message>,
    ) -> Vec<(NodeId, P::Message)> {
        let mut outbox = ctx.take_outbox();
        for (to, msg) in outbox.drain(..) {
            let decision = gate.admit(from, to, P::classify(&msg));
            if decision.copies == 0 {
                // A destroyed message must not advance the delivery
                // policy's RNG stream — that keeps clean edges bit-identical
                // whether or not a plan is attached.
                continue;
            }
            // Duplicates draw their arrival before the original.
            for _ in 1..decision.copies {
                let at = self.arrival(from, to, decision.extra_delay);
                self.queue.push(at, QueuedEvent { from, to, msg: msg.clone() });
            }
            let at = self.arrival(from, to, decision.extra_delay);
            self.queue.push(at, QueuedEvent { from, to, msg });
        }
        outbox
    }

    /// One delivery-policy draw for a surviving copy, clamped to `now` and
    /// shifted by the plan's reorder delay.
    fn arrival(&mut self, from: NodeId, to: NodeId, extra: u64) -> u64 {
        let now = self.now();
        let at = self.policy.delivery_time(now, from, to).max(now);
        at.ticks().saturating_add(extra)
    }
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
    use crate::process::Silent;
    use crate::scheduler::{EdgeDelay, FixedDelay, RandomDelay};
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
            sim.record_trace();
            sim.run().unwrap();
            sim.trace().unwrap().clone()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds give different schedules");
    }

    #[test]
    fn horizon_holds_back_far_future_messages() {
        let g = Arc::new(generators::clique(2));
        let mut policy = EdgeDelay::new(Box::new(FixedDelay::new(1)));
        policy.delay_edge(id(0), id(1), VirtualTime::FAR_FUTURE.ticks());
        let mut sim = Simulation::new(g, Box::new(policy));
        sim.set_honest(id(0), Gossip { input: 1, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 2, heard: Vec::new() });
        sim.set_horizon(VirtualTime::new(1_000));
        let stats = sim.run().unwrap();
        assert_eq!(stats.messages_delivered, 1, "only 1 -> 0 arrives");
        assert_eq!(stats.messages_undelivered, 1);
        assert!(sim.honest(id(1)).unwrap().heard.is_empty());
    }

    #[test]
    fn byzantine_silent_node_sends_nothing() {
        let g = Arc::new(generators::clique(3));
        let mut sim: Simulation<Gossip> = Simulation::new(g, Box::new(FixedDelay::new(1)));
        sim.set_honest(id(0), Gossip { input: 0, heard: Vec::new() });
        sim.set_honest(id(1), Gossip { input: 1, heard: Vec::new() });
        sim.set_byzantine(id(2), Box::new(Silent));
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
        sim.set_max_events(100);
        assert_eq!(sim.run().unwrap_err(), SimError::EventBudgetExhausted { delivered: 100 });
        // Each delivery answers with one send, so two are always in flight;
        // the event that would have been the 101st is still queued.
        assert_eq!(sim.queue.len(), 2);
        assert!(format!("{sim:?}").contains("queued: 2"), "{sim:?}");
    }

    #[test]
    fn trace_records_deliveries_in_order() {
        let mut sim = gossip_sim(3, Box::new(FixedDelay::new(2)));
        sim.record_trace();
        sim.run().unwrap();
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 6);
        let times: Vec<u64> = trace.events().iter().map(|e| e.at.ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
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
            sim.record_trace();
            let stats = sim.run().unwrap();
            (stats, sim.trace().unwrap().clone())
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
        sim.record_trace();
        sim.run().unwrap();
        let late = sim
            .trace()
            .unwrap()
            .events()
            .iter()
            .any(|e| e.from == id(0) && e.to == id(1) && e.at > VirtualTime::new(1));
        assert!(late, "a 40-tick window should displace the 0 -> 1 delivery");
    }
}
