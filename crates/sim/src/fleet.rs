//! Everything the runtimes share, stated once: the [`Slot`] holding a
//! node's [`Actor`] and its one receive event, [`Slot::activate`] (the
//! crate's one place that books an arrival: into the stats and, when the
//! fleet records, into its [`Trace`](crate::trace::Trace)); the [`Fleet`]
//! under construction; the [`SendGate`] every message of every driver
//! passes (the crate's one call to [`LinkFaultPlan::decide`]); and the
//! wall-clock driver [`Fleet::run`] — a thread-per-node loop
//! monomorphised over the [`Wire`] that carries surviving copies. The
//! crate docs give the architecture.
//!
//! The virtual-time [`Simulation`](crate::sim::Simulation) (one calendar
//! queue, whose crowded ticks it steps across cores and merges back in
//! serial order) and the script replay [`Fleet::replay`] (an in-flight
//! pool per edge, matched against a recorded trace) keep their own loops,
//! but every activation of all three drivers is one `Slot::activate`;
//! they differ only in the clock they hand it and in what they do with a
//! survivor.

use crate::chaos::{LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::process::{Adversary, Context, Process};
use crate::sim::SimStats;
use crate::stats::{MsgClass, StatsHandle, StatsRegistry};
use crate::threaded::{Incomplete, IncompleteReason, ThreadedReport};
use crate::time::VirtualTime;
use crate::trace::Recorder;
use crate::WireMessage;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dbac_graph::{Digraph, NodeId, NodeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One node slot of a fleet: its actor, and how many messages the actor
/// has put on each of its out-edges.
pub(crate) struct Slot<P: Process> {
    actor: Actor<P>,
    /// Messages admitted so far per out-edge, indexed by receiver: the
    /// per-edge index `k` a link-fault plan judges (counted only under a
    /// plan). It travels with the actor, so a sender's `k` is the same
    /// whichever thread activates it.
    sent: Vec<u64>,
}

/// The occupant of one node slot.
enum Actor<P: Process> {
    Honest(P),
    Byzantine(Box<dyn Adversary<P::Message> + Send>),
}

impl<P: Process> Slot<P> {
    fn new(actor: Actor<P>) -> Self {
        Slot { actor, sent: Vec::new() }
    }

    /// The model's receive event, for every driver: books `arrival` (if
    /// any), when the gate records, as a delivery at `now`, the driver's
    /// virtual clock; runs `on_message` on it, or `on_start` when there is
    /// none, over a [`Context`] on the gate's send buffer; admits each
    /// queued send through `gate` and hands every survivor to `carry`; and
    /// only then books the arrival as delivered and consumed — so a live
    /// snapshot taken while the handler runs, or before its sends are
    /// admitted, still counts the arrival in flight.
    #[inline]
    pub(crate) fn activate(
        &mut self,
        gate: &mut SendGate<P::Message>,
        me: NodeId,
        out: NodeSet,
        now: VirtualTime,
        arrival: Option<(NodeId, P::Message)>,
        mut carry: impl FnMut(NodeId, P::Message, LinkDecision),
    ) {
        let class = arrival.as_ref().map(|(from, msg)| {
            if let Some(trace) = &mut gate.trace {
                trace.book(now, *from, me, msg);
            }
            P::classify(msg)
        });
        let mut ctx = Context::with_outbox(me, out, std::mem::take(&mut gate.outbox));
        match (&mut self.actor, arrival) {
            (Actor::Honest(p), None) => p.on_start(&mut ctx),
            (Actor::Byzantine(a), None) => a.on_start(&mut ctx),
            (Actor::Honest(p), Some((from, msg))) => p.on_message(&mut ctx, from, msg),
            (Actor::Byzantine(a), Some((from, msg))) => a.on_message(&mut ctx, from, msg),
        }
        let mut outbox = ctx.take_outbox();
        for (to, msg) in outbox.drain(..) {
            let decision = gate.admit(me, to, P::classify(&msg), &mut self.sent);
            // A destroyed send goes nowhere: on the simulator it draws no
            // arrival, which keeps clean edges bit-identical whether or not
            // a plan is attached.
            if decision.copies > 0 {
                carry(to, msg, decision);
            }
        }
        gate.outbox = outbox;
        if let Some(class) = class {
            gate.stats.record_delivered(class);
            gate.stats.record_consumed(me.index());
        }
    }

    pub(crate) fn honest(&self) -> Option<&P> {
        match &self.actor {
            Actor::Honest(p) => Some(p),
            Actor::Byzantine(_) => None,
        }
    }

    pub(crate) fn into_honest(self) -> Option<P> {
        match self.actor {
            Actor::Honest(p) => Some(p),
            Actor::Byzantine(_) => None,
        }
    }
}

/// A run under construction: assign an actor to **every** node with
/// [`set_honest`](Fleet::set_honest) / [`set_byzantine`](Fleet::set_byzantine),
/// then hand the fleet to a driver — [`Fleet::run`] for wall-clock
/// execution, [`Simulation::over`](crate::sim::Simulation::over) for
/// virtual time.
///
/// A fleet always writes a [`StatsRegistry`]: a private one unless
/// [`set_stats`](Fleet::set_stats) swaps in the caller's.
pub struct Fleet<P: Process> {
    pub(crate) graph: Arc<Digraph>,
    pub(crate) slots: Vec<Option<Slot<P>>>,
    link_faults: Option<Arc<LinkFaultPlan>>,
    pub(crate) registry: Arc<StatsRegistry>,
    /// The run's trace, once [`record_trace`](Fleet::record_trace) asked
    /// for one: each driver absorbs its writer threads' shards into it.
    pub(crate) trace: Option<Recorder<P::Message>>,
}

impl<P: Process> Fleet<P> {
    /// Creates an unassigned fleet over `graph`.
    #[must_use]
    pub fn new(graph: Arc<Digraph>) -> Self {
        let n = graph.node_count();
        Fleet {
            graph,
            slots: (0..n).map(|_| None).collect(),
            link_faults: None,
            registry: observed(StatsRegistry::new(n)),
            trace: None,
        }
    }

    /// Assigns an honest process to `v`.
    pub fn set_honest(&mut self, v: NodeId, process: P) -> &mut Self {
        self.slots[v.index()] = Some(Slot::new(Actor::Honest(process)));
        self
    }

    /// Assigns a Byzantine adversary to `v`.
    pub fn set_byzantine(
        &mut self,
        v: NodeId,
        adversary: Box<dyn Adversary<P::Message> + Send>,
    ) -> &mut Self {
        self.slots[v.index()] = Some(Slot::new(Actor::Byzantine(adversary)));
        self
    }

    /// Attaches a deterministic link-fault plan: every outgoing message is
    /// judged by [`LinkFaultPlan::decide`] under a per-edge message index
    /// before it reaches any queue, channel or codec, so the fate of the
    /// k-th message on an edge is the same under every driver.
    pub fn set_link_faults(&mut self, plan: LinkFaultPlan) -> &mut Self {
        self.link_faults = Some(Arc::new(plan));
        self
    }

    /// Makes `registry` the run's ledger in place of the fleet's private
    /// one. Every writer thread of the run (the simulator's event loop and
    /// each lane of its batched step, each node thread, each connection
    /// reader) registers its own shard and books transport counters per
    /// message class (via [`Process::classify`]) plus the per-node queue
    /// and done gauges.
    /// Snapshots taken from other threads while the run is live are safe
    /// and monotone. The registry must cover every node of the graph, or
    /// the run fails with [`SimError::RegistryTooSmall`].
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        self.registry = observed(registry);
        self
    }

    /// Records every arrival of the run, with the message's wire encoding,
    /// into a [`Trace`](crate::trace::Trace), on whichever driver runs the
    /// fleet: [`Simulation::into_report`](crate::sim::Simulation::into_report),
    /// [`Fleet::run`]'s report and [`Fleet::replay`]'s hand it back. Its
    /// `at` is the virtual tick on the simulator and the run-wide arrival
    /// index on a wall-clock run (see [`trace`](crate::trace)); a run that
    /// records nothing pays nothing per arrival.
    pub fn record_trace(&mut self) -> &mut Self
    where
        P::Message: WireMessage,
    {
        self.trace = Some(Recorder::new());
        self
    }

    /// The check every driver starts with: every node has an actor, and
    /// the registry has a gauge for every node.
    pub(crate) fn check_runnable(&self) -> Result<(), SimError> {
        if let Some(node) = self.slots.iter().position(Option::is_none) {
            return Err(SimError::UnassignedNode { node });
        }
        let (nodes, registry) = (self.slots.len(), self.registry.node_count());
        if registry < nodes {
            return Err(SimError::RegistryTooSmall { nodes, registry });
        }
        Ok(())
    }

    /// A send gate writing a fresh shard of the run's registry — and, when
    /// the fleet records, of its trace, drawing `at` from `arrivals` when
    /// given: one per writer thread.
    pub(crate) fn gate(&self, arrivals: Option<&Arc<AtomicU64>>) -> SendGate<P::Message> {
        SendGate {
            plan: self.link_faults.clone(),
            stats: self.registry.register(),
            outbox: Vec::new(),
            trace: self.trace.as_ref().map(|trace| trace.shard(arrivals)),
        }
    }

    /// Adds a writer thread's trace shard to the run's trace.
    pub(crate) fn absorb(&mut self, shard: Option<Recorder<P::Message>>) {
        if let (Some(trace), Some(shard)) = (&mut self.trace, shard) {
            trace.absorb(shard);
        }
    }

    /// The run's transport ledger as the end-of-run [`SimStats`] summary.
    pub(crate) fn ledger(&self, final_time: VirtualTime) -> SimStats {
        let total = self.registry.snapshot().total();
        SimStats {
            messages_sent: total.sent,
            messages_delivered: total.delivered,
            messages_undelivered: total.undelivered(),
            messages_dropped: total.dropped,
            messages_duplicated: total.duplicated,
            messages_corrupted: total.corrupted,
            messages_rejected: total.rejected,
            final_time,
        }
    }
}

/// Marks `registry` as fed by a runtime, so its snapshots report transport
/// counters and node gauges as measured.
fn observed(registry: Arc<StatsRegistry>) -> Arc<StatsRegistry> {
    registry.note_transport_observed();
    registry.note_nodes_observed();
    registry
}

/// The send primitive: judges one outgoing message and books its fate.
/// One per writer thread, which also books its arrivals here.
pub(crate) struct SendGate<M> {
    plan: Option<Arc<LinkFaultPlan>>,
    /// The owning thread's registry shard; deliveries, the done gauge and
    /// a replay's synthesized sends are booked here too.
    pub(crate) stats: StatsHandle,
    /// The send buffer every activation of the thread reuses, empty
    /// between activations.
    outbox: Vec<(NodeId, M)>,
    /// The thread's shard of the run's trace, when the fleet records.
    pub(crate) trace: Option<Recorder<M>>,
}

impl<M> SendGate<M> {
    /// Admits the next message on `from -> to`: records it as sent,
    /// consults the plan under the edge's message index — `sent[to]`, the
    /// sender's count for the edge, which it advances — and records the
    /// verdict: dropped or corrupted when no copy survives, otherwise one
    /// enqueue per surviving copy and one duplicate per extra copy. The
    /// caller moves `decision.copies` copies and nothing else.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        sent: &mut Vec<u64>,
    ) -> LinkDecision {
        self.stats.record_sent(class);
        let decision = match &self.plan {
            Some(plan) => judge(plan, from, to, sent),
            None => LinkDecision::CLEAN,
        };
        if decision.copies == 0 {
            if decision.corrupted {
                self.stats.record_corrupted(class);
            } else {
                self.stats.record_dropped(class);
            }
        }
        for _ in 0..decision.copies {
            self.stats.record_enqueued(to.index());
        }
        for _ in 1..decision.copies {
            self.stats.record_duplicated(class);
        }
        decision
    }
}

/// `plan`'s verdict on the next message on `from -> to`: the `sent[to]`-th,
/// which it counts. Kept out of line, so a run with no plan pays for none
/// of it in [`SendGate::admit`].
#[inline(never)]
fn judge(plan: &LinkFaultPlan, from: NodeId, to: NodeId, sent: &mut Vec<u64>) -> LinkDecision {
    if sent.len() <= to.index() {
        sent.resize(to.index() + 1, 0);
    }
    sent[to.index()] += 1;
    plan.decide(from, to, sent[to.index()] - 1)
}

/// A node's inbox sender: messages tagged with their authenticated sender.
pub type Inbox<M> = Sender<(NodeId, M)>;

/// What [`Wire::connect`] hands back: one outlet per node, plus any
/// background threads to join once the nodes have stopped.
pub type Connected<O> = (Vec<O>, Vec<JoinHandle<()>>);

/// How surviving copies travel between node threads. Implemented by the
/// two wall-clock configurations — channels with seeded jitter
/// ([`ThreadedConfig`](crate::threaded::ThreadedConfig)) and framed byte
/// streams ([`NetConfig`](crate::net::NetConfig)) — and monomorphised into
/// the node loop, so no message pays a dynamic dispatch for it.
pub trait Wire<M>: Sized + 'static {
    /// One node's sending half.
    type Outlet: Send + 'static;

    /// The watchdog deadline of the run.
    fn timeout(&self) -> Duration;

    /// Builds every node's outlet toward `inboxes` (indexed by node).
    /// Whatever still holds an inbox sender afterwards keeps that node
    /// alive: a node whose senders are all gone is starved. Both wires
    /// hand node `v`'s inbox only to its neighbours (either edge
    /// direction) — as a channel sender in the peer's outlet on Threaded,
    /// to the reader thread of the pair's connection on Net — so `v`
    /// starves once every neighbour has exited.
    ///
    /// # Errors
    ///
    /// [`SimError::Transport`] if a connection cannot be set up.
    fn connect(
        self,
        graph: &Digraph,
        registry: &StatsRegistry,
        inboxes: Vec<Inbox<M>>,
        stop: &Arc<AtomicBool>,
    ) -> Result<Connected<Self::Outlet>, SimError>;

    /// Moves `copies ≥ 1` copies of `msg` toward `to`. The receiver may
    /// already have shut down; that is not an error. An outlet may buffer
    /// what it is given, in per-edge order, until [`flush`](Wire::flush).
    fn emit(outlet: &mut Self::Outlet, to: NodeId, msg: M, copies: u32);

    /// Sends everything [`emit`](Wire::emit) has buffered. The node loop
    /// calls it after `on_start`, after each batch of inbox arrivals, and
    /// before sleeping out a link's extra delay, so no frame waits on a
    /// busy inbox or on another edge's fault.
    fn flush(outlet: &mut Self::Outlet);
}

/// The most inbox arrivals a node handles past the first before it
/// flushes its outlet: a Byzantine peer that keeps the inbox non-empty
/// holds the node's frames back by at most this many activations.
const BATCH: usize = 64;

/// The longest a node sleeps at once while it sleeps out a link's extra
/// delay: it checks the stop flag between slices, so a run stops within
/// about this long of its deadline however long the delay.
const SLEEP_SLICE: Duration = Duration::from_millis(1);

/// Sleeps for `delay`, or until `stop` is set, whichever comes first.
fn sleep_unless_stopped(delay: Duration, stop: &AtomicBool) {
    let until = Instant::now() + delay;
    while !stop.load(Ordering::SeqCst) && Instant::now() < until {
        std::thread::sleep(until.saturating_duration_since(Instant::now()).min(SLEEP_SLICE));
    }
}

/// What every node thread of one run shares with the watchdog.
struct Shared<F> {
    stop: Arc<AtomicBool>,
    done_count: AtomicUsize,
    done: F,
}

/// What a node thread hands back: its honest state, whether its inbox
/// disconnected before the stop, and its shard of the run's trace.
type NodeExit<P> = (Option<P>, bool, Option<Recorder<<P as Process>::Message>>);

/// One node of a wall-clock run: its actor, its inbox, its outlet.
struct Node<P: Process, W: Wire<P::Message>> {
    me: NodeId,
    out: NodeSet,
    slot: Slot<P>,
    inbox: Receiver<(NodeId, P::Message)>,
    outlet: W::Outlet,
    gate: SendGate<P::Message>,
    reported_done: bool,
}

impl<P: Process, W: Wire<P::Message>> Node<P, W> {
    /// Starts the actor, then handles arrivals until the watchdog stops
    /// the network: the first arrival, up to [`BATCH`] more already
    /// waiting, then one flush of the outlet. Nodes keep relaying after
    /// they are done, so slower nodes are never starved.
    fn run<F: Fn(&P) -> bool>(mut self, shared: &Shared<F>) -> NodeExit<P> {
        self.activate(None, shared);
        W::flush(&mut self.outlet);

        let mut starved = false;
        while !shared.stop.load(Ordering::SeqCst) {
            match self.inbox.recv_timeout(Duration::from_millis(1)) {
                Ok(first) => {
                    self.activate(Some(first), shared);
                    for _ in 0..BATCH {
                        let Ok(next) = self.inbox.try_recv() else { break };
                        self.activate(Some(next), shared);
                    }
                    W::flush(&mut self.outlet);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    starved = !shared.stop.load(Ordering::SeqCst);
                    break;
                }
            }
        }
        (self.slot.into_honest(), starved, self.gate.trace)
    }

    /// Runs one [`Actor::activate`] whose survivors go to the outlet — a
    /// link's extra delay is slept out first, after a flush so no earlier
    /// frame waits on it — then reports completion once.
    fn activate<F: Fn(&P) -> bool>(
        &mut self,
        arrival: Option<(NodeId, P::Message)>,
        shared: &Shared<F>,
    ) {
        let outlet = &mut self.outlet;
        let carry = |to, msg, decision: LinkDecision| {
            if decision.extra_delay > 0 {
                W::flush(outlet);
                sleep_unless_stopped(Duration::from_micros(decision.extra_delay), &shared.stop);
            }
            W::emit(outlet, to, msg, decision.copies);
        };
        self.slot.activate(&mut self.gate, self.me, self.out, VirtualTime::ZERO, arrival, carry);
        if !self.reported_done && self.slot.honest().is_some_and(&shared.done) {
            self.reported_done = true;
            shared.done_count.fetch_add(1, Ordering::SeqCst);
            self.gate.stats.mark_done(self.me.index());
        }
    }
}

impl<P> Fleet<P>
where
    P: Process + Send + 'static,
{
    /// Runs every node on its own thread, over the wire `config` selects,
    /// until each honest node satisfies `done` or the watchdog deadline
    /// expires; then stops the network and hands back a
    /// [`ThreadedReport`].
    ///
    /// Non-completion is data, not an error: a node that times out, is
    /// starved, or panics lands in [`ThreadedReport::incomplete`] while
    /// every other node's final state is still extracted.
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor;
    /// [`SimError::RegistryTooSmall`] if the stats registry has fewer
    /// nodes than the graph; [`SimError::Transport`] if the wire cannot be
    /// connected.
    pub fn run<W: Wire<P::Message>>(
        mut self,
        done: impl Fn(&P) -> bool + Send + Sync + 'static,
        config: W,
    ) -> Result<ThreadedReport<P>, SimError> {
        self.check_runnable()?;
        let n = self.graph.node_count();
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            stop: Arc::new(AtomicBool::new(false)),
            done_count: AtomicUsize::new(0),
            done,
        });
        let arrivals = Arc::new(AtomicU64::new(0));
        let timeout = config.timeout();
        let (outlets, pumps) =
            config.connect(&self.graph, &self.registry, inboxes, &shared.stop)?;

        let mut honest_total = 0;
        let mut handles = Vec::with_capacity(n);
        for (i, (inbox, outlet)) in receivers.into_iter().zip(outlets).enumerate() {
            let me = NodeId::new(i);
            let slot = self.slots[i].take().expect("checked above");
            let honest = slot.honest().is_some();
            honest_total += usize::from(honest);
            let node: Node<P, W> = Node {
                me,
                out: self.graph.out_neighbors(me),
                slot,
                inbox,
                outlet,
                gate: self.gate(Some(&arrivals)),
                reported_done: false,
            };
            let shared = Arc::clone(&shared);
            handles.push((honest, std::thread::spawn(move || node.run(&shared))));
        }

        // Watchdog: wait for completion, the deadline, or every node thread
        // to exit, then stop the network — stragglers become per-node
        // reports, never a run error.
        let deadline = Instant::now() + timeout;
        while shared.done_count.load(Ordering::SeqCst) < honest_total
            && Instant::now() < deadline
            && !handles.iter().all(|(_, handle)| handle.is_finished())
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.stop.store(true, Ordering::SeqCst);

        // A missing state is a panic; an unfinished one is `Starved` or
        // `Timeout` depending on whether its inbox disconnected early.
        let mut nodes = Vec::with_capacity(n);
        let mut incomplete = Vec::new();
        for (i, (honest, handle)) in handles.into_iter().enumerate() {
            let (state, reason) = match handle.join() {
                Ok((state, starved, shard)) => {
                    self.absorb(shard);
                    let reason =
                        if starved { IncompleteReason::Starved } else { IncompleteReason::Timeout };
                    (state, reason)
                }
                Err(_) => (None, IncompleteReason::Panicked),
            };
            if honest && !state.as_ref().is_some_and(&shared.done) {
                incomplete.push(Incomplete { node: NodeId::new(i), reason });
            }
            nodes.push(state);
        }
        // Node threads have dropped their outlets; background threads see
        // the stop flag or end-of-stream and exit.
        for pump in pumps {
            let _ = pump.join();
        }
        // Each shard is in its thread's arrival order; the run-wide indices
        // are unique, so one sort merges them.
        let trace = self.trace.take().map(|recorder| {
            let mut trace = recorder.into_trace();
            trace.deliveries.sort_unstable_by_key(|d| d.at);
            trace
        });
        Ok(ThreadedReport { nodes, incomplete, stats: self.ledger(VirtualTime::ZERO), trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FixedDelay;
    use crate::sim::Simulation;
    use crate::threaded::ThreadedConfig;
    use dbac_graph::generators;

    /// On K2, node 0 sends node 1 one message; node 1 reads the run's
    /// ledger while it handles it.
    struct Probe {
        registry: Arc<StatsRegistry>,
        sender: bool,
        /// In flight overall, and queued toward node 1, as the handler saw.
        seen: Option<(u64, u64)>,
    }

    impl Process for Probe {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if self.sender {
                ctx.send(NodeId::new(1), 7);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {
            let snapshot = self.registry.snapshot();
            let queued = snapshot.nodes.measured().expect("a fleet feeds the gauges")[1];
            self.seen = Some((snapshot.total().undelivered(), queued.queue_depth()));
        }
    }

    fn probes(registry: &Arc<StatsRegistry>) -> Fleet<Probe> {
        let mut fleet = Fleet::new(Arc::new(generators::clique(2)));
        fleet.set_stats(Arc::clone(registry));
        for v in 0..2 {
            let probe = Probe { registry: Arc::clone(registry), sender: v == 0, seen: None };
            fleet.set_honest(NodeId::new(v), probe);
        }
        fleet
    }

    #[test]
    fn a_handler_sees_its_own_arrival_still_in_flight() {
        let registry = StatsRegistry::new(2);
        let mut sim = Simulation::over(probes(&registry), Box::new(FixedDelay::new(1)));
        sim.run().expect("quiesces");
        assert_eq!(sim.honest(NodeId::new(1)).unwrap().seen, Some((1, 1)), "on Sim");
        assert_eq!(registry.snapshot().total().undelivered(), 0, "booked once the handler ran");

        let registry = StatsRegistry::new(2);
        let config = ThreadedConfig { timeout: Duration::from_secs(60), jitter_micros: 0, seed: 0 };
        let report = probes(&registry).run(|p| p.sender || p.seen.is_some(), config).unwrap();
        assert!(report.incomplete.is_empty(), "{:?}", report.incomplete);
        assert_eq!(report.nodes[1].as_ref().unwrap().seen, Some((1, 1)), "on Threaded");
        assert_eq!(registry.snapshot().total().undelivered(), 0, "booked once the handler ran");
    }
}
