//! Everything the runtimes share, stated once: the [`Actor`] occupying a
//! node slot, the [`Fleet`] under construction, the [`SendGate`] every
//! message of every driver passes (the crate's one call to
//! [`LinkFaultPlan::decide`]), and the wall-clock driver [`Fleet::run`] —
//! a thread-per-node loop monomorphised over the [`Wire`] that carries
//! surviving copies. The crate docs give the architecture.
//!
//! The virtual-time driver ([`Simulation`](crate::sim::Simulation)) is a
//! different algorithm — one global `(time, enqueue order)` calendar queue
//! on one thread — and stays its own loop, but it activates actors and
//! sends through the same `Actor` and `SendGate`.

use crate::chaos::{EdgeCounters, LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::process::{Adversary, Context, Process};
use crate::sim::SimStats;
use crate::stats::{MsgClass, StatsHandle, StatsRegistry};
use crate::threaded::{Incomplete, IncompleteReason, ThreadedReport};
use crate::time::VirtualTime;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dbac_graph::{Digraph, NodeId, NodeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The occupant of one node slot.
pub(crate) enum Actor<P: Process> {
    Honest(P),
    Byzantine(Box<dyn Adversary<P::Message> + Send>),
}

impl<P: Process> Actor<P> {
    #[inline]
    pub(crate) fn on_start(&mut self, ctx: &mut Context<P::Message>) {
        match self {
            Actor::Honest(p) => p.on_start(ctx),
            Actor::Byzantine(a) => a.on_start(ctx),
        }
    }

    #[inline]
    pub(crate) fn on_message(
        &mut self,
        ctx: &mut Context<P::Message>,
        from: NodeId,
        msg: P::Message,
    ) {
        match self {
            Actor::Honest(p) => p.on_message(ctx, from, msg),
            Actor::Byzantine(a) => a.on_message(ctx, from, msg),
        }
    }

    pub(crate) fn honest(&self) -> Option<&P> {
        match self {
            Actor::Honest(p) => Some(p),
            Actor::Byzantine(_) => None,
        }
    }

    pub(crate) fn into_honest(self) -> Option<P> {
        match self {
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
    pub(crate) actors: Vec<Option<Actor<P>>>,
    link_faults: Option<Arc<LinkFaultPlan>>,
    pub(crate) registry: Arc<StatsRegistry>,
}

impl<P: Process> Fleet<P> {
    /// Creates an unassigned fleet over `graph`.
    #[must_use]
    pub fn new(graph: Arc<Digraph>) -> Self {
        let n = graph.node_count();
        Fleet {
            graph,
            actors: (0..n).map(|_| None).collect(),
            link_faults: None,
            registry: observed(StatsRegistry::new(n)),
        }
    }

    /// Assigns an honest process to `v`.
    pub fn set_honest(&mut self, v: NodeId, process: P) -> &mut Self {
        self.actors[v.index()] = Some(Actor::Honest(process));
        self
    }

    /// Assigns a Byzantine adversary to `v`.
    pub fn set_byzantine(
        &mut self,
        v: NodeId,
        adversary: Box<dyn Adversary<P::Message> + Send>,
    ) -> &mut Self {
        self.actors[v.index()] = Some(Actor::Byzantine(adversary));
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
    /// one. Every writer thread of the run (the simulator's event loop,
    /// each node thread, each connection reader) registers its own shard
    /// and books transport counters per message class (via
    /// [`Process::classify`]) plus the per-node queue and done gauges.
    /// Snapshots taken from other threads while the run is live are safe
    /// and monotone.
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        self.registry = observed(registry);
        self
    }

    /// The unassigned-node check every driver starts with.
    pub(crate) fn check_assigned(&self) -> Result<(), SimError> {
        match self.actors.iter().position(Option::is_none) {
            Some(node) => Err(SimError::UnassignedNode { node }),
            None => Ok(()),
        }
    }

    /// A send gate writing a fresh shard of the run's registry: one per
    /// writer thread.
    pub(crate) fn gate(&self) -> SendGate {
        SendGate {
            plan: self.link_faults.clone(),
            edges: EdgeCounters::new(),
            stats: self.registry.register(),
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
pub(crate) struct SendGate {
    plan: Option<Arc<LinkFaultPlan>>,
    edges: EdgeCounters,
    /// The owning thread's registry shard; deliveries and the done gauge
    /// are booked here too.
    pub(crate) stats: StatsHandle,
}

impl SendGate {
    /// Admits the next message on `from -> to`: records it as sent,
    /// consults the plan under the edge's message index, and records the
    /// verdict — dropped or corrupted when no copy survives, otherwise one
    /// enqueue per surviving copy and one duplicate per extra copy. The
    /// caller moves `decision.copies` copies and nothing else.
    #[inline]
    pub(crate) fn admit(&mut self, from: NodeId, to: NodeId, class: MsgClass) -> LinkDecision {
        self.stats.record_sent(class);
        let decision = match &self.plan {
            Some(plan) => plan.decide(from, to, self.edges.next(from, to)),
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
    /// alive: a node whose senders are all gone is starved.
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
    /// already have shut down; that is not an error.
    fn emit(outlet: &mut Self::Outlet, to: NodeId, msg: M, copies: u32);
}

/// What every node thread of one run shares with the watchdog.
struct Shared<F> {
    stop: Arc<AtomicBool>,
    done_count: AtomicUsize,
    done: F,
}

/// One node of a wall-clock run: its actor, its inbox, its outlet.
struct Node<P: Process, W: Wire<P::Message>> {
    me: NodeId,
    out: NodeSet,
    actor: Actor<P>,
    inbox: Receiver<(NodeId, P::Message)>,
    outlet: W::Outlet,
    gate: SendGate,
    reported_done: bool,
}

impl<P: Process, W: Wire<P::Message>> Node<P, W> {
    /// Starts the actor, then handles arrivals until the watchdog stops
    /// the network. Nodes keep relaying after they are done, so slower
    /// nodes are never starved. Returns the honest state and whether the
    /// inbox disconnected before the stop.
    fn run<F: Fn(&P) -> bool>(mut self, shared: &Shared<F>) -> (Option<P>, bool) {
        let mut ctx = Context::new(self.me, self.out);
        self.actor.on_start(&mut ctx);
        self.after_activation(&mut ctx, shared);

        let mut starved = false;
        while !shared.stop.load(Ordering::SeqCst) {
            match self.inbox.recv_timeout(Duration::from_millis(1)) {
                Ok((from, msg)) => {
                    self.gate.stats.record_delivered(P::classify(&msg));
                    self.gate.stats.record_consumed(self.me.index());
                    let mut ctx = Context::new(self.me, self.out);
                    self.actor.on_message(&mut ctx, from, msg);
                    self.after_activation(&mut ctx, shared);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    starved = !shared.stop.load(Ordering::SeqCst);
                    break;
                }
            }
        }
        (self.actor.into_honest(), starved)
    }

    /// Sends what the activation queued, then reports completion once.
    fn after_activation<F: Fn(&P) -> bool>(
        &mut self,
        ctx: &mut Context<P::Message>,
        shared: &Shared<F>,
    ) {
        for (to, msg) in ctx.take_outbox() {
            let decision = self.gate.admit(self.me, to, P::classify(&msg));
            if decision.copies == 0 {
                continue;
            }
            if decision.extra_delay > 0 {
                std::thread::sleep(Duration::from_micros(decision.extra_delay));
            }
            W::emit(&mut self.outlet, to, msg, decision.copies);
        }
        if !self.reported_done && self.actor.honest().is_some_and(&shared.done) {
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
    /// [`SimError::Transport`] if the wire cannot be connected.
    pub fn run<W: Wire<P::Message>>(
        mut self,
        done: impl Fn(&P) -> bool + Send + Sync + 'static,
        config: W,
    ) -> Result<ThreadedReport<P>, SimError> {
        self.check_assigned()?;
        let n = self.graph.node_count();
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            stop: Arc::new(AtomicBool::new(false)),
            done_count: AtomicUsize::new(0),
            done,
        });
        let timeout = config.timeout();
        let (outlets, pumps) =
            config.connect(&self.graph, &self.registry, inboxes, &shared.stop)?;

        let mut honest_total = 0;
        let mut handles = Vec::with_capacity(n);
        for (i, (inbox, outlet)) in receivers.into_iter().zip(outlets).enumerate() {
            let me = NodeId::new(i);
            let actor = self.actors[i].take().expect("checked above");
            let honest = actor.honest().is_some();
            honest_total += usize::from(honest);
            let node: Node<P, W> = Node {
                me,
                out: self.graph.out_neighbors(me),
                actor,
                inbox,
                outlet,
                gate: self.gate(),
                reported_done: false,
            };
            let shared = Arc::clone(&shared);
            handles.push((honest, std::thread::spawn(move || node.run(&shared))));
        }

        // Watchdog: wait for completion or the deadline, then stop the
        // network — stragglers become per-node reports, never a run error.
        let deadline = Instant::now() + timeout;
        while shared.done_count.load(Ordering::SeqCst) < honest_total && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.stop.store(true, Ordering::SeqCst);

        // A missing state is a panic; an unfinished one is `Starved` or
        // `Timeout` depending on whether its inbox disconnected early.
        let mut nodes = Vec::with_capacity(n);
        let mut incomplete = Vec::new();
        for (i, (honest, handle)) in handles.into_iter().enumerate() {
            let (state, reason) = match handle.join() {
                Ok((state, true)) => (state, IncompleteReason::Starved),
                Ok((state, false)) => (state, IncompleteReason::Timeout),
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
        Ok(ThreadedReport { nodes, incomplete, stats: self.ledger(VirtualTime::ZERO) })
    }
}
