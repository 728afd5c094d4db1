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
//!
//! # Crowded ticks on every core
//!
//! Algorithm BW floods one message per redundant path, so most of its
//! deliveries share a tick with a thousand others. On a host with more
//! than one core, a tick whose bucket holds at least 1,024 events (a
//! private constant, not a knob) is stepped in *batches* — its first
//! events, at most 4,096, again and again while it stays that crowded —
//! instead of an event at a time:
//!
//! 1. the batch is popped and its events dealt out by receiver, node `v`
//!    to lane `v mod width` (a few lanes per thread), each lane keeping
//!    its events in batch order;
//! 2. the caller's thread and the helper threads (kept for the run) claim
//!    lanes, busiest first, and activate each lane's receivers through the
//!    lane's own send gate (a stats shard, an outbox and a trace shard),
//!    buffering each survivor in send order;
//! 3. the caller then walks the batch in order and, per event, carries
//!    its survivors into the queue, each drawing its delay, and appends
//!    its trace entry.
//!
//! This is the serial order, not an approximation of it. Within one tick
//! receivers share no state: an activation reads and writes only its own
//! receiver's actor and that sender's per-edge message counts (which
//! travel with the actor, so a link-fault plan sees the same `k` on any
//! thread), and one thread activates each lane's events in batch order,
//! so every actor consumes exactly the sequence the serial loop would
//! hand it, whichever thread claimed its lane. The serial loop draws
//! delays and pushes sends event by event, each event's sends in send
//! order; step 3 replays exactly that sequence, so the delivery policy
//! draws the same delays and the queue receives the same pushes. Carrying
//! a batch's sends before the next batch's activations changes nothing,
//! since no activation reads the queue; a send back into the tick lands
//! at its tail in either loop. Stats shards only add up. Hence a run is
//! the same pure function of its seed whatever the core count and
//! whichever thread steps which lane, with no order key and no re-pinned
//! digest; a batch that the event budget cannot cover goes through the
//! serial loop, so the budget runs out on the same event. Inside a
//! [`par_map`](dbac_graph::par::par_map) worker, whose caller already
//! occupies every core, and on one core, every tick is stepped serially.

mod queue;

use self::queue::CalendarQueue;
use crate::chaos::{LinkDecision, LinkFaultPlan};
use crate::error::SimError;
use crate::fleet::{Fleet, SendGate, Slot};
use crate::process::Process;
use crate::scheduler::DeliveryPolicy;
use crate::stats::StatsRegistry;
use crate::threaded::ThreadedReport;
use crate::time::VirtualTime;
use crate::trace::Recorder;
use dbac_graph::{par, Digraph, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::Scope;

/// The fewest events a tick's bucket must hold to be stepped as one batch
/// across cores: below it, spawning a thread costs more than it saves.
const CROWDED: usize = 1024;

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
/// configuration, however many cores step its crowded ticks.
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
    /// event loop writes one shard of it and each lane of a batched step
    /// its own, and the [`SimStats`] that [`run`](Simulation::run) returns
    /// are its totals.
    pub fn set_stats(&mut self, registry: Arc<StatsRegistry>) -> &mut Self {
        self.fleet.set_stats(registry);
        self
    }

    /// Immutable access to the honest process at `v` (e.g. to read its
    /// output after the run). Returns `None` for Byzantine nodes.
    #[must_use]
    pub fn honest(&self, v: NodeId) -> Option<&P> {
        self.fleet.slots[v.index()].as_ref()?.honest()
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
        let mut nodes = Vec::with_capacity(self.fleet.slots.len());
        for (i, slot) in self.fleet.slots.into_iter().enumerate() {
            let node = slot.and_then(Slot::into_honest);
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
    /// counted in [`SimStats::messages_undelivered`]. On a host with more
    /// than one core (and outside a [`par_map`](dbac_graph::par::par_map)
    /// worker), crowded ticks are stepped across the cores, with the same
    /// result as one thread (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`SimError::UnassignedNode`] if a node has no actor;
    /// [`SimError::RegistryTooSmall`] if the stats registry has fewer
    /// nodes than the graph; [`SimError::EventBudgetExhausted`] if the
    /// budget runs out.
    pub fn run(&mut self) -> Result<SimStats, SimError>
    where
        P: Send,
    {
        let threads = par::fan_out().min(self.fleet.graph.node_count());
        self.run_with(CROWDED, threads)
    }

    /// [`run`](Self::run) with the batched step fixed: a tick of at least
    /// `crowded` events is stepped on `threads` threads when `threads > 1`,
    /// in batches of at most `4 × crowded`.
    pub(crate) fn run_with(&mut self, crowded: usize, threads: usize) -> Result<SimStats, SimError>
    where
        P: Send,
    {
        self.fleet.check_runnable()?;
        let mut gate = self.fleet.gate(None);
        let graph = Arc::clone(&self.fleet.graph);
        // Start phase, in node order.
        for v in graph.nodes() {
            let slot = self.fleet.slots[v.index()].as_mut().expect("assignment checked above");
            let (queue, policy) = (&mut self.queue, self.policy.as_mut());
            let out = graph.out_neighbors(v);
            slot.activate(&mut gate, v, out, VirtualTime::ZERO, None, |to, msg, decision| {
                carry(queue, policy, v, to, msg, decision);
            });
        }
        let delivered = if threads > 1 {
            std::thread::scope(|scope| {
                self.deliver(&mut gate, Some(Batch::new(scope, graph, threads, crowded)))
            })
        } else {
            self.deliver(&mut gate, None)
        };
        // The trace is kept even when the budget ran out: an aborted run's
        // schedule is the one a repro file wants.
        self.fleet.absorb(gate.trace);
        delivered?;
        Ok(self.fleet.ledger(self.now()))
    }

    /// The delivery loop: pops events in order until quiescence, stepping
    /// crowded ticks through `batch` when there is one.
    fn deliver<'scope>(
        &mut self,
        gate: &mut SendGate<P::Message>,
        mut batch: Option<Batch<'scope, '_, P>>,
    ) -> Result<(), SimError>
    where
        P: Send + 'scope,
    {
        let Simulation { fleet, policy, queue, delivered, max_events } = self;
        let graph = Arc::clone(&fleet.graph);
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
                // A crowded tick is stepped a batch at a time; what is
                // left of it goes through the serial loop.
                if let Some(batch) = &mut batch {
                    let budget = *max_events - *delivered;
                    let stepped = batch.batches(at, budget, fleet, gate, queue, policy.as_mut());
                    if stepped > 0 {
                        *delivered += stepped;
                        continue;
                    }
                }
            }
            let (_, QueuedEvent { from, to: v, msg }) = queue.pop().expect("peeked");
            *delivered += 1;
            let slot = fleet.slots[v.index()].as_mut().expect("assignment checked above");
            let (out, now, arrival) =
                (graph.out_neighbors(v), VirtualTime::new(at), Some((from, msg)));
            slot.activate(gate, v, out, now, arrival, |to, msg, decision| {
                carry(queue, policy.as_mut(), v, to, msg, decision);
            });
        }
        Ok(())
    }
}

/// Lanes per thread of the batched step: more lanes than threads let a
/// thread that finishes early take another lane, so a slow receiver or a
/// busy core holds the batch up less.
const LANES_PER_THREAD: usize = 4;

/// The batched step: its lanes, and the helper threads that step them
/// with the caller's, spawned at the first crowded tick and kept, with
/// every buffer, for the rest of the run.
struct Batch<'scope, 'env, P: Process> {
    scope: &'scope Scope<'scope, 'env>,
    graph: Arc<Digraph>,
    /// The fewest events a tick must hold to be stepped in batches.
    crowded: usize,
    /// Threads that step a batch, the caller's included.
    threads: usize,
    /// Lanes: a few per thread, at most one per node.
    width: usize,
    /// Per node `v`, its lane `v mod width` and its index `v / width` in
    /// that lane's slots.
    seats: Vec<(u32, u32)>,
    /// Every lane in lane order, while no batch is being stepped; empty
    /// until the first crowded tick.
    lanes: Vec<Lane<P>>,
    /// The lanes of the batch being stepped that no thread has claimed
    /// yet, the busiest last, with the batch's clock.
    pool: Arc<Pool<P>>,
    /// One wake-up per helper per batch.
    wake: Vec<Sender<()>>,
    /// Where the helpers hand back each lane they stepped, or the panic
    /// of one they could not.
    done: (Sender<Stepped<P>>, Receiver<Stepped<P>>),
    /// The lane of each event of the batch being stepped, in batch order.
    owners: Vec<u32>,
}

/// The lanes no thread has claimed yet, with their batch's clock.
type Pool<P> = Mutex<(VirtualTime, Vec<Lane<P>>)>;

/// A lane a helper stepped, or the panic of its step.
type Stepped<P> = std::thread::Result<Lane<P>>;

/// One lane of a batch: the receivers whose seat is in it — their slots,
/// taken out of the fleet for the batch, and their events — and its own
/// send gate (a stats shard, an outbox and a trace shard).
struct Lane<P: Process> {
    index: usize,
    gate: SendGate<P::Message>,
    slots: Vec<Slot<P>>,
    /// The lane's events in batch order, each with its receiver's index in
    /// `slots`.
    events: Vec<(u32, QueuedEvent<P::Message>)>,
    /// How many survivors each event's activation sent, in batch order.
    sent: Vec<u32>,
    /// Every survivor, as the copy to queue and its link decision, in
    /// send order.
    sends: Vec<(QueuedEvent<P::Message>, LinkDecision)>,
}

impl<'scope, 'env, P: Process + Send + 'scope> Batch<'scope, 'env, P> {
    fn new(
        scope: &'scope Scope<'scope, 'env>,
        graph: Arc<Digraph>,
        threads: usize,
        crowded: usize,
    ) -> Self {
        let width = (threads * LANES_PER_THREAD).min(graph.node_count());
        let seat = |v: usize| ((v % width) as u32, (v / width) as u32);
        let seats = (0..graph.node_count()).map(seat).collect();
        Batch {
            scope,
            graph,
            crowded,
            threads,
            width,
            seats,
            lanes: Vec::new(),
            pool: Arc::new(Mutex::new((VirtualTime::ZERO, Vec::new()))),
            wake: Vec::new(),
            done: mpsc::channel(),
            owners: Vec::new(),
        }
    }

    /// Steps tick `at` a batch at a time — its first events, at most four
    /// times the crowded threshold, so the lanes' buffers stay bounded
    /// whatever the tick's size — while it stays crowded and `budget` more
    /// deliveries cover the next batch; returns how many events it
    /// delivered.
    fn batches(
        &mut self,
        at: u64,
        mut budget: u64,
        fleet: &mut Fleet<P>,
        gate: &mut SendGate<P::Message>,
        queue: &mut CalendarQueue<QueuedEvent<P::Message>>,
        policy: &mut dyn DeliveryPolicy,
    ) -> u64 {
        let mut stepped = 0;
        while queue.next_tick() == Some(at) {
            let len = queue.tick_len(at);
            let batch = len.min(self.crowded.saturating_mul(4)) as u64;
            if len < self.crowded || batch > budget {
                break;
            }
            self.step(at, batch, fleet, gate.trace.as_mut(), queue, policy);
            (stepped, budget) = (stepped + batch, budget - batch);
        }
        stepped
    }

    /// Delivers the next `count` events of tick `at`, one batch: the
    /// events are dealt out to the lanes by receiver, the threads claim
    /// lanes, busiest first, and activate each lane's receivers in batch
    /// order, and then the caller carries the survivors — each drawing its
    /// delay — and appends the lanes' trace shards, both in batch order:
    /// exactly what the serial loop would have done.
    fn step(
        &mut self,
        at: u64,
        count: u64,
        fleet: &mut Fleet<P>,
        trace: Option<&mut Recorder<P::Message>>,
        queue: &mut CalendarQueue<QueuedEvent<P::Message>>,
        policy: &mut dyn DeliveryPolicy,
    ) {
        if self.lanes.is_empty() {
            self.spawn(fleet);
        }
        let Batch { width, seats, lanes, owners, .. } = self;
        let width = *width;
        for _ in 0..count {
            let (_, event) = queue.pop().expect("counted");
            let (lane, index) = seats[event.to.index()];
            lanes[lane as usize].events.push((index, event));
            owners.push(lane);
        }
        for (&(lane, _), slot) in seats.iter().zip(&mut fleet.slots) {
            lanes[lane as usize].slots.push(slot.take().expect("assignment checked above"));
        }
        {
            let mut pool = self.pool.lock().expect("no thread panics holding the pool");
            pool.0 = VirtualTime::new(at);
            pool.1.append(lanes);
            pool.1.sort_unstable_by_key(|lane| lane.events.len());
        }
        for wake in &self.wake {
            wake.send(()).expect("a helper lives as long as its batch");
        }
        while let Some((now, mut lane)) = claim(&self.pool) {
            lane.activate_on(&self.graph, now);
            self.lanes.push(lane);
        }
        while self.lanes.len() < width {
            match self.done.1.recv().expect("the batch holds a sender") {
                Ok(lane) => self.lanes.push(lane),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        let Batch { lanes, owners, .. } = self;
        lanes.sort_unstable_by_key(|lane| lane.index);
        for lane in lanes.iter_mut() {
            for (i, slot) in lane.slots.drain(..).enumerate() {
                fleet.slots[i * width + lane.index] = Some(slot);
            }
        }
        let mut drains: Vec<_> =
            lanes.iter_mut().map(|lane| (lane.sent.drain(..), lane.sends.drain(..))).collect();
        for &lane in &*owners {
            let (sent, sends) = &mut drains[lane as usize];
            let count = sent.next().expect("one count per event");
            for (QueuedEvent { from, to, msg }, decision) in sends.by_ref().take(count as usize) {
                carry(queue, policy, from, to, msg, decision);
            }
        }
        drop(drains);
        if let Some(trace) = trace {
            trace.interleave(lanes.iter_mut().filter_map(|lane| lane.gate.trace.as_mut()), owners);
        }
        owners.clear();
    }

    /// Makes the lanes and spawns the helpers: each, once woken, steps
    /// every lane it can claim and hands it back, until the batch is
    /// dropped.
    fn spawn(&mut self, fleet: &Fleet<P>) {
        self.lanes = (0..self.width)
            .map(|index| Lane {
                index,
                gate: fleet.gate(None),
                slots: Vec::new(),
                events: Vec::new(),
                sent: Vec::new(),
                sends: Vec::new(),
            })
            .collect();
        for _ in 1..self.threads {
            let (wake, woken) = mpsc::channel();
            let (graph, pool, done) =
                (Arc::clone(&self.graph), Arc::clone(&self.pool), self.done.0.clone());
            self.scope.spawn(move || {
                for () in woken {
                    while let Some((now, mut lane)) = claim(&pool) {
                        let stepped = catch_unwind(AssertUnwindSafe(|| {
                            lane.activate_on(&graph, now);
                        }));
                        if done.send(stepped.map(|()| lane)).is_err() {
                            return;
                        }
                    }
                }
            });
            self.wake.push(wake);
        }
    }
}

/// Takes the busiest unclaimed lane of the batch being stepped, with the
/// batch's clock.
fn claim<P: Process>(pool: &Pool<P>) -> Option<(VirtualTime, Lane<P>)> {
    let mut pool = pool.lock().expect("no thread panics holding the pool");
    let lane = pool.1.pop()?;
    Some((pool.0, lane))
}

impl<P: Process> Lane<P> {
    /// Activates the lane's receivers on its events, in batch order.
    fn activate_on(&mut self, graph: &Digraph, now: VirtualTime) {
        let Lane { gate, slots, events, sent, sends, .. } = self;
        for (index, QueuedEvent { from, to: v, msg }) in events.drain(..) {
            let before = sends.len();
            let out = graph.out_neighbors(v);
            slots[index as usize].activate(
                gate,
                v,
                out,
                now,
                Some((from, msg)),
                |to, msg, decision| {
                    sends.push((QueuedEvent { from: v, to, msg }, decision));
                },
            );
            sent.push((sends.len() - before) as u32);
        }
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
    use crate::chaos::LinkFault;
    use crate::net::codec::WireMessage;
    use crate::process::{Adversary, Context, Silent};
    use crate::scheduler::{FixedDelay, RandomDelay};
    use crate::stats::{Coverage, StatsSnapshot};
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

    /// Relays a hop counter, stamped with how many arrivals the relay had
    /// heard: what a node sends depends on the order it heard in.
    struct Relay {
        hops: u64,
        heard: Vec<(NodeId, u64)>,
    }

    impl Process for Relay {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(&0);
        }
        fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, msg: u64) {
            self.heard.push((from, msg));
            let hop = msg >> 32;
            if hop < self.hops {
                ctx.broadcast(&((hop + 1) << 32 | self.heard.len() as u64));
            }
        }
    }

    /// Sends each out-neighbour its own value, at start and in answer to
    /// early hops.
    struct Twister;

    impl Adversary<u64> for Twister {
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            for w in ctx.out_neighbors().iter() {
                ctx.send(w, w.index() as u64);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
            if msg >> 32 < 2 {
                for w in ctx.out_neighbors().iter() {
                    ctx.send(w, msg + 1 + w.index() as u64);
                }
            }
        }
    }

    /// Relays on K5 (three hops: 1,700 deliveries when all are honest),
    /// node 4 a [`Twister`] when `byzantine`.
    fn relay_sim(byzantine: bool, policy: Box<dyn DeliveryPolicy + Send>) -> Simulation<Relay> {
        let mut fleet = Fleet::new(Arc::new(generators::clique(5)));
        for v in 0..5 {
            fleet.set_honest(id(v), Relay { hops: 3, heard: Vec::new() });
        }
        if byzantine {
            fleet.set_byzantine(id(4), Box::new(Twister));
        }
        Simulation::over(fleet, policy)
    }

    /// Everything a run leaves that the batched step must not move: its
    /// result, the events still queued, each honest node's arrivals in
    /// order, the transport ledger, the per-node gauges and the trace.
    type Observed = (
        Result<SimStats, SimError>,
        usize,
        Vec<Option<Vec<(NodeId, u64)>>>,
        StatsSnapshot,
        Option<crate::trace::Trace>,
    );

    /// Runs `sim`, recording, with ticks of at least `crowded` events
    /// stepped over `lanes` threads.
    fn observe<P>(
        mut sim: Simulation<P>,
        (crowded, lanes): (usize, usize),
        heard: fn(P) -> Vec<(NodeId, u64)>,
    ) -> Observed
    where
        P: Process<Message = u64> + Send,
    {
        sim.fleet.record_trace();
        let result = sim.run_with(crowded, lanes);
        let queued = sim.queue.len();
        let mut snapshot = sim.fleet.registry.snapshot();
        snapshot.wall_nanos = Coverage::NotObservable("a wall clock differs from run to run");
        let report = sim.into_report(|_| true);
        let nodes = report.nodes.into_iter().map(|p| p.map(heard)).collect();
        (result, queued, nodes, snapshot, report.trace)
    }

    /// One thread, no batch: the reference.
    const SERIAL: (usize, usize) = (usize::MAX, 1);
    /// Every tick batched (in batches of at most four events), over two,
    /// three and five lanes; and only ticks of 16 or more.
    const BATCHED: [(usize, usize); 4] = [(1, 2), (1, 3), (1, 5), (16, 2)];

    #[test]
    fn batched_steps_match_the_serial_loop() {
        let policies: [fn() -> Box<dyn DeliveryPolicy + Send>; 4] = [
            || Box::new(FixedDelay::new(1)),
            // Every send lands in the tick being delivered, behind the
            // batches still to come.
            || Box::new(FixedDelay::new(0)),
            || Box::new(RandomDelay::new(6, 0, 1)),
            || Box::new(RandomDelay::new(11, 1, 9)),
        ];
        let plan = || {
            LinkFaultPlan::new(3)
                .fault(id(0), id(1), LinkFault::Duplicate { prob: 0.5 })
                .fault(id(1), id(2), LinkFault::Reorder { window: 5 })
                .fault(id(2), id(3), LinkFault::Drop { prob: 0.3 })
                .fault(id(3), id(0), LinkFault::Corrupt { prob: 0.3 })
                .fault(id(4), id(2), LinkFault::Duplicate { prob: 0.5 })
        };
        let relay_heard = |p: Relay| p.heard;
        let gossip_heard = |p: Gossip| p.heard;
        for policy in policies {
            let serial = observe(gossip_sim(6, policy()), SERIAL, gossip_heard);
            for batched in BATCHED {
                let label = format!("gossip {batched:?}");
                assert_eq!(
                    observe(gossip_sim(6, policy()), batched, gossip_heard),
                    serial,
                    "{label}"
                );
            }
            for (byzantine, chaos) in [(false, false), (true, false), (false, true), (true, true)] {
                let sim = || {
                    let mut sim = relay_sim(byzantine, policy());
                    if chaos {
                        sim.set_link_faults(plan());
                    }
                    sim
                };
                let serial = observe(sim(), SERIAL, relay_heard);
                let delivered = serial.0.as_ref().expect("quiesces").messages_delivered;
                assert!(delivered > 1_000, "{delivered} deliveries");
                for batched in BATCHED {
                    let label = format!("byzantine {byzantine}, chaos {chaos}, {batched:?}");
                    assert_eq!(observe(sim(), batched, relay_heard), serial, "{label}");
                }
            }
        }
    }

    #[test]
    fn a_budget_that_runs_out_mid_tick_stops_where_the_serial_loop_does() {
        for max_events in [1, 19, 21, 250, 1_000] {
            let sim = || {
                let mut sim = relay_sim(true, Box::new(FixedDelay::new(0)));
                sim.max_events = max_events;
                sim
            };
            let serial = observe(sim(), SERIAL, |p| p.heard);
            assert_eq!(serial.0, Err(SimError::EventBudgetExhausted { delivered: max_events }));
            let trace = serial.4.as_ref().expect("recorded");
            assert_eq!(
                trace.deliveries.len() as u64,
                max_events,
                "the aborted run keeps its trace"
            );
            for batched in BATCHED {
                assert_eq!(
                    observe(sim(), batched, |p| p.heard),
                    serial,
                    "{max_events} {batched:?}"
                );
            }
        }
    }

    #[test]
    fn a_handler_panic_in_a_batch_reaches_the_caller() {
        /// Panics on its third arrival.
        struct Fragile(u32);
        impl Process for Fragile {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(&0);
            }
            fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
                self.0 += 1;
                assert!(self.0 < 3, "fragile");
                ctx.broadcast(&(msg + 1));
            }
        }
        for threads in [2, 3] {
            let mut sim =
                Simulation::new(Arc::new(generators::clique(5)), Box::new(FixedDelay::new(1)));
            for v in 0..5 {
                sim.set_honest(id(v), Fragile(0));
            }
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run_with(1, threads)));
            assert!(run.is_err(), "{threads} threads");
        }
    }
}
