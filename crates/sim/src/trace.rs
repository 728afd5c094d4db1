//! Delivery traces: how a run records one, how one is kept in a file,
//! and the driver that replays them.
//!
//! A [`Trace`] is the global delivery order of one run: every delivered
//! message with its `at`, its edge and its canonical wire bytes
//! ([`WireMessage::encode`] — the same body the network runtime frames).
//! Keeping the bytes rather than a typed payload leaves the trace
//! protocol-agnostic while still letting a reader recover each message
//! with `from_bytes`.
//!
//! A fleet records when asked ([`Fleet::record_trace`]), on every driver
//! and at one place: the activation step every driver shares books each
//! arrival into its writer thread's share of the trace before the actor
//! runs. What `at` holds depends on the driver:
//!
//! * on the simulator, the virtual tick of the delivery;
//! * on the wall-clock runtimes (Threaded and Net), a run-wide arrival
//!   index, drawn from one shared counter as a node takes the message off
//!   its inbox and before it activates. Each node thread records its own
//!   arrivals; the run merges them by index once the threads have joined.
//!   A send's activation always draws a smaller index than its delivery,
//!   so the merged order is causal and [`Fleet::replay`] accepts it;
//! * in a replay, the script's own `at`.
//!
//! [`Fleet::replay`] feeds a script of deliveries to a fleet, checked
//! against what each sender sent. The impossibility experiment (Appendix
//! B) replays a *splice*: node `v`'s side consumes execution `e1`'s
//! deliveries and node `u`'s side `e2`'s, and the two outputs disagree.
//!
//! [`Trace::write_to`] and [`Trace::read_from`] keep a trace in a file,
//! one [`codec`](crate::net::codec) frame per delivery, so a schedule
//! recorded on one machine replays on another.

use crate::error::SimError;
use crate::fleet::{Fleet, Slot};
use crate::net::codec::{write_frame, FrameReader, WireError, WireMessage, WireReader};
use crate::process::Process;
use crate::time::VirtualTime;
use dbac_graph::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One delivered message: when, along which edge, and its encoded bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Where the delivery falls in the run: the virtual tick on the
    /// simulator, the run-wide arrival index on Threaded and Net (see the
    /// [module docs](self)).
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
    /// The deliveries in `at` order: the simulator's dispatch order, or on
    /// a wall-clock run the order in which nodes took them off their
    /// inboxes.
    pub deliveries: Vec<Delivery>,
}

/// Bytes of a delivery's header in its file frame: `at`, `from`, `to`.
const HEADER: usize = 16;

impl Trace {
    /// Writes the trace as one length-prefixed codec frame per delivery,
    /// in order; a frame's body is `at: u64le`, `from: u32le`,
    /// `to: u32le`, then the delivery's frame bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::OversizeFrame`] if a delivery's body exceeds
    /// [`MAX_FRAME`](crate::net::codec::MAX_FRAME); [`WireError::Io`] if
    /// `w` fails.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), WireError> {
        let mut body = Vec::new();
        for d in &self.deliveries {
            body.clear();
            body.extend_from_slice(&d.at.ticks().to_le_bytes());
            body.extend_from_slice(&(d.from.index() as u32).to_le_bytes());
            body.extend_from_slice(&(d.to.index() as u32).to_le_bytes());
            body.extend_from_slice(&d.frame);
            write_frame(w, &body)?;
        }
        Ok(())
    }

    /// Reads back a trace [`write_to`](Trace::write_to) wrote, up to the
    /// end of `r`. Total: any input yields a trace or a typed error.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the input ends inside a frame or a
    /// frame is shorter than its header; [`WireError::OversizeFrame`] on a
    /// length prefix above the cap; [`WireError::BadNodeId`] on a node
    /// index at or above the graph layer's bound; [`WireError::Io`] if `r`
    /// fails.
    pub fn read_from(r: impl Read) -> Result<Trace, WireError> {
        let mut frames = FrameReader::new(r);
        let mut deliveries = Vec::new();
        while let Some(body) = frames.read_frame(&|| false)? {
            let mut header = WireReader::new(&body);
            let at = VirtualTime::new(header.u64()?);
            let (from, to) = (header.node_id()?, header.node_id()?);
            deliveries.push(Delivery { at, from, to, frame: body[HEADER..].to_vec() });
        }
        Ok(Trace { deliveries })
    }
}

/// A message type's [`WireMessage::encode`].
type Encoder<M> = fn(&M, &mut Vec<u8>);

/// A trace being recorded: the fleet holds the run's, and each writer
/// thread of a driver fills a [`shard`](Recorder::shard) of it that the
/// driver [`absorb`](Recorder::absorb)s once the thread is done.
pub(crate) struct Recorder<M> {
    encode: Encoder<M>,
    /// The run-wide arrival counter of a wall-clock run, which draws each
    /// delivery's `at`; `None` where the driver's clock gives it.
    arrivals: Option<Arc<AtomicU64>>,
    deliveries: Vec<Delivery>,
}

impl<M: WireMessage> Recorder<M> {
    pub(crate) fn new() -> Self {
        Recorder { encode: M::encode, arrivals: None, deliveries: Vec::new() }
    }
}

impl<M> Recorder<M> {
    /// An empty recorder for one writer thread, drawing `at` from
    /// `arrivals` when given.
    pub(crate) fn shard(&self, arrivals: Option<&Arc<AtomicU64>>) -> Self {
        Recorder { encode: self.encode, arrivals: arrivals.cloned(), deliveries: Vec::new() }
    }

    /// Books one arrival of `msg` on `from -> to` as a [`Delivery`]: at
    /// the next run-wide arrival index on a wall-clock run, otherwise at
    /// the driver's clock `now`.
    #[inline]
    pub(crate) fn book(&mut self, now: VirtualTime, from: NodeId, to: NodeId, msg: &M) {
        let at = match &self.arrivals {
            Some(arrivals) => VirtualTime::new(arrivals.fetch_add(1, Ordering::SeqCst)),
            None => now,
        };
        let mut frame = Vec::new();
        (self.encode)(msg, &mut frame);
        self.deliveries.push(Delivery { at, from, to, frame });
    }

    /// Appends what `shard` recorded.
    pub(crate) fn absorb(&mut self, shard: Recorder<M>) {
        self.deliveries.extend(shard.deliveries);
    }

    /// Appends what `shards` recorded during one batched step of the
    /// simulator, in wave order: the `i`-th delivery is the next one of
    /// shard `owners[i]`, which booked one delivery per event it stepped.
    pub(crate) fn interleave<'a>(
        &mut self,
        shards: impl Iterator<Item = &'a mut Recorder<M>>,
        owners: &[u32],
    ) where
        M: 'a,
    {
        let mut shards: Vec<_> = shards.map(|shard| shard.deliveries.drain(..)).collect();
        self.deliveries.extend(
            owners
                .iter()
                .map(|&lane| shards[lane as usize].next().expect("one delivery booked per event")),
        );
    }

    /// The recorded trace, its deliveries in the order they were absorbed.
    pub(crate) fn into_trace(self) -> Trace {
        Trace { deliveries: self.deliveries }
    }
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
    /// The script as the fleet consumed it, when it was asked to
    /// [record](Fleet::record_trace).
    pub trace: Option<Trace>,
}

impl<P: Process> Fleet<P>
where
    P::Message: WireMessage,
{
    /// Starts every actor in node order, then delivers `script` in order
    /// (`at` is only recorded) through the activation step and the send
    /// gate, so a link-fault plan judges each send as on any driver. A
    /// delivery consumes an equal copy from its edge's pool of surviving
    /// sends, or is synthesized for a Byzantine sender and booked as its
    /// send.
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
        let (mut gate, graph) = (self.gate(None), Arc::clone(&self.graph));
        let mut in_flight = HashMap::<_, VecDeque<Vec<u8>>>::new();
        let (mut matched, mut synthesized) = (0, 0);
        let starts = graph.nodes().map(|v| (v, None));
        let script = script.into_iter().enumerate().map(|(index, d)| (d.to, Some((index, d))));
        for (v, delivery) in starts.chain(script) {
            let (now, arrival) = match delivery {
                None => (VirtualTime::ZERO, None),
                Some((index, d)) => {
                    let diverged = SimError::ReplayDiverged { index };
                    let msg = P::Message::from_bytes(&d.frame).map_err(|_| diverged.clone())?;
                    let copies = in_flight.entry((d.from, v)).or_default();
                    if let Some(at) = copies.iter().position(|frame| *frame == d.frame) {
                        copies.remove(at);
                        matched += 1;
                    } else if graph.has_edge(d.from, v)
                        && self.slots[d.from.index()].as_ref().is_some_and(|a| a.honest().is_none())
                    {
                        gate.stats.record_sent(P::classify(&msg));
                        gate.stats.record_enqueued(v.index());
                        synthesized += 1;
                    } else {
                        return Err(diverged);
                    }
                    (d.at, Some((d.from, msg)))
                }
            };
            let slot = self.slots[v.index()].as_mut().expect("assignment checked above");
            let out = graph.out_neighbors(v);
            slot.activate(&mut gate, v, out, now, arrival, |to, msg, decision| {
                let copies = std::iter::repeat(msg.to_bytes()).take(decision.copies as usize);
                in_flight.entry((v, to)).or_default().extend(copies);
            });
        }
        self.absorb(gate.trace);
        let trace = self.trace.map(Recorder::into_trace);
        let nodes = self.slots.into_iter().map(|a| a.and_then(Slot::into_honest)).collect();
        Ok(Replay { nodes, matched, synthesized, trace })
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

    #[test]
    fn a_receiver_outside_the_fleet_diverges_at_its_index() {
        // Node 2 is a silent Byzantine sender, so only the edge check can
        // refuse its frame toward a node the fleet does not have.
        let script = [value(0, 1, 0), value(2, dbac_graph::MAX_NODES - 1, 7)];
        let err = fleet(3, 2).replay(&script).unwrap_err();
        assert_eq!(err, SimError::ReplayDiverged { index: 1 });
    }

    #[test]
    fn a_sender_outside_the_fleet_diverges_at_its_index() {
        let script = [value(0, 1, 0), value(1, 0, 10), value(dbac_graph::MAX_NODES - 1, 0, 7)];
        let err = fleet(3, 2).replay(&script).unwrap_err();
        assert_eq!(err, SimError::ReplayDiverged { index: 2 });
    }

    #[test]
    fn a_recording_replay_records_its_script() {
        let mut script = vec![value(0, 1, 0), value(2, 0, 99), value(1, 0, 10)];
        for (i, d) in script.iter_mut().enumerate() {
            d.at = VirtualTime::new(5 * i as u64);
        }
        let mut fleet = fleet(3, 2);
        fleet.record_trace();
        let replay = fleet.replay(&script).expect("replays");
        assert_eq!(replay.trace, Some(Trace { deliveries: script }));
    }

    #[test]
    fn a_wall_clock_recording_is_causal_and_replays_in_full() {
        use crate::threaded::ThreadedConfig;
        use std::time::Duration;
        let mut recorded = fleet(4, 4);
        recorded.record_trace();
        let config =
            ThreadedConfig { timeout: Duration::from_secs(30), jitter_micros: 20, seed: 1 };
        let report = recorded.run(|p: &Gossip| p.heard.len() == 3, config).expect("runs");
        let trace = report.trace.expect("recorded");
        assert_eq!(trace.deliveries.len() as u64, report.stats.messages_delivered);
        let indices: Vec<u64> = trace.deliveries.iter().map(|d| d.at.ticks()).collect();
        assert_eq!(indices, (0..12).collect::<Vec<_>>(), "one index per arrival, in order");
        let replay = fleet(4, 4).replay(&trace.deliveries).expect("replays");
        assert_eq!((replay.matched, replay.synthesized), (12, 0));
        for (ran, replayed) in report.nodes.iter().zip(&replay.nodes) {
            assert_eq!(ran.as_ref().unwrap().heard, replayed.as_ref().unwrap().heard);
        }
    }

    /// Two deliveries at the extremes of every header field.
    fn sample() -> Trace {
        let last = dbac_graph::MAX_NODES - 1;
        let first = Delivery { at: VirtualTime::new(3), ..value(0, 1, 7) };
        let second = Delivery { at: VirtualTime::new(u64::MAX), ..delivery(last, 0, Vec::new()) };
        Trace { deliveries: vec![first, second] }
    }

    #[test]
    fn a_trace_survives_a_file_round_trip() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).expect("writes");
        assert_eq!(bytes.len(), 2 * (4 + HEADER) + 8, "one frame per delivery");
        assert_eq!(Trace::read_from(&bytes[..]), Ok(sample()));
        assert_eq!(Trace::read_from(&[][..]), Ok(Trace::default()));
    }

    #[test]
    fn a_damaged_trace_file_is_a_typed_error() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).expect("writes");
        // Every cut inside a frame is a truncation; at the one frame
        // boundary the first delivery reads back alone.
        for cut in 1..bytes.len() {
            match Trace::read_from(&bytes[..cut]) {
                Ok(trace) => assert_eq!((cut, trace.deliveries.len()), (4 + HEADER + 8, 1)),
                Err(err) => assert!(matches!(err, WireError::Truncated { .. }), "{cut}: {err}"),
            }
        }
        let short = [3, 0, 0, 0, 1, 2, 3];
        let err = Trace::read_from(&short[..]).unwrap_err();
        assert_eq!(err, WireError::Truncated { needed: 8, available: 3 });
        let oversize = u32::MAX.to_le_bytes();
        let err = Trace::read_from(&oversize[..]).unwrap_err();
        assert!(matches!(err, WireError::OversizeFrame { .. }), "{err}");
        // A sender index no `NodeId` can hold.
        let mut forged = (HEADER as u32).to_le_bytes().to_vec();
        forged.extend_from_slice(&[0; 8]);
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        forged.extend_from_slice(&[0; 4]);
        let err = Trace::read_from(&forged[..]).unwrap_err();
        assert_eq!(err, WireError::BadNodeId { raw: u32::MAX });
    }
}
