//! `Spanned`: a transparent wrapper that records how long an actor spends
//! in its handlers, without touching the actor or the runtime.
//!
//! It forwards `on_start` / `on_message` / `classify` unchanged, so outputs,
//! histories and message counts are bit-identical to an unwrapped run. It
//! counts every message exactly and times one call in `every` (at a
//! pseudo-random stride, so the sample cannot lock onto the protocol's own
//! period — an iterative node gets exactly eight messages a round). Totals
//! are handed to a shared sink when the wrapper is dropped, which every
//! runtime does before `scenario::drive` returns.

use dbac_graph::NodeId;
use dbac_sim::process::{Adversary, Context, Process};
use dbac_sim::stats::MsgClass;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Keep one `on_message` call in about this many as an individual span
/// (one timed call in `KEEP_ONE_SPAN_IN / every`).
pub const KEEP_ONE_SPAN_IN: u64 = 1024;

/// One actor's totals for one run.
#[derive(Clone, Debug)]
pub struct NodeTotals {
    /// The node.
    pub node: NodeId,
    /// Honest process (true) or Byzantine adversary (false).
    pub honest: bool,
    /// `on_message` calls — exact.
    pub msgs: u64,
    /// How many of them were timed.
    pub timed: u64,
    /// Wall time of the timed calls, nanoseconds, timer cost included.
    pub timed_ns: u64,
    /// When `on_start` began, nanoseconds since the epoch.
    pub start_at_ns: u64,
    /// Wall time of `on_start`, nanoseconds.
    pub start_ns: u64,
    /// Kept individual spans: `(start since the epoch, duration)`, ns.
    pub spans: Vec<(u64, u64)>,
}

impl NodeTotals {
    /// Time spent in handlers: the timed calls' mean, less the timer's own
    /// cost inside each interval, scaled to the exact message count, plus
    /// `on_start`.
    #[must_use]
    pub fn busy_ns(&self, timer_inside_ns: f64) -> f64 {
        let per_msg = if self.timed == 0 {
            0.0
        } else {
            (self.timed_ns as f64 / self.timed as f64 - timer_inside_ns).max(0.0)
        };
        per_msg * self.msgs as f64 + self.start_ns as f64
    }
}

/// What one wrapped actor recorded: its totals, plus what only the run's
/// own message type can describe.
#[derive(Clone, Debug)]
pub struct NodeRecord<M> {
    /// Counts and times.
    pub totals: NodeTotals,
    /// Messages received per sending node (index = sender).
    pub from_counts: Vec<u64>,
    /// Every message delivered to this node, if its inbox was recorded.
    pub inbox: Vec<M>,
}

impl<M> NodeRecord<M> {
    /// An empty record for `node` in an `n`-node network.
    #[must_use]
    pub fn empty(node: NodeId, honest: bool, n: usize) -> Self {
        let totals = NodeTotals {
            node,
            honest,
            msgs: 0,
            timed: 0,
            timed_ns: 0,
            start_at_ns: 0,
            start_ns: 0,
            spans: Vec::new(),
        };
        NodeRecord { totals, from_counts: vec![0; n], inbox: Vec::new() }
    }
}

/// Where dropped wrappers leave their records.
pub type Sink<M> = Arc<Mutex<Vec<NodeRecord<M>>>>;

/// How to wrap a fleet.
#[derive(Clone, Copy, Debug)]
pub struct SpanConfig {
    /// Time one `on_message` call in this many (1 = every call).
    pub every: u32,
    /// All spans are stamped relative to this instant.
    pub epoch: Instant,
    /// Record the inbox of this node.
    pub record_inbox_of: Option<NodeId>,
}

/// The wrapper. `T` is a [`Process`] or a boxed [`Adversary`].
pub struct Spanned<T, M> {
    inner: T,
    config: SpanConfig,
    /// Calls left until the next timed one.
    countdown: u32,
    rng: u64,
    record: NodeRecord<M>,
    record_inbox: bool,
    sink: Sink<M>,
}

impl<T, M> Spanned<T, M> {
    /// Wraps `inner`, the actor of `node` in an `n`-node network.
    pub fn new(
        inner: T,
        node: NodeId,
        honest: bool,
        n: usize,
        config: SpanConfig,
        sink: Sink<M>,
    ) -> Self {
        Spanned {
            inner,
            config,
            countdown: 1,
            rng: 0x9E37_79B9_7F4A_7C15 ^ (node.index() as u64 + 1),
            record: NodeRecord::empty(node, honest, n),
            record_inbox: config.record_inbox_of == Some(node),
            sink,
        }
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The next stride: 1 when every call is timed, otherwise uniform in
    /// `1..=2·every−1` (mean `every`) from an xorshift stream.
    fn next_stride(&mut self) -> u32 {
        if self.config.every <= 1 {
            return 1;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        1 + (self.rng % u64::from(2 * self.config.every - 1)) as u32
    }

    fn start(&mut self, call: impl FnOnce(&mut T)) {
        let t = Instant::now();
        call(&mut self.inner);
        self.record.totals.start_ns = t.elapsed().as_nanos() as u64;
        self.record.totals.start_at_ns = t.duration_since(self.config.epoch).as_nanos() as u64;
    }

    fn message(&mut self, from: NodeId, call: impl FnOnce(&mut T)) {
        self.record.totals.msgs += 1;
        self.record.from_counts[from.index()] += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            call(&mut self.inner);
            return;
        }
        self.countdown = self.next_stride();
        let t = Instant::now();
        call(&mut self.inner);
        let dt = t.elapsed().as_nanos() as u64;
        self.record.totals.timed += 1;
        self.record.totals.timed_ns += dt;
        if self.record.totals.timed % (KEEP_ONE_SPAN_IN / u64::from(self.config.every)).max(1) == 0
        {
            let start = t.duration_since(self.config.epoch).as_nanos() as u64;
            self.record.totals.spans.push((start, dt));
        }
    }
}

impl<T, M> Drop for Spanned<T, M> {
    fn drop(&mut self) {
        // A poisoned sink means another wrapper's thread panicked; the run
        // is reported as failed elsewhere, so the record is simply lost.
        if let Ok(mut sink) = self.sink.lock() {
            let empty = NodeRecord::empty(self.record.totals.node, self.record.totals.honest, 0);
            sink.push(std::mem::replace(&mut self.record, empty));
        }
    }
}

impl<P: Process> Process for Spanned<P, P::Message> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<P::Message>) {
        self.start(|p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<P::Message>, from: NodeId, msg: P::Message) {
        if self.record_inbox {
            self.record.inbox.push(msg.clone());
        }
        self.message(from, |p| p.on_message(ctx, from, msg));
    }

    fn classify(msg: &P::Message) -> MsgClass {
        P::classify(msg)
    }
}

impl<M> Adversary<M> for Spanned<Box<dyn Adversary<M> + Send>, M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.start(|a| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        self.message(from, |a| a.on_message(ctx, from, msg));
    }
}
