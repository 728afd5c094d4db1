//! Live, contention-free statistics registry shared by all three runtimes.
//!
//! Production systems expose counters while a run is in flight, not only
//! after it lands. This module provides that plane:
//!
//! * [`StatsRegistry`] — the per-run registry. Each writer thread calls
//!   [`StatsRegistry::register`] once and receives a [`StatsHandle`]
//!   owning a private *shard* of plain `u64` cells. The hot path does a
//!   single-writer load-then-store on its own cells — never a shared
//!   atomic read-modify-write, never a lock.
//! * [`StatsHandle`] — the write side. One handle per writer thread
//!   (the simulator's event loop, each `Threaded`/`Net` node thread,
//!   each `Net` reader thread).
//! * [`StatsSnapshot`] — the read side: [`StatsRegistry::snapshot`]
//!   merges every shard by summing cells. Snapshots may be taken at any
//!   time during a live run; repeated snapshots never regress (each cell
//!   is monotone and atomics give per-location coherence), so live
//!   pollers see totals that only grow.
//!
//! Counters a runtime genuinely cannot measure are reported as a typed
//! [`Coverage::NotObservable`] marker instead of a silent zero — e.g.
//! virtual time exists only under the discrete-event simulator, while
//! wall-clock elapsed exists everywhere.
//!
//! Message counters are kept **per message class** ([`MsgClass`]): the
//! runtimes ask the [`crate::process::Process`] impl to classify each
//! payload, so a BW run can report FLOOD and COMPLETE traffic separately
//! while baseline protocols land in their own buckets.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Coarse message classification used to bucket transport counters.
///
/// Classes are protocol-level, not runtime-level: each
/// [`crate::process::Process`] impl overrides
/// [`crate::process::Process::classify`] to map its wire messages here.
/// Payloads no impl claims (test processes, undecodable frames) land in
/// [`MsgClass::Other`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// BW `FLOOD` traffic (per-round value floods over simple paths).
    Flood,
    /// BW `COMPLETE` traffic (Maximal-Consistency witness broadcasts).
    Complete,
    /// Crash-consensus protocol traffic.
    Crash,
    /// AAD04 baseline traffic.
    Aad,
    /// Iterative W-MSR traffic (per-round trimmed-mean value exchange).
    Iter,
    /// Anything else: test harness payloads, undecodable frames.
    Other,
}

/// Number of [`MsgClass`] variants (the per-shard array width).
pub const MSG_CLASS_COUNT: usize = 6;

impl MsgClass {
    /// All classes, in array-index order.
    pub const ALL: [MsgClass; MSG_CLASS_COUNT] = [
        MsgClass::Flood,
        MsgClass::Complete,
        MsgClass::Crash,
        MsgClass::Aad,
        MsgClass::Iter,
        MsgClass::Other,
    ];

    /// Dense index of this class (stable; used as the shard array offset).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MsgClass::Flood => 0,
            MsgClass::Complete => 1,
            MsgClass::Crash => 2,
            MsgClass::Aad => 3,
            MsgClass::Iter => 4,
            MsgClass::Other => 5,
        }
    }

    /// Lower-case label (stable; used in the flat key/value export).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Flood => "flood",
            MsgClass::Complete => "complete",
            MsgClass::Crash => "crash",
            MsgClass::Aad => "aad",
            MsgClass::Iter => "iter",
            MsgClass::Other => "other",
        }
    }
}

/// Transport counter kinds tracked per message class.
const KIND_COUNT: usize = 6;
const KIND_SENT: usize = 0;
const KIND_DELIVERED: usize = 1;
const KIND_DROPPED: usize = 2;
const KIND_DUPLICATED: usize = 3;
const KIND_CORRUPTED: usize = 4;
const KIND_REJECTED: usize = 5;

/// Protocol counter slots (shard scalar cells).
const PROTO_COUNT: usize = 4;
const PROTO_ROUNDS: usize = 0;
const PROTO_WITNESS: usize = 1;
const PROTO_MC: usize = 2;
const PROTO_FRA: usize = 3;

/// One writer thread's private cell block. Only the owning
/// [`StatsHandle`] writes these cells; the registry reads them with
/// relaxed loads when merging a snapshot.
struct Shard {
    /// `msg[class * KIND_COUNT + kind]`.
    msg: [AtomicU64; MSG_CLASS_COUNT * KIND_COUNT],
    /// Protocol progress counters.
    proto: [AtomicU64; PROTO_COUNT],
    /// Physical copies this writer queued toward each destination node.
    enqueued: Vec<AtomicU64>,
    /// Messages this writer's node consumed from its inbound queue.
    consumed: Vec<AtomicU64>,
    /// 0/1 gauge: this writer's node reached its done predicate.
    done: Vec<AtomicU64>,
}

impl Shard {
    fn new(n: usize) -> Shard {
        Shard {
            msg: std::array::from_fn(|_| AtomicU64::new(0)),
            proto: std::array::from_fn(|_| AtomicU64::new(0)),
            enqueued: (0..n).map(|_| AtomicU64::new(0)).collect(),
            consumed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Bumps `cell` by `by` with a plain load-then-store. The cell has a
/// single writer (the shard owner), so the read-modify-write needs no
/// atomicity — the atomic type only makes concurrent *reads* defined.
#[inline]
fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(by), Ordering::Relaxed);
}

/// The write side of the registry: one per writer thread.
///
/// All increments touch only this handle's private shard. Handles are
/// `Send` (a thread takes its handle with it) but deliberately not
/// `Clone` — cloning would create two writers for one shard and break
/// the unsynchronized-increment contract.
pub struct StatsHandle {
    shard: Arc<Shard>,
}

impl std::fmt::Debug for StatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsHandle").finish_non_exhaustive()
    }
}

impl StatsHandle {
    /// A message of `class` was handed to the transport.
    #[inline]
    pub fn record_sent(&self, class: MsgClass) {
        bump(&self.shard.msg[class.index() * KIND_COUNT + KIND_SENT], 1);
    }

    /// A message of `class` was delivered to its destination process.
    #[inline]
    pub fn record_delivered(&self, class: MsgClass) {
        bump(&self.shard.msg[class.index() * KIND_COUNT + KIND_DELIVERED], 1);
    }

    /// Link chaos dropped a message of `class`.
    #[inline]
    pub fn record_dropped(&self, class: MsgClass) {
        bump(&self.shard.msg[class.index() * KIND_COUNT + KIND_DROPPED], 1);
    }

    /// Link chaos injected one extra copy of a message of `class`.
    #[inline]
    pub fn record_duplicated(&self, class: MsgClass) {
        bump(&self.shard.msg[class.index() * KIND_COUNT + KIND_DUPLICATED], 1);
    }

    /// Link chaos corrupted (and therefore consumed) a message of `class`.
    #[inline]
    pub fn record_corrupted(&self, class: MsgClass) {
        bump(&self.shard.msg[class.index() * KIND_COUNT + KIND_CORRUPTED], 1);
    }

    /// The transport discarded an arrival of `class` (e.g. an
    /// undecodable frame on the wire).
    #[inline]
    pub fn record_rejected(&self, class: MsgClass) {
        bump(&self.shard.msg[class.index() * KIND_COUNT + KIND_REJECTED], 1);
    }

    /// A physical copy was queued toward node `to`'s inbound queue.
    #[inline]
    pub fn record_enqueued(&self, to: usize) {
        if let Some(cell) = self.shard.enqueued.get(to) {
            bump(cell, 1);
        }
    }

    /// Node `node` consumed one message from its inbound queue.
    #[inline]
    pub fn record_consumed(&self, node: usize) {
        if let Some(cell) = self.shard.consumed.get(node) {
            bump(cell, 1);
        }
    }

    /// Node `node` reached its protocol done predicate.
    #[inline]
    pub fn mark_done(&self, node: usize) {
        if let Some(cell) = self.shard.done.get(node) {
            cell.store(1, Ordering::Relaxed);
        }
    }

    /// A node advanced a round (BW Filter-and-Average fired, or an
    /// iterative/baseline protocol completed one exchange round).
    #[inline]
    pub fn record_round_fired(&self) {
        bump(&self.shard.proto[PROTO_ROUNDS], 1);
    }

    /// Adds `by` round firings at once (a protocol that reports its
    /// round count at readout instead of per firing).
    #[inline]
    pub fn add_rounds_fired(&self, by: u64) {
        bump(&self.shard.proto[PROTO_ROUNDS], by);
    }

    /// Adds `by` witness completions (FIFO-Receive-All witnesses done).
    #[inline]
    pub fn add_witness_completions(&self, by: u64) {
        bump(&self.shard.proto[PROTO_WITNESS], by);
    }

    /// A Maximal-Consistency thread fired (a `COMPLETE` broadcast).
    #[inline]
    pub fn record_mc_firing(&self) {
        bump(&self.shard.proto[PROTO_MC], 1);
    }

    /// Adds `by` FRA progress marks (fresh `(path, fingerprint)` bits).
    #[inline]
    pub fn add_fra_marks(&self, by: u64) {
        bump(&self.shard.proto[PROTO_FRA], by);
    }
}

/// Per-run statistics registry: the single source of truth for what a
/// run did, across all three runtimes.
///
/// Create one per run ([`StatsRegistry::new`]), hand a [`StatsHandle`]
/// to every writer thread ([`StatsRegistry::register`]), and read merged
/// totals at any time with [`StatsRegistry::snapshot`].
pub struct StatsRegistry {
    n: usize,
    created: Instant,
    shards: Mutex<Vec<Arc<Shard>>>,
    transport_observed: AtomicBool,
    nodes_observed: AtomicBool,
    virtual_time_observed: AtomicBool,
    virtual_time: AtomicU64,
    wall_finalized: AtomicBool,
    wall_nanos: AtomicU64,
}

impl std::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsRegistry").field("n", &self.n).finish_non_exhaustive()
    }
}

impl StatsRegistry {
    /// Creates a registry for a run over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Arc<StatsRegistry> {
        Arc::new(StatsRegistry {
            n,
            created: Instant::now(),
            shards: Mutex::new(Vec::new()),
            transport_observed: AtomicBool::new(false),
            nodes_observed: AtomicBool::new(false),
            virtual_time_observed: AtomicBool::new(false),
            virtual_time: AtomicU64::new(0),
            wall_finalized: AtomicBool::new(false),
            wall_nanos: AtomicU64::new(0),
        })
    }

    /// Number of nodes the per-node gauges cover.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Registers a new writer thread and returns its private handle.
    /// Called off the hot path (thread start-up), so the lock is fine.
    #[must_use]
    pub fn register(&self) -> StatsHandle {
        let shard = Arc::new(Shard::new(self.n));
        self.shards.lock().expect("stats registry poisoned").push(Arc::clone(&shard));
        StatsHandle { shard }
    }

    /// Declares that a runtime is feeding transport counters, so the
    /// snapshot reports them as [`Coverage::Measured`].
    pub fn note_transport_observed(&self) {
        self.transport_observed.store(true, Ordering::Release);
    }

    /// Declares that per-node queue/done gauges are being fed.
    pub fn note_nodes_observed(&self) {
        self.nodes_observed.store(true, Ordering::Release);
    }

    /// Records the simulator's virtual clock (monotone gauge; only the
    /// discrete-event runtime can observe this).
    pub fn record_virtual_time(&self, ticks: u64) {
        self.virtual_time_observed.store(true, Ordering::Release);
        self.virtual_time.store(ticks, Ordering::Release);
    }

    /// Freezes the wall-clock elapsed gauge at "now". Idempotent: the
    /// first call wins, so snapshots taken after the run keep reporting
    /// the run's duration rather than the poller's.
    pub fn finalize_wall(&self) {
        if !self.wall_finalized.swap(true, Ordering::AcqRel) {
            let nanos = u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.wall_nanos.store(nanos, Ordering::Release);
        }
    }

    /// Merges every shard into one [`StatsSnapshot`]. Safe to call at
    /// any time, from any thread, concurrently with live writers; the
    /// sums it reports never regress between calls.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let shards: Vec<Arc<Shard>> = self.shards.lock().expect("stats registry poisoned").clone();
        let mut transport = TransportSnapshot::default();
        let mut protocol = ProtocolCounters::default();
        let mut nodes = vec![NodeCounters::default(); self.n];
        for shard in &shards {
            for class in MsgClass::ALL {
                let base = class.index() * KIND_COUNT;
                let c = &mut transport.by_class[class.index()];
                c.sent += shard.msg[base + KIND_SENT].load(Ordering::Relaxed);
                c.delivered += shard.msg[base + KIND_DELIVERED].load(Ordering::Relaxed);
                c.dropped += shard.msg[base + KIND_DROPPED].load(Ordering::Relaxed);
                c.duplicated += shard.msg[base + KIND_DUPLICATED].load(Ordering::Relaxed);
                c.corrupted += shard.msg[base + KIND_CORRUPTED].load(Ordering::Relaxed);
                c.rejected += shard.msg[base + KIND_REJECTED].load(Ordering::Relaxed);
            }
            protocol.rounds_fired += shard.proto[PROTO_ROUNDS].load(Ordering::Relaxed);
            protocol.witness_completions += shard.proto[PROTO_WITNESS].load(Ordering::Relaxed);
            protocol.mc_firings += shard.proto[PROTO_MC].load(Ordering::Relaxed);
            protocol.fra_marks += shard.proto[PROTO_FRA].load(Ordering::Relaxed);
            for (v, node) in nodes.iter_mut().enumerate() {
                node.enqueued += shard.enqueued[v].load(Ordering::Relaxed);
                node.consumed += shard.consumed[v].load(Ordering::Relaxed);
                node.done |= shard.done[v].load(Ordering::Relaxed) != 0;
            }
        }
        let wall_nanos = if self.wall_finalized.load(Ordering::Acquire) {
            self.wall_nanos.load(Ordering::Acquire)
        } else {
            u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX)
        };
        StatsSnapshot {
            transport: if self.transport_observed.load(Ordering::Acquire) {
                Coverage::Measured(transport)
            } else {
                Coverage::NotObservable("no runtime fed transport counters")
            },
            protocol,
            nodes: if self.nodes_observed.load(Ordering::Acquire) {
                Coverage::Measured(nodes)
            } else {
                Coverage::NotObservable("no runtime fed per-node gauges")
            },
            virtual_time: if self.virtual_time_observed.load(Ordering::Acquire) {
                Coverage::Measured(self.virtual_time.load(Ordering::Acquire))
            } else {
                Coverage::NotObservable("virtual time exists only under the simulator")
            },
            wall_nanos: Coverage::Measured(wall_nanos),
        }
    }
}

/// Whether a runtime measured a statistic, or genuinely could not.
///
/// This replaces the old "fields a runtime cannot fill stay silently
/// zero" convention: a zero now always means *measured zero*, and an
/// unmeasurable field carries a human-readable reason instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coverage<T> {
    /// The runtime measured this value.
    Measured(T),
    /// The runtime cannot observe this quantity; the payload says why.
    NotObservable(&'static str),
}

impl<T> Coverage<T> {
    /// The measured value, if any.
    pub fn measured(&self) -> Option<&T> {
        match self {
            Coverage::Measured(v) => Some(v),
            Coverage::NotObservable(_) => None,
        }
    }

    /// Whether the value was measured.
    pub fn is_measured(&self) -> bool {
        matches!(self, Coverage::Measured(_))
    }
}

impl<T> Default for Coverage<T> {
    fn default() -> Self {
        Coverage::NotObservable("not recorded")
    }
}

/// Transport counters for one message class. All six counters have one
/// meaning on every runtime:
///
/// * `sent` — logical sends the protocol handed to the transport.
/// * `delivered` — arrivals handed to a destination process.
/// * `dropped` — copies link chaos removed.
/// * `duplicated` — *extra* copies link chaos injected.
/// * `corrupted` — copies link chaos corrupted (consumed, not delivered).
/// * `rejected` — arrivals the transport discarded (undecodable frames).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Logical sends handed to the transport.
    pub sent: u64,
    /// Arrivals handed to a destination process.
    pub delivered: u64,
    /// Copies removed by link chaos.
    pub dropped: u64,
    /// Extra copies injected by link chaos.
    pub duplicated: u64,
    /// Copies corrupted (and consumed) by link chaos.
    pub corrupted: u64,
    /// Arrivals discarded by the transport itself.
    pub rejected: u64,
}

impl ClassCounters {
    /// Copies still in flight: every physical copy
    /// (`sent + duplicated`) ends in exactly one terminal state
    /// (`delivered`, `dropped`, `corrupted`, `rejected`); the remainder
    /// is queued or on the wire. At quiescence this is the undelivered
    /// backlog; during a live run it is the in-flight count.
    #[must_use]
    pub fn undelivered(&self) -> u64 {
        (self.sent + self.duplicated)
            .saturating_sub(self.delivered + self.dropped + self.corrupted + self.rejected)
    }

    fn add(&mut self, other: &ClassCounters) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.rejected += other.rejected;
    }
}

/// Transport counters, bucketed by [`MsgClass`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// One counter block per class, indexed by [`MsgClass::index`].
    pub by_class: [ClassCounters; MSG_CLASS_COUNT],
}

impl TransportSnapshot {
    /// The counter block for one class.
    #[must_use]
    pub fn class(&self, class: MsgClass) -> &ClassCounters {
        &self.by_class[class.index()]
    }

    /// Sum over all classes.
    #[must_use]
    pub fn total(&self) -> ClassCounters {
        let mut t = ClassCounters::default();
        for c in &self.by_class {
            t.add(c);
        }
        t
    }
}

/// Protocol progress counters. These count once-per-state-element
/// events, so on fault-free runs they are schedule-independent and
/// identical across runtimes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounters {
    /// Rounds advanced across all nodes (BW Filter-and-Average firings,
    /// or baseline round completions).
    pub rounds_fired: u64,
    /// FIFO-Receive-All witnesses completed across all nodes.
    pub witness_completions: u64,
    /// Maximal-Consistency firings (`COMPLETE` broadcasts) across all
    /// nodes.
    pub mc_firings: u64,
    /// Fresh FRA `(path, fingerprint)` progress marks across all nodes.
    pub fra_marks: u64,
}

/// Per-node gauges (sampled, not exact — `enqueued` is bumped by sender
/// threads, `consumed` by the receiver, so a live read can momentarily
/// disagree by messages in flight).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Physical copies queued toward this node.
    pub enqueued: u64,
    /// Messages this node consumed from its inbound queue.
    pub consumed: u64,
    /// Whether this node reached its protocol done predicate.
    pub done: bool,
}

impl NodeCounters {
    /// Sampled inbound queue depth (enqueued minus consumed).
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.enqueued.saturating_sub(self.consumed)
    }
}

/// A merged view of a [`StatsRegistry`]: one type describes every
/// runtime. Fields a runtime cannot measure carry a typed
/// [`Coverage::NotObservable`] marker instead of a silent zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Transport counters by message class. `NotObservable` only on a
    /// registry no runtime was attached to.
    pub transport: Coverage<TransportSnapshot>,
    /// Protocol progress counters (always measured; zero when the
    /// protocol has no such notion).
    pub protocol: ProtocolCounters,
    /// Per-node queue/done gauges. `NotObservable` only on a registry
    /// no runtime was attached to.
    pub nodes: Coverage<Vec<NodeCounters>>,
    /// The simulator's virtual clock at the last delivery. Only the
    /// discrete-event runtime can observe this; `Threaded`/`Net` report
    /// it as `NotObservable` (see [`StatsSnapshot::wall_nanos`] for
    /// their clock).
    pub virtual_time: Coverage<u64>,
    /// Wall-clock elapsed for the run, in nanoseconds. Measured on
    /// every runtime (this replaces the old `final_time`-stays-zero
    /// wart on the threaded runtime).
    pub wall_nanos: Coverage<u64>,
}

impl StatsSnapshot {
    pub(crate) fn total(&self) -> ClassCounters {
        self.transport.measured().map(TransportSnapshot::total).unwrap_or_default()
    }

    /// Total logical sends (0 when transport is not observable).
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.total().sent
    }

    /// Total deliveries (0 when transport is not observable).
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.total().delivered
    }

    /// Total chaos drops (0 when transport is not observable).
    #[must_use]
    pub fn messages_dropped(&self) -> u64 {
        self.total().dropped
    }

    /// Total chaos-injected extra copies (0 when not observable).
    #[must_use]
    pub fn messages_duplicated(&self) -> u64 {
        self.total().duplicated
    }

    /// Total chaos corruptions (0 when transport is not observable).
    #[must_use]
    pub fn messages_corrupted(&self) -> u64 {
        self.total().corrupted
    }

    /// Total transport rejections (0 when transport is not observable).
    #[must_use]
    pub fn messages_rejected(&self) -> u64 {
        self.total().rejected
    }

    /// Copies still in flight / queued at snapshot time (0 when the
    /// transport is not observable). See [`ClassCounters::undelivered`].
    #[must_use]
    pub fn messages_undelivered(&self) -> u64 {
        self.total().undelivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn empty_registry_snapshot_is_unobserved() {
        let reg = StatsRegistry::new(3);
        let snap = reg.snapshot();
        assert!(!snap.transport.is_measured());
        assert!(!snap.nodes.is_measured());
        assert!(!snap.virtual_time.is_measured());
        assert!(snap.wall_nanos.is_measured(), "wall clock always exists");
        assert_eq!(snap.messages_sent(), 0);
        assert_eq!(snap.protocol, ProtocolCounters::default());
    }

    #[test]
    fn single_writer_counts_merge() {
        let reg = StatsRegistry::new(2);
        reg.note_transport_observed();
        reg.note_nodes_observed();
        let h = reg.register();
        h.record_sent(MsgClass::Flood);
        h.record_sent(MsgClass::Flood);
        h.record_sent(MsgClass::Complete);
        h.record_delivered(MsgClass::Flood);
        h.record_dropped(MsgClass::Complete);
        h.record_enqueued(1);
        h.record_consumed(1);
        h.record_enqueued(1);
        h.mark_done(0);
        h.record_round_fired();
        h.add_fra_marks(3);
        let snap = reg.snapshot();
        let t = snap.transport.measured().expect("observed");
        assert_eq!(t.class(MsgClass::Flood).sent, 2);
        assert_eq!(t.class(MsgClass::Complete).sent, 1);
        assert_eq!(snap.messages_sent(), 3);
        assert_eq!(snap.messages_delivered(), 1);
        assert_eq!(snap.messages_dropped(), 1);
        assert_eq!(snap.messages_undelivered(), 1);
        assert_eq!(snap.protocol.rounds_fired, 1);
        assert_eq!(snap.protocol.fra_marks, 3);
        let nodes = snap.nodes.measured().expect("observed");
        assert!(nodes[0].done && !nodes[1].done);
        assert_eq!(nodes[1].queue_depth(), 1);
    }

    #[test]
    fn shards_merge_across_threads_and_reads_never_regress() {
        let reg = StatsRegistry::new(1);
        reg.note_transport_observed();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let h = reg.register();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        h.record_sent(MsgClass::Other);
                    }
                })
            })
            .collect();
        let reader = {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last = 0u64;
                let mut polls = 0u64;
                // Poll once more after seeing `stop`: the writers may all
                // finish before this thread is first scheduled.
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    let now = reg.snapshot().messages_sent();
                    assert!(now >= last, "live totals regressed: {last} -> {now}");
                    last = now;
                    polls += 1;
                    if stopping {
                        break polls;
                    }
                }
            })
        };
        for w in writers {
            w.join().expect("writer");
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().expect("reader") > 0);
        assert_eq!(reg.snapshot().messages_sent(), 40_000);
    }

    #[test]
    fn finalize_wall_freezes_elapsed() {
        let reg = StatsRegistry::new(1);
        reg.finalize_wall();
        let a = *reg.snapshot().wall_nanos.measured().expect("measured");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = *reg.snapshot().wall_nanos.measured().expect("measured");
        assert_eq!(a, b, "first finalize wins");
    }
}
