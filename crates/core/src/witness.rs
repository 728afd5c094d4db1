//! Algorithm 1 (**Byzantine Witness**) and Algorithm 2 (**Completeness**):
//! the per-round, per-node state machine, batched over the columnar
//! [`MessageSet`].
//!
//! Each node runs one *thread* per fault-set guess `F_v ⊆ V ∖ {v}`,
//! `|F_v| ≤ f` (Algorithm 1 line 5). A thread progresses through:
//!
//! 1. **Maximal-Consistency** (line 10): `M_v|_F̄v` is consistent and full
//!    — then the node FIFO-floods `(M_v|_F̄v, COMPLETE(F_v))`. Detection
//!    continues even after the round has fired: other nodes' liveness
//!    depends on these witnesses.
//! 2. **FIFO-Receive-All** (line 12): for every `c ∈ reach_v(F̄v)`, the
//!    same `(M_c, COMPLETE(F_v))` arrived over *all* simple `(c,v)`-paths
//!    inside the reach set.
//! 3. **Verify** (line 20): every consistent `COMPLETE(F_u)` received over
//!    a path inside the reach set passes `Completeness(M_v, M_c, F_u)` —
//!    each value of each source component `S_{F_u,F_w}` was confirmed over
//!    a path set with no `f`-cover avoiding the component.
//!
//! The first thread to pass Verify runs Filter-and-Average; the shared
//! `nextround` flag (here [`RoundCore::fired`]) ensures it happens once.
//!
//! # Mask-scan design
//!
//! Per-guess progress is *computed from the columns*, not tracked in
//! per-path hash maps. [`NodePlan`] precomputes, once per node:
//!
//! * **Avoiding masks** — per guess, the word bitmap
//!   `terminal_words(me) ∧ ¬excluded(F_v)` over the node's contiguous
//!   terminal-major id block (`PathIndex::terminal_word_range`): exactly
//!   the flood pool the guess requires. Ingest probes one bit of it per
//!   guess (replacing a `NodeSet` disjointness test plus hash-map update),
//!   and a per-thread countdown of its popcount detects pool completion.
//! * **Per-init value-column slices** — `init_words(q)` restricted to the
//!   same word range. When a pool completes, consistency of `M_v|_F̄v` is
//!   decided by masked scans: AND the presence column against
//!   `avoid ∧ init_slice(q)` and compare the value column at the surviving
//!   bits ([`NodePlan::mc_status`] is the public all-initiator form — the
//!   `mc_scan` bench kernel). Inside [`RoundCore`] the scan is narrowed
//!   further by a round-global census (first value bits per initiator plus
//!   a `dirty` set of equivocators, one array compare per arrival): at
//!   pool completion only the *dirty* initiators' slices are walked — none
//!   at all in an honest round. The `COMPLETE` payload is one value per
//!   pool initiator (precomputed per guess): a clean initiator's value is
//!   the census's, a dirty one's comes from its slice scan — O(n) per
//!   firing, with no walk of the pool.
//! * **FRA slot masks** — the simple paths ending at `me` get a dense
//!   *slot* renumbering; per `(guess, witness c)` the plan holds the slot
//!   bitmap of the simple `(c, me)`-paths inside `reach_me(F̄v)`.
//!   FIFO-Receive-All progress for one payload fingerprint is a slot
//!   bitmap (test-and-set dedup, replacing a `HashSet<(PathId, u64)>`)
//!   plus a countdown of the mask popcount (replacing a fingerprint-count
//!   hash map).
//!
//! The Completeness path sets of Algorithm 2 (`M'`, consumed by
//! `has_cover`) are likewise kept off the seeded-hash path: an array
//! indexed by initiator holding small per-value buckets — one index plus a
//! one-entry linear probe per arrival, and a distinct-value flood spills to
//! the seeded hash map rather than a linear scan. Whether `M'` admits an
//! `f`-cover depends only on its *distinct* node sets, so each bucket keeps
//! each node set once (`DistinctSets`): tens of sets where one per arrival
//! would be thousands. A bucket's initiator is fixed, so the path's
//! `(init, node set)` class id decides the dedup — a bit test, with no node
//! set loaded or hashed for a repeat.
//!
//! A `COMPLETE(F_u)` with payload `M_c` opens one obligation per
//! source-component node `q` of each `S_{F_u,F_w}`: the `M'` bucket of
//! `(q, value_q(M_c))` must admit no `f`-cover avoiding the component.
//! That bucket is the only one whose growth can discharge the obligation,
//! so a pending obligation waits *in* it, as a `(component, tracker)`
//! entry, and leaves it at the first arrival after which no such cover
//! remains. A tracker is then just a count of its pending
//! obligations plus an `impossible` flag (a source value missing from the
//! payload, or not finite). A tracker reads `value_q` straight off the
//! payload's vector, which is consistent by construction (see
//! [`CompletePayload`]); a payload naming a node outside the graph is
//! skipped as Algorithm 1 line 24 skips an inconsistent one: it opens no
//! obligation and never blocks.
//!
//! Per-round state is therefore plain counters, bitmaps and buckets, sized
//! to what the round still reads. [`RoundCore::new`] builds all of it when
//! the round opens: one thread per guess, and the history `M_v`, whose
//! columns cover only the node's own terminal id block. An FRA bitmap is
//! allocated when a fingerprint first arrives for a witness, and dropped
//! when the witness completes. Once the round fires, `nextround` means
//! Completeness is never consulted again: the in-flight bitmaps, the
//! buckets with the obligations waiting in them, and the trackers are
//! released, and only what Maximal-Consistency detection still reads (the
//! history and the census) stays.
//!
//! The pre-mask, counter-based implementation survives as test code
//! (`tests/oracles/witness.rs`), driven through identical flood/COMPLETE
//! sequences by the harness and property tests of
//! `tests/differential_witness.rs` on every `cargo test`.
//!
//! All per-message path state is interned: guess matching and reach
//! containment read precomputed [`PathIndex`](dbac_graph::PathIndex)
//! bitmasks, and wire ids are resolved at the validation boundary before
//! they reach this module.

use crate::filter::{filter_and_average, FilterOutcome};
use crate::message_set::{CompletePayload, MessageSet};
use crate::precompute::Topology;
use dbac_conditions::cover::has_cover;
use dbac_graph::{NodeId, NodeSet, PathId};
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel in the slot look-up table for ids without an FRA slot.
const NO_SLOT: u32 = u32::MAX;

/// Static per-node plan: one entry per fault-set guess excluding the node,
/// plus the precomputed mask sets every round's scans run against (see the
/// module docs).
#[derive(Debug)]
pub struct NodePlan {
    me: NodeId,
    /// First word of the id space covered by the per-guess masks — the
    /// start of `me`'s terminal-major id block.
    word_base: usize,
    /// Number of mask words (the block's word-range length).
    mask_words: usize,
    /// Per initiator `q`: `init_words(q)` sliced to the mask range — the
    /// per-init value-column slices the consistency scan walks.
    init_slices: Vec<Vec<u64>>,
    /// `id - 64·word_base` → dense FRA slot over the simple paths ending
    /// at `me`, or [`NO_SLOT`].
    fra_slot: Vec<u32>,
    /// Words covering the FRA slot space.
    fra_slot_words: usize,
    guesses: Vec<GuessPlan>,
}

/// Precomputed constants and masks for one guess `F_v`.
#[derive(Debug)]
pub struct GuessPlan {
    /// The guessed fault set.
    pub guess: NodeSet,
    /// `reach_me(F_v)`.
    pub reach: NodeSet,
    /// Number of required flood paths (pool paths avoiding the guess —
    /// the popcount of the avoiding mask).
    pub flood_required: usize,
    /// The avoiding mask: pool paths ending at `me` that avoid the guess,
    /// word-aligned to the plan's mask range.
    avoid_words: Vec<u64>,
    /// The initiators of those paths: the nodes a firing's payload names.
    initiators: NodeSet,
    /// FIFO-Receive-All witnesses, ascending by node id.
    fra_witnesses: Vec<FraWitness>,
}

impl GuessPlan {
    /// The FIFO-Receive-All witnesses of this guess, ascending by node.
    #[must_use]
    pub fn fra_witnesses(&self) -> &[FraWitness] {
        &self.fra_witnesses
    }
}

/// One FIFO-Receive-All witness `c` of a guess: the precomputed slot mask
/// of the simple `(c, me)`-paths inside the reach set.
#[derive(Debug)]
pub struct FraWitness {
    /// The witness `c ∈ reach_me(F̄v)`.
    pub c: NodeId,
    /// Number of simple `(c, me)`-paths inside the reach set (the mask's
    /// popcount — the FIFO-Receive-All requirement).
    pub required: usize,
    /// Slot bitmap of those paths over the plan's FRA slot space.
    mask: Vec<u64>,
}

impl FraWitness {
    /// The witness's slot mask over the plan's FRA slot space (bit `s` set
    /// iff the `s`-th simple path ending at the node is a `(c, me)`-path
    /// inside the reach set).
    #[must_use]
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }
}

/// Maximal-Consistency status of one guess, recomputed from the columns
/// (the `mc_scan` kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McStatus {
    /// Every pool path avoiding the guess has reported (Definition 9).
    pub full: bool,
    /// `M|_F̄v` is consistent (Definition 8).
    pub consistent: bool,
}

impl NodePlan {
    /// Builds the plan for node `me`, precomputing the per-guess mask sets.
    #[must_use]
    pub fn new(topo: &Topology, me: NodeId) -> Self {
        let index = topo.index();
        let n = topo.graph().node_count();
        let words = index.terminal_word_range(me);
        let (word_base, mask_words) = (words.start, words.len());
        let init_slices: Vec<Vec<u64>> =
            (0..n).map(|q| index.init_words(NodeId::new(q))[words.clone()].to_vec()).collect();

        // Dense slot renumbering of the simple paths ending at `me` (the
        // FIFO delivery-path space), in id order.
        let simple = index.simple_paths_ending_at(me);
        let fra_slot_words = simple.len().div_ceil(64);
        let mut fra_slot = vec![NO_SLOT; mask_words * 64];
        for (s, &p) in simple.iter().enumerate() {
            fra_slot[p.index() - word_base * 64] = u32::try_from(s).expect("slot space within u32");
        }

        let mut guesses = Vec::new();
        for &guess in topo.guesses() {
            if guess.contains(me) {
                continue;
            }
            let reach = topo.reach_of(me, guess);
            let avoid_words = index.avoiding_words(guess, me, words.clone());
            let flood_required = avoid_words.iter().map(|w| w.count_ones() as usize).sum();
            let initiators = (0..n)
                .filter(|&q| avoid_words.iter().zip(&init_slices[q]).any(|(a, i)| a & i != 0))
                .map(NodeId::new)
                .collect();
            // Bucket the in-reach simple paths by initiator into slot masks.
            let mut masks: Vec<Option<Vec<u64>>> = vec![None; n];
            for (s, &p) in simple.iter().enumerate() {
                if index.is_within(p, reach) {
                    let mask = masks[index.init(p).index()]
                        .get_or_insert_with(|| vec![0u64; fra_slot_words]);
                    mask[s / 64] |= 1u64 << (s % 64);
                }
            }
            let fra_witnesses: Vec<FraWitness> = masks
                .into_iter()
                .enumerate()
                .filter_map(|(c, mask)| {
                    mask.map(|mask| FraWitness {
                        c: NodeId::new(c),
                        required: mask.iter().map(|w| w.count_ones() as usize).sum(),
                        mask,
                    })
                })
                .collect();
            guesses.push(GuessPlan {
                guess,
                reach,
                flood_required,
                avoid_words,
                initiators,
                fra_witnesses,
            });
        }
        NodePlan { me, word_base, mask_words, init_slices, fra_slot, fra_slot_words, guesses }
    }

    /// The node this plan belongs to.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The per-guess plans.
    #[must_use]
    pub fn guesses(&self) -> &[GuessPlan] {
        &self.guesses
    }

    /// Recomputes the Maximal-Consistency status of guess `guess_idx` over
    /// `mset` with word-at-a-time mask scans — no per-arrival state. This
    /// is the kernel the perf ledger times as `core.witness.mc_scan_ns`.
    ///
    /// `mset` must only hold paths ending at [`NodePlan::me`] (the round
    /// history invariant maintained by [`RoundCore`]).
    #[must_use]
    pub fn mc_status(&self, guess_idx: usize, mset: &MessageSet) -> McStatus {
        let avoid = &self.guesses[guess_idx].avoid_words;
        let full =
            (0..self.mask_words).all(|w| avoid[w] & !mset.present_word(self.word_base + w) == 0);
        let consistent = (0..self.init_slices.len())
            .all(|q| self.initiator_value(guess_idx, NodeId::new(q), mset).is_some());
        McStatus { full, consistent }
    }

    /// Initiator `q`'s slice of `M|_F̄v` by the masked scan restricted to
    /// one init slice: `None` if it holds two values, else the value bits
    /// it holds (`Some(None)` for an empty slice). The per-completion read
    /// of initiators the round-global census flagged as equivocating.
    pub(crate) fn initiator_value(
        &self,
        guess_idx: usize,
        q: NodeId,
        mset: &MessageSet,
    ) -> Option<Option<u64>> {
        let avoid = &self.guesses[guess_idx].avoid_words;
        let slice = &self.init_slices[q.index()];
        let mut first: Option<u64> = None;
        for w in 0..self.mask_words {
            let mut hits = mset.present_word(self.word_base + w) & avoid[w] & slice[w];
            while hits != 0 {
                let id = (self.word_base + w) * 64 + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let bits = mset.value_at(id).to_bits();
                match first {
                    None => first = Some(bits),
                    Some(b) if b != bits => return None,
                    Some(_) => {}
                }
            }
        }
        Some(first)
    }

    /// Number of nodes in the plan's network.
    pub(crate) fn node_count(&self) -> usize {
        self.init_slices.len()
    }

    /// The (relative word, bit) of a stored path in the mask range.
    fn mask_bit_of(&self, stored: PathId) -> (usize, u64) {
        let rel = stored.index() - self.word_base * 64;
        (rel / 64, 1u64 << (rel % 64))
    }

    /// The FRA slot of a delivery path, if it is a simple path ending at
    /// `me`.
    fn fra_slot_of(&self, p: PathId) -> Option<usize> {
        let rel = p.index().checked_sub(self.word_base * 64)?;
        let s = *self.fra_slot.get(rel)?;
        (s != NO_SLOT).then_some(s as usize)
    }
}

/// An action the node must perform as a result of a state transition.
#[derive(Clone, Debug)]
pub enum RoundAction {
    /// A thread passed Maximal-Consistency: FIFO-flood
    /// `(payload, COMPLETE(guess))` (the node assigns the FIFO counter).
    FloodComplete {
        /// The guess `F_v` of the thread that fired.
        guess: NodeSet,
        /// The snapshot `M_v|_F̄v`.
        payload: Arc<CompletePayload>,
    },
    /// Verify passed in some thread: Filter-and-Average produced the next
    /// state value; the node advances to the next round.
    Advance {
        /// The guess of the winning thread (telemetry: which suspicion
        /// unblocked the round).
        guess: NodeSet,
        /// The Filter-and-Average outcome.
        outcome: FilterOutcome,
    },
}

/// The node's witness-progress tally: counters that every round's
/// [`RoundCore::add_fifo_delivery`] bumps, and that the node drains into
/// its stats handle after each activation.
#[derive(Debug, Default)]
pub struct WitnessScratch {
    /// Fresh FRA `(path, fingerprint)` marks recorded since the owner
    /// last drained this counter into its stats handle.
    pub fra_marks: u64,
    /// FIFO-Receive-All witnesses completed since the owner last
    /// drained this counter into its stats handle.
    pub witness_completions: u64,
}

impl WitnessScratch {
    /// Creates a zeroed tally.
    #[must_use]
    pub fn new() -> Self {
        WitnessScratch::default()
    }
}

/// Per-guess witness-thread state: plain counters — every requirement is a
/// countdown of a precomputed mask popcount. Thread `i` runs guess `i` of
/// the [`NodePlan`].
struct ThreadState {
    /// Avoiding-pool paths not yet reported; MC can fire when this hits 0.
    flood_remaining: usize,
    mc_fired: bool,
    /// The pool completed but the consistency scan failed: inconsistency
    /// of a fixed path set is permanent, so MC can never fire.
    mc_dead: bool,
    /// Parallel to the plan's `fra_witnesses`.
    fra: Vec<FraState>,
    fra_remaining: usize,
    relevant_trackers: Vec<usize>,
}

/// FIFO-Receive-All progress for one witness.
struct FraState {
    done: bool,
    /// Per distinct payload fingerprint: a slot bitmap (dedup) plus a
    /// countdown of the witness mask's popcount.
    by_fp: SpillSlots<FpProgress>,
}

struct FpProgress {
    remaining: usize,
    /// Slot bitmap of the delivery paths seen under this fingerprint.
    seen: Vec<u64>,
}

/// Key → value slots probed linearly while small — the honest case is one
/// or two distinct keys — spilling to a hash index once a Byzantine peer
/// floods distinct keys, so a probe stays O(1) under attack instead of
/// degrading linearly with the attack length. Keys are
/// Byzantine-influenced bytes (value bits, payload fingerprints), so the
/// spill index uses the seeded default hasher.
struct SpillSlots<V> {
    entries: Vec<(u64, V)>,
    index: Option<HashMap<u64, usize>>,
}

impl<V> SpillSlots<V> {
    /// Linear-probe budget before the hash index is built.
    const SPILL: usize = 4;

    fn new() -> Self {
        SpillSlots { entries: Vec::new(), index: None }
    }

    fn position(&self, key: u64) -> Option<usize> {
        match &self.index {
            Some(ix) => ix.get(&key).copied(),
            None => self.entries.iter().position(|e| e.0 == key),
        }
    }

    /// The slot for `key`, inserted via `default` if absent.
    fn entry_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(key) {
            Some(i) => i,
            None => {
                let i = self.entries.len();
                self.entries.push((key, default()));
                match &mut self.index {
                    Some(ix) => {
                        ix.insert(key, i);
                    }
                    None if self.entries.len() > Self::SPILL => {
                        self.index =
                            Some(self.entries.iter().enumerate().map(|(i, e)| (e.0, i)).collect());
                    }
                    None => {}
                }
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Test observability: the slot for `key`, if any.
    #[cfg(test)]
    fn get(&self, key: u64) -> Option<&V> {
        self.position(key).map(|i| &self.entries[i].1)
    }

    /// Test observability: whether any slot is live.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One Completeness bucket of `M'`: the distinct node sets of the paths
/// that carried one `(initiator, value)` pair, in first-arrival order,
/// and the obligations still waiting on them. Within a bucket the
/// initiator is fixed, so a path's class
/// ([`PathIndex::class`](dbac_graph::PathIndex::class)) names its node
/// set: the dedup is one bit per class, grown on demand, and nothing is
/// hashed.
#[derive(Default)]
struct DistinctSets {
    sets: Vec<NodeSet>,
    /// Bit `c`: a path of class `c` already contributed its node set.
    seen: Vec<u64>,
    /// Pending Completeness obligations on this `(q, x_q)` pair, as
    /// `(component, tracker)`: `sets` still admits an `f`-cover avoiding
    /// `component`. Only this bucket's growth can satisfy them.
    waiting: Vec<(NodeSet, usize)>,
}

impl DistinctSets {
    /// Records the node set of `class` unless the bucket already holds it;
    /// returns whether it was new (a repeat cannot change any `has_cover`
    /// verdict).
    fn insert(&mut self, class: usize, node_set: impl FnOnce() -> NodeSet) -> bool {
        let (word, bit) = (class / 64, 1u64 << (class % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        let new = self.seen[word] & bit == 0;
        if new {
            self.seen[word] |= bit;
            self.sets.push(node_set());
        }
        new
    }

    /// The distinct node sets, as `has_cover` reads them.
    fn as_slice(&self) -> &[NodeSet] {
        &self.sets
    }
}

/// Completeness progress of one `(F_u, payload)`: its obligations wait in
/// their `M'` buckets, and only their count is kept here. A skipped
/// payload (one naming a node outside the graph) gets a tracker with no
/// obligations, which never blocks.
struct CompletenessTracker {
    /// Some source-component value is missing from the payload, or is not
    /// finite: `M'` for it stays empty, and the empty `f`-cover always
    /// exists.
    impossible: bool,
    /// Obligations still waiting in a bucket.
    pending: usize,
}

impl CompletenessTracker {
    /// Whether Completeness still fails for this payload, blocking Verify.
    fn blocking(&self) -> bool {
        self.impossible || self.pending > 0
    }
}

/// Per-round BW state for one node.
pub struct RoundCore {
    me: NodeId,
    n: usize,
    f: usize,
    started: bool,
    fired: bool,
    mset: MessageSet,
    /// Round-global consistency census: the first value bits seen per
    /// initiator, and the set of initiators that ever contradicted them.
    /// O(1) per arrival; pool-completion consistency scans only walk the
    /// `dirty` initiators' slices (none, in an honest round).
    value_by_init: Vec<Option<u64>>,
    dirty: NodeSet,
    /// Completeness path sets, indexed by initiator then bucketed by
    /// value bits (almost always one bucket — more only under Byzantine
    /// equivocation): the distinct node sets of the `M'` sets Algorithm
    /// 2's `has_cover` checks read, each with the obligations pending on
    /// it. An array index plus a spill-guarded probe per arrival — honest
    /// traffic never hashes its Byzantine-influenced value bits, and a
    /// distinct-value flood degrades to the seeded hash map, not to a
    /// linear scan. Released when the round fires.
    per_init_paths: Vec<SpillSlots<DistinctSets>>,
    /// Witness threads, parallel to the plan's guesses.
    threads: Vec<ThreadState>,
    trackers: Vec<CompletenessTracker>,
    // The maps below key on value bits or payload fingerprints — bytes a
    // Byzantine sender chooses — so they use the seeded default hasher.
    tracker_index: HashMap<(NodeSet, u64), usize>,
}

impl RoundCore {
    /// Opens the round for node `me`: one thread of counters per guess
    /// (the plan owns every mask), and a history pinned to the node's own
    /// terminal id block.
    #[must_use]
    pub fn new(topo: &Topology, plan: &NodePlan) -> Self {
        let n = plan.node_count();
        let threads = plan
            .guesses
            .iter()
            .map(|g| ThreadState {
                flood_remaining: g.flood_required,
                mc_fired: false,
                mc_dead: false,
                fra: g
                    .fra_witnesses
                    .iter()
                    .map(|_| FraState { done: false, by_fp: SpillSlots::new() })
                    .collect(),
                fra_remaining: g.fra_witnesses.len(),
                relevant_trackers: Vec::new(),
            })
            .collect();
        RoundCore {
            me: plan.me,
            n,
            f: topo.f(),
            started: false,
            fired: false,
            mset: MessageSet::for_block(plan.word_base..plan.word_base + plan.mask_words),
            value_by_init: vec![None; n],
            dirty: NodeSet::EMPTY,
            per_init_paths: (0..n).map(|_| SpillSlots::new()).collect(),
            threads,
            trackers: Vec::new(),
            tracker_index: HashMap::new(),
        }
    }

    /// Whether the node has begun this round (own value recorded).
    #[must_use]
    pub fn started(&self) -> bool {
        self.started
    }

    /// Whether Filter-and-Average already ran (the `nextround` flag).
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The accumulated message history `M_v` for this round.
    #[must_use]
    pub fn message_set(&self) -> &MessageSet {
        &self.mset
    }

    /// Begins the round with the node's current state value: records
    /// `(x, ⟨me⟩)` (the trivial path required by fullness).
    pub fn start(
        &mut self,
        value: f64,
        topo: &Topology,
        plan: &NodePlan,
        _scratch: &mut WitnessScratch,
    ) -> Vec<RoundAction> {
        debug_assert!(!self.started, "round started twice");
        self.started = true;
        let mut actions = Vec::new();
        let fresh = self.ingest(topo.index().trivial(self.me), value, topo, plan, &mut actions);
        debug_assert!(fresh, "the trivial path opens the round");
        self.check_progress(topo, plan, &mut actions);
        actions
    }

    /// Records a validated flood arrival. `stored` is the wire path
    /// extended with `me`. Returns `(fresh, actions)`; relays happen only
    /// when `fresh` (RedundantFlood's "first message with path p").
    pub fn add_flood(
        &mut self,
        stored: PathId,
        value: f64,
        topo: &Topology,
        plan: &NodePlan,
        _scratch: &mut WitnessScratch,
    ) -> (bool, Vec<RoundAction>) {
        let mut actions = Vec::new();
        if !self.ingest(stored, value, topo, plan, &mut actions) {
            return (false, actions);
        }
        self.check_progress(topo, plan, &mut actions);
        (true, actions)
    }

    /// Records `(value, stored)` in the history and updates every census
    /// it feeds. Returns `false`, changing nothing, if the path already
    /// reported — or, for a path not ending at `me` (which the validation
    /// boundary never lets through), if it lies outside the history's id
    /// block.
    fn ingest(
        &mut self,
        stored: PathId,
        value: f64,
        topo: &Topology,
        plan: &NodePlan,
        actions: &mut Vec<RoundAction>,
    ) -> bool {
        if !self.mset.insert(stored, value) {
            debug_assert!(self.mset.contains_path(stored), "stored paths end at me");
            return false;
        }
        let index = topo.index();
        let init = index.init(stored);
        let bits = value.to_bits();

        // Round-global consistency census: one array slot per arrival.
        match self.value_by_init[init.index()] {
            None => self.value_by_init[init.index()] = Some(bits),
            Some(b) if b != bits => {
                self.dirty.insert(init);
            }
            Some(_) => {}
        }

        if !self.fired {
            // Feed the Completeness path set `M'` (Algorithm 2): one array
            // index and a spill-guarded value-bucket probe — honest floods
            // never hash their Byzantine-influenced value bits. A node set
            // the bucket lacked may release the obligations waiting in it;
            // each one leaves the bucket the first time no `f`-cover
            // avoiding its component remains.
            let bucket =
                self.per_init_paths[init.index()].entry_or_insert_with(bits, DistinctSets::default);
            if bucket.insert(index.class(stored), || index.node_set(stored))
                && !bucket.waiting.is_empty()
            {
                let others = NodeSet::universe(self.n) - NodeSet::singleton(self.me);
                let (f, trackers) = (self.f, &mut self.trackers);
                bucket.waiting.retain(|&(component, t)| {
                    let covered = has_cover(&bucket.sets, f, others - component);
                    if !covered {
                        trackers[t].pending -= 1;
                    }
                    covered
                });
            }
        }

        // Maximal-Consistency census — continues after `fired` (other
        // nodes depend on our COMPLETE witnesses). One precomputed-mask
        // bit probe per thread; the consistency scan runs only at the
        // arrival that completes a pool, and only over the initiators the
        // global census flagged as equivocating.
        let (word, bit) = plan.mask_bit_of(stored);
        for (g, (thread, gp)) in self.threads.iter_mut().zip(&plan.guesses).enumerate() {
            if thread.mc_fired || thread.mc_dead {
                continue;
            }
            if gp.avoid_words[word] & bit == 0 {
                continue;
            }
            thread.flood_remaining -= 1;
            if thread.flood_remaining > 0 {
                continue;
            }
            // Pool complete: every pool initiator has reported. A clean
            // initiator's one value is the census's; only a dirty one's
            // slice is scanned, for consistency and its value.
            let values: Option<Vec<f64>> = gp
                .initiators
                .iter()
                .map(|q| {
                    let bits = if self.dirty.contains(q) {
                        plan.initiator_value(g, q, &self.mset)?
                    } else {
                        self.value_by_init[q.index()]
                    };
                    Some(f64::from_bits(bits.expect("a complete pool holds every initiator")))
                })
                .collect();
            if let Some(values) = values {
                thread.mc_fired = true;
                let payload = Arc::new(CompletePayload::from_vector(gp.initiators, values));
                actions.push(RoundAction::FloodComplete { guess: gp.guess, payload });
            } else {
                thread.mc_dead = true;
            }
        }
        true
    }

    /// Records a FIFO-received `COMPLETE` (including the node's own, via
    /// the trivial path). `delivery_path` must be a validated simple path
    /// ending at this node — the validation boundary guarantees it for
    /// wire traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn add_fifo_delivery(
        &mut self,
        initiator: NodeId,
        delivery_path: PathId,
        suspects: NodeSet,
        payload: &Arc<CompletePayload>,
        fingerprint: u64,
        topo: &Topology,
        plan: &NodePlan,
        scratch: &mut WitnessScratch,
    ) -> Vec<RoundAction> {
        let mut actions = Vec::new();
        if self.fired {
            return actions;
        }
        let tracker_idx = self.obtain_tracker(suspects, payload, fingerprint, topo);
        let path_nodes = topo.index().node_set(delivery_path);
        let slot = plan.fra_slot_of(delivery_path);
        debug_assert!(slot.is_some(), "delivery paths are simple paths ending at me");

        for (thread, gp) in self.threads.iter_mut().zip(&plan.guesses) {
            if !path_nodes.is_subset(gp.reach) {
                continue;
            }
            // Verify-relevance (Algorithm 1 line 24).
            if !thread.relevant_trackers.contains(&tracker_idx) {
                thread.relevant_trackers.push(tracker_idx);
            }
            // FIFO-Receive-All progress (line 12) — only for this guess.
            if suspects != gp.guess {
                continue;
            }
            let (Some(slot), Ok(w_idx)) =
                (slot, gp.fra_witnesses.binary_search_by_key(&initiator, |w| w.c))
            else {
                continue;
            };
            let state = &mut thread.fra[w_idx];
            if state.done {
                continue;
            }
            let progress = state.by_fp.entry_or_insert_with(fingerprint, || FpProgress {
                remaining: gp.fra_witnesses[w_idx].required,
                seen: vec![0; plan.fra_slot_words],
            });
            let (w, bit) = (slot / 64, 1u64 << (slot % 64));
            if progress.seen[w] & bit != 0 {
                continue; // duplicate (path, fingerprint): the bitmap is the dedup
            }
            progress.seen[w] |= bit;
            scratch.fra_marks += 1;
            if progress.remaining > 0 {
                progress.remaining -= 1;
                if progress.remaining == 0 {
                    state.done = true;
                    thread.fra_remaining -= 1;
                    scratch.witness_completions += 1;
                    state.by_fp = SpillSlots::new();
                }
            }
        }
        self.check_progress(topo, plan, &mut actions);
        actions
    }

    fn obtain_tracker(
        &mut self,
        suspects: NodeSet,
        payload: &Arc<CompletePayload>,
        fingerprint: u64,
        topo: &Topology,
    ) -> usize {
        if let Some(&idx) = self.tracker_index.get(&(suspects, fingerprint)) {
            return idx;
        }
        // A payload naming a node outside the graph comes from no honest
        // node, and Verify skips it as it skips an inconsistent one. A
        // non-finite `value_q` is never stored (the node drops such
        // floods), so it can never be confirmed: the tracker is impossible.
        let mut tracker = CompletenessTracker { impossible: false, pending: 0 };
        let idx = self.trackers.len();
        let universe = NodeSet::universe(self.n);
        if payload.initiators().is_subset(universe) {
            let others = universe - NodeSet::singleton(self.me);
            for &(component, q) in topo.completeness_obligations(suspects) {
                let Some(xq) = payload.value_of(q).filter(|x| x.is_finite()) else {
                    tracker.impossible = true;
                    continue;
                };
                let bucket = self.per_init_paths[q.index()]
                    .entry_or_insert_with(xq.to_bits(), DistinctSets::default);
                if has_cover(bucket.as_slice(), self.f, others - component) {
                    tracker.pending += 1;
                    bucket.waiting.push((component, idx));
                }
            }
        }
        self.trackers.push(tracker);
        self.tracker_index.insert((suspects, fingerprint), idx);
        idx
    }

    fn check_progress(&mut self, topo: &Topology, plan: &NodePlan, actions: &mut Vec<RoundAction>) {
        if self.fired || !self.started {
            return;
        }
        for winner in 0..self.threads.len() {
            let thread = &self.threads[winner];
            if thread.fra_remaining != 0 {
                continue;
            }
            if thread.relevant_trackers.iter().any(|&t| self.trackers[t].blocking()) {
                continue;
            }
            // Verify passed: Filter-and-Average, once per round.
            let outcome = filter_and_average(&self.mset, self.f, self.me, self.n, topo.index())
                .expect("own trivial path keeps the trimmed vector non-empty");
            self.fired = true;
            // FIFO-Receive-All and Completeness bookkeeping is dead once
            // the round fired (deliveries return early, and floods no
            // longer feed `M'`): every in-flight fingerprint bitmap is
            // dropped, not just the ones whose witness completed, and the
            // buckets (with the obligations waiting in them) and trackers
            // are freed.
            for thread in &mut self.threads {
                for state in &mut thread.fra {
                    state.by_fp = SpillSlots::new();
                }
                thread.relevant_trackers = Vec::new();
            }
            self.per_init_paths = Vec::new();
            self.trackers = Vec::new();
            self.tracker_index = HashMap::new();
            actions.push(RoundAction::Advance { guess: plan.guesses[winner].guess, outcome });
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{clique_topo, pid};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn setup(n: usize, f: usize) -> (Topology, NodePlan) {
        let topo = clique_topo(n, f);
        let plan = NodePlan::new(&topo, id(0));
        (topo, plan)
    }

    #[test]
    fn plan_excludes_self_from_guesses() {
        let (_, plan) = setup(4, 1);
        assert_eq!(plan.me(), id(0));
        // ∅ plus the three singletons not containing node 0.
        assert_eq!(plan.guesses().len(), 4);
        assert!(plan.guesses().iter().all(|g| !g.guess.contains(id(0))));
    }

    #[test]
    fn plan_counts_required_paths() {
        let (topo, plan) = setup(4, 1);
        let pool = topo.required_paths_to(id(0)).len();
        let empty_guess = plan.guesses().iter().find(|g| g.guess.is_empty()).unwrap();
        assert_eq!(empty_guess.flood_required, pool);
        // A singleton guess shrinks the requirement strictly.
        let singleton = plan.guesses().iter().find(|g| g.guess.len() == 1).unwrap();
        assert!(singleton.flood_required < pool);
        // FRA witnesses = everyone outside the guess (clique reach).
        assert_eq!(empty_guess.fra_witnesses().len(), 4);
        assert_eq!(singleton.fra_witnesses().len(), 3);
    }

    #[test]
    fn fra_masks_mark_in_reach_paths() {
        let (topo, plan) = setup(4, 1);
        let index = topo.index();
        let simple = topo.simple_paths_to(id(0));
        for gp in plan.guesses() {
            for w in gp.fra_witnesses() {
                for (s, &p) in simple.iter().enumerate() {
                    let bit = w.mask()[s / 64] & (1u64 << (s % 64)) != 0;
                    let expected = index.init(p) == w.c && index.is_within(p, gp.reach);
                    assert_eq!(bit, expected, "slot {s} in mask of ({:?}, {})", gp.guess, w.c);
                }
            }
        }
    }

    #[test]
    fn mc_status_matches_definitions() {
        let (topo, plan) = setup(3, 0);
        let index = topo.index();
        let mut m = MessageSet::new();
        // Empty set: vacuously consistent, not full.
        let st = plan.mc_status(0, &m);
        assert!(!st.full);
        assert!(st.consistent);
        // Full pool with per-initiator values: full and consistent.
        for &p in topo.required_paths_to(id(0)) {
            m.insert(p, index.init(p).index() as f64);
        }
        assert_eq!(plan.mc_status(0, &m), McStatus { full: true, consistent: true });
        assert!(m.is_consistent(index));
        // An equivocating history: full but inconsistent.
        let mut bad = MessageSet::new();
        for &p in topo.required_paths_to(id(0)) {
            bad.insert(p, index.node_count(p) as f64);
        }
        let st = plan.mc_status(0, &bad);
        assert!(st.full);
        assert!(!st.consistent);
        assert!(!bad.is_consistent(index));
    }

    #[test]
    fn pool_initiators_are_the_exclusions_initiators() {
        let topo = crate::test_support::topo_of(
            dbac_graph::generators::figure_1a(),
            1,
            crate::config::FloodMode::Redundant,
        );
        let index = topo.index();
        for me in topo.graph().nodes() {
            let plan = NodePlan::new(&topo, me);
            let full: MessageSet = topo.required_paths_to(me).iter().map(|&p| (p, 0.0)).collect();
            for gp in plan.guesses() {
                let excluded = full.exclusion(gp.guess, index).initiators(index);
                assert_eq!(gp.initiators, excluded, "{me} guess {:?}", gp.guess);
            }
        }
    }

    #[test]
    fn start_records_trivial_path() {
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        assert!(!core.started());
        let actions = core.start(2.5, &topo, &plan, &mut scratch);
        assert!(core.started());
        assert!(actions.is_empty(), "one value cannot complete a clique's pool");
        assert_eq!(core.message_set().value_on_path(topo.index().trivial(id(0))), Some(2.5));
    }

    #[test]
    fn new_core_holds_one_thread_per_guess_and_a_pinned_history() {
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        assert_eq!(core.threads.len(), plan.guesses().len());
        for (thread, gp) in core.threads.iter().zip(plan.guesses()) {
            assert_eq!(thread.flood_remaining, gp.flood_required, "guess {:?}", gp.guess);
            assert_eq!(thread.fra.len(), gp.fra_witnesses().len(), "guess {:?}", gp.guess);
            assert_eq!(thread.fra_remaining, gp.fra_witnesses().len());
        }
        // The history covers node 0's id block only.
        let block = topo.index().terminal_word_range(id(0));
        let outside = topo
            .required_paths_to(id(3))
            .iter()
            .copied()
            .find(|p| !block.contains(&(p.index() / 64)))
            .expect("node 3's block reaches past node 0's words");
        assert!(!core.mset.insert(outside, 1.0), "an out-of-block id is refused");
    }

    #[test]
    fn duplicate_flood_is_not_fresh() {
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(0.0, &topo, &plan, &mut scratch);
        let p = pid(&topo, &[1, 0]);
        let (fresh, _) = core.add_flood(p, 1.0, &topo, &plan, &mut scratch);
        assert!(fresh);
        let (fresh, _) = core.add_flood(p, 9.0, &topo, &plan, &mut scratch);
        assert!(!fresh, "same path must not relay twice");
    }

    #[test]
    fn maximal_consistency_fires_when_pool_complete() {
        // Feed node 0 every pool path with consistent per-initiator values.
        let (topo, plan) = setup(3, 0);
        // f = 0: single guess (the empty set), pool = all redundant paths.
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        let mut actions = core.start(0.5, &topo, &plan, &mut scratch);
        let values = [0.5, 1.0, 2.0];
        for &path in topo.required_paths_to(id(0)) {
            if topo.index().is_trivial(path) {
                continue; // own trivial path already in
            }
            let v = values[topo.index().init(path).index()];
            let (_, mut acts) = core.add_flood(path, v, &topo, &plan, &mut scratch);
            actions.append(&mut acts);
        }
        let completes: Vec<_> =
            actions.iter().filter(|a| matches!(a, RoundAction::FloodComplete { .. })).collect();
        assert_eq!(completes.len(), 1, "single guess fires exactly once");
        match completes[0] {
            RoundAction::FloodComplete { guess, payload } => {
                assert!(guess.is_empty());
                assert_eq!(payload.initiators(), NodeSet::universe(3));
                assert_eq!(payload.values(), &values);
            }
            RoundAction::Advance { .. } => unreachable!(),
        }
    }

    #[test]
    fn inconsistent_values_block_a_guess() {
        let (topo, plan) = setup(3, 0);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(0.5, &topo, &plan, &mut scratch);
        let mut fired = Vec::new();
        for &path in topo.required_paths_to(id(0)) {
            if topo.index().is_trivial(path) {
                continue;
            }
            // Value depends on the whole path, so initiators equivocate.
            let v = topo.index().node_count(path) as f64;
            let (_, acts) = core.add_flood(path, v, &topo, &plan, &mut scratch);
            fired.extend(acts);
        }
        assert!(
            fired.iter().all(|a| !matches!(a, RoundAction::FloodComplete { .. })),
            "equivocation must block Maximal-Consistency"
        );
        assert!(core.threads.iter().any(|t| t.mc_dead), "completed-but-inconsistent pool is dead");
    }

    #[test]
    fn full_round_on_tiny_clique_advances() {
        // f = 0 on K3: feed all floods, then deliver every node's COMPLETE
        // over every simple path — the round must advance.
        let (topo, plan) = setup(3, 0);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        let mut all_actions = core.start(1.0, &topo, &plan, &mut scratch);
        let values = [1.0, 2.0, 3.0];
        for &path in topo.required_paths_to(id(0)) {
            if topo.index().is_trivial(path) {
                continue;
            }
            let value = values[topo.index().init(path).index()];
            let (_, acts) = core.add_flood(path, value, &topo, &plan, &mut scratch);
            all_actions.extend(acts);
        }
        // Own COMPLETE fired; simulate the self-delivery.
        let own = all_actions
            .iter()
            .find_map(|a| match a {
                RoundAction::FloodComplete { payload, .. } => Some(Arc::clone(payload)),
                RoundAction::Advance { .. } => None,
            })
            .expect("own MC fired");
        let fp = own.fingerprint();
        let mut acts = core.add_fifo_delivery(
            id(0),
            topo.index().trivial(id(0)),
            NodeSet::EMPTY,
            &own,
            fp,
            &topo,
            &plan,
            &mut scratch,
        );
        all_actions.append(&mut acts);

        // Peers 1 and 2 send the same COMPLETE (their view: same values on
        // all their pool paths, which every node begins).
        for c in [id(1), id(2)] {
            let payload: Arc<CompletePayload> =
                Arc::new((0..3).map(|q| (id(q), values[q])).collect());
            let fp = payload.fingerprint();
            // Deliver over every simple (c, 0)-path.
            for &p in topo.simple_paths_to(id(0)) {
                if topo.index().init(p) != c || topo.index().is_trivial(p) {
                    continue;
                }
                let mut acts = core.add_fifo_delivery(
                    c,
                    p,
                    NodeSet::EMPTY,
                    &payload,
                    fp,
                    &topo,
                    &plan,
                    &mut scratch,
                );
                all_actions.append(&mut acts);
            }
        }
        let advance = all_actions.iter().find_map(|a| match a {
            RoundAction::Advance { outcome, .. } => Some(*outcome),
            RoundAction::FloodComplete { .. } => None,
        });
        let outcome = advance.expect("round must advance");
        assert!(core.fired());
        // f = 0: no trimming; midpoint of 1 and 3.
        assert_eq!(outcome.value, 2.0);
        // Completed witnesses dropped their fingerprint bitmaps, and firing
        // dropped every in-flight one.
        assert!(
            core.threads.iter().all(|t| t.fra.iter().all(|s| s.by_fp.is_empty())),
            "firing frees every in-flight FRA bitmap"
        );
    }

    #[test]
    fn payloads_naming_nodes_outside_the_graph_never_block_verify() {
        // No honest node names a node outside the graph, so such a payload
        // is skipped as Algorithm 1 line 24 skips an inconsistent one —
        // alone, or beside values for every node of the graph.
        let (topo, plan) = setup(4, 1);
        let every = (0..4).map(|q| (id(q), 3.0));
        for payload in [
            [(id(200), 0.25)].into_iter().collect(),
            every.chain([(id(4), 0.25)]).collect::<CompletePayload>(),
        ] {
            let mut core = RoundCore::new(&topo, &plan);
            let mut scratch = WitnessScratch::new();
            core.start(1.0, &topo, &plan, &mut scratch);
            let payload = Arc::new(payload);
            let fp = payload.fingerprint();
            core.add_fifo_delivery(
                id(1),
                pid(&topo, &[1, 0]),
                NodeSet::singleton(id(2)),
                &payload,
                fp,
                &topo,
                &plan,
                &mut scratch,
            );
            assert_eq!(core.trackers.len(), 1);
            assert!(!core.trackers[0].blocking(), "the payload is skipped");
            assert_eq!(waiting_on(&core, 0), 0, "and leave no obligation waiting");
        }
    }

    #[test]
    fn non_finite_source_value_is_impossible() {
        // Floods of non-finite values never reach the history, so a
        // payload whose source values are NaN or infinite can never pass
        // Completeness: its tracker is impossible at once, with nothing
        // left waiting in a bucket.
        let (topo, plan) = setup(4, 1);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut core = RoundCore::new(&topo, &plan);
            let mut scratch = WitnessScratch::new();
            core.start(1.0, &topo, &plan, &mut scratch);
            let payload: Arc<CompletePayload> = Arc::new((0..4).map(|q| (id(q), bad)).collect());
            core.add_fifo_delivery(
                id(1),
                pid(&topo, &[1, 0]),
                NodeSet::singleton(id(2)),
                &payload,
                payload.fingerprint(),
                &topo,
                &plan,
                &mut scratch,
            );
            assert!(core.trackers[0].impossible && core.trackers[0].blocking(), "{bad}");
            assert_eq!(waiting_on(&core, 0), 0, "{bad}");
        }
    }

    #[test]
    fn missing_source_value_blocks_forever() {
        // A payload that lacks a source-component value can never pass
        // Completeness: M' stays empty, the empty f-cover exists, output
        // is false (Algorithm 2).
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(1.0, &topo, &plan, &mut scratch);
        // Payload with node 1's value only — nodes 2 and 3 are in source
        // components of some (F_u, F_w) pair but absent here.
        let payload: Arc<CompletePayload> = Arc::new([(id(1), 3.0)].into_iter().collect());
        let fp = payload.fingerprint();
        core.add_fifo_delivery(
            id(1),
            pid(&topo, &[1, 0]),
            NodeSet::singleton(id(2)),
            &payload,
            fp,
            &topo,
            &plan,
            &mut scratch,
        );
        assert_eq!(core.trackers.len(), 1);
        assert!(core.trackers[0].impossible);
        assert!(core.trackers[0].blocking());
        assert_eq!(waiting_on(&core, 0), core.trackers[0].pending);
        // Feeding matching floods does not unblock an impossible tracker.
        for &path in topo.required_paths_to(id(0)) {
            if topo.index().is_trivial(path) {
                continue;
            }
            let _ = core.add_flood(path, 3.0, &topo, &plan, &mut scratch);
        }
        assert!(core.trackers[0].blocking());
    }

    #[test]
    fn trackers_deduplicate_by_suspects_and_content() {
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(1.0, &topo, &plan, &mut scratch);
        let payload: Arc<CompletePayload> = Arc::new([(id(1), 3.0)].into_iter().collect());
        let fp = payload.fingerprint();
        for p in [pid(&topo, &[1, 0]), pid(&topo, &[1, 2, 0])] {
            core.add_fifo_delivery(
                id(1),
                p,
                NodeSet::singleton(id(3)),
                &payload,
                fp,
                &topo,
                &plan,
                &mut scratch,
            );
        }
        assert_eq!(core.trackers.len(), 1, "same (F_u, content) → one tracker");
        // A different suspect set is a distinct Completeness instance.
        core.add_fifo_delivery(
            id(1),
            pid(&topo, &[1, 0]),
            NodeSet::singleton(id(2)),
            &payload,
            fp,
            &topo,
            &plan,
            &mut scratch,
        );
        assert_eq!(core.trackers.len(), 2);
    }

    #[test]
    fn spilled_slots_stay_correct_under_distinct_key_floods() {
        // A Byzantine peer streaming distinct values / payload
        // fingerprints pushes the per-initiator value buckets and the
        // per-witness fingerprint slots past their linear-probe budget
        // into the hash index; behavior must not change.
        let (topo, plan) = setup(4, 1);
        let index = topo.index();
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(1.0, &topo, &plan, &mut scratch);
        // Distinct value per flood path from initiator 1 (spills the
        // value buckets; everything from node 1 is inconsistent).
        let mut k = 0;
        for &path in topo.required_paths_to(id(0)) {
            if index.is_trivial(path) || index.init(path) != id(1) {
                continue;
            }
            k += 1;
            let (fresh, _) = core.add_flood(path, f64::from(k), &topo, &plan, &mut scratch);
            assert!(fresh);
        }
        assert!(k > SpillSlots::<()>::SPILL as i32, "enough distinct values to spill");
        let buckets = &core.per_init_paths[1];
        assert!(buckets.index.is_some(), "value buckets spilled to the hash index");
        for v in 1..=k {
            let paths = buckets.get(f64::from(v).to_bits()).expect("bucket per distinct value");
            assert_eq!(paths.as_slice().len(), 1);
        }
        assert!(core.dirty.contains(id(1)), "distinct values flag the initiator dirty");

        // Distinct payload fingerprint per COMPLETE from witness 1 over
        // one delivery path (spills the fingerprint slots; none completes).
        let delivery = pid(&topo, &[1, 0]);
        for fp in 0..16u64 {
            let payload: Arc<CompletePayload> =
                Arc::new([(id(1), fp as f64)].into_iter().collect());
            core.add_fifo_delivery(
                id(1),
                delivery,
                NodeSet::EMPTY,
                &payload,
                payload.fingerprint(),
                &topo,
                &plan,
                &mut scratch,
            );
        }
        let g = plan.guesses().iter().position(|g| g.guess.is_empty()).unwrap();
        let empty_thread = &core.threads[g];
        let w1 = plan.guesses()[g].fra_witnesses().iter().position(|w| w.c == id(1)).unwrap();
        let state = &empty_thread.fra[w1];
        assert!(!state.done, "one path per fingerprint cannot complete the witness");
        assert!(state.by_fp.index.is_some(), "fingerprint slots spilled to the hash index");
        assert!(state.by_fp.get(0).is_none(), "only seen fingerprints have slots");
    }

    #[test]
    fn dedup_keeps_the_completeness_verdict() {
        // `has_cover` over one node set per arrival ≡ `has_cover` over the
        // bucket's distinct sets, for f ∈ {0, 1, 2}: duplicates never
        // change whether an f-cover exists.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let subset = |rng: &mut SmallRng, n: usize| -> NodeSet {
            (0..n).filter(|_| rng.gen_bool(0.4)).map(NodeId::new).collect()
        };
        for seed in 0..2_000u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..10);
            // A small pool of distinct sets drawn with replacement:
            // arrivals repeat sets, as flood arrivals over one (initiator,
            // value) pair do. Within a bucket a class names one set; the
            // pool position, spread over several bitmap words, stands in
            // for it.
            let mut pool: Vec<NodeSet> =
                (0..rng.gen_range(1usize..7)).map(|_| subset(&mut rng, n)).collect();
            pool.sort_unstable();
            pool.dedup();
            let raw: Vec<usize> =
                (0..rng.gen_range(0usize..40)).map(|_| rng.gen_range(0..pool.len())).collect();
            let mut bucket = DistinctSets::default();
            for &i in &raw {
                bucket.insert(37 * i, || pool[i]);
            }
            let raw: Vec<NodeSet> = raw.into_iter().map(|i| pool[i]).collect();
            let mut expected: Vec<NodeSet> = Vec::new();
            for &set in &raw {
                if !expected.contains(&set) {
                    expected.push(set);
                }
            }
            assert_eq!(bucket.as_slice(), &expected[..], "seed {seed}: first-arrival order");
            let allowed = subset(&mut rng, n);
            for f in 0..=2 {
                assert_eq!(
                    has_cover(&raw, f, allowed),
                    has_cover(bucket.as_slice(), f, allowed),
                    "seed {seed}, f = {f}"
                );
            }
        }
    }

    /// Pushes every `FloodComplete` payload in `actions` back in as the
    /// node's own FIFO delivery over its trivial path; returns whether any
    /// action was an `Advance`.
    fn self_deliver(
        core: &mut RoundCore,
        actions: Vec<RoundAction>,
        topo: &Topology,
        plan: &NodePlan,
        scratch: &mut WitnessScratch,
    ) -> bool {
        let mut advanced = false;
        for action in actions {
            match action {
                RoundAction::FloodComplete { guess, payload } => {
                    let acts = core.add_fifo_delivery(
                        id(0),
                        topo.index().trivial(id(0)),
                        guess,
                        &payload,
                        payload.fingerprint(),
                        topo,
                        plan,
                        scratch,
                    );
                    advanced |= self_deliver(core, acts, topo, plan, scratch);
                }
                RoundAction::Advance { .. } => advanced = true,
            }
        }
        advanced
    }

    #[test]
    fn fired_round_holds_no_completeness_state() {
        // K4, f = 1, node 0: every flood but ⟨3, 0⟩ arrives, so only the
        // guess {3} completes its pool; peers 1 and 2 then send their
        // COMPLETE({3}) over every simple path avoiding 3, which advances
        // the round.
        let (topo, plan) = setup(4, 1);
        let index = topo.index();
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        let values = [1.0, 2.0, 3.0, 4.0];
        let held_back = pid(&topo, &[3, 0]);
        let suspects = NodeSet::singleton(id(3));
        let acts = core.start(values[0], &topo, &plan, &mut scratch);
        let mut advanced = self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
        for &path in topo.required_paths_to(id(0)) {
            if index.is_trivial(path) || path == held_back {
                continue;
            }
            let (fresh, acts) =
                core.add_flood(path, values[index.init(path).index()], &topo, &plan, &mut scratch);
            assert!(fresh);
            advanced |= self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
        }
        assert!(!advanced, "no peer COMPLETE yet");
        assert!(core.per_init_paths.iter().any(|b| !b.entries.is_empty()), "buckets were fed");
        assert!(!core.trackers.is_empty(), "the own COMPLETE opened a tracker");
        for c in [id(1), id(2)] {
            let payload = avoiding(suspects, &values);
            for &p in topo.simple_paths_to(id(0)) {
                if index.init(p) != c || index.intersects(p, suspects) {
                    continue;
                }
                let acts = core.add_fifo_delivery(
                    c,
                    p,
                    suspects,
                    &payload,
                    payload.fingerprint(),
                    &topo,
                    &plan,
                    &mut scratch,
                );
                advanced |= self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
            }
        }
        assert!(advanced && core.fired(), "the round advanced");

        let assert_released = |core: &RoundCore, ctx: &str| {
            assert!(core.per_init_paths.is_empty(), "{ctx}: buckets");
            assert!(core.trackers.is_empty(), "{ctx}: trackers");
            assert!(core.tracker_index.is_empty(), "{ctx}: tracker index");
            assert!(
                core.threads.iter().all(|t| t.relevant_trackers.is_empty()),
                "{ctx}: relevant trackers"
            );
        };
        assert_released(&core, "after Advance");

        // A late flood still relays and may still complete a pool (the ∅
        // guess's), but feeds no bucket.
        let (fresh, acts) = core.add_flood(held_back, values[3], &topo, &plan, &mut scratch);
        assert!(fresh, "a late flood still relays");
        assert!(acts.iter().all(|a| matches!(a, RoundAction::FloodComplete { .. })));
        assert_released(&core, "after a late flood");

        // A late COMPLETE opens no tracker.
        let payload = avoiding(NodeSet::EMPTY, &values);
        let acts = core.add_fifo_delivery(
            id(3),
            held_back,
            NodeSet::EMPTY,
            &payload,
            payload.fingerprint(),
            &topo,
            &plan,
            &mut scratch,
        );
        assert!(acts.is_empty());
        assert_released(&core, "after a late COMPLETE");
    }

    /// The payload a K4 peer sends under `suspects` when node `q` holds
    /// `values[q]`: its pool avoiding `suspects` starts at every other node.
    fn avoiding(suspects: NodeSet, values: &[f64; 4]) -> Arc<CompletePayload> {
        Arc::new(
            (0..4).filter(|&q| !suspects.contains(id(q))).map(|q| (id(q), values[q])).collect(),
        )
    }

    /// The obligations of tracker `t` waiting in any bucket.
    fn waiting_on(core: &RoundCore, t: usize) -> usize {
        let buckets = core.per_init_paths.iter().flat_map(|b| &b.entries);
        buckets.map(|(_, d)| d.waiting.iter().filter(|&&(_, w)| w == t).count()).sum()
    }

    #[test]
    fn one_escaping_flood_releases_every_obligation_in_its_bucket() {
        // K4, f = 1, node 0: every flood from nodes 0–2 arrives, none from
        // 3, so only the guess {3} completes its pool. Two consistent
        // COMPLETEs under the suspect sets {1} and {2} carry node 3's value
        // and wait on the one bucket (3, 4.0); peers 1 and 2 then complete
        // FIFO-Receive-All for {3}. Only a flood of 3's value 4.0 over a
        // path no f-cover can avoid — the direct ⟨3, 0⟩ — releases both,
        // and the round advances at that arrival.
        let (topo, plan) = setup(4, 1);
        let index = topo.index();
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        let values = [1.0, 2.0, 3.0, 4.0];
        let acts = core.start(values[0], &topo, &plan, &mut scratch);
        let mut advanced = self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
        for &path in topo.required_paths_to(id(0)) {
            if index.is_trivial(path) || index.init(path) == id(3) {
                continue;
            }
            let (_, acts) =
                core.add_flood(path, values[index.init(path).index()], &topo, &plan, &mut scratch);
            advanced |= self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
        }
        let mut blockers = Vec::new();
        for (c, suspect) in [(id(2), id(1)), (id(1), id(2))] {
            let suspects = NodeSet::singleton(suspect);
            let payload = avoiding(suspects, &values);
            let acts = core.add_fifo_delivery(
                c,
                pid(&topo, &[c.index(), 0]),
                suspects,
                &payload,
                payload.fingerprint(),
                &topo,
                &plan,
                &mut scratch,
            );
            advanced |= self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
            blockers.push(core.tracker_index[&(suspects, payload.fingerprint())]);
        }
        let bucket = |core: &RoundCore, bits: u64| {
            core.per_init_paths[3].get(bits).map_or(0, |b| b.waiting.len())
        };
        for &t in &blockers {
            assert!(core.trackers[t].pending > 0, "tracker {t} waits on node 3's value");
            assert_eq!(waiting_on(&core, t), core.trackers[t].pending, "pending lives in buckets");
        }
        let both = core.per_init_paths[3].get(4f64.to_bits()).expect("the bucket was opened");
        assert!(blockers.iter().all(|&t| both.waiting.iter().any(|&(_, w)| w == t)));
        assert!(both.as_slice().is_empty(), "no flood from node 3 yet");

        let suspects = NodeSet::singleton(id(3));
        for c in [id(1), id(2)] {
            let payload = avoiding(suspects, &values);
            for &p in topo.simple_paths_to(id(0)) {
                if index.init(p) != c || index.intersects(p, suspects) {
                    continue;
                }
                let acts = core.add_fifo_delivery(
                    c,
                    p,
                    suspects,
                    &payload,
                    payload.fingerprint(),
                    &topo,
                    &plan,
                    &mut scratch,
                );
                advanced |= self_deliver(&mut core, acts, &topo, &plan, &mut scratch);
            }
        }
        let g = plan.guesses().iter().position(|g| g.guess == suspects).unwrap();
        assert_eq!(core.threads[g].fra_remaining, 0, "FIFO-Receive-All passed for {{3}}");
        assert!(!advanced, "Completeness still blocks Verify");

        // Another value of node 3 feeds another bucket and releases nothing.
        let waiting = bucket(&core, 4f64.to_bits());
        let (_, acts) = core.add_flood(pid(&topo, &[3, 1, 0]), 5.0, &topo, &plan, &mut scratch);
        assert!(!self_deliver(&mut core, acts, &topo, &plan, &mut scratch));
        assert_eq!(bucket(&core, 4f64.to_bits()), waiting);

        let (fresh, acts) = core.add_flood(pid(&topo, &[3, 0]), 4.0, &topo, &plan, &mut scratch);
        assert!(fresh);
        assert!(
            acts.iter()
                .any(|a| matches!(a, RoundAction::Advance { guess, .. } if *guess == suspects)),
            "the escaping flood releases both trackers and the round advances"
        );
        assert!(core.fired());
    }

    #[test]
    fn mc_detection_continues_after_fired() {
        // After the round fires, a still-pending guess whose pool completes
        // must still emit FloodComplete (peer liveness).
        let (topo, plan) = setup(3, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.fired = true; // simulate an already-advanced round
        core.started = true;
        let mut actions = Vec::new();
        core.ingest(topo.index().trivial(id(0)), 1.0, &topo, &plan, &mut actions);
        for &path in topo.required_paths_to(id(0)) {
            if topo.index().is_trivial(path) {
                continue;
            }
            let (fresh, acts) = core.add_flood(path, 1.0, &topo, &plan, &mut scratch);
            assert!(fresh);
            actions.extend(acts);
        }
        assert!(
            actions.iter().any(|a| matches!(a, RoundAction::FloodComplete { .. })),
            "witness flooding must survive round advancement"
        );
        assert!(
            !actions.iter().any(|a| matches!(a, RoundAction::Advance { .. })),
            "a fired round cannot advance again"
        );
    }
}
