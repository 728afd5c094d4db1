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
//!   at all in an honest round. The `COMPLETE` payload is gathered by the
//!   same masked walk — no intermediate excluded `MessageSet` clone.
//! * **FRA slot masks** — the simple paths ending at `me` get a dense
//!   *slot* renumbering; per `(guess, witness c)` the plan holds the slot
//!   bitmap of the simple `(c, me)`-paths inside `reach_me(F̄v)`.
//!   FIFO-Receive-All progress for one payload fingerprint is a slot
//!   bitmap (test-and-set dedup, replacing a `HashSet<(PathId, u64)>`)
//!   plus a countdown of the mask popcount (replacing a fingerprint-count
//!   hash map).
//!
//! The Completeness path sets of Algorithm 2 (`M'`, consumed by
//! `has_cover`) are likewise kept off the hash path: an array indexed by
//! initiator holding small per-value buckets — one index plus a one-entry
//! linear probe per arrival, hashing of the Byzantine-influenced value
//! bits happens only in the rare waiter-wakeup path.
//!
//! Per-round state is therefore plain counters, bitmaps and buckets:
//! [`RoundCore::new`] allocates nothing, thread state materializes lazily
//! behind the first flood/start, and the FRA bitmaps are drawn from a
//! [`WitnessScratch`] column pool owned by the node (allocated once in
//! `HonestNode`, recycled as witnesses complete) instead of re-allocating
//! hash maps in every round.
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
            guesses.push(GuessPlan { guess, reach, flood_required, avoid_words, fra_witnesses });
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
            .all(|q| self.initiator_consistent(guess_idx, NodeId::new(q), mset));
        McStatus { full, consistent }
    }

    /// Consistency of initiator `q`'s slice of `M|_F̄v`: the masked scan
    /// restricted to one init slice — the per-completion check for
    /// initiators the round-global census flagged as equivocating.
    pub(crate) fn initiator_consistent(
        &self,
        guess_idx: usize,
        q: NodeId,
        mset: &MessageSet,
    ) -> bool {
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
                    Some(b) if b != bits => return false,
                    Some(_) => {}
                }
            }
        }
        true
    }

    /// Number of nodes in the plan's network.
    pub(crate) fn node_count(&self) -> usize {
        self.init_slices.len()
    }

    /// Gathers the `COMPLETE` payload entries `M|_F̄v` by the same masked
    /// walk, in canonical id order — no excluded-set clone.
    pub(crate) fn gather_avoiding(
        &self,
        guess_idx: usize,
        mset: &MessageSet,
    ) -> Vec<(PathId, f64)> {
        let gp = &self.guesses[guess_idx];
        let mut out = Vec::with_capacity(gp.flood_required);
        for w in 0..self.mask_words {
            let mut hits = mset.present_word(self.word_base + w) & gp.avoid_words[w];
            while hits != 0 {
                let id = (self.word_base + w) * 64 + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                out.push((PathId::from_raw(id as u32), mset.value_at(id)));
            }
        }
        out
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

/// The reusable scratch column set of one node: a pool of FRA slot
/// columns shared by every round's witness threads. Allocated once (in
/// `HonestNode`), handed to [`RoundCore::add_fifo_delivery`], and refilled
/// as witnesses complete — per-round state machines allocate no hash maps
/// and no per-round column storage of their own.
#[derive(Debug, Default)]
pub struct WitnessScratch {
    columns: Vec<Vec<u64>>,
    /// Fresh FRA `(path, fingerprint)` marks recorded since the owner
    /// last drained this counter into its stats handle.
    pub fra_marks: u64,
    /// FIFO-Receive-All witnesses completed since the owner last
    /// drained this counter into its stats handle.
    pub witness_completions: u64,
}

impl WitnessScratch {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        WitnessScratch::default()
    }

    /// Takes a zeroed column of `words` words from the pool (allocating
    /// only when the pool is dry).
    fn take_column(&mut self, words: usize) -> Vec<u64> {
        match self.columns.pop() {
            Some(mut col) => {
                col.clear();
                col.resize(words, 0);
                col
            }
            None => vec![0u64; words],
        }
    }

    /// Pool size cap: safely above the honest high-water mark (in-flight
    /// columns ≈ active rounds × guesses × witnesses), so a Byzantine
    /// distinct-fingerprint burst cannot pin its peak allocation in the
    /// pool for the node's lifetime.
    const MAX_POOLED: usize = 256;

    /// Returns a column to the pool (dropped once the pool is full).
    fn recycle(&mut self, col: Vec<u64>) {
        if self.columns.len() < Self::MAX_POOLED {
            self.columns.push(col);
        }
    }

    /// Number of pooled columns (observability for tests).
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.columns.len()
    }
}

/// Per-guess witness-thread state: plain counters — every requirement is a
/// countdown of a precomputed mask popcount.
struct ThreadState {
    plan_idx: usize,
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
    /// Slot bitmap of the delivery paths seen under this fingerprint —
    /// a column borrowed from the node's [`WitnessScratch`].
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

    fn get(&self, key: u64) -> Option<&V> {
        self.position(key).map(|i| &self.entries[i].1)
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

    /// Takes every slot, leaving the container empty (index dropped).
    fn take_entries(&mut self) -> Vec<(u64, V)> {
        self.index = None;
        std::mem::take(&mut self.entries)
    }

    /// Test observability: whether any slot is live.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

struct Obligation {
    component: NodeSet,
    q: NodeId,
    xq_bits: u64,
    satisfied: bool,
}

struct CompletenessTracker {
    consistent: bool,
    impossible: bool,
    pending: usize,
    obligations: Vec<Obligation>,
}

impl CompletenessTracker {
    /// A tracker blocks Verify iff its payload is consistent (inconsistent
    /// ones are skipped per Algorithm 1 line 24) but Completeness fails.
    fn blocking(&self) -> bool {
        self.consistent && (self.impossible || self.pending > 0)
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
    /// equivocation): the `M'` sets Algorithm 2's `has_cover` checks read.
    /// An array index plus a spill-guarded probe per arrival — honest
    /// traffic never hashes its Byzantine-influenced value bits, and a
    /// distinct-value flood degrades to the seeded hash map, not to a
    /// linear scan.
    per_init_paths: Vec<SpillSlots<Vec<NodeSet>>>,
    /// Witness threads; empty until the first flood/start materializes
    /// them (rounds that only ever see late COMPLETE witnesses after
    /// firing never pay for construction).
    threads: Vec<ThreadState>,
    threads_ready: bool,
    trackers: Vec<CompletenessTracker>,
    // The maps below key on value bits or payload fingerprints — bytes a
    // Byzantine sender chooses — so they use the seeded default hasher.
    tracker_index: HashMap<(NodeSet, u64), usize>,
    /// (q, value-bits) → obligations waiting on new paths carrying it.
    waiters: HashMap<(NodeId, u64), Vec<(usize, usize)>>,
}

impl RoundCore {
    /// Creates the round state for node `me`. O(1): thread state is
    /// constructed lazily on first use, and even then holds only counters
    /// (the plan owns every mask).
    #[must_use]
    pub fn new(topo: &Topology, plan: &NodePlan) -> Self {
        RoundCore {
            me: plan.me,
            n: topo.graph().node_count(),
            f: topo.f(),
            started: false,
            fired: false,
            mset: MessageSet::new(),
            value_by_init: Vec::new(),
            dirty: NodeSet::EMPTY,
            per_init_paths: Vec::new(),
            threads: Vec::new(),
            threads_ready: false,
            trackers: Vec::new(),
            tracker_index: HashMap::new(),
            waiters: HashMap::new(),
        }
    }

    /// Materializes the witness threads (idempotent).
    fn ensure_threads(&mut self, plan: &NodePlan) {
        if self.threads_ready {
            return;
        }
        self.threads_ready = true;
        self.value_by_init = vec![None; plan.node_count()];
        self.per_init_paths = (0..plan.node_count()).map(|_| SpillSlots::new()).collect();
        self.threads = plan
            .guesses
            .iter()
            .enumerate()
            .map(|(i, g)| ThreadState {
                plan_idx: i,
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
        scratch: &mut WitnessScratch,
    ) -> Vec<RoundAction> {
        debug_assert!(!self.started, "round started twice");
        self.started = true;
        let mut actions = Vec::new();
        self.ingest(topo.index().trivial(self.me), value, topo, plan, &mut actions);
        self.check_progress(topo, plan, scratch, &mut actions);
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
        scratch: &mut WitnessScratch,
    ) -> (bool, Vec<RoundAction>) {
        if self.mset.contains_path(stored) {
            return (false, Vec::new());
        }
        let mut actions = Vec::new();
        self.ingest(stored, value, topo, plan, &mut actions);
        self.check_progress(topo, plan, scratch, &mut actions);
        (true, actions)
    }

    fn ingest(
        &mut self,
        stored: PathId,
        value: f64,
        topo: &Topology,
        plan: &NodePlan,
        actions: &mut Vec<RoundAction>,
    ) {
        self.ensure_threads(plan);
        let index = topo.index();
        let init = index.init(stored);
        let bits = value.to_bits();
        let inserted = self.mset.insert(stored, value);
        debug_assert!(inserted, "caller checked freshness");

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
            // never hash their Byzantine-influenced value bits.
            let node_set = index.node_set(stored);
            self.per_init_paths[init.index()].entry_or_insert_with(bits, Vec::new).push(node_set);
            // Wake obligations waiting on (init, bits); an arrival pays the
            // waiter-map hash only while an obligation is actually pending.
            if !self.waiters.is_empty() {
                if let Some(waiting) = self.waiters.get(&(init, bits)) {
                    let waiting = waiting.clone();
                    let paths =
                        self.per_init_paths[init.index()].get(bits).map_or(&[][..], |b| &b[..]);
                    for (t_idx, o_idx) in waiting {
                        let tracker = &mut self.trackers[t_idx];
                        let ob = &mut tracker.obligations[o_idx];
                        debug_assert_eq!((ob.q, ob.xq_bits), (init, bits), "waiter key mismatch");
                        if ob.satisfied {
                            continue;
                        }
                        let allowed =
                            NodeSet::universe(self.n) - ob.component - NodeSet::singleton(self.me);
                        if !has_cover(paths, self.f, allowed) {
                            ob.satisfied = true;
                            tracker.pending -= 1;
                        }
                    }
                }
            }
        }

        // Maximal-Consistency census — continues after `fired` (other
        // nodes depend on our COMPLETE witnesses). One precomputed-mask
        // bit probe per thread; the consistency scan runs only at the
        // arrival that completes a pool, and only over the initiators the
        // global census flagged as equivocating.
        let (word, bit) = plan.mask_bit_of(stored);
        for thread in &mut self.threads {
            if thread.mc_fired || thread.mc_dead {
                continue;
            }
            let gp = &plan.guesses[thread.plan_idx];
            if gp.avoid_words[word] & bit == 0 {
                continue;
            }
            thread.flood_remaining -= 1;
            if thread.flood_remaining > 0 {
                continue;
            }
            // Pool complete: scan the dirty initiators' slices (clean
            // initiators cannot break consistency of a sub-history).
            let consistent = self
                .dirty
                .iter()
                .all(|q| plan.initiator_consistent(thread.plan_idx, q, &self.mset));
            if consistent {
                thread.mc_fired = true;
                let payload = Arc::new(CompletePayload::from_entries(
                    plan.gather_avoiding(thread.plan_idx, &self.mset),
                ));
                actions.push(RoundAction::FloodComplete { guess: gp.guess, payload });
            } else {
                thread.mc_dead = true;
            }
        }
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
        self.ensure_threads(plan);
        let tracker_idx = self.obtain_tracker(suspects, payload, fingerprint, topo);
        let path_nodes = topo.index().node_set(delivery_path);
        let slot = plan.fra_slot_of(delivery_path);
        debug_assert!(slot.is_some(), "delivery paths are simple paths ending at me");

        for thread in &mut self.threads {
            let gp = &plan.guesses[thread.plan_idx];
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
                seen: scratch.take_column(plan.fra_slot_words),
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
                    for (_, fp) in state.by_fp.take_entries() {
                        scratch.recycle(fp.seen);
                    }
                }
            }
        }
        self.check_progress(topo, plan, scratch, &mut actions);
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
        let consistent = payload.is_consistent(topo.index());
        let mut tracker = CompletenessTracker {
            consistent,
            impossible: false,
            pending: 0,
            obligations: Vec::new(),
        };
        let idx = self.trackers.len();
        if consistent {
            for &(component, q) in topo.completeness_obligations(suspects) {
                let Some(xq) = payload.value_of(q, topo.index()) else {
                    tracker.impossible = true;
                    continue;
                };
                let xq_bits = xq.to_bits();
                let allowed = NodeSet::universe(self.n) - component - NodeSet::singleton(self.me);
                let paths = self
                    .per_init_paths
                    .get(q.index())
                    .and_then(|buckets| buckets.get(xq_bits))
                    .map_or(&[][..], |b| &b[..]);
                let already = !has_cover(paths, self.f, allowed);
                let o_idx = tracker.obligations.len();
                tracker.obligations.push(Obligation { component, q, xq_bits, satisfied: already });
                if !already {
                    tracker.pending += 1;
                    self.waiters.entry((q, xq_bits)).or_default().push((idx, o_idx));
                }
            }
        }
        self.trackers.push(tracker);
        self.tracker_index.insert((suspects, fingerprint), idx);
        idx
    }

    fn check_progress(
        &mut self,
        topo: &Topology,
        plan: &NodePlan,
        scratch: &mut WitnessScratch,
        actions: &mut Vec<RoundAction>,
    ) {
        if self.fired || !self.started {
            return;
        }
        for t in 0..self.threads.len() {
            let thread = &self.threads[t];
            if thread.fra_remaining != 0 {
                continue;
            }
            if thread.relevant_trackers.iter().any(|&t| self.trackers[t].blocking()) {
                continue;
            }
            let winner = thread.plan_idx;
            // Verify passed: Filter-and-Average, once per round.
            let outcome = filter_and_average(&self.mset, self.f, self.me, self.n, topo.index())
                .expect("own trivial path keeps the trimmed vector non-empty");
            self.fired = true;
            // FIFO-Receive-All bookkeeping is dead once the round fired
            // (deliveries return early): every in-flight fingerprint
            // column goes back to the node's pool, not just the ones
            // whose witness completed.
            for thread in &mut self.threads {
                for state in &mut thread.fra {
                    for (_, fp) in state.by_fp.take_entries() {
                        scratch.recycle(fp.seen);
                    }
                }
            }
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
    fn gather_matches_exclusion_payload() {
        let (topo, plan) = setup(4, 1);
        let index = topo.index();
        let mut m = MessageSet::new();
        for &p in topo.required_paths_to(id(0)) {
            m.insert(p, index.init(p).index() as f64);
        }
        for (i, gp) in plan.guesses().iter().enumerate() {
            let gathered = CompletePayload::from_entries(plan.gather_avoiding(i, &m));
            let excluded = CompletePayload::from_message_set(&m.exclusion(gp.guess, index));
            assert_eq!(gathered, excluded, "guess {:?}", gp.guess);
            assert_eq!(gathered.fingerprint(), excluded.fingerprint());
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
    fn thread_state_is_lazy_until_first_use() {
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        assert!(core.threads.is_empty(), "construction allocates no thread state");
        // A fired round receiving a late COMPLETE never materializes.
        core.fired = true;
        let payload = Arc::new(CompletePayload::from_message_set(&MessageSet::new()));
        let fp = payload.fingerprint();
        let mut scratch = WitnessScratch::new();
        core.add_fifo_delivery(
            id(0),
            topo.index().trivial(id(0)),
            NodeSet::EMPTY,
            &payload,
            fp,
            &topo,
            &plan,
            &mut scratch,
        );
        assert!(core.threads.is_empty(), "late COMPLETEs skip thread construction");
        // The first flood materializes.
        core.fired = false;
        core.start(1.0, &topo, &plan, &mut scratch);
        assert_eq!(core.threads.len(), plan.guesses().len());
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
                assert_eq!(payload.len(), topo.required_paths_to(id(0)).len());
                assert!(payload.is_consistent(topo.index()));
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
        // all their pool paths). Build each peer's payload from its pool.
        for c in [id(1), id(2)] {
            let mut m = MessageSet::new();
            for &path in topo.required_paths_to(c) {
                m.insert(path, values[topo.index().init(path).index()]);
            }
            let payload = Arc::new(CompletePayload::from_message_set(&m));
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
        // Completed witnesses returned their fingerprint columns, and
        // firing drained every in-flight column back to the pool.
        assert!(scratch.pooled() > 0, "done witnesses recycle their columns");
        assert!(
            core.threads.iter().all(|t| t.fra.iter().all(|s| s.by_fp.is_empty())),
            "firing returns every in-flight FRA column to the pool"
        );
    }

    #[test]
    fn inconsistent_complete_payloads_never_block_verify() {
        // Algorithm 1 line 24: only *consistent* M_c impose Completeness
        // conjuncts; a tampered, self-contradicting payload is ignored.
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(1.0, &topo, &plan, &mut scratch);
        let mut m = MessageSet::new();
        m.insert(pid(&topo, &[1, 0]), 3.0);
        m.insert(pid(&topo, &[1, 2, 0]), 9.0); // equivocation
        let payload = Arc::new(CompletePayload::from_message_set(&m));
        assert!(!payload.is_consistent(topo.index()));
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
        assert!(!core.trackers[0].blocking(), "inconsistent payloads are skipped");
    }

    #[test]
    fn missing_source_value_blocks_forever() {
        // A consistent payload that lacks a source-component value can
        // never pass Completeness: M' stays empty, the empty f-cover
        // exists, output is false (Algorithm 2).
        let (topo, plan) = setup(4, 1);
        let mut core = RoundCore::new(&topo, &plan);
        let mut scratch = WitnessScratch::new();
        core.start(1.0, &topo, &plan, &mut scratch);
        // Payload with a single entry from node 1 — nodes 2 and 3 are in
        // source components of some (F_u, F_w) pair but absent here.
        let mut m = MessageSet::new();
        m.insert(pid(&topo, &[1, 0]), 3.0);
        let payload = Arc::new(CompletePayload::from_message_set(&m));
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
        let mut m = MessageSet::new();
        m.insert(pid(&topo, &[1, 0]), 3.0);
        let payload = Arc::new(CompletePayload::from_message_set(&m));
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
            assert_eq!(paths.len(), 1);
        }
        assert!(core.dirty.contains(id(1)), "distinct values flag the initiator dirty");

        // Distinct payload fingerprint per COMPLETE from witness 1 over
        // one delivery path (spills the fingerprint slots; none completes).
        let delivery = pid(&topo, &[1, 0]);
        for fp in 0..16u64 {
            let mut m = MessageSet::new();
            m.insert(delivery, fp as f64);
            let payload = Arc::new(CompletePayload::from_message_set(&m));
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
        let empty_thread =
            core.threads.iter().find(|t| plan.guesses()[t.plan_idx].guess.is_empty()).unwrap();
        let w1 = plan.guesses()[empty_thread.plan_idx]
            .fra_witnesses()
            .iter()
            .position(|w| w.c == id(1))
            .unwrap();
        let state = &empty_thread.fra[w1];
        assert!(!state.done, "one path per fingerprint cannot complete the witness");
        assert!(state.by_fp.index.is_some(), "fingerprint slots spilled to the hash index");
        assert!(state.by_fp.get(0).is_none(), "only seen fingerprints have slots");
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
