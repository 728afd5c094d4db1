//! The pre-columnar, counter-based witness state machine, kept as a
//! differential-testing oracle.
//!
//! This is the implementation the mask-batched
//! [`RoundCore`](dbac_core::witness::RoundCore) replaced: per-guess
//! progress tracked with incremental hash-map counters — a `value_by_init`
//! map per thread for Maximal-Consistency, a `HashSet<(PathId, u64)>`
//! dedup set plus a fingerprint-count map per FIFO-Receive-All witness —
//! updated on every arrival. It follows
//! Algorithm 1 line by line with no precomputed masks, which is exactly
//! what makes it a trustworthy model: the generated-sequence harness and
//! the property tests in `tests/differential_witness.rs` drive both state
//! machines through identical flood/COMPLETE sequences and require
//! identical [`RoundAction`] streams.
//!
//! Test code only — the library carries no second implementation.

use dbac_conditions::cover::has_cover;
use dbac_core::filter::filter_and_average;
use dbac_core::message_set::{CompletePayload, MessageSet};
use dbac_core::precompute::Topology;
use dbac_core::witness::RoundAction;
use dbac_graph::{FastHashMap, NodeId, NodeSet, PathId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Static per-node plan: one entry per fault-set guess excluding the node
/// (the pre-mask design: requirement counts only, no word masks).
#[derive(Debug)]
pub struct NodePlan {
    me: NodeId,
    guesses: Vec<GuessPlan>,
}

/// Precomputed constants for one guess `F_v`.
#[derive(Debug)]
pub struct GuessPlan {
    /// The guessed fault set.
    pub guess: NodeSet,
    /// `reach_me(F_v)`.
    pub reach: NodeSet,
    /// Number of required flood paths (pool paths avoiding the guess).
    pub flood_required: usize,
    /// Per witness `c ∈ reach`: number of simple `(c, me)`-paths inside
    /// the reach set (the FIFO-Receive-All requirement).
    pub fra_required: Vec<(NodeId, usize)>,
}

impl NodePlan {
    /// Builds the plan for node `me`.
    #[must_use]
    pub fn new(topo: &Topology, me: NodeId) -> Self {
        let index = topo.index();
        let simple = topo.simple_paths_to(me);
        let mut guesses = Vec::new();
        for &guess in topo.guesses() {
            if guess.contains(me) {
                continue;
            }
            let reach = topo.reach_of(me, guess);
            let flood_required = index.required_count(guess, me);
            let mut per_c: FastHashMap<NodeId, usize> = FastHashMap::default();
            for &p in simple {
                if index.is_within(p, reach) {
                    *per_c.entry(index.init(p)).or_insert(0) += 1;
                }
            }
            let mut fra_required: Vec<(NodeId, usize)> = per_c.into_iter().collect();
            fra_required.sort_unstable_by_key(|&(c, _)| c);
            guesses.push(GuessPlan { guess, reach, flood_required, fra_required });
        }
        NodePlan { me, guesses }
    }

    /// The per-guess plans.
    #[must_use]
    pub fn guesses(&self) -> &[GuessPlan] {
        &self.guesses
    }
}

struct ThreadState {
    plan_idx: usize,
    consistent: bool,
    value_by_init: FastHashMap<NodeId, u64>,
    flood_remaining: usize,
    mc_fired: bool,
    fra: FastHashMap<NodeId, FraProgress>,
    fra_remaining: usize,
    relevant_trackers: Vec<usize>,
}

/// FIFO-Receive-All progress for one witness. The dedup set and counters
/// are keyed by payload fingerprints — Byzantine-influenced bytes — so they
/// use the seeded default hasher rather than `FastHashMap`.
struct FraProgress {
    required: usize,
    seen: HashSet<(PathId, u64)>,
    counts: HashMap<u64, usize>,
    done: bool,
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

/// Per-round BW state for one node (counter-based oracle).
pub struct RoundCore {
    me: NodeId,
    n: usize,
    f: usize,
    started: bool,
    fired: bool,
    mset: MessageSet,
    // The maps below key on value bits or payload fingerprints — bytes a
    // Byzantine sender chooses — so they use the seeded default hasher.
    paths_by_init_value: HashMap<(NodeId, u64), Vec<NodeSet>>,
    threads: Vec<ThreadState>,
    trackers: Vec<CompletenessTracker>,
    tracker_index: HashMap<(NodeSet, u64), usize>,
    /// (q, value-bits) → obligations waiting on new paths carrying it.
    waiters: HashMap<(NodeId, u64), Vec<(usize, usize)>>,
}

impl RoundCore {
    /// Creates the round state for node `me`, eagerly cloning the plan's
    /// per-guess bookkeeping into fresh hash maps (the allocation pattern
    /// the columnar rewrite removed).
    #[must_use]
    pub fn new(topo: &Topology, plan: &NodePlan) -> Self {
        let threads = plan
            .guesses
            .iter()
            .enumerate()
            .map(|(i, g)| ThreadState {
                plan_idx: i,
                consistent: true,
                value_by_init: FastHashMap::default(),
                flood_remaining: g.flood_required,
                mc_fired: false,
                fra: g
                    .fra_required
                    .iter()
                    .map(|&(c, required)| {
                        (
                            c,
                            FraProgress {
                                required,
                                seen: HashSet::new(),
                                counts: HashMap::new(),
                                done: false,
                            },
                        )
                    })
                    .collect(),
                fra_remaining: g.fra_required.len(),
                relevant_trackers: Vec::new(),
            })
            .collect();
        RoundCore {
            me: plan.me,
            n: topo.graph().node_count(),
            f: topo.f(),
            started: false,
            fired: false,
            mset: MessageSet::new(),
            paths_by_init_value: HashMap::new(),
            threads,
            trackers: Vec::new(),
            tracker_index: HashMap::new(),
            waiters: HashMap::new(),
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
    pub fn start(&mut self, value: f64, topo: &Topology, plan: &NodePlan) -> Vec<RoundAction> {
        debug_assert!(!self.started, "round started twice");
        self.started = true;
        let mut actions = Vec::new();
        self.ingest(topo.index().trivial(self.me), value, topo, plan, &mut actions);
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
    ) -> (bool, Vec<RoundAction>) {
        if self.mset.contains_path(stored) {
            return (false, Vec::new());
        }
        let mut actions = Vec::new();
        self.ingest(stored, value, topo, plan, &mut actions);
        self.check_progress(topo, plan, &mut actions);
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
        let index = topo.index();
        let node_set = index.node_set(stored);
        let init = index.init(stored);
        let bits = value.to_bits();
        let inserted = self.mset.insert(stored, value);
        debug_assert!(inserted, "caller checked freshness");

        if !self.fired {
            // Feed Completeness obligations (Algorithm 2, incremental).
            self.paths_by_init_value.entry((init, bits)).or_default().push(node_set);
            if let Some(waiting) = self.waiters.get(&(init, bits)) {
                let waiting = waiting.clone();
                let paths = self.paths_by_init_value[&(init, bits)].clone();
                for (t_idx, o_idx) in waiting {
                    let tracker = &mut self.trackers[t_idx];
                    let ob = &mut tracker.obligations[o_idx];
                    debug_assert_eq!((ob.q, ob.xq_bits), (init, bits), "waiter key mismatch");
                    if ob.satisfied {
                        continue;
                    }
                    let allowed =
                        NodeSet::universe(self.n) - ob.component - NodeSet::singleton(self.me);
                    if !has_cover(&paths, self.f, allowed) {
                        ob.satisfied = true;
                        tracker.pending -= 1;
                    }
                }
            }
        }

        // Maximal-Consistency tracking — continues after `fired` (other
        // nodes depend on our COMPLETE witnesses). Incremental: one
        // disjointness test and one `value_by_init` hash-map probe per
        // thread per arrival.
        for thread in &mut self.threads {
            if thread.mc_fired {
                continue;
            }
            let gp = &plan.guesses[thread.plan_idx];
            if !node_set.is_disjoint(gp.guess) {
                continue;
            }
            thread.flood_remaining -= 1;
            if thread.consistent {
                match thread.value_by_init.entry(init) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(bits);
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != bits {
                            thread.consistent = false;
                        }
                    }
                }
            }
            if thread.consistent && thread.flood_remaining == 0 {
                thread.mc_fired = true;
                let payload = Arc::new(CompletePayload::from_message_set(
                    &self.mset.exclusion(gp.guess, index),
                ));
                actions.push(RoundAction::FloodComplete { guess: gp.guess, payload });
            }
        }
    }

    /// Records a FIFO-received `COMPLETE` (including the node's own, via
    /// the trivial path).
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
    ) -> Vec<RoundAction> {
        let mut actions = Vec::new();
        if self.fired {
            return actions;
        }
        let tracker_idx = self.obtain_tracker(suspects, payload, fingerprint, topo);
        let path_nodes = topo.index().node_set(delivery_path);

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
            if suspects == gp.guess {
                if let Some(progress) = thread.fra.get_mut(&initiator) {
                    if !progress.done && progress.seen.insert((delivery_path, fingerprint)) {
                        let count = progress.counts.entry(fingerprint).or_insert(0);
                        *count += 1;
                        if *count == progress.required {
                            progress.done = true;
                            thread.fra_remaining -= 1;
                        }
                    }
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
                let already = self
                    .paths_by_init_value
                    .get(&(q, xq_bits))
                    .is_some_and(|paths| !has_cover(paths, self.f, allowed));
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

    fn check_progress(&mut self, topo: &Topology, plan: &NodePlan, actions: &mut Vec<RoundAction>) {
        if self.fired || !self.started {
            return;
        }
        for thread in &self.threads {
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
            actions
                .push(RoundAction::Advance { guess: plan.guesses[thread.plan_idx].guess, outcome });
            return;
        }
    }
}
