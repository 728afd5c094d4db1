//! Deterministic link-level fault injection (the chaos layer).
//!
//! Node faults (crash, Byzantine) live in the protocol layer; this module
//! models faults on *edges* — the lossy/duplicating/reordering links of
//! Tseng–Vaidya's link-failure model (arXiv 1401.6615). A [`LinkFaultPlan`]
//! is a seeded, per-edge fault schedule whose every decision is a **pure
//! function** of `(plan seed, edge, per-edge message index)`. Every driver
//! consults it at one place — the fleet's send gate — so the fate of the
//! k-th message on edge `(u, v)` is identical under the discrete-event
//! simulator, the thread-per-node runtime and the network runtime — the
//! cross-runtime differential extends to chaos scenarios.
//!
//! Statelessness is what buys determinism: no RNG stream is advanced when a
//! decision is taken, so a plan whose probabilities are all zero perturbs
//! nothing and yields bit-identical executions to a run with no plan at all.

use dbac_graph::NodeId;
use std::collections::HashMap;

/// One fault behaviour on one directed edge.
///
/// Probabilities are per-message and must lie in `[0, 1]`; steps count
/// messages on that edge (0-based), not rounds or wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFault {
    /// Each message on the edge vanishes independently with probability
    /// `prob`.
    Drop {
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
    },
    /// Each message on the edge is delivered twice with probability `prob`.
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Each message on the edge is held back by a pseudo-random extra delay
    /// drawn uniformly from `0..=window` (virtual ticks under the
    /// simulator, microseconds under the threaded runtime).
    Reorder {
        /// Maximum extra delay; 0 disables the fault.
        window: u64,
    },
    /// Each message on the edge is damaged in flight with probability
    /// `prob`; receivers detect the damage (checksums) and discard the
    /// message, so a corruption is an attributable drop.
    Corrupt {
        /// Per-message corruption probability in `[0, 1]`.
        prob: f64,
    },
    /// The edge is cut for messages `from_step..to_step` (by per-edge
    /// message index): the k-th message on the edge is dropped iff
    /// `from_step <= k < to_step`.
    Partition {
        /// First message index affected.
        from_step: u64,
        /// First message index no longer affected.
        to_step: u64,
    },
    /// The edge never delivers anything — a permanent cut.
    Omit,
}

impl LinkFault {
    /// Short display label, for sweep axes and error messages.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            LinkFault::Drop { .. } => "drop",
            LinkFault::Duplicate { .. } => "duplicate",
            LinkFault::Reorder { .. } => "reorder",
            LinkFault::Corrupt { .. } => "corrupt",
            LinkFault::Partition { .. } => "partition",
            LinkFault::Omit => "omit",
        }
    }
}

/// What happens to one concrete message after the plan is consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDecision {
    /// How many copies to deliver: 0 = dropped, 1 = normal, 2+ = duplicated.
    pub copies: u32,
    /// True when a zero-copy decision came from [`LinkFault::Corrupt`]
    /// rather than a loss fault (the two are counted separately).
    pub corrupted: bool,
    /// Extra delivery delay from [`LinkFault::Reorder`] (ticks / µs).
    pub extra_delay: u64,
}

impl LinkDecision {
    /// The undisturbed decision: one copy, no damage, no extra delay.
    pub const CLEAN: LinkDecision = LinkDecision { copies: 1, corrupted: false, extra_delay: 0 };

    const DROPPED: LinkDecision = LinkDecision { copies: 0, corrupted: false, extra_delay: 0 };
    const CORRUPTED: LinkDecision = LinkDecision { copies: 0, corrupted: true, extra_delay: 0 };
}

/// A seeded, deterministic schedule of link faults.
///
/// Build one with [`LinkFaultPlan::new`] and chain [`fault`](Self::fault)
/// calls; attach it to a `Scenario` (or directly to a runtime) and every
/// message crossing a faulted edge is judged by [`decide`](Self::decide).
/// Faults on the same edge apply in declaration order; the first fault that
/// destroys the message wins and later faults are not consulted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkFaultPlan {
    seed: u64,
    budget: Option<usize>,
    faults: Vec<(NodeId, NodeId, LinkFault)>,
}

impl LinkFaultPlan {
    /// Creates an empty plan whose decisions derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        LinkFaultPlan { seed, budget: None, faults: Vec::new() }
    }

    /// Adds `fault` on the directed edge `from -> to` (chainable).
    #[must_use]
    pub fn fault(mut self, from: NodeId, to: NodeId, fault: LinkFault) -> Self {
        self.faults.push((from, to, fault));
        self
    }

    /// Caps the number of *distinct edges* the plan may touch; validation
    /// layers reject plans exceeding it (chainable).
    #[must_use]
    pub fn with_budget(mut self, edges: usize) -> Self {
        self.budget = Some(edges);
        self
    }

    /// The decision seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The declared edge budget, if any.
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The declared faults, in declaration order.
    #[must_use]
    pub fn faults(&self) -> &[(NodeId, NodeId, LinkFault)] {
        &self.faults
    }

    /// True when no fault is declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of distinct edges named by the plan.
    #[must_use]
    pub fn distinct_edges(&self) -> usize {
        let mut edges: Vec<(usize, usize)> =
            self.faults.iter().map(|(u, v, _)| (u.index(), v.index())).collect();
        edges.sort_unstable();
        edges.dedup();
        edges.len()
    }

    /// Judges the `k`-th message on edge `from -> to`.
    ///
    /// Pure in `(self, from, to, k)`: no internal state advances, so every
    /// runtime (and every replay) reaches identical verdicts.
    #[must_use]
    pub fn decide(&self, from: NodeId, to: NodeId, k: u64) -> LinkDecision {
        let mut copies: u32 = 1;
        let mut extra_delay: u64 = 0;
        for (idx, (u, v, fault)) in self.faults.iter().enumerate() {
            if *u != from || *v != to {
                continue;
            }
            // Each fault instance gets its own decision stream: the salt
            // folds in both the fault kind and its position in the plan.
            let salt = |kind: u64| (kind << 32) | idx as u64;
            match fault {
                LinkFault::Omit => return LinkDecision::DROPPED,
                LinkFault::Partition { from_step, to_step } => {
                    if (*from_step..*to_step).contains(&k) {
                        return LinkDecision::DROPPED;
                    }
                }
                LinkFault::Drop { prob } => {
                    if unit_f64(edge_word(self.seed, from, to, k, salt(SALT_DROP))) < *prob {
                        return LinkDecision::DROPPED;
                    }
                }
                LinkFault::Corrupt { prob } => {
                    if unit_f64(edge_word(self.seed, from, to, k, salt(SALT_CORRUPT))) < *prob {
                        return LinkDecision::CORRUPTED;
                    }
                }
                LinkFault::Duplicate { prob } => {
                    if unit_f64(edge_word(self.seed, from, to, k, salt(SALT_DUP))) < *prob {
                        copies = copies.saturating_add(1);
                    }
                }
                LinkFault::Reorder { window } => {
                    if *window > 0 {
                        let draw = edge_word(self.seed, from, to, k, salt(SALT_REORDER));
                        extra_delay = extra_delay.saturating_add(draw % (window + 1));
                    }
                }
            }
        }
        LinkDecision { copies, corrupted: false, extra_delay }
    }
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_CORRUPT: u64 = 3;
const SALT_REORDER: u64 = 4;

/// splitmix64 finalizer — the same mixer the workspace's `SmallRng` uses.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The decision word for message `k` on `from -> to` under `salt`.
fn edge_word(seed: u64, from: NodeId, to: NodeId, k: u64, salt: u64) -> u64 {
    let edge = ((from.index() as u64) << 32) | (to.index() as u64 & 0xFFFF_FFFF);
    mix64(mix64(mix64(seed ^ edge) ^ k) ^ salt)
}

/// Maps a decision word onto `[0, 1)` with 53 bits of precision.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-edge message counters: assigns each send on `(from, to)` its index
/// `k` in send order. Each send gate keeps its own instance; because an
/// edge has exactly one sender, per-sender counting under the wall-clock
/// driver agrees with the simulator's global counting.
#[derive(Clone, Debug, Default)]
pub struct EdgeCounters {
    counts: HashMap<(usize, usize), u64>,
}

impl EdgeCounters {
    /// Creates an empty counter table.
    #[must_use]
    pub fn new() -> Self {
        EdgeCounters::default()
    }

    /// Returns the index of the next message on `from -> to` and advances
    /// the counter.
    pub fn next(&mut self, from: NodeId, to: NodeId) -> u64 {
        let slot = self.counts.entry((from.index(), to.index())).or_insert(0);
        let k = *slot;
        *slot += 1;
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let plan = LinkFaultPlan::new(7).fault(id(0), id(1), LinkFault::Drop { prob: 0.5 });
        let a: Vec<_> = (0..64).map(|k| plan.decide(id(0), id(1), k)).collect();
        let b: Vec<_> = (0..64).map(|k| plan.decide(id(0), id(1), k)).collect();
        assert_eq!(a, b, "same (plan, k) must decide identically");
        let other = LinkFaultPlan::new(8).fault(id(0), id(1), LinkFault::Drop { prob: 0.5 });
        let c: Vec<_> = (0..64).map(|k| other.decide(id(0), id(1), k)).collect();
        assert_ne!(a, c, "a different seed must give a different schedule");
    }

    #[test]
    fn untouched_edges_are_clean() {
        let plan = LinkFaultPlan::new(1).fault(id(0), id(1), LinkFault::Omit);
        assert_eq!(plan.decide(id(1), id(0), 0), LinkDecision::CLEAN);
        assert_eq!(plan.decide(id(2), id(3), 9), LinkDecision::CLEAN);
    }

    #[test]
    fn zero_probabilities_change_nothing() {
        let plan = LinkFaultPlan::new(3)
            .fault(id(0), id(1), LinkFault::Drop { prob: 0.0 })
            .fault(id(0), id(1), LinkFault::Duplicate { prob: 0.0 })
            .fault(id(0), id(1), LinkFault::Corrupt { prob: 0.0 })
            .fault(id(0), id(1), LinkFault::Reorder { window: 0 })
            .fault(id(0), id(1), LinkFault::Partition { from_step: 5, to_step: 5 });
        for k in 0..256 {
            assert_eq!(plan.decide(id(0), id(1), k), LinkDecision::CLEAN);
        }
    }

    #[test]
    fn certain_faults_always_fire() {
        let drop = LinkFaultPlan::new(1).fault(id(0), id(1), LinkFault::Drop { prob: 1.0 });
        let dup = LinkFaultPlan::new(1).fault(id(0), id(1), LinkFault::Duplicate { prob: 1.0 });
        let corrupt = LinkFaultPlan::new(1).fault(id(0), id(1), LinkFault::Corrupt { prob: 1.0 });
        for k in 0..64 {
            assert_eq!(drop.decide(id(0), id(1), k).copies, 0);
            assert_eq!(dup.decide(id(0), id(1), k).copies, 2);
            let c = corrupt.decide(id(0), id(1), k);
            assert!(c.copies == 0 && c.corrupted);
        }
    }

    #[test]
    fn partition_window_is_half_open() {
        let plan = LinkFaultPlan::new(1).fault(
            id(0),
            id(1),
            LinkFault::Partition { from_step: 2, to_step: 4 },
        );
        let fates: Vec<u32> = (0..6).map(|k| plan.decide(id(0), id(1), k).copies).collect();
        assert_eq!(fates, vec![1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn omit_kills_every_message() {
        let plan = LinkFaultPlan::new(1).fault(id(0), id(1), LinkFault::Omit);
        assert!((0..128).all(|k| plan.decide(id(0), id(1), k).copies == 0));
    }

    #[test]
    fn first_destroying_fault_wins() {
        let plan = LinkFaultPlan::new(1).fault(id(0), id(1), LinkFault::Drop { prob: 1.0 }).fault(
            id(0),
            id(1),
            LinkFault::Corrupt { prob: 1.0 },
        );
        let d = plan.decide(id(0), id(1), 0);
        assert!(d.copies == 0 && !d.corrupted, "the drop fired before the corruption");
    }

    #[test]
    fn reorder_draws_stay_in_window() {
        let plan = LinkFaultPlan::new(9).fault(id(0), id(1), LinkFault::Reorder { window: 5 });
        let delays: Vec<u64> = (0..256).map(|k| plan.decide(id(0), id(1), k).extra_delay).collect();
        assert!(delays.iter().all(|&d| d <= 5));
        assert!(delays.iter().any(|&d| d > 0), "a 256-draw run should hit the window");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = LinkFaultPlan::new(42).fault(id(0), id(1), LinkFault::Drop { prob: 0.3 });
        let dropped =
            (0..10_000).filter(|&k| plan.decide(id(0), id(1), k).copies == 0).count() as f64;
        let rate = dropped / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "empirical drop rate {rate} far from 0.3");
    }

    #[test]
    fn distinct_edges_deduplicates() {
        let plan = LinkFaultPlan::new(1)
            .fault(id(0), id(1), LinkFault::Omit)
            .fault(id(0), id(1), LinkFault::Drop { prob: 0.5 })
            .fault(id(1), id(2), LinkFault::Omit);
        assert_eq!(plan.distinct_edges(), 2);
    }

    #[test]
    fn edge_counters_count_per_edge() {
        let mut counters = EdgeCounters::new();
        assert_eq!(counters.next(id(0), id(1)), 0);
        assert_eq!(counters.next(id(0), id(1)), 1);
        assert_eq!(counters.next(id(1), id(0)), 0, "the reverse edge counts separately");
        assert_eq!(counters.next(id(0), id(1)), 2);
    }
}
