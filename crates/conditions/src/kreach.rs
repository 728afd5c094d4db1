//! The k-reach condition family (Definitions 3 and 20).
//!
//! * **1-reach** — tight for synchronous *crash* exact consensus.
//! * **2-reach** — tight for asynchronous *crash* approximate consensus.
//! * **3-reach** — tight for synchronous *Byzantine* exact consensus and —
//!   the paper's main result (Theorem 4) — for asynchronous *Byzantine*
//!   approximate consensus.
//!
//! The general family (Definition 20 as printed) is inconsistent with
//! Definition 3 at `k ∈ {2, 3}`; we implement the evident intent that makes
//! the family extend Definition 3: per side, `⌊k/2⌋` suspect sets of size
//! `≤ f` each, plus a *common* set `F` (`|F| ≤ f`) when `k` is odd. In a
//! clique this yields the classical `n > kf` for `k ≥ 2` (Appendix A).
//! [`one_reach`], [`two_reach`] and [`three_reach`] are [`k_reach`] at
//! `k = 1, 2, 3`.

use crate::reach::ReachCache;
use dbac_graph::subsets::SubsetsUpTo;
use dbac_graph::{Digraph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A concrete counterexample to a reach condition: the pair of nodes whose
/// surviving influence sets are disjoint, and the removal sets achieving it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachViolation {
    /// First node (the paper's `u`).
    pub u: NodeId,
    /// Second node (the paper's `v`).
    pub v: NodeId,
    /// The common suspect set `F` (empty for even `k`).
    pub common: NodeSet,
    /// The full removal set applied on `u`'s side (`F ∪ Fu ∪ …`).
    pub removed_u: NodeSet,
    /// The full removal set applied on `v`'s side (`F ∪ Fv ∪ …`).
    pub removed_v: NodeSet,
}

impl fmt::Display for ReachViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reach_{}({}) ∩ reach_{}({}) = ∅ (common suspects {})",
            self.u, self.removed_u, self.v, self.removed_v, self.common
        )
    }
}

/// The result of evaluating a condition: either it holds, or a concrete
/// violation witnesses why it does not.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConditionOutcome {
    /// The condition holds for every admissible choice of sets.
    Holds,
    /// The condition fails; a witness is attached.
    Violated(ReachViolation),
}

impl ConditionOutcome {
    /// Returns `true` if the condition holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, ConditionOutcome::Holds)
    }

    /// The violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&ReachViolation> {
        match self {
            ConditionOutcome::Holds => None,
            ConditionOutcome::Violated(w) => Some(w),
        }
    }
}

impl fmt::Display for ConditionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConditionOutcome::Holds => write!(f, "holds"),
            ConditionOutcome::Violated(w) => write!(f, "violated: {w}"),
        }
    }
}

/// **1-reach** (Definition 3): for any `F` with `|F| ≤ f` and any
/// `u, v ∉ F`: `reach_u(F) ∩ reach_v(F) ≠ ∅`.
#[must_use]
pub fn one_reach(g: &Digraph, f: usize) -> ConditionOutcome {
    k_reach(g, 1, f)
}

/// **2-reach** (Definition 3): for any `u, v` and `F_u, F_v` with
/// `|F_u|, |F_v| ≤ f`, `u ∉ F_u`, `v ∉ F_v`:
/// `reach_v(F_v) ∩ reach_u(F_u) ≠ ∅`.
#[must_use]
pub fn two_reach(g: &Digraph, f: usize) -> ConditionOutcome {
    k_reach(g, 2, f)
}

/// **3-reach** (Definition 3) — the paper's tight condition for
/// asynchronous Byzantine approximate consensus (Theorem 4): for any
/// `F, F_u, F_v` of size `≤ f` and `u ∉ F ∪ F_u`, `v ∉ F ∪ F_v`:
/// `reach_v(F ∪ F_v) ∩ reach_u(F ∪ F_u) ≠ ∅`.
///
/// # Example
///
/// ```
/// use dbac_conditions::kreach::three_reach;
/// use dbac_graph::generators;
///
/// // Figure 1(b) satisfies 3-reach for f = 2 even though all-pair RMT fails.
/// // (Checked exhaustively by the `figure1` experiment; here the small
/// // 8-node analogue for f = 1.)
/// assert!(three_reach(&generators::figure_1b_small(), 1).holds());
/// ```
#[must_use]
pub fn three_reach(g: &Digraph, f: usize) -> ConditionOutcome {
    k_reach(g, 3, f)
}

/// The general **k-reach** condition (Definition 20, with the subscript
/// typo corrected as described in the module docs): per side `⌊k/2⌋`
/// suspect sets of size `≤ f`, plus a shared `F` when `k` is odd.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn k_reach(g: &Digraph, k: usize, f: usize) -> ConditionOutcome {
    assert!(k >= 1, "k-reach requires k ≥ 1");
    let per_side = (k / 2) * f;
    let mut cache = ReachCache::new();
    let all = g.vertex_set();
    let commons: Vec<NodeSet> =
        if k % 2 == 1 { SubsetsUpTo::new(all, f).collect() } else { vec![NodeSet::EMPTY] };
    // A union of m sets of size ≤ f each is exactly an arbitrary set of
    // size ≤ m·f, so each side's removal is `common ∪ B` with |B| ≤ per_side.
    let sides: Vec<NodeSet> = SubsetsUpTo::new(all, per_side).collect();
    for &common in &commons {
        let mut unions: Vec<NodeSet> = sides.iter().map(|&s| s | common).collect();
        unions.sort_unstable();
        unions.dedup();
        for &ru in &unions {
            for &rv in &unions {
                if let Some(w) = check_pairwise(g, &mut cache, common, ru, rv, all - ru, all - rv) {
                    return ConditionOutcome::Violated(w);
                }
            }
        }
    }
    ConditionOutcome::Holds
}

/// Checks `reach_u(ru) ∩ reach_v(rv) ≠ ∅` for all `u ∈ us`, `v ∈ vs`;
/// returns the first violation.
fn check_pairwise(
    g: &Digraph,
    cache: &mut ReachCache,
    common: NodeSet,
    ru: NodeSet,
    rv: NodeSet,
    us: NodeSet,
    vs: NodeSet,
) -> Option<ReachViolation> {
    for u in us.iter() {
        let reach_u = cache.reach(g, u, ru);
        for v in vs.iter() {
            let reach_v = cache.reach(g, v, rv);
            if reach_u.is_disjoint(reach_v) {
                return Some(ReachViolation { u, v, common, removed_u: ru, removed_v: rv });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::generators;

    #[test]
    fn clique_thresholds_match_appendix_a() {
        // In a clique: 2-reach ⇔ n > 2f, 3-reach ⇔ n > 3f (Appendix A).
        // 1-reach holds *unconditionally* in a clique under the literal
        // Definition 3 (reach_u(F) = F̄ for every survivor), matching the
        // fact that crash consensus in complete graphs is solvable for any
        // f — Appendix A's "⇔ n > f" is vacuous in the n > f regime.
        for f in 1..=2 {
            for n in 2..=7 {
                let g = generators::clique(n);
                assert!(one_reach(&g, f).holds(), "1-reach n={n} f={f}");
                assert_eq!(two_reach(&g, f).holds(), n > 2 * f, "2-reach n={n} f={f}");
                assert_eq!(three_reach(&g, f).holds(), n > 3 * f, "3-reach n={n} f={f}");
            }
        }
    }

    #[test]
    fn k_reach_clique_threshold_generalizes() {
        // k-reach in a clique ⇔ n > k·f for k ≥ 2 (k = 1 is unconditional
        // in cliques; see `clique_thresholds_match_appendix_a`).
        for k in 2..=4 {
            for n in 2..=6 {
                let g = generators::clique(n);
                assert_eq!(k_reach(&g, k, 1).holds(), n > k, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn conditions_are_monotone_in_strength() {
        // 3-reach ⇒ 2-reach ⇒ 1-reach (larger removals are harder).
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
        for _ in 0..12 {
            let g = generators::random_digraph(6, 0.45, &mut rng);
            if three_reach(&g, 1).holds() {
                assert!(two_reach(&g, 1).holds());
            }
            if two_reach(&g, 1).holds() {
                assert!(one_reach(&g, 1).holds());
            }
        }
    }

    /// Removal sets are walked in sorted `NodeSet` order, so which
    /// violation comes first (at `f ≥ 2` for 2-reach) is not pinned — but
    /// it must be a genuine one. The last field bounds a side's removal.
    #[test]
    fn violation_witness_is_genuine() {
        use crate::reach::reach_set;
        let cases = [
            (three_reach as fn(&Digraph, usize) -> ConditionOutcome, generators::clique(3), 1, 2),
            (two_reach, generators::clique(4), 2, 2),
            (two_reach, generators::directed_cycle(6), 2, 2),
        ];
        for (condition, g, f, budget) in cases {
            let w = condition(&g, f).violation().cloned().expect("the condition fails");
            assert!(!w.removed_u.contains(w.u) && !w.removed_v.contains(w.v));
            assert!(reach_set(&g, w.u, w.removed_u).is_disjoint(reach_set(&g, w.v, w.removed_v)));
            assert!(w.removed_u.len() <= budget && w.removed_v.len() <= budget);
            assert!(w.common.is_subset(w.removed_u) && w.common.is_subset(w.removed_v));
        }
    }

    #[test]
    fn f_zero_reduces_to_mutual_influence() {
        // With f = 0 all three conditions collapse to: every pair has a
        // common influencer.
        let g = generators::directed_path(3); // 0 -> 1 -> 2: node 0 reaches all
        assert!(one_reach(&g, 0).holds());
        assert!(three_reach(&g, 0).holds());
        let mut g2 = Digraph::new(3).unwrap();
        g2.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        // Node 2 is isolated: reach_2(∅) = {2} disjoint from reach_0(∅) = {0}.
        assert!(!one_reach(&g2, 0).holds());
    }

    #[test]
    fn figure_1a_satisfies_three_reach_for_f1() {
        assert!(three_reach(&generators::figure_1a(), 1).holds());
    }

    #[test]
    fn directed_cycle_fails_three_reach() {
        // A single faulty node disconnects influence in a directed ring.
        assert!(!three_reach(&generators::directed_cycle(5), 1).holds());
    }

    #[test]
    fn outcome_display() {
        let g = generators::clique(3);
        let out = three_reach(&g, 1);
        assert!(out.to_string().starts_with("violated"));
        assert!(!out.holds());
        assert!(out.violation().is_some());
        assert_eq!(one_reach(&g, 1).to_string(), "holds");
    }
}
