//! The exact `(r, s)`-robustness decision procedure.
//!
//! Relocated from `dbac-baselines` (where it lived next to the W-MSR
//! loop) and rewritten: the original enumerated every *ordered pair* of
//! disjoint subsets as one base-3 assignment per node — `3^n` assignments
//! — recomputing both reachable subsets for each. This version enumerates
//! each subset **once** (`2^n` bitmasks), prunes every subset that can
//! never appear in a violating pair, and then searches candidate pairs in
//! ascending `|X_S^r|` order with an early exit, so a violation witness is
//! usually found long before the pair space is exhausted.
//!
//! Pruning is justified by two monotone facts about the definition:
//!
//! * a subset with `X_S^r = S` satisfies its side of the condition for
//!   *every* partner, so it never appears in a violation;
//! * a violating pair needs `|X_1| + |X_2| < s`, so any subset with
//!   `|X_S^r| ≥ s` is out, and once candidates are sorted by `|X|` the
//!   pair scan can stop as soon as the two smallest remaining sums reach
//!   `s`.
//!
//! The procedure is still exponential — that is inherent (the condition
//! quantifies over subset pairs) — but the base drops from 3 to 2 and
//! robust instances stop at the candidate filter. Past ~20 nodes even
//! `2^n` is the wrong tool: use the polynomial certificates in
//! [`crate::robustness::sufficient`] instead.

use dbac_graph::{Digraph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Returns the set `X_S^r` of nodes in `S` with at least `r` in-neighbors
/// outside `S` (the "r-reachable" nodes of `S`).
#[must_use]
pub fn r_reachable_subset(g: &Digraph, s: NodeSet, r: usize) -> NodeSet {
    s.iter().filter(|&v| (g.in_neighbors(v) - s).len() >= r).collect()
}

/// A concrete counterexample to `(r, s)`-robustness: a disjoint non-empty
/// pair whose r-reachable subsets are both proper and jointly smaller
/// than `s`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessViolation {
    /// First subset of the violating pair.
    pub s1: NodeSet,
    /// Second subset of the violating pair (disjoint from `s1`).
    pub s2: NodeSet,
    /// `X_{S1}^r` — properly contained in `s1`.
    pub x1: NodeSet,
    /// `X_{S2}^r` — properly contained in `s2`.
    pub x2: NodeSet,
}

impl fmt::Display for RobustnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S1 = {} with X1 = {}, S2 = {} with X2 = {}", self.s1, self.x1, self.s2, self.x2)
    }
}

/// The typed result of the exact check: robust, or a concrete witness.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustnessVerdict {
    /// The graph is `(r, s)`-robust.
    Robust,
    /// It is not; the witness pair is attached.
    NotRobust(RobustnessViolation),
}

impl RobustnessVerdict {
    /// `true` when the graph is robust.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, RobustnessVerdict::Robust)
    }

    /// The counterexample, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&RobustnessViolation> {
        match self {
            RobustnessVerdict::Robust => None,
            RobustnessVerdict::NotRobust(w) => Some(w),
        }
    }
}

impl fmt::Display for RobustnessVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustnessVerdict::Robust => write!(f, "robust"),
            RobustnessVerdict::NotRobust(w) => write!(f, "not robust: {w}"),
        }
    }
}

/// `(r, s)`-robustness (LeBlanc–Zhang–Koutsoukos–Sundaram): for every
/// pair of disjoint non-empty `S1, S2 ⊆ V`, with `Xi` the r-reachable
/// subset of `Si`, at least one of `X1 = S1`, `X2 = S2`, or
/// `|X1| + |X2| ≥ s` holds. Under the `f`-total malicious model, W-MSR
/// with parameter `f` is correct iff the network is `(f+1, f+1)`-robust.
///
/// Exponential in `n` — see the module docs for the pruning strategy and
/// the size cliff. For large graphs use [`crate::robustness::certify`].
#[must_use]
pub fn is_r_s_robust(g: &Digraph, r: usize, s: usize) -> bool {
    exact_verdict(g, r, s).holds()
}

/// The exact decision procedure, with a typed verdict.
///
/// # Panics
///
/// Panics past 63 nodes, where the subset enumeration cannot even be
/// indexed — far beyond the practical cliff (~20 nodes) anyway.
#[must_use]
pub fn exact_verdict(g: &Digraph, r: usize, s: usize) -> RobustnessVerdict {
    let n = g.node_count();
    // Trivial regimes: with r = 0 every subset is fully 0-reachable
    // (X_S^0 = S), with s = 0 the size clause always holds, and with
    // n ≤ 1 no disjoint non-empty pair exists.
    if n <= 1 || r == 0 || s == 0 {
        return RobustnessVerdict::Robust;
    }
    assert!(
        n <= 63,
        "exact (r,s)-robustness enumerates 2^n subsets; n = {n} is past the cliff \
         (≤ 63 representable, ≤ ~20 practical) — use robustness::certify instead"
    );
    let nodes: Vec<NodeId> = g.nodes().collect();
    let in_nbrs: Vec<NodeSet> = nodes.iter().map(|&v| g.in_neighbors(v)).collect();
    let expand = |mask: u64| -> NodeSet {
        nodes.iter().enumerate().filter(|&(i, _)| mask & (1 << i) != 0).map(|(_, &v)| v).collect()
    };

    // Candidate filter: keep the subsets that could appear in a violating
    // pair — X_S^r proper in S and |X_S^r| < s.
    let mut candidates: Vec<(u64, u32)> = Vec::new();
    for mask in 1u64..(1u64 << n) {
        let set = expand(mask);
        let mut xlen = 0u32;
        let mut fully_reachable = true;
        for (i, &inn) in in_nbrs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                if (inn - set).len() >= r {
                    xlen += 1;
                } else {
                    fully_reachable = false;
                }
            }
        }
        if !fully_reachable && (xlen as usize) < s {
            candidates.push((mask, xlen));
        }
    }

    // Early-exit witness search over disjoint candidate pairs, smallest
    // |X| first: once the two smallest remaining |X| sums reach s, no
    // later pair can violate.
    candidates.sort_unstable_by_key(|&(_, xlen)| xlen);
    for (i, &(m1, x1)) in candidates.iter().enumerate() {
        match candidates.get(i + 1) {
            Some(&(_, next)) if ((x1 + next) as usize) < s => {}
            _ => break,
        }
        for &(m2, x2) in &candidates[i + 1..] {
            if ((x1 + x2) as usize) >= s {
                break;
            }
            if m1 & m2 == 0 {
                let s1 = expand(m1);
                let s2 = expand(m2);
                return RobustnessVerdict::NotRobust(RobustnessViolation {
                    x1: r_reachable_subset(g, s1, r),
                    x2: r_reachable_subset(g, s2, r),
                    s1,
                    s2,
                });
            }
        }
    }
    RobustnessVerdict::Robust
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    // The three robustness tests migrated from crates/baselines (the
    // checker's previous home), unchanged in substance.

    #[test]
    fn r_reachable_basics() {
        let g = generators::clique(4);
        let s: NodeSet = [id(0), id(1)].into_iter().collect();
        // Each of 0,1 has 2 in-neighbors outside {0,1}.
        assert_eq!(r_reachable_subset(&g, s, 2), s);
        assert_eq!(r_reachable_subset(&g, s, 3), NodeSet::EMPTY);
    }

    #[test]
    fn clique_robustness() {
        // K_n is (⌈n/2⌉, 1)-robust; K4 is (2,2)-robust (f=1 works).
        assert!(is_r_s_robust(&generators::clique(4), 2, 2));
        assert!(!is_r_s_robust(&generators::clique(4), 3, 1));
        // K3 is (2,2)-robust: every disjoint pair has a singleton side,
        // and a singleton in K3 sees both other nodes.
        assert!(is_r_s_robust(&generators::clique(3), 2, 2));
    }

    #[test]
    fn cycle_is_weakly_robust() {
        // A bidirectional cycle is (1,1)-robust but not (2,2)-robust.
        let g = generators::bidirectional_cycle(6);
        assert!(is_r_s_robust(&g, 1, 1));
        assert!(!is_r_s_robust(&g, 2, 2));
        let w = exact_verdict(&g, 2, 2).violation().cloned().unwrap();
        assert!(!w.s1.is_empty() && !w.s2.is_empty() && w.s1.is_disjoint(w.s2));
    }

    #[test]
    fn verdict_witness_is_consistent() {
        let g = generators::directed_cycle(6);
        let w = exact_verdict(&g, 2, 2).violation().cloned().expect("cycle is not (2,2)-robust");
        // The witness must actually witness: proper reachable subsets,
        // disjoint sides, and a sum below s.
        assert!(w.s1.is_disjoint(w.s2));
        assert_eq!(w.x1, r_reachable_subset(&g, w.s1, 2));
        assert_eq!(w.x2, r_reachable_subset(&g, w.s2, 2));
        assert!(w.x1 != w.s1 && w.x2 != w.s2);
        assert!(w.x1.len() + w.x2.len() < 2);
    }

    #[test]
    fn trivial_regimes_are_robust() {
        let g = generators::directed_cycle(5);
        assert!(is_r_s_robust(&g, 0, 4), "r = 0: X_S^0 = S always");
        assert!(is_r_s_robust(&g, 4, 0), "s = 0: the size clause is free");
        assert!(is_r_s_robust(&generators::clique(1), 3, 3), "no disjoint pair on 1 node");
    }
}
