//! Executable verifiers for the paper's structural theorems.
//!
//! These turn proof obligations into checkable invariants:
//!
//! * **Theorem 5** — under 3-reach, a source component `S_{F1,F2}`
//!   propagates (with `f + 1` disjoint paths) to everything outside it in
//!   both `G_{F̄1}` and `G_{F̄2}`.
//! * **Theorem 12** — under 3-reach, `S_{F_v,F_u} ∩ S_{F_v,F_w} ≠ ∅` for
//!   any admissible triple of fault sets (the overlap that makes the
//!   trimmed vectors of any two nodes intersect, Theorem 14).
//!
//! The property-test suites and the `equivalences` experiment run these
//! over sampled graphs.

use crate::propagate::propagates;
use crate::reduced::source_component;
use dbac_graph::subsets::SubsetsUpTo;
use dbac_graph::{Digraph, NodeSet};
use std::collections::HashMap;

/// Checks the Theorem 5 conclusion for one pair `(F1, F2)`:
/// `S_{F1,F2} ⇝ (in G_{F̄1}) to F̄1 ∖ S` and likewise within `G_{F̄2}`.
fn theorem5_holds_for(g: &Digraph, f: usize, f1: NodeSet, f2: NodeSet) -> bool {
    let s = source_component(g, f1, f2);
    if s.is_empty() {
        return false;
    }
    let all = g.vertex_set();
    for removed in [f1, f2] {
        let within = all - removed;
        let b = within - s;
        // S may intersect `removed`? No: S avoids F1 ∪ F2, so S ⊆ within.
        if !propagates(g, s, b, within, f) {
            return false;
        }
    }
    true
}

/// Sweeps Theorem 5 over all `F1` with `|F1| ≤ f` and `F2 ⊆ F̄1` with
/// `|F2| ≤ f`; returns the first failing pair, or `None` if the theorem's
/// conclusion holds everywhere (as it must when `g` satisfies 3-reach).
#[must_use]
pub fn theorem5_sweep(g: &Digraph, f: usize) -> Option<(NodeSet, NodeSet)> {
    let all = g.vertex_set();
    for f1 in SubsetsUpTo::new(all, f) {
        for f2 in SubsetsUpTo::new(all - f1, f) {
            if !theorem5_holds_for(g, f, f1, f2) {
                return Some((f1, f2));
            }
        }
    }
    None
}

/// Checks the Theorem 12 conclusion for one triple:
/// `S_{F_v,F_u} ∩ S_{F_v,F_w} ≠ ∅`, with `sources` memoising the source
/// component of each silenced union.
fn theorem12_holds_for(
    g: &Digraph,
    sources: &mut HashMap<NodeSet, NodeSet>,
    fv: NodeSet,
    fu: NodeSet,
    fw: NodeSet,
) -> bool {
    let mut s = |silenced: NodeSet| {
        *sources.entry(silenced).or_insert_with(|| source_component(g, silenced, NodeSet::EMPTY))
    };
    !s(fv | fu).is_disjoint(s(fv | fw))
}

/// Sweeps Theorem 12 over all admissible triples (`F_v ⊂ V`,
/// `F_u, F_w ⊆ V ∖ F_v`, all of size ≤ f); returns the first failing
/// triple, or `None`.
#[must_use]
pub fn theorem12_sweep(g: &Digraph, f: usize) -> Option<(NodeSet, NodeSet, NodeSet)> {
    let all = g.vertex_set();
    let mut sources = HashMap::new();
    for fv in SubsetsUpTo::new(all, f) {
        let rest: Vec<NodeSet> = SubsetsUpTo::new(all - fv, f).collect();
        for &fu in &rest {
            for &fw in &rest {
                if !theorem12_holds_for(g, &mut sources, fv, fu, fw) {
                    return Some((fv, fu, fw));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kreach::three_reach;
    use dbac_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn theorem5_on_cliques() {
        // K4 satisfies 3-reach for f=1; the theorem conclusion must hold.
        let g = generators::clique(4);
        assert_eq!(theorem5_sweep(&g, 1), None);
    }

    #[test]
    fn theorem5_on_figure_1b_small() {
        let g = generators::figure_1b_small();
        assert!(three_reach(&g, 1).holds());
        assert_eq!(theorem5_sweep(&g, 1), None);
    }

    #[test]
    fn theorem5_fails_without_three_reach() {
        // K3 with f=1 violates 3-reach; some pair must break the conclusion.
        let g = generators::clique(3);
        assert!(theorem5_sweep(&g, 1).is_some());
    }

    #[test]
    fn theorem12_on_cliques_and_figure() {
        assert_eq!(theorem12_sweep(&generators::clique(4), 1), None);
        assert_eq!(theorem12_sweep(&generators::figure_1b_small(), 1), None);
    }

    #[test]
    fn theorem12_fails_on_directed_cycle() {
        assert!(theorem12_sweep(&generators::directed_cycle(4), 1).is_some());
    }

    #[test]
    fn theorems_hold_on_random_three_reach_graphs() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut found = 0;
        while found < 3 {
            let g = generators::random_digraph(5, 0.75, &mut rng);
            if three_reach(&g, 1).holds() {
                found += 1;
                assert_eq!(theorem5_sweep(&g, 1), None, "Theorem 5 failed on {g:?}");
                assert_eq!(theorem12_sweep(&g, 1), None, "Theorem 12 failed on {g:?}");
            }
        }
    }
}
