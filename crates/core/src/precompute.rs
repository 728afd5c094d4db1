//! Per-graph precomputation shared by all nodes.
//!
//! The paper assumes every node knows the topology `G` (reach sets, source
//! components and redundant-path enumerations all require it). [`Topology`]
//! computes, once per graph:
//!
//! * the fault-set guesses `F ⊆ V`, `|F| ≤ f` (one BW thread each);
//! * the full path population — redundant paths in the paper's mode,
//!   simple paths in the ablation — interned into a [`PathIndex`], so the
//!   protocol stack speaks dense [`PathId`]s instead of owned paths;
//! * reach sets `reach_v(F)` for every guess;
//! * source components `S_{F1,F2}` for every silenced union `|·| ≤ 2f`;
//! * per guess `F_u`, the deduplicated Completeness obligations
//!   `(S_{F_u,F_w}, q)` of Algorithm 2.
//!
//! The enumeration and reach passes are embarrassingly parallel and run
//! across all cores ([`dbac_graph::par::par_map`]). Everything is immutable
//! after construction and shared via `Arc`.

use crate::config::FloodMode;
use dbac_conditions::reduced::source_component_of_silenced;
use dbac_graph::par::par_map;
use dbac_graph::paths::{reaching_to, redundant_paths_ending_at, simple_paths_ending_at};
use dbac_graph::subsets::SubsetsUpTo;
use dbac_graph::{Digraph, GraphError, NodeId, NodeSet, Path, PathBudget, PathId, PathIndex};
use std::collections::{HashMap, HashSet};

/// Immutable, shared protocol-relevant knowledge about one network.
#[derive(Debug)]
pub struct Topology {
    graph: Digraph,
    f: usize,
    /// The interned path population (the value-flood requirement pools).
    index: PathIndex,
    guesses: Vec<NodeSet>,
    /// Guess → per-node reach sets.
    reach: HashMap<NodeSet, Vec<NodeSet>>,
    /// Silenced set (size ≤ 2f) → source component.
    sources: HashMap<NodeSet, NodeSet>,
    /// Guess (the `F_u`) → deduplicated `(S_{F_u,F_w}, q)` pairs.
    obligations: HashMap<NodeSet, Vec<(NodeSet, NodeId)>>,
}

impl Topology {
    /// Precomputes everything for `graph` with fault bound `f`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BudgetExceeded`] if the path enumeration
    /// exceeds `budget` — the algorithm is intrinsically exponential, and
    /// the budget keeps that explicit.
    pub fn new(
        graph: Digraph,
        f: usize,
        flood_mode: FloodMode,
        budget: PathBudget,
    ) -> Result<Self, GraphError> {
        let n = graph.node_count();
        let all = graph.vertex_set();
        let guesses: Vec<NodeSet> = SubsetsUpTo::new(all, f).collect();

        // Per-terminal path enumeration, fanned out across cores. The pool
        // is the fullness requirement population; under the paper's mode it
        // is closed under redundant extension, under the ablation under
        // simple extension — either way the PathIndex forwarding table is
        // exact for the active flood discipline.
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let pools: Vec<Vec<Path>> = par_map(&nodes, |_, &v| match flood_mode {
            FloodMode::Redundant => redundant_paths_ending_at(&graph, v, NodeSet::EMPTY, budget),
            FloodMode::SimpleOnly => simple_paths_ending_at(&graph, v, NodeSet::EMPTY, budget),
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        let index = PathIndex::build(&graph, &pools);

        // Per-guess reach sets, also in parallel.
        let reach: HashMap<NodeSet, Vec<NodeSet>> = par_map(&guesses, |_, &guess| {
            let keep = guess.complement_in(n);
            let sub = graph.induced(keep);
            let per_node: Vec<NodeSet> =
                graph
                    .nodes()
                    .map(|v| {
                        if guess.contains(v) {
                            NodeSet::EMPTY
                        } else {
                            reaching_to(&sub, v) & keep
                        }
                    })
                    .collect();
            (guess, per_node)
        })
        .into_iter()
        .collect();

        let silenced_sets: Vec<NodeSet> = SubsetsUpTo::new(all, 2 * f).collect();
        let sources: HashMap<NodeSet, NodeSet> = par_map(&silenced_sets, |_, &silenced| {
            (silenced, source_component_of_silenced(&graph, silenced))
        })
        .into_iter()
        .collect();

        let mut obligations = HashMap::with_capacity(guesses.len());
        for &fu in &guesses {
            let mut pairs: Vec<(NodeSet, NodeId)> = Vec::new();
            let mut seen_components: HashSet<NodeSet> = HashSet::new();
            for &fw in &guesses {
                if fw == fu {
                    continue;
                }
                let s = sources[&(fu | fw)];
                if s.is_empty() || !seen_components.insert(s) {
                    continue;
                }
                for q in s.iter() {
                    pairs.push((s, q));
                }
            }
            obligations.insert(fu, pairs);
        }

        Ok(Topology { graph, f, index, guesses, reach, sources, obligations })
    }

    /// The network.
    #[must_use]
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// The fault bound `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// The interned path population.
    #[must_use]
    pub fn index(&self) -> &PathIndex {
        &self.index
    }

    /// All fault-set guesses `|F| ≤ f`, in deterministic order.
    #[must_use]
    pub fn guesses(&self) -> &[NodeSet] {
        &self.guesses
    }

    /// The value-flood requirement pool ending at `v` (fullness is checked
    /// against the subset of these avoiding the guess).
    #[must_use]
    pub fn required_paths_to(&self, v: NodeId) -> &[PathId] {
        self.index.paths_ending_at(v)
    }

    /// All simple paths ending at `v`.
    #[must_use]
    pub fn simple_paths_to(&self, v: NodeId) -> &[PathId] {
        self.index.simple_paths_ending_at(v)
    }

    /// `reach_v(guess)` — precomputed for every guess.
    ///
    /// # Panics
    ///
    /// Panics if `guess` is not one of [`Topology::guesses`].
    #[must_use]
    pub fn reach_of(&self, v: NodeId, guess: NodeSet) -> NodeSet {
        self.reach.get(&guess).expect("guess was enumerated")[v.index()]
    }

    /// `S_{F1,F2}` — precomputed for every silenced union of size ≤ 2f.
    ///
    /// # Panics
    ///
    /// Panics if `|F1 ∪ F2| > 2f`.
    #[must_use]
    pub fn source_component(&self, f1: NodeSet, f2: NodeSet) -> NodeSet {
        *self.sources.get(&(f1 | f2)).expect("silenced union within 2f")
    }

    /// Algorithm 2's obligation list for suspect set `F_u`: the
    /// deduplicated `(S_{F_u,F_w}, q ∈ S)` pairs over all `F_w ≠ F_u`.
    ///
    /// # Panics
    ///
    /// Panics if `fu` is not one of [`Topology::guesses`].
    #[must_use]
    pub fn completeness_obligations(&self, fu: NodeSet) -> &[(NodeSet, NodeId)] {
        self.obligations.get(&fu).expect("fu is an enumerated guess")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn topo(g: Digraph, f: usize) -> Topology {
        crate::test_support::topo_of(g, f, FloodMode::Redundant)
    }

    #[test]
    fn guesses_enumerate_all_small_subsets() {
        let t = topo(generators::clique(4), 1);
        assert_eq!(t.guesses().len(), 5); // ∅ + 4 singletons
        assert_eq!(t.f(), 1);
    }

    #[test]
    fn required_paths_include_trivial_and_are_redundant() {
        let t = topo(generators::clique(4), 1);
        for v in t.graph().nodes() {
            let req = t.required_paths_to(v);
            assert!(req.contains(&t.index().trivial(v)));
            assert!(req.iter().all(|&p| t.index().ter(p) == v && t.index().path(p).is_redundant()));
        }
    }

    #[test]
    fn pools_match_direct_enumeration() {
        let t = topo(generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]), 1);
        for v in t.graph().nodes() {
            let direct =
                redundant_paths_ending_at(t.graph(), v, NodeSet::EMPTY, PathBudget::default())
                    .unwrap();
            let interned: std::collections::HashSet<&Path> =
                t.required_paths_to(v).iter().map(|&p| t.index().path(p)).collect();
            assert_eq!(interned.len(), t.required_paths_to(v).len(), "no duplicate ids");
            for p in &direct {
                assert!(interned.contains(p), "missing {p}");
            }
            assert_eq!(direct.len(), interned.len());
        }
    }

    #[test]
    fn simple_mode_uses_simple_pool() {
        let g = generators::clique(4);
        let t = Topology::new(g, 1, FloodMode::SimpleOnly, PathBudget::default()).unwrap();
        for v in t.graph().nodes() {
            assert_eq!(t.required_paths_to(v).len(), t.simple_paths_to(v).len());
            assert!(t.required_paths_to(v).iter().all(|&p| t.index().is_simple(p)));
        }
    }

    #[test]
    fn reach_matches_direct_computation() {
        let t = topo(generators::figure_1b_small(), 1);
        for &guess in t.guesses() {
            for v in t.graph().nodes() {
                assert_eq!(
                    t.reach_of(v, guess),
                    dbac_conditions::reach::reach_set(t.graph(), v, guess)
                );
            }
        }
    }

    #[test]
    fn source_components_match_direct_computation() {
        let t = topo(generators::clique(5), 1);
        let f1 = NodeSet::singleton(id(0));
        let f2 = NodeSet::singleton(id(2));
        assert_eq!(
            t.source_component(f1, f2),
            dbac_conditions::reduced::source_component(t.graph(), f1, f2)
        );
    }

    #[test]
    fn obligations_are_deduplicated_and_inside_components() {
        let t = topo(generators::clique(4), 1);
        for &fu in t.guesses() {
            let obs = t.completeness_obligations(fu);
            for &(s, q) in obs {
                assert!(s.contains(q));
                assert!(!s.is_empty());
            }
            // Dedup: no repeated (S, q) pair.
            let mut keys: Vec<(NodeSet, usize)> =
                obs.iter().map(|&(s, q)| (s, q.index())).collect();
            keys.sort_unstable();
            let before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), before);
        }
    }

    #[test]
    fn budget_propagates() {
        let err = Topology::new(generators::clique(6), 1, FloodMode::Redundant, PathBudget::new(5));
        assert!(matches!(err.unwrap_err(), GraphError::BudgetExceeded { .. }));
    }
}
