//! Per-graph precomputation shared by all nodes.
//!
//! The paper assumes every node knows the topology `G` (reach sets, source
//! components and redundant-path enumerations all require it). [`Topology`]
//! computes, once per graph:
//!
//! * the fault-set guesses `F ⊆ V`, `|F| ≤ f` (one BW thread each);
//! * the full path population — redundant paths in the paper's mode,
//!   simple paths in the ablation — interned into a [`PathIndex`] as it is
//!   generated, so the protocol stack speaks dense [`PathId`]s instead of
//!   owned paths;
//! * reach sets `reach_v(F)` for every guess;
//! * per guess `F_u`, the deduplicated Completeness obligations
//!   `(S_{F_u,F_w}, q)` of Algorithm 2, from the source components of
//!   every silenced union `|·| ≤ 2f` (computed during construction, not
//!   kept).
//!
//! The path population is generated straight from the graph, one
//! sequential depth-first search per initiator ([`PathIndex::redundant`],
//! [`PathIndex::simple`]), with no per-path allocation. The reach and
//! source passes are embarrassingly parallel and run across all cores
//! ([`dbac_graph::par::par_map`]; inline when the build itself runs on a
//! sweep worker). Everything is immutable after construction and shared
//! via `Arc`: by a run's nodes, and by the cells of a sweep run that share
//! the graph (the `Precompute` memo of [`crate::scenario::sweep`]).

use crate::config::FloodMode;
use dbac_conditions::reach::reach_sets;
use dbac_conditions::reduced::source_component;
use dbac_graph::par::par_map;
use dbac_graph::subsets::SubsetsUpTo;
use dbac_graph::{Digraph, GraphError, NodeId, NodeSet, PathBudget, PathId, PathIndex};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

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
    /// Guess (the `F_u`) → deduplicated `(S_{F_u,F_w}, q)` pairs.
    obligations: HashMap<NodeSet, Vec<(NodeSet, NodeId)>>,
    /// terminal → its pool's ids as a slice, listed on the first
    /// [`Topology::required_paths_to`] call. The protocol reads the id
    /// ranges of the index instead, so a run never builds it.
    required: OnceLock<Vec<Vec<PathId>>>,
}

impl Topology {
    /// Precomputes everything for `graph` with fault bound `f`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BudgetExceeded`] if more than
    /// `budget.max_paths` paths of the population end at some node — the
    /// algorithm is intrinsically exponential, and the budget keeps that
    /// explicit.
    pub fn new(
        graph: Digraph,
        f: usize,
        flood_mode: FloodMode,
        budget: PathBudget,
    ) -> Result<Self, GraphError> {
        let all = graph.vertex_set();
        let guesses: Vec<NodeSet> = SubsetsUpTo::new(all, f).collect();

        // The path population, interned as it is generated, with no owned
        // path built. It is the fullness requirement population; under the
        // paper's mode it is closed under redundant extension, under the
        // ablation under simple extension — either way the PathIndex
        // forwarding table is exact for the active flood discipline.
        let index = match flood_mode {
            FloodMode::Redundant => PathIndex::redundant(&graph, budget)?,
            FloodMode::SimpleOnly => PathIndex::simple(&graph, budget)?,
        };

        // Per-guess reach sets, in parallel.
        let reach: HashMap<NodeSet, Vec<NodeSet>> =
            par_map(&guesses, |_, &guess| (guess, reach_sets(&graph, guess))).into_iter().collect();

        let silenced_sets: Vec<NodeSet> = SubsetsUpTo::new(all, 2 * f).collect();
        let sources: HashMap<NodeSet, NodeSet> = par_map(&silenced_sets, |_, &silenced| {
            (silenced, source_component(&graph, silenced, NodeSet::EMPTY))
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

        Ok(Topology { graph, f, index, guesses, reach, obligations, required: OnceLock::new() })
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
    /// against the subset of these avoiding the guess): the ids of
    /// [`PathIndex::paths_ending_at`], as a slice.
    #[must_use]
    pub fn required_paths_to(&self, v: NodeId) -> &[PathId] {
        let required = self.required.get_or_init(|| {
            self.graph.nodes().map(|u| self.index.paths_ending_at(u).collect()).collect()
        });
        &required[v.index()]
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
    use dbac_graph::paths::redundant_paths_ending_at;

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
            // Every required id is the id of a redundant path.
            let pool =
                redundant_paths_ending_at(t.graph(), v, NodeSet::EMPTY, PathBudget::default())
                    .unwrap();
            let redundant: HashSet<PathId> = pool
                .iter()
                .filter(|p| p.is_redundant())
                .filter_map(|p| t.index().resolve(p))
                .collect();
            assert!(req.iter().all(|&p| t.index().ter(p) == v && redundant.contains(&p)));
        }
    }

    #[test]
    fn pools_match_direct_enumeration() {
        let t = topo(generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]), 1);
        for v in t.graph().nodes() {
            let direct =
                redundant_paths_ending_at(t.graph(), v, NodeSet::EMPTY, PathBudget::default())
                    .unwrap();
            let req = t.required_paths_to(v);
            let interned: HashSet<PathId> = direct
                .iter()
                .map(|p| t.index().resolve(p).unwrap_or_else(|| panic!("missing {p}")))
                .collect();
            assert_eq!(interned.len(), direct.len(), "distinct paths keep distinct ids");
            assert!(interned.iter().all(|p| req.contains(p)));
            assert_eq!(direct.len(), req.len(), "no duplicate ids");
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
        // The obligations of `F_u` cover exactly the non-empty components
        // `S_{F_u,F_w}`, `F_w ≠ F_u`, each with all of its nodes.
        for g in [generators::clique(5), generators::figure_1a()] {
            let t = topo(g, 1);
            for &fu in t.guesses() {
                let direct: HashSet<NodeSet> = t
                    .guesses()
                    .iter()
                    .filter(|&&fw| fw != fu)
                    .map(|&fw| dbac_conditions::reduced::source_component(t.graph(), fu, fw))
                    .filter(|s| !s.is_empty())
                    .collect();
                let obs = t.completeness_obligations(fu);
                let listed: HashSet<NodeSet> = obs.iter().map(|&(s, _)| s).collect();
                assert_eq!(listed, direct, "F_u = {fu:?}");
                for &s in &listed {
                    let qs: NodeSet =
                        obs.iter().filter(|&&(c, _)| c == s).map(|&(_, q)| q).collect();
                    assert_eq!(qs, s, "F_u = {fu:?}: one obligation per node of {s:?}");
                }
            }
        }
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
