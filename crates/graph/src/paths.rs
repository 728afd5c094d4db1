//! Directed paths: the paper's *simple* and *redundant* path notions
//! (Section 3) and their exhaustive enumeration.
//!
//! A **redundant path** is a concatenation `p1 || p2` of at most two simple
//! paths; it may contain cycles and its length is bounded by `2n`. The
//! RedundantFlood subroutine (Appendix E) propagates values along *every*
//! redundant path, and the Maximal-Consistency condition of Algorithm BW
//! requires a node to have heard from *all* incoming redundant paths that
//! avoid a suspected fault set. Enumeration is therefore a first-class
//! operation here — with explicit budgets, because the path count is
//! exponential in general.

use crate::digraph::Digraph;
use crate::error::GraphError;
use crate::node::NodeId;
use crate::nodeset::NodeSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A directed path `⟨v1, …, vk⟩` (non-empty list of nodes).
///
/// Paths are plain data: validity against a particular graph is checked by
/// [`Path::is_valid_in`]. The paper interprets a path both as a sequence and
/// as the *set* of its nodes; [`Path::node_set`] gives the latter.
///
/// # Example
///
/// ```
/// use dbac_graph::{NodeId, Path};
///
/// let p = Path::from_indices(&[0, 1, 2])?;
/// assert_eq!(p.init(), NodeId::new(0));
/// assert_eq!(p.ter(), NodeId::new(2));
/// assert!(p.is_simple());
/// assert!(p.is_redundant()); // every simple path is redundant
/// # Ok::<(), dbac_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Path(Vec<NodeId>);

impl Path {
    /// The trivial single-node path `⟨v⟩`.
    #[must_use]
    pub fn single(v: NodeId) -> Self {
        Path(vec![v])
    }

    /// Builds a path from a node sequence.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPath`] if the sequence is empty or any
    /// two consecutive nodes coincide (self-loops are not edges).
    pub fn from_nodes(nodes: Vec<NodeId>) -> Result<Self, GraphError> {
        if nodes.is_empty() {
            return Err(GraphError::InvalidPath { reason: "empty node sequence".into() });
        }
        if nodes.windows(2).any(|w| w[0] == w[1]) {
            return Err(GraphError::InvalidPath {
                reason: "consecutive repeated node (self-loop)".into(),
            });
        }
        Ok(Path(nodes))
    }

    /// Builds a path from raw indices (convenience for tests and examples).
    ///
    /// # Errors
    ///
    /// Same as [`Path::from_nodes`].
    pub fn from_indices(indices: &[usize]) -> Result<Self, GraphError> {
        Path::from_nodes(indices.iter().map(|&i| NodeId::new(i)).collect())
    }

    /// The initial node `init(p)`.
    #[must_use]
    pub fn init(&self) -> NodeId {
        self.0[0]
    }

    /// The terminal node `ter(p)`.
    #[must_use]
    pub fn ter(&self) -> NodeId {
        *self.0.last().expect("paths are non-empty")
    }

    /// The node sequence.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.0
    }

    /// Number of edges (one less than the number of node occurrences).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len() - 1
    }

    /// Returns `true` for the trivial single-node path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.len() == 1
    }

    /// Number of node occurrences (with repetition).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.0.len()
    }

    /// The path interpreted as a node set (Section 3).
    #[must_use]
    pub fn node_set(&self) -> NodeSet {
        self.0.iter().copied().collect()
    }

    /// Returns `true` if the path visits `v`.
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        self.0.contains(&v)
    }

    /// Returns `true` if the path shares a node with `set` — the paper's
    /// `C ∩ p ≠ ∅`.
    #[must_use]
    pub fn intersects(&self, set: NodeSet) -> bool {
        self.0.iter().any(|&v| set.contains(v))
    }

    /// Returns `true` if no node repeats (a *simple* path).
    #[must_use]
    pub fn is_simple(&self) -> bool {
        let mut seen = NodeSet::EMPTY;
        self.0.iter().all(|&v| seen.insert(v))
    }

    /// Returns `true` if the path splits into at most two simple paths —
    /// the paper's *redundant path* (Section 3). Its length is then at most
    /// `2n`.
    #[must_use]
    pub fn is_redundant(&self) -> bool {
        // Try every split point i: prefix = nodes[0..=i], suffix = nodes[i..].
        // (The shared node i is the glue; either side may be trivial.)
        let k = self.0.len();
        'split: for i in 0..k {
            let mut seen = NodeSet::EMPTY;
            for &v in &self.0[..=i] {
                if !seen.insert(v) {
                    continue 'split;
                }
            }
            let mut seen = NodeSet::EMPTY;
            if self.0[i..].iter().all(|&v| seen.insert(v)) {
                return true;
            }
        }
        false
    }

    /// Concatenation `p || q`, requiring `ter(p) = init(q)`; the glue node
    /// appears once in the result.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPath`] if the endpoints do not match.
    pub fn concat(&self, other: &Path) -> Result<Path, GraphError> {
        if self.ter() != other.init() {
            return Err(GraphError::InvalidPath {
                reason: format!(
                    "cannot concatenate: ter={} but next init={}",
                    self.ter(),
                    other.init()
                ),
            });
        }
        let mut nodes = Vec::with_capacity(self.0.len() + other.0.len() - 1);
        nodes.extend_from_slice(&self.0);
        nodes.extend_from_slice(&other.0[1..]);
        Ok(Path(nodes))
    }

    /// The extension `p || u` (the paper's notation for appending a node).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPath`] if `u` equals the terminal node.
    pub fn extended(&self, u: NodeId) -> Result<Path, GraphError> {
        if self.ter() == u {
            return Err(GraphError::InvalidPath {
                reason: format!("cannot extend path ending at {u} with {u} (self-loop)"),
            });
        }
        let mut nodes = self.0.clone();
        nodes.push(u);
        Ok(Path(nodes))
    }

    /// Checks that every consecutive pair is an edge of `g`.
    #[must_use]
    pub fn is_valid_in(&self, g: &Digraph) -> bool {
        self.0.iter().all(|v| v.index() < g.node_count())
            && self.0.windows(2).all(|w| g.has_edge(w[0], w[1]))
    }

    /// Returns `true` if the path lies entirely inside `allowed` — the
    /// paper's `p ⊆ C`.
    #[must_use]
    pub fn is_within(&self, allowed: NodeSet) -> bool {
        self.0.iter().all(|&v| allowed.contains(v))
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", v.index())?;
        }
        write!(f, "⟩")
    }
}

/// Budget guard for exhaustive path enumeration.
///
/// The redundant-path count is exponential; every enumeration entry point
/// takes a budget so callers opt into the cost explicitly. The limit
/// applies per terminal: an enumeration of the paths ending at one node
/// may return at most `max_paths` of them, and a generated
/// [`PathIndex`](crate::PathIndex) may hold at most `max_paths` paths
/// ending at each node, so a whole population may hold up to `n` times
/// the limit. The default allows one million paths per terminal,
/// comfortably covering the graph sizes on which the full BW protocol is
/// tractable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathBudget {
    /// Maximum number of paths ending at any one node.
    pub max_paths: usize,
}

impl PathBudget {
    /// Creates a budget admitting up to `max_paths` paths per terminal.
    #[must_use]
    pub fn new(max_paths: usize) -> Self {
        PathBudget { max_paths }
    }
}

impl Default for PathBudget {
    fn default() -> Self {
        PathBudget { max_paths: 1_000_000 }
    }
}

/// Nodes reachable *from* `v` (including `v`) by directed paths in `g`.
#[must_use]
pub fn reachable_from(g: &Digraph, v: NodeId) -> NodeSet {
    let mut seen = NodeSet::singleton(v);
    let mut frontier = vec![v];
    while let Some(u) = frontier.pop() {
        for w in g.out_neighbors(u).iter() {
            if seen.insert(w) {
                frontier.push(w);
            }
        }
    }
    seen
}

/// Nodes that can reach `v` (including `v`) by directed paths in `g`.
#[must_use]
pub fn reaching_to(g: &Digraph, v: NodeId) -> NodeSet {
    let mut seen = NodeSet::singleton(v);
    let mut frontier = vec![v];
    while let Some(u) = frontier.pop() {
        for w in g.in_neighbors(u).iter() {
            if seen.insert(w) {
                frontier.push(w);
            }
        }
    }
    seen
}

/// Returns `true` if a directed path from `from` to `to` exists.
#[must_use]
pub fn is_reachable(g: &Digraph, from: NodeId, to: NodeId) -> bool {
    reachable_from(g, from).contains(to)
}

/// All simple paths from `from` to `to` avoiding `forbidden`.
///
/// Includes the trivial path `⟨from⟩` when `from == to`. Endpoints inside
/// `forbidden` yield an empty result.
///
/// # Errors
///
/// Returns [`GraphError::BudgetExceeded`] if more than `budget.max_paths`
/// paths exist.
pub fn simple_paths(
    g: &Digraph,
    from: NodeId,
    to: NodeId,
    forbidden: NodeSet,
    budget: PathBudget,
) -> Result<Vec<Path>, GraphError> {
    if forbidden.contains(from) || forbidden.contains(to) {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut stack = vec![from];
    let mut on_path = NodeSet::singleton(from);
    dfs_simple(g, to, forbidden, &mut stack, &mut on_path, &mut out, budget.max_paths)?;
    Ok(out)
}

fn dfs_simple(
    g: &Digraph,
    to: NodeId,
    forbidden: NodeSet,
    stack: &mut Vec<NodeId>,
    on_path: &mut NodeSet,
    out: &mut Vec<Path>,
    max_paths: usize,
) -> Result<(), GraphError> {
    let u = *stack.last().expect("non-empty DFS stack");
    if u == to {
        if out.len() >= max_paths {
            return Err(GraphError::BudgetExceeded { limit: max_paths });
        }
        out.push(Path(stack.clone()));
        return Ok(()); // cannot extend through `to` and stay a (from,to)-path
    }
    for w in g.out_neighbors(u).iter() {
        if forbidden.contains(w) || on_path.contains(w) {
            continue;
        }
        stack.push(w);
        on_path.insert(w);
        dfs_simple(g, to, forbidden, stack, on_path, out, max_paths)?;
        stack.pop();
        on_path.remove(w);
    }
    Ok(())
}

/// All simple paths (from any start) *ending at* `to`, avoiding `forbidden`;
/// includes the trivial `⟨to⟩`.
///
/// # Errors
///
/// Returns [`GraphError::BudgetExceeded`] if the budget is exhausted.
pub fn simple_paths_ending_at(
    g: &Digraph,
    to: NodeId,
    forbidden: NodeSet,
    budget: PathBudget,
) -> Result<Vec<Path>, GraphError> {
    if forbidden.contains(to) {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut stack = vec![to];
    let mut on_path = NodeSet::singleton(to);
    dfs_backward(g, forbidden, &mut stack, &mut on_path, &mut out, budget.max_paths)?;
    Ok(out)
}

fn dfs_backward(
    g: &Digraph,
    forbidden: NodeSet,
    stack: &mut Vec<NodeId>,
    on_path: &mut NodeSet,
    out: &mut Vec<Path>,
    max_paths: usize,
) -> Result<(), GraphError> {
    if out.len() >= max_paths {
        return Err(GraphError::BudgetExceeded { limit: max_paths });
    }
    // `stack` holds the path reversed: stack[0] = terminal.
    out.push(Path(stack.iter().rev().copied().collect()));
    let u = *stack.last().expect("non-empty DFS stack");
    for w in g.in_neighbors(u).iter() {
        if forbidden.contains(w) || on_path.contains(w) {
            continue;
        }
        stack.push(w);
        on_path.insert(w);
        dfs_backward(g, forbidden, stack, on_path, out, max_paths)?;
        stack.pop();
        on_path.remove(w);
    }
    Ok(())
}

/// All *redundant* paths ending at `to` avoiding `forbidden` — the paper's
/// `{p ∈ P^r_Ā : ter(p) = to}` used by the fullness condition
/// (Definition 9). Includes every simple path ending at `to` and the
/// trivial `⟨to⟩`.
///
/// Each path is a product `p1 ‖ p2` of a simple path `p1` ending at a glue
/// node `m` and a simple `(m, to)`-path `p2`. Products are tried for `m`
/// ascending, then `p2`, then `p1`, each in enumeration order. A path that
/// splits at several nodes is listed once, at its **canonical glue**: the
/// smallest node of its *glue interval*, which runs from the start of its
/// longest simple suffix to the end of its longest simple prefix. Every
/// split point lies in that interval and its nodes are distinct, so
/// exactly one product passes, and it is the first one the loops reach.
///
/// # Errors
///
/// Returns [`GraphError::BudgetExceeded`] if more than `budget.max_paths`
/// redundant paths end at `to`, and only then. A glue node's halves are
/// enumerated only once it is known to reach `to`; fixing either half then
/// gives one distinct result per path of the other, so neither half can
/// exceed the budget unless the result does.
pub fn redundant_paths_ending_at(
    g: &Digraph,
    to: NodeId,
    forbidden: NodeSet,
    budget: PathBudget,
) -> Result<Vec<Path>, GraphError> {
    if forbidden.contains(to) {
        return Ok(Vec::new());
    }
    let mut out: Vec<Path> = Vec::new();
    let allowed = forbidden.complement_in(g.node_count());
    for m in allowed.iter() {
        let seconds = simple_paths(g, m, to, forbidden, budget)?;
        if seconds.is_empty() {
            continue;
        }
        let firsts = simple_paths_ending_at(g, m, forbidden, budget)?;
        let first_sets: Vec<NodeSet> = firsts.iter().map(Path::node_set).collect();
        for p2 in &seconds {
            let second_set = p2.node_set();
            for (p1, &first_set) in firsts.iter().zip(&first_sets) {
                if !is_canonical_glue(p1, first_set, p2, second_set) {
                    continue;
                }
                if out.len() >= budget.max_paths {
                    return Err(GraphError::BudgetExceeded { limit: budget.max_paths });
                }
                let glued = p1.concat(p2).expect("ter(p1) = m = init(p2)");
                debug_assert!(glued.is_redundant());
                out.push(glued);
            }
        }
    }
    Ok(out)
}

/// Returns `true` if the glue node `m = ter(p1) = init(p2)` is the smallest
/// node of the glue interval of `p1 ‖ p2`. From `m`, the interval reaches
/// back along `p1` while the nodes stay off `p2` (the suffix stays simple)
/// and forward along `p2` while they stay off `p1` (the prefix stays
/// simple).
fn is_canonical_glue(p1: &Path, first_set: NodeSet, p2: &Path, second_set: NodeSet) -> bool {
    let m = p2.init();
    let back = p1.0.iter().rev().skip(1).take_while(|&&v| !second_set.contains(v));
    let forward = p2.0[1..].iter().take_while(|&&v| !first_set.contains(v));
    back.chain(forward).all(|&v| v > m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::collections::HashSet;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn path_endpoints_and_length() {
        let p = Path::from_indices(&[3, 1, 4]).unwrap();
        assert_eq!(p.init(), id(3));
        assert_eq!(p.ter(), id(4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.node_count(), 3);
        assert!(!p.is_empty());
        assert!(Path::single(id(0)).is_empty());
    }

    #[test]
    fn from_nodes_validation() {
        assert!(Path::from_nodes(vec![]).is_err());
        assert!(Path::from_indices(&[1, 1]).is_err());
        assert!(Path::from_indices(&[1, 2, 1]).is_ok()); // cycle, not self-loop
    }

    #[test]
    fn simplicity() {
        assert!(Path::from_indices(&[0, 1, 2]).unwrap().is_simple());
        assert!(!Path::from_indices(&[0, 1, 0]).unwrap().is_simple());
        assert!(Path::single(id(5)).is_simple());
    }

    #[test]
    fn redundancy_definition() {
        // Simple paths are redundant (one side empty).
        assert!(Path::from_indices(&[0, 1, 2]).unwrap().is_redundant());
        // One cycle through the glue node is redundant: ⟨0,1,0,2⟩ = ⟨0,1,0⟩ ∥ ⟨0,2⟩.
        assert!(Path::from_indices(&[0, 1, 0, 2]).unwrap().is_redundant());
        // ⟨0,1,2,0,1,3⟩ = ⟨0,1,2,0⟩? not simple twice… split at index 3:
        // prefix ⟨0,1,2,0⟩ is NOT simple; it needs prefix ⟨0,1,2⟩+suffix ⟨2,0,1,3⟩: both simple.
        assert!(Path::from_indices(&[0, 1, 2, 0, 1, 3]).unwrap().is_redundant());
        // Three repetitions cannot split into two simple halves.
        assert!(!Path::from_indices(&[0, 1, 0, 1, 0, 1]).unwrap().is_redundant());
    }

    #[test]
    fn concat_and_extend() {
        let p = Path::from_indices(&[0, 1]).unwrap();
        let q = Path::from_indices(&[1, 2]).unwrap();
        assert_eq!(p.concat(&q).unwrap(), Path::from_indices(&[0, 1, 2]).unwrap());
        assert!(q.concat(&p).is_err());
        assert_eq!(p.extended(id(2)).unwrap(), Path::from_indices(&[0, 1, 2]).unwrap());
        assert!(p.extended(id(1)).is_err());
    }

    #[test]
    fn validity_against_graph() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(Path::from_indices(&[0, 1, 2]).unwrap().is_valid_in(&g));
        assert!(!Path::from_indices(&[0, 2]).unwrap().is_valid_in(&g));
        assert!(Path::single(id(2)).is_valid_in(&g));
    }

    #[test]
    fn set_interpretation() {
        let p = Path::from_indices(&[0, 1, 0, 2]).unwrap();
        assert_eq!(p.node_set().len(), 3);
        assert!(p.intersects(NodeSet::singleton(id(1))));
        assert!(!p.intersects(NodeSet::singleton(id(3))));
        assert!(p.is_within(NodeSet::universe(3)));
        assert!(!p.is_within(NodeSet::universe(2)));
    }

    #[test]
    fn reachability() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (3, 0)]).unwrap();
        assert!(is_reachable(&g, id(0), id(2)));
        assert!(!is_reachable(&g, id(2), id(0)));
        assert_eq!(reachable_from(&g, id(3)).len(), 4);
        assert_eq!(reaching_to(&g, id(2)).len(), 4);
        assert_eq!(reaching_to(&g, id(3)), NodeSet::singleton(id(3)));
    }

    #[test]
    fn simple_paths_in_diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let g = Digraph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let ps = simple_paths(&g, id(0), id(3), NodeSet::EMPTY, PathBudget::default()).unwrap();
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|p| p.is_simple() && p.is_valid_in(&g)));
        // Forbidding node 1 leaves only the lower route.
        let ps = simple_paths(&g, id(0), id(3), NodeSet::singleton(id(1)), PathBudget::default())
            .unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0], Path::from_indices(&[0, 2, 3]).unwrap());
    }

    #[test]
    fn simple_paths_trivial_when_endpoints_equal() {
        let g = generators::clique(3);
        let ps = simple_paths(&g, id(1), id(1), NodeSet::EMPTY, PathBudget::default()).unwrap();
        assert_eq!(ps, vec![Path::single(id(1))]);
    }

    #[test]
    fn simple_paths_count_in_clique() {
        // In K4, (u,v)-simple paths: 1 direct + 2 one-hop + 2 two-hop = 5.
        let g = generators::clique(4);
        let ps = simple_paths(&g, id(0), id(3), NodeSet::EMPTY, PathBudget::default()).unwrap();
        assert_eq!(ps.len(), 5);
    }

    #[test]
    fn simple_paths_ending_at_counts() {
        // In K4, simple paths ending at v: ⟨v⟩ + 3 direct + 6 length-2 + 6 length-3 = 16.
        let g = generators::clique(4);
        let ps = simple_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::default()).unwrap();
        assert_eq!(ps.len(), 16);
        assert!(ps.iter().all(|p| p.ter() == id(0) && p.is_simple()));
        assert!(ps.contains(&Path::single(id(0))));
    }

    #[test]
    fn redundant_paths_include_all_simple_ones() {
        let g = generators::clique(4);
        let simple =
            simple_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::default()).unwrap();
        let redundant =
            redundant_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::default()).unwrap();
        let rset: HashSet<&Path> = redundant.iter().collect();
        for p in &simple {
            assert!(rset.contains(p), "missing simple path {p}");
        }
        assert!(redundant.iter().all(|p| p.is_redundant() && p.ter() == id(0)));
        // Redundant strictly exceeds simple in a clique.
        assert!(redundant.len() > simple.len());
        // No duplicates.
        assert_eq!(rset.len(), redundant.len());
    }

    #[test]
    fn redundant_paths_respect_forbidden_set() {
        let g = generators::clique(5);
        let forbidden = NodeSet::singleton(id(4));
        let rs = redundant_paths_ending_at(&g, id(0), forbidden, PathBudget::default()).unwrap();
        assert!(rs.iter().all(|p| !p.contains(id(4))));
    }

    #[test]
    fn redundant_path_lengths_bounded_by_2n() {
        let g = generators::clique(4);
        let rs =
            redundant_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::default()).unwrap();
        assert!(rs.iter().all(|p| p.node_count() <= 2 * g.node_count()));
    }

    #[test]
    fn budget_is_enforced() {
        let g = generators::clique(6);
        let err = simple_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::new(10));
        assert_eq!(err.unwrap_err(), GraphError::BudgetExceeded { limit: 10 });
        let err = redundant_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::new(10));
        assert!(matches!(err.unwrap_err(), GraphError::BudgetExceeded { .. }));
    }

    #[test]
    fn budget_counts_only_the_result() {
        // Source 0 feeds a K6 on 1..=6 through its one edge 0 -> 1, so the
        // only redundant path ending at 0 is ⟨0⟩. The K6 nodes cannot reach
        // 0, and their many simple paths must not spend the budget.
        let mut edges = vec![(0, 1)];
        edges.extend((1..=6).flat_map(|u| (1..=6).filter(move |&v| v != u).map(move |v| (u, v))));
        let g = Digraph::from_edges(7, &edges).unwrap();
        for max_paths in [1, 10, 100, 10_000] {
            let rs =
                redundant_paths_ending_at(&g, id(0), NodeSet::EMPTY, PathBudget::new(max_paths));
            assert_eq!(rs, Ok(vec![Path::single(id(0))]), "budget {max_paths}");
        }
    }

    #[test]
    fn forbidden_endpoint_yields_empty() {
        let g = generators::clique(3);
        let f = NodeSet::singleton(id(0));
        assert!(simple_paths(&g, id(0), id(1), f, PathBudget::default()).unwrap().is_empty());
        assert!(simple_paths_ending_at(&g, id(0), f, PathBudget::default()).unwrap().is_empty());
        assert!(redundant_paths_ending_at(&g, id(0), f, PathBudget::default()).unwrap().is_empty());
    }

    #[test]
    fn display_format() {
        let p = Path::from_indices(&[0, 2, 1]).unwrap();
        assert_eq!(p.to_string(), "⟨0,2,1⟩");
    }
}
