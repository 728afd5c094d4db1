//! The retired `HashSet<Path>` redundant-path enumeration, kept verbatim as
//! the differential oracle for
//! [`redundant_paths_ending_at`](dbac_graph::paths::redundant_paths_ending_at).
//! It glues every pair of simple halves and keeps the first occurrence of
//! each path, so its output order is the one the canonical-glue enumeration
//! must reproduce.
//!
//! Test code only — the library carries no second implementation.

use dbac_graph::paths::{simple_paths, simple_paths_ending_at};
use dbac_graph::{Digraph, GraphError, NodeId, NodeSet, Path, PathBudget};
use std::collections::HashSet;

/// All *redundant* paths ending at `to` avoiding `forbidden`, deduplicated
/// through a set of owned paths.
pub fn redundant_paths_ending_at(
    g: &Digraph,
    to: NodeId,
    forbidden: NodeSet,
    budget: PathBudget,
) -> Result<Vec<Path>, GraphError> {
    if forbidden.contains(to) {
        return Ok(Vec::new());
    }
    // p = p1 || p2 with ter(p1) = init(p2) = m, ter(p2) = to. Enumerate all
    // glue nodes m; `seen` deduplicates (a path may arise from many splits).
    let mut seen: HashSet<Path> = HashSet::new();
    let mut out: Vec<Path> = Vec::new();
    let allowed = forbidden.complement_in(g.node_count());
    for m in allowed.iter() {
        let firsts = simple_paths_ending_at(g, m, forbidden, budget)?;
        let seconds = simple_paths(g, m, to, forbidden, budget)?;
        for p2 in &seconds {
            for p1 in &firsts {
                let glued = p1.concat(p2).expect("ter(p1) = m = init(p2)");
                debug_assert!(glued.is_redundant());
                if seen.insert(glued.clone()) {
                    if out.len() >= budget.max_paths {
                        return Err(GraphError::BudgetExceeded { limit: budget.max_paths });
                    }
                    out.push(glued);
                }
            }
        }
    }
    Ok(out)
}
