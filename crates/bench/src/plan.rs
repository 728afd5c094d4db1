//! Plumbing shared by the experiment binaries that are an
//! [`ExperimentPlan`](dbac_core::scenario::sweep::ExperimentPlan) plus a
//! table renderer.

use dbac_core::scenario::sweep::{Sweep, SweepReport};
use dbac_graph::{Digraph, NodeId};
use std::collections::HashSet;

/// The highest-numbered node — where the plans plant their one fault.
#[must_use]
pub fn last_node(g: &Digraph) -> NodeId {
    NodeId::new(g.node_count() - 1)
}

/// The path following `--json` on the command line, if any.
///
/// # Panics
///
/// Panics if `--json` is the last argument.
#[must_use]
pub fn json_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            return Some(args.next().expect("--json requires a path"));
        }
    }
    None
}

/// Runs every cell of `sweep`, prints the `plan: N cells in M seed-batch
/// groups` line and returns the raw report — every row of which is `Ok`.
///
/// # Panics
///
/// Panics with `claim` and each failed cell's label and typed error if any
/// cell was rejected or failed to run.
#[must_use]
pub fn run_plan(sweep: &Sweep, claim: &str) -> SweepReport {
    let report = sweep.run();
    let failed: Vec<String> = report
        .failures()
        .iter()
        .map(|row| format!("{}: {}", row.label, row.summary.as_ref().unwrap_err()))
        .collect();
    assert!(failed.is_empty(), "{claim}: {failed:?}");
    let groups: HashSet<&str> = report.rows.iter().map(|row| row.group.as_str()).collect();
    println!("plan: {} cells in {} seed-batch groups\n", sweep.cell_count(), groups.len());
    report
}
