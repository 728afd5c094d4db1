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

/// Parses an experiment binary's arguments: nothing, or exactly
/// `--json <path>`. Anything else is an error naming the offender, so a
/// mistyped flag cannot pass for "no artifact requested".
fn parse_json_path(mut args: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let path = match args.next() {
        None => return Ok(None),
        Some(flag) if flag == "--json" => args.next().ok_or("--json requires a path")?,
        Some(other) => return Err(format!("unknown argument '{other}'")),
    };
    match args.next() {
        None => Ok(Some(path)),
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
    }
}

/// The path following `--json` on the command line, if any — the one
/// argument convention of the experiment binaries: each prints its table
/// and, given a path, also writes its JSON artifact there. On any other
/// argument list, prints the usage line to stderr and exits with status 2.
#[must_use]
pub fn json_path() -> Option<String> {
    parse_json_path(std::env::args().skip(1)).unwrap_or_else(|reason| {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!("{reason}\nusage: {bin} [--json <path>]");
        std::process::exit(2);
    })
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

#[cfg(test)]
mod tests {
    use super::parse_json_path;

    fn parse(args: &[&str]) -> Result<Option<String>, String> {
        parse_json_path(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn arguments_are_nothing_or_exactly_json_and_a_path() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--json", "p"]), Ok(Some("p".into())));
        assert!(parse(&["--json"]).unwrap_err().contains("requires a path"));
        assert!(parse(&["--jsno", "p"]).unwrap_err().contains("'--jsno'"));
        assert!(parse(&["--json", "p", "q"]).unwrap_err().contains("'q'"));
    }
}
