//! End-to-end: sweeps run green, and their reduced (seed-aggregated)
//! reports render through `dbac_bench::json::reduced` — the schema of CI's
//! `sweep.json`, `chaos.json` and `net.json` artifacts — and parse back
//! with `Json::parse`, group for group.

use dbac_bench::json::{self, Json};
use dbac_core::scenario::sweep::{ExperimentPlan, ReducedReport, SchedulerFamily};
use dbac_core::scenario::{ByzantineWitness, FaultKind, LinkFault, LinkFaultPlan, Runtime};
use dbac_graph::{generators, Digraph, NodeId};
use std::time::Duration;

/// Renders `report`, parses the text back, checks that nothing changed
/// on the way, and returns the group objects.
fn groups(report: &ReducedReport) -> Vec<Json> {
    let rendered = json::reduced(report);
    let parsed = Json::parse(&rendered.to_string()).expect("the reduced report parses");
    assert_eq!(parsed, rendered, "render and parse round-trip");
    match parsed.get("groups") {
        Some(Json::Array(groups)) => groups.clone(),
        other => panic!("no groups array: {other:?}"),
    }
}

fn group<'a>(groups: &'a [Json], key: &str) -> &'a Json {
    groups.iter().find(|g| g.get("group").and_then(Json::as_str) == Some(key)).expect(key)
}

fn count(group: &Json, key: &str) -> u64 {
    group.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("{key} in {group}"))
}

/// A statistic of one metric: `Some(x)` when measured, `None` for `null`.
fn stat(group: &Json, metric: &str, field: &str) -> Option<f64> {
    match group.get(metric).and_then(|m| m.get(field)) {
        Some(Json::F64(x)) => Some(*x),
        Some(Json::Null) => None,
        other => panic!("{metric}.{field} is {other:?} in {group}"),
    }
}

#[test]
fn full_dimensional_sweep_round_trips_through_the_json_module() {
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .fault_bound(0)
        .epsilons([1.0, 0.5])
        .scheduler("fix1", SchedulerFamily::fixed(1))
        .scheduler("rand", SchedulerFamily::random(1, 10))
        .runtime(Runtime::Sim)
        .runtime(Runtime::threaded(Duration::from_secs(60)))
        .seeds([1, 2])
        .build()
        .expect("plan expands");
    // ε × scheduler × runtime × seeds.
    assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 2);

    let report = sweep.run();
    assert!(report.failures().is_empty(), "failures: {:?}", report.failures());

    let reduced = report.reduce();
    assert_eq!(reduced.cells.len(), 8, "16 cells aggregate over the 2-seed batch");
    for cell in &reduced.cells {
        assert_eq!((cell.runs, cell.errors), (2, 0), "{}", cell.group);
        assert_eq!(cell.converged, 2, "{}", cell.group);
        assert_eq!(cell.valid, 2, "{}", cell.group);
        assert!(cell.wall_ns.mean > 0.0, "{}", cell.group);
        assert!(cell.wall_ns.min <= cell.wall_ns.max, "{}", cell.group);
    }
    // Both runtimes and both schedule families appear as groups.
    assert!(reduced.get("bw/K4/f0/none/eps1/fix1/sim").is_some());
    assert!(reduced.get("bw/K4/f0/none/eps0.5/rand/threaded").is_some());

    // The reduced JSON reads back group for group, every float exact.
    let groups = groups(&reduced);
    assert_eq!(groups.len(), 8);
    for (cell, g) in reduced.cells.iter().zip(&groups) {
        assert_eq!(g.get("group").and_then(Json::as_str), Some(cell.group.as_str()));
        assert_eq!(count(g, "runs"), 2);
        assert_eq!(count(g.get("wall_ns").unwrap(), "n"), 2);
        assert_eq!(stat(g, "wall_ns", "mean"), Some(cell.wall_ns.mean));
        assert_eq!(stat(g, "spread", "max"), Some(cell.spread.max));
        assert_eq!(stat(g, "messages", "stddev"), Some(cell.messages.stddev));
    }
}

#[test]
fn non_ascii_group_labels_round_trip() {
    let reduced = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K₄ ε", generators::clique(4))
        .fault_bound(0)
        .seeds([3, 4])
        .build()
        .expect("plan expands")
        .run()
        .reduce();
    let groups = groups(&reduced);
    assert_eq!(groups.len(), 1);
    // Non-ASCII labels come back as the exact keys the writer emitted.
    assert_eq!(count(group(&groups, "bw/K₄ ε/f0/none"), "runs"), 2);
}

#[test]
fn reduced_json_counts_convergence_and_errors() {
    // A fault at node 3 is outside K3, so that group's cells are error
    // rows; on K4 both seeds converge against the liar.
    let reduced = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("k3", generators::clique(3))
        .graph("k4", generators::clique(4))
        .fault_bound(1)
        .faults("liar", vec![(NodeId::new(3), FaultKind::ConstantLiar { value: 1e6 })])
        .seeds([7, 8])
        .build()
        .unwrap()
        .run()
        .reduce();
    let groups = groups(&reduced);

    let ok = group(&groups, "bw/k4/f1/liar");
    assert_eq!((count(ok, "runs"), count(ok, "errors")), (2, 0));
    assert_eq!((count(ok, "converged"), count(ok, "valid"), count(ok, "decided")), (2, 2, 2));
    assert!(stat(ok, "spread", "max").unwrap() < 0.5);
    assert!(stat(ok, "wall_ns", "mean").unwrap() > 0.0);
    assert_eq!(count(ok.get("rounds_to_epsilon").unwrap(), "n"), 2);

    // The error rows are counted, and nothing they did not measure reads
    // as a measured zero.
    let bad = group(&groups, "bw/k3/f1/liar");
    assert_eq!((count(bad, "runs"), count(bad, "errors"), count(bad, "converged")), (2, 2, 0));
    for metric in ["spread", "rounds_to_epsilon", "messages", "dropped", "wall_ns"] {
        assert_eq!(count(bad.get(metric).unwrap(), "n"), 0, "{metric}");
        for field in ["mean", "median", "min", "max", "stddev"] {
            assert_eq!(stat(bad, metric, field), None, "{metric}.{field}");
        }
    }
}

#[test]
fn reduced_json_carries_link_fault_drops() {
    let reduced = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("k4", generators::clique(4))
        .fault_bound(0)
        .link_faults("clean", |_, _| None)
        .link_faults("lossy", |g: &Digraph, seed| {
            let mut plan = LinkFaultPlan::new(seed);
            for (from, to) in g.edges() {
                plan = plan.fault(from, to, LinkFault::Drop { prob: 0.2 });
            }
            Some(plan)
        })
        .seeds([3, 4])
        .build()
        .unwrap()
        .run()
        .reduce();
    let groups = groups(&reduced);
    let lossy = group(&groups, "bw/k4/f0/none/lossy");
    assert_eq!(count(lossy.get("dropped").unwrap(), "n"), 2);
    assert!(stat(lossy, "dropped", "mean").unwrap() > 0.0);
    assert_eq!(stat(group(&groups, "bw/k4/f0/none/clean"), "dropped", "max"), Some(0.0));
}
