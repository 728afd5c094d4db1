//! Experiment **E14 — net runtime smoke differential**.
//!
//! Drives the runtime axis of an [`ExperimentPlan`] across the event-queue
//! simulator and the socket-backed net runtime: BW on K4 and on the
//! directed two-clique bridge, three seeds each. The point is not a
//! performance number but a deployment invariant: every cell must converge
//! and stay valid, and the sim and net cells of the same (graph, seed)
//! batch must move *exactly* the same number of messages — the wire codec
//! and the framed transport are transparent to the protocol.
//!
//! Run: `cargo run --release -p dbac-bench --bin net`
//! (`-- --json <path>` additionally writes the *reduced* seed-aggregated
//! report, one object per seed-batch group
//! ([`dbac_bench::json::reduced`]), uploaded as a CI artifact next to
//! `sweep.json` and `chaos.json`.)

use dbac_bench::json;
use dbac_bench::plan::{json_path, run_plan};
use dbac_bench::table::Table;
use dbac_core::scenario::sweep::ExperimentPlan;
use dbac_core::scenario::{ByzantineWitness, Runtime};
use dbac_graph::generators;
use std::collections::BTreeMap;
use std::time::Duration;

fn main() {
    let out = json_path();
    println!("E14 — net runtime smoke differential: BW under sim vs net, three-seed batches\n");
    let sweep = ExperimentPlan::new()
        .protocol("BW", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .graph("bridge3", generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]))
        .fault_bound(0)
        .runtime(Runtime::Sim)
        .runtime(Runtime::net(Duration::from_secs(120)))
        .seeds([1, 2, 3])
        .build()
        .expect("net smoke plan expands");
    let reduced = run_plan(&sweep, "a loopback transport must never error").reduce();

    let mut t = Table::new(vec!["graph", "runtime", "converged", "valid", "messages (mean)"]);
    let mut messages_by_graph: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for cell in &reduced.cells {
        let graph = cell.coord("graph").expect("graph axis").to_string();
        let runtime = cell.coord("runtime").expect("runtime axis").to_string();
        assert_eq!(cell.converged, cell.runs, "{}: every cell must converge", cell.group);
        assert_eq!(cell.valid, cell.runs, "{}: every cell must stay valid", cell.group);
        t.row(vec![
            graph.clone(),
            runtime.clone(),
            format!("{}/{}", cell.converged, cell.runs),
            format!("{}/{}", cell.valid, cell.runs),
            format!("{:.0}", cell.messages.mean),
        ]);
        messages_by_graph.entry(graph).or_default().insert(runtime, cell.messages.mean);
    }
    for (graph, by_runtime) in &messages_by_graph {
        let (sim, net) = (by_runtime["sim"], by_runtime["net"]);
        assert_eq!(
            sim, net,
            "{graph}: sim and net must move exactly the same messages (sim {sim}, net {net})"
        );
    }
    println!("{}", t.render());
    println!(
        "Every cell converged and stayed valid, and each graph moved the\n\
         same message count under the simulator and over real sockets —\n\
         the framed transport is protocol-transparent.\n"
    );

    if let Some(path) = out {
        json::write(&path, "reduced net report", &json::reduced(&reduced));
    }
}
