//! What several test binaries share: the Algorithm BW fixture that
//! `delivery_order.rs` pins on the simulator and `cross_runtime.rs`
//! records on the wall-clock runtimes — K5 with node 4 faulty under each
//! catalog fault, and a fresh fleet of it to replay a recorded trace on —
//! and the repro file a failing check leaves behind.

// Each binary compiles this module and uses only part of it.
#![allow(dead_code)]

use dbac::core::{FloodMode, HonestNode, ProtocolConfig, Topology};
use dbac::graph::{generators, NodeId, PathBudget};
use dbac::scenario::{
    ByzantineWitness, FaultKind, Scenario, ScenarioBuilder, StatsRegistry, Trace,
};
use dbac::sim::Fleet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

/// The five BW faults of the catalog, one row each.
pub fn bw_faults() -> [FaultKind; 5] {
    [
        FaultKind::Equivocator { low: -100.0, high: 100.0 },
        FaultKind::ConstantLiar { value: 1e4 },
        FaultKind::RelayTamperer { spoof: -1e5 },
        FaultKind::PathFabricator { forged_value: -77.0 },
        FaultKind::Chaotic { seed: 5 },
    ]
}

/// The BW scenario of one catalog row: K5, node 4 faulty.
pub fn bw_k5(fault: FaultKind) -> ScenarioBuilder {
    Scenario::builder(generators::clique(5), 1)
        .inputs(vec![0.0, 10.0, 4.0, 6.0, 0.0])
        .epsilon(0.5)
        .fault(NodeId::new(4), fault)
        .protocol(ByzantineWitness::default())
}

/// A fresh BW fleet of `scenario`, its honest nodes booking into
/// `registry`.
pub fn bw_fleet(scenario: &Scenario, registry: &StatsRegistry) -> Fleet<HonestNode> {
    let (graph, f) = (scenario.graph().clone(), scenario.f());
    let budget = PathBudget::default();
    let topo = Arc::new(Topology::new(graph.clone(), f, FloodMode::Redundant, budget).unwrap());
    let config = ProtocolConfig::new(f, scenario.epsilon(), scenario.range());
    let mut fleet = Fleet::new(Arc::new(graph));
    for v in scenario.honest_set().iter() {
        let node = HonestNode::new(Arc::clone(&topo), config, v, scenario.inputs()[v.index()]);
        fleet.set_honest(v, node.with_stats(registry.register()));
    }
    for (v, kind) in scenario.faults() {
        let adversary = kind.adversary_kind().expect("a BW fault");
        fleet.set_byzantine(*v, adversary.build(Arc::clone(&topo), *v, config.rounds));
    }
    fleet
}

/// Runs `checks`; if one fails, writes `trace` to
/// `target/repro/<label>.trace` before the failure propagates.
pub fn keeping_trace_on_failure(label: &str, trace: &Trace, checks: impl FnOnce()) {
    if let Err(failure) = catch_unwind(AssertUnwindSafe(checks)) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/repro");
        let path = dir.join(format!("{label}.trace"));
        let mut bytes = Vec::new();
        let kept = trace.write_to(&mut bytes).is_ok()
            && std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, bytes)).is_ok();
        let verdict = if kept { "kept at" } else { "could not be written to" };
        eprintln!("{label}: trace {verdict} {}", path.display());
        resume_unwind(failure);
    }
}
