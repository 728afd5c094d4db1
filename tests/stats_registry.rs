//! Live stats registry: three-way runtime parity and concurrency.
//!
//! Two guarantees pinned here:
//!
//! 1. **Parity** — the f = 0 differential scenario (decisions independent
//!    of message interleaving, see `cross_runtime.rs`) produces final
//!    snapshots whose *deterministic* counters agree across `Sim`,
//!    `Threaded` and `Net`: protocol progress (rounds fired, witness
//!    completions, MC firings, FRA marks), per-node completion gauges, and
//!    the per-class transport ledger between the two message-complete
//!    runtimes (Sim and Net deliver every sent message; Threaded may
//!    legitimately park undelivered messages once a node finishes).
//!    Additionally, on every runtime, an attached registry's snapshot is
//!    bit-for-bit equal to `Outcome::sim_stats` — the registry *is* the
//!    outcome's ground truth, not a parallel bookkeeping path.
//!    A registry with fewer per-node gauges than the graph has nodes is
//!    rejected as a typed error before the run starts.
//! 2. **Liveness** — polling a shared registry *during* a Threaded run
//!    never panics, and every observed total is monotone non-decreasing:
//!    single-writer shards merged on read can tear across cells but never
//!    within one, so each counter only grows.

use dbac::core::RunError;
use dbac::graph::generators;
use dbac::scenario::{
    ByzantineWitness, MsgClass, Outcome, Runtime, Scenario, ScenarioBuilder, StatsRegistry,
};
use dbac::sim::SimError;
use std::sync::Arc;
use std::time::Duration;

fn differential() -> ScenarioBuilder {
    Scenario::builder(generators::clique(4), 0)
        .inputs(vec![0.0, 10.0, 4.0, 6.0])
        .epsilon(0.25)
        .seed(5)
        .protocol(ByzantineWitness::default())
}

fn run_with_registry(runtime: Runtime) -> (Arc<StatsRegistry>, Outcome) {
    let registry = StatsRegistry::new(4);
    let out = differential()
        .runtime(runtime)
        .stats(Arc::clone(&registry))
        .run()
        .expect("differential scenario runs");
    (registry, out)
}

#[test]
fn registry_is_ground_truth_on_all_three_runtimes() {
    for runtime in [
        Runtime::Sim,
        Runtime::threaded(Duration::from_secs(120)),
        Runtime::net(Duration::from_secs(120)),
    ] {
        let label = format!("{runtime:?}");
        let (registry, out) = run_with_registry(runtime);
        assert_eq!(
            registry.snapshot(),
            out.sim_stats,
            "{label}: the attached registry and the outcome must agree bit-for-bit"
        );
        assert!(out.converged() && out.valid(), "{label}");
    }
}

#[test]
fn undersized_registry_is_a_typed_error() {
    for runtime in [Runtime::Sim, Runtime::threaded(Duration::from_secs(120))] {
        let err = differential()
            .runtime(runtime)
            .stats(StatsRegistry::new(3))
            .run()
            .expect_err("a 3-node registry cannot hold K4's gauges");
        assert_eq!(err, RunError::Sim(SimError::RegistryTooSmall { nodes: 4, registry: 3 }));
    }
    // A larger registry is fine: the spare gauges stay zero.
    let out = differential().stats(StatsRegistry::new(6)).run().expect("runs");
    assert!(out.converged() && out.valid());
}

#[test]
fn deterministic_counters_agree_across_runtimes() {
    let (_, sim) = run_with_registry(Runtime::Sim);
    let (_, threaded) = run_with_registry(Runtime::threaded(Duration::from_secs(120)));
    let (_, net) = run_with_registry(Runtime::net(Duration::from_secs(120)));

    // Protocol progress is a pure function of the scenario at f = 0.
    assert_eq!(sim.sim_stats.protocol, threaded.sim_stats.protocol, "threaded protocol counters");
    assert_eq!(sim.sim_stats.protocol, net.sim_stats.protocol, "net protocol counters");
    assert!(sim.sim_stats.protocol.rounds_fired > 0, "the run must make progress");
    assert!(sim.sim_stats.protocol.witness_completions > 0);
    assert!(sim.sim_stats.protocol.mc_firings > 0);

    // Every node finishes on every runtime.
    for (label, out) in [("sim", &sim), ("threaded", &threaded), ("net", &net)] {
        let nodes = out.sim_stats.nodes.measured().expect("node gauges observed");
        assert!(nodes.iter().all(|n| n.done), "{label}: all nodes must finish: {nodes:?}");
    }

    // Sim and Net both drain the system completely: the per-class ledger
    // must agree message-for-message.
    let sim_t = sim.sim_stats.transport.measured().expect("sim measures transport");
    let net_t = net.sim_stats.transport.measured().expect("net measures transport");
    for class in MsgClass::ALL {
        assert_eq!(
            sim_t.class(class),
            net_t.class(class),
            "per-class ledger diverged for {}",
            class.label()
        );
    }

    // Threaded sends the same messages (decisions are schedule-independent)
    // even if late arrivals to finished nodes may stay undelivered.
    let thr_t = threaded.sim_stats.transport.measured().expect("threaded measures transport");
    assert_eq!(sim_t.total().sent, thr_t.total().sent, "threaded send totals");
}

#[test]
fn live_threaded_polling_is_monotone_and_safe() {
    let registry = StatsRegistry::new(4);
    let scenario = differential()
        .runtime(Runtime::Threaded {
            timeout: Duration::from_secs(120),
            jitter_micros: 200, // stretch the run so the poller overlaps it
        })
        .stats(Arc::clone(&registry))
        .build()
        .expect("differential scenario builds");
    let run = std::thread::spawn(move || scenario.run().expect("threaded run"));

    // Poll the registry while node threads are writing. Merged reads may
    // tear *across* counters but each total must be monotone.
    let (mut polls, mut last_sent, mut last_delivered, mut last_rounds) = (0u64, 0u64, 0u64, 0u64);
    while !run.is_finished() {
        let snap = registry.snapshot();
        let (sent, delivered) = (snap.messages_sent(), snap.messages_delivered());
        assert!(sent >= last_sent, "sent regressed: {last_sent} -> {sent}");
        assert!(
            delivered >= last_delivered,
            "delivered regressed: {last_delivered} -> {delivered}"
        );
        assert!(
            snap.protocol.rounds_fired >= last_rounds,
            "rounds regressed: {last_rounds} -> {}",
            snap.protocol.rounds_fired
        );
        (last_sent, last_delivered, last_rounds) = (sent, delivered, snap.protocol.rounds_fired);
        polls += 1;
    }
    let out = run.join().expect("runner thread joins");

    assert!(polls > 0, "the poller must observe the run at least once");
    assert!(last_sent > 0, "live polling must see traffic before the run ends");
    assert_eq!(
        registry.snapshot(),
        out.sim_stats,
        "after the run the registry settles to exactly the outcome snapshot"
    );
    assert!(out.converged() && out.valid());
}
