//! Cross-runtime differential: one deterministic [`Scenario`] executed
//! under `Runtime::Sim`, `Runtime::Threaded`, *and* `Runtime::Net` must
//! produce identical honest decisions, and identical `Outcome` fields
//! modulo runtime statistics and timing. The net arm additionally proves
//! that a full encode → frame → socket → decode round trip per message
//! changes nothing: the wire codec is semantics-preserving.
//!
//! The three-way fixtures use `f = 0`: with a single fault guess (∅)
//! every witness/fullness thread waits for the *complete* message pool
//! before firing, so the value set a node aggregates each round — and
//! therefore its decision — is independent of message interleaving. That
//! makes the decisions a pure function of the scenario, which is exactly
//! what a three-way differential needs.
//!
//! With `f > 0` a node may legitimately fire on whichever guess completes
//! first, so a wall-clock run's decisions depend on its schedule, and Sim
//! is no reference for them. The `f = 1` arms check each wall-clock run
//! against its own schedule instead: K5 with node 4 faulty, once per BW
//! catalog fault, is recorded on Threaded and on Net and its trace
//! replayed through `Fleet::replay` on a fresh fleet, which must consume
//! every delivery as a copy its sender sent and end with the run's
//! outputs and histories. A failing arm keeps its trace at
//! `target/repro/<fault>-<runtime>.trace` (`Trace::read_from` reads it
//! back), which CI's `net` job uploads.
//!
//! One sizing note: the full `figure_1b_small` BW flood moves ~1.1M
//! messages, which is fine in-process but minutes of wall clock once every
//! message crosses a real socket in a debug build. The default run
//! therefore keeps that fixture a sim-vs-threaded pair, and the three-way
//! gate exercises the same directed two-clique family at `k = 3` instead —
//! same bridge structure, ~10k messages. The fixture's three-way arm is an
//! ignored test: with one value per initiator in a `COMPLETE` it takes
//! ~16 s in release on a 2-vCPU host (Sim, Threaded and Net together), and
//! CI's `net` job runs it with `-- --ignored`.

mod common;

use common::{bw_faults, bw_fleet, bw_k5, keeping_trace_on_failure};
use dbac::graph::generators;
use dbac::scenario::{
    Aad04, ByzantineWitness, CrashTwoReach, FaultKind, IterativeTrimmedMean, Outcome, Runtime,
    Scenario, ScenarioBuilder, StatsRegistry,
};
use std::time::Duration;

fn run_both(build: impl Fn() -> ScenarioBuilder) -> (Outcome, Outcome) {
    let sim = build().runtime(Runtime::Sim).run().expect("sim run");
    let threaded =
        build().runtime(Runtime::threaded(Duration::from_secs(120))).run().expect("threaded run");
    (sim, threaded)
}

fn run_all(build: impl Fn() -> ScenarioBuilder) -> (Outcome, Outcome, Outcome) {
    let (sim, threaded) = run_both(&build);
    let net = build().runtime(Runtime::net(Duration::from_secs(120))).run().expect("net run");
    (sim, threaded, net)
}

/// Everything except runtime counters and the trace handle must agree.
fn assert_identical(sim: &Outcome, other: &Outcome, runtime: &str) {
    assert_eq!(sim.outputs, other.outputs, "{runtime}: honest decisions must match bit-for-bit");
    assert_eq!(sim.histories, other.histories, "{runtime}: state trajectories must match");
    assert_eq!(sim.honest, other.honest, "{runtime}");
    assert_eq!(sim.epsilon, other.epsilon, "{runtime}");
    assert_eq!(sim.honest_input_range, other.honest_input_range, "{runtime}");
    assert_eq!(sim.rounds, other.rounds, "{runtime}");
    assert_eq!(sim.protocol, other.protocol, "{runtime}");
    // `sim_stats` (transport counters differ between the event queue and
    // real channels) and `trace` (its `at` is a virtual tick on Sim and an
    // arrival index elsewhere, over a different interleaving) are exempt.
}

/// Three-way gate: Sim is the reference; Threaded and Net must both agree
/// with it, and the net run must have completed without watchdog losses.
fn assert_three_way(sim: &Outcome, threaded: &Outcome, net: &Outcome) {
    assert_identical(sim, threaded, "threaded");
    assert_identical(sim, net, "net");
    assert!(net.incomplete.is_empty(), "net run lost nodes: {:?}", net.incomplete);
    assert_eq!(
        net.sim_stats.messages_rejected(),
        0,
        "no frame may fail to decode in a fault-free net run"
    );
}

#[test]
fn bw_decisions_are_runtime_independent() {
    let (sim, threaded, net) = run_all(|| {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![0.0, 10.0, 4.0, 6.0])
            .epsilon(0.25)
            .seed(5)
            .protocol(ByzantineWitness::default())
    });
    assert!(sim.converged() && sim.valid(), "outputs {:?}", sim.outputs);
    assert_three_way(&sim, &threaded, &net);
}

fn bw_on_figure_1b_small() -> ScenarioBuilder {
    Scenario::builder(generators::figure_1b_small(), 0)
        .inputs((0..8).map(f64::from).collect())
        .epsilon(1.0)
        .seed(11)
        .protocol(ByzantineWitness::default())
}

#[test]
fn bw_on_a_directed_network_is_runtime_independent() {
    let (sim, threaded) = run_both(bw_on_figure_1b_small);
    assert!(sim.converged() && sim.valid(), "outputs {:?}", sim.outputs);
    assert_identical(&sim, &threaded, "threaded");
}

/// The same run with its Net arm, which the default test run leaves out
/// (see the sizing note in the module docs); CI's `net` job runs it in
/// release with `-- --ignored`.
#[test]
#[ignore = "minutes in a debug build; run in release with -- --ignored"]
fn bw_on_a_directed_network_is_runtime_independent_over_net() {
    let (sim, threaded, net) = run_all(bw_on_figure_1b_small);
    assert!(sim.converged() && sim.valid(), "outputs {:?}", sim.outputs);
    assert_three_way(&sim, &threaded, &net);
}

#[test]
fn bw_on_a_directed_two_clique_bridge_is_runtime_independent() {
    let graph = generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]);
    let inputs: Vec<f64> = (0..6).map(|i| i as f64).collect();
    let (sim, threaded, net) = run_all(|| {
        Scenario::builder(graph.clone(), 0)
            .inputs(inputs.clone())
            .epsilon(1.0)
            .seed(11)
            .protocol(ByzantineWitness::default())
    });
    assert!(sim.converged() && sim.valid(), "outputs {:?}", sim.outputs);
    assert_three_way(&sim, &threaded, &net);
}

#[test]
fn crash_protocol_decisions_are_runtime_independent() {
    let inputs: Vec<f64> = (0..8).map(|i| (i % 4) as f64 * 2.0).collect();
    let (sim, threaded, net) = run_all(|| {
        Scenario::builder(generators::figure_1b_small(), 0)
            .inputs(inputs.clone())
            .epsilon(0.5)
            .seed(3)
            .protocol(CrashTwoReach::default())
    });
    assert!(sim.converged() && sim.valid(), "outputs {:?}", sim.outputs);
    assert_three_way(&sim, &threaded, &net);
}

/// AAD04 over Bracha reliable broadcast. At `f = 0` each round waits for
/// all `n` broadcasts, so decisions, trajectories and the honest traffic
/// tally are all schedule-independent.
#[test]
fn aad04_decisions_are_runtime_independent() {
    let (sim, threaded, net) = run_all(|| {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![1.0, 9.0, 3.0, 5.0])
            .epsilon(0.5)
            .seed(7)
            .protocol(Aad04)
    });
    assert!(sim.converged() && sim.valid(), "outputs {:?}", sim.outputs);
    assert_three_way(&sim, &threaded, &net);
    assert_eq!(threaded.honest_messages, sim.honest_messages);
    assert_eq!(net.honest_messages, sim.honest_messages);
}

/// The iterative W-MSR engine, past the historical 128-node wall: a
/// 132-node circulant (offsets {1, 2}) is inexpressible on the u128-era
/// `NodeSet`, and the legacy synchronous loop rejected every runtime but
/// Sim. At `f = 0` each node waits for both in-neighbors' round values, so
/// the trajectory is schedule-independent — the three-way gate demands
/// bit-identical decisions AND trajectories across Sim, Threaded and Net.
/// Degree 2 keeps it to 132 threads and ~2.1k messages per arm.
#[test]
fn iterative_engine_past_128_nodes_is_runtime_independent() {
    let n = 132;
    let graph = generators::circulant(n, &[1, 2]);
    let inputs: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64 / 10.0).collect();
    let (sim, threaded, net) = run_all(|| {
        Scenario::builder(graph.clone(), 0)
            .inputs(inputs.clone())
            .epsilon(1e-3)
            .rounds(8)
            .seed(13)
            .protocol(IterativeTrimmedMean::default())
    });
    assert!(sim.all_decided(), "every node fires all rounds at f = 0");
    assert!(sim.valid(), "outputs {:?}", sim.outputs);
    assert_three_way(&sim, &threaded, &net);
    // The honest traffic tally is deterministic too: rounds × out-degree
    // per node, on every runtime.
    assert_eq!(sim.honest_messages, Some(8 * 2 * n as u64));
    assert_eq!(threaded.honest_messages, sim.honest_messages);
    assert_eq!(net.honest_messages, sim.honest_messages);
}

/// One `f = 1` arm: records `fault`'s K5 row on `runtime`, then replays
/// its trace on a fresh fleet, which must reproduce the run.
fn assert_replays_its_own_schedule(fault: FaultKind, runtime: Runtime) {
    let label = format!("{}-{}", fault.label(), runtime.name());
    let scenario = bw_k5(fault).seed(6).runtime(runtime).record_trace(true).build().expect("valid");
    let mut out = scenario.run().unwrap_or_else(|e| panic!("{label}: {e}"));
    let trace = out.trace.take().expect("every runtime records");
    keeping_trace_on_failure(&label, &trace, || {
        assert!(out.incomplete.is_empty(), "{label}: {:?}", out.incomplete);
        let delivered = out.sim_stats.messages_delivered();
        assert_eq!(trace.deliveries.len() as u64, delivered, "{label}: one delivery per arrival");
        let registry = StatsRegistry::new(5);
        let replay = bw_fleet(&scenario, &registry).replay(&trace.deliveries);
        let replay = replay.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!((replay.matched, replay.synthesized), (trace.deliveries.len(), 0), "{label}");
        for v in out.honest.iter() {
            let node = replay.nodes[v.index()].as_ref().expect("honest");
            assert_eq!(node.output(), out.outputs[v.index()], "{label}: {v}'s output");
            let history = Some(node.x_history().to_vec());
            assert_eq!(history, out.histories[v.index()], "{label}: {v}'s history");
        }
    });
}

#[test]
fn bw_f1_threaded_runs_replay_from_their_traces() {
    for fault in bw_faults() {
        assert_replays_its_own_schedule(fault, Runtime::threaded(Duration::from_secs(120)));
    }
}

#[test]
fn bw_f1_net_runs_replay_from_their_traces() {
    for fault in bw_faults() {
        assert_replays_its_own_schedule(fault, Runtime::net(Duration::from_secs(120)));
    }
}
