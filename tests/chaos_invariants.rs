//! Chaos invariant harness: randomized, seeded link-fault plans must never
//! cost *safety* — only liveness, and liveness loss must always surface as
//! data (a stalled node, a typed error, a per-node `incomplete` entry),
//! never as a panic or a hang past the watchdog.
//!
//! Three invariant families:
//!
//! 1. **Safety under arbitrary chaos** (f = 0, Sim): whatever a random
//!    plan does to the links, decided honest outputs stay in the honest
//!    input hull and deciders ε-agree. Nodes starved of messages simply
//!    do not decide.
//! 2. **Graceful degradation** (Threaded): a fully partitioned node makes
//!    the run return a scored partial [`Outcome`] with that node in
//!    `incomplete`, not a whole-run error.
//! 3. **Determinism**: a zero-probability plan is bit-identical to no
//!    plan, and the same (plan, seed) replays bit-identically — on both
//!    in-process runtimes.
//! 4. **Wire parity** (Sim vs Net): fault plans whose per-edge decisions
//!    are independent of message arrival order (`Omit`, `Drop {1.0}`,
//!    `Duplicate {1.0}`, all-covering `Partition` windows) must agree
//!    message-for-message between the event-queue simulator and the real
//!    socket runtime — same decisions, same histories, same per-edge loss
//!    and duplication counters. A partition that starves nodes over real
//!    sockets must surface as `Outcome::incomplete`, never as an error.
//!
//! The randomized Sim cases record their schedules: a case whose checks
//! fail keeps its trace at `target/repro/chaos-<seed>.trace` (the crash
//! and iterative families at `chaos-crash-<seed>` and `chaos-iter-<seed>`),
//! which `Trace::read_from` reads back and `Fleet::replay` re-runs; CI's
//! `chaos` job uploads them.

mod common;

use common::keeping_trace_on_failure;
use dbac::core::error::RunError;
use dbac::graph::{generators, Digraph, NodeId};
use dbac::scenario::{
    ByzantineWitness, CrashTwoReach, FaultKind, IncompleteReason, IterativeTrimmedMean, LinkFault,
    LinkFaultPlan, MsgClass, Outcome, Runtime, Scenario,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A random plan over the graph's real edges: 1–6 faults drawn from every
/// [`LinkFault`] kind, with destructive probabilities kept below 1 so the
/// chaos is severe but not trivially total.
fn random_plan(g: &Digraph, seed: u64) -> LinkFaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let count = rng.gen_range(1..=edges.len().min(6));
    let mut plan = LinkFaultPlan::new(seed);
    for _ in 0..count {
        let (from, to) = edges[rng.gen_range(0..edges.len())];
        let fault = match rng.gen_range(0u32..6) {
            0 => LinkFault::Drop { prob: rng.gen_range(0.0..0.9) },
            1 => LinkFault::Duplicate { prob: rng.gen_range(0.0..0.9) },
            2 => LinkFault::Reorder { window: rng.gen_range(0u64..32) },
            3 => LinkFault::Corrupt { prob: rng.gen_range(0.0..0.6) },
            4 => {
                let from_step = rng.gen_range(0u64..40);
                LinkFault::Partition { from_step, to_step: from_step + rng.gen_range(0u64..80) }
            }
            _ => LinkFault::Omit,
        };
        plan = plan.fault(from, to, fault);
    }
    plan
}

/// Case rotation: both protocols on the cliques, CrashTwoReach on the
/// 8-node bridged Figure 1(b) topology (BW's redundant flooding is too
/// heavy there for a 240-case loop — seconds per case).
fn case_shape(case: u64) -> (&'static str, Digraph, bool) {
    match case % 6 {
        0 => ("K4", generators::clique(4), true),
        1 => ("K5", generators::clique(5), true),
        2 => ("fig1b-small", generators::figure_1b_small(), false),
        3 => ("K4", generators::clique(4), false),
        4 => ("K5", generators::clique(5), false),
        _ => ("fig1b-small", generators::figure_1b_small(), false),
    }
}

/// Safety among deciders: hull containment always, ε-agreement among the
/// honest nodes that decided. Vacuously true when chaos starved everyone.
fn assert_safe(out: &Outcome, case: u64, graph: &str) {
    assert!(out.valid(), "validity violated: case {case} on {graph}: {:?}", out.outputs);
    assert!(
        out.spread() <= out.epsilon,
        "ε-agreement violated among deciders: case {case} on {graph}: spread {} > ε {}",
        out.spread(),
        out.epsilon
    );
    audit_transport_ledger(out, &format!("case {case} on {graph}"));
}

/// The transport ledger must balance, per message class: everything that
/// entered the system (`sent + duplicated`) reached at most one terminal
/// state (`delivered + dropped + corrupted + rejected`), with the rest
/// still in flight. `undelivered()` saturates, so the inequality is
/// asserted explicitly — the ledger identity alone would mask overcounts.
fn audit_transport_ledger(out: &Outcome, context: &str) {
    let Some(transport) = out.sim_stats.transport.measured() else { return };
    for class in MsgClass::ALL {
        let c = transport.class(class);
        let inflow = c.sent + c.duplicated;
        let terminal = c.delivered + c.dropped + c.corrupted + c.rejected;
        assert!(
            terminal <= inflow,
            "{context}: {} ledger overdrawn: {terminal} terminal events from {inflow} inputs \
             ({c:?})",
            class.label(),
        );
        assert_eq!(
            inflow,
            terminal + c.undelivered(),
            "{context}: {} ledger does not balance ({c:?})",
            class.label(),
        );
    }
}

/// Invariant family 1: 240 randomized fault-free (f = 0) cases across
/// three topologies and both core protocols. Chaos may stall nodes but
/// never corrupts a decision, and every failure mode is typed.
#[test]
fn randomized_chaos_never_violates_safety() {
    let (mut decided_runs, mut stalled_runs) = (0u32, 0u32);
    for case in 0..240u64 {
        let (graph_label, g, bw) = case_shape(case);
        let n = g.node_count();
        let plan = random_plan(&g, case);
        let builder = Scenario::builder(g, 0)
            .inputs((0..n).map(|i| i as f64).collect())
            .epsilon(0.5)
            .seed(case)
            .link_faults(plan)
            .record_trace(true);
        let cfg = if bw {
            builder.protocol(ByzantineWitness::default())
        } else {
            builder.protocol(CrashTwoReach::default())
        }
        .build()
        .expect("random plans over real edges validate");
        match cfg.run() {
            Ok(out) => {
                let trace = out.trace.as_ref().expect("recorded");
                keeping_trace_on_failure(&format!("chaos-{case}"), trace, || {
                    assert_safe(&out, case, graph_label);
                });
                if out.all_decided() {
                    decided_runs += 1;
                } else {
                    stalled_runs += 1;
                }
            }
            // Liveness loss is allowed, but only as a typed runtime error.
            Err(RunError::Sim(_)) => stalled_runs += 1,
            Err(e) => panic!("untyped failure under chaos: case {case} on {graph_label}: {e}"),
        }
    }
    // The harness must exercise both regimes, or the invariants are vacuous.
    assert!(decided_runs > 0, "no chaos case ever decided");
    assert!(stalled_runs > 0, "no chaos case ever lost liveness");
}

/// Invariant family 1, f = 1: chaos composed with a node-level crash fault
/// keeps hull containment (the crash input sits inside the honest hull).
#[test]
fn randomized_chaos_composes_with_crash_faults() {
    for case in 0..40u64 {
        let g = generators::clique(4);
        let plan = random_plan(&g, 1_000 + case);
        let cfg = Scenario::builder(g, 1)
            .inputs(vec![0.0, 10.0, 5.0, 5.0])
            .epsilon(1.0)
            .fault(NodeId::new(3), FaultKind::Crash)
            .seed(case)
            .link_faults(plan)
            .record_trace(true)
            .protocol(CrashTwoReach::default())
            .build()
            .unwrap();
        match cfg.run() {
            Ok(out) => {
                let trace = out.trace.as_ref().expect("recorded");
                keeping_trace_on_failure(&format!("chaos-crash-{case}"), trace, || {
                    assert!(out.valid(), "case {case}: {:?}", out.outputs);
                });
            }
            Err(RunError::Sim(_)) => {}
            Err(e) => panic!("untyped failure under chaos: case {case}: {e}"),
        }
    }
}

/// Invariant family 2: a Threaded run with one fully partitioned node
/// degrades to a scored partial outcome — survivors decide and ε-agree,
/// the victim is reported per-node in `incomplete`, and nothing errors.
#[test]
fn threaded_partitioned_node_degrades_to_partial_outcome() {
    let g = generators::clique(4);
    let victim = NodeId::new(3);
    let mut plan = LinkFaultPlan::new(11);
    for v in 0..3 {
        plan = plan.fault(NodeId::new(v), victim, LinkFault::Omit);
    }
    let out = Scenario::builder(g, 1)
        .inputs(vec![0.0, 10.0, 4.0, 6.0])
        .epsilon(0.5)
        .seed(4)
        .link_faults(plan)
        .runtime(Runtime::Threaded { timeout: Duration::from_secs(4), jitter_micros: 0 })
        .protocol(ByzantineWitness::default())
        .build()
        .unwrap()
        .run()
        .expect("degradation must not be a whole-run error");
    for v in 0..3 {
        assert!(out.outputs[v].is_some(), "survivor {v} must still decide");
    }
    assert!(out.valid());
    assert!(out.spread() <= out.epsilon, "survivors must ε-agree, spread {}", out.spread());
    assert_eq!(out.outputs[3], None, "the starved node cannot have decided");
    assert!(out.degraded());
    assert_eq!(out.incomplete.len(), 1, "exactly the victim is incomplete: {:?}", out.incomplete);
    assert_eq!(out.incomplete[0].node, victim);
    assert_eq!(out.incomplete[0].reason, IncompleteReason::Timeout);
    assert!(out.sim_stats.messages_dropped() > 0, "the omitted edges must count their losses");
    audit_transport_ledger(&out, "threaded partition");
}

/// Invariant family 4: a deterministic duplicate storm (every copy doubled
/// on two edges) agrees message-for-message between Sim and Net — the
/// decisions, trajectories, and every transport counter except the
/// Net-only rejection count, which must stay zero.
#[test]
fn net_duplicate_storm_matches_sim_message_for_message() {
    let plan = || {
        LinkFaultPlan::new(9)
            .fault(NodeId::new(0), NodeId::new(1), LinkFault::Duplicate { prob: 1.0 })
            .fault(NodeId::new(2), NodeId::new(3), LinkFault::Duplicate { prob: 1.0 })
    };
    let run = |rt: Runtime| {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![0.0, 10.0, 4.0, 6.0])
            .epsilon(0.25)
            .seed(9)
            .link_faults(plan())
            .runtime(rt)
            .protocol(ByzantineWitness::default())
            .run()
            .unwrap()
    };
    let sim = run(Runtime::Sim);
    let net = run(Runtime::net(Duration::from_secs(120)));
    assert!(sim.converged() && sim.valid());
    assert_eq!(sim.outputs, net.outputs, "decisions must survive the duplicate storm identically");
    assert_eq!(sim.histories, net.histories);
    assert!(net.incomplete.is_empty(), "duplicates must not cost liveness: {:?}", net.incomplete);
    assert_eq!(sim.sim_stats.messages_sent(), net.sim_stats.messages_sent());
    assert_eq!(sim.sim_stats.messages_duplicated(), net.sim_stats.messages_duplicated());
    assert!(net.sim_stats.messages_duplicated() > 0, "the storm must actually duplicate");
    assert_eq!(sim.sim_stats.messages_dropped(), 0);
    assert_eq!(net.sim_stats.messages_dropped(), 0);
    assert_eq!(net.sim_stats.messages_rejected(), 0, "every duplicated frame must still decode");
    audit_transport_ledger(&sim, "duplicate storm (sim)");
    audit_transport_ledger(&net, "duplicate storm (net)");
}

/// Invariant family 4: an order-independent loss schedule — one edge under
/// a total `Partition` window, another under `Drop {1.0}` — starves the
/// same pools on both runtimes: identical (non-)decisions, *exactly* equal
/// per-edge loss counters, and over real sockets the starvation lands as
/// per-node `incomplete` entries once the watchdog fires, not as an error.
#[test]
fn net_total_loss_schedule_matches_sim_and_degrades_to_incomplete() {
    let plan = || {
        LinkFaultPlan::new(17)
            .fault(
                NodeId::new(0),
                NodeId::new(1),
                LinkFault::Partition { from_step: 0, to_step: u64::MAX },
            )
            .fault(NodeId::new(2), NodeId::new(3), LinkFault::Drop { prob: 1.0 })
    };
    let run = |rt: Runtime| {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![0.0, 10.0, 4.0, 6.0])
            .epsilon(0.25)
            .seed(17)
            .link_faults(plan())
            .runtime(rt)
            .protocol(ByzantineWitness::default())
            .run()
            .unwrap()
    };
    let sim = run(Runtime::Sim);
    let net = run(Runtime::net(Duration::from_secs(3)));
    assert_safe(&sim, 17, "K4");
    assert_eq!(sim.outputs, net.outputs, "starvation must be runtime-independent");
    assert_eq!(sim.histories, net.histories);
    assert_eq!(
        sim.sim_stats.messages_dropped(),
        net.sim_stats.messages_dropped(),
        "the loss schedule must cut exactly the same messages on both runtimes"
    );
    assert!(net.sim_stats.messages_dropped() > 0, "the schedule must actually cut messages");
    assert!(!sim.all_decided(), "a total cut through a flood edge must starve someone");
    assert!(net.degraded(), "net starvation must surface as degradation");
    assert!(!net.incomplete.is_empty(), "starved nodes must be reported per-node");
    for entry in &net.incomplete {
        assert_eq!(entry.reason, IncompleteReason::Timeout, "starvation is a timeout: {entry:?}");
    }
    assert_eq!(net.sim_stats.messages_rejected(), 0, "loss must come from the plan, not the codec");
    audit_transport_ledger(&sim, "loss schedule (sim)");
    audit_transport_ledger(&net, "loss schedule (net)");
}

/// Invariant family 2 over real sockets, mirroring
/// [`threaded_partitioned_node_degrades_to_partial_outcome`]: with `f = 1`
/// headroom, a node whose in-edges are all omitted times out as a per-node
/// `incomplete` entry while the survivors still decide and ε-agree.
#[test]
fn net_partitioned_node_degrades_to_partial_outcome() {
    let g = generators::clique(4);
    let victim = NodeId::new(3);
    let mut plan = LinkFaultPlan::new(11);
    for v in 0..3 {
        plan = plan.fault(NodeId::new(v), victim, LinkFault::Omit);
    }
    let out = Scenario::builder(g, 1)
        .inputs(vec![0.0, 10.0, 4.0, 6.0])
        .epsilon(0.5)
        .seed(4)
        .link_faults(plan)
        .runtime(Runtime::net(Duration::from_secs(4)))
        .protocol(ByzantineWitness::default())
        .build()
        .unwrap()
        .run()
        .expect("degradation must not be a whole-run error");
    for v in 0..3 {
        assert!(out.outputs[v].is_some(), "survivor {v} must still decide");
    }
    assert!(out.valid());
    assert!(out.spread() <= out.epsilon, "survivors must ε-agree, spread {}", out.spread());
    assert_eq!(out.outputs[3], None, "the starved node cannot have decided");
    assert!(out.degraded());
    assert_eq!(out.incomplete.len(), 1, "exactly the victim is incomplete: {:?}", out.incomplete);
    assert_eq!(out.incomplete[0].node, victim);
    assert_eq!(out.incomplete[0].reason, IncompleteReason::Timeout);
    assert!(out.sim_stats.messages_dropped() > 0, "the omitted edges must count their losses");
    assert_eq!(out.sim_stats.messages_rejected(), 0, "every delivered frame must decode");
    audit_transport_ledger(&out, "net partition");
}

/// Runs one Sim scenario with full trace recording.
fn sim_outcome(plan: Option<LinkFaultPlan>, seed: u64) -> Outcome {
    let mut builder = Scenario::builder(generators::clique(4), 0)
        .inputs(vec![0.0, 10.0, 4.0, 6.0])
        .epsilon(0.25)
        .seed(seed)
        .record_trace(true)
        .protocol(ByzantineWitness::default());
    if let Some(plan) = plan {
        builder = builder.link_faults(plan);
    }
    builder.run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant family 3: all-zero probabilities make the chaos layer
    /// invisible — bit-identical to a run with no plan at all, because
    /// link decisions never consume scheduler randomness.
    #[test]
    fn zero_probability_plan_is_bit_identical_to_no_plan(seed in 0u64..1_000) {
        let zero = LinkFaultPlan::new(seed ^ 0xABCD)
            .fault(NodeId::new(0), NodeId::new(1), LinkFault::Drop { prob: 0.0 })
            .fault(NodeId::new(1), NodeId::new(2), LinkFault::Duplicate { prob: 0.0 })
            .fault(NodeId::new(2), NodeId::new(3), LinkFault::Corrupt { prob: 0.0 })
            .fault(NodeId::new(3), NodeId::new(0), LinkFault::Reorder { window: 0 })
            .fault(NodeId::new(0), NodeId::new(2), LinkFault::Partition { from_step: 5, to_step: 5 });
        let (plain, chaotic) = (sim_outcome(None, seed), sim_outcome(Some(zero), seed));
        prop_assert_eq!(&plain.outputs, &chaotic.outputs);
        prop_assert_eq!(&plain.histories, &chaotic.histories);
        // Everything but the wall clock is replay-deterministic.
        prop_assert_eq!(&plain.sim_stats.transport, &chaotic.sim_stats.transport);
        prop_assert_eq!(&plain.sim_stats.protocol, &chaotic.sim_stats.protocol);
        prop_assert_eq!(&plain.sim_stats.nodes, &chaotic.sim_stats.nodes);
        prop_assert_eq!(&plain.sim_stats.virtual_time, &chaotic.sim_stats.virtual_time);
        prop_assert_eq!(&plain.trace, &chaotic.trace);
    }

    /// Invariant family 3: the same (plan, seed) replays bit-identically
    /// under the simulator, trace and counters included.
    #[test]
    fn sim_chaos_replay_is_bit_identical(seed in 0u64..1_000) {
        let g = generators::clique(4);
        let run = || sim_outcome(Some(random_plan(&g, seed)), seed);
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.outputs, &b.outputs);
        prop_assert_eq!(&a.histories, &b.histories);
        prop_assert_eq!(&a.sim_stats.transport, &b.sim_stats.transport);
        prop_assert_eq!(&a.sim_stats.protocol, &b.sim_stats.protocol);
        prop_assert_eq!(&a.sim_stats.nodes, &b.sim_stats.nodes);
        prop_assert_eq!(&a.sim_stats.virtual_time, &b.sim_stats.virtual_time);
        prop_assert_eq!(&a.trace, &b.trace);
    }
}

/// Invariant family 3 under real threads: for f = 0 the protocol's
/// decisions are schedule-independent, so the same (plan, seed) must give
/// identical outputs, histories and stragglers across Threaded replays.
#[test]
fn threaded_chaos_replay_is_identical() {
    let run = || {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![0.0, 10.0, 4.0, 6.0])
            .epsilon(0.25)
            .seed(21)
            .link_faults(
                LinkFaultPlan::new(21)
                    .fault(NodeId::new(0), NodeId::new(1), LinkFault::Duplicate { prob: 0.4 })
                    .fault(NodeId::new(2), NodeId::new(3), LinkFault::Reorder { window: 50 }),
            )
            .runtime(Runtime::Threaded { timeout: Duration::from_secs(120), jitter_micros: 0 })
            .protocol(ByzantineWitness::default())
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.histories, b.histories);
    assert_eq!(a.incomplete, b.incomplete);
    assert!(a.converged() && a.valid());
}

/// Invariant family 1 for the iterative W-MSR engine, past the 128-node
/// wall: chaos over a 150-node circulant may stall rounds but never
/// perturbs a fired one. At `f = 0` a node fires only on its complete
/// in-neighborhood, so every node that finishes holds exactly the
/// chaos-free trajectory value — and the `iter` message class must keep a
/// balanced transport ledger (`sent + duplicated` equals terminal states
/// plus in-flight) while every other class stays silent.
#[test]
fn iterative_chaos_balances_the_iter_ledger() {
    let n = 150;
    let rounds = 40;
    let reference = Scenario::builder(generators::circulant_pow2(n), 0)
        .inputs((0..n).map(|i| i as f64).collect())
        .epsilon(1e-3)
        .rounds(rounds)
        .protocol(IterativeTrimmedMean::default())
        .run()
        .expect("chaos-free reference");
    assert!(reference.all_decided() && reference.converged());

    let (mut decided_runs, mut stalled_runs) = (0u32, 0u32);
    for case in 0..12u64 {
        let g = generators::circulant_pow2(n);
        let plan = random_plan(&g, case.wrapping_add(7_000));
        let out = Scenario::builder(g, 0)
            .inputs((0..n).map(|i| i as f64).collect())
            .epsilon(1e-3)
            .rounds(rounds)
            .seed(case)
            .link_faults(plan)
            .record_trace(true)
            .protocol(IterativeTrimmedMean::default())
            .run()
            .expect("chaos stalls the iterative engine, it never errors");
        let trace = out.trace.as_ref().expect("recorded");
        let mut all = true;
        keeping_trace_on_failure(&format!("chaos-iter-{case}"), trace, || {
            assert_safe(&out, case, "circulant-pow2-150");
            let transport =
                out.sim_stats.transport.measured().expect("sim transport is observable");
            assert!(transport.class(MsgClass::Iter).sent > 0, "case {case}: no iter traffic");
            for class in MsgClass::ALL {
                if class != MsgClass::Iter {
                    let c = transport.class(class);
                    assert_eq!(
                        (c.sent, c.duplicated),
                        (0, 0),
                        "case {case}: {} traffic in an iterative run",
                        class.label()
                    );
                }
            }
            // Fired rounds are chaos-proof: whoever decided matches the
            // chaos-free trajectory bit-for-bit.
            for (v, decided) in out.outputs.iter().enumerate() {
                match decided {
                    Some(x) => assert_eq!(
                        x.to_bits(),
                        reference.outputs[v].unwrap().to_bits(),
                        "case {case}: node {v} fired a perturbed round"
                    ),
                    None => all = false,
                }
            }
        });
        if all {
            decided_runs += 1;
        } else {
            stalled_runs += 1;
        }
    }
    assert!(decided_runs > 0, "no iterative chaos case ever finished");
    assert!(stalled_runs > 0, "no iterative chaos case ever lost liveness");
}
