//! The `Outcome` every protocol assembles, pinned field by field: one small
//! Sim scenario per protocol, one supported fault each. Whatever builds the
//! outcome must keep the protocol name, the configured round count, which
//! protocols count their own messages, which attach a certification, the
//! `None`-exactly-at-fault-slots shape of `outputs`/`histories`, one history
//! entry per round plus the input, and the attached registry as ground
//! truth. A requested trace is part of the contract on every runtime.

use dbac::graph::{generators, NodeId};
use dbac::scenario::{
    Aad04, ByzantineWitness, CrashTwoReach, FaultKind, IterativeTrimmedMean, Protocol, Runtime,
    Scenario, StatsRegistry,
};
use std::sync::Arc;
use std::time::Duration;

struct Case {
    protocol: Arc<dyn Protocol>,
    name: &'static str,
    fault: FaultKind,
    /// `Some(r)` sets a rounds override; the outcome must report it.
    rounds_override: Option<u32>,
    rounds: u32,
    counts_own_messages: bool,
    certifies: bool,
}

fn cases() -> Vec<Case> {
    let liar = FaultKind::ConstantLiar { value: 1e6 };
    vec![
        Case {
            protocol: Arc::new(ByzantineWitness::default()),
            name: "byzantine-witness",
            fault: liar.clone(),
            rounds_override: None,
            rounds: 5, // ⌈log2(10 / 0.5)⌉
            counts_own_messages: false,
            certifies: false,
        },
        Case {
            protocol: Arc::new(CrashTwoReach::default()),
            name: "crash-two-reach",
            fault: FaultKind::CrashAfter { sends: 3 },
            rounds_override: Some(7),
            rounds: 7,
            counts_own_messages: false,
            certifies: false,
        },
        Case {
            protocol: Arc::new(Aad04),
            name: "aad04",
            fault: liar,
            rounds_override: Some(6),
            rounds: 6,
            counts_own_messages: true,
            certifies: false,
        },
        Case {
            protocol: Arc::new(IterativeTrimmedMean::with_rounds(12)),
            name: "iterative-trimmed-mean",
            fault: FaultKind::Ramp { base: 0.0, slope: 1.0 },
            rounds_override: None,
            rounds: 12, // the protocol's own knob, no override
            counts_own_messages: true,
            certifies: true,
        },
    ]
}

#[test]
fn every_protocol_fills_the_outcome_the_same_way() {
    let inputs = vec![0.0, 10.0, 4.0, 6.0, 2.0];
    let faulty = NodeId::new(4);
    for case in cases() {
        let name = case.name;
        let registry = StatsRegistry::new(5);
        let mut builder = Scenario::builder(generators::clique(5), 1)
            .inputs(inputs.clone())
            .epsilon(0.5)
            .range((0.0, 10.0))
            .fault(faulty, case.fault)
            .seed(3)
            .stats(Arc::clone(&registry))
            .protocol_arc(case.protocol);
        if let Some(r) = case.rounds_override {
            builder = builder.rounds(r);
        }
        let out = builder.run().unwrap_or_else(|e| panic!("{name}: {e}"));

        assert_eq!(out.protocol, name);
        assert_eq!(out.rounds, case.rounds, "{name}: rounds");
        assert_eq!(out.epsilon, 0.5, "{name}");
        assert_eq!(out.honest_input_range, (0.0, 10.0), "{name}");
        assert_eq!(out.honest.len(), 4, "{name}");
        assert!(!out.honest.contains(faulty), "{name}");
        assert_eq!(out.honest_messages.is_some(), case.counts_own_messages, "{name}: messages");
        if let Some(sent) = out.honest_messages {
            assert!(sent > 0, "{name}: honest nodes did send");
        }
        assert_eq!(out.certification.is_some(), case.certifies, "{name}: certification");
        assert!(out.trace.is_none(), "{name}: no trace requested");
        assert!(out.incomplete.is_empty(), "{name}: the simulator runs to quiescence");

        // Fault slots — and only fault slots — are `None`.
        assert_eq!((out.outputs.len(), out.histories.len()), (5, 5), "{name}");
        for v in 0..5 {
            let is_fault = v == faulty.index();
            assert_eq!(out.outputs[v].is_none(), is_fault, "{name}: outputs[{v}]");
            assert_eq!(out.histories[v].is_none(), is_fault, "{name}: histories[{v}]");
        }
        for v in out.honest.iter() {
            let history = out.histories[v.index()].as_ref().unwrap();
            assert_eq!(history[0], inputs[v.index()], "{name}: history starts at the input");
            assert_eq!(history.len(), case.rounds as usize + 1, "{name}: one entry per round");
        }
        assert!(out.all_decided() && out.valid(), "{name}: {:?}", out.outputs);

        // The attached registry is the outcome's ground truth.
        assert_eq!(registry.snapshot(), out.sim_stats, "{name}: sim_stats");
        assert!(out.sim_stats.messages_delivered() > 0, "{name}");
    }
}

/// `record_trace` means the same on every runtime: one delivery per
/// arrival the ledger counts, each along an edge of the graph.
#[test]
fn every_runtime_records_the_requested_trace() {
    let timeout = Duration::from_secs(120);
    for runtime in [Runtime::Sim, Runtime::threaded(timeout), Runtime::net(timeout)] {
        let name = runtime.name();
        let graph = generators::clique(5);
        let out = Scenario::builder(graph.clone(), 1)
            .inputs(vec![0.0, 10.0, 4.0, 6.0, 2.0])
            .epsilon(0.5)
            .fault(NodeId::new(4), FaultKind::ConstantLiar { value: 1e6 })
            .seed(3)
            .runtime(runtime)
            .record_trace(true)
            .protocol(ByzantineWitness::default())
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let trace = out.trace.as_ref().unwrap_or_else(|| panic!("{name}: trace requested"));
        assert_eq!(trace.deliveries.len() as u64, out.sim_stats.messages_delivered(), "{name}");
        for d in &trace.deliveries {
            assert!(graph.has_edge(d.from, d.to), "{name}: {} -> {} is no edge", d.from, d.to);
        }
    }
}
