//! Error-path coverage for [`Scenario`] validation: every misuse must
//! return a *precise typed* [`RunError`] variant — property-tested over
//! the misuse space via the proptest shim, plus pinned protocol-level
//! checks (resilience bounds, network shape, runtime support).

use dbac::core::RunError;
use dbac::graph::{generators, NodeId};
use dbac::scenario::{
    Aad04, ByzantineWitness, CrashTwoReach, FaultKind, IterativeTrimmedMean, Runtime, Scenario,
};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any input vector whose length differs from `n` is rejected with the
    /// exact expected/got pair.
    #[test]
    fn wrong_input_length_is_typed(len in 0usize..12) {
        prop_assume!(len != 4);
        let err = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![1.0; len])
            .build()
            .unwrap_err();
        prop_assert_eq!(err, RunError::InputLengthMismatch { expected: 4, got: len });
    }

    /// Any ε ≤ 0 is rejected, echoing the offending value.
    #[test]
    fn non_positive_epsilon_is_typed(eps in -100.0f64..0.0) {
        let err = Scenario::builder(generators::clique(3), 1)
            .inputs(vec![0.0; 3])
            .epsilon(eps)
            .build()
            .unwrap_err();
        prop_assert_eq!(err, RunError::NonPositiveEpsilon { epsilon: eps });
    }

    /// A fault naming any node outside the graph is rejected with the
    /// offending index and the graph size.
    #[test]
    fn fault_outside_graph_is_typed(node in 4usize..64, n in 2usize..5) {
        let err = Scenario::builder(generators::clique(n), 1)
            .inputs(vec![0.0; n])
            .fault(NodeId::new(node), FaultKind::Crash)
            .build()
            .unwrap_err();
        prop_assert_eq!(err, RunError::FaultOutsideGraph { node, nodes: n });
    }

    /// More fault assignments than the bound `f` tolerates are rejected
    /// with both counts.
    #[test]
    fn exceeding_the_fault_bound_is_typed(configured in 1usize..4, f in 0usize..3) {
        prop_assume!(configured > f);
        let err = Scenario::builder(generators::clique(5), f)
            .inputs(vec![0.0; 5])
            .faults((0..configured).map(|i| (NodeId::new(i), FaultKind::Crash)))
            .build()
            .unwrap_err();
        prop_assert_eq!(err, RunError::TooManyFaults { configured, f });
    }

    /// Assigning two behaviours to one node is rejected, naming the node.
    #[test]
    fn duplicate_fault_is_typed(node in 0usize..4) {
        let err = Scenario::builder(generators::clique(4), 2)
            .inputs(vec![0.0; 4])
            .fault(NodeId::new(node), FaultKind::Crash)
            .fault(NodeId::new(node), FaultKind::ConstantLiar { value: 1.0 })
            .build()
            .unwrap_err();
        prop_assert_eq!(err, RunError::DuplicateFault { node });
    }

    /// Each protocol rejects fault kinds it cannot express, naming both
    /// the protocol and the fault.
    #[test]
    fn unsupported_faults_are_typed(choice in 0usize..3) {
        let (err, protocol, fault) = match choice {
            0 => (
                Scenario::builder(generators::clique(4), 1)
                    .inputs(vec![0.0; 4])
                    .fault(NodeId::new(3), FaultKind::Ramp { base: 0.0, slope: 1.0 })
                    .protocol(ByzantineWitness::default())
                    .run()
                    .unwrap_err(),
                "byzantine-witness",
                "ramp",
            ),
            1 => (
                Scenario::builder(generators::clique(4), 1)
                    .inputs(vec![0.0; 4])
                    .fault(NodeId::new(3), FaultKind::RelayTamperer { spoof: 1.0 })
                    .protocol(CrashTwoReach::default())
                    .run()
                    .unwrap_err(),
                "crash-two-reach",
                "relay-tamperer",
            ),
            _ => (
                Scenario::builder(generators::clique(4), 1)
                    .inputs(vec![0.0; 4])
                    .fault(NodeId::new(3), FaultKind::CrashAfter { sends: 2 })
                    .protocol(Aad04)
                    .run()
                    .unwrap_err(),
                "aad04",
                "crash-after",
            ),
        };
        prop_assert_eq!(err, RunError::UnsupportedFault { protocol, fault });
    }
}

#[test]
fn zero_and_non_finite_epsilon_are_typed() {
    let build = |eps: f64| {
        Scenario::builder(generators::clique(3), 1).inputs(vec![0.0; 3]).epsilon(eps).build()
    };
    assert_eq!(build(0.0).unwrap_err(), RunError::NonPositiveEpsilon { epsilon: 0.0 });
    assert!(matches!(
        build(f64::NAN).unwrap_err(),
        RunError::NonPositiveEpsilon { epsilon } if epsilon.is_nan()
    ));
    assert!(matches!(
        build(f64::INFINITY).unwrap_err(),
        RunError::NonPositiveEpsilon { epsilon } if epsilon.is_infinite()
    ));
}

#[test]
fn protocol_resilience_bounds_are_typed() {
    // AAD04 needs n > 3f: K3 with f = 1 is one node short.
    let err = Scenario::builder(generators::clique(3), 1)
        .inputs(vec![0.0; 3])
        .protocol(Aad04)
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        RunError::ResilienceExceeded { protocol: "aad04", n: 3, f: 1, requires: "n > 3f" }
    );
}

#[test]
fn complete_network_requirements_are_typed() {
    let err = Scenario::builder(generators::directed_cycle(5), 1)
        .inputs(vec![0.0; 5])
        .protocol(Aad04)
        .run()
        .unwrap_err();
    assert_eq!(err, RunError::IncompleteGraph { protocol: "aad04" });
}

#[test]
fn iterative_accepts_every_runtime() {
    // The iterative baseline is a message-passing protocol like the
    // others: no runtime is rejected, and a threaded run completes.
    let out = Scenario::builder(generators::clique(4), 1)
        .inputs(vec![0.0, 1.0, 2.0, 50.0])
        .rounds(15)
        .fault(NodeId::new(3), FaultKind::ConstantLiar { value: 50.0 })
        .runtime(Runtime::threaded(Duration::from_secs(20)))
        .protocol(IterativeTrimmedMean::default())
        .run()
        .unwrap();
    assert!(out.incomplete.is_empty(), "{:?}", out.incomplete);
    assert!(out.valid(), "{:?}", out.outputs);
}
