//! Scenario-layer [`Protocol`] implementations for the baseline
//! algorithms, completing the workspace's unified **Scenario → Outcome**
//! surface (see `dbac_core::scenario` for the builder and the core
//! protocols):
//!
//! | `Protocol` | Paper positioning |
//! |------------|-------------------|
//! | [`Aad04`] | Abraham–Amit–Dolev OPODIS 2004 (related work \[1\]): the complete-network algorithm BW generalizes |
//! | [`IterativeTrimmedMean`] | W-MSR iterative consensus (related work \[13, 25\]; Vaidya–Tseng–Liang arXiv [1201.4183](https://arxiv.org/abs/1201.4183) / [1202.6094](https://arxiv.org/abs/1202.6094)): local filtering under `(f+1, f+1)`-robustness, engine in [`crate::iterengine`] |
//!
//! Each implementation maps the protocol-agnostic
//! [`FaultKind`] assignments onto its own adversary
//! machinery and rejects behaviours it cannot express with typed errors,
//! so a single scenario description sweeps cleanly across algorithms.

#![deny(missing_docs)]

use crate::aad04::{AadNode, LiarAdversary};
use crate::iterative::IterStrategy;
use crate::iterengine::{IterLiar, IterNode};
use dbac_conditions::robustness::CertificationStatus;
use dbac_core::error::RunError;
use dbac_core::scenario::{run_fleet, FaultKind, Outcome, Precompute, Protocol, Readout, Scenario};
use dbac_graph::NodeId;
use dbac_sim::process::Silent;

// ---------------------------------------------------------------------------
// AAD04
// ---------------------------------------------------------------------------

/// The **Abraham–Amit–Dolev 2004** optimal-resilience asynchronous
/// approximate-agreement algorithm for complete networks (`n > 3f`),
/// running on reliable broadcast with witness confirmation. The E9
/// baseline that Algorithm BW generalizes to directed networks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aad04;

impl Protocol for Aad04 {
    fn name(&self) -> &'static str {
        "aad04"
    }

    /// A complete network with `n > 3f`, and only crash or constant-liar
    /// faults (reliable broadcast rules out equivocation, so a planted
    /// value is the strongest lie).
    fn check(&self, scenario: &Scenario) -> Result<(), RunError> {
        let (protocol, n, f) = (self.name(), scenario.graph().node_count(), scenario.f());
        if scenario.graph().edge_count() != n * n.saturating_sub(1) {
            return Err(RunError::IncompleteGraph { protocol });
        }
        if n <= 3 * f {
            return Err(RunError::ResilienceExceeded { protocol, n, f, requires: "n > 3f" });
        }
        scenario.check_faults(protocol, |kind| {
            matches!(kind, FaultKind::Crash | FaultKind::ConstantLiar { .. })
        })
    }

    fn execute(&self, scenario: &Scenario, _: &Precompute) -> Result<Outcome, RunError> {
        let (n, f) = (scenario.graph().node_count(), scenario.f());
        let rounds = scenario.rounds();
        let make_node = |v: NodeId, input: f64| {
            AadNode::new(v, n, f, input, scenario.epsilon(), scenario.range()).with_rounds(rounds)
        };
        run_fleet(
            scenario,
            self.name(),
            rounds,
            &scenario.resolve_stats(),
            make_node,
            |v, kind| match *kind {
                FaultKind::Crash => Box::new(Silent),
                // The liar's node goes through `make_node` so a rounds
                // override applies to it too — otherwise it would decide
                // early and degrade into a crash for the tail rounds.
                FaultKind::ConstantLiar { value } => {
                    Box::new(LiarAdversary::from_node(make_node(v, value)))
                }
                _ => unreachable!("checked"),
            },
            AadNode::is_done,
            |node| Readout {
                output: node.output(),
                history: node.x_history().to_vec(),
                sent: Some(node.sent),
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Iterative trimmed-mean (W-MSR)
// ---------------------------------------------------------------------------

/// The **iterative trimmed-mean** (W-MSR) algorithm of the related work:
/// purely local `f`-filtering each round, correct under
/// `(f+1, f+1)`-robustness rather than 3-reach (the E10 contrast).
///
/// Backed by the message-passing [`crate::iterengine`] since PR 9: nodes
/// exchange explicit per-round [`IterMsg`](crate::iterengine::IterMsg)
/// values, so the protocol runs on **all three runtimes** (Sim, Threaded,
/// Net) with real transport counters under [`Outcome::sim_stats`]'s
/// `iter` message class. With `f = 0` each node waits for every
/// in-neighbor's round value, making the trajectory schedule-independent
/// — bit-identical across runtimes, and bit-identical to the synchronous
/// reference loop [`crate::iterative::iterate`]. The round count is a
/// protocol knob (default 60, enough for the experiments' geometric
/// convergence), overridable per scenario via `ScenarioBuilder::rounds`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterativeTrimmedMean {
    /// Synchronous rounds to execute.
    pub rounds: usize,
}

impl Default for IterativeTrimmedMean {
    fn default() -> Self {
        IterativeTrimmedMean { rounds: 60 }
    }
}

impl IterativeTrimmedMean {
    /// A configuration running exactly `rounds` synchronous rounds.
    #[must_use]
    pub fn with_rounds(rounds: usize) -> Self {
        IterativeTrimmedMean { rounds }
    }

    /// The certification status of the scenario's topology for this
    /// protocol's correctness condition, `(f+1, f+1)`-robustness: a
    /// [`RobustnessCertificate`](dbac_conditions::robustness::RobustnessCertificate)
    /// when a polynomial sufficient rule covers the graph, or a typed
    /// [`Uncertified`](CertificationStatus::Uncertified) warning
    /// otherwise. Polynomial in the graph size, so safe at any `n` —
    /// unlike the exact checker.
    #[must_use]
    pub fn certification(scenario: &Scenario) -> CertificationStatus {
        let rs = scenario.f() + 1;
        dbac_conditions::robustness::certification(scenario.graph(), rs, rs)
    }
}

impl Protocol for IterativeTrimmedMean {
    fn name(&self) -> &'static str {
        "iterative-trimmed-mean"
    }

    /// Robustness is consulted, not enforced: an `Uncertified` topology may
    /// still be `(f+1, f+1)`-robust (the rules are sufficient, not
    /// necessary), and running on a non-robust graph is itself an
    /// experiment (E10). `execute` attaches the status to the outcome so
    /// callers see the warning.
    fn check(&self, scenario: &Scenario) -> Result<(), RunError> {
        scenario.check_faults(self.name(), |kind| {
            matches!(
                kind,
                FaultKind::Crash | FaultKind::ConstantLiar { .. } | FaultKind::Ramp { .. }
            )
        })
    }

    fn execute(&self, scenario: &Scenario, _: &Precompute) -> Result<Outcome, RunError> {
        let (g, f) = (scenario.graph(), scenario.f());
        let rounds = scenario.rounds_override().unwrap_or(self.rounds as u32);
        let registry = scenario.resolve_stats();
        // One shared gauge handle for progress: a per-node handle would
        // cost O(n) atomics *per registration* — 10⁴-node runs register
        // exactly one.
        let gauge = registry.register();
        let mut outcome = run_fleet(
            scenario,
            self.name(),
            rounds,
            &registry,
            |v, input| IterNode::new(v, g, f, rounds, input),
            |_, kind| match *kind {
                FaultKind::Crash => Box::new(Silent),
                FaultKind::ConstantLiar { value } => {
                    Box::new(IterLiar::new(IterStrategy::Constant(value), rounds))
                }
                FaultKind::Ramp { base, slope } => {
                    Box::new(IterLiar::new(IterStrategy::Ramp { base, slope }, rounds))
                }
                _ => unreachable!("checked"),
            },
            IterNode::is_done,
            |node| {
                gauge.add_rounds_fired(u64::from(node.rounds_fired()));
                Readout {
                    output: node.is_done().then(|| node.value()),
                    history: node.history().to_vec(),
                    sent: Some(node.sent),
                }
            },
        )?;
        outcome.certification = Some(Self::certification(scenario));
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_core::scenario::{Runtime, SchedulerSpec};
    use dbac_graph::generators;
    use std::time::Duration;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn aad04_scenario_with_liar_converges() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![2.0, 4.0, 6.0, 0.0])
            .epsilon(0.5)
            .fault(id(3), FaultKind::ConstantLiar { value: 1e9 })
            .scheduler(SchedulerSpec::legacy_random(5))
            .protocol(Aad04)
            .run()
            .unwrap();
        assert_eq!(out.protocol, "aad04");
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid(), "{:?}", out.outputs);
        assert!(out.honest_messages.unwrap() > 0);
    }

    /// A rounds override must reach the liar's inner node too: with the
    /// honest nodes running 8 rounds, a liar stuck on the derived count
    /// would fall silent mid-run and degrade into a crash.
    #[test]
    fn aad04_rounds_override_applies_to_the_liar() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![2.0, 4.0, 6.0, 0.0])
            .epsilon(0.5)
            .rounds(8)
            .fault(id(3), FaultKind::ConstantLiar { value: 1e6 })
            .scheduler(SchedulerSpec::legacy_random(9))
            .protocol(Aad04)
            .run()
            .unwrap();
        assert_eq!(out.rounds, 8);
        assert!(out.converged() && out.valid(), "{:?}", out.outputs);
        // Every honest trajectory covers all 8 rounds — possible only if
        // the liar kept broadcasting to the end (with it crashed, n−f
        // witnesses still form, but the liar's own x-history would not).
        for v in out.honest.iter() {
            assert_eq!(out.histories[v.index()].as_ref().unwrap().len(), 9);
        }
    }

    #[test]
    fn aad04_rejects_incomplete_graphs_and_low_resilience() {
        let err = Scenario::builder(generators::directed_cycle(5), 1)
            .inputs(vec![0.0; 5])
            .protocol(Aad04)
            .run()
            .unwrap_err();
        assert_eq!(err, RunError::IncompleteGraph { protocol: "aad04" });

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
    fn aad04_rejects_inexpressible_faults() {
        let err = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0; 4])
            .fault(id(3), FaultKind::Equivocator { low: -1.0, high: 1.0 })
            .protocol(Aad04)
            .run()
            .unwrap_err();
        assert_eq!(err, RunError::UnsupportedFault { protocol: "aad04", fault: "equivocator" });
    }

    #[test]
    fn iterative_scenario_on_robust_clique() {
        let out = Scenario::builder(generators::clique(5), 1)
            .inputs(vec![0.0, 1.0, 2.0, 3.0, 999.0])
            .epsilon(1e-6)
            .range((0.0, 999.0))
            .fault(id(4), FaultKind::ConstantLiar { value: 999.0 })
            .protocol(IterativeTrimmedMean::default())
            .run()
            .unwrap();
        assert_eq!(out.protocol, "iterative-trimmed-mean");
        assert!(out.spread() < 1e-6, "spread {}", out.spread());
        assert!(out.valid());
        assert_eq!(out.rounds, 60);
        // Histories carry the full trajectory (initial row + 60 rounds).
        let h = out.histories[0].as_ref().unwrap();
        assert_eq!(h.len(), 61);
        assert_eq!(h[0], 0.0);
    }

    /// The engine runs on the threaded runtime (the legacy implementation
    /// rejected everything but Sim), and at `f = 0` its trajectory is
    /// schedule-independent: bit-identical to the simulated run.
    #[test]
    fn iterative_runs_on_the_threaded_runtime() {
        let build = |runtime| {
            Scenario::builder(generators::clique(4), 0)
                .inputs(vec![0.0, 1.0, 2.0, 7.0])
                .epsilon(1e-9)
                .rounds(20)
                .runtime(runtime)
                .protocol(IterativeTrimmedMean::default())
                .run()
                .unwrap()
        };
        let sim = build(Runtime::Sim);
        let threaded = build(Runtime::threaded(Duration::from_secs(20)));
        assert!(threaded.incomplete.is_empty(), "{:?}", threaded.incomplete);
        assert!(sim.converged() && threaded.converged());
        for (a, b) in sim.outputs.iter().zip(&threaded.outputs) {
            assert_eq!(a.unwrap().to_bits(), b.unwrap().to_bits(), "f=0 is runtime-independent");
        }
        assert_eq!(sim.histories, threaded.histories);
    }

    /// With `f = 0` the message-passing engine reproduces the synchronous
    /// reference loop [`iterate`] bit-for-bit, trajectory included.
    #[test]
    fn iterative_engine_matches_the_synchronous_loop_at_f0() {
        let g = generators::bidirectional_cycle(7);
        let inputs: Vec<f64> = (0..7).map(|i| (i as f64).sin() * 10.0).collect();
        let rounds = 12;
        let reference = crate::iterative::iterate(&g, 0, &inputs, &[], rounds);
        let out = Scenario::builder(g, 0)
            .inputs(inputs)
            .rounds(rounds as u32)
            .protocol(IterativeTrimmedMean::default())
            .run()
            .unwrap();
        for v in out.honest.iter() {
            let engine = out.histories[v.index()].as_ref().unwrap();
            let sync: Vec<f64> = reference.history.iter().map(|row| row[v.index()]).collect();
            assert_eq!(engine.len(), sync.len());
            for (a, b) in engine.iter().zip(&sync) {
                assert_eq!(a.to_bits(), b.to_bits(), "node {v} diverged from the reference");
            }
        }
    }

    #[test]
    fn iterative_ramp_attack_supported() {
        let out = Scenario::builder(generators::clique(5), 1)
            .inputs(vec![0.0, 1.0, 2.0, 3.0, 0.0])
            .epsilon(1e-3)
            .fault(id(4), FaultKind::Ramp { base: 0.0, slope: 10.0 })
            .protocol(IterativeTrimmedMean::default())
            .run()
            .unwrap();
        assert!(out.spread() < 1e-3);
        assert!(out.valid());
    }

    /// W-MSR trims over the reals: a NaN (of either sign) sorts to one end
    /// but compares false against `own`, so neither trim count removes it
    /// and it would poison the average. Both the engine and the reference loop
    /// drop non-finite values instead.
    #[test]
    fn iterative_drops_non_finite_liar_values() {
        for value in [f64::NAN, -f64::NAN] {
            let out = Scenario::builder(generators::clique(5), 1)
                .inputs(vec![0.0, 1.0, 2.0, 3.0, 0.0])
                .epsilon(1e-3)
                .fault(id(4), FaultKind::ConstantLiar { value })
                .protocol(IterativeTrimmedMean::default())
                .run()
                .unwrap();
            assert!(out.outputs.iter().flatten().all(|x| x.is_finite()), "{:?}", out.outputs);
            assert!(out.converged() && out.valid(), "{:?}", out.outputs);

            let reference = crate::iterative::iterate(
                &generators::clique(5),
                1,
                &[0.0, 1.0, 2.0, 3.0, 0.0],
                &[(id(4), IterStrategy::Constant(value))],
                60,
            );
            assert!(reference.final_spread() < 1e-3 && reference.valid());
        }
    }

    /// The W-MSR round count is a per-protocol knob: it rides the sweep's
    /// protocol axis as distinctly configured instances, and the rounds
    /// axis (the scenario override) reaches it through
    /// `Scenario::rounds_override`.
    #[test]
    fn iterative_rounds_knob_sweeps_as_a_protocol_axis() {
        use dbac_core::scenario::sweep::ExperimentPlan;
        let sweep = ExperimentPlan::new()
            .protocol("wmsr10", IterativeTrimmedMean::with_rounds(10))
            .protocol("wmsr60", IterativeTrimmedMean::with_rounds(60))
            .graph("K5", generators::clique(5))
            .fault_bound(1)
            .faults("liar", vec![(id(4), FaultKind::ConstantLiar { value: 999.0 })])
            .inputs(
                "ramped",
                dbac_core::scenario::sweep::InputSpec::from_fn(|g| {
                    (0..g.node_count()).map(|i| i as f64).collect()
                })
                .with_range(0.0, 999.0),
            )
            .epsilon(1e-6)
            .build()
            .unwrap();
        let report = sweep.run();
        assert!(report.failures().is_empty());
        let rounds: Vec<u32> =
            report.rows.iter().map(|r| r.summary.as_ref().unwrap().rounds).collect();
        assert_eq!(rounds, vec![10, 60], "each protocol axis point keeps its knob");

        // The rounds axis overrides the knob for every instance.
        let report = ExperimentPlan::new()
            .protocol("wmsr", IterativeTrimmedMean::default())
            .graph("K5", generators::clique(5))
            .fault_bound(0)
            .rounds(7)
            .build()
            .unwrap()
            .run();
        assert_eq!(report.rows[0].summary.as_ref().unwrap().rounds, 7);
    }

    /// A cross-baseline plan: AAD04 and W-MSR sweep under one schedule
    /// family, the same liar and the same inputs.
    #[test]
    fn baseline_protocols_sweep_under_one_plan() {
        use dbac_core::scenario::sweep::{ExperimentPlan, SchedulerFamily};
        let report = ExperimentPlan::new()
            .protocol("aad04", Aad04)
            .protocol("wmsr", IterativeTrimmedMean::default())
            .graph("K4", generators::clique(4))
            .fault_bound(1)
            .faults("liar", vec![(id(3), FaultKind::ConstantLiar { value: 1e9 })])
            .inputs("fixed", dbac_core::scenario::sweep::InputSpec::fixed(vec![2.0, 4.0, 6.0, 0.0]))
            .epsilon(10.0)
            .scheduler("legacy", SchedulerFamily::legacy_random())
            .seeds([2, 5])
            .build()
            .unwrap();
        let report = report.run();
        assert!(report.failures().is_empty());
        for row in &report.rows {
            let s = row.summary.as_ref().unwrap();
            assert!(s.all_decided && s.valid, "{}: {s:?}", row.label);
        }
        let reduced = report.reduce();
        assert_eq!(reduced.cells.len(), 2, "one group per protocol");
        for cell in &reduced.cells {
            assert_eq!(cell.runs, 2);
            assert_eq!(cell.valid, 2);
        }
    }
}
