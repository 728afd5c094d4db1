//! # dbac — Directed Byzantine Approximate Consensus
//!
//! A production-quality reproduction of *"Asynchronous Byzantine Approximate
//! Consensus in Directed Networks"* (Sakavalas, Tseng, Vaidya — PODC 2020,
//! arXiv:2004.09054).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`graph`] — the directed-network substrate (node sets, paths, SCC,
//!   disjoint paths, generators including the paper's Figure 1 graphs).
//! * [`conditions`] — the paper's topological conditions: reach sets,
//!   reduced graphs, source components, the k-reach family, CCS/CCA/BCS,
//!   f-covers and the propagation relation.
//! * [`sim`] — asynchronous message-passing runtimes: a deterministic
//!   discrete-event simulator with adversarial schedulers, a
//!   thread-per-node runtime, and a socket-backed net runtime with a
//!   length-prefixed binary wire codec.
//! * [`core`] — the paper's algorithm: RedundantFlood, FIFO flooding,
//!   Algorithm BW (Byzantine Witness), Algorithm 2 (Completeness),
//!   Algorithm 3 (Filter-and-Average), and the crash-tolerant 2-reach
//!   variant.
//! * [`baselines`] — Bracha reliable broadcast, the Abraham–Amit–Dolev 2004
//!   witness algorithm for complete networks, and iterative trimmed-mean
//!   consensus.
//! * [`scenario`] — the unified **Scenario → Outcome** experiment surface
//!   over all of the above: one builder, four protocols, three runtimes,
//!   plus the dimensional [`scenario::sweep`] experiment plans with
//!   seed-batch statistics and JSON reports.
//!
//! # Quickstart
//!
//! Describe an experiment as data — network, inputs, faults, schedule,
//! runtime — pick a protocol, and run it:
//!
//! ```
//! use dbac::conditions::kreach;
//! use dbac::graph::{generators, NodeId};
//! use dbac::scenario::{ByzantineWitness, FaultKind, Scenario};
//!
//! // A complete network on 4 nodes tolerates f = 1 (n > 3f ⇔ 3-reach).
//! let g = generators::clique(4);
//! assert!(kreach::three_reach(&g, 1).holds());
//!
//! let outcome = Scenario::builder(g, 1)
//!     .inputs(vec![0.0, 10.0, 4.0, 6.0])
//!     .epsilon(0.5)
//!     .fault(NodeId::new(3), FaultKind::ConstantLiar { value: 1e6 })
//!     .seed(7)
//!     .protocol(ByzantineWitness::default())
//!     .run()
//!     .expect("scenario runs");
//! assert!(outcome.converged() && outcome.valid());
//! assert!(outcome.sim_stats.messages_delivered() > 0);
//! ```
//!
//! Swapping `.protocol(...)` (and nothing else) re-runs the same scenario
//! under a different algorithm; `.runtime(Runtime::Threaded { .. })` moves
//! it onto real OS threads, and `.runtime(Runtime::net(..))` onto real
//! sockets with every message crossing the binary wire codec.
//!
//! Every outcome carries a [`scenario::StatsSnapshot`] — per-class
//! transport counters, protocol progress, and per-node queue gauges. To
//! watch those counters *while* a run executes, attach a shared
//! [`scenario::StatsRegistry`] via `.stats(..)` and poll
//! `registry.snapshot()` from another thread (or point the `dbacd`
//! daemon binary at a scenario and query it over a socket); see
//! "Observe a live run" in [`core::scenario`].
//!
//! # Declare an experiment
//!
//! Parameter sweeps are *plans*, not loops: an
//! [`ExperimentPlan`](scenario::sweep::ExperimentPlan) is a grid
//! description whose axes cover every scenario knob — protocols (with
//! their knobs), graphs, fault bounds, fault placements, inputs, ε,
//! scheduler families, link-fault plans, runtimes and round overrides —
//! while the seeds form
//! the statistical axis. `build()` expands the cartesian product,
//! `run()` executes every cell in parallel, and `reduce()` aggregates each
//! seed batch into distributional statistics (mean/median/min/max/stddev);
//! `dbac_bench::json::reduced` renders them as the JSON report CI uploads:
//!
//! ```
//! use dbac::graph::generators;
//! use dbac::scenario::sweep::{ExperimentPlan, SchedulerFamily};
//! use dbac::scenario::ByzantineWitness;
//!
//! let sweep = ExperimentPlan::new()
//!     .protocol("bw", ByzantineWitness::default())
//!     .graph("K4", generators::clique(4))
//!     .epsilons([1.0, 0.5])                           // ε axis
//!     .scheduler("rand", SchedulerFamily::random(1, 20))
//!     .seeds([1, 2, 3])                               // statistical axis
//!     .build()
//!     .expect("plan expands");
//! assert_eq!(sweep.cell_count(), 2 * 3);
//! let stats = sweep.run().reduce();                   // groups: all axes except seed
//! assert_eq!(stats.cells.len(), 2);
//! assert!(stats.cells.iter().all(|c| c.converged == 3));
//! ```
//!
//! A cell whose scenario is invalid (e.g. a protocol rejecting the graph)
//! becomes a typed error row without poisoning its siblings; the
//! experiment binaries (`convergence`, `ablation`, `figure1`, `table2`,
//! `baseline_compare`) are exactly such plan descriptions plus table
//! renderers. The four protocols map onto the paper as follows:
//!
//! | `Protocol` | Paper section it reproduces |
//! |------------|-----------------------------|
//! | [`scenario::ByzantineWitness`] | Algorithms 1–3 (Sections 4.1–4.5); Theorem 4 under 3-reach |
//! | [`scenario::CrashTwoReach`] | Table 2, asynchronous/crash cell (2-reach; Tseng–Vaidya 2012 per Section 2) |
//! | [`scenario::Aad04`] | Section 1 related work \[1\]: Abraham–Amit–Dolev OPODIS 2004 on complete networks |
//! | [`scenario::IterativeTrimmedMean`] | Related work \[13, 25\]: W-MSR under `(f+1, f+1)`-robustness |

pub use dbac_baselines as baselines;
pub use dbac_conditions as conditions;
pub use dbac_core as core;
pub use dbac_graph as graph;
pub use dbac_sim as sim;

/// The unified **Scenario → Outcome** experiment surface: the core builder
/// and protocols from [`dbac_core::scenario`] plus the baseline protocols
/// from [`dbac_baselines::scenario`], in one namespace.
pub mod scenario {
    pub use dbac_baselines::scenario::{Aad04, IterativeTrimmedMean};
    pub use dbac_core::scenario::{
        drive, sweep, ByzantineWitness, ClassCounters, Coverage, CrashTwoReach, Delivery,
        DriveReport, FaultKind, Incomplete, IncompleteReason, LinkFault, LinkFaultPlan, MsgClass,
        NodeCounters, Outcome, Precompute, Protocol, ProtocolCounters, Runtime, Scenario,
        ScenarioBuilder, SchedulerSpec, StatsHandle, StatsRegistry, StatsSnapshot, Trace,
        TransportSnapshot, WireError, WireMessage,
    };
}
