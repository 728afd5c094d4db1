//! The unified **Scenario → Outcome** experiment surface.
//!
//! Every protocol in the workspace — the paper's Algorithm BW, the
//! crash-tolerant 2-reach variant, and the related-work baselines — runs
//! through one composable pipeline:
//!
//! ```text
//! Scenario::builder(graph, f)      // network + fault bound
//!     .inputs(...)                 // one input per node
//!     .epsilon(...)                // agreement parameter
//!     .fault(v, FaultKind::...)    // protocol-agnostic fault assignment
//!     .scheduler(SchedulerSpec::…) // who controls message timing
//!     .runtime(Runtime::...)       // discrete-event sim, real threads, or the network
//!     .protocol(ByzantineWitness::default())
//!     .run()?                      // -> Outcome
//! ```
//!
//! A [`Scenario`] is a pure *data-level* description: the network, the
//! inputs, the fault assignment, the adversarial delivery schedule and the
//! runtime. A [`Protocol`] owns the protocol-specific knobs (flood mode,
//! iteration counts) and turns a scenario into the single
//! [`Outcome`] type — honest outputs, spread/convergence/validity,
//! per-round spread, runtime statistics, and an optional delivery
//! [`Trace`]. The [`sweep`] submodule turns scenarios into *experiment plans*:
//! labelled axes over every knob here (protocols, graphs, fault bounds,
//! placements, inputs, ε, scheduler families, runtimes, rounds), expanded
//! into a cartesian cell product, run in parallel, and reduced over the
//! seed batch into distributional statistics (which `dbac_bench::json`
//! renders as the reduced report).
//!
//! # Protocols and where they come from in the paper
//!
//! | `Protocol` implementation | Paper section it reproduces |
//! |---------------------------|-----------------------------|
//! | [`ByzantineWitness`] | Algorithms 1–3 (Sections 4.1–4.5): RedundantFlood, witness threads, Filter-and-Average; Theorem 4 under 3-reach |
//! | [`CrashTwoReach`] | Table 2, asynchronous/crash cell: approximate consensus under 2-reach (Tseng–Vaidya 2012, per Section 2) |
//! | `Aad04` (dbac-baselines) | Section 1 related work \[1\]: Abraham–Amit–Dolev OPODIS 2004, the complete-network algorithm BW generalizes |
//! | `IterativeTrimmedMean` (dbac-baselines) | Related work \[13, 25\] — Vaidya–Tseng–Liang, arXiv [1201.4183](https://arxiv.org/abs/1201.4183) (synchronous) and [1202.6094](https://arxiv.org/abs/1202.6094) (asynchronous): W-MSR iterative consensus, correct under `(f+1, f+1)`-robustness rather than 3-reach; message-passing engine in `dbac-baselines::iterengine`, all three runtimes |
//!
//! The baseline implementations live in `dbac-baselines::scenario` (this
//! crate sits below that one in the dependency order); the `dbac` facade
//! re-exports the whole surface from a single `dbac::scenario` module.
//!
//! # Scale past 128 nodes
//!
//! `NodeSet` is a const-generic multi-word bitset: 256 nodes at the
//! default width, 16 384 under the `huge-graphs` cargo feature. Which
//! protocols actually *reach* those widths is a different question:
//!
//! * [`ByzantineWitness`] enumerates simple paths, which is exponential
//!   in `n` — it stays the small-`n` exact reference (experiment E11a
//!   quantifies the footprint).
//! * `IterativeTrimmedMean` needs only per-neighbor state. Its
//!   message-passing engine (`dbac-baselines::iterengine`) keeps a ring
//!   of the rounds each node can still fire and runs 10⁴-node circulant
//!   scenarios through this builder unchanged — see the
//!   `scaling_iterative` bin for the sweep, and
//!   `dbac_graph::generators::circulant_pow2` /
//!   `dbac_graph::generators::layered_expander` for robust digraph
//!   families with constant or logarithmic degree at any `n`.
//!
//! The scenario surface itself is width-agnostic: nothing here changes
//! between a 4-node clique and a 10⁴-node circulant except the numbers.
//!
//! # Certify a topology
//!
//! Whether a graph satisfies a protocol's correctness condition is
//! decidable exactly only at small `n`: the `(r, s)`-robustness condition
//! of `IterativeTrimmedMean` quantifies over subset pairs, and the exact
//! checker (`dbac_conditions::robustness::exact_verdict`) hits a size
//! cliff around 20 nodes — at the 10⁴-node scale of the `scaling_iterative`
//! sweep it would not finish in the lifetime of the experiment. The
//! `dbac_conditions::robustness` subsystem closes the gap with
//! **certificates**: polynomial sufficient rules
//! (`dbac_conditions::robustness::certify`) issue a serializable
//! `RobustnessCertificate` naming the rule, its parameters and per-node
//! evidence, and the verifier
//! (`dbac_conditions::robustness::verify_certificate`) re-checks any
//! certificate by re-running the one rule it names, in O(V+E), without
//! re-running the search. When each rule applies:
//!
//! * `min-in-degree` — dense graphs: every in-degree ≥ `⌊n/2⌋ + r − 1`
//!   (cliques, near-complete graphs; certifies every `s`).
//! * `circulant-prefix` — ring-structured graphs where every node sees
//!   its `k` predecessors, `k ≥ max(2r−1, 2r−2+⌈s/2⌉)` (the circulant
//!   families, bidirectional cycles; the rule behind the 10⁴-node runs).
//! * `strongly-connected` — any strongly connected graph, for
//!   `(1, s ≤ 2)`.
//! * `layered-expander` — graphs containing a
//!   `generators::layered_expander(L ≥ 2, w ≥ 3)` spanning subgraph, for
//!   `(1, s ≤ 4)`.
//!
//! Reading a certificate: `n`/`r`/`s` state the claim, `rule` + params
//! name the argument, and `evidence` holds the per-node quantities the
//! verifier recomputes entry-by-entry (in-degrees, prefix lengths), so a
//! tampered certificate is rejected with a typed error. When no rule
//! fires the result is a typed `Uncertified` warning — the rules are
//! sufficient, not necessary, and running unproven topologies is itself
//! an experiment. `IterativeTrimmedMean` attaches the status to
//! [`Outcome::certification`]; the `certify` bin sweeps the generator
//! families and emits the certificate JSON that CI archives next to
//! `net.json`/`stats.json`.
//!
//! # Inject link faults
//!
//! [`FaultKind`] places faults on *nodes* — the paper's Byzantine model.
//! [`LinkFaultPlan`] places faults on *edges*: the link-failure model of
//! Tseng–Vaidya (arXiv 1401.6615), where the network itself drops,
//! duplicates, reorders or corrupts messages while every node stays
//! honest. The two compose freely on the builder, and every runtime sends
//! through the same gate and its stateless seeded decision function, so
//! the fate of the k-th message on an edge is runtime-independent:
//!
//! ```
//! use dbac_core::scenario::{LinkFault, LinkFaultPlan, Scenario};
//! use dbac_graph::{generators, NodeId};
//!
//! let plan = LinkFaultPlan::new(7)
//!     .fault(NodeId::new(0), NodeId::new(1), LinkFault::Drop { prob: 0.9 })
//!     .fault(NodeId::new(2), NodeId::new(3), LinkFault::Omit);
//! let out = Scenario::builder(generators::clique(4), 0)
//!     .inputs(vec![0.0, 10.0, 4.0, 6.0])
//!     .epsilon(0.5)
//!     .seed(1)
//!     .link_faults(plan)
//!     .run()
//!     .expect("chaos is data, not an error");
//! assert!(out.sim_stats.messages_dropped() > 0, "the lossy links bit");
//! assert!(out.valid(), "deciders never leave the honest-input hull");
//! ```
//!
//! How the two fault axes map onto the models:
//!
//! | Axis | Lives on | Model | Examples |
//! |------|----------|-------|----------|
//! | [`FaultKind`] | nodes | Byzantine/crash nodes (this paper, Section 2) | `Crash`, `ConstantLiar`, `Equivocator` |
//! | [`LinkFault`] | directed edges | link failures (arXiv 1401.6615: faults on edges, not nodes) | `Drop`, `Duplicate`, `Reorder`, `Corrupt`, `Partition`, `Omit` |
//!
//! Liveness loss under link faults is *observable*, never fatal: the
//! simulator runs to quiescence and reports non-deciders through
//! [`Outcome::all_decided`], while the threaded and network runtimes'
//! watchdogs report stragglers per node in [`Outcome::incomplete`] with a
//! typed [`IncompleteReason`], still extracting and scoring every survivor.
//!
//! # Run over the network
//!
//! [`Runtime::Net`] executes the same scenario with every message
//! **serialized onto a real byte stream** — the only runtime in which the
//! wire actually exists. The three runtimes compare as follows:
//!
//! | | [`Runtime::Sim`] | [`Runtime::Threaded`] | [`Runtime::Net`] |
//! |---|---|---|---|
//! | Concurrency | none (virtual time) | OS threads | OS threads |
//! | Message transport | in-memory event queue | crossbeam channels | framed duplex connections over loopback TCP |
//! | Serialization | none | none | length-prefixed binary codec ([`WireMessage`]) |
//! | Determinism | bit-for-bit from the seed | schedule-dependent | schedule-dependent |
//! | Non-completion | quiescence, [`Outcome::all_decided`] | watchdog → [`Outcome::incomplete`] | watchdog → [`Outcome::incomplete`] |
//! | Stats coverage ([`Outcome::sim_stats`]) | transport + virtual time + wall clock | transport + wall clock | transport + wall clock + rejected frames |
//! | Delivery trace ([`Outcome::trace`], its `at`) | virtual tick | arrival index | arrival index |
//!
//! On a wall-clock run a delivery's arrival index is drawn from one
//! run-wide counter as its node takes it off the inbox, before the node
//! acts on it, so the trace is in causal order: `Fleet::replay` re-runs
//! any recorded run, on any runtime, from its trace.
//!
//! **Codec wire format.** Each frame is `len:u32le ‖ body` with `len`
//! capped at 1 MiB; the body is one hand-rolled little-endian message
//! encoding (see each protocol's [`WireMessage`] impl — path ids travel as
//! raw `u32`s, suspect sets as their `NODE_WORDS` little-endian `u64`
//! words, values as `f64` bit patterns, so NaN payloads and the
//! `0.0`/`-0.0` distinction survive bit-exactly). Connections begin with
//! a 7-byte handshake (`magic ‖ version ‖ node-id`) in both directions.
//! The codec is total: adversarial bytes produce typed [`WireError`]s,
//! never panics.
//!
//! **Degradation semantics.** A frame that fails to decode is counted in
//! the `rejected` transport bucket of [`Outcome::sim_stats`] and skipped;
//! a framing-level error
//! (oversize length prefix, mid-frame truncation) closes that one
//! connection; a node left behind — partitioned, starved, or panicked —
//! lands in [`Outcome::incomplete`] with the same typed
//! [`IncompleteReason`]s as the threaded runtime, while every survivor is
//! still extracted and scored.
//!
//! At `f = 0` the honest decisions are interleaving-independent, so all
//! three runtimes must produce bit-identical outputs and histories —
//! `tests/cross_runtime.rs` enforces exactly that three-way gate.
//!
//! # Observe a live run
//!
//! Every run feeds a contention-free [`StatsRegistry`]: per-thread
//! sharded counters covering transport traffic **by message class**
//! ([`MsgClass`]), protocol progress (rounds, witness completions,
//! Maximal-Consistency firings, FRA marks) and per-node queue/done
//! gauges. By default the registry is private to the run and its final
//! merged [`StatsSnapshot`] lands in [`Outcome::sim_stats`]. Attach your
//! own registry with [`ScenarioBuilder::stats`] to watch the same
//! counters *while the run is in flight* — snapshots are safe from any
//! thread, never block a writer, and never regress between polls:
//!
//! ```
//! use dbac_core::scenario::{Scenario, StatsRegistry};
//! use dbac_graph::generators;
//! use std::sync::Arc;
//!
//! let registry = StatsRegistry::new(4);
//! let out = Scenario::builder(generators::clique(4), 0)
//!     .inputs(vec![0.0, 10.0, 4.0, 6.0])
//!     .epsilon(0.5)
//!     .stats(Arc::clone(&registry))
//!     .run()
//!     .expect("clique converges");
//! // Any thread could have polled `registry.snapshot()` during the run
//! // (the `dbacd` daemon serves exactly that over a socket). After the
//! // run, the registry and the outcome agree bit-for-bit.
//! assert_eq!(registry.snapshot(), out.sim_stats);
//! assert!(out.sim_stats.messages_delivered() > 0);
//! assert!(out.sim_stats.protocol.rounds_fired > 0);
//! ```
//!
//! Quantities a runtime genuinely cannot measure are typed
//! [`Coverage::NotObservable`] markers, never silent zeros: virtual time
//! exists only under [`Runtime::Sim`], while wall-clock elapsed is
//! measured everywhere. The `dbacd` binary (dbac-bench) wraps this plane
//! in an operator daemon: it runs a scenario in a background thread and
//! answers `stats` / `nodes` / `progress` requests over line-delimited
//! JSON while the run makes progress.
//!
//! # Design notes
//!
//! * **Validation is typed.** Builder misuse returns precise
//!   [`RunError`] variants (`InputLengthMismatch`, `NonPositiveEpsilon`,
//!   `FaultOutsideGraph`, `TooManyFaults`, …) instead of stringly-typed
//!   reasons, so harnesses can branch on failure causes.
//! * **One driver, one fleet runner; protocols supply constructors.** Two
//!   functions stand between a [`Scenario`] and its [`Outcome`].
//!   [`drive`] is the only place that touches the runtimes: it assembles
//!   the actors into one `dbac_sim` [`Fleet`], picks the virtual-time
//!   event loop ([`Simulation`]) or the wall-clock thread-per-node loop
//!   ([`Fleet::run`], over crossbeam channels for [`Runtime::Threaded`] or
//!   framed byte streams for [`Runtime::Net`]), and extracts the survivors;
//!   every message of every driver passes the fleet's single send gate,
//!   and the run's [`StatsRegistry`] is the only ledger there is.
//!   [`run_fleet`] is the only product caller of `drive` and the only place
//!   an `Outcome` is assembled: it walks the honest/fault roster, collects
//!   each survivor's [`Readout`] and sums the honest-message counts. A
//!   [`Protocol::execute`] is therefore its precomputation followed by one
//!   `run_fleet` call naming an honest-node constructor, an adversary
//!   constructor, a `done` predicate and a readout — a new algorithm adds
//!   those four and nothing else.
//! * **Faults are protocol-agnostic data.** [`FaultKind`] is the union of
//!   every behaviour the workspace knows; each protocol maps the subset it
//!   can express and rejects the rest through [`Scenario::check_faults`].

#![deny(missing_docs)]

mod memo;
pub mod sweep;

use crate::adversary::AdversaryKind;
use crate::config::{num_rounds, FloodMode, ProtocolConfig};
use crate::crash::{CrashAfter, CrashNode};
use crate::error::RunError;
use crate::node::HonestNode;
use dbac_graph::{Digraph, NodeId, NodeSet};
use dbac_sim::net::NetConfig;
use dbac_sim::process::{Adversary, Process};
use dbac_sim::scheduler::{FixedDelay, RandomDelay};
use dbac_sim::sim::Simulation;
use dbac_sim::threaded::ThreadedConfig;
use dbac_sim::{DeliveryPolicy, Fleet};
use std::sync::Arc;
use std::time::Duration;

pub use dbac_sim::chaos::{LinkFault, LinkFaultPlan};
pub use dbac_sim::net::codec::{WireError, WireMessage};
pub use dbac_sim::stats::{
    ClassCounters, Coverage, MsgClass, NodeCounters, ProtocolCounters, StatsHandle, StatsRegistry,
    StatsSnapshot, TransportSnapshot,
};
pub use dbac_sim::threaded::{Incomplete, IncompleteReason};
pub use dbac_sim::trace::{Delivery, Trace};
pub use memo::Precompute;

// ---------------------------------------------------------------------------
// Schedule, runtime and fault descriptions
// ---------------------------------------------------------------------------

/// Message-delivery schedule for a run on the simulator — the adversary's
/// *timing* half (its *content* half is the fault assignment). A
/// [`LinkFault::Reorder`] window holds single edges back on top of it, on
/// every runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Constant per-message delay.
    Fixed(u64),
    /// Seeded uniform-random delays in `[min, max]` (`min > max` is
    /// rejected at [`ScenarioBuilder::build`]).
    Random {
        /// RNG seed.
        seed: u64,
        /// Minimum delay.
        min: u64,
        /// Maximum delay.
        max: u64,
    },
}

impl SchedulerSpec {
    /// Instantiates the delivery policy.
    #[must_use]
    pub fn build(&self) -> Box<dyn DeliveryPolicy + Send> {
        match self {
            SchedulerSpec::Fixed(d) => Box::new(FixedDelay::new(*d)),
            SchedulerSpec::Random { seed, min, max } => {
                Box::new(RandomDelay::new(*seed, *min, *max))
            }
        }
    }

    /// The historical default schedule of the retired pre-scenario entry
    /// points: seeded uniform delays in `[1, 15]`. One named constructor
    /// so the experiment bins and the tests that mirror legacy outputs
    /// all agree on the same numbers.
    #[must_use]
    pub fn legacy_random(seed: u64) -> Self {
        SchedulerSpec::Random { seed, min: 1, max: 15 }
    }

    /// The seed of a [`Random`](SchedulerSpec::Random) schedule, 0 for
    /// [`Fixed`](SchedulerSpec::Fixed); also seeds the threaded runtime's
    /// jitter.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            SchedulerSpec::Fixed(_) => 0,
            SchedulerSpec::Random { seed, .. } => *seed,
        }
    }
}

/// Which runtime executes the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// The deterministic discrete-event simulator — reproducible
    /// bit-for-bit from the scenario.
    Sim,
    /// The thread-per-node runtime: genuine OS-level concurrency over
    /// crossbeam channels. Delivery timing comes from real scheduling (the
    /// [`SchedulerSpec`] seed only drives send jitter); transport counters
    /// in [`Outcome::sim_stats`] come from the per-thread stats shards of
    /// the send-path interposer and the node event loops. Virtual time is
    /// reported as [`Coverage::NotObservable`] — wall-clock runs have no
    /// virtual clock; wall-clock elapsed is measured instead. Nodes that
    /// miss the watchdog deadline degrade into [`Outcome::incomplete`]
    /// entries instead of failing the run.
    Threaded {
        /// Wall-clock watchdog deadline for the run.
        timeout: Duration,
        /// Upper bound (exclusive) on the random per-send jitter, in
        /// microseconds; 0 disables injected jitter.
        jitter_micros: u64,
    },
    /// The network runtime: one event loop per node, every message
    /// serialized through the length-prefixed binary wire codec and moved
    /// over framed, handshaken loopback TCP connections; a host that cannot
    /// bind a loopback socket fails the run with a typed transport error.
    /// Degradation semantics are shared with
    /// [`Runtime::Threaded`]: stragglers land in [`Outcome::incomplete`],
    /// and decode-rejected frames are counted in the `rejected` transport
    /// bucket of [`Outcome::sim_stats`]. See the module-level
    /// ["Run over the network"](self#run-over-the-network) section.
    Net {
        /// Wall-clock watchdog deadline for the run.
        timeout: Duration,
    },
}

impl Runtime {
    /// Default send jitter of the threaded runtime, in microseconds.
    pub const DEFAULT_JITTER_MICROS: u64 = 30;

    /// The threaded runtime with the default send jitter.
    #[must_use]
    pub fn threaded(timeout: Duration) -> Runtime {
        Runtime::Threaded { timeout, jitter_micros: Runtime::DEFAULT_JITTER_MICROS }
    }

    /// The network runtime over loopback TCP.
    #[must_use]
    pub fn net(timeout: Duration) -> Runtime {
        Runtime::Net { timeout }
    }

    /// Short display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Runtime::Sim => "sim",
            Runtime::Threaded { .. } => "threaded",
            Runtime::Net { .. } => "net",
        }
    }
}

/// A protocol-agnostic fault behaviour: the union of every strategy the
/// workspace implements. Each [`Protocol`] maps the subset it can express
/// and rejects the rest with [`RunError::UnsupportedFault`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Crashed from the start — sends nothing, ever.
    Crash,
    /// Behaves honestly for its first `sends` messages, then crashes (the
    /// classic mid-protocol crash; crash-protocol specific).
    CrashAfter {
        /// Number of honest sends before dying.
        sends: usize,
    },
    /// Reports `value` as its input (a validity attack). Under BW it floods
    /// `value` in every round, all up front at start, and otherwise relays
    /// honestly.
    ConstantLiar {
        /// The injected value.
        value: f64,
    },
    /// Tells the first half of its out-neighbors `low` and the rest `high`
    /// in every round, all up front at start, and relays every flood with
    /// its value replaced by `low` (a split-brain / agreement attack).
    Equivocator {
        /// Value for the first half.
        low: f64,
        /// Value for the second half.
        high: f64,
    },
    /// Injects nothing and relays every flood with its value replaced by
    /// `spoof` (an integrity attack on indirect paths).
    RelayTamperer {
        /// The value written into every relayed flood.
        spoof: f64,
    },
    /// At start, forwards a round-0 flood of `forged_value` along every
    /// non-trivial simple path ending at itself — forged (well-formed)
    /// paths claiming the honest initiators reported it — then relays
    /// honestly. Later rounds are not forged.
    PathFabricator {
        /// The forged value attributed to other initiators.
        forged_value: f64,
    },
    /// Sends `base + slope·round` — a drifting attack (iterative-protocol
    /// specific).
    Ramp {
        /// Initial value.
        base: f64,
        /// Per-round drift.
        slope: f64,
    },
    /// Seeded random mixture of lying, dropping and tampering: at start it
    /// floods one value drawn from `[-1000, 1000)` in round 0 to each
    /// out-neighbor with probability 0.8; then it drops each arrival with
    /// probability 0.2 and otherwise, with probability 0.3, relays it with
    /// the flood value replaced by a fresh draw.
    Chaotic {
        /// RNG seed (keeps runs reproducible).
        seed: u64,
    },
}

impl FaultKind {
    /// Short kebab-case label, used in sweep labels and typed errors.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::CrashAfter { .. } => "crash-after",
            FaultKind::ConstantLiar { .. } => "constant-liar",
            FaultKind::Equivocator { .. } => "equivocator",
            FaultKind::RelayTamperer { .. } => "relay-tamperer",
            FaultKind::PathFabricator { .. } => "path-fabricator",
            FaultKind::Ramp { .. } => "ramp",
            FaultKind::Chaotic { .. } => "chaotic",
        }
    }

    /// The BW adversary realizing this fault, if Algorithm BW can express
    /// it.
    #[must_use]
    pub fn adversary_kind(&self) -> Option<AdversaryKind> {
        match self {
            FaultKind::CrashAfter { .. } | FaultKind::Ramp { .. } => None,
            kind => Some(AdversaryKind(kind.clone())),
        }
    }
}

// ---------------------------------------------------------------------------
// The Protocol trait
// ---------------------------------------------------------------------------

/// An algorithm that can execute a [`Scenario`].
///
/// Implementations own the protocol-specific knobs (flood discipline,
/// iteration counts) as struct fields; everything protocol-agnostic lives
/// in the scenario. `check` rejects scenarios the
/// protocol cannot express with typed errors *before* any expensive
/// precomputation; `execute` performs the run. Call sites should prefer
/// [`Scenario::run`], which chains the two.
pub trait Protocol: Send + Sync {
    /// Short name used in labels, errors and [`Outcome::protocol`].
    fn name(&self) -> &'static str;

    /// Validates protocol-specific requirements: fault-kind support,
    /// resilience bounds, network shape.
    ///
    /// # Errors
    ///
    /// A precise [`RunError`] variant describing the first mismatch.
    fn check(&self, scenario: &Scenario) -> Result<(), RunError>;

    /// Executes the scenario (assumes `check` passed).
    ///
    /// `precompute` is the memo of the run this scenario belongs to: one
    /// per [`Sweep::run`](sweep::Sweep::run), shared by all of its cells,
    /// and a fresh one per [`Scenario::run`]. A protocol whose setup
    /// depends only on the graph and the fault bound (Algorithm BW's
    /// [`Topology`](crate::precompute::Topology), the crash protocol's
    /// [`CrashTopology`](crate::crash::CrashTopology)) builds it
    /// through the memo, so cells that share a graph share one build;
    /// protocols without such a setup ignore the parameter.
    ///
    /// # Errors
    ///
    /// Topology precomputation or runtime failures. A failed build is
    /// memoised too: every cell that shares its key gets the same error.
    fn execute(&self, scenario: &Scenario, precompute: &Precompute) -> Result<Outcome, RunError>;
}

// ---------------------------------------------------------------------------
// Scenario + builder
// ---------------------------------------------------------------------------

/// A fully specified, validated experiment: network, inputs, faults,
/// schedule, runtime and protocol. Build one with [`Scenario::builder`].
#[derive(Clone)]
pub struct Scenario {
    graph: Arc<Digraph>,
    f: usize,
    inputs: Vec<f64>,
    epsilon: f64,
    range: (f64, f64),
    faults: Vec<(NodeId, FaultKind)>,
    link_faults: Option<LinkFaultPlan>,
    scheduler: SchedulerSpec,
    runtime: Runtime,
    rounds_override: Option<u32>,
    record_trace: bool,
    stats: Option<Arc<StatsRegistry>>,
    protocol: Arc<dyn Protocol>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("protocol", &self.protocol.name())
            .field("nodes", &self.graph.node_count())
            .field("f", &self.f)
            .field("epsilon", &self.epsilon)
            .field("faults", &self.faults)
            .field("link_faults", &self.link_faults)
            .field("scheduler", &self.scheduler)
            .field("runtime", &self.runtime)
            .finish()
    }
}

impl Scenario {
    /// Starts describing a scenario over `graph` with fault bound `f`.
    ///
    /// Accepts the graph owned or pre-shared: an `Arc<Digraph>` is stored
    /// as-is, so sweeps expanding many cells over one graph share a single
    /// copy.
    #[must_use]
    pub fn builder(graph: impl Into<Arc<Digraph>>, f: usize) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                graph: graph.into(),
                f,
                inputs: Vec::new(),
                epsilon: 0.1,
                // Placeholder: `build` derives or validates the real range.
                range: (0.0, 0.0),
                faults: Vec::new(),
                link_faults: None,
                scheduler: SchedulerSpec::Fixed(1),
                runtime: Runtime::Sim,
                rounds_override: None,
                record_trace: false,
                stats: None,
                protocol: Arc::new(ByzantineWitness::default()),
            },
            range: None,
        }
    }

    /// Runs the scenario: protocol-specific validation, then execution.
    ///
    /// # Errors
    ///
    /// Typed validation errors from [`Protocol::check`], then topology /
    /// runtime failures from [`Protocol::execute`]. An honest node failing
    /// to decide is *not* an error — it is reported through
    /// [`Outcome::all_decided`], because on graphs violating the
    /// protocol's condition that is the expected observable behaviour.
    pub fn run(&self) -> Result<Outcome, RunError> {
        self.run_with(&Precompute::new())
    }

    /// [`Scenario::run`] against a run's shared memo: the one execution
    /// path of single runs and sweep cells alike.
    pub(crate) fn run_with(&self, precompute: &Precompute) -> Result<Outcome, RunError> {
        let protocol = Arc::clone(&self.protocol);
        protocol.check(self)?;
        protocol.execute(self, precompute)
    }

    /// The network.
    #[must_use]
    pub fn graph(&self) -> &Digraph {
        self.graph.as_ref()
    }

    /// The fault bound `f`.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// One input per node (fault nodes' entries are placeholders).
    #[must_use]
    pub fn inputs(&self) -> &[f64] {
        &self.inputs
    }

    /// The agreement parameter ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The a-priori known input range (explicit, or the honest-input hull).
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        self.range
    }

    /// The fault assignment.
    #[must_use]
    pub fn faults(&self) -> &[(NodeId, FaultKind)] {
        &self.faults
    }

    /// The link-fault plan (the chaos layer), if any.
    #[must_use]
    pub fn link_faults(&self) -> Option<&LinkFaultPlan> {
        self.link_faults.as_ref()
    }

    /// The message-delivery schedule.
    #[must_use]
    pub fn scheduler(&self) -> &SchedulerSpec {
        &self.scheduler
    }

    /// The selected runtime.
    #[must_use]
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// The round-count override, if any.
    #[must_use]
    pub fn rounds_override(&self) -> Option<u32> {
        self.rounds_override
    }

    /// Returns the scenario with `registry` attached, replacing any
    /// previously attached registry — the post-build counterpart of
    /// [`ScenarioBuilder::stats`], for callers (like the `dbacd` daemon)
    /// that receive a ready-built scenario and still need a shared
    /// observation handle.
    #[must_use]
    pub fn with_stats(mut self, registry: Arc<StatsRegistry>) -> Self {
        self.stats = Some(registry);
        self
    }

    /// The registry this scenario's run will feed: the attached one, or a
    /// fresh private registry. Protocol implementations call this once per
    /// run, register per-node handles on it, and hand it to [`run_fleet`].
    #[must_use]
    pub fn resolve_stats(&self) -> Arc<StatsRegistry> {
        self.stats.clone().unwrap_or_else(|| StatsRegistry::new(self.graph.node_count()))
    }

    /// The selected protocol.
    #[must_use]
    pub fn protocol(&self) -> &dyn Protocol {
        self.protocol.as_ref()
    }

    /// The same scenario on a different runtime (no re-validation — the
    /// runtime does not affect any validity check).
    #[must_use]
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// The set of non-faulty nodes.
    #[must_use]
    pub fn honest_set(&self) -> NodeSet {
        let faulty: NodeSet = self.faults.iter().map(|&(v, _)| v).collect();
        self.graph.vertex_set() - faulty
    }

    /// The hull of the honest inputs (for validity checking).
    #[must_use]
    pub fn honest_input_range(&self) -> (f64, f64) {
        self.honest_set()
            .iter()
            .map(|v| self.inputs[v.index()])
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
    }

    /// Checks the fault assignment against what a protocol can express —
    /// the fault half of every [`Protocol::check`].
    ///
    /// # Errors
    ///
    /// [`RunError::UnsupportedFault`] naming `protocol` and the first
    /// assigned [`FaultKind`] that `supported` rejects.
    pub fn check_faults(
        &self,
        protocol: &'static str,
        supported: impl Fn(&FaultKind) -> bool,
    ) -> Result<(), RunError> {
        match self.faults.iter().find(|(_, kind)| !supported(kind)) {
            Some((_, kind)) => Err(RunError::UnsupportedFault { protocol, fault: kind.label() }),
            None => Ok(()),
        }
    }

    /// The round count protocols derived from ε and the range honour,
    /// unless overridden: the paper's termination bound (Section 4.6).
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds_override
            .unwrap_or_else(|| num_rounds(self.range.1 - self.range.0, self.epsilon))
    }
}

/// Builder for [`Scenario`]. Obtain via [`Scenario::builder`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    /// The scenario under construction — not yet validated, and its
    /// `range` is a placeholder until [`ScenarioBuilder::build`].
    scenario: Scenario,
    /// The explicit a-priori range, if any (`None`: derive the hull).
    range: Option<(f64, f64)>,
}

impl ScenarioBuilder {
    /// Sets one input per node (fault nodes' entries are ignored).
    #[must_use]
    pub fn inputs(mut self, inputs: Vec<f64>) -> Self {
        self.scenario.inputs = inputs;
        self
    }

    /// Sets the agreement parameter ε (default 0.1).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.scenario.epsilon = epsilon;
        self
    }

    /// Sets the a-priori known input range (default: the hull of the
    /// honest inputs).
    #[must_use]
    pub fn range(mut self, range: (f64, f64)) -> Self {
        self.range = Some(range);
        self
    }

    /// Assigns a fault behaviour to `v`.
    #[must_use]
    pub fn fault(mut self, v: NodeId, kind: FaultKind) -> Self {
        self.scenario.faults.push((v, kind));
        self
    }

    /// Assigns several fault behaviours at once.
    #[must_use]
    pub fn faults(mut self, faults: impl IntoIterator<Item = (NodeId, FaultKind)>) -> Self {
        self.scenario.faults.extend(faults);
        self
    }

    /// Attaches a deterministic link-fault plan (the chaos layer): seeded
    /// per-edge drop / duplicate / reorder / corrupt / partition / omit
    /// faults, honored identically by all three runtimes.
    #[must_use]
    pub fn link_faults(mut self, plan: LinkFaultPlan) -> Self {
        self.scenario.link_faults = Some(plan);
        self
    }

    /// Uses a seeded random schedule with delays in `[1, 20]`.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.scheduler = SchedulerSpec::Random { seed, min: 1, max: 20 };
        self
    }

    /// Uses an explicit scheduler spec.
    #[must_use]
    pub fn scheduler(mut self, spec: SchedulerSpec) -> Self {
        self.scenario.scheduler = spec;
        self
    }

    /// Selects the runtime (default: the deterministic simulator).
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.scenario.runtime = runtime;
        self
    }

    /// Overrides the round count (default: the paper's termination bound).
    #[must_use]
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.scenario.rounds_override = Some(rounds);
        self
    }

    /// Records a delivery trace on any runtime (see [`Outcome::trace`]).
    #[must_use]
    pub fn record_trace(mut self, record: bool) -> Self {
        self.scenario.record_trace = record;
        self
    }

    /// Attaches a live stats registry: the run feeds this registry
    /// instead of a private one, so any thread holding the same `Arc` can
    /// poll [`StatsRegistry::snapshot`] while the run is in flight (see
    /// the module-level ["Observe a live run"](self#observe-a-live-run)
    /// section). The registry must cover at least as many nodes as the
    /// graph — a smaller one fails the run with [`RunError::Sim`] — and
    /// after the run, its snapshot equals [`Outcome::sim_stats`].
    #[must_use]
    pub fn stats(mut self, registry: Arc<StatsRegistry>) -> Self {
        self.scenario.stats = Some(registry);
        self
    }

    /// Selects the protocol (default: [`ByzantineWitness`]).
    #[must_use]
    pub fn protocol(mut self, protocol: impl Protocol + 'static) -> Self {
        self.scenario.protocol = Arc::new(protocol);
        self
    }

    /// Selects a shared protocol handle (useful in sweeps).
    #[must_use]
    pub fn protocol_arc(mut self, protocol: Arc<dyn Protocol>) -> Self {
        self.scenario.protocol = protocol;
        self
    }

    /// Validates the description and produces the [`Scenario`].
    ///
    /// # Errors
    ///
    /// * [`RunError::InputLengthMismatch`] — not one input per node;
    /// * [`RunError::NonPositiveEpsilon`] — `ε ≤ 0` or non-finite;
    /// * [`RunError::FaultOutsideGraph`] / [`RunError::DuplicateFault`] —
    ///   malformed fault assignment;
    /// * [`RunError::TooManyFaults`] — more faults than the bound `f`;
    /// * [`RunError::LinkFaultOutsideGraph`] /
    ///   [`RunError::InvalidLinkFault`] — malformed link-fault plan;
    /// * [`RunError::InvalidConfig`] — non-finite inputs, empty or
    ///   violated a-priori range, no honest nodes, an empty random-delay
    ///   range (`min > max`).
    pub fn build(self) -> Result<Scenario, RunError> {
        let ScenarioBuilder { scenario, range } = self;
        let n = scenario.graph.node_count();
        if scenario.inputs.len() != n {
            return Err(RunError::InputLengthMismatch { expected: n, got: scenario.inputs.len() });
        }
        if scenario.inputs.iter().any(|v| !v.is_finite()) {
            return Err(RunError::InvalidConfig { reason: "inputs must be finite".into() });
        }
        if !(scenario.epsilon > 0.0 && scenario.epsilon.is_finite()) {
            return Err(RunError::NonPositiveEpsilon { epsilon: scenario.epsilon });
        }
        if let SchedulerSpec::Random { min, max, .. } = scenario.scheduler {
            if min > max {
                return Err(RunError::InvalidConfig { reason: "empty random-delay range".into() });
            }
        }
        let mut faulty = NodeSet::EMPTY;
        for &(v, _) in &scenario.faults {
            if v.index() >= n {
                return Err(RunError::FaultOutsideGraph { node: v.index(), nodes: n });
            }
            if !faulty.insert(v) {
                return Err(RunError::DuplicateFault { node: v.index() });
            }
        }
        if faulty.len() > scenario.f {
            return Err(RunError::TooManyFaults { configured: faulty.len(), f: scenario.f });
        }
        if faulty.len() == n {
            return Err(RunError::InvalidConfig { reason: "no honest nodes".into() });
        }
        if let Some(plan) = &scenario.link_faults {
            for (u, v, fault) in plan.faults() {
                if !scenario.graph.has_edge(*u, *v) {
                    return Err(RunError::LinkFaultOutsideGraph { from: u.index(), to: v.index() });
                }
                let invalid =
                    |reason| RunError::InvalidLinkFault { from: u.index(), to: v.index(), reason };
                match fault {
                    LinkFault::Drop { prob }
                    | LinkFault::Duplicate { prob }
                    | LinkFault::Corrupt { prob } => {
                        // `contains` is false for NaN, so this also rejects
                        // non-finite probabilities.
                        if !(0.0..=1.0).contains(prob) {
                            return Err(invalid("probability not in [0, 1]"));
                        }
                    }
                    LinkFault::Partition { from_step, to_step } => {
                        if from_step > to_step {
                            return Err(invalid("partition window is inverted"));
                        }
                    }
                    LinkFault::Reorder { .. } | LinkFault::Omit => {}
                }
            }
        }
        let range = range.unwrap_or_else(|| scenario.honest_input_range());
        if range.0 > range.1 || !range.0.is_finite() || !range.1.is_finite() {
            return Err(RunError::InvalidConfig { reason: "invalid input range".into() });
        }
        let outside = |v: NodeId| !(range.0..=range.1).contains(&scenario.inputs[v.index()]);
        if scenario.honest_set().iter().any(outside) {
            return Err(RunError::InvalidConfig {
                reason: "honest inputs fall outside the a-priori range".into(),
            });
        }
        Ok(Scenario { range, ..scenario })
    }

    /// Builds and runs in one step.
    ///
    /// # Errors
    ///
    /// As [`ScenarioBuilder::build`] and [`Scenario::run`].
    pub fn run(self) -> Result<Outcome, RunError> {
        self.build()?.run()
    }
}

// ---------------------------------------------------------------------------
// Outcome
// ---------------------------------------------------------------------------

/// The unified result of any scenario run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Name of the protocol that produced this outcome.
    pub protocol: &'static str,
    /// Per node: the decided output (`None` for faulty nodes and for
    /// honest nodes that could not progress — e.g. when the graph violates
    /// the protocol's condition).
    pub outputs: Vec<Option<f64>>,
    /// The honest node set.
    pub honest: NodeSet,
    /// Agreement parameter of the run.
    pub epsilon: f64,
    /// The hull of the honest inputs (for validity checking).
    pub honest_input_range: (f64, f64),
    /// Rounds each node was configured to execute.
    pub rounds: u32,
    /// The merged statistics of the run: the final snapshot of the run's
    /// [`StatsRegistry`]. One schema on every runtime — transport
    /// counters by [`MsgClass`], protocol progress counters, per-node
    /// queue/done gauges — with quantities a runtime genuinely cannot
    /// measure reported as typed [`Coverage::NotObservable`] markers
    /// instead of silent zeros. When the scenario attached a registry via
    /// [`ScenarioBuilder::stats`], this equals that registry's post-run
    /// snapshot bit-for-bit.
    pub sim_stats: StatsSnapshot,
    /// Honest nodes the watchdog of a wall-clock run ([`Runtime::Threaded`]
    /// or [`Runtime::Net`]) gave up on, each with a typed reason (timeout,
    /// panic, starvation). Always empty under [`Runtime::Sim`], which runs
    /// to quiescence instead. Survivors' outputs are still extracted and
    /// scored — degradation is data.
    pub incomplete: Vec<Incomplete>,
    /// Per node: the state-value trajectory (honest nodes only).
    pub histories: Vec<Option<Vec<f64>>>,
    /// Protocol-level messages sent by the surviving honest nodes, where
    /// the protocol counts them itself (AAD04's E9 metric); `None`
    /// otherwise.
    pub honest_messages: Option<u64>,
    /// The recorded delivery trace, when [`ScenarioBuilder::record_trace`]
    /// is set: every delivery of the run with the message's wire
    /// encoding, in `at` order — the virtual tick on [`Runtime::Sim`], the
    /// run-wide arrival index on [`Runtime::Threaded`] and [`Runtime::Net`].
    pub trace: Option<Trace>,
    /// Whether the topology's correctness condition was *certified* by a
    /// polynomial sufficient rule
    /// ([`dbac_conditions::robustness::certification`]). Populated by
    /// protocols whose condition has certificate machinery (today: the
    /// iterative W-MSR baseline, whose condition is
    /// `(f+1, f+1)`-robustness); `None` where certification does not
    /// apply. An `Uncertified` value is a warning, not a failure — the
    /// run proceeded on unproven topology.
    pub certification: Option<dbac_conditions::robustness::CertificationStatus>,
}

impl Outcome {
    /// The decided honest outputs (skips undecided nodes).
    #[must_use]
    pub fn honest_outputs(&self) -> Vec<f64> {
        self.honest.iter().filter_map(|v| self.outputs[v.index()]).collect()
    }

    /// True when the run degraded: at least one honest node missed its
    /// watchdog deadline (see [`Outcome::incomplete`]).
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.incomplete.is_empty()
    }

    /// Returns `true` if every honest node decided.
    #[must_use]
    pub fn all_decided(&self) -> bool {
        self.honest.iter().all(|v| self.outputs[v.index()].is_some())
    }

    /// Max − min over decided honest outputs (0 when fewer than two).
    #[must_use]
    pub fn spread(&self) -> f64 {
        let outs = self.honest_outputs();
        if outs.len() < 2 {
            return 0.0;
        }
        outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - outs.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Convergence (Definition 1.1): all honest nodes decided within ε.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.all_decided() && self.spread() < self.epsilon
    }

    /// Validity (Definition 1.2): every decided output lies in the hull of
    /// the honest inputs.
    #[must_use]
    pub fn valid(&self) -> bool {
        let (lo, hi) = self.honest_input_range;
        self.honest_outputs().iter().all(|&v| v >= lo - 1e-12 && v <= hi + 1e-12)
    }

    /// The per-round honest spread `U[r] − µ[r]`, for the convergence
    /// experiments (Lemma 15: it at least halves every round).
    #[must_use]
    pub fn spread_by_round(&self) -> Vec<f64> {
        let histories: Vec<&Vec<f64>> =
            self.honest.iter().filter_map(|v| self.histories[v.index()].as_ref()).collect();
        if histories.is_empty() {
            return Vec::new();
        }
        let rounds = histories.iter().map(|h| h.len()).min().unwrap_or(0);
        (0..rounds)
            .map(|r| {
                let vals = histories.iter().map(|h| h[r]);
                let hi = vals.clone().fold(f64::NEG_INFINITY, f64::max);
                let lo = vals.fold(f64::INFINITY, f64::min);
                hi - lo
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The runtime driver
// ---------------------------------------------------------------------------

/// The fault slots of a fleet handed to [`drive`]: one boxed adversary per
/// fault node.
pub type Adversaries<M> = Vec<(NodeId, Box<dyn Adversary<M> + Send>)>;

/// What [`drive`] hands back to a protocol implementation: runtime
/// counters, the optional delivery trace, and the stragglers of a
/// gracefully-degraded wall-clock run.
#[derive(Clone, Debug, Default)]
pub struct DriveReport {
    /// The final merged snapshot of the run's [`StatsRegistry`].
    pub stats: StatsSnapshot,
    /// The recorded delivery trace, when requested, on every runtime (see
    /// [`Outcome::trace`]).
    pub trace: Option<Trace>,
    /// Honest nodes that failed to complete, with typed reasons
    /// ([`Runtime::Threaded`] and [`Runtime::Net`] — the simulator runs to
    /// quiescence and reports non-deciders through the outcome instead).
    pub incomplete: Vec<Incomplete>,
}

/// Drives a process fleet on the scenario's runtime — the single place in
/// the workspace that assembles a [`Fleet`] and picks its driver
/// ([`Simulation`] for virtual time; [`Fleet::run`] over channels for
/// [`Runtime::Threaded`] or over framed connections for [`Runtime::Net`]).
/// Protocol implementations hand it the run's stats registry (from
/// [`Scenario::resolve_stats`], so an externally attached registry is
/// honored), one actor per node (honest processes plus boxed adversaries
/// covering every fault slot) and an `extract` callback invoked with each
/// surviving honest process after the run.
///
/// `drive` makes the registry the fleet's ledger, freezes the wall clock
/// when the run lands, and returns the final merged snapshot in
/// [`DriveReport::stats`].
///
/// `done` is the per-node termination predicate the wall-clock driver
/// polls (the simulator instead runs to quiescence and settles the done
/// gauges afterwards).
///
/// Every driver sends through the fleet's one send gate, so all three
/// runtimes honor the scenario's [`LinkFaultPlan`], if any, identically.
/// A threaded or network node that misses its watchdog deadline is *not*
/// an error: it lands in [`DriveReport::incomplete`] and every survivor is
/// still extracted.
///
/// The `P::Message: WireMessage` bound is what lets one fleet run on any
/// runtime: every drivable protocol message carries a canonical binary
/// wire form, even when the selected runtime never serializes it.
///
/// # Errors
///
/// [`RunError::Sim`] on unassigned nodes, a registry smaller than the
/// graph, event-budget exhaustion, or network-transport setup failure.
pub fn drive<P>(
    scenario: &Scenario,
    registry: &Arc<StatsRegistry>,
    honest: Vec<(NodeId, P)>,
    byzantine: Adversaries<P::Message>,
    done: fn(&P) -> bool,
    extract: &mut dyn FnMut(NodeId, &P),
) -> Result<DriveReport, RunError>
where
    P: Process + Send + 'static,
    P::Message: WireMessage,
{
    let mut fleet: Fleet<P> = Fleet::new(Arc::clone(&scenario.graph));
    fleet.set_stats(Arc::clone(registry));
    if let Some(plan) = &scenario.link_faults {
        fleet.set_link_faults(plan.clone());
    }
    for (v, p) in honest {
        fleet.set_honest(v, p);
    }
    for (v, a) in byzantine {
        fleet.set_byzantine(v, a);
    }
    if scenario.record_trace {
        fleet.record_trace();
    }
    let report = match scenario.runtime {
        Runtime::Sim => {
            let mut sim = Simulation::over(fleet, scenario.scheduler.build());
            sim.run()?;
            sim.into_report(done)
        }
        Runtime::Threaded { timeout, jitter_micros } => {
            let config = ThreadedConfig { timeout, jitter_micros, seed: scenario.scheduler.seed() };
            fleet.run(done, config)?
        }
        Runtime::Net { timeout } => fleet.run(done, NetConfig { timeout })?,
    };
    for (i, node) in report.nodes.iter().enumerate() {
        if let Some(node) = node {
            extract(NodeId::new(i), node);
        }
    }
    registry.finalize_wall();
    Ok(DriveReport {
        stats: registry.snapshot(),
        trace: report.trace,
        incomplete: report.incomplete,
    })
}

/// What [`run_fleet`] reads off one surviving honest process.
#[derive(Clone, Debug)]
pub struct Readout {
    /// The decided output, if the node decided.
    pub output: Option<f64>,
    /// The node's state-value trajectory.
    pub history: Vec<f64>,
    /// Messages the node counted itself, for protocols that count
    /// ([`Outcome::honest_messages`] is their sum); `None` otherwise.
    pub sent: Option<u64>,
}

/// Runs one protocol's fleet over the scenario and assembles the
/// [`Outcome`] — the shared body of every [`Protocol::execute`].
///
/// A protocol supplies what only it knows: its `name` and configured
/// `rounds`, how to build an honest node from `(node, input)`, which
/// adversary realizes a [`FaultKind`] at a fault node (only kinds its
/// `check` admitted arrive here), when a node is `done`, and how to read a
/// survivor out. The runner owns the rest, once: the honest/fault roster
/// walk, [`drive`], extraction (`outputs` and `histories` are `None` at
/// fault nodes and at honest nodes that did not survive), the
/// honest-message sum and the outcome's protocol-agnostic fields.
/// Protocol-specific tails — [`Outcome::certification`] — are set on the
/// returned value.
///
/// `registry` is the run's ledger, from [`Scenario::resolve_stats`]: the
/// constructors may register handles on it, and `readout` runs *before* the
/// final snapshot is taken, so counters it settles land in
/// [`Outcome::sim_stats`].
///
/// # Errors
///
/// As [`drive`].
#[allow(clippy::too_many_arguments)] // one argument per fact only the protocol knows
pub fn run_fleet<P>(
    scenario: &Scenario,
    name: &'static str,
    rounds: u32,
    registry: &Arc<StatsRegistry>,
    mut honest: impl FnMut(NodeId, f64) -> P,
    mut adversary: impl FnMut(NodeId, &FaultKind) -> Box<dyn Adversary<P::Message> + Send>,
    done: fn(&P) -> bool,
    mut readout: impl FnMut(&P) -> Readout,
) -> Result<Outcome, RunError>
where
    P: Process + Send + 'static,
    P::Message: WireMessage,
{
    let honest_set = scenario.honest_set();
    let nodes = honest_set.iter().map(|v| (v, honest(v, scenario.inputs[v.index()]))).collect();
    let adversaries = scenario.faults.iter().map(|(v, kind)| (*v, adversary(*v, kind))).collect();
    let n = scenario.graph.node_count();
    let (mut outputs, mut histories) = (vec![None; n], vec![None; n]);
    let mut honest_messages = None;
    let report = drive(scenario, registry, nodes, adversaries, done, &mut |v, node| {
        let read = readout(node);
        outputs[v.index()] = read.output;
        histories[v.index()] = Some(read.history);
        if let Some(sent) = read.sent {
            *honest_messages.get_or_insert(0) += sent;
        }
    })?;
    Ok(Outcome {
        protocol: name,
        outputs,
        honest: honest_set,
        epsilon: scenario.epsilon,
        honest_input_range: scenario.honest_input_range(),
        rounds,
        sim_stats: report.stats,
        incomplete: report.incomplete,
        histories,
        honest_messages,
        trace: report.trace,
        certification: None,
    })
}

// ---------------------------------------------------------------------------
// Core protocol implementations
// ---------------------------------------------------------------------------

/// The paper's **Algorithm BW** (Byzantine Witness): RedundantFlood,
/// per-guess witness threads with Maximal-Consistency, FIFO-Receive-All,
/// and Filter-and-Average. Correct under 3-reach (Theorem 4); on violating
/// graphs honest nodes may stall, reported via [`Outcome::all_decided`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByzantineWitness {
    /// Value-flood path discipline (default: redundant, as in the paper;
    /// `SimpleOnly` is the E11b ablation).
    pub flood_mode: FloodMode,
}

impl ByzantineWitness {
    /// The paper's configuration with a custom flood mode.
    #[must_use]
    pub fn with_flood_mode(mut self, mode: FloodMode) -> Self {
        self.flood_mode = mode;
        self
    }
}

impl Protocol for ByzantineWitness {
    fn name(&self) -> &'static str {
        "byzantine-witness"
    }

    fn check(&self, scenario: &Scenario) -> Result<(), RunError> {
        scenario.check_faults(self.name(), |kind| kind.adversary_kind().is_some())
    }

    fn execute(&self, scenario: &Scenario, precompute: &Precompute) -> Result<Outcome, RunError> {
        let topo = precompute.topology(scenario, self.flood_mode)?;
        let mut config = ProtocolConfig::new(scenario.f(), scenario.epsilon(), scenario.range());
        if let Some(r) = scenario.rounds_override() {
            config = config.with_rounds(r);
        }
        let registry = scenario.resolve_stats();
        run_fleet(
            scenario,
            self.name(),
            config.rounds,
            &registry,
            |v, input| {
                HonestNode::new(Arc::clone(&topo), config, v, input).with_stats(registry.register())
            },
            |v, kind| {
                kind.adversary_kind().expect("checked").build(Arc::clone(&topo), v, config.rounds)
            },
            HonestNode::is_done,
            |node| Readout {
                output: node.output(),
                history: node.x_history().to_vec(),
                sent: None,
            },
        )
    }
}

/// The asynchronous **crash**-tolerant protocol under 2-reach (Table 2's
/// other asynchronous cell, Tseng–Vaidya 2012): simple-path value floods,
/// per-guess fullness threads, midpoint updates. Supports
/// [`FaultKind::Crash`] and [`FaultKind::CrashAfter`] only — with crash
/// faults nobody lies. It has no knobs; call sites write
/// `CrashTwoReach::default()` like every other protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashTwoReach {}

impl Protocol for CrashTwoReach {
    fn name(&self) -> &'static str {
        "crash-two-reach"
    }

    fn check(&self, scenario: &Scenario) -> Result<(), RunError> {
        scenario.check_faults(self.name(), |kind| {
            matches!(kind, FaultKind::Crash | FaultKind::CrashAfter { .. })
        })
    }

    fn execute(&self, scenario: &Scenario, precompute: &Precompute) -> Result<Outcome, RunError> {
        let topo = precompute.crash_topology(scenario)?;
        let rounds = scenario.rounds();
        let make_node = |v: NodeId, input: f64| {
            CrashNode::new(Arc::clone(&topo), v, input, scenario.epsilon(), scenario.range())
                .with_rounds(rounds)
        };
        run_fleet(
            scenario,
            self.name(),
            rounds,
            &scenario.resolve_stats(),
            make_node,
            // A crashing node is an honest one cut off after `sends` sends.
            |v, kind| {
                let sends = match kind {
                    FaultKind::Crash => 0,
                    FaultKind::CrashAfter { sends } => *sends,
                    _ => unreachable!("checked"),
                };
                Box::new(CrashAfter::new(make_node(v, scenario.inputs()[v.index()]), sends))
            },
            CrashNode::is_done,
            |node| Readout {
                output: node.output(),
                history: node.x_history().to_vec(),
                sent: None,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ProtocolMsg;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn typed_validation_errors() {
        let g = generators::clique(3);
        // Wrong input count.
        assert_eq!(
            Scenario::builder(g.clone(), 1).inputs(vec![1.0]).build().unwrap_err(),
            RunError::InputLengthMismatch { expected: 3, got: 1 }
        );
        // Bad epsilon.
        assert_eq!(
            Scenario::builder(g.clone(), 1).inputs(vec![0.0; 3]).epsilon(0.0).build().unwrap_err(),
            RunError::NonPositiveEpsilon { epsilon: 0.0 }
        );
        // Fault outside the graph.
        assert_eq!(
            Scenario::builder(g.clone(), 1)
                .inputs(vec![0.0; 3])
                .fault(id(7), FaultKind::Crash)
                .build()
                .unwrap_err(),
            RunError::FaultOutsideGraph { node: 7, nodes: 3 }
        );
        // Duplicate fault.
        assert_eq!(
            Scenario::builder(g.clone(), 2)
                .inputs(vec![0.0; 3])
                .fault(id(0), FaultKind::Crash)
                .fault(id(0), FaultKind::ConstantLiar { value: 1.0 })
                .build()
                .unwrap_err(),
            RunError::DuplicateFault { node: 0 }
        );
        // Too many faults.
        assert_eq!(
            Scenario::builder(g.clone(), 0)
                .inputs(vec![0.0; 3])
                .fault(id(0), FaultKind::Crash)
                .build()
                .unwrap_err(),
            RunError::TooManyFaults { configured: 1, f: 0 }
        );
        // Honest input outside the declared range.
        assert!(matches!(
            Scenario::builder(g, 1).inputs(vec![0.0, 5.0, 99.0]).range((0.0, 10.0)).build(),
            Err(RunError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn bw_scenario_converges_and_is_valid() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 10.0, 2.0, 8.0])
            .epsilon(0.5)
            .seed(11)
            .protocol(ByzantineWitness::default())
            .run()
            .unwrap();
        assert_eq!(out.protocol, "byzantine-witness");
        assert!(out.all_decided());
        assert!(out.converged(), "outputs {:?}", out.outputs);
        assert!(out.valid());
        assert_eq!(out.rounds, 5);
        let spreads = out.spread_by_round();
        assert_eq!(spreads.len(), 6);
        assert_eq!(spreads[0], 10.0);
        assert!(spreads[5] < 0.5);
        assert!(out.trace.is_none(), "trace not requested");
    }

    #[test]
    fn bw_crash_fault_tolerated_on_k4() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 10.0, 2.0, 0.0])
            .epsilon(1.0)
            .fault(id(3), FaultKind::Crash)
            .seed(3)
            .run()
            .unwrap();
        assert!(out.converged(), "outputs {:?}", out.outputs);
        assert!(out.valid());
        assert!(out.outputs[3].is_none());
    }

    #[test]
    fn bw_constant_liar_cannot_break_validity_on_k4() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![2.0, 4.0, 6.0, 0.0])
            .epsilon(0.5)
            .fault(id(3), FaultKind::ConstantLiar { value: 1_000.0 })
            .seed(17)
            .run()
            .unwrap();
        assert!(out.converged(), "outputs {:?}", out.outputs);
        assert!(out.valid(), "liar dragged outputs outside [2, 6]: {:?}", out.outputs);
    }

    #[test]
    fn bw_spread_by_round_halves() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 16.0, 4.0, 12.0])
            .epsilon(0.25)
            .seed(23)
            .run()
            .unwrap();
        let spreads = out.spread_by_round();
        for w in spreads.windows(2) {
            assert!(w[1] <= w[0] / 2.0 + 1e-12, "halving violated: {spreads:?}");
        }
    }

    #[test]
    fn bw_rejects_inexpressible_faults() {
        let err = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0; 4])
            .fault(id(3), FaultKind::Ramp { base: 0.0, slope: 1.0 })
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            RunError::UnsupportedFault { protocol: "byzantine-witness", fault: "ramp" }
        );
    }

    #[test]
    fn crash_protocol_scenario_with_mid_run_crash() {
        let out = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 8.0, 4.0, 2.0])
            .epsilon(0.5)
            .range((0.0, 8.0))
            .fault(id(1), FaultKind::CrashAfter { sends: 3 })
            .scheduler(SchedulerSpec::Random { seed: 3, min: 1, max: 15 })
            .protocol(CrashTwoReach::default())
            .run()
            .unwrap();
        assert_eq!(out.protocol, "crash-two-reach");
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
        assert!(out.outputs[1].is_none());
    }

    #[test]
    fn crash_protocol_rejects_byzantine_faults() {
        let err = Scenario::builder(generators::clique(3), 1)
            .inputs(vec![0.0; 3])
            .fault(id(2), FaultKind::ConstantLiar { value: 9.0 })
            .protocol(CrashTwoReach::default())
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            RunError::UnsupportedFault { protocol: "crash-two-reach", fault: "constant-liar" }
        );
    }

    #[test]
    fn trace_recording_round_trips() {
        let out = Scenario::builder(generators::clique(3), 0)
            .inputs(vec![0.0, 4.0, 2.0])
            .epsilon(0.5)
            .record_trace(true)
            .protocol(ByzantineWitness::default())
            .run()
            .unwrap();
        let trace = out.trace.expect("requested");
        assert_eq!(trace.deliveries.len() as u64, out.sim_stats.messages_delivered());
        // Every frame is a canonical encoding of the delivered message.
        for d in &trace.deliveries {
            let msg = ProtocolMsg::from_bytes(&d.frame).expect("frame decodes");
            assert_eq!(msg.to_bytes(), d.frame);
        }
    }

    #[test]
    fn scheduler_seed_extraction() {
        assert_eq!(SchedulerSpec::Fixed(3).seed(), 0);
        assert_eq!(SchedulerSpec::Random { seed: 9, min: 1, max: 2 }.seed(), 9);
    }

    #[test]
    fn default_protocol_is_byzantine_witness() {
        let scn = Scenario::builder(generators::clique(3), 0).inputs(vec![0.0; 3]).build().unwrap();
        assert_eq!(scn.protocol().name(), "byzantine-witness");
    }

    #[test]
    fn link_fault_validation_is_typed() {
        let base = || Scenario::builder(generators::directed_cycle(3), 0).inputs(vec![0.0; 3]);
        // Edge not in the graph (the cycle has 0 -> 1 but not 1 -> 0).
        assert_eq!(
            base()
                .link_faults(LinkFaultPlan::new(0).fault(id(1), id(0), LinkFault::Omit))
                .build()
                .unwrap_err(),
            RunError::LinkFaultOutsideGraph { from: 1, to: 0 }
        );
        // Probability outside [0, 1] (NaN included).
        for bad in [-0.1, 1.5, f64::NAN] {
            assert_eq!(
                base()
                    .link_faults(LinkFaultPlan::new(0).fault(
                        id(0),
                        id(1),
                        LinkFault::Drop { prob: bad }
                    ))
                    .build()
                    .unwrap_err(),
                RunError::InvalidLinkFault { from: 0, to: 1, reason: "probability not in [0, 1]" }
            );
        }
        // Inverted partition window.
        assert_eq!(
            base()
                .link_faults(LinkFaultPlan::new(0).fault(
                    id(0),
                    id(1),
                    LinkFault::Partition { from_step: 9, to_step: 3 }
                ))
                .build()
                .unwrap_err(),
            RunError::InvalidLinkFault { from: 0, to: 1, reason: "partition window is inverted" }
        );
    }

    #[test]
    fn chaos_scenario_reports_drops_and_stays_valid() {
        let out =
            Scenario::builder(generators::clique(4), 0)
                .inputs(vec![0.0, 10.0, 4.0, 6.0])
                .epsilon(0.5)
                .seed(2)
                .link_faults(
                    LinkFaultPlan::new(77)
                        .fault(id(0), id(1), LinkFault::Drop { prob: 0.5 })
                        .fault(id(2), id(3), LinkFault::Omit),
                )
                .protocol(ByzantineWitness::default())
                .run()
                .unwrap();
        assert!(out.sim_stats.messages_dropped() > 0);
        assert!(out.valid(), "deciders must stay in the honest hull");
        assert!(out.incomplete.is_empty(), "the simulator runs to quiescence");
        assert!(!out.degraded());
    }

    #[test]
    fn chaos_replay_is_bit_identical() {
        let run = || {
            Scenario::builder(generators::clique(4), 0)
                .inputs(vec![0.0, 10.0, 4.0, 6.0])
                .epsilon(0.5)
                .seed(9)
                .record_trace(true)
                .link_faults(
                    LinkFaultPlan::new(5)
                        .fault(id(0), id(1), LinkFault::Drop { prob: 0.3 })
                        .fault(id(1), id(2), LinkFault::Duplicate { prob: 0.3 })
                        .fault(id(2), id(3), LinkFault::Reorder { window: 7 }),
                )
                .protocol(CrashTwoReach::default())
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.histories, b.histories);
        // Everything but the wall clock replays bit-identically.
        assert_eq!(a.sim_stats.transport, b.sim_stats.transport);
        assert_eq!(a.sim_stats.protocol, b.sim_stats.protocol);
        assert_eq!(a.sim_stats.nodes, b.sim_stats.nodes);
        assert_eq!(a.sim_stats.virtual_time, b.sim_stats.virtual_time);
        assert_eq!(a.trace, b.trace);
    }
}
