//! Dimensional experiment plans: every [`Scenario`] knob as a sweep axis,
//! with seed-batch statistical reduction.
//!
//! An [`ExperimentPlan`] is a pure *grid description*: each dimension is a
//! typed [`Axis`] of labelled points — protocols (including per-protocol
//! knobs such as flood mode, path budget or W-MSR round counts, which ride
//! the protocol axis as distinct labelled entries), graphs, fault bounds,
//! fault placements, input assignments (with an optional a-priori range),
//! ε, [`SchedulerFamily`] schedule families, link-fault plans (chaos),
//! runtimes and round overrides.
//! Seeds form the *statistical* axis. [`ExperimentPlan::build`] expands the
//! cartesian product into a [`Sweep`] of labelled [`Cell`]s (reporting the
//! full cell count), and [`Sweep::run`] executes every cell across the
//! available cores via the workspace's scoped-thread
//! [`par_map`].
//!
//! One [`Sweep::run`] builds each per-graph precomputation once. Its cells
//! share a [`Precompute`] memo that holds Algorithm BW's
//! [`Topology`](crate::precompute::Topology) and the crash protocol's
//! [`CrashTopology`](crate::crash::CrashTopology) (the `PathIndex`,
//! fault guesses and reach sets), keyed by graph identity
//! (the plan's shared `Arc<Digraph>`: expansion never clones a graph), the
//! fault bound, the protocol and BW's flood mode. The first cell of a key
//! builds it while later ones wait, and a failed build is the same error
//! row for every cell of its key. The memo lives for one `run` only: a
//! second `run` builds again, and [`Scenario::run`] is a one-cell sweep
//! with a fresh memo. A plan of 2 protocols × 3 graphs × 2 ε × 8 seeds
//! thus builds 6 precomputes, not 96.
//!
//! Cell-level validation failures do **not** poison sibling cells: a cell
//! whose scenario is rejected (at build or at run) becomes a typed error
//! row, surfaced through [`SweepReport::failures`], while every other cell
//! runs normally.
//!
//! On top of the raw per-cell report, [`SweepReport::reduce`] groups cells
//! by *all axes except the seed* and emits distributional statistics
//! ([`Stats`]: mean/median/min/max/stddev) of spread, rounds-to-ε, message
//! counts and wall time per group. This module formats nothing: the
//! experiment binaries render a [`ReducedReport`] as JSON through
//! `dbac_bench::json::reduced` (`{"groups":[…]}`, one object per group),
//! which is what CI uploads.
//!
//! ```
//! use dbac_core::scenario::sweep::ExperimentPlan;
//! use dbac_core::scenario::ByzantineWitness;
//! use dbac_graph::generators;
//!
//! let sweep = ExperimentPlan::new()
//!     .protocol("bw", ByzantineWitness::default())
//!     .graph("K4", generators::clique(4))
//!     .epsilons([1.0, 0.5])   // ε axis
//!     .seeds([1, 2])          // statistical axis
//!     .build()
//!     .expect("plan expands");
//! assert_eq!(sweep.cell_count(), 4);
//! let stats = sweep.run().reduce();
//! assert_eq!(stats.cells.len(), 2); // grouped by all axes except seed
//! assert!(stats.cells.iter().all(|c| c.converged == 2));
//! ```

use super::{
    FaultKind, LinkFaultPlan, Outcome, Precompute, Protocol, Runtime, Scenario, SchedulerSpec,
};
use crate::error::RunError;
use dbac_graph::par::par_map;
use dbac_graph::{Digraph, NodeId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Closure-backed axis value types
// ---------------------------------------------------------------------------

/// Places faults for one cell, given the graph and the fault bound.
/// Closure-backed, so placements may capture state (a node list, a value
/// range, a per-graph table).
pub type PlaceFaults = Arc<dyn Fn(&Digraph, usize) -> Vec<(NodeId, FaultKind)> + Send + Sync>;

/// Produces one input per node for a cell's graph. Closure-backed; see
/// [`InputSpec`] for the labelled axis entry that carries it.
pub type GenInputs = Arc<dyn Fn(&Digraph) -> Vec<f64> + Send + Sync>;

/// Produces the a-priori input range for a cell's graph (the optional half
/// of an [`InputSpec`]).
pub type GenRange = Arc<dyn Fn(&Digraph) -> (f64, f64) + Send + Sync>;

/// Produces one cell's [`LinkFaultPlan`] from the graph and the cell's
/// seed (`None`: clean links). Closure-backed, so a point can target
/// graph-dependent edges (e.g. every in-edge of the last node) and derive
/// the plan seed from the statistical axis.
pub type GenLinkFaults = Arc<dyn Fn(&Digraph, u64) -> Option<LinkFaultPlan> + Send + Sync>;

/// One labelled input assignment: a generator producing one input per node,
/// plus an optional a-priori range closure (defaults to the honest-input
/// hull, exactly as [`ScenarioBuilder::range`](super::ScenarioBuilder::range)).
#[derive(Clone)]
pub struct InputSpec {
    gen: GenInputs,
    range: Option<GenRange>,
}

impl InputSpec {
    /// Inputs from an arbitrary per-graph generator closure.
    #[must_use]
    pub fn from_fn(gen: impl Fn(&Digraph) -> Vec<f64> + Send + Sync + 'static) -> Self {
        InputSpec { gen: Arc::new(gen), range: None }
    }

    /// The indexed assignment `v ↦ v` (the sweep default).
    #[must_use]
    pub fn indexed() -> Self {
        InputSpec::from_fn(|g| (0..g.node_count()).map(|i| i as f64).collect())
    }

    /// A fixed input vector (the graph axis must match its length).
    #[must_use]
    pub fn fixed(values: Vec<f64>) -> Self {
        InputSpec::from_fn(move |_| values.clone())
    }

    /// Declares a constant a-priori input range for every cell.
    #[must_use]
    pub fn with_range(self, lo: f64, hi: f64) -> Self {
        self.with_range_fn(move |_| (lo, hi))
    }

    /// Declares a per-graph a-priori input range (e.g. covering a node that
    /// is honest until it crashes).
    #[must_use]
    pub fn with_range_fn(
        mut self,
        range: impl Fn(&Digraph) -> (f64, f64) + Send + Sync + 'static,
    ) -> Self {
        self.range = Some(Arc::new(range));
        self
    }

    /// The generated inputs for `graph`.
    #[must_use]
    pub fn values(&self, graph: &Digraph) -> Vec<f64> {
        (self.gen)(graph)
    }

    /// The declared a-priori range for `graph`, if any.
    #[must_use]
    pub fn range(&self, graph: &Digraph) -> Option<(f64, f64)> {
        self.range.as_ref().map(|f| f(graph))
    }
}

impl std::fmt::Debug for InputSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputSpec").field("has_range", &self.range.is_some()).finish()
    }
}

/// A family of message-delivery schedules, one [`SchedulerSpec`] per seed —
/// the scheduler axis entry. Every cell of a plan draws its concrete
/// schedule from its family at its seed, so cross-protocol comparisons stay
/// controlled while the seed batch samples the family.
#[derive(Clone)]
pub struct SchedulerFamily(Arc<dyn Fn(u64) -> SchedulerSpec + Send + Sync>);

impl SchedulerFamily {
    /// A family from an arbitrary seed → spec closure.
    #[must_use]
    pub fn from_fn(f: impl Fn(u64) -> SchedulerSpec + Send + Sync + 'static) -> Self {
        SchedulerFamily(Arc::new(f))
    }

    /// Constant per-message delay (seed-independent).
    #[must_use]
    pub fn fixed(delay: u64) -> Self {
        SchedulerFamily::from_fn(move |_| SchedulerSpec::Fixed(delay))
    }

    /// Seeded uniform-random delays in `[min, max]` (the plan default is
    /// `random(1, 20)`, the workspace's `.seed()` convention).
    #[must_use]
    pub fn random(min: u64, max: u64) -> Self {
        SchedulerFamily::from_fn(move |seed| SchedulerSpec::Random { seed, min, max })
    }

    /// The historical `[1, 15]` schedule of the pre-scenario entry points
    /// (see [`SchedulerSpec::legacy_random`]).
    #[must_use]
    pub fn legacy_random() -> Self {
        SchedulerFamily::from_fn(SchedulerSpec::legacy_random)
    }

    /// The concrete schedule this family assigns to `seed`.
    #[must_use]
    pub fn spec(&self, seed: u64) -> SchedulerSpec {
        (self.0)(seed)
    }
}

impl std::fmt::Debug for SchedulerFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerFamily").finish()
    }
}

// ---------------------------------------------------------------------------
// Axis
// ---------------------------------------------------------------------------

/// One typed dimension of an [`ExperimentPlan`]: labelled points, expanded
/// by cartesian product at [`ExperimentPlan::build`]. An axis left empty
/// collapses to the dimension's single neutral default point.
#[derive(Clone, Debug)]
pub struct Axis<T> {
    points: Vec<(String, T)>,
}

impl<T> Default for Axis<T> {
    fn default() -> Self {
        Axis::new()
    }
}

impl<T> Axis<T> {
    /// An empty axis.
    #[must_use]
    pub fn new() -> Self {
        Axis { points: Vec::new() }
    }

    /// Appends one labelled point.
    #[must_use]
    pub fn point(mut self, label: impl Into<String>, value: T) -> Self {
        self.points.push((label.into(), value));
        self
    }

    /// Builds an axis from labelled points (e.g. a graph catalog).
    #[must_use]
    pub fn from_points<L: Into<String>>(points: impl IntoIterator<Item = (L, T)>) -> Self {
        Axis { points: points.into_iter().map(|(l, v)| (l.into(), v)).collect() }
    }

    /// The labelled points, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(String, T)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no point was added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Collapses an axis left empty to the dimension's neutral point.
    fn default_to(&mut self, label: &str, value: T) {
        if self.points.is_empty() {
            self.points.push((label.into(), value));
        }
    }

    /// The value of the `i`-th point.
    fn at(&self, i: usize) -> &T {
        &self.points[i].1
    }

    /// This axis as a row of the plan's axis table, under its
    /// [`Cell::coord`] name.
    fn row(&self, name: &'static str) -> AxisRow<'_> {
        AxisRow { name, noun: name, labels: self.points.iter().map(|(l, _)| l.as_str()).collect() }
    }
}

/// Number of plan dimensions, the statistical (seed) axis included.
const AXES: usize = 11;

/// One row of an [`ExperimentPlan`]'s axis table: the name
/// [`Cell::coord`] looks the dimension up by, what duplicate-label errors
/// call it, and its points' label fragments in insertion order.
struct AxisRow<'a> {
    name: &'static str,
    noun: &'static str,
    labels: Vec<&'a str>,
}

impl AxisRow<'_> {
    /// Overrides the name used in duplicate-label errors.
    fn called(mut self, noun: &'static str) -> Self {
        self.noun = noun;
        self
    }
}

// ---------------------------------------------------------------------------
// ExperimentPlan
// ---------------------------------------------------------------------------

/// A fully-dimensional experiment description: the cartesian product of
/// labelled axes over every [`Scenario`] knob, with seeds as the
/// statistical axis. See the [module docs](self) for the model.
///
/// Dimensions left empty default to a single neutral point: fault bound 1,
/// no faults, indexed inputs `v ↦ v`, ε = 0.5, the seeded `random(1, 20)`
/// schedule family, clean links, the Sim runtime, the derived round count,
/// seed 0.
#[derive(Default)]
pub struct ExperimentPlan {
    protocols: Axis<Arc<dyn Protocol>>,
    graphs: Axis<Arc<Digraph>>,
    fault_bounds: Axis<usize>,
    placements: Axis<PlaceFaults>,
    inputs: Axis<InputSpec>,
    epsilons: Axis<f64>,
    schedulers: Axis<SchedulerFamily>,
    link_faults: Axis<GenLinkFaults>,
    runtimes: Axis<Runtime>,
    rounds: Axis<Option<u32>>,
    seeds: Axis<u64>,
}

/// Prints every axis's point labels, keyed by axis name.
impl std::fmt::Debug for ExperimentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ExperimentPlan ")?;
        f.debug_map().entries(self.axes().iter().map(|row| (row.name, &row.labels))).finish()
    }
}

impl ExperimentPlan {
    /// An empty plan (see the type docs for per-dimension defaults).
    #[must_use]
    pub fn new() -> Self {
        ExperimentPlan::default()
    }

    /// The axis table, outermost dimension first: expansion order, label
    /// fragment order and the index order of [`ExperimentPlan::build`]'s
    /// odometer all follow it.
    fn axes(&self) -> [AxisRow<'_>; AXES] {
        [
            self.protocols.row("protocol"),
            self.graphs.row("graph"),
            self.fault_bounds.row("f").called("fault-bound"),
            self.placements.row("placement"),
            self.inputs.row("inputs"),
            self.epsilons.row("epsilon"),
            self.schedulers.row("scheduler"),
            self.link_faults.row("links").called("link-faults"),
            self.runtimes.row("runtime"),
            self.rounds.row("rounds"),
            self.seeds.row("seed"),
        ]
    }

    /// Adds a protocol axis point. Per-protocol knobs (flood mode, W-MSR
    /// rounds) become axis points by adding distinctly configured,
    /// distinctly labelled instances.
    #[must_use]
    pub fn protocol(mut self, label: impl Into<String>, protocol: impl Protocol + 'static) -> Self {
        self.protocols = self.protocols.point(label, Arc::new(protocol));
        self
    }

    /// Adds a shared-handle protocol axis point.
    #[must_use]
    pub fn protocol_arc(mut self, label: impl Into<String>, protocol: Arc<dyn Protocol>) -> Self {
        self.protocols = self.protocols.point(label, protocol);
        self
    }

    /// Adds a graph axis point.
    #[must_use]
    pub fn graph(mut self, label: impl Into<String>, graph: Digraph) -> Self {
        self.graphs = self.graphs.point(label, Arc::new(graph));
        self
    }

    /// Replaces the whole graph axis (e.g. from a named catalog).
    #[must_use]
    pub fn graphs_axis(mut self, axis: Axis<Digraph>) -> Self {
        self.graphs = Axis::from_points(axis.points.into_iter().map(|(l, g)| (l, Arc::new(g))));
        self
    }

    /// Adds a fault-bound axis point (labelled `f<n>`; default `[1]`).
    #[must_use]
    pub fn fault_bound(mut self, f: usize) -> Self {
        self.fault_bounds = self.fault_bounds.point(format!("f{f}"), f);
        self
    }

    /// Adds a fault-placement axis point: a closure (it may capture state)
    /// placing faults given the graph and the fault bound.
    #[must_use]
    pub fn placement(
        mut self,
        label: impl Into<String>,
        placer: impl Fn(&Digraph, usize) -> Vec<(NodeId, FaultKind)> + Send + Sync + 'static,
    ) -> Self {
        self.placements = self.placements.point(label, Arc::new(placer) as PlaceFaults);
        self
    }

    /// Adds a fixed fault assignment as a placement axis point.
    #[must_use]
    pub fn faults(mut self, label: impl Into<String>, faults: Vec<(NodeId, FaultKind)>) -> Self {
        self.placements = self
            .placements
            .point(label, Arc::new(move |_: &Digraph, _: usize| faults.clone()) as PlaceFaults);
        self
    }

    /// Adds an input-assignment axis point.
    #[must_use]
    pub fn inputs(mut self, label: impl Into<String>, spec: InputSpec) -> Self {
        self.inputs = self.inputs.point(label, spec);
        self
    }

    /// Adds an ε axis point (labelled `eps<ε>`; default `[0.5]`).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilons = self.epsilons.point(format!("eps{epsilon}"), epsilon);
        self
    }

    /// Adds several ε axis points.
    #[must_use]
    pub fn epsilons(self, epsilons: impl IntoIterator<Item = f64>) -> Self {
        epsilons.into_iter().fold(self, ExperimentPlan::epsilon)
    }

    /// Adds a scheduler-family axis point (default: `random(1, 20)`).
    #[must_use]
    pub fn scheduler(mut self, label: impl Into<String>, family: SchedulerFamily) -> Self {
        self.schedulers = self.schedulers.point(label, family);
        self
    }

    /// Adds a link-fault axis point: a closure producing the cell's
    /// [`LinkFaultPlan`] from the graph and the cell's seed (`None`:
    /// clean links — the default when the axis is left empty).
    #[must_use]
    pub fn link_faults(
        mut self,
        label: impl Into<String>,
        gen: impl Fn(&Digraph, u64) -> Option<LinkFaultPlan> + Send + Sync + 'static,
    ) -> Self {
        self.link_faults = self.link_faults.point(label, Arc::new(gen) as GenLinkFaults);
        self
    }

    /// Adds a runtime axis point, labelled with [`Runtime::name`]
    /// (default: the Sim runtime). For several points of the same kind —
    /// e.g. a timeout sweep over threaded runtimes — use
    /// [`ExperimentPlan::runtime_labelled`], since auto-labels must stay
    /// unique within the axis.
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtimes = self.runtimes.point(runtime.name(), runtime);
        self
    }

    /// Adds a runtime axis point under a caller-chosen label (several
    /// differently-configured runtimes of the same kind need distinct
    /// labels).
    #[must_use]
    pub fn runtime_labelled(mut self, label: impl Into<String>, runtime: Runtime) -> Self {
        self.runtimes = self.runtimes.point(label, runtime);
        self
    }

    /// Adds a round-override axis point (labelled `r<n>`; default: the
    /// protocol's derived round count).
    #[must_use]
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = self.rounds.point(format!("r{rounds}"), Some(rounds));
        self
    }

    /// Adds a seed to the statistical axis (labelled `s<seed>`; default
    /// `[0]`). [`SweepReport::reduce`] aggregates over exactly this axis.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds = self.seeds.point(format!("s{seed}"), seed);
        self
    }

    /// Adds several seeds to the statistical axis.
    #[must_use]
    pub fn seeds(self, seeds: impl IntoIterator<Item = u64>) -> Self {
        seeds.into_iter().fold(self, ExperimentPlan::seed)
    }

    /// Expands the cartesian product into a [`Sweep`] of labelled cells.
    ///
    /// Scenario-level validation failures do **not** fail the build: the
    /// offending cell carries its typed [`RunError`] and becomes an error
    /// row when run, leaving sibling cells intact.
    ///
    /// # Errors
    ///
    /// A plan without at least one protocol and one graph (there is no
    /// neutral default for either), or one whose labels collide — a
    /// duplicate point label within an axis (duplicate values, for the
    /// numeric axes), or two expanded cells sharing a full label — since
    /// colliding cells would silently merge in the reducer.
    pub fn build(mut self) -> Result<Sweep, String> {
        if self.protocols.is_empty() {
            return Err("experiment plan needs at least one protocol".into());
        }
        if self.graphs.is_empty() {
            return Err("experiment plan needs at least one graph".into());
        }
        // Label policy: the historical Grid dimensions keep their fragments
        // even when defaulted (f, placement "none", seed — so labels stay
        // `proto/graph/f1/none/s0`-shaped), while the dimensions new in the
        // plan API (inputs, ε, scheduler, links, runtime, rounds) default
        // to an empty fragment and so appear only when populated.
        self.fault_bounds.default_to("f1", 1);
        self.placements.default_to("none", Arc::new(|_: &Digraph, _: usize| Vec::new()));
        self.inputs.default_to("", InputSpec::indexed());
        self.epsilons.default_to("", 0.5);
        self.schedulers.default_to("", SchedulerFamily::random(1, 20));
        self.link_faults.default_to("", Arc::new(|_: &Digraph, _: u64| None));
        self.runtimes.default_to("", Runtime::Sim);
        self.rounds.default_to("", None);
        self.seeds.default_to("s0", 0);

        // Duplicate labels within one axis would merge cells silently in
        // the reducer.
        let axes = self.axes();
        for row in &axes {
            let mut seen = std::collections::HashSet::new();
            if let Some(label) = row.labels.iter().find(|label| !seen.insert(**label)) {
                return Err(format!("duplicate {} axis label '{label}'", row.noun));
            }
        }

        // Walk the product as a mixed-radix odometer over the table: the
        // last axis (the seed) turns fastest, so cells come out in
        // nested-loop order with each seed batch contiguous.
        let total = axes.iter().map(|row| row.labels.len()).product();
        let mut cells = Vec::with_capacity(total);
        let mut at = [0usize; AXES];
        for _ in 0..total {
            let coords: Arc<[(&'static str, String)]> =
                axes.iter().zip(at).map(|(row, i)| (row.name, row.labels[i].to_string())).collect();
            let [proto, graph, bound, place, input, eps, sched, links, rt, rounds, seed] = at;
            let (graph, f) = (self.graphs.at(graph), *self.fault_bounds.at(bound));
            let (input, seed) = (self.inputs.at(input), *self.seeds.at(seed));
            let mut builder = Scenario::builder(Arc::clone(graph), f)
                .inputs(input.values(graph))
                .epsilon(*self.epsilons.at(eps))
                .faults(self.placements.at(place)(graph, f))
                .scheduler(self.schedulers.at(sched).spec(seed))
                .runtime(*self.runtimes.at(rt))
                .protocol_arc(Arc::clone(self.protocols.at(proto)));
            // The optional axes set the builder's fields: `None` keeps the
            // derived input hull, no link faults and the derived round count.
            builder.range = input.range(graph);
            builder.scenario.link_faults = self.link_faults.at(links)(graph, seed);
            builder.scenario.rounds_override = *self.rounds.at(rounds);
            let scenario = builder.build();
            cells.push(Cell {
                label: join_fragments(&coords),
                group: join_fragments(&coords[..AXES - 1]),
                seed,
                coords,
                scenario,
            });
            for (digit, row) in at.iter_mut().zip(&axes).rev() {
                *digit += 1;
                if *digit < row.labels.len() {
                    break;
                }
                *digit = 0;
            }
        }
        // Per-axis uniqueness leaves one corner open: empty fragments are
        // dropped from labels, so points of *different* axes can still
        // compose into one string. Guard the full product.
        let mut labels = std::collections::HashSet::with_capacity(cells.len());
        for cell in &cells {
            if !labels.insert(cell.label.as_str()) {
                return Err(format!(
                    "two cells share the label '{}' (empty fragments collapsed axes together); \
                     give the colliding axis points distinct non-empty labels",
                    cell.label
                ));
            }
        }
        Ok(Sweep { cells })
    }
}

/// Looks up one named axis fragment in a shared coordinate slice (the one
/// body behind [`Cell::coord`], [`CellRow::coord`] and
/// [`ReducedCell::coord`]).
fn coord_of<'a>(coords: &'a [(&'static str, String)], axis: &str) -> Option<&'a str> {
    coords.iter().find(|(a, _)| *a == axis).map(|(_, l)| l.as_str())
}

/// Joins the non-empty fragments with `/`.
fn join_fragments(coords: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (_, fragment) in coords {
        if fragment.is_empty() {
            continue;
        }
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(fragment);
    }
    out
}

// ---------------------------------------------------------------------------
// Sweep + cells
// ---------------------------------------------------------------------------

/// One expanded grid cell: a labelled scenario, or the typed validation
/// error that rejected it (kept so siblings still run).
#[derive(Debug)]
pub struct Cell {
    label: String,
    group: String,
    seed: u64,
    coords: Arc<[(&'static str, String)]>,
    scenario: Result<Scenario, RunError>,
}

impl Cell {
    /// The full cell label: every non-empty axis fragment joined with `/`,
    /// e.g. `bw/K4/f1/liar/eps0.5/s7`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The label minus the seed fragment — the reduction group key.
    #[must_use]
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The cell's seed (the statistical-axis coordinate).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The label fragment of one named axis (`"protocol"`, `"graph"`,
    /// `"f"`, `"placement"`, `"inputs"`, `"epsilon"`, `"scheduler"`,
    /// `"links"`, `"runtime"`, `"rounds"`, `"seed"`); empty for defaulted
    /// dimensions.
    #[must_use]
    pub fn coord(&self, axis: &str) -> Option<&str> {
        coord_of(&self.coords, axis)
    }

    /// The validated scenario, if the cell built.
    #[must_use]
    pub fn scenario(&self) -> Option<&Scenario> {
        self.scenario.as_ref().ok()
    }

    /// The build-time rejection, if the cell did not build.
    #[must_use]
    pub fn error(&self) -> Option<&RunError> {
        self.scenario.as_ref().err()
    }
}

/// An expanded plan: the full labelled cell product, ready to run.
#[derive(Debug)]
pub struct Sweep {
    cells: Vec<Cell>,
}

impl Sweep {
    /// The expanded cells, in canonical axis order (seed innermost).
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The full product size reported by the expansion.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Executes every runnable cell across the available cores and
    /// collects the per-cell report (rows stay in cell order). Cells that
    /// failed to build, or whose run is rejected by the protocol, become
    /// typed error rows.
    ///
    /// The run's cells share one [`Precompute`] memo (see the
    /// [module docs](self)), dropped when `run` returns.
    #[must_use]
    pub fn run(&self) -> SweepReport {
        self.run_with(&Precompute::new())
    }

    /// [`Sweep::run`] against a given memo.
    pub(crate) fn run_with(&self, precompute: &Precompute) -> SweepReport {
        let rows = par_map(&self.cells, |_, cell| {
            let start = Instant::now();
            let summary = match &cell.scenario {
                Ok(scenario) => scenario.run_with(precompute).map(|out| CellSummary::digest(&out)),
                Err(e) => Err(e.clone()),
            };
            CellRow {
                label: cell.label.clone(),
                group: cell.group.clone(),
                seed: cell.seed,
                coords: Arc::clone(&cell.coords),
                wall_ns: start.elapsed().as_nanos() as f64,
                summary,
            }
        });
        SweepReport { rows }
    }
}

// ---------------------------------------------------------------------------
// Per-cell results
// ---------------------------------------------------------------------------

/// Protocol-agnostic digest of one cell's [`Outcome`].
#[derive(Clone, Debug, PartialEq)]
pub struct CellSummary {
    /// All honest nodes decided within ε.
    pub converged: bool,
    /// Decided outputs stayed in the honest input hull.
    pub valid: bool,
    /// Every honest node decided.
    pub all_decided: bool,
    /// Max − min over decided honest outputs.
    pub spread: f64,
    /// The per-round honest spread trajectory (Lemma 15's observable).
    pub spread_by_round: Vec<f64>,
    /// Earliest round whose spread fell below ε (`None`: never).
    pub rounds_to_epsilon: Option<u32>,
    /// The run's agreement parameter ε.
    pub epsilon: f64,
    /// Messages handed to the runtime's send gate (counted on every
    /// runtime).
    pub messages_sent: u64,
    /// Messages actually delivered to a node.
    pub messages_delivered: u64,
    /// Messages destroyed by the cell's link-fault plan (drops plus
    /// corruptions; 0 for clean links).
    pub messages_dropped: u64,
    /// Protocol-counted honest messages, where available.
    pub honest_messages: Option<u64>,
    /// Configured round count.
    pub rounds: u32,
}

impl CellSummary {
    /// Digests an outcome into the sweep's protocol-agnostic row.
    #[must_use]
    pub fn digest(out: &Outcome) -> Self {
        let spread_by_round = out.spread_by_round();
        let rounds_to_epsilon =
            spread_by_round.iter().position(|&s| s < out.epsilon).map(|r| r as u32);
        CellSummary {
            converged: out.converged(),
            valid: out.valid(),
            all_decided: out.all_decided(),
            spread: out.spread(),
            spread_by_round,
            rounds_to_epsilon,
            epsilon: out.epsilon,
            messages_sent: out.sim_stats.messages_sent(),
            messages_delivered: out.sim_stats.messages_delivered(),
            messages_dropped: out.sim_stats.messages_dropped() + out.sim_stats.messages_corrupted(),
            honest_messages: out.honest_messages,
            rounds: out.rounds,
        }
    }

    /// The cell's message metric: protocol-counted honest messages where
    /// the protocol tracks them, simulator sends otherwise.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.honest_messages.unwrap_or(self.messages_sent)
    }
}

/// One executed (or rejected) cell.
#[derive(Clone, Debug)]
pub struct CellRow {
    /// The cell's full label.
    pub label: String,
    /// The reduction group key (label minus the seed fragment).
    pub group: String,
    /// The cell's seed.
    pub seed: u64,
    /// Axis fragments, shared with the cell (see [`Cell::coord`]).
    pub coords: Arc<[(&'static str, String)]>,
    /// Wall-clock nanoseconds for the whole run (≈0 for rejected cells).
    pub wall_ns: f64,
    /// The outcome digest, or the typed error that rejected the cell.
    pub summary: Result<CellSummary, RunError>,
}

impl CellRow {
    /// The label fragment of one named axis (see [`Cell::coord`]).
    #[must_use]
    pub fn coord(&self, axis: &str) -> Option<&str> {
        coord_of(&self.coords, axis)
    }
}

/// The raw per-cell results of a sweep, reducible into seed-batch
/// statistics.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Rows in cell order.
    pub rows: Vec<CellRow>,
}

impl SweepReport {
    /// Rows whose cell was rejected or whose run failed.
    #[must_use]
    pub fn failures(&self) -> Vec<&CellRow> {
        self.rows.iter().filter(|r| r.summary.is_err()).collect()
    }

    /// The row with the given full label.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<&CellRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Groups rows by all axes except the seed and reduces each group's
    /// seed batch into distributional statistics.
    #[must_use]
    pub fn reduce(&self) -> ReducedReport {
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<&CellRow>> = HashMap::new();
        for row in &self.rows {
            let entry = groups.entry(row.group.as_str()).or_default();
            if entry.is_empty() {
                order.push(row.group.as_str());
            }
            entry.push(row);
        }
        let cells = order
            .into_iter()
            .map(|group| {
                let rows = &groups[group];
                let oks: Vec<&CellSummary> =
                    rows.iter().filter_map(|r| r.summary.as_ref().ok()).collect();
                ReducedCell {
                    group: group.to_string(),
                    coords: Arc::clone(&rows[0].coords),
                    seeds: rows.iter().map(|r| r.seed).collect(),
                    runs: rows.len(),
                    errors: rows.len() - oks.len(),
                    converged: oks.iter().filter(|s| s.converged).count(),
                    valid: oks.iter().filter(|s| s.valid).count(),
                    all_decided: oks.iter().filter(|s| s.all_decided).count(),
                    spread: Stats::of(oks.iter().map(|s| s.spread)),
                    rounds_to_epsilon: Stats::of(
                        oks.iter().filter_map(|s| s.rounds_to_epsilon).map(f64::from),
                    ),
                    messages: Stats::of(oks.iter().map(|s| s.messages() as f64)),
                    dropped: Stats::of(oks.iter().map(|s| s.messages_dropped as f64)),
                    wall_ns: Stats::of(
                        rows.iter().filter(|r| r.summary.is_ok()).map(|r| r.wall_ns),
                    ),
                }
            })
            .collect();
        ReducedReport { cells }
    }
}

// ---------------------------------------------------------------------------
// Reducer
// ---------------------------------------------------------------------------

/// Distributional statistics of one metric over a seed batch. An empty
/// batch reduces to all-zero statistics with `n = 0`; a reader must take
/// `n = 0` as "nothing measured", not as a measured zero (the JSON
/// renderer writes its other fields as `null`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    /// Number of finite samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Stats {
    /// Reduces finite samples into summary statistics.
    #[must_use]
    pub fn of(values: impl IntoIterator<Item = f64>) -> Stats {
        let mut vals: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            return Stats { n: 0, mean: 0.0, median: 0.0, min: 0.0, max: 0.0, stddev: 0.0 };
        }
        vals.sort_by(f64::total_cmp);
        let n = vals.len();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 { vals[n / 2] } else { (vals[n / 2 - 1] + vals[n / 2]) / 2.0 };
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Stats { n, mean, median, min: vals[0], max: vals[n - 1], stddev: var.sqrt() }
    }
}

/// One reduced group: every cell sharing all axis coordinates except the
/// seed, aggregated into counts and [`Stats`].
#[derive(Clone, Debug)]
pub struct ReducedCell {
    /// The group key (the cell label minus the seed fragment).
    pub group: String,
    /// Axis fragments of the group (the seed entry is the first member's).
    pub coords: Arc<[(&'static str, String)]>,
    /// The seeds aggregated into this group, in cell order.
    pub seeds: Vec<u64>,
    /// Total cells in the group.
    pub runs: usize,
    /// Cells rejected or failed (error rows).
    pub errors: usize,
    /// Successful cells that converged.
    pub converged: usize,
    /// Successful cells whose outputs stayed in the honest hull.
    pub valid: usize,
    /// Successful cells where every honest node decided.
    pub all_decided: usize,
    /// Final-spread statistics over successful cells.
    pub spread: Stats,
    /// Rounds-to-ε statistics over cells that reached ε.
    pub rounds_to_epsilon: Stats,
    /// Message-count statistics (see [`CellSummary::messages`]).
    pub messages: Stats,
    /// Link-fault destruction statistics (drops plus corruptions).
    pub dropped: Stats,
    /// Wall-time statistics (nanoseconds) over successful cells.
    pub wall_ns: Stats,
}

impl ReducedCell {
    /// The label fragment of one named axis (see [`Cell::coord`]).
    #[must_use]
    pub fn coord(&self, axis: &str) -> Option<&str> {
        coord_of(&self.coords, axis)
    }
}

/// The seed-aggregated results of a sweep — what CI uploads as the
/// `sweep.json` artifact.
#[derive(Clone, Debug)]
pub struct ReducedReport {
    /// Reduced groups, in first-seen cell order.
    pub cells: Vec<ReducedCell>,
}

impl ReducedReport {
    /// The reduced group with the given key.
    #[must_use]
    pub fn get(&self, group: &str) -> Option<&ReducedCell> {
        self.cells.iter().find(|c| c.group == group)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ByzantineWitness, CrashTwoReach};
    use super::*;
    use dbac_graph::generators;

    #[test]
    fn plan_expands_the_full_product() {
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .protocol("crash", CrashTwoReach::default())
            .graph("k3", generators::clique(3))
            .graph("k4", generators::clique(4))
            .fault_bound(0)
            .epsilons([1.0, 0.5])
            .scheduler("fix", SchedulerFamily::fixed(1))
            .scheduler("rnd", SchedulerFamily::random(1, 9))
            .rounds(3)
            .rounds(4)
            .seeds([1, 2, 3])
            .build()
            .unwrap();
        // 2 protocols × 2 graphs × 1 bound × 2 ε × 2 schedulers × 2 rounds
        // × 3 seeds.
        assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 2 * 2 * 3);
        let first = &sweep.cells()[0];
        assert_eq!(first.label(), "bw/k3/f0/none/eps1/fix/r3/s1");
        assert_eq!(first.group(), "bw/k3/f0/none/eps1/fix/r3");
        assert_eq!(first.seed(), 1);
        assert_eq!(first.coord("scheduler"), Some("fix"));
        assert_eq!(first.coord("runtime"), Some(""));
        let scn = first.scenario().expect("valid cell");
        assert_eq!(scn.epsilon(), 1.0);
        assert_eq!(scn.rounds_override(), Some(3));
        assert_eq!(scn.scheduler(), &SchedulerSpec::Fixed(1));
    }

    #[test]
    fn defaulted_plan_axes_keep_grid_shaped_labels() {
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k4", generators::clique(4))
            .build()
            .unwrap();
        assert_eq!(sweep.cell_count(), 1);
        assert_eq!(sweep.cells()[0].label(), "bw/k4/f1/none/s0");
        let scn = sweep.cells()[0].scenario().unwrap();
        assert_eq!(scn.epsilon(), 0.5);
        assert_eq!(scn.scheduler(), &SchedulerSpec::Random { seed: 0, min: 1, max: 20 });
    }

    #[test]
    fn sweep_runs_and_reduces_over_the_seed_batch() {
        let report = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k4", generators::clique(4))
            .fault_bound(1)
            .placement("liar", |g, _| {
                vec![(NodeId::new(g.node_count() - 1), FaultKind::ConstantLiar { value: 1e6 })]
            })
            .seeds([7, 8])
            .build()
            .unwrap()
            .run();
        assert_eq!(report.rows.len(), 2);
        assert!(report.failures().is_empty());
        let row = report.get("bw/k4/f1/liar/s7").expect("labelled row");
        let summary = row.summary.as_ref().unwrap();
        assert!(summary.converged && summary.valid, "{summary:?}");
        assert!(summary.rounds_to_epsilon.is_some());
        assert!(row.wall_ns > 0.0);
        assert!(report.get("bw/k4/f1/liar/s8").is_some());

        let reduced = report.reduce();
        assert_eq!(reduced.cells.len(), 1);
        let cell = reduced.get("bw/k4/f1/liar").expect("group key drops the seed");
        assert_eq!(cell.seeds, vec![7, 8]);
        assert_eq!((cell.runs, cell.errors), (2, 0));
        assert_eq!((cell.converged, cell.valid, cell.all_decided), (2, 2, 2));
        assert_eq!(cell.wall_ns.n, 2);
        assert!(cell.wall_ns.mean > 0.0);
        assert!(cell.spread.max < 0.5);
    }

    #[test]
    fn invalid_cells_become_error_rows_without_poisoning_siblings() {
        // A placement naming a node outside K3 rejects that cell at build;
        // the K4 sibling still runs to convergence.
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .graph("k4", generators::clique(4))
            .faults("oob", vec![(NodeId::new(3), FaultKind::Crash)])
            .build()
            .unwrap();
        assert_eq!(sweep.cell_count(), 2);
        let bad = &sweep.cells()[0];
        assert_eq!(bad.error(), Some(&RunError::FaultOutsideGraph { node: 3, nodes: 3 }));
        assert!(bad.scenario().is_none());

        let report = sweep.run();
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].label, "bw/k3/f1/oob/s0");
        assert_eq!(
            failures[0].summary.as_ref().unwrap_err(),
            &RunError::FaultOutsideGraph { node: 3, nodes: 3 }
        );
        let ok = report.get("bw/k4/f1/oob/s0").unwrap();
        assert!(ok.summary.as_ref().unwrap().converged);

        // The reduced report counts the error row.
        let reduced = report.reduce();
        assert_eq!(reduced.cells.len(), 2);
        let bad = reduced.get("bw/k3/f1/oob").unwrap();
        assert_eq!((bad.runs, bad.errors), (1, 1));
        assert_eq!(bad.wall_ns.n, 0);
    }

    #[test]
    fn input_spec_generates_values_and_ranges() {
        let g = generators::clique(4);
        assert_eq!(InputSpec::indexed().values(&g), vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(InputSpec::indexed().range(&g), None);
        let fixed = InputSpec::fixed(vec![1.0, 2.0, 3.0, 4.0]).with_range(0.0, 9.0);
        assert_eq!(fixed.values(&g), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fixed.range(&g), Some((0.0, 9.0)));
        let per_graph = InputSpec::indexed().with_range_fn(|g| (0.0, (g.node_count() - 1) as f64));
        assert_eq!(per_graph.range(&g), Some((0.0, 3.0)));
    }

    #[test]
    fn scheduler_families_produce_the_expected_specs() {
        assert_eq!(SchedulerFamily::fixed(3).spec(9), SchedulerSpec::Fixed(3));
        assert_eq!(
            SchedulerFamily::random(1, 15).spec(5),
            SchedulerSpec::Random { seed: 5, min: 1, max: 15 }
        );
        assert_eq!(SchedulerFamily::legacy_random().spec(4), SchedulerSpec::legacy_random(4));
    }

    #[test]
    fn placements_may_capture_state() {
        // The closure captures the fault list — impossible with the old
        // bare-`fn` FaultPlacer alias.
        let planted = vec![(NodeId::new(2), FaultKind::Crash)];
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k4", generators::clique(4))
            .placement("captured", move |_, _| planted.clone())
            .build()
            .unwrap();
        let scn = sweep.cells()[0].scenario().unwrap();
        assert_eq!(scn.faults(), &[(NodeId::new(2), FaultKind::Crash)]);
    }

    #[test]
    fn bare_fns_still_feed_the_plan_through_the_closure_types() {
        // Bare `fn` items coerce into the closure-backed axis types, so
        // callers of the retired `FaultPlacer`/`InputsFn` aliases migrate
        // by deleting the type ascription.
        fn placer(_: &Digraph, _: usize) -> Vec<(NodeId, FaultKind)> {
            Vec::new()
        }
        fn inputs(g: &Digraph) -> Vec<f64> {
            vec![0.0; g.node_count()]
        }
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .placement("none2", placer)
            .inputs("zero", InputSpec::from_fn(inputs))
            .build()
            .unwrap();
        assert_eq!(sweep.cells()[0].scenario().unwrap().inputs(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn link_fault_axis_labels_cells_and_counts_drops() {
        let report = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k4", generators::clique(4))
            .fault_bound(0)
            .link_faults("clean", |_, _| None)
            .link_faults("lossy", |g: &Digraph, seed| {
                let mut plan = LinkFaultPlan::new(seed);
                for (from, to) in g.edges() {
                    plan = plan.fault(from, to, super::super::LinkFault::Drop { prob: 0.2 });
                }
                Some(plan)
            })
            .seeds([3, 4])
            .build()
            .unwrap()
            .run();
        assert_eq!(report.rows.len(), 4);
        assert!(report.failures().is_empty(), "{:?}", report.failures());

        let clean = report.get("bw/k4/f0/none/clean/s3").expect("clean cell labelled");
        assert_eq!(clean.coord("links"), Some("clean"));
        assert_eq!(clean.summary.as_ref().unwrap().messages_dropped, 0);

        let lossy = report.get("bw/k4/f0/none/lossy/s3").expect("lossy cell labelled");
        assert!(lossy.summary.as_ref().unwrap().messages_dropped > 0);

        // The drop counts ride the reducer.
        let reduced = report.reduce();
        let group = reduced.get("bw/k4/f0/none/lossy").expect("group drops the seed");
        assert_eq!(group.dropped.n, 2);
        assert!(group.dropped.mean > 0.0);
        assert_eq!(reduced.get("bw/k4/f0/none/clean").unwrap().dropped.max, 0.0);
    }

    #[test]
    fn stats_of_known_batch() {
        let s = Stats::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.min, s.max), (1.0, 4.0));
        assert!((s.stddev - (1.25f64).sqrt()).abs() < 1e-12);
        let odd = Stats::of([3.0, 1.0, 2.0]);
        assert_eq!(odd.median, 2.0);
        let empty = Stats::of([f64::NAN, f64::INFINITY]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn build_rejects_colliding_labels() {
        // Two distinct configurations under one protocol label would merge
        // silently in the reducer — build must refuse.
        let err = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .build()
            .unwrap_err();
        assert!(err.contains("duplicate protocol axis label 'bw'"), "{err}");

        // Numeric axes collide by formatted value.
        let err = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .epsilons([0.5, 0.5])
            .build()
            .unwrap_err();
        assert!(err.contains("duplicate epsilon axis label 'eps0.5'"), "{err}");

        let err = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .seeds([1, 1])
            .build()
            .unwrap_err();
        assert!(err.contains("duplicate seed axis label 's1'"), "{err}");

        // Cross-axis: empty fragments can compose two different points
        // into one full label — caught by the product-level guard.
        let err = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .placement("x", |_, _| Vec::new())
            .placement("", |_, _| Vec::new())
            .inputs("", InputSpec::indexed())
            .inputs("x", InputSpec::indexed())
            .build()
            .unwrap_err();
        assert!(err.contains("share the label"), "{err}");
    }

    #[test]
    fn runtime_timeout_sweeps_need_explicit_labels() {
        use std::time::Duration;
        // Auto-labels collide for two runtimes of the same kind…
        let err = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .runtime(Runtime::threaded(Duration::from_secs(30)))
            .runtime(Runtime::threaded(Duration::from_secs(60)))
            .build()
            .unwrap_err();
        assert!(err.contains("duplicate runtime axis label 'threaded'"), "{err}");

        // …while caller labels make the timeout sweep expressible.
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k3", generators::clique(3))
            .runtime_labelled("thr30", Runtime::threaded(Duration::from_secs(30)))
            .runtime_labelled("thr60", Runtime::threaded(Duration::from_secs(60)))
            .build()
            .unwrap();
        assert_eq!(sweep.cell_count(), 2);
        assert_eq!(sweep.cells()[0].coord("runtime"), Some("thr30"));
        assert_eq!(
            sweep.cells()[1].scenario().unwrap().runtime(),
            Runtime::threaded(Duration::from_secs(60))
        );
    }

    #[test]
    fn cells_share_one_graph_allocation() {
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .graph("k4", generators::clique(4))
            .seeds([1, 2, 3])
            .build()
            .unwrap();
        let graphs: Vec<*const Digraph> =
            sweep.cells().iter().map(|c| c.scenario().unwrap().graph() as *const _).collect();
        assert!(graphs.windows(2).all(|w| w[0] == w[1]), "expansion must not clone the graph");
    }

    #[test]
    fn build_requires_protocols_and_graphs() {
        assert!(ExperimentPlan::new().build().unwrap_err().contains("protocol"));
        assert!(ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .build()
            .unwrap_err()
            .contains("graph"));
    }
}
