//! The per-run precompute memo handed to
//! [`Protocol::execute`](super::Protocol::execute).
//!
//! Algorithm BW and the crash protocol start every run with a per-graph
//! precomputation ([`Topology::new`], [`CrashTopology::new`]): the
//! [`PathIndex`](dbac_graph::PathIndex) over the path population, and the
//! fault guesses with their reach sets. None of it depends on the inputs,
//! ε, faults, schedule, runtime or seed, so the cells of one
//! [`Sweep::run`](super::sweep::Sweep::run) that share a graph share one
//! build. A [`Precompute`] is created by each `Sweep::run` (and by each
//! [`Scenario::run`], a one-cell sweep) and dropped when it returns.

use super::Scenario;
use crate::config::FloodMode;
use crate::crash::CrashTopology;
use crate::error::RunError;
use crate::precompute::Topology;
use dbac_graph::{Digraph, PathBudget};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The precomputations one run shares between its cells; opaque, with no
/// settings.
///
/// Entries are keyed by graph identity (the scenario's shared
/// `Arc<Digraph>`, not its contents), the fault bound `f`, the protocol
/// and, for Algorithm BW, the flood mode. Each key is built at most once:
/// a second cell asking while the first builds waits for it, and a failed
/// build hands its [`RunError`] to every cell of the key.
#[derive(Default)]
pub struct Precompute {
    witness: Memo<(GraphKey, usize, FloodMode), Topology>,
    crash: Memo<(GraphKey, usize), CrashTopology>,
}

impl std::fmt::Debug for Precompute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Precompute").field("builds", &self.builds()).finish()
    }
}

impl Precompute {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Precompute::default()
    }

    /// Algorithm BW's [`Topology`] of `scenario`'s graph and fault bound
    /// under `mode`, built on first request.
    pub(crate) fn topology(
        &self,
        scenario: &Scenario,
        mode: FloodMode,
    ) -> Result<Arc<Topology>, RunError> {
        let key = (GraphKey(Arc::clone(&scenario.graph)), scenario.f, mode);
        self.witness.get_or_build(key, || {
            Ok(Topology::new(scenario.graph().clone(), scenario.f, mode, PathBudget::default())?)
        })
    }

    /// The crash protocol's [`CrashTopology`] of `scenario`'s graph and
    /// fault bound, built on first request.
    pub(crate) fn crash_topology(
        &self,
        scenario: &Scenario,
    ) -> Result<Arc<CrashTopology>, RunError> {
        let key = (GraphKey(Arc::clone(&scenario.graph)), scenario.f);
        self.crash.get_or_build(key, || {
            CrashTopology::new(scenario.graph().clone(), scenario.f, PathBudget::default())
        })
    }

    /// Builds run so far, failed ones included.
    pub(crate) fn builds(&self) -> usize {
        self.witness.builds.load(Ordering::Relaxed) + self.crash.builds.load(Ordering::Relaxed)
    }
}

/// A graph keyed by allocation. Holding the `Arc` keeps the address from
/// being reused by another graph while the entry lives.
struct GraphKey(Arc<Digraph>);

impl PartialEq for GraphKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for GraphKey {}

impl Hash for GraphKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.0).hash(state);
    }
}

/// One build per key: the map hands out the key's slot, and the slot's
/// `OnceLock` runs the build once while later callers wait for it.
struct Memo<K, T> {
    slots: Mutex<HashMap<K, Arc<Slot<T>>>>,
    builds: AtomicUsize,
}

type Slot<T> = OnceLock<Result<Arc<T>, RunError>>;

impl<K, T> Default for Memo<K, T> {
    fn default() -> Self {
        Memo { slots: Mutex::new(HashMap::new()), builds: AtomicUsize::new(0) }
    }
}

impl<K: Eq + Hash, T> Memo<K, T> {
    fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<T, RunError>,
    ) -> Result<Arc<T>, RunError> {
        // The map lock covers the lookup only; the build runs under the
        // slot's own lock, so builds of different keys proceed in parallel.
        let slot =
            Arc::clone(self.slots.lock().expect("memo map poisoned").entry(key).or_default());
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            build().map(Arc::new)
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::super::sweep::ExperimentPlan;
    use super::super::{ByzantineWitness, CrashTwoReach, Scenario};
    use super::*;
    use dbac_graph::generators;
    use dbac_graph::par::par_map;

    #[test]
    fn the_workload_shaped_plan_builds_one_precompute_per_key() {
        // bw + crash × K4, K5, 2K3 × 2 ε × 8 seeds at f = 0: 96 cells over
        // 2 protocols × 3 graphs.
        let sweep = ExperimentPlan::new()
            .protocol("bw", ByzantineWitness::default())
            .protocol("crash", CrashTwoReach::default())
            .graph("K4", generators::clique(4))
            .graph("K5", generators::clique(5))
            .graph("2K3", generators::two_cliques_bridged(3, &[(0, 0), (1, 1)], &[(1, 1), (2, 2)]))
            .fault_bound(0)
            .epsilons([1.0, 0.25])
            .seeds(1..=8)
            .build()
            .unwrap();
        assert_eq!(sweep.cell_count(), 96);
        let memo = Precompute::new();
        let report = sweep.run_with(&memo);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        assert_eq!(memo.builds(), 6);
    }

    #[test]
    fn cells_that_share_a_key_share_one_topology() {
        let k4 = Arc::new(generators::clique(4));
        let scenario = |graph: &Arc<Digraph>, f: usize, seed: u64| {
            Scenario::builder(Arc::clone(graph), f)
                .inputs(vec![0.0, 1.0, 2.0, 3.0])
                .seed(seed)
                .build()
                .unwrap()
        };
        let (a, b) = (scenario(&k4, 1, 1), scenario(&k4, 1, 2));
        let memo = Precompute::new();
        let redundant = FloodMode::Redundant;
        let first = memo.topology(&a, redundant).unwrap();
        assert!(Arc::ptr_eq(&first, &memo.topology(&b, redundant).unwrap()));
        assert!(Arc::ptr_eq(&memo.crash_topology(&a).unwrap(), &memo.crash_topology(&b).unwrap()));
        assert_eq!(memo.builds(), 2);

        // Another flood mode, another fault bound or an equal graph in
        // another allocation is another key.
        let simple = memo.topology(&a, FloodMode::SimpleOnly).unwrap();
        assert!(!Arc::ptr_eq(&first, &simple));
        let f0 = memo.topology(&scenario(&k4, 0, 1), redundant).unwrap();
        assert!(!Arc::ptr_eq(&first, &f0));
        let copy = Arc::new(generators::clique(4));
        assert!(!Arc::ptr_eq(&first, &memo.topology(&scenario(&copy, 1, 1), redundant).unwrap()));
        assert_eq!(memo.builds(), 5);
    }

    #[test]
    fn a_failed_build_hands_every_sharing_cell_the_same_error() {
        let memo: Memo<u8, u32> = Memo::default();
        let error = RunError::InvalidConfig { reason: "stub build failed".into() };
        let attempts = AtomicUsize::new(0);
        let results = par_map(&[0u8; 16], |_, &key| {
            memo.get_or_build(key, || {
                attempts.fetch_add(1, Ordering::Relaxed);
                Err(error.clone())
            })
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 1, "one build per key");
        assert_eq!(memo.builds.load(Ordering::Relaxed), 1);
        assert!(results.iter().all(|r| r.as_ref().unwrap_err() == &error));

        // Another key still builds, and succeeds.
        assert_eq!(*memo.get_or_build(1, || Ok(7)).unwrap(), 7);
        assert_eq!(memo.builds.load(Ordering::Relaxed), 2);
    }
}
