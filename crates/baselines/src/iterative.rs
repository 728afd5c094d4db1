//! Iterative approximate Byzantine consensus (the related-work family:
//! Vaidya–Tseng–Liang PODC 2012, LeBlanc et al. 2013).
//!
//! Nodes use only **local** filtering: each synchronous round, a node
//! receives its in-neighbors' values, discards up to `f` values larger
//! than its own and up to `f` values smaller than its own, and averages
//! the rest with its own value (the W-MSR rule). Correctness needs a
//! *robustness* property of the graph rather than 3-reach — experiment E10
//! exhibits graphs separating the two conditions.
//!
//! The `(r, s)`-robustness checker of LeBlanc–Zhang–Koutsoukos–Sundaram
//! (under the `f`-total malicious model W-MSR with parameter `f` is
//! correct iff the network is `(f+1, f+1)`-robust) now lives in
//! [`dbac_conditions::robustness`], next to the paper's own conditions
//! and the polynomial certificate machinery.

use dbac_graph::{Digraph, NodeId, NodeSet};
use serde::{Deserialize, Serialize};

/// Behaviour of a malicious node in the iterative protocol (the `f`-total
/// *malicious* model: a faulty node sends the same wrong value to all of
/// its out-neighbors).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum IterStrategy {
    /// Always sends `value`.
    Constant(f64),
    /// Sends `base + slope·round` — a drifting attack that tries to drag
    /// the network.
    Ramp {
        /// Initial value.
        base: f64,
        /// Per-round drift.
        slope: f64,
    },
    /// Sends nothing (crash).
    Silent,
}

impl IterStrategy {
    /// The value broadcast at `round`, or `None` when silent.
    #[must_use]
    pub fn value(self, round: usize) -> Option<f64> {
        match self {
            IterStrategy::Constant(v) => Some(v),
            IterStrategy::Ramp { base, slope } => Some(base + slope * round as f64),
            IterStrategy::Silent => None,
        }
    }
}

/// The trace of an iterative run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IterativeRun {
    /// `history[r][v]`: node `v`'s value entering round `r` (`NaN` for
    /// faulty nodes when silent).
    pub history: Vec<Vec<f64>>,
    /// The honest nodes.
    pub honest: NodeSet,
}

impl IterativeRun {
    /// Honest max − min at round `r`.
    #[must_use]
    pub fn spread_at(&self, r: usize) -> f64 {
        let vals = self.honest.iter().map(|v| self.history[r][v.index()]);
        let hi = vals.clone().fold(f64::NEG_INFINITY, f64::max);
        let lo = vals.fold(f64::INFINITY, f64::min);
        hi - lo
    }

    /// Final honest spread.
    #[must_use]
    pub fn final_spread(&self) -> f64 {
        self.spread_at(self.history.len() - 1)
    }

    /// Whether honest values stayed in the initial honest hull (validity).
    #[must_use]
    pub fn valid(&self) -> bool {
        let first = &self.history[0];
        let hi = self.honest.iter().map(|v| first[v.index()]).fold(f64::NEG_INFINITY, f64::max);
        let lo = self.honest.iter().map(|v| first[v.index()]).fold(f64::INFINITY, f64::min);
        self.history.iter().all(|row| {
            self.honest.iter().all(|v| row[v.index()] >= lo - 1e-9 && row[v.index()] <= hi + 1e-9)
        })
    }
}

/// One W-MSR update for a node holding `own`, given received values.
/// Delegates to the engine's in-place kernel
/// ([`crate::iterengine::wmsr_step_in_place`]) so the synchronous loop and
/// the message-passing engine share one set of semantics.
#[must_use]
pub fn wmsr_step(own: f64, mut received: Vec<f64>, f: usize) -> f64 {
    crate::iterengine::wmsr_step_in_place(own, &mut received, f)
}

/// The synchronous closed-form W-MSR loop: the *reference semantics* for
/// the message-passing [`crate::iterengine`]. With `f = 0` the engine's
/// trajectory is bit-identical to this loop on any runtime (the
/// differential tests pin that); with `f > 0` only the convergence and
/// validity properties are shared, since asynchronous firing order is
/// schedule-dependent.
///
/// # Panics
///
/// Panics if `inputs.len() != n` or a faulty node is listed twice.
pub fn iterate(
    g: &Digraph,
    f: usize,
    inputs: &[f64],
    faulty: &[(NodeId, IterStrategy)],
    rounds: usize,
) -> IterativeRun {
    let n = g.node_count();
    assert_eq!(inputs.len(), n, "one input per node");
    let mut strategies: Vec<Option<IterStrategy>> = vec![None; n];
    for &(v, s) in faulty {
        assert!(strategies[v.index()].is_none(), "faulty node listed twice");
        strategies[v.index()] = Some(s);
    }
    let honest: NodeSet = g.nodes().filter(|v| strategies[v.index()].is_none()).collect();
    let mut values = inputs.to_vec();
    let mut history = vec![values.clone()];
    for round in 0..rounds {
        let mut next = values.clone();
        for v in honest.iter() {
            let mut received = Vec::new();
            for u in g.in_neighbors(v).iter() {
                match strategies[u.index()] {
                    None => received.push(values[u.index()]),
                    Some(s) => {
                        if let Some(bad) = s.value(round) {
                            received.push(bad);
                        }
                    }
                }
            }
            next[v.index()] = wmsr_step(values[v.index()], received, f);
        }
        values = next;
        history.push(values.clone());
    }
    IterativeRun { history, honest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_conditions::robustness::is_r_s_robust;
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn wmsr_step_filters_extremes() {
        // own = 5, f = 1: the single large outlier and single small one go.
        let v = wmsr_step(5.0, vec![100.0, 4.0, 6.0, -50.0], 1);
        assert_eq!(v, (4.0 + 6.0 + 5.0) / 3.0);
        // Fewer extreme values than f: remove what exists.
        let v = wmsr_step(5.0, vec![7.0], 1);
        assert_eq!(v, 5.0, "the only larger value is removed, own remains");
    }

    #[test]
    fn honest_iteration_converges_on_clique() {
        let g = generators::clique(5);
        let run = iterate(&g, 1, &[0.0, 1.0, 2.0, 3.0, 4.0], &[], 40);
        assert!(run.final_spread() < 1e-6);
        assert!(run.valid());
    }

    #[test]
    fn malicious_constant_tolerated_on_robust_graph() {
        // K5 is (2,2)-robust: W-MSR with f=1 resists one malicious node.
        let g = generators::clique(5);
        assert!(is_r_s_robust(&g, 2, 2));
        let run = iterate(
            &g,
            1,
            &[0.0, 1.0, 2.0, 3.0, 999.0],
            &[(id(4), IterStrategy::Constant(999.0))],
            60,
        );
        assert!(run.final_spread() < 1e-6, "spread {}", run.final_spread());
        assert!(run.valid(), "dragged outside honest hull");
    }

    #[test]
    fn ramp_attack_on_robust_graph() {
        let g = generators::clique(5);
        let run = iterate(
            &g,
            1,
            &[0.0, 1.0, 2.0, 3.0, 0.0],
            &[(id(4), IterStrategy::Ramp { base: 0.0, slope: 10.0 })],
            60,
        );
        assert!(run.final_spread() < 1e-3);
        assert!(run.valid());
    }

    #[test]
    fn silent_fault_is_harmless() {
        let g = generators::clique(4);
        let run = iterate(&g, 1, &[0.0, 4.0, 8.0, 0.0], &[(id(3), IterStrategy::Silent)], 40);
        assert!(run.final_spread() < 1e-6);
        assert!(run.valid());
    }

    #[test]
    fn non_robust_graph_can_fail_to_converge() {
        // Directed cycle: one malicious node pins its successors apart.
        let g = generators::directed_cycle(6);
        assert!(!is_r_s_robust(&g, 2, 2));
        let run = iterate(
            &g,
            1,
            &[0.0, 0.0, 0.0, 10.0, 10.0, 10.0],
            &[(id(0), IterStrategy::Constant(0.0))],
            50,
        );
        // The spread must remain large: node 0 keeps feeding 0 into the
        // ring while honest nodes cannot filter it (every in-degree is 1).
        assert!(run.final_spread() > 1.0, "unexpectedly converged");
    }

    #[test]
    fn history_shape() {
        let g = generators::clique(3);
        let run = iterate(&g, 0, &[1.0, 2.0, 3.0], &[], 5);
        assert_eq!(run.history.len(), 6);
        assert_eq!(run.spread_at(0), 2.0);
    }
}
