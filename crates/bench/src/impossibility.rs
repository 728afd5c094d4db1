//! Executable Appendix B: the three-execution indistinguishability
//! construction proving 3-reach **necessary** (Theorem 18).
//!
//! On a graph violating 3-reach (witness `u, v, F, F_u, F_v`), take any
//! correct-looking algorithm that terminates — here the crash-tolerant
//! 2-reach protocol, a *bona fide* asynchronous approximate-consensus
//! algorithm against crash faults — and splice:
//!
//! * `e1`: all inputs 0, `F_v` crashed → validity forces `v` to output 0;
//! * `e2`: all inputs `K`, `F_u` crashed → `u` outputs `K`;
//! * `e3`: inputs 0 on `reach_v(F∪F_v)`, `K` on `reach_u(F∪F_u)`; the
//!   common set `F` is Byzantine and *replays* its `e1` messages toward
//!   `v`'s side and its `e2` messages toward `u`'s side; the edges
//!   `E(F_v, reach_v)` and `E(F_u, reach_u)` are delayed past every
//!   decision (the paper's bound `T`).
//!
//! Because `reach_v(F∪F_v)` receives messages only from itself, `F`
//! (replayed) and `F_v` (delayed), node `v`'s view in `e3` is *literally
//! identical* to `e1` — the replay checks this delivery-by-delivery
//! against the live nodes' actual sends — so `v` outputs 0 while `u`
//! outputs `K`: convergence is violated by the full input range.
//!
//! `e1` and `e2` are ordinary [`Scenario`] runs that record their delivery
//! [`Trace`]; `e3` is a [`Fleet`] of [`CrashNode`]s on both sides and
//! [`Silent`] elsewhere, [`Fleet::replay`]ing each trace into its side.

use dbac_conditions::kreach::{three_reach, ConditionOutcome, ReachViolation};
use dbac_conditions::reach::reach_set;
use dbac_core::crash::{CrashNode, CrashTopology};
use dbac_core::scenario::{CrashTwoReach, FaultKind, Scenario, SchedulerSpec, Trace};
use dbac_graph::{Digraph, NodeId, NodeSet, PathBudget};
use dbac_sim::process::Silent;
use dbac_sim::Fleet;
use std::sync::Arc;

/// The result of the spliced execution `e3`.
#[derive(Clone, Debug)]
pub struct SpliceReport {
    /// The witnessing violation of 3-reach.
    pub violation: ReachViolation,
    /// `reach_v(F ∪ F_v)` — the side that replays `e1`.
    pub side_v: NodeSet,
    /// `reach_u(F ∪ F_u)` — the side that replays `e2`.
    pub side_u: NodeSet,
    /// `v`'s output in `e1` (0 by validity) and in `e3` (identical).
    pub v_output: f64,
    /// `u`'s output in `e2` (`K` by validity) and in `e3` (identical).
    pub u_output: f64,
    /// Script deliveries verified against the live nodes' actual sends.
    pub live_matches: usize,
    /// Script deliveries synthesized by the two-faced `F` replay.
    pub synthesized: usize,
    /// The agreement parameter the splice violates.
    pub epsilon: f64,
}

impl SpliceReport {
    /// The headline: honest outputs `|v − u|` apart, exceeding ε.
    #[must_use]
    pub fn disagreement(&self) -> f64 {
        (self.v_output - self.u_output).abs()
    }

    /// Returns `true` if convergence was indeed violated.
    #[must_use]
    pub fn convergence_violated(&self) -> bool {
        self.disagreement() >= self.epsilon
    }
}

/// Runs the full three-execution construction on `graph` (which must
/// violate 3-reach for `f`), with input gap `k > epsilon`.
///
/// # Errors
///
/// Returns a description if the graph actually satisfies 3-reach, if a
/// reference execution fails to decide, or if the splice turns out
/// inconsistent (a live node's send did not match the recorded trace —
/// which would falsify the indistinguishability argument).
pub fn run_construction(
    graph: &Digraph,
    f: usize,
    k: f64,
    epsilon: f64,
) -> Result<SpliceReport, String> {
    let ConditionOutcome::Violated(violation) = three_reach(graph, f) else {
        return Err("graph satisfies 3-reach; the construction needs a violation".into());
    };
    let fv = violation.removed_v - violation.common;
    let fu = violation.removed_u - violation.common;
    let side_v = reach_set(graph, violation.v, violation.removed_v);
    let side_u = reach_set(graph, violation.u, violation.removed_u);
    debug_assert!(side_v.is_disjoint(side_u), "violation implies disjoint reach sets");

    let range = (0.0, k);
    // e1: all inputs 0, F_v crashed.
    let (trace1, out1) = reference_execution(graph, f, fv, 0.0, epsilon, range)?;
    let v_ref =
        out1[violation.v.index()].ok_or_else(|| format!("{} did not decide in e1", violation.v))?;
    // e2: all inputs k, F_u crashed.
    let (trace2, out2) = reference_execution(graph, f, fu, k, epsilon, range)?;
    let u_ref =
        out2[violation.u.index()].ok_or_else(|| format!("{} did not decide in e2", violation.u))?;

    // e3: a within-side delivery its honest sender never sent would
    // falsify the indistinguishability argument.
    let topo = Arc::new(
        CrashTopology::new(graph.clone(), f, PathBudget::default()).map_err(|e| e.to_string())?,
    );
    let mut fleet = Fleet::new(Arc::new(graph.clone()));
    for w in graph.nodes() {
        fleet.set_byzantine(w, Box::new(Silent));
    }
    for (side, input) in [(side_v, 0.0), (side_u, k)] {
        for w in side.iter() {
            fleet.set_honest(w, CrashNode::new(Arc::clone(&topo), w, input, epsilon, range));
        }
    }
    let script = trace1
        .deliveries
        .iter()
        .filter(|d| side_v.contains(d.to))
        .chain(trace2.deliveries.iter().filter(|d| side_u.contains(d.to)));
    let replay = fleet.replay(script).map_err(|e| format!("splice inconsistency: {e}"))?;
    let output = |w: NodeId| replay.nodes[w.index()].as_ref().and_then(CrashNode::output);
    let decided = |w| output(w).ok_or_else(|| format!("{w} did not decide in e3"));
    let (v_out, u_out) = (decided(violation.v)?, decided(violation.u)?);
    if (v_out - v_ref).abs() > 1e-12 || (u_out - u_ref).abs() > 1e-12 {
        return Err("e3 outputs differ from the reference executions".into());
    }
    Ok(SpliceReport {
        violation,
        side_v,
        side_u,
        v_output: v_out,
        u_output: u_out,
        live_matches: replay.matched,
        synthesized: replay.synthesized,
        epsilon,
    })
}

/// Runs one reference execution (`e1`/`e2`) of the crash protocol:
/// `silenced` crashed from the start, every node's input `input`, every
/// message delayed by one tick. Returns the recorded trace and the
/// per-node outputs.
fn reference_execution(
    graph: &Digraph,
    f: usize,
    silenced: NodeSet,
    input: f64,
    epsilon: f64,
    range: (f64, f64),
) -> Result<(Trace, Vec<Option<f64>>), String> {
    let out = Scenario::builder(graph.clone(), f)
        .inputs(vec![input; graph.node_count()])
        .range(range)
        .epsilon(epsilon)
        .scheduler(SchedulerSpec::Fixed(1))
        .faults(silenced.iter().map(|w| (w, FaultKind::Crash)))
        .record_trace(true)
        .protocol(CrashTwoReach::default())
        .run()
        .map_err(|e| e.to_string())?;
    Ok((out.trace.expect("recording requested"), out.outputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_conditions::kreach::two_reach;
    use dbac_graph::generators;

    #[test]
    fn k3_f1_splits_by_full_range() {
        // K3 satisfies 2-reach (the crash protocol terminates) but not
        // 3-reach for f = 1 — the minimal stage for Theorem 18.
        let g = generators::clique(3);
        assert!(two_reach(&g, 1).holds());
        let report = run_construction(&g, 1, 10.0, 1.0).expect("construction runs");
        assert!(report.convergence_violated());
        assert_eq!(report.disagreement(), 10.0, "split by the full range");
        assert!(report.side_v.is_disjoint(report.side_u));
        assert!(report.synthesized > 0, "the two-faced F must have acted");
    }

    #[test]
    fn rejects_three_reach_graphs() {
        let g = generators::clique(4);
        assert!(run_construction(&g, 1, 10.0, 1.0).is_err());
    }

    #[test]
    fn works_on_a_directed_violation() {
        // K3 plus a pendant receiver 3 fed by 0 and 1 (no edges out of 3):
        // 2-reach holds at f = 1, 3-reach does not.
        let g = Digraph::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (0, 3), (1, 3)],
        )
        .unwrap();
        assert!(two_reach(&g, 1).holds());
        assert!(!three_reach(&g, 1).holds());
        let report = run_construction(&g, 1, 8.0, 0.5).expect("construction runs");
        assert!(report.convergence_violated());
        assert_eq!(report.disagreement(), 8.0, "split by the full range");
    }
}
