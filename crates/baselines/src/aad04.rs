//! The **Abraham–Amit–Dolev (OPODIS 2004)** optimal-resilience
//! asynchronous approximate agreement algorithm for *complete* networks
//! (`n > 3f`) — the algorithm that the paper's BW generalizes to directed
//! networks.
//!
//! Reconstruction (per the paper's Section 2 description of \[1\]): each
//! round, a node reliably broadcasts its value, collects the first `n−f`
//! delivered values into a *report*, reliably broadcasts the report, and
//! waits for `n−f` **witnesses** — nodes whose report and all reported
//! values it has itself RBC-delivered. Any two honest nodes then share
//! `n−2f ≥ f+1` witnesses, hence at least one *honest* witness, whose
//! report both hold: the pooled, `f`-trimmed value sets overlap, and the
//! midpoint update halves the spread per round exactly as BW's
//! Filter-and-Average does.

use crate::reliable_broadcast::{RbcEngine, RbcMsg};
use dbac_core::config::num_rounds;
use dbac_graph::NodeId;
use dbac_sim::process::{Context, Process};
use std::collections::{BTreeMap, HashMap, HashSet};

#[cfg(test)]
use dbac_graph::generators;

/// RBC payloads exchanged by the algorithm.
///
/// Values are carried as ordered bit patterns so the payload is `Eq + Hash`
/// (RBC counts votes on payload identity).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AadPayload {
    /// A round's state value (`f64` bits).
    Value {
        /// Round index.
        round: u32,
        /// `f64::to_bits` of the value.
        bits: u64,
    },
    /// A round's report: the first `n−f` `(sender, value-bits)` pairs.
    Report {
        /// Round index.
        round: u32,
        /// The collected pairs, sorted by sender.
        entries: Vec<(NodeId, u64)>,
    },
}

/// Wire message: RBC transport of [`AadPayload`].
pub type AadMsg = RbcMsg<AadPayload>;

struct AadRound {
    values: BTreeMap<NodeId, u64>,
    reported: bool,
    reports: BTreeMap<NodeId, Vec<(NodeId, u64)>>,
    witnesses: HashSet<NodeId>,
    fired: bool,
}

impl AadRound {
    fn new() -> Self {
        AadRound {
            values: BTreeMap::new(),
            reported: false,
            reports: BTreeMap::new(),
            witnesses: HashSet::new(),
            fired: false,
        }
    }
}

/// An honest AAD04 node.
pub struct AadNode {
    me: NodeId,
    n: usize,
    f: usize,
    rounds_total: u32,
    rbc: RbcEngine<AadPayload>,
    x: Vec<f64>,
    rounds: HashMap<u32, AadRound>,
    output: Option<f64>,
    /// Messages sent (for the E9 message-complexity comparison).
    pub sent: u64,
}

impl AadNode {
    /// Creates a node with the given input.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f`.
    #[must_use]
    pub fn new(
        me: NodeId,
        n: usize,
        f: usize,
        input: f64,
        epsilon: f64,
        range: (f64, f64),
    ) -> Self {
        AadNode {
            me,
            n,
            f,
            rounds_total: num_rounds(range.1 - range.0, epsilon),
            rbc: RbcEngine::new(me, n, f),
            x: vec![input],
            rounds: HashMap::new(),
            output: None,
            sent: 0,
        }
    }

    /// The decided output, once available.
    #[must_use]
    pub fn output(&self) -> Option<f64> {
        self.output
    }

    /// The state trajectory.
    #[must_use]
    pub fn x_history(&self) -> &[f64] {
        &self.x
    }

    /// Returns `true` once decided.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.output.is_some()
    }

    /// Overrides the round count derived from ε and the range (used by the
    /// scenario layer's `rounds` knob).
    #[must_use]
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds_total = rounds;
        self
    }

    fn rbc_send(&mut self, ctx: &mut Context<AadMsg>, msg: AadMsg) {
        // RBC messages go to everyone; self-processing is immediate.
        for w in ctx.out_neighbors().iter() {
            self.sent += 1;
            ctx.send(w, msg.clone());
        }
        self.handle_rbc(ctx, self.me, msg);
    }

    fn begin_round(&mut self, ctx: &mut Context<AadMsg>, round: u32) {
        let bits = self.x[round as usize].to_bits();
        let (_, init) = self.rbc.broadcast(AadPayload::Value { round, bits });
        self.rounds.entry(round).or_insert_with(AadRound::new);
        self.rbc_send(ctx, init);
    }

    fn handle_rbc(&mut self, ctx: &mut Context<AadMsg>, from: NodeId, msg: AadMsg) {
        let (outs, deliveries) = self.rbc.on_message(from, msg);
        for m in outs {
            for w in ctx.out_neighbors().iter() {
                self.sent += 1;
                ctx.send(w, m.clone());
            }
            // Feed our own sends back into the local engine (a node is a
            // participant in its own broadcasts).
            self.handle_rbc(ctx, self.me, m);
        }
        for d in deliveries {
            match d.payload {
                AadPayload::Value { round, bits } => self.on_value(ctx, round, d.origin, bits),
                AadPayload::Report { round, entries } => {
                    self.on_report(ctx, round, d.origin, entries);
                }
            }
        }
    }

    fn on_value(&mut self, ctx: &mut Context<AadMsg>, round: u32, sender: NodeId, bits: u64) {
        if round >= self.rounds_total {
            return;
        }
        let state = self.rounds.entry(round).or_insert_with(AadRound::new);
        state.values.entry(sender).or_insert(bits);
        self.refresh(ctx, round);
    }

    fn on_report(
        &mut self,
        ctx: &mut Context<AadMsg>,
        round: u32,
        sender: NodeId,
        entries: Vec<(NodeId, u64)>,
    ) {
        if round >= self.rounds_total || entries.len() != self.n - self.f {
            return;
        }
        let state = self.rounds.entry(round).or_insert_with(AadRound::new);
        state.reports.entry(sender).or_insert(entries);
        self.refresh(ctx, round);
    }

    /// Re-evaluates report emission, witness sets and round completion.
    fn refresh(&mut self, ctx: &mut Context<AadMsg>, round: u32) {
        // Borrow-friendly staging: compute decisions, then act.
        let (emit_report, advance): (Option<Vec<(NodeId, u64)>>, Option<f64>) = {
            let state = self.rounds.get_mut(&round).expect("state exists");
            let emit = if !state.reported && state.values.len() >= self.n - self.f {
                state.reported = true;
                Some(state.values.iter().take(self.n - self.f).map(|(&s, &b)| (s, b)).collect())
            } else {
                None
            };
            // Witness check: u is a witness if we hold u's report and every
            // reported (sender, value) pair matches our delivered values.
            for (&u, entries) in &state.reports {
                if state.witnesses.contains(&u) {
                    continue;
                }
                let confirmed =
                    entries.iter().all(|(s, b)| state.values.get(s).is_some_and(|mine| mine == b));
                if confirmed {
                    state.witnesses.insert(u);
                }
            }
            let advance = if !state.fired && state.witnesses.len() >= self.n - self.f {
                state.fired = true;
                // Pool all witnessed reports' values, dedup per sender
                // (RBC gives one value per sender), trim f per side.
                let mut pool: BTreeMap<NodeId, u64> = BTreeMap::new();
                for u in &state.witnesses {
                    if let Some(entries) = state.reports.get(u) {
                        for &(s, b) in entries {
                            pool.entry(s).or_insert(b);
                        }
                    }
                }
                let mut vals: Vec<f64> = pool.values().map(|&b| f64::from_bits(b)).collect();
                vals.sort_by(f64::total_cmp);
                let kept = &vals[self.f..vals.len() - self.f];
                Some((kept[0] + kept[kept.len() - 1]) / 2.0)
            } else {
                None
            };
            (emit, advance)
        };
        if let Some(entries) = emit_report {
            let (_, init) = self.rbc.broadcast(AadPayload::Report { round, entries });
            self.rbc_send(ctx, init);
        }
        if let Some(next) = advance {
            self.x.push(next);
            let next_round = round + 1;
            if next_round >= self.rounds_total {
                self.output = Some(next);
            } else {
                self.begin_round(ctx, next_round);
            }
        }
    }
}

impl Process for AadNode {
    type Message = AadMsg;

    fn on_start(&mut self, ctx: &mut Context<AadMsg>) {
        if self.rounds_total == 0 {
            self.output = Some(self.x[0]);
            return;
        }
        self.begin_round(ctx, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<AadMsg>, from: NodeId, msg: AadMsg) {
        self.handle_rbc(ctx, from, msg);
    }

    fn classify(_msg: &AadMsg) -> dbac_sim::stats::MsgClass {
        dbac_sim::stats::MsgClass::Aad
    }
}

impl std::fmt::Debug for AadNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AadNode").field("me", &self.me).field("output", &self.output).finish()
    }
}

/// A liar that follows the protocol with a planted extreme value — RBC
/// prevents equivocation, so this is the strongest "value attack".
pub(crate) struct LiarAdversary {
    inner: AadNode,
}

impl LiarAdversary {
    /// Wraps a fully-configured node (input = the planted value); rounds
    /// must match the honest nodes' so the liar stays live to the end.
    pub(crate) fn from_node(inner: AadNode) -> Self {
        LiarAdversary { inner }
    }
}

impl dbac_sim::process::Adversary<AadMsg> for LiarAdversary {
    fn on_start(&mut self, ctx: &mut Context<AadMsg>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<AadMsg>, from: NodeId, msg: AadMsg) {
        self.inner.on_message(ctx, from, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_core::error::RunError;
    use dbac_core::scenario::{FaultKind, Outcome, Scenario, SchedulerSpec};

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// The historical AAD04 run shape on the scenario surface: a complete
    /// `n`-node network under the legacy `[1, 15]` random schedule.
    fn run_aad(
        n: usize,
        f: usize,
        inputs: &[f64],
        epsilon: f64,
        byzantine: &[(NodeId, FaultKind)],
        seed: u64,
    ) -> Result<Outcome, RunError> {
        Scenario::builder(generators::clique(n), f)
            .inputs(inputs.to_vec())
            .epsilon(epsilon)
            .faults(byzantine.iter().cloned())
            .scheduler(SchedulerSpec::legacy_random(seed))
            .protocol(crate::scenario::Aad04)
            .run()
    }

    #[test]
    fn all_honest_converges() {
        let out = run_aad(4, 1, &[0.0, 10.0, 4.0, 6.0], 0.5, &[], 3).unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
        assert!(out.honest_messages.unwrap() > 0);
    }

    #[test]
    fn tolerates_crash() {
        let out =
            run_aad(4, 1, &[0.0, 10.0, 4.0, 0.0], 0.5, &[(id(3), FaultKind::Crash)], 9).unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
    }

    #[test]
    fn liar_cannot_break_validity() {
        let out = run_aad(
            4,
            1,
            &[2.0, 4.0, 6.0, 0.0],
            0.5,
            &[(id(3), FaultKind::ConstantLiar { value: 1e9 })],
            5,
        )
        .unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid(), "{:?}", out.outputs);
    }

    #[test]
    fn larger_network_with_two_faults() {
        let inputs: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let out = run_aad(
            7,
            2,
            &inputs,
            0.5,
            &[(id(5), FaultKind::Crash), (id(6), FaultKind::ConstantLiar { value: -1e6 })],
            11,
        )
        .unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
    }

    #[test]
    fn resilience_bound_is_typed() {
        let err = run_aad(3, 1, &[0.0; 3], 0.5, &[], 0).unwrap_err();
        assert_eq!(
            err,
            RunError::ResilienceExceeded { protocol: "aad04", n: 3, f: 1, requires: "n > 3f" }
        );
    }
}
