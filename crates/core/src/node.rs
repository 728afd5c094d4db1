//! The honest protocol node: Algorithm BW driven over the runtime's
//! [`Process`] interface, across all asynchronous rounds.

use crate::config::ProtocolConfig;
use crate::fifo::{self, FifoReceiver};
use crate::flood;
use crate::message::{validate_complete, validate_flood, ProtocolMsg, Round};
use crate::precompute::Topology;
use crate::witness::{NodePlan, RoundAction, RoundCore, WitnessScratch};
use dbac_graph::{NodeId, NodeSet, PathId};
use dbac_sim::process::{Context, Process};
use dbac_sim::stats::{MsgClass, StatsHandle};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// An honest node executing Algorithm BW + Filter-and-Average for
/// `config.rounds` asynchronous rounds, then outputting `x[R]`.
///
/// The node keeps relaying (and keeps flooding late `COMPLETE` witnesses)
/// after its own output is fixed — peers' liveness depends on it.
pub struct HonestNode {
    topo: Arc<Topology>,
    plan: NodePlan,
    config: ProtocolConfig,
    me: NodeId,
    x: Vec<f64>,
    /// Per-round state, indexed by round (see [`round_slot`]).
    rounds: Vec<Option<RoundCore>>,
    fifo_counter: u64,
    fifo_rx: FifoReceiver,
    /// Keyed partly by the payload fingerprint (Byzantine-influenced), so
    /// this uses the seeded default hasher, not `FastHashSet`.
    seen_completes: HashSet<(PathId, u64, u64)>,
    /// The node's witness-progress tally (FRA marks, witness
    /// completions), drained into `live` after every activation.
    scratch: WitnessScratch,
    output: Option<f64>,
    /// Live-registry handle: protocol progress (rounds, MC firings,
    /// witness completions, FRA marks) is reported here as it happens.
    live: Option<StatsHandle>,
}

impl HonestNode {
    /// Creates a node with the given input value.
    #[must_use]
    pub fn new(topo: Arc<Topology>, config: ProtocolConfig, me: NodeId, input: f64) -> Self {
        let plan = NodePlan::new(&topo, me);
        HonestNode {
            topo,
            plan,
            config,
            me,
            x: vec![input],
            rounds: Vec::new(),
            fifo_counter: 0,
            fifo_rx: FifoReceiver::new(),
            seen_completes: HashSet::new(),
            scratch: WitnessScratch::new(),
            output: None,
            live: None,
        }
    }

    /// Attaches a live-registry handle; the node reports its protocol
    /// progress counters (rounds fired, MC firings, witness completions,
    /// FRA marks) through it. One handle per node — the handle's shard
    /// is written only from the thread running this node.
    #[must_use]
    pub fn with_stats(mut self, handle: StatsHandle) -> Self {
        self.live = Some(handle);
        self
    }

    /// Drains the scratch-accumulated witness counters into the live
    /// handle. Called after every externally-driven activation.
    fn drain_live(&mut self) {
        let Some(live) = &self.live else {
            self.scratch.fra_marks = 0;
            self.scratch.witness_completions = 0;
            return;
        };
        if self.scratch.fra_marks > 0 {
            live.add_fra_marks(self.scratch.fra_marks);
            self.scratch.fra_marks = 0;
        }
        if self.scratch.witness_completions > 0 {
            live.add_witness_completions(self.scratch.witness_completions);
            self.scratch.witness_completions = 0;
        }
    }

    /// The final output, once all rounds have completed.
    #[must_use]
    pub fn output(&self) -> Option<f64> {
        self.output
    }

    /// Returns `true` once the node has decided.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.output.is_some()
    }

    /// The state-value trajectory `x[0], x[1], …` (grows as rounds fire).
    #[must_use]
    pub fn x_history(&self) -> &[f64] {
        &self.x
    }

    /// The accumulated message history `M_v` for `round`, if the node
    /// holds any state for it — the inspection surface the adversarial
    /// regression tests pin message-set outcomes against.
    #[must_use]
    pub fn round_message_set(&self, round: Round) -> Option<&crate::message_set::MessageSet> {
        self.rounds.get(round as usize)?.as_ref().map(RoundCore::message_set)
    }

    fn begin_round(&mut self, round: Round, ctx: &mut Context<ProtocolMsg>) -> Vec<RoundAction> {
        let value = self.x[round as usize];
        for (to, msg) in flood::initial_flood(&self.topo, self.me, round, value) {
            ctx.send(to, msg);
        }
        let (topo, plan) = (&self.topo, &self.plan);
        let core =
            round_slot(&mut self.rounds, round).get_or_insert_with(|| RoundCore::new(topo, plan));
        core.start(value, topo, plan, &mut self.scratch)
    }

    fn execute(&mut self, ctx: &mut Context<ProtocolMsg>, round: Round, initial: Vec<RoundAction>) {
        let mut queue: VecDeque<(Round, RoundAction)> =
            initial.into_iter().map(|a| (round, a)).collect();
        while let Some((r, action)) = queue.pop_front() {
            match action {
                RoundAction::FloodComplete { guess, payload } => {
                    if let Some(live) = &self.live {
                        live.record_mc_firing();
                    }
                    self.fifo_counter += 1;
                    let seq = self.fifo_counter;
                    for (to, msg) in
                        fifo::initial_complete(&self.topo, self.me, r, guess, &payload, seq)
                    {
                        ctx.send(to, msg);
                    }
                    // Self-delivery over the trivial path (the node is its
                    // own witness: reach_v(F̄) always contains v).
                    let fp = payload.fingerprint();
                    let core =
                        self.rounds[r as usize].as_mut().expect("round exists when MC fires");
                    let acts = core.add_fifo_delivery(
                        self.me,
                        self.topo.index().trivial(self.me),
                        guess,
                        &payload,
                        fp,
                        &self.topo,
                        &self.plan,
                        &mut self.scratch,
                    );
                    queue.extend(acts.into_iter().map(|a| (r, a)));
                }
                RoundAction::Advance { outcome, .. } => {
                    if let Some(live) = &self.live {
                        live.record_round_fired();
                    }
                    debug_assert_eq!(self.x.len(), r as usize + 1, "rounds advance in order");
                    self.x.push(outcome.value);
                    let next = r + 1;
                    if next >= self.config.rounds {
                        self.output = Some(outcome.value);
                    } else {
                        let acts = self.begin_round(next, ctx);
                        queue.extend(acts.into_iter().map(|a| (next, a)));
                    }
                }
            }
        }
    }

    fn on_flood(
        &mut self,
        ctx: &mut Context<ProtocolMsg>,
        from: NodeId,
        round: Round,
        value: f64,
        path: PathId,
    ) {
        if round >= self.config.rounds || !value.is_finite() {
            return;
        }
        let Some(stored) = validate_flood(&self.topo, self.me, from, path) else {
            return;
        };
        let (topo, plan) = (&self.topo, &self.plan);
        let core =
            round_slot(&mut self.rounds, round).get_or_insert_with(|| RoundCore::new(topo, plan));
        let (fresh, actions) = core.add_flood(stored, value, topo, plan, &mut self.scratch);
        if !fresh {
            return;
        }
        for (to, msg) in flood::flood_forwards(&self.topo, self.me, round, value, stored) {
            ctx.send(to, msg);
        }
        self.execute(ctx, round, actions);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_complete(
        &mut self,
        ctx: &mut Context<ProtocolMsg>,
        from: NodeId,
        round: Round,
        suspects: NodeSet,
        payload: Arc<crate::message_set::CompletePayload>,
        path: PathId,
        seq: u64,
    ) {
        let universe = self.topo.graph().vertex_set();
        if round >= self.config.rounds
            || suspects.len() > self.topo.f()
            || !suspects.is_subset(universe)
        {
            return;
        }
        let Some(stored) = validate_complete(&self.topo, self.me, from, path, suspects, seq) else {
            return;
        };
        let fp = payload.fingerprint();
        if !self.seen_completes.insert((stored, seq, fp)) {
            return;
        }
        for (to, msg) in
            fifo::complete_forwards(&self.topo, self.me, round, suspects, &payload, stored, seq)
        {
            ctx.send(to, msg);
        }
        let initiator = self.topo.index().init(stored);
        let deliveries = self.fifo_rx.accept(stored, initiator, seq, round, suspects, payload);
        for d in deliveries {
            // Note: d.suspects may legitimately contain this node — another
            // node's winning guess can suspect us, and Theorem 10 needs us
            // to become informed about it all the same.
            if d.round >= self.config.rounds {
                continue;
            }
            let (topo, plan) = (&self.topo, &self.plan);
            let core = round_slot(&mut self.rounds, d.round)
                .get_or_insert_with(|| RoundCore::new(topo, plan));
            let actions = core.add_fifo_delivery(
                d.initiator,
                d.path,
                d.suspects,
                &d.payload,
                d.fingerprint,
                topo,
                plan,
                &mut self.scratch,
            );
            self.execute(ctx, d.round, actions);
        }
    }
}

/// The state slot of `round` in a node's round-indexed state, growing the
/// table on demand. Callers drop messages with `round ≥ rounds` first, so
/// the table never outgrows the configured round count.
pub(crate) fn round_slot<T>(rounds: &mut Vec<Option<T>>, round: Round) -> &mut Option<T> {
    let i = round as usize;
    if i >= rounds.len() {
        rounds.resize_with(i + 1, || None);
    }
    &mut rounds[i]
}

impl Process for HonestNode {
    type Message = ProtocolMsg;

    fn on_start(&mut self, ctx: &mut Context<ProtocolMsg>) {
        if self.config.rounds == 0 {
            // K < ε: the input already satisfies ε-agreement (Section 4.6).
            self.output = Some(self.x[0]);
            return;
        }
        let actions = self.begin_round(0, ctx);
        self.execute(ctx, 0, actions);
        self.drain_live();
    }

    fn on_message(&mut self, ctx: &mut Context<ProtocolMsg>, from: NodeId, msg: ProtocolMsg) {
        match msg {
            ProtocolMsg::Flood { round, value, path } => {
                self.on_flood(ctx, from, round, value, path);
            }
            ProtocolMsg::Complete { round, suspects, payload, path, seq } => {
                self.on_complete(ctx, from, round, suspects, payload, path, seq);
            }
        }
        self.drain_live();
    }

    fn classify(msg: &ProtocolMsg) -> MsgClass {
        match msg {
            ProtocolMsg::Flood { .. } => MsgClass::Flood,
            ProtocolMsg::Complete { .. } => MsgClass::Complete,
        }
    }
}

impl std::fmt::Debug for HonestNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HonestNode")
            .field("me", &self.me)
            .field("rounds_done", &(self.x.len() - 1))
            .field("output", &self.output)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use dbac_graph::{generators, PathBudget};
    use dbac_sim::scheduler::{FixedDelay, RandomDelay};
    use dbac_sim::sim::Simulation;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn run_clique(n: usize, f: usize, inputs: &[f64], epsilon: f64, seed: Option<u64>) -> Vec<f64> {
        let topo = Arc::new(
            Topology::new(
                generators::clique(n),
                f,
                crate::config::FloodMode::Redundant,
                PathBudget::default(),
            )
            .unwrap(),
        );
        let (lo, hi) = inputs.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let config = ProtocolConfig::new(f, epsilon, (lo, hi));
        let policy: Box<dyn dbac_sim::DeliveryPolicy + Send> = match seed {
            Some(s) => Box::new(RandomDelay::new(s, 1, 20)),
            None => Box::new(FixedDelay::new(1)),
        };
        let mut sim = Simulation::new(Arc::new(generators::clique(n)), policy);
        for (i, &input) in inputs.iter().enumerate() {
            sim.set_honest(id(i), HonestNode::new(Arc::clone(&topo), config, id(i), input));
        }
        sim.run().expect("quiesces");
        (0..n).map(|i| sim.honest(id(i)).unwrap().output().expect("node decided")).collect()
    }

    #[test]
    fn all_honest_clique_converges() {
        let outputs = run_clique(4, 1, &[0.0, 10.0, 4.0, 6.0], 0.5, None);
        let spread = outputs.iter().cloned().fold(f64::MIN, f64::max)
            - outputs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.5, "outputs {outputs:?} not within ε");
        // Validity: inside the honest input range.
        assert!(outputs.iter().all(|&v| (0.0..=10.0).contains(&v)));
    }

    #[test]
    fn all_honest_converges_under_random_schedules() {
        for seed in [1, 7, 99] {
            let outputs = run_clique(4, 1, &[1.0, 9.0, 3.0, 5.0], 1.0, Some(seed));
            let spread = outputs.iter().cloned().fold(f64::MIN, f64::max)
                - outputs.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread < 1.0, "seed {seed}: outputs {outputs:?}");
        }
    }

    #[test]
    fn zero_rounds_outputs_input() {
        // ε larger than the range: decide immediately.
        let outputs = run_clique(3, 0, &[1.0, 1.2, 1.1], 5.0, None);
        assert_eq!(outputs, vec![1.0, 1.2, 1.1]);
    }

    #[test]
    fn history_and_telemetry_are_recorded() {
        let topo = Arc::new(
            Topology::new(
                generators::clique(4),
                1,
                crate::config::FloodMode::Redundant,
                PathBudget::default(),
            )
            .unwrap(),
        );
        let config = ProtocolConfig::new(1, 0.5, (0.0, 8.0));
        let mut sim =
            Simulation::new(Arc::new(generators::clique(4)), Box::new(FixedDelay::new(1)));
        for (i, input) in [0.0, 8.0, 2.0, 6.0].into_iter().enumerate() {
            sim.set_honest(id(i), HonestNode::new(Arc::clone(&topo), config, id(i), input));
        }
        sim.run().unwrap();
        let node = sim.honest(id(0)).unwrap();
        assert_eq!(node.x_history().len() as u32, config.rounds + 1);
        assert!(node.is_done());
        assert!(format!("{node:?}").contains("output"));
    }

    #[test]
    fn forged_messages_are_rejected() {
        let topo = Arc::new(
            Topology::new(
                generators::clique(4),
                1,
                crate::config::FloodMode::Redundant,
                PathBudget::default(),
            )
            .unwrap(),
        );
        let config = ProtocolConfig::new(1, 0.5, (0.0, 8.0));
        let mut node = HonestNode::new(Arc::clone(&topo), config, id(0), 1.0);
        let mut ctx = dbac_sim::process::Context::new(id(0), topo.graph().out_neighbors(id(0)));
        node.on_start(&mut ctx);
        let _ = ctx.take_outbox();

        let path_23 =
            topo.index().resolve(&dbac_graph::Path::from_indices(&[2, 3]).unwrap()).unwrap();
        let trivial_1 = topo.index().trivial(id(1));
        let forgeries = vec![
            // Path does not end at the authenticated sender.
            ProtocolMsg::Flood { round: 0, value: 5.0, path: path_23 },
            // Round beyond the protocol horizon.
            ProtocolMsg::Flood { round: 999, value: 5.0, path: trivial_1 },
            // Non-finite value.
            ProtocolMsg::Flood { round: 0, value: f64::NAN, path: trivial_1 },
            // An id that interns nothing at all.
            ProtocolMsg::Flood { round: 0, value: 5.0, path: PathId::from_raw(u32::MAX - 1) },
        ];
        let stored = |node: &HonestNode| node.round_message_set(0).unwrap().len();
        let before = stored(&node);
        for msg in forgeries {
            node.on_message(&mut ctx, id(1), msg);
        }

        // Forged COMPLETE: suspect set larger than f.
        let payload = Arc::new(crate::message_set::CompletePayload::from_iter([]));
        let big: NodeSet = [id(2), id(3)].into_iter().collect();
        node.on_message(
            &mut ctx,
            id(1),
            ProtocolMsg::Complete { round: 0, suspects: big, payload, path: trivial_1, seq: 1 },
        );
        assert_eq!(stored(&node), before, "forgeries must not be stored");
        assert_eq!(ctx.pending(), 0, "forgeries must not be relayed");
    }

    #[test]
    fn future_round_messages_buffer_correctly() {
        // A node receiving round-2 floods before finishing round 0 must
        // buffer (and relay) them, then use them when it arrives there.
        let topo = Arc::new(
            Topology::new(
                generators::clique(4),
                1,
                crate::config::FloodMode::Redundant,
                PathBudget::default(),
            )
            .unwrap(),
        );
        let config = ProtocolConfig::new(1, 0.5, (0.0, 8.0));
        let mut node = HonestNode::new(Arc::clone(&topo), config, id(0), 1.0);
        let mut ctx = dbac_sim::process::Context::new(id(0), topo.graph().out_neighbors(id(0)));
        node.on_start(&mut ctx);
        let _ = ctx.take_outbox();
        node.on_message(
            &mut ctx,
            id(1),
            ProtocolMsg::Flood { round: 2, value: 5.0, path: topo.index().trivial(id(1)) },
        );
        assert_eq!(node.round_message_set(2).unwrap().len(), 1);
        assert!(ctx.pending() > 0, "future-round messages still relay");
        assert!(!node.is_done());
    }

    #[test]
    fn spread_halves_each_round() {
        // Lemma 15: U[r+1] − µ[r+1] ≤ (U[r] − µ[r]) / 2 across honest nodes.
        let topo = Arc::new(
            Topology::new(
                generators::clique(4),
                1,
                crate::config::FloodMode::Redundant,
                PathBudget::default(),
            )
            .unwrap(),
        );
        let config = ProtocolConfig::new(1, 0.25, (0.0, 16.0));
        let mut sim =
            Simulation::new(Arc::new(generators::clique(4)), Box::new(RandomDelay::new(5, 1, 30)));
        let inputs = [0.0, 16.0, 4.0, 12.0];
        for (i, input) in inputs.into_iter().enumerate() {
            sim.set_honest(id(i), HonestNode::new(Arc::clone(&topo), config, id(i), input));
        }
        sim.run().unwrap();
        let histories: Vec<&[f64]> =
            (0..4).map(|i| sim.honest(id(i)).unwrap().x_history()).collect();
        for r in 0..config.rounds as usize {
            let spread = |round: usize| {
                let vals: Vec<f64> = histories.iter().map(|h| h[round]).collect();
                vals.iter().cloned().fold(f64::MIN, f64::max)
                    - vals.iter().cloned().fold(f64::MAX, f64::min)
            };
            assert!(
                spread(r + 1) <= spread(r) / 2.0 + 1e-12,
                "round {r}: {} -> {}",
                spread(r),
                spread(r + 1)
            );
        }
    }
}
