//! Asynchronous **crash**-tolerant approximate consensus under the
//! 2-reach condition (the upper-left asynchronous cell of the paper's
//! Table 2, due to Tseng & Vaidya 2012).
//!
//! A reconstruction (the paper cites this cell in Section 2 without
//! restating its algorithm): with crash faults nobody lies, so redundant
//! paths, witnesses and trimming are all unnecessary. Each round a node
//! floods its value along **simple** paths; one thread per guess `F_v`
//! waits for fullness over the paths avoiding `F_v`; the first full thread
//! updates to the midpoint of *all* values received this round.
//!
//! Correctness sketch: every received value is a genuine round-`r` state
//! value (validity); under 2-reach any two nodes' fired reach sets share an
//! influencer `z`, and both nodes' min/max brackets `x_z[r]`, so midpoints
//! are within half the previous spread (convergence halves per round, as
//! in Lemma 15).
//!
//! Paths are interned: the simple-path population is generated once into a
//! [`PathIndex`], wire messages carry dense [`PathId`]s, per-round value
//! maps are the columnar [`MessageSet`], and the per-guess fullness
//! requirements are popcounts over the index's terminal/member masks — the
//! same hot-path treatment the BW stack received.

use crate::config::num_rounds;
use crate::error::RunError;
use crate::message_set::MessageSet;
use crate::node::round_slot;
use dbac_graph::subsets::SubsetsUpTo;
use dbac_graph::{Digraph, NodeId, NodeSet, PathBudget, PathId, PathIndex};
use dbac_sim::process::{Adversary, Context, Process};
use std::sync::Arc;

/// Wire message of the crash-tolerant protocol: a value flooded along a
/// simple path (the path ends at the sender, as an interned id).
#[derive(Clone, Debug, PartialEq)]
pub struct CrashMsg {
    /// Asynchronous round.
    pub round: u32,
    /// The flooded state value.
    pub value: f64,
    /// Propagation path so far (interned; ends at the sender).
    pub path: PathId,
}

/// Shared precomputation for the crash protocol.
#[derive(Debug)]
pub struct CrashTopology {
    graph: Digraph,
    f: usize,
    /// The interned simple-path population.
    index: PathIndex,
    guesses: Vec<NodeSet>,
}

impl CrashTopology {
    /// Precomputes the interned simple-path population and fault guesses.
    ///
    /// # Errors
    ///
    /// Returns the path-budget error if more than `budget.max_paths`
    /// simple paths end at some node.
    pub fn new(graph: Digraph, f: usize, budget: PathBudget) -> Result<Self, RunError> {
        let index = PathIndex::simple(&graph, budget)?;
        let guesses = SubsetsUpTo::new(graph.vertex_set(), f).collect();
        Ok(CrashTopology { graph, f, index, guesses })
    }

    /// The network.
    #[must_use]
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// The fault bound.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// The interned simple-path population.
    #[must_use]
    pub fn index(&self) -> &PathIndex {
        &self.index
    }
}

struct CrashRound {
    started: bool,
    fired: bool,
    values: MessageSet,
    /// Per guess: required simple paths avoiding the guess not yet seen.
    remaining: Vec<usize>,
}

/// An honest node of the crash-tolerant protocol.
pub struct CrashNode {
    topo: Arc<CrashTopology>,
    me: NodeId,
    rounds_total: u32,
    x: Vec<f64>,
    /// Per-round state, indexed by round (see [`round_slot`]).
    rounds: Vec<Option<CrashRound>>,
    my_guesses: Vec<NodeSet>,
    /// Per-guess requirement census, computed once from the index masks
    /// and cloned (one memcpy) into every round instead of re-running the
    /// popcount scans per round.
    census: Vec<usize>,
    output: Option<f64>,
}

impl CrashNode {
    /// Creates a node with the given input, running enough rounds for
    /// ε-agreement over the a-priori range.
    #[must_use]
    pub fn new(
        topo: Arc<CrashTopology>,
        me: NodeId,
        input: f64,
        epsilon: f64,
        range: (f64, f64),
    ) -> Self {
        let my_guesses: Vec<NodeSet> =
            topo.guesses.iter().filter(|g| !g.contains(me)).copied().collect();
        let census = my_guesses.iter().map(|&g| topo.index.required_count(g, me)).collect();
        CrashNode {
            topo,
            me,
            rounds_total: num_rounds(range.1 - range.0, epsilon),
            x: vec![input],
            rounds: Vec::new(),
            my_guesses,
            census,
            output: None,
        }
    }

    /// Overrides the round count derived from ε and the range (used by the
    /// scenario layer's `rounds` knob).
    #[must_use]
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds_total = rounds;
        self
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

    fn begin_round(&mut self, round: u32, ctx: &mut Context<CrashMsg>) {
        let value = self.x[round as usize];
        let path = self.topo.index.trivial(self.me);
        for w in ctx.out_neighbors().iter() {
            ctx.send(w, CrashMsg { round, value, path });
        }
        self.record(round, path, value, ctx);
    }

    fn record(&mut self, round: u32, stored: PathId, value: f64, ctx: &mut Context<CrashMsg>) {
        let index = &self.topo.index;
        // The round opens at its first recorded path (the node's own, or
        // an early arrival). Every stored path ends at `me`, so the history
        // covers `me`'s id block only; the per-guess requirement counts are
        // the node-lifetime census, cloned.
        let core = round_slot(&mut self.rounds, round).get_or_insert_with(|| CrashRound {
            started: false,
            fired: false,
            values: MessageSet::for_block(index.terminal_word_range(self.me)),
            remaining: self.census.clone(),
        });
        if !core.values.insert(stored, value) {
            return;
        }
        if stored == index.trivial(self.me) {
            core.started = true;
        }
        let node_set = index.node_set(stored);
        let mut fire = false;
        for (i, guess) in self.my_guesses.iter().enumerate() {
            if node_set.is_disjoint(*guess) {
                core.remaining[i] -= 1;
                if core.remaining[i] == 0 && core.started && !core.fired {
                    fire = true;
                }
            }
        }
        if fire && !core.fired {
            core.fired = true;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, v) in core.values.iter() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let next = (lo + hi) / 2.0;
            self.x.push(next);
            let next_round = round + 1;
            if next_round >= self.rounds_total {
                self.output = Some(next);
            } else {
                self.begin_round(next_round, ctx);
            }
        }
    }
}

impl Process for CrashNode {
    type Message = CrashMsg;

    fn on_start(&mut self, ctx: &mut Context<CrashMsg>) {
        if self.rounds_total == 0 {
            self.output = Some(self.x[0]);
            return;
        }
        self.begin_round(0, ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<CrashMsg>, from: NodeId, msg: CrashMsg) {
        if msg.round >= self.rounds_total {
            return;
        }
        // Validate and extend, as in the BW flood but simple-paths only:
        // the population holds exactly the simple paths, so an unknown id
        // or a missing forwarding-table entry is a forged or inadmissible
        // message. All O(1), as in `validate_flood`.
        let index = &self.topo.index;
        if !index.contains_id(msg.path) || index.ter(msg.path) != from {
            return;
        }
        let Some(stored) = index.extend(msg.path, self.me) else {
            return;
        };
        let already = self
            .rounds
            .get(msg.round as usize)
            .and_then(Option::as_ref)
            .is_some_and(|c| c.values.contains_path(stored));
        if already {
            return;
        }
        // Relay first (the relay set does not depend on our round state).
        for w in ctx.out_neighbors().iter() {
            if index.extend(stored, w).is_some() {
                ctx.send(w, CrashMsg { round: msg.round, value: msg.value, path: stored });
            }
        }
        self.record(msg.round, stored, msg.value, ctx);
    }

    fn classify(_msg: &CrashMsg) -> dbac_sim::stats::MsgClass {
        dbac_sim::stats::MsgClass::Crash
    }
}

impl std::fmt::Debug for CrashNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashNode").field("me", &self.me).field("output", &self.output).finish()
    }
}

/// A node that behaves honestly for its first `budget` sends, then crashes
/// — the classic mid-protocol crash fault.
pub struct CrashAfter {
    inner: CrashNode,
    budget: usize,
}

impl CrashAfter {
    /// Wraps an honest crash-protocol node that dies after `budget` sends.
    #[must_use]
    pub fn new(inner: CrashNode, budget: usize) -> Self {
        CrashAfter { inner, budget }
    }
}

impl Adversary<CrashMsg> for CrashAfter {
    fn on_start(&mut self, ctx: &mut Context<CrashMsg>) {
        if self.budget == 0 {
            return;
        }
        self.inner.on_start(ctx);
        self.truncate(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<CrashMsg>, from: NodeId, msg: CrashMsg) {
        if self.budget == 0 {
            return;
        }
        self.inner.on_message(ctx, from, msg);
        self.truncate(ctx);
    }
}

impl CrashAfter {
    fn truncate(&mut self, ctx: &mut Context<CrashMsg>) {
        let mut sends = ctx.take_outbox();
        if sends.len() > self.budget {
            sends.truncate(self.budget);
        }
        self.budget -= sends.len();
        for (to, msg) in sends {
            ctx.send(to, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CrashTwoReach, FaultKind, Outcome, Scenario, SchedulerSpec};
    use dbac_conditions::kreach::two_reach;
    use dbac_graph::generators;
    use dbac_graph::paths::simple_paths_ending_at;
    use dbac_graph::Path;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// The historical crash-consensus shape on the scenario surface: the
    /// a-priori range covers every input (crashed nodes are honest until
    /// they die), `crashed` maps nodes to their send budget.
    fn run_crash(
        graph: Digraph,
        f: usize,
        inputs: &[f64],
        epsilon: f64,
        crashed: &[(NodeId, usize)],
        seed: u64,
    ) -> Result<Outcome, RunError> {
        let range = inputs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        Scenario::builder(graph, f)
            .inputs(inputs.to_vec())
            .epsilon(epsilon)
            .range(range)
            .faults(crashed.iter().map(|&(v, sends)| (v, FaultKind::CrashAfter { sends })))
            .scheduler(SchedulerSpec::legacy_random(seed))
            .protocol(CrashTwoReach::default())
            .run()
    }

    #[test]
    fn all_honest_clique_converges() {
        let out = run_crash(generators::clique(3), 1, &[0.0, 6.0, 3.0], 0.5, &[], 1).unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
    }

    #[test]
    fn tolerates_immediate_crash() {
        // K3 satisfies 2-reach for f = 1 (n > 2f).
        let g = generators::clique(3);
        assert!(two_reach(&g, 1).holds());
        let out = run_crash(g, 1, &[0.0, 6.0, 100.0], 0.5, &[(id(2), 0)], 7).unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
        assert!(out.outputs[2].is_none());
    }

    #[test]
    fn tolerates_mid_protocol_crash() {
        for budget in [1, 3, 10, 50] {
            let out = run_crash(
                generators::clique(4),
                1,
                &[0.0, 8.0, 4.0, 2.0],
                0.5,
                &[(id(1), budget)],
                budget as u64,
            )
            .unwrap();
            assert!(out.converged(), "budget {budget}: {:?}", out.outputs);
            assert!(out.valid(), "budget {budget}");
        }
    }

    #[test]
    fn works_on_directed_two_reach_graph() {
        // figure_1b_small satisfies 3-reach ⊃ 2-reach for f = 1.
        let g = generators::figure_1b_small();
        assert!(two_reach(&g, 1).holds());
        let inputs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let out = run_crash(g, 1, &inputs, 0.5, &[(id(5), 4)], 3).unwrap();
        assert!(out.converged(), "{:?}", out.outputs);
        assert!(out.valid());
    }

    /// Regression for the PathId re-keying: the per-round value map (now
    /// the columnar [`MessageSet`]) and the per-guess requirement census
    /// (now mask popcounts) must match the original owned-`Path` design
    /// exactly — same census, same dedup, same fire point, same relays.
    #[test]
    fn rekeying_preserves_census_dedup_and_fire_point() {
        let g = generators::clique(3);
        let topo = Arc::new(CrashTopology::new(g.clone(), 1, PathBudget::default()).unwrap());
        let index = topo.index();
        let me = id(0);
        // Owned-path model of the requirement census (the old design).
        let pool = simple_paths_ending_at(&g, me, NodeSet::EMPTY, PathBudget::default()).unwrap();

        let mut node = CrashNode::new(Arc::clone(&topo), me, 5.0, 0.5, (0.0, 8.0));
        let mut ctx = Context::new(me, g.out_neighbors(me));
        node.on_start(&mut ctx);
        let _ = ctx.take_outbox();
        {
            let round0 = node.rounds[0].as_ref().unwrap();
            assert!(round0.started);
            // ⟨0⟩ recorded; each guess still awaits its avoiding pool.
            for (i, guess) in node.my_guesses.iter().enumerate() {
                let census = pool.iter().filter(|p| !p.intersects(*guess)).count();
                assert_eq!(round0.remaining[i], census - 1, "guess {guess:?}");
            }
        }

        // Wire ⟨1,2⟩ from 2 → stored ⟨1,2,0⟩: meets both singleton guesses,
        // so only the ∅-guess counter moves — no fire, and no relay (every
        // extension of ⟨1,2,0⟩ repeats a node).
        let wire_12 = index.resolve(&Path::from_indices(&[1, 2]).unwrap()).unwrap();
        let stored_120 = index.resolve(&Path::from_indices(&[1, 2, 0]).unwrap()).unwrap();
        node.on_message(&mut ctx, id(2), CrashMsg { round: 0, value: 3.0, path: wire_12 });
        assert_eq!(ctx.pending(), 0, "⟨1,2,0⟩ has no simple extension in K3");
        assert!(!node.rounds[0].as_ref().unwrap().fired);

        // Exact duplicate: no relay, no re-record, first value wins.
        node.on_message(&mut ctx, id(2), CrashMsg { round: 0, value: 9.0, path: wire_12 });
        assert_eq!(ctx.pending(), 0, "duplicates must not relay");
        let round0 = node.rounds[0].as_ref().unwrap();
        assert_eq!(round0.values.value_on_path(stored_120), Some(3.0), "first value wins");
        assert_eq!(round0.values.len(), 2);

        // Wire ⟨1⟩ from 1 → stored ⟨1,0⟩ completes guess {2} (census
        // {⟨0⟩, ⟨1,0⟩}): relay ⟨1,0⟩‖2, then fire — exactly where the
        // owned-path census predicts — which begins round 1's own flood.
        let wire_1 = index.resolve(&Path::from_indices(&[1]).unwrap()).unwrap();
        let stored_10 = index.resolve(&Path::from_indices(&[1, 0]).unwrap()).unwrap();
        node.on_message(&mut ctx, id(1), CrashMsg { round: 0, value: 1.0, path: wire_1 });
        let sends = ctx.take_outbox();
        assert!(
            sends.iter().any(|(to, m)| *to == id(2) && m.round == 0 && m.path == stored_10),
            "relay carries the stored id"
        );
        assert!(sends.iter().all(|(_, m)| m.round == 0 || m.path == index.trivial(me)));
        let round0 = node.rounds[0].as_ref().unwrap();
        assert!(round0.fired);
        assert_eq!(node.x_history()[1], (1.0 + 5.0) / 2.0, "midpoint of all round values");

        // Every recorded id is the id of a path in the owned-path pool.
        let pool_ids: Vec<PathId> = pool.iter().map(|q| index.resolve(q).unwrap()).collect();
        for (p, _) in node.rounds[0].as_ref().unwrap().values.iter() {
            assert!(pool_ids.contains(&p), "{p} outside the simple pool");
        }
    }

    #[test]
    fn forged_crash_paths_are_dropped() {
        // Ids outside the population, wrong-terminal paths, and extensions
        // that leave the simple class are all rejected at the boundary.
        let g = generators::clique(3);
        let topo = Arc::new(CrashTopology::new(g.clone(), 1, PathBudget::default()).unwrap());
        let index = topo.index();
        let mut node = CrashNode::new(Arc::clone(&topo), id(0), 5.0, 0.5, (0.0, 8.0));
        let mut ctx = Context::new(id(0), g.out_neighbors(id(0)));
        node.on_start(&mut ctx);
        let _ = ctx.take_outbox();
        let before = node.rounds[0].as_ref().unwrap().values.len();

        // Unknown id.
        node.on_message(
            &mut ctx,
            id(1),
            CrashMsg { round: 0, value: 1.0, path: PathId::from_raw(u32::MAX - 1) },
        );
        // Path not ending at the authenticated sender.
        let wire_2 = index.resolve(&Path::from_indices(&[2]).unwrap()).unwrap();
        node.on_message(&mut ctx, id(1), CrashMsg { round: 0, value: 1.0, path: wire_2 });
        // Extension would repeat `me`: ⟨0,1⟩ from 1 extends to ⟨0,1,0⟩.
        let wire_01 = index.resolve(&Path::from_indices(&[0, 1]).unwrap()).unwrap();
        node.on_message(&mut ctx, id(1), CrashMsg { round: 0, value: 1.0, path: wire_01 });

        assert_eq!(ctx.pending(), 0, "forgeries must not relay");
        assert_eq!(node.rounds[0].as_ref().unwrap().values.len(), before);
    }

    #[test]
    fn round_history_stays_in_the_nodes_block() {
        // K5: 65 simple paths per terminal, so node 0's block and node 4's
        // block lie in different id words.
        let g = generators::clique(5);
        let topo = Arc::new(CrashTopology::new(g.clone(), 1, PathBudget::default()).unwrap());
        let index = topo.index();
        let block = index.terminal_word_range(id(0));
        let foreign = index.trivial(id(4));
        assert!(!block.contains(&(foreign.index() / 64)), "node 4's ids lie past node 0's words");

        let mut node = CrashNode::new(Arc::clone(&topo), id(0), 5.0, 0.5, (0.0, 8.0));
        let mut ctx = Context::new(id(0), g.out_neighbors(id(0)));
        node.on_start(&mut ctx);
        let round0 = node.rounds[0].as_mut().unwrap();
        assert!(!round0.values.insert(foreign, 1.0), "an id from node 4's block is refused");
        assert_eq!(round0.values.len(), 1, "only ⟨0⟩ is recorded");
    }

    #[test]
    fn too_many_crashes_rejected() {
        let err = run_crash(generators::clique(3), 1, &[0.0; 3], 0.5, &[(id(0), 0), (id(1), 0)], 0);
        assert!(matches!(err, Err(RunError::TooManyFaults { .. })));
    }
}
