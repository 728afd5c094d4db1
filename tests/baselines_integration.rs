//! Integration across the baseline algorithms and the crash-tolerant
//! variant: the Table 2 / E9 / E10 claims at test scale.

use dbac::baselines::iterengine::{wmsr_step_in_place, IterMsg, IterNode};
use dbac::conditions::kreach::{three_reach, two_reach};
use dbac::conditions::robustness::is_r_s_robust;
use dbac::graph::{generators, Digraph, NodeId};
use dbac::scenario::{
    Aad04, ByzantineWitness, CrashTwoReach, FaultKind, IterativeTrimmedMean, Outcome, Scenario,
    SchedulerSpec,
};
use dbac::sim::{Context, Process};
use proptest::prelude::*;

/// Mirrors the legacy crash-run semantics: the a-priori range covers every
/// potential input (crashed nodes are honest until they crash), and the
/// schedule is the crash protocol's historical `[1, 15]` random one.
fn run_crash(
    graph: Digraph,
    f: usize,
    inputs: &[f64],
    epsilon: f64,
    crashed: &[(NodeId, usize)],
    seed: u64,
) -> Outcome {
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
        .expect("crash scenario runs")
}

#[test]
fn crash_protocol_matches_two_reach_feasibility() {
    // K3 satisfies 2-reach for f=1: the crash protocol works there even
    // though Byzantine consensus is impossible (3-reach fails).
    let g = generators::clique(3);
    assert!(two_reach(&g, 1).holds());
    assert!(!three_reach(&g, 1).holds());
    let out = run_crash(g, 1, &[0.0, 6.0, 3.0], 0.5, &[(NodeId::new(2), 1)], 3);
    assert!(out.converged() && out.valid());
}

#[test]
fn aad04_and_bw_agree_on_cliques() {
    // E9: the generalization is conservative — both algorithms solve the
    // same instances on complete networks.
    let inputs = vec![1.0, 5.0, 3.0, 0.0];
    let byz = NodeId::new(3);

    let bw = Scenario::builder(generators::clique(4), 1)
        .inputs(inputs.clone())
        .epsilon(0.5)
        .fault(byz, FaultKind::ConstantLiar { value: -1e5 })
        .seed(7)
        .protocol(ByzantineWitness::default())
        .run()
        .unwrap();
    assert!(bw.converged() && bw.valid());

    let aad = Scenario::builder(generators::clique(4), 1)
        .inputs(inputs.clone())
        .epsilon(0.5)
        .fault(byz, FaultKind::ConstantLiar { value: -1e5 })
        .scheduler(SchedulerSpec::legacy_random(7))
        .protocol(Aad04)
        .run()
        .unwrap();
    assert!(aad.converged() && aad.valid());

    // Both respect the same honest hull [1, 5].
    for v in bw.honest_outputs() {
        assert!((1.0..=5.0).contains(&v));
    }
    for w in aad.honest.iter() {
        let v = aad.outputs[w.index()].unwrap();
        assert!((1.0..=5.0).contains(&v));
    }
}

#[test]
fn e10_separation_instance() {
    // figure_1b_small: 3-reach holds, (2,2)-robustness fails — iterative
    // local filtering stalls, BW converges.
    let g = generators::figure_1b_small();
    assert!(three_reach(&g, 1).holds());
    assert!(!is_r_s_robust(&g, 2, 2));

    let inputs = vec![0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0];
    let it = Scenario::builder(g.clone(), 1)
        .inputs(inputs.clone())
        .epsilon(0.5)
        .protocol(IterativeTrimmedMean::with_rounds(60))
        .run()
        .unwrap();
    assert!(it.spread() > 9.0, "iterative should stall at {}", it.spread());

    // A crashed node keeps this affordable in debug builds (the release
    // `baseline_compare` binary runs the all-honest + liar variants).
    let out = Scenario::builder(g, 1)
        .inputs(inputs)
        .epsilon(4.0)
        .fault(NodeId::new(7), FaultKind::Crash)
        .seed(3)
        .protocol(ByzantineWitness::default())
        .run()
        .unwrap();
    assert!(out.converged() && out.valid(), "BW must converge where W-MSR stalls");
}

#[test]
fn iterative_works_where_robustness_holds() {
    let g = generators::clique(5);
    assert!(is_r_s_robust(&g, 2, 2));
    let run = Scenario::builder(g, 1)
        .inputs(vec![0.0, 1.0, 2.0, 3.0, 0.0])
        .epsilon(1e-6)
        .fault(NodeId::new(4), FaultKind::Ramp { base: -10.0, slope: -5.0 })
        .range((-10.0, 10.0))
        .protocol(IterativeTrimmedMean::with_rounds(80))
        .run()
        .unwrap();
    assert!(run.spread() < 1e-6);
    assert!(run.valid());
}

#[test]
fn crash_protocol_with_two_faults() {
    // f = 2 end-to-end (the BW protocol's f = 2 instances are beyond test
    // budgets, but the simple-path crash protocol handles them easily).
    let g = generators::clique(6);
    assert!(two_reach(&g, 2).holds());
    let inputs: Vec<f64> = (0..6).map(|i| i as f64).collect();
    let out = run_crash(g, 2, &inputs, 0.5, &[(NodeId::new(4), 0), (NodeId::new(5), 7)], 13);
    assert!(out.converged() && out.valid());
    assert!(out.outputs[4].is_none() && out.outputs[5].is_none());
}

#[test]
fn aad04_with_two_faults() {
    let inputs: Vec<f64> = (0..7).map(|i| i as f64).collect();
    let out = Scenario::builder(generators::clique(7), 2)
        .inputs(inputs)
        .epsilon(0.5)
        .fault(NodeId::new(5), FaultKind::Crash)
        .fault(NodeId::new(6), FaultKind::ConstantLiar { value: 1e8 })
        .scheduler(SchedulerSpec::legacy_random(21))
        .protocol(Aad04)
        .run()
        .unwrap();
    assert!(out.converged() && out.valid());
}

#[test]
fn crash_protocol_on_all_feasible_catalog_graphs() {
    for inst in dbac_bench::catalog::feasible_instances() {
        let n = inst.graph.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let out = run_crash(inst.graph.clone(), inst.f, &inputs, 0.5, &[(NodeId::new(0), 3)], 11);
        assert!(out.converged() && out.valid(), "{} crash run failed", inst.name);
    }
}

/// Scale smoke: a 220-node layered-expander run — a topology the u128-era
/// `NodeSet` could not even represent — through the full Scenario →
/// Outcome surface, with faults. No BW `Topology` precomputation is
/// involved (the iterative engine is purely local), so the only scale
/// limits are `MAX_NODES` and the event budget.
#[test]
fn iterative_smoke_on_a_220_node_layered_expander() {
    let g = generators::layered_expander(11, 20);
    let n = g.node_count();
    assert_eq!(n, 220);
    let out = Scenario::builder(g, 2)
        .inputs((0..n).map(|i| (i % 50) as f64).collect())
        .epsilon(1e-2)
        .range((0.0, 49.0))
        .rounds(150)
        .fault(NodeId::new(7), FaultKind::ConstantLiar { value: 1e6 })
        .fault(NodeId::new(140), FaultKind::Crash)
        .protocol(IterativeTrimmedMean::default())
        .run()
        .expect("a 220-node iterative scenario runs");
    assert!(out.valid(), "W-MSR must keep outputs in the honest hull");
    // Progress is observable through the PR 8 stats registry: rounds fired
    // accumulate on the shared gauge even when convergence is partial.
    assert!(out.sim_stats.protocol.rounds_fired > 0);
    let transport = out.sim_stats.transport.measured().expect("message-passing engine");
    assert!(transport.class(dbac::scenario::MsgClass::Iter).delivered > 0);
}

/// The flat `rounds × indegree` table of first values that the iterative
/// engine's ring of round rows replaced: the reference for the ring's
/// differential below. Fires rounds in order once `indegree − f` distinct
/// in-neighbors have sent one, with the product's W-MSR step.
struct FlatIter {
    f: usize,
    rounds: u32,
    in_ids: Vec<NodeId>,
    out_ids: Vec<NodeId>,
    /// `cells[r * indegree + slot]`: the first value from `slot` for `r`.
    cells: Vec<Option<f64>>,
    round: u32,
    history: Vec<f64>,
    sent: u64,
    outbox: Vec<(NodeId, IterMsg)>,
}

impl FlatIter {
    fn new(me: NodeId, g: &Digraph, f: usize, rounds: u32, input: f64) -> Self {
        let in_ids: Vec<NodeId> = g.in_neighbors(me).iter().collect();
        FlatIter {
            f,
            rounds,
            cells: vec![None; rounds as usize * in_ids.len()],
            in_ids,
            out_ids: g.out_neighbors(me).iter().collect(),
            round: 0,
            history: vec![input],
            sent: 0,
            outbox: Vec::new(),
        }
    }

    fn value(&self) -> f64 {
        *self.history.last().expect("holds the input")
    }

    fn row(&self, round: u32) -> &[Option<f64>] {
        let deg = self.in_ids.len();
        &self.cells[round as usize * deg..][..deg]
    }

    fn broadcast(&mut self) {
        let msg = IterMsg { round: self.round, value: self.value() };
        self.outbox.extend(self.out_ids.iter().map(|&w| (w, msg)));
        self.sent += self.out_ids.len() as u64;
    }

    fn fire(&mut self) {
        let need = self.in_ids.len() - self.f.min(self.in_ids.len());
        while self.round < self.rounds && self.row(self.round).iter().flatten().count() >= need {
            let mut received: Vec<f64> = self.row(self.round).iter().flatten().copied().collect();
            let next = wmsr_step_in_place(self.value(), &mut received, self.f);
            self.history.push(next);
            self.round += 1;
            if self.round < self.rounds {
                self.broadcast();
            }
        }
    }

    fn start(&mut self) {
        if self.rounds > 0 {
            self.broadcast();
            self.fire();
        }
    }

    fn deliver(&mut self, from: NodeId, msg: IterMsg) {
        if msg.round >= self.rounds || !msg.value.is_finite() {
            return;
        }
        let Some(slot) = self.in_ids.iter().position(|&v| v == from) else {
            return;
        };
        let cell = &mut self.cells[msg.round as usize * self.in_ids.len() + slot];
        if cell.is_none() {
            *cell = Some(msg.value);
            if msg.round == self.round {
                self.fire();
            }
        }
    }
}

/// A message the differential delivers, decoded from `code` against the
/// reference's state: mostly values that move the waiting round towards
/// firing, plus rounds already fired, rounds a little and far ahead (up to
/// `rounds − 1`, which grows the ring), rounds past the run, replays of
/// earlier deliveries (whose row may since have been reused), NaN and ±∞,
/// and senders that are not in-neighbors.
fn decode(
    code: u64,
    flat: &FlatIter,
    nodes: usize,
    log: &[(NodeId, IterMsg)],
) -> (NodeId, IterMsg) {
    let (kind, param) = (code % 10, (code >> 8) as u32 & 0xffff);
    let value = match (code >> 40) % 16 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        v => v as f64 - 8.5,
    };
    let deg = flat.in_ids.len();
    let anyone = NodeId::new(param as usize % nodes);
    let neighbor = |i: u32| if deg == 0 { anyone } else { flat.in_ids[i as usize % deg] };
    if kind == 9 && !log.is_empty() {
        let (from, old) = log[param as usize % log.len()];
        let value = if param % 2 == 0 { old.value } else { value };
        return (from, IterMsg { round: old.round, value });
    }
    let rounds = flat.rounds.max(1);
    let (from, round) = match kind {
        // The first in-neighbor, from a drawn one on, still missing for the
        // waiting round.
        0..=2 if flat.round < flat.rounds => {
            let row = flat.row(flat.round);
            let gap = (0..deg).map(|i| (i + param as usize) % deg).find(|&s| row[s].is_none());
            (gap.map_or(anyone, |s| flat.in_ids[s]), flat.round)
        }
        0..=2 => (neighbor(param), flat.round),
        3 => (anyone, flat.round.saturating_sub(1) + param % 4),
        4 => (neighbor(param), flat.round + 1 + param % 3),
        5 => (neighbor(param), param % rounds),
        6 => (neighbor(param), flat.rounds + param % 3),
        7 => (neighbor(param), u32::MAX - param % 2),
        8 => (anyone, param % (flat.round + 1)),
        _ => (anyone, flat.round),
    };
    (from, IterMsg { round, value })
}

fn sends(outbox: Vec<(NodeId, IterMsg)>) -> Vec<(NodeId, u32, u64)> {
    outbox.into_iter().map(|(w, m)| (w, m.round, m.value.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `IterNode`'s ring of round rows against the flat table it replaced,
    /// on one node `0` with `deg` in-neighbors (more than 64 in some
    /// cases, so a row spans presence words) and a few nodes that are not:
    /// after the start and after every delivery, the history bit for bit,
    /// the rounds fired, the value, the send tally and the outbox agree.
    #[test]
    fn iter_node_ring_matches_a_flat_round_table(
        shape in 0usize..48,
        strangers in 0usize..3,
        f in 0usize..3,
        rounds in 0u32..24,
        codes in prop::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let deg = if shape >= 40 { shape + 25 } else { shape % 8 };
        let nodes = 1 + deg + strangers;
        let mut g = Digraph::new(nodes).unwrap();
        let me = NodeId::new(0);
        for v in 1..nodes {
            if v <= deg {
                g.add_edge(NodeId::new(v), me).unwrap();
            }
            if v % 2 == 1 {
                g.add_edge(me, NodeId::new(v)).unwrap();
            }
        }
        let mut node = IterNode::new(me, &g, f, rounds, 0.25);
        let mut flat = FlatIter::new(me, &g, f, rounds, 0.25);
        let mut ctx = Context::new(me, g.out_neighbors(me));
        let mut log = Vec::new();
        node.on_start(&mut ctx);
        flat.start();
        for step in 0..=codes.len() {
            prop_assert_eq!(
                node.history().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                flat.history.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "history after {} deliveries", step
            );
            prop_assert_eq!(node.rounds_fired(), flat.round);
            prop_assert_eq!(node.value().to_bits(), flat.value().to_bits());
            prop_assert_eq!(node.sent, flat.sent);
            prop_assert_eq!(sends(ctx.take_outbox()), sends(std::mem::take(&mut flat.outbox)));
            let Some(&code) = codes.get(step) else { break };
            let (from, msg) = decode(code, &flat, nodes, &log);
            log.push((from, msg));
            node.on_message(&mut ctx, from, msg);
            flat.deliver(from, msg);
        }
    }
}
