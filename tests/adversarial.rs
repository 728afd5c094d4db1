//! Failure injection: every Byzantine strategy in the library against the
//! full protocol. Convergence and validity must survive them all — the
//! paper's Theorem 4 promises exactly that on 3-reach graphs.

use dbac::core::config::{FloodMode, ProtocolConfig};
use dbac::core::{HonestNode, ProtocolMsg, Topology};
use dbac::graph::generators;
use dbac::graph::{NodeId, Path, PathBudget};
use dbac::scenario::{ByzantineWitness, FaultKind, Scenario};
use dbac::sim::process::{Context, Process};
use std::sync::Arc;

fn strategies() -> Vec<(&'static str, FaultKind)> {
    vec![
        ("crash", FaultKind::Crash),
        ("liar-high", FaultKind::ConstantLiar { value: 1e9 }),
        ("liar-low", FaultKind::ConstantLiar { value: -1e9 }),
        ("equivocator", FaultKind::Equivocator { low: -500.0, high: 500.0 }),
        ("relay-tamperer", FaultKind::RelayTamperer { spoof: 123.0 }),
        ("path-fabricator", FaultKind::PathFabricator { forged_value: -77.0 }),
        ("chaotic-1", FaultKind::Chaotic { seed: 1 }),
        ("chaotic-2", FaultKind::Chaotic { seed: 2 }),
    ]
}

#[test]
fn every_strategy_on_k4() {
    for (label, kind) in strategies() {
        let cfg = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![2.0, 4.0, 6.0, 0.0])
            .epsilon(0.5)
            .fault(NodeId::new(3), kind)
            .seed(11)
            .build()
            .unwrap();
        let out = cfg.run().unwrap();
        assert!(out.all_decided(), "{label}: honest node undecided");
        assert!(out.converged(), "{label}: spread {}", out.spread());
        assert!(out.valid(), "{label}: validity broken: {:?}", out.outputs);
    }
}

#[test]
fn every_strategy_on_figure_1a() {
    for (label, kind) in strategies() {
        let cfg = Scenario::builder(generators::figure_1a(), 1)
            .inputs(vec![1.0, 3.0, 5.0, 7.0, 0.0])
            .epsilon(1.0)
            .fault(NodeId::new(4), kind)
            .seed(17)
            .build()
            .unwrap();
        let out = cfg.run().unwrap();
        assert!(out.converged() && out.valid(), "{label} on figure 1a failed");
    }
}

#[test]
fn byzantine_position_does_not_matter_on_k4() {
    for position in 0..4usize {
        let mut inputs = vec![2.0, 4.0, 6.0, 8.0];
        inputs[position] = 0.0; // ignored
        let cfg = Scenario::builder(generators::clique(4), 1)
            .inputs(inputs)
            .epsilon(0.5)
            .fault(NodeId::new(position), FaultKind::ConstantLiar { value: -1e6 })
            .seed(23)
            .build()
            .unwrap();
        let out = cfg.run().unwrap();
        assert!(out.converged() && out.valid(), "liar at position {position}");
    }
}

/// Regression for the PR 1 behavior note (experiment E11b): under the
/// `SimpleOnly` ablation the interned population holds only simple paths,
/// so a Byzantine-injected redundant-but-non-simple flood — here the wire
/// path ⟨0,1⟩ whose extension at node 0 is ⟨0,1,0⟩ — is rejected at the
/// validation boundary and **never enters `M_v`**. Under the paper's
/// redundant mode the same message is legitimate traffic and is stored.
/// The seed design instead stored such paths in `M_v` without
/// pool-counting them; the flood discipline is now enforced at the
/// boundary, and this test pins the message-set outcome on both sides.
#[test]
fn e11b_simple_only_rejects_non_simple_floods_before_m_v() {
    let me = NodeId::new(0);
    let run = |mode: FloodMode| {
        let topo =
            Arc::new(Topology::new(generators::clique(4), 1, mode, PathBudget::default()).unwrap());
        let config = ProtocolConfig::new(1, 0.5, (0.0, 8.0));
        let mut node = HonestNode::new(Arc::clone(&topo), config, me, 1.0);
        let mut ctx = Context::new(me, topo.graph().out_neighbors(me));
        node.on_start(&mut ctx);
        let _ = ctx.take_outbox();
        // The Byzantine neighbor 1 replays node 0's own flood back: wire
        // path ⟨0,1⟩ (simple, interned in *both* populations) extends at
        // node 0 to the redundant, non-simple ⟨0,1,0⟩.
        let wire = topo.index().resolve(&Path::from_indices(&[0, 1]).unwrap()).unwrap();
        node.on_message(
            &mut ctx,
            NodeId::new(1),
            ProtocolMsg::Flood { round: 0, value: 66.5, path: wire },
        );
        let relays = ctx.take_outbox().len();
        (topo, node, relays)
    };

    // Paper mode: the extension is a legitimate redundant path — stored.
    let (topo, node, relays) = run(FloodMode::Redundant);
    let stored = topo.index().resolve(&Path::from_indices(&[0, 1, 0]).unwrap()).unwrap();
    let mset = node.round_message_set(0).expect("round 0 started");
    assert_eq!(mset.value_on_path(stored), Some(66.5), "redundant mode stores ⟨0,1,0⟩");
    assert!(relays > 0, "redundant mode relays the flood onward");

    // Ablation: rejected at validation; M_v never sees a non-simple path.
    let (topo, node, relays) = run(FloodMode::SimpleOnly);
    assert_eq!(relays, 0, "rejected floods must not be relayed");
    let mset = node.round_message_set(0).expect("round 0 started");
    assert_eq!(mset.len(), 1, "M_v holds only the node's own trivial path, not the injected flood");
    assert!(
        mset.paths().all(|p| topo.index().is_simple(p)),
        "no non-simple path can enter M_v under SimpleOnly"
    );
}

/// E11b end-to-end: the ablation still converges against the path
/// fabricator on K4 (the empirical outcome the ablation experiment
/// records), with the boundary visibly rejecting traffic that redundant
/// mode accepts.
#[test]
fn e11b_ablation_converges_against_path_fabricator() {
    let cfg = Scenario::builder(generators::clique(4), 1)
        .inputs(vec![2.0, 4.0, 6.0, 0.0])
        .epsilon(0.5)
        .fault(NodeId::new(3), FaultKind::PathFabricator { forged_value: -77.0 })
        .protocol(ByzantineWitness::default().with_flood_mode(FloodMode::SimpleOnly))
        .seed(11)
        .build()
        .unwrap();
    let out = cfg.run().unwrap();
    assert!(out.all_decided(), "ablation: honest node undecided");
    assert!(out.converged(), "ablation: spread {}", out.spread());
    assert!(out.valid(), "ablation: validity broken: {:?}", out.outputs);
}

#[test]
fn spread_halving_survives_adversaries() {
    for (label, kind) in strategies() {
        let cfg = Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 16.0, 4.0, 8.0])
            .epsilon(0.25)
            .range((0.0, 16.0))
            .fault(NodeId::new(3), kind)
            .seed(29)
            .build()
            .unwrap();
        let out = cfg.run().unwrap();
        let spreads = out.spread_by_round();
        for (r, w) in spreads.windows(2).enumerate() {
            assert!(
                w[1] <= w[0] / 2.0 + 1e-12,
                "{label}: halving broken at round {r}: {spreads:?}"
            );
        }
    }
}
