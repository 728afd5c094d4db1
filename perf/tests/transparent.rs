//! `Spanned` is transparent: a traced run's outputs, histories and message
//! counts are bit-identical to the product protocol's on the same scenario.

use dbac_baselines::scenario::IterativeTrimmedMean;
use dbac_core::scenario::{
    ByzantineWitness, CrashTwoReach, FaultKind, Outcome, Scenario, SchedulerSpec,
};
use dbac_graph::{generators, NodeId};
use dbac_perf::traced::{run_traced, RepTrace, TraceConfig};
use dbac_perf::workloads::{chaos_plan, scenario, Workload};

fn bits(out: &Outcome) -> (Vec<Option<u64>>, Vec<Option<Vec<u64>>>) {
    let to_bits = |h: &Vec<f64>| h.iter().map(|x| x.to_bits()).collect();
    (
        out.outputs.iter().map(|o| o.map(f64::to_bits)).collect(),
        out.histories.iter().map(|h| h.as_ref().map(to_bits)).collect(),
    )
}

/// Runs `scn` both ways and asserts the traced run changed nothing
/// observable; returns the trace for further checks.
fn assert_transparent(scn: &Scenario, every: u32) -> RepTrace {
    let product = scn.run().expect("product run");
    let (traced, trace) = run_traced(scn, TraceConfig { every, counts: true }).expect("traced run");
    assert_eq!(bits(&product), bits(&traced), "outputs or histories differ");
    assert_eq!(product.protocol, traced.protocol);
    assert_eq!(product.rounds, traced.rounds);
    assert_eq!(product.honest, traced.honest);
    assert_eq!(product.honest_messages, traced.honest_messages);
    assert_eq!(product.certification, traced.certification);
    // Everything but the wall clock.
    assert_eq!(product.sim_stats.transport, traced.sim_stats.transport);
    assert_eq!(product.sim_stats.protocol, traced.sim_stats.protocol);
    assert_eq!(product.sim_stats.nodes, traced.sim_stats.nodes);
    assert_eq!(product.sim_stats.virtual_time, traced.sim_stats.virtual_time);
    // The wrappers saw every delivery exactly once.
    let handled: u64 = trace.nodes.iter().map(|n| n.msgs).sum();
    assert_eq!(handled, product.sim_stats.messages_delivered());
    assert_eq!(trace.nodes.len(), scn.graph().node_count());
    // The four phases tile the repetition.
    assert!(trace.precompute_end_ns <= trace.fleet_end_ns);
    assert!(trace.fleet_end_ns <= trace.drive_end_ns && trace.drive_end_ns <= trace.total_ns);
    trace
}

#[test]
fn byzantine_witness_on_k4_with_a_liar() {
    let scn = Scenario::builder(generators::clique(4), 1)
        .inputs(vec![0.0, 10.0, 2.0, 8.0])
        .epsilon(0.5)
        .fault(NodeId::new(3), FaultKind::ConstantLiar { value: 1e4 })
        .scheduler(SchedulerSpec::Random { seed: 3, min: 1, max: 15 })
        .protocol(ByzantineWitness::default())
        .build()
        .unwrap();
    let trace = assert_transparent(&scn, 1);
    assert!(trace.paths > 0);
    let wire = trace.wire.expect("wire kernel requested");
    assert!(wire.msgs > 0 && wire.bytes_per_msg > 0.0);
    assert_eq!(trace.nodes.iter().filter(|n| !n.honest).count(), 1);
}

#[test]
fn byzantine_witness_on_k5_under_chaos_with_an_equivocator() {
    for seed in [6, 11] {
        let scn = scenario(Workload::BwK5ChaosSim, seed);
        let product = scn.run().unwrap();
        let trace = assert_transparent(&scn, 1);
        // The reordered count is derived from delivery counts alone; it can
        // never exceed what was sent, and this plan delays about a third.
        let sent = product.sim_stats.messages_sent();
        assert!(trace.reordered > sent / 4 && trace.reordered < sent / 2, "{}", trace.reordered);
    }
}

#[test]
fn sampling_stride_changes_nothing_either() {
    let scn = scenario(Workload::BwK5ChaosSim, 6);
    let every_call = assert_transparent(&scn, 1);
    let sampled = assert_transparent(&scn, 64);
    for (a, b) in every_call.nodes.iter().zip(&sampled.nodes) {
        assert_eq!(a.msgs, b.msgs, "message counts are exact at any stride");
        assert_eq!(a.timed, a.msgs);
        assert!(b.timed < b.msgs / 16, "about one call in 64 is timed");
    }
}

#[test]
fn crash_two_reach_with_a_mid_run_crash() {
    let scn = Scenario::builder(generators::clique(4), 1)
        .inputs(vec![0.0, 8.0, 4.0, 2.0])
        .epsilon(0.5)
        .range((0.0, 8.0))
        .fault(NodeId::new(1), FaultKind::CrashAfter { sends: 3 })
        .scheduler(SchedulerSpec::Random { seed: 3, min: 1, max: 15 })
        .link_faults(chaos_plan(&generators::clique(4), 5))
        .protocol(CrashTwoReach::default())
        .build()
        .unwrap();
    assert_transparent(&scn, 1);
}

#[test]
fn iterative_trimmed_mean_on_a_64_node_circulant() {
    let n = 64;
    let scn = Scenario::builder(generators::circulant_pow2(n), 1)
        .inputs((0..n).map(|i| (i as f64 * 0.754_877_666).fract()).collect())
        .epsilon(1e-3)
        .fault(NodeId::new(n - 1), FaultKind::Ramp { base: 0.0, slope: 0.5 })
        .scheduler(SchedulerSpec::Random { seed: 9, min: 1, max: 15 })
        .rounds(200)
        .protocol(IterativeTrimmedMean::default())
        .build()
        .unwrap();
    let trace = assert_transparent(&scn, 64);
    assert_eq!(trace.paths, 0);
    // Default round count, no override: the replica must fall back to the
    // protocol's own default exactly as the product does.
    let scn = Scenario::builder(generators::circulant_pow2(16), 0)
        .inputs((0..16).map(f64::from).collect())
        .epsilon(1e-3)
        .protocol(IterativeTrimmedMean::default())
        .build()
        .unwrap();
    assert_transparent(&scn, 1);
}
