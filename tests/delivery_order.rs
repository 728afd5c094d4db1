//! Pins the simulator's delivery order: seeded, chaos-injected Sim runs
//! (one per BW fault kind under a lossy and under a drop-free link plan,
//! plus a crash-protocol run) whose recorded traces must hash to fixed
//! digests. Four more rows crowd their ticks (two BW faults under a
//! one-tick and a zero-or-one-tick schedule), so on a host with more than
//! one core most of their deliveries go through the simulator's batched
//! step; their digests were taken from the serial loop alone.
//!
//! Each trace is folded through FNV-1a 64 (offset `0xcbf29ce484222325`,
//! prime `0x100000001b3`), one delivery at a time: `at` as a `u64` LE,
//! `from` and `to` as `u32` LE, the frame length as `u32` LE, then the
//! frame bytes. The digest covers every arrival time, every edge and every
//! wire byte, so any change to the calendar queue's order (arrival time,
//! then enqueue order within a tick), to the delivery policy's draw
//! sequence, to the link-fault decisions, to the activation order of the
//! start phase or to what an adversary sends moves it.
//!
//! Next to each byte digest sits an order-only digest: the same FNV-1a
//! fold over `at`, `from` and `to` alone. A change that reshapes frames
//! without moving any delivery (a smaller wire encoding, say) moves the
//! byte digest and leaves the order digest where it is.
//!
//! BW assumes reliable links, so under the lossy plan every BW row stalls
//! in round 0: those digests cover round-0 traffic only. The drop-free
//! rows run the same faults to a decision in every round, so their
//! digests also cover Maximal-Consistency, `COMPLETE` traffic and every
//! round boundary.
//!
//! Every row is also replayed: a fresh fleet of the row's scenario, under
//! its plan, consumes the recorded trace through `Fleet::replay`. Every
//! process is deterministic given what it consumed, so each delivery must
//! match a copy its sender sent (none is synthesized), and the replay
//! must end with the recorded outputs, histories and transport and
//! protocol ledgers.

mod common;

use common::{bw_faults, bw_fleet, bw_k5};
use dbac::core::crash::{CrashAfter, CrashNode, CrashTopology};
use dbac::core::HonestNode;
use dbac::graph::{generators, NodeId, PathBudget};
use dbac::scenario::{
    CrashTwoReach, FaultKind, LinkFault, LinkFaultPlan, Outcome, Scenario, ScenarioBuilder,
    SchedulerSpec, StatsRegistry, Trace, WireMessage,
};
use dbac::sim::{Fleet, Process};
use std::sync::Arc;

fn id(i: usize) -> NodeId {
    NodeId::new(i)
}

/// FNV-1a 64 over every delivery of `trace`; `frames` adds each frame's
/// length and bytes after its `(at, from, to)`.
fn fnv1a(trace: &Trace, frames: bool) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in &trace.deliveries {
        feed(&d.at.ticks().to_le_bytes());
        feed(&(d.from.index() as u32).to_le_bytes());
        feed(&(d.to.index() as u32).to_le_bytes());
        if frames {
            feed(&(d.frame.len() as u32).to_le_bytes());
            feed(&d.frame);
        }
    }
    hash
}

/// `(deliveries, FNV-1a 64 digest)` of a trace.
fn digest(trace: &Trace) -> (usize, u64) {
    (trace.deliveries.len(), fnv1a(trace, true))
}

/// The order-only digest: FNV-1a 64 over `(at, from, to)` per delivery.
fn order_digest(trace: &Trace) -> u64 {
    fnv1a(trace, false)
}

/// Duplicates on 0→1, reorders on 1→2.
fn drop_free() -> LinkFaultPlan {
    let plan = LinkFaultPlan::new(17).fault(id(0), id(1), LinkFault::Duplicate { prob: 0.4 });
    plan.fault(id(1), id(2), LinkFault::Reorder { window: 30 })
}

/// The drop-free plan, plus drops on 2→0.
fn chaos() -> LinkFaultPlan {
    drop_free().fault(id(2), id(0), LinkFault::Drop { prob: 0.2 })
}

/// Runs `builder`, recording its trace.
fn traced(builder: ScenarioBuilder) -> (Scenario, Outcome, Trace) {
    let scenario = builder.record_trace(true).build().expect("valid");
    let mut out = scenario.run().expect("runs");
    let trace = out.trace.take().expect("trace recorded");
    (scenario, out, trace)
}

/// Replays `trace` on `fleet`, a fresh fleet of `scenario` whose honest
/// nodes book into `registry`, under the scenario's plan if it has one,
/// and checks that it reproduces `out`.
fn assert_replays<P: Process>(
    mut fleet: Fleet<P>,
    registry: &Arc<StatsRegistry>,
    (scenario, out, trace): &(Scenario, Outcome, Trace),
    readout: impl Fn(&P) -> (Option<f64>, Vec<f64>),
    label: &str,
) where
    P::Message: WireMessage,
{
    fleet.set_stats(Arc::clone(registry));
    if let Some(plan) = scenario.link_faults() {
        fleet.set_link_faults(plan.clone());
    }
    let replay = fleet.replay(&trace.deliveries).expect(label);
    assert_eq!((replay.matched, replay.synthesized), (trace.deliveries.len(), 0), "{label}");
    for v in out.honest.iter() {
        let (output, history) = readout(replay.nodes[v.index()].as_ref().expect("honest"));
        assert_eq!(output, out.outputs[v.index()], "{label}: {v}'s output");
        assert_eq!(Some(history), out.histories[v.index()], "{label}: {v}'s history");
    }
    let stats = registry.snapshot();
    assert_eq!(stats.transport, out.sim_stats.transport, "{label}: transport ledger");
    assert_eq!(stats.protocol, out.sim_stats.protocol, "{label}: protocol counters");
}

/// One row per BW fault under each plan: each strategy's injections and
/// relays reach the wire, so the pin covers what it sends as well as the
/// delivery order.
#[test]
fn bw_k5_catalog_delivery_order_is_pinned() {
    let faults = bw_faults();
    // (deliveries, byte digest, order-only digest), in `faults` order.
    let lossy = [
        (27_910, 11_943_639_418_892_040_270, 10_146_722_805_633_412_924),
        (28_361, 2_005_456_766_599_807_581, 5_941_265_024_486_710_229),
        (12_735, 16_164_100_034_604_034_849, 16_586_592_800_799_308_278),
        (12_880, 17_329_551_202_384_602_412, 11_283_664_697_557_274_689),
        (12_826, 8_642_122_276_633_989_141, 6_260_853_792_866_912_076),
    ];
    let no_drops = [
        (82_960, 8_500_592_683_160_589_407, 12_002_787_297_574_510_830),
        (88_166, 11_463_160_447_463_190_265, 5_389_138_063_969_162_549),
        (66_642, 204_475_401_356_312_456, 16_575_140_501_101_545_841),
        (66_898, 451_769_095_539_143_698, 2_686_701_127_040_652_168),
        (52_700, 9_300_209_696_486_514_179, 6_732_852_428_410_973_532),
    ];
    for (plan, pins, decides) in [(chaos(), lossy, false), (drop_free(), no_drops, true)] {
        for (fault, (deliveries, bytes, order)) in faults.iter().zip(pins) {
            let label =
                format!("{} ({})", fault.label(), if decides { "drop-free" } else { "lossy" });
            let row = traced(bw_k5(fault.clone()).link_faults(plan.clone()).seed(6));
            let (scenario, out, trace) = &row;
            assert_eq!(digest(trace), (deliveries, bytes), "{label}");
            assert_eq!(order_digest(trace), order, "{label}: order");
            // A dropped message leaves a FIFO gap that never closes, so
            // under the lossy plan no honest node fires round 0 (ROADMAP
            // 7(b)); without drops all four honest nodes fire every round.
            let fired = if decides { 4 * u64::from(out.rounds) } else { 0 };
            assert_eq!(out.sim_stats.protocol.rounds_fired, fired, "{label}");
            assert_eq!(out.all_decided(), decides, "{label}");
            // A frame's first byte is its wire tag; 0x01 is `COMPLETE`.
            let completes = trace.deliveries.iter().any(|d| d.frame[0] == 0x01);
            assert!(completes || !decides, "{label}: a deciding run sends COMPLETE");
            let registry = StatsRegistry::new(5);
            let fleet = bw_fleet(scenario, &registry);
            let readout = |p: &HonestNode| (p.output(), p.x_history().to_vec());
            assert_replays(fleet, &registry, &row, readout, &label);
        }
    }
}

#[test]
fn crash_k4_delivery_order_is_pinned() {
    let row = traced(
        Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 8.0, 4.0, 2.0])
            .epsilon(0.5)
            .range((0.0, 8.0))
            .fault(id(3), FaultKind::CrashAfter { sends: 5 })
            .protocol(CrashTwoReach::default())
            .link_faults(chaos())
            .seed(6),
    );
    let (scenario, out, trace) = &row;
    assert_eq!(digest(trace), (158, 1_973_190_968_338_975_551));
    assert_eq!(order_digest(trace), 18_352_707_118_752_469_903, "order");
    assert!(out.all_decided(), "the crash protocol decides through the lossy plan");

    let (graph, f) = (scenario.graph().clone(), scenario.f());
    let topo = Arc::new(CrashTopology::new(graph.clone(), f, PathBudget::default()).unwrap());
    let node = |v: NodeId| {
        let input = scenario.inputs()[v.index()];
        CrashNode::new(Arc::clone(&topo), v, input, scenario.epsilon(), scenario.range())
            .with_rounds(scenario.rounds())
    };
    let mut fleet = Fleet::new(Arc::new(graph));
    for v in scenario.honest_set().iter() {
        fleet.set_honest(v, node(v));
    }
    fleet.set_byzantine(id(3), Box::new(CrashAfter::new(node(id(3)), 5)));
    let readout = |p: &CrashNode| (p.output(), p.x_history().to_vec());
    assert_replays(fleet, &StatsRegistry::new(4), &row, readout, "crash K4");
}

/// Rows whose ticks are crowded: most of their deliveries share a tick with
/// a thousand others. K5 with a constant liar on clean links, and with an
/// equivocator under the drop-free plan, each under a one-tick schedule
/// and under seeded delays in `[0, 1]` (a zero delay lands in the tick
/// being delivered).
#[test]
fn crowded_tick_delivery_order_is_pinned() {
    let schedules = [SchedulerSpec::Fixed(1), SchedulerSpec::Random { seed: 6, min: 0, max: 1 }];
    let liar = bw_k5(FaultKind::ConstantLiar { value: 1e4 });
    let equivocator = bw_k5(FaultKind::Equivocator { low: -100.0, high: 100.0 });
    // (deliveries, byte digest, order-only digest), per row and schedule.
    let pins = [
        [
            (86_400, 949_764_676_602_921_733, 2_090_084_262_638_510_213),
            (86_400, 796_351_204_509_103_411, 15_898_535_478_345_983_171),
        ],
        [
            (82_960, 17_375_785_254_879_713_351, 9_383_154_999_400_113_170),
            (82_960, 12_870_892_150_272_972_757, 9_121_062_177_138_970_068),
        ],
    ];
    let rows = [("liar", liar), ("equivocator", equivocator.link_faults(drop_free()))];
    for ((name, builder), pins) in rows.into_iter().zip(pins) {
        for (schedule, (deliveries, bytes, order)) in schedules.iter().zip(pins) {
            let label = format!("{name} ({schedule:?})");
            let row = traced(builder.clone().scheduler(schedule.clone()));
            let (scenario, out, trace) = &row;
            assert_eq!(digest(trace), (deliveries, bytes), "{label}");
            assert_eq!(order_digest(trace), order, "{label}: order");
            assert!(out.all_decided(), "{label}");
            // At least two deliveries in five share their tick with a
            // thousand others.
            let mut per_tick = std::collections::BTreeMap::new();
            for d in &trace.deliveries {
                *per_tick.entry(d.at).or_insert(0) += 1;
            }
            let crowded: usize = per_tick.values().filter(|&&c| c >= 1024).sum();
            assert!(5 * crowded > 2 * trace.deliveries.len(), "{label}: {crowded} crowded");
            let registry = StatsRegistry::new(5);
            let fleet = bw_fleet(scenario, &registry);
            let readout = |p: &HonestNode| (p.output(), p.x_history().to_vec());
            assert_replays(fleet, &registry, &row, readout, &label);
        }
    }
}
