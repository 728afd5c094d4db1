//! Pins the simulator's delivery order: seeded, chaos-injected Sim runs
//! (one per BW fault kind, plus a crash-protocol run) whose recorded
//! traces must hash to fixed digests.
//!
//! Each trace is folded through FNV-1a 64 (offset `0xcbf29ce484222325`,
//! prime `0x100000001b3`), one delivery at a time: `at` as a `u64` LE,
//! `from` and `to` as `u32` LE, the frame length as `u32` LE, then the
//! frame bytes. The digest covers every arrival time, every edge and every
//! wire byte, so any change to the calendar queue's `(at, seq)` order, to
//! the delivery policy's draw sequence, to the link-fault decisions, to
//! the activation order of the start phase or to what an adversary sends
//! moves it.
//!
//! Next to each byte digest sits an order-only digest: the same FNV-1a
//! fold over `at`, `from` and `to` alone. A change that reshapes frames
//! without moving any delivery (a smaller wire encoding, say) moves the
//! byte digest and leaves the order digest where it is.

use dbac::graph::{generators, NodeId};
use dbac::scenario::{
    ByzantineWitness, CrashTwoReach, FaultKind, LinkFault, LinkFaultPlan, Scenario,
    ScenarioBuilder, Trace,
};

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

/// Duplicates on 0→1, reorders on 1→2, drops on 2→0.
fn chaos() -> LinkFaultPlan {
    LinkFaultPlan::new(17)
        .fault(id(0), id(1), LinkFault::Duplicate { prob: 0.4 })
        .fault(id(1), id(2), LinkFault::Reorder { window: 30 })
        .fault(id(2), id(0), LinkFault::Drop { prob: 0.2 })
}

fn traced(builder: ScenarioBuilder) -> Trace {
    let out = builder.link_faults(chaos()).seed(6).record_trace(true).run().expect("runs");
    out.trace.expect("trace recorded")
}

/// One row per BW fault: each strategy's injections and relays reach the
/// wire, so the pin covers what it sends as well as the delivery order.
#[test]
fn bw_k5_catalog_delivery_order_is_pinned() {
    let catalog = [
        (FaultKind::Equivocator { low: -100.0, high: 100.0 }, (27_910, 3_997_744_743_573_078_574)),
        (FaultKind::ConstantLiar { value: 1e4 }, (28_361, 15_405_870_676_810_927_097)),
        (FaultKind::RelayTamperer { spoof: -1e5 }, (12_735, 17_871_742_474_367_387_746)),
        (FaultKind::PathFabricator { forged_value: -77.0 }, (13_006, 74_608_214_541_822_053)),
        (FaultKind::Chaotic { seed: 5 }, (12_826, 3_352_059_989_923_008_033)),
    ];
    // Order-only digests, in catalog order.
    let orders = [
        10_146_722_805_633_412_924,
        5_941_265_024_486_710_229,
        16_586_592_800_799_308_278,
        6_543_104_930_214_523_711,
        6_260_853_792_866_912_076,
    ];
    for ((fault, expected), order) in catalog.into_iter().zip(orders) {
        let label = fault.label();
        let trace = traced(
            Scenario::builder(generators::clique(5), 1)
                .inputs(vec![0.0, 10.0, 4.0, 6.0, 0.0])
                .epsilon(0.5)
                .fault(id(4), fault)
                .protocol(ByzantineWitness::default()),
        );
        let pin = digest(&trace);
        assert_eq!(pin, expected, "{label}");
        assert_eq!(order_digest(&trace), order, "{label}: order");
    }
}

#[test]
fn crash_k4_delivery_order_is_pinned() {
    let trace = traced(
        Scenario::builder(generators::clique(4), 1)
            .inputs(vec![0.0, 8.0, 4.0, 2.0])
            .epsilon(0.5)
            .range((0.0, 8.0))
            .fault(id(3), FaultKind::CrashAfter { sends: 5 })
            .protocol(CrashTwoReach::default()),
    );
    let pin = digest(&trace);
    assert_eq!(pin, (158, 16_637_992_831_282_363_527));
    assert_eq!(order_digest(&trace), 18_352_707_118_752_469_903, "order");
}
