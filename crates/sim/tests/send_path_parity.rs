//! The single send gate, checked from outside: one chaos plan, one fleet,
//! three runtimes — and one ledger that must read the same on each.
//!
//! Every node of K4 sends 8 numbered messages down each out-edge from
//! `on_start` and nothing afterwards, so what is sent never depends on the
//! schedule; the plan mixes every destroying and copying fault on distinct
//! edges. Since the fate of the k-th message on an edge is a pure function
//! of the plan, the per-class transport ledger and the multiset of payloads
//! each node hears must agree between the virtual-time driver and the
//! wall-clock driver over both of its outlets.

use dbac_graph::{generators, NodeId};
use dbac_sim::net::{Net, NetConfig};
use dbac_sim::process::{Context, Process};
use dbac_sim::scheduler::RandomDelay;
use dbac_sim::sim::{SimStats, Simulation};
use dbac_sim::threaded::{Threaded, ThreadedConfig, ThreadedReport};
use dbac_sim::{
    ClassCounters, LinkFault, LinkFaultPlan, MsgClass, StatsRegistry, TransportSnapshot,
    VirtualTime,
};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 4;
const BURST: u64 = 8;

fn id(i: usize) -> NodeId {
    NodeId::new(i)
}

/// Sends `BURST` numbered messages per out-edge at start; records arrivals.
#[derive(Debug)]
struct Burst {
    me: usize,
    heard: Vec<u64>,
}

impl Process for Burst {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        for to in ctx.out_neighbors().iter() {
            for k in 0..BURST {
                ctx.send(to, (self.me as u64) << 16 | (to.index() as u64) << 8 | k);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
        self.heard.push(msg);
    }

    /// Even message numbers travel as FLOOD, odd ones as COMPLETE, so the
    /// ledger's class axis is exercised too.
    fn classify(msg: &u64) -> MsgClass {
        if msg & 1 == 0 {
            MsgClass::Flood
        } else {
            MsgClass::Complete
        }
    }
}

fn plan() -> LinkFaultPlan {
    LinkFaultPlan::new(11)
        .fault(id(0), id(1), LinkFault::Drop { prob: 0.5 })
        .fault(id(1), id(2), LinkFault::Duplicate { prob: 0.5 })
        .fault(id(2), id(3), LinkFault::Corrupt { prob: 0.5 })
        .fault(id(3), id(0), LinkFault::Partition { from_step: 2, to_step: 5 })
        .fault(id(0), id(2), LinkFault::Omit)
}

/// What one runtime did: the ledger, the returned totals, and the sorted
/// payloads each node heard.
struct Observed {
    ledger: TransportSnapshot,
    totals: SimStats,
    heard: Vec<Vec<u64>>,
}

fn sorted(mut heard: Vec<u64>) -> Vec<u64> {
    heard.sort_unstable();
    heard
}

fn ledger_of(registry: &StatsRegistry) -> TransportSnapshot {
    *registry.snapshot().transport.measured().expect("every runtime feeds the transport ledger")
}

fn on_sim() -> Observed {
    let registry = StatsRegistry::new(N);
    let mut sim =
        Simulation::new(Arc::new(generators::clique(N)), Box::new(RandomDelay::new(3, 1, 9)));
    sim.set_stats(Arc::clone(&registry)).set_link_faults(plan());
    for i in 0..N {
        sim.set_honest(id(i), Burst { me: i, heard: Vec::new() });
    }
    let totals = sim.run().expect("quiesces");
    let heard =
        sim.into_report(|_| true).nodes.into_iter().flatten().map(|p| sorted(p.heard)).collect();
    Observed { ledger: ledger_of(&registry), totals, heard }
}

fn wall_clock_fleet(registry: &Arc<StatsRegistry>) -> Threaded<Burst> {
    let mut fleet = Threaded::new(Arc::new(generators::clique(N)));
    fleet.set_stats(Arc::clone(registry)).set_link_faults(plan());
    for i in 0..N {
        fleet.set_honest(id(i), Burst { me: i, heard: Vec::new() });
    }
    fleet
}

fn observed(registry: &StatsRegistry, report: ThreadedReport<Burst>) -> Observed {
    assert!(report.incomplete.is_empty(), "{:?}", report.incomplete);
    let heard = report.nodes.into_iter().flatten().map(|p| sorted(p.heard)).collect();
    Observed { ledger: ledger_of(registry), totals: report.stats, heard }
}

#[test]
fn one_plan_one_ledger_three_runtimes() {
    let sim = on_sim();
    // A node is done once it has heard as much as it did on the simulator.
    let quota: Vec<usize> = sim.heard.iter().map(Vec::len).collect();
    let done = move |p: &Burst| p.heard.len() >= quota[p.me];
    let timeout = Duration::from_secs(30);

    let registry = StatsRegistry::new(N);
    let config = ThreadedConfig { timeout, jitter_micros: 0, seed: 0 };
    let report = wall_clock_fleet(&registry).run(done.clone(), config).expect("threaded runs");
    let threaded = observed(&registry, report);

    let registry = StatsRegistry::new(N);
    let fleet: Net<Burst> = wall_clock_fleet(&registry);
    let net = observed(&registry, fleet.run(done, NetConfig::default()).expect("net runs"));

    // The plan must bite in every way it can, or the parity is vacuous.
    let total = sim.ledger.total();
    assert_eq!(total.sent, (N * (N - 1)) as u64 * BURST);
    assert!(total.dropped > BURST, "omit, partition and drop all destroy: {total:?}");
    assert!(total.duplicated > 0 && total.corrupted > 0, "{total:?}");

    for (label, other) in [("threaded", &threaded), ("net", &net)] {
        for class in MsgClass::ALL {
            let (a, b) = (sim.ledger.class(class), other.ledger.class(class));
            assert_eq!(
                (a.sent, a.dropped, a.duplicated, a.corrupted),
                (b.sent, b.dropped, b.duplicated, b.corrupted),
                "{label}: {} send-side ledger diverged from the simulator's",
                class.label()
            );
            assert_eq!(a.delivered, b.delivered, "{label}: every surviving copy arrives");
        }
        assert_eq!(sim.heard, other.heard, "{label}: nodes heard different payloads");
        assert_eq!(
            SimStats { final_time: VirtualTime::ZERO, ..sim.totals },
            other.totals,
            "{label}: the returned totals are the ledger's, on every runtime"
        );
    }
    for (label, run) in [("sim", &sim), ("threaded", &threaded), ("net", &net)] {
        for class in MsgClass::ALL {
            let ClassCounters { sent, delivered, dropped, duplicated, corrupted, rejected } =
                *run.ledger.class(class);
            assert_eq!(rejected, 0, "{label}: honest frames decode");
            assert_eq!(
                sent + duplicated,
                delivered + dropped + corrupted + rejected + run.ledger.class(class).undelivered(),
                "{label}: {} ledger identity",
                class.label()
            );
        }
        assert_eq!(run.totals.messages_undelivered, 0, "{label}: the run drains");
    }
}
