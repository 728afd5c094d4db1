//! Isolated kernels (the `K` metrics): one public function of one layer,
//! timed alone on the workload's kernel topology.
//!
//! A kernel number says how fast a layer is, not how much of a run it
//! costs — the live split in `perf_traced` says that. They exist so an
//! optimisation of one layer shows at the kernel level as well as at the
//! run level. Every kernel reports the fastest of its iterations: the work
//! is identical each time, so every source of spread is the host.

use crate::measure::Metric;
use crate::stats;
use crate::workloads::{chaos_plan, scenario, Workload};
use dbac_baselines::iterengine::wmsr_step_in_place;
use dbac_core::fifo::{complete_forwards, FifoReceiver};
use dbac_core::filter::filter_and_average;
use dbac_core::scenario::{Runtime, SchedulerSpec, StatsRegistry};
use dbac_core::witness::{NodePlan, RoundCore, WitnessScratch};
use dbac_core::{CompletePayload, FloodMode, MessageSet, Topology};
use dbac_graph::paths::redundant_paths_ending_at;
use dbac_graph::{generators, Digraph, NodeId, NodeSet, Path, PathBudget, PathId, PathIndex};
use dbac_sim::net::codec::{write_frame, FrameReader};
use dbac_sim::net::{Net, NetConfig};
use dbac_sim::process::{Context, Process};
use dbac_sim::sim::Simulation;
use dbac_sim::stats::MsgClass;
use dbac_sim::threaded::{Threaded, ThreadedConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repeats `batch` (which performs `ops` operations) for about 40 ms — once
/// only when `quick` — and returns the fastest nanoseconds per operation.
fn fastest_ns(quick: bool, ops: usize, mut batch: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(40);
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
        if quick || start.elapsed() >= budget {
            return best;
        }
    }
}

/// A relay with no protocol work: every node starts one token down its
/// ring edge, and each arrival forwards the token until its hop budget is
/// spent. What it costs per message is the runtime alone.
struct Relay {
    next: NodeId,
    hops: u64,
    received: u64,
}

impl Process for Relay {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.send(self.next, self.hops);
    }

    fn on_message(&mut self, ctx: &mut Context<u64>, _from: NodeId, left: u64) {
        self.received += 1;
        if left > 1 {
            ctx.send(self.next, left - 1);
        }
    }
}

/// Tokens circulate `HOPS` hops each on a 5-cycle inside K5: every node
/// receives exactly `HOPS` messages.
const RELAY_NODES: usize = 5;

fn relay_fleet(hops: u64) -> Vec<(NodeId, Relay)> {
    (0..RELAY_NODES)
        .map(|i| {
            let next = NodeId::new((i + 1) % RELAY_NODES);
            (NodeId::new(i), Relay { next, hops, received: 0 })
        })
        .collect()
}

fn null_runtime_kernels(quick: bool, seed: u64, out: &mut Vec<Metric>) {
    let g = Arc::new(generators::clique(RELAY_NODES));
    let hops: u64 = if quick { 200 } else { 20_000 };
    let msgs = hops as usize * RELAY_NODES;

    let sim = fastest_ns(quick, msgs, || {
        let policy = SchedulerSpec::Random { seed, min: 1, max: 15 }.build();
        let mut sim: Simulation<Relay> = Simulation::new(Arc::clone(&g), policy);
        sim.set_stats(StatsRegistry::new(RELAY_NODES));
        for (v, p) in relay_fleet(hops) {
            sim.set_honest(v, p);
        }
        let stats = sim.run().expect("relay quiesces");
        assert_eq!(stats.messages_delivered, msgs as u64);
    });
    out.push(Metric::new("sim.sim.null_ns_per_msg", sim, "ns"));

    let hops: u64 = if quick { 200 } else { 4_000 };
    let msgs = hops as usize * RELAY_NODES;
    let timeout = Duration::from_secs(60);
    // The threaded runtimes run once: a run is thousands of messages, and
    // spawning the fleet again costs more than it would steady.
    let threaded = fastest_ns(true, msgs, || {
        let mut rt: Threaded<Relay> = Threaded::new(Arc::clone(&g));
        rt.set_stats(StatsRegistry::new(RELAY_NODES));
        for (v, p) in relay_fleet(hops) {
            rt.set_honest(v, p);
        }
        let config = ThreadedConfig { timeout, jitter_micros: 0, seed };
        let report = rt.run(move |p| p.received >= hops, config).expect("relay runs");
        assert!(report.incomplete.is_empty(), "threaded relay finished");
    });
    out.push(Metric::new("sim.threaded.null_ns_per_msg", threaded, "ns"));

    let net = fastest_ns(true, msgs, || {
        let mut rt: Net<Relay> = Net::new(Arc::clone(&g));
        rt.set_stats(StatsRegistry::new(RELAY_NODES));
        for (v, p) in relay_fleet(hops) {
            rt.set_honest(v, p);
        }
        let report =
            rt.run(move |p| p.received >= hops, NetConfig { timeout, ..NetConfig::default() });
        assert!(report.expect("relay runs").incomplete.is_empty(), "net relay finished");
    });
    out.push(Metric::new("sim.net.null_ns_per_msg", net, "ns"));
}

/// The BW K5 liar fleet of `bw_k5_net` on `Runtime::Threaded` with no
/// injected jitter: the same protocol work without codec, framing and
/// sockets. Median of the runs (the thread schedule changes the work).
fn threaded_bw_k5(quick: bool, seed: u64) -> f64 {
    let scn = scenario(Workload::BwK5Net, seed)
        .with_runtime(Runtime::Threaded { timeout: Duration::from_secs(60), jitter_micros: 0 });
    let runs = if quick { 1 } else { 5 };
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            let out = scn.run().expect("threaded K5 runs");
            let dt = t.elapsed().as_secs_f64();
            assert!(out.incomplete.is_empty() && out.converged(), "threaded K5 converged");
            dt
        })
        .collect();
    stats::median(&times)
}

fn sim_layer_kernels(quick: bool, seed: u64, g: &Digraph, out: &mut Vec<Metric>) {
    const CALLS: usize = 100_000;
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();

    let mut policy = SchedulerSpec::Random { seed, min: 1, max: 15 }.build();
    let delay = fastest_ns(quick, CALLS, || {
        let mut now = dbac_sim::VirtualTime::ZERO;
        for i in 0..CALLS {
            let (u, v) = edges[i % edges.len()];
            now = policy.delivery_time(now, u, v);
        }
        black_box(now);
    });
    out.push(Metric::new("sim.scheduler.delay_ns", delay, "ns"));

    let plan = chaos_plan(g, seed);
    let decide = fastest_ns(quick, CALLS, || {
        let mut copies = 0u64;
        for i in 0..CALLS {
            let (u, v) = edges[i % edges.len()];
            copies += u64::from(plan.decide(u, v, (i / edges.len()) as u64).copies);
        }
        black_box(copies);
    });
    out.push(Metric::new("sim.chaos.decide_ns", decide, "ns"));

    let n = g.node_count();
    let registry = StatsRegistry::new(n);
    let handle = registry.register();
    let record = fastest_ns(quick, CALLS, || {
        for i in 0..CALLS {
            let class = if i % 8 == 0 { MsgClass::Complete } else { MsgClass::Flood };
            handle.record_sent(class);
            handle.record_enqueued(i % n);
            handle.record_delivered(class);
            handle.record_consumed(i % n);
        }
    });
    out.push(Metric::new("sim.stats.record_ns_per_msg", record, "ns"));
    // One shard per node plus the runtime's, as a BW run registers them.
    let _shards: Vec<_> = (0..n).map(|_| registry.register()).collect();
    let snapshot = fastest_ns(quick, 100, || {
        for _ in 0..100 {
            black_box(registry.snapshot());
        }
    });
    out.push(Metric::new("sim.stats.snapshot_ns", snapshot, "ns"));

    let body = [0xABu8; 40];
    let frames = 10_000;
    let roundtrip = fastest_ns(quick, frames, || {
        let mut wire = Vec::with_capacity(frames * 44);
        for _ in 0..frames {
            write_frame(&mut wire, &body).expect("in-memory write");
        }
        let mut reader = FrameReader::new(wire.as_slice());
        let mut read = 0;
        while let Some(frame) = reader.read_frame(&|| false).expect("well-formed stream") {
            read += frame.len();
        }
        assert_eq!(read, frames * body.len());
    });
    out.push(Metric::new("sim.net.codec.frame_roundtrip_ns", roundtrip, "ns"));
}

fn graph_and_precompute_kernels(quick: bool, g: &Digraph, out: &mut Vec<Metric>) -> Topology {
    let budget = PathBudget::default();
    let mut pools: Vec<Vec<Path>> = Vec::new();
    let enumerate = fastest_ns(quick, 1, || {
        pools = g
            .nodes()
            .map(|v| redundant_paths_ending_at(g, v, NodeSet::EMPTY, budget).expect("in budget"))
            .collect();
    });
    out.push(Metric::new("graph.paths.enumerate_s", enumerate / 1e9, "s"));
    let build = fastest_ns(quick, 1, || {
        black_box(PathIndex::build(g, &pools));
    });
    out.push(Metric::new("graph.path_index.build_s", build / 1e9, "s"));
    drop(pools);

    let mut topo = None;
    let topology_new = fastest_ns(quick, 1, || {
        topo = Some(Topology::new(g.clone(), 1, FloodMode::Redundant, budget).expect("in budget"));
    });
    out.push(Metric::new("core.precompute.topology_new_s", topology_new / 1e9, "s"));
    let topo = topo.expect("ran at least once");
    let node_plan = fastest_ns(quick, 1, || {
        black_box(NodePlan::new(&topo, NodeId::new(0)));
    });
    out.push(Metric::new("core.precompute.node_plan_s", node_plan / 1e9, "s"));
    topo
}

/// Node 0's full round history: every pool path toward node 0 carrying
/// its initiator's value — the state the Maximal-Consistency scans run on.
fn full_history(topo: &Topology) -> MessageSet {
    let mut m = MessageSet::new();
    for &p in topo.required_paths_to(NodeId::new(0)) {
        m.insert(p, topo.index().init(p).index() as f64);
    }
    m
}

fn core_kernels(quick: bool, topo: &Topology, out: &mut Vec<Metric>) {
    let v0 = NodeId::new(0);
    let index = topo.index();
    let plan = NodePlan::new(topo, v0);
    let guesses: Vec<NodeSet> = topo.guesses().to_vec();
    let full = full_history(topo);

    // core::witness
    let floods: Vec<(PathId, f64)> = full.iter().filter(|&(p, _)| !index.is_trivial(p)).collect();
    let ingest = fastest_ns(quick, floods.len(), || {
        let mut core = RoundCore::new(topo, &plan);
        let mut scratch = WitnessScratch::new();
        let mut actions = core.start(0.0, topo, &plan, &mut scratch).len();
        for &(p, v) in &floods {
            actions += core.add_flood(p, v, topo, &plan, &mut scratch).1.len();
        }
        black_box(actions);
    });
    out.push(Metric::new("core.witness.round_ingest_ns_per_flood", ingest, "ns"));

    let mut equivocating = MessageSet::new();
    for (p, _) in full.iter() {
        equivocating.insert(p, index.node_count(p) as f64);
    }
    let scans = 2 * plan.guesses().len();
    let mc_scan = fastest_ns(quick, scans, || {
        let mut hits = 0usize;
        for m in [&full, &equivocating] {
            for i in 0..plan.guesses().len() {
                let st = plan.mc_status(i, m);
                hits += usize::from(st.full) + usize::from(st.consistent);
            }
        }
        black_box(hits);
    });
    out.push(Metric::new("core.witness.mc_scan_ns", mc_scan, "ns"));

    let simple: Vec<PathId> = topo.simple_paths_to(v0).to_vec();
    let payload = {
        let mut m = MessageSet::new();
        for (i, &p) in simple.iter().filter(|&&p| !index.is_trivial(p)).take(8).enumerate() {
            m.insert(p, i as f64);
        }
        Arc::new(CompletePayload::from_message_set(&m))
    };
    let fp = payload.fingerprint();
    let fra = fastest_ns(quick, simple.len(), || {
        let mut core = RoundCore::new(topo, &plan);
        let mut scratch = WitnessScratch::new();
        let mut actions = core.start(0.0, topo, &plan, &mut scratch).len();
        for &p in &simple {
            let init = index.init(p);
            actions += core
                .add_fifo_delivery(init, p, NodeSet::EMPTY, &payload, fp, topo, &plan, &mut scratch)
                .len();
        }
        black_box(actions);
    });
    out.push(Metric::new("core.witness.fra_scan_ns", fra, "ns"));

    // core::message_set
    let exclusion = fastest_ns(quick, guesses.len(), || {
        let mut kept = 0usize;
        for &g in &guesses {
            kept += full.exclusion(g, index).len();
        }
        black_box(kept);
    });
    out.push(Metric::new("core.message_set.exclusion_ns", exclusion, "ns"));
    let fullness = fastest_ns(quick, guesses.len(), || {
        let mut hits = 0usize;
        for &g in &guesses {
            hits += usize::from(full.is_full_avoiding(g, v0, index));
        }
        black_box(hits);
    });
    out.push(Metric::new("core.message_set.fullness_ns", fullness, "ns"));
    let gather = fastest_ns(quick, 1, || {
        black_box(CompletePayload::from_message_set(&full).fingerprint());
    });
    out.push(Metric::new("core.message_set.payload_gather_fingerprint_ns", gather, "ns"));

    // core::fifo: eight counters on every channel toward node 0.
    const SEQS: u64 = 8;
    let channels: Vec<PathId> = simple.iter().copied().filter(|&p| !index.is_trivial(p)).collect();
    let accepts = channels.len() * SEQS as usize;
    let accept = |rx: &mut FifoReceiver, p: PathId, seq: u64| {
        rx.accept(p, index.init(p), seq, 0, NodeSet::EMPTY, Arc::clone(&payload)).len()
    };
    let in_order = fastest_ns(quick, accepts, || {
        let mut rx = FifoReceiver::new();
        let mut delivered = 0;
        for &p in &channels {
            for seq in 1..=SEQS {
                delivered += accept(&mut rx, p, seq);
            }
        }
        assert_eq!(delivered, accepts);
    });
    out.push(Metric::new("core.fifo.accept_in_order_ns", in_order, "ns"));
    let gap_close = fastest_ns(quick, accepts, || {
        let mut rx = FifoReceiver::new();
        let mut delivered = 0;
        for &p in &channels {
            for seq in 2..=SEQS {
                delivered += accept(&mut rx, p, seq);
            }
            delivered += accept(&mut rx, p, 1);
        }
        assert_eq!(delivered, accepts);
    });
    out.push(Metric::new("core.fifo.accept_gap_close_ns", gap_close, "ns"));
    let replay = fastest_ns(quick, accepts, || {
        let mut rx = FifoReceiver::new();
        let mut delivered = 0;
        for &p in &channels {
            for _ in 0..SEQS {
                delivered += accept(&mut rx, p, 1);
            }
        }
        assert_eq!(delivered, channels.len());
    });
    out.push(Metric::new("core.fifo.accept_replay_ns", replay, "ns"));

    let stored: Vec<PathId> =
        topo.graph().nodes().flat_map(|v| topo.simple_paths_to(v).iter().copied()).collect();
    let forwards = fastest_ns(quick, stored.len(), || {
        let mut sent = 0usize;
        for &p in &stored {
            sent += complete_forwards(topo, index.ter(p), 0, NodeSet::EMPTY, &payload, p, 1).len();
        }
        black_box(sent);
    });
    out.push(Metric::new("core.fifo.complete_forwards_ns", forwards, "ns"));

    let n = topo.graph().node_count();
    let filter = fastest_ns(quick, 1, || {
        black_box(filter_and_average(&full, topo.f(), v0, n, index));
    });
    out.push(Metric::new("core.filter.filter_and_average_ns", filter, "ns"));
}

fn wmsr_kernel(quick: bool, out: &mut Vec<Metric>) {
    // In-degree 8, f = 1: the shape of a `circulant_pow2(256)` node.
    const DEG: usize = 8;
    const ROUNDS: usize = 2_000;
    let columns: Vec<f64> =
        (0..ROUNDS * DEG).map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 10.0).collect();
    let step = fastest_ns(quick, ROUNDS, || {
        let mut own = 50.0f64;
        let mut scratch: Vec<f64> = Vec::with_capacity(DEG);
        for r in 0..ROUNDS {
            scratch.clear();
            scratch.extend_from_slice(&columns[r * DEG..(r + 1) * DEG]);
            own = wmsr_step_in_place(own, &mut scratch, 1);
        }
        black_box(own);
    });
    out.push(Metric::new("baselines.iterengine.wmsr_step_ns", step, "ns"));
}

/// Runs every isolated kernel for workload `w`. `quick` (the `--check`
/// pass, whose timings mean nothing) runs each once, and always on K5: it
/// exercises the same calls without enumerating `figure_1b_small` again.
#[must_use]
pub fn run(w: Workload, seed: u64, quick: bool) -> Vec<Metric> {
    let g = if quick { generators::clique(5) } else { w.kernel_graph() };
    let mut out = Vec::new();
    let topo = graph_and_precompute_kernels(quick, &g, &mut out);
    out.push(Metric::new("graph.path_index.paths", topo.index().len() as f64, "count"));
    core_kernels(quick, &topo, &mut out);
    drop(topo);
    sim_layer_kernels(quick, seed, &g, &mut out);
    null_runtime_kernels(quick, seed, &mut out);
    out.push(Metric::new("sim.threaded.bw_k5_run_s", threaded_bw_k5(quick, seed), "s"));
    wmsr_kernel(quick, &mut out);
    out
}
