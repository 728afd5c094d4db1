//! Traced runs: the product protocols' fleets, built with the same public
//! constructors, wrapped in [`Spanned`] and handed to the public
//! `scenario::drive`.
//!
//! Each `run_*` mirrors the matching `Protocol::execute` (default knobs)
//! line for line, so outputs, histories and message counts are
//! bit-identical to `Scenario::run()` — the package's tests assert it. What
//! it adds is a [`RepTrace`]: the wall time of each phase (precompute,
//! fleet construction, `drive`, extraction) and, per actor, the handler
//! time recorded by the wrappers. `drive` wall minus the actors' handler
//! time is the runtime's self time.

use crate::alloc;
use crate::spanned::{NodeRecord, NodeTotals, Sink, SpanConfig, Spanned};
use crate::workloads::{bw_config, bw_topology};
use dbac_baselines::iterative::IterStrategy;
use dbac_baselines::iterengine::{IterLiar, IterMsg, IterNode};
use dbac_baselines::scenario::IterativeTrimmedMean;
use dbac_core::crash::{CrashAfter, CrashMsg, CrashNode, CrashTopology};
use dbac_core::scenario::{
    drive, Adversaries, DriveReport, FaultKind, LinkFaultPlan, Outcome, Scenario, WireMessage,
};
use dbac_core::{HonestNode, RunError};
use dbac_graph::{NodeId, PathBudget};
use dbac_sim::process::{Adversary, Process, Silent};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a traced repetition wraps its fleet.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Time one `on_message` call in this many.
    pub every: u32,
    /// Also count allocations, record node 0's inbox and run the wire-codec
    /// kernels over it. Counting costs several atomic operations per
    /// allocation and the inbox costs a clone per message, so a repetition
    /// run this way yields counts, not times.
    pub counts: bool,
}

/// The wire codec over one recorded inbox (isolated kernels: allocation
/// counting is off while they run).
#[derive(Clone, Copy, Debug, Default)]
pub struct WireKernel {
    /// Messages in the sample.
    pub msgs: u64,
    /// Mean encoded size, bytes.
    pub bytes_per_msg: f64,
    /// `encode` per message, ns.
    pub encode_ns: f64,
    /// `decode` per message, ns.
    pub decode_ns: f64,
}

/// What one traced repetition recorded. Phase boundaries are nanoseconds
/// since the repetition began; the four phases tile `0..total_ns`.
#[derive(Clone, Debug, Default)]
pub struct RepTrace {
    /// End of the precompute phase (`Topology::new`, `CrashTopology::new`,
    /// or the iterative certification).
    pub precompute_end_ns: u64,
    /// End of fleet construction.
    pub fleet_end_ns: u64,
    /// End of `scenario::drive`.
    pub drive_end_ns: u64,
    /// End of outcome extraction — the whole repetition.
    pub total_ns: u64,
    /// Per-actor totals.
    pub nodes: Vec<NodeTotals>,
    /// Link-fault decisions that delayed a message (exact; see
    /// [`count_reordered`]).
    pub reordered: u64,
    /// Wire-codec kernels over node 0's inbox, when counts were requested.
    pub wire: Option<WireKernel>,
    /// Allocator counts across the whole repetition, when requested.
    pub allocs: Option<alloc::Counts>,
    /// Size of the interned path population (0 for the iterative protocol).
    pub paths: u64,
}

impl RepTrace {
    /// `drive` wall time, ns.
    #[must_use]
    pub fn drive_ns(&self) -> u64 {
        self.drive_end_ns - self.fleet_end_ns
    }

    /// Handler time of the honest (`true`) or Byzantine (`false`) actors.
    #[must_use]
    pub fn busy_ns(&self, honest: bool, timer_inside_ns: f64) -> f64 {
        self.nodes.iter().filter(|n| n.honest == honest).map(|n| n.busy_ns(timer_inside_ns)).sum()
    }

    /// Messages handled by honest actors.
    #[must_use]
    pub fn honest_msgs(&self) -> u64 {
        self.nodes.iter().filter(|n| n.honest).map(|n| n.msgs).sum()
    }
}

/// Counts the sends a link-fault plan delayed, from per-edge delivery
/// counts alone. On a simulator run to quiescence with no lossy fault,
/// every send on an edge is delivered, the `k`-th send's fate is
/// `plan.decide(from, to, k)`, and each decision delivers at least one
/// copy — so the number of sends is the unique `K` whose decisions deliver
/// exactly the observed count.
#[must_use]
pub fn count_reordered<M>(plan: &LinkFaultPlan, records: &[NodeRecord<M>]) -> u64 {
    let mut reordered = 0;
    for to in records {
        for (from, &delivered) in to.from_counts.iter().enumerate() {
            let (mut k, mut seen) = (0, 0);
            while seen < delivered {
                let d = plan.decide(NodeId::new(from), to.totals.node, k);
                if d.copies == 0 {
                    break; // a lossy plan: the inversion does not apply
                }
                seen += u64::from(d.copies);
                reordered += u64::from(d.extra_delay > 0);
                k += 1;
            }
        }
    }
    reordered
}

/// Encodes and decodes an even sample of `inbox` (at most `cap` messages,
/// spread over the whole run: early traffic is all floods), timing each
/// pass as one interval.
fn wire_kernel<M: WireMessage>(inbox: &[M], cap: usize) -> WireKernel {
    let inbox: Vec<&M> = inbox.iter().step_by(inbox.len().div_ceil(cap).max(1)).collect();
    if inbox.is_empty() {
        return WireKernel::default();
    }
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(inbox.len());
    let t = Instant::now();
    for m in &inbox {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        frames.push(buf);
    }
    let encode = t.elapsed();
    let t = Instant::now();
    for f in &frames {
        black_box(M::from_bytes(f).is_ok());
    }
    let decode = t.elapsed();
    let n = inbox.len() as f64;
    WireKernel {
        msgs: inbox.len() as u64,
        bytes_per_msg: frames.iter().map(Vec::len).sum::<usize>() as f64 / n,
        encode_ns: encode.as_nanos() as f64 / n,
        decode_ns: decode.as_nanos() as f64 / n,
    }
}

/// Wraps a fleet, drives it, and collects what the wrappers recorded.
#[allow(clippy::type_complexity)]
fn drive_spanned<P>(
    scenario: &Scenario,
    registry: &Arc<dbac_core::StatsRegistry>,
    honest: Vec<(NodeId, P)>,
    byzantine: Adversaries<P::Message>,
    done: fn(&Spanned<P, P::Message>) -> bool,
    extract: &mut dyn FnMut(NodeId, &P),
    span: SpanConfig,
) -> Result<(DriveReport, Vec<NodeRecord<P::Message>>), RunError>
where
    P: Process + Send + 'static,
    P::Message: WireMessage,
{
    let n = scenario.graph().node_count();
    let sink: Sink<P::Message> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let honest = honest
        .into_iter()
        .map(|(v, p)| (v, Spanned::new(p, v, true, n, span, Arc::clone(&sink))))
        .collect();
    let byzantine = byzantine
        .into_iter()
        .map(|(v, a)| {
            let wrapped: Box<dyn Adversary<P::Message> + Send> =
                Box::new(Spanned::new(a, v, false, n, span, Arc::clone(&sink)));
            (v, wrapped)
        })
        .collect();
    let report = drive(scenario, registry, honest, byzantine, done, &mut |v, node| {
        extract(v, node.inner());
    })?;
    // Every runtime has dropped its actors by the time `drive` returns.
    let mut records = std::mem::take(&mut *sink.lock().expect("no wrapper panicked"));
    records.sort_by_key(|r| r.totals.node);
    Ok((report, records))
}

/// Turns wrapper records into the message-type-free part of a trace.
fn finish<M: WireMessage>(
    trace: &mut RepTrace,
    scenario: &Scenario,
    records: Vec<NodeRecord<M>>,
    config: TraceConfig,
) {
    if let Some(plan) = scenario.link_faults() {
        trace.reordered = count_reordered(plan, &records);
    }
    if config.counts {
        if let Some(r) = records.iter().find(|r| r.totals.node == NodeId::new(0)) {
            trace.wire = Some(wire_kernel(&r.inbox, 50_000));
        }
    }
    trace.nodes = records.into_iter().map(|r| r.totals).collect();
}

fn span_config(epoch: Instant, config: TraceConfig) -> SpanConfig {
    SpanConfig {
        every: config.every,
        epoch,
        record_inbox_of: config.counts.then(|| NodeId::new(0)),
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Runs `scenario` traced, dispatching on its protocol's name. Supports
/// the three protocols the workloads use, with their default knobs.
///
/// # Errors
///
/// Whatever the product protocol's `check` / `execute` would return.
///
/// # Panics
///
/// Panics on a protocol other than `byzantine-witness`, `crash-two-reach`
/// or `iterative-trimmed-mean`.
pub fn run_traced(
    scenario: &Scenario,
    config: TraceConfig,
) -> Result<(Outcome, RepTrace), RunError> {
    scenario.protocol().check(scenario)?;
    if config.counts {
        alloc::start();
    }
    let result = match scenario.protocol().name() {
        "byzantine-witness" => run_bw(scenario, config),
        "crash-two-reach" => run_crash(scenario, config),
        "iterative-trimmed-mean" => run_iter(scenario, config),
        other => panic!("no traced replica of protocol {other}"),
    };
    // Each replica stops counting as its repetition ends; this covers the
    // error paths, which return before that point.
    alloc::stop();
    result
}

/// `ByzantineWitness::default().execute`, spanned.
fn run_bw(scenario: &Scenario, tc: TraceConfig) -> Result<(Outcome, RepTrace), RunError> {
    let epoch = Instant::now();
    let mut trace = RepTrace::default();
    let topo = Arc::new(bw_topology(scenario));
    trace.precompute_end_ns = ns_since(epoch);
    trace.paths = topo.index().len() as u64;
    let config = bw_config(scenario);
    let registry = scenario.resolve_stats();
    let honest_set = scenario.honest_set();
    let honest: Vec<(NodeId, HonestNode)> = honest_set
        .iter()
        .map(|v| {
            let node = HonestNode::new(Arc::clone(&topo), config, v, scenario.inputs()[v.index()]);
            (v, node.with_stats(registry.register()))
        })
        .collect();
    let byzantine = scenario
        .faults()
        .iter()
        .map(|(v, kind)| {
            let kind = kind.adversary_kind().expect("checked");
            (*v, kind.build(Arc::clone(&topo), *v, config.rounds))
        })
        .collect();
    trace.fleet_end_ns = ns_since(epoch);
    let n = scenario.graph().node_count();
    let mut outputs = vec![None; n];
    let mut histories = vec![None; n];
    let (report, records) = drive_spanned(
        scenario,
        &registry,
        honest,
        byzantine,
        |s| s.inner().is_done(),
        &mut |v, node: &HonestNode| {
            outputs[v.index()] = node.output();
            histories[v.index()] = Some(node.x_history().to_vec());
        },
        span_config(epoch, tc),
    )?;
    trace.drive_end_ns = ns_since(epoch);
    let outcome = Outcome {
        protocol: "byzantine-witness",
        outputs,
        honest: honest_set,
        epsilon: scenario.epsilon(),
        honest_input_range: scenario.honest_input_range(),
        rounds: config.rounds,
        sim_stats: report.stats,
        incomplete: report.incomplete,
        histories,
        honest_messages: None,
        trace: report.trace,
        certification: None,
    };
    trace.total_ns = ns_since(epoch);
    trace.allocs = tc.counts.then(alloc::stop);
    finish(&mut trace, scenario, records, tc);
    Ok((outcome, trace))
}

/// `CrashTwoReach::default().execute`, spanned.
fn run_crash(scenario: &Scenario, tc: TraceConfig) -> Result<(Outcome, RepTrace), RunError> {
    let epoch = Instant::now();
    let mut trace = RepTrace::default();
    let topo = Arc::new(CrashTopology::new(
        scenario.graph().clone(),
        scenario.f(),
        PathBudget::default(),
    )?);
    trace.precompute_end_ns = ns_since(epoch);
    trace.paths = topo.index().len() as u64;
    let rounds = scenario.rounds();
    let make_node = |v: NodeId| {
        CrashNode::new(
            Arc::clone(&topo),
            v,
            scenario.inputs()[v.index()],
            scenario.epsilon(),
            scenario.range(),
        )
        .with_rounds(rounds)
    };
    let registry = scenario.resolve_stats();
    let honest_set = scenario.honest_set();
    let honest: Vec<(NodeId, CrashNode)> = honest_set.iter().map(|v| (v, make_node(v))).collect();
    let byzantine = scenario
        .faults()
        .iter()
        .map(|&(v, ref kind)| {
            let sends = match kind {
                FaultKind::Crash => 0,
                FaultKind::CrashAfter { sends } => *sends,
                _ => unreachable!("checked"),
            };
            let boxed: Box<dyn Adversary<CrashMsg> + Send> =
                Box::new(CrashAfter::new(make_node(v), sends));
            (v, boxed)
        })
        .collect();
    trace.fleet_end_ns = ns_since(epoch);
    let n = scenario.graph().node_count();
    let mut outputs = vec![None; n];
    let mut histories = vec![None; n];
    let (report, records) = drive_spanned(
        scenario,
        &registry,
        honest,
        byzantine,
        |s| s.inner().is_done(),
        &mut |v, node: &CrashNode| {
            outputs[v.index()] = node.output();
            histories[v.index()] = Some(node.x_history().to_vec());
        },
        span_config(epoch, tc),
    )?;
    trace.drive_end_ns = ns_since(epoch);
    let outcome = Outcome {
        protocol: "crash-two-reach",
        outputs,
        honest: honest_set,
        epsilon: scenario.epsilon(),
        honest_input_range: scenario.honest_input_range(),
        rounds,
        sim_stats: report.stats,
        incomplete: report.incomplete,
        histories,
        honest_messages: None,
        trace: report.trace,
        certification: None,
    };
    trace.total_ns = ns_since(epoch);
    trace.allocs = tc.counts.then(alloc::stop);
    finish(&mut trace, scenario, records, tc);
    Ok((outcome, trace))
}

/// `IterativeTrimmedMean::execute` (rounds from the scenario's override,
/// else the default 60), spanned. The precompute phase is the
/// certification `check` performs.
fn run_iter(scenario: &Scenario, tc: TraceConfig) -> Result<(Outcome, RepTrace), RunError> {
    let epoch = Instant::now();
    let mut trace = RepTrace::default();
    black_box(IterativeTrimmedMean::certification(scenario));
    trace.precompute_end_ns = ns_since(epoch);
    let g = scenario.graph();
    let n = g.node_count();
    let f = scenario.f();
    let rounds =
        scenario.rounds_override().unwrap_or(IterativeTrimmedMean::default().rounds as u32);
    let honest_set = scenario.honest_set();
    let honest: Vec<(NodeId, IterNode)> = honest_set
        .iter()
        .map(|v| (v, IterNode::new(v, g, f, rounds, scenario.inputs()[v.index()])))
        .collect();
    let byzantine = scenario
        .faults()
        .iter()
        .map(|&(v, ref kind)| {
            let boxed: Box<dyn Adversary<IterMsg> + Send> = match *kind {
                FaultKind::Crash => Box::new(Silent),
                FaultKind::ConstantLiar { value } => {
                    Box::new(IterLiar::new(IterStrategy::Constant(value), rounds))
                }
                FaultKind::Ramp { base, slope } => {
                    Box::new(IterLiar::new(IterStrategy::Ramp { base, slope }, rounds))
                }
                _ => unreachable!("checked"),
            };
            (v, boxed)
        })
        .collect();
    let registry = scenario.resolve_stats();
    let gauge = registry.register();
    trace.fleet_end_ns = ns_since(epoch);
    let mut outputs = vec![None; n];
    let mut histories = vec![None; n];
    let mut honest_messages = 0u64;
    let (report, records) = drive_spanned(
        scenario,
        &registry,
        honest,
        byzantine,
        |s| s.inner().is_done(),
        &mut |v, node: &IterNode| {
            if node.is_done() {
                outputs[v.index()] = Some(node.value());
            }
            histories[v.index()] = Some(node.history().to_vec());
            honest_messages += node.sent;
            gauge.add_rounds_fired(u64::from(node.rounds_fired()));
        },
        span_config(epoch, tc),
    )?;
    trace.drive_end_ns = ns_since(epoch);
    let outcome = Outcome {
        protocol: "iterative-trimmed-mean",
        outputs,
        honest: honest_set,
        epsilon: scenario.epsilon(),
        honest_input_range: scenario.honest_input_range(),
        rounds,
        sim_stats: report.stats,
        incomplete: report.incomplete,
        histories,
        honest_messages: Some(honest_messages),
        trace: report.trace,
        certification: Some(IterativeTrimmedMean::certification(scenario)),
    };
    trace.total_ns = ns_since(epoch);
    trace.allocs = tc.counts.then(alloc::stop);
    finish(&mut trace, scenario, records, tc);
    Ok((outcome, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::chaos_plan;
    use dbac_graph::generators;

    /// Forward-simulates a known number of sends per edge, hands
    /// `count_reordered` only the resulting delivery counts, and expects the
    /// forward count back.
    #[test]
    fn reordered_count_is_recovered_from_delivery_counts_alone() {
        let g = generators::clique(5);
        let plan = chaos_plan(&g, 6);
        let mut expected = 0;
        let mut records: Vec<NodeRecord<u64>> =
            g.nodes().map(|v| NodeRecord::empty(v, true, 5)).collect();
        for (i, (u, v)) in g.edges().enumerate() {
            let sends = 100 + 37 * i as u64;
            for k in 0..sends {
                let d = plan.decide(u, v, k);
                assert!(d.copies >= 1, "the workload's plan has no lossy fault");
                records[v.index()].from_counts[u.index()] += u64::from(d.copies);
                expected += u64::from(d.extra_delay > 0);
            }
        }
        assert!(expected > 0, "the plan reorders a third of the edges");
        assert_eq!(count_reordered(&plan, &records), expected);
        assert_eq!(count_reordered(&LinkFaultPlan::new(1), &records), 0);
    }
}
