//! The per-layer ledger: what `perf_traced` measures and how each metric
//! is derived. [`PER_LAYER`] is the list `BENCHMARK.json` must match.
//!
//! Naming rule: a metric carries a crate prefix (`graph.`, `core.`, `sim.`,
//! `baselines.`) when the same module is measured on every workload (the
//! isolated kernels and the exact counters), and a role prefix (`node.`,
//! `runtime.`, `wire.`, `precompute.`) when the module that plays the role
//! depends on the workload — `perf/README.md` maps role to module.

use crate::alloc::Counts;
use crate::json::{obj, Value};
use crate::kernels;
use crate::measure::{self, Args, Metric};
use crate::stats;
use crate::traced::{run_traced, RepTrace, TraceConfig, WireKernel};
use crate::workloads::{
    digest_cells, digest_outcome, ledger_ok, Prepared, RepDigest, Workload, SWEEP_CELLS,
};
use dbac_core::scenario::sweep::{CellSummary, Sweep};
use dbac_core::scenario::{Outcome, ProtocolCounters, Scenario};
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in reporting order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.paths.enumerate_s", "s"),
    ("graph.path_index.build_s", "s"),
    ("core.precompute.topology_new_s", "s"),
    ("core.precompute.node_plan_s", "s"),
    ("graph.path_index.paths", "count"),
    ("core.witness.round_ingest_ns_per_flood", "ns"),
    ("core.witness.mc_scan_ns", "ns"),
    ("core.witness.fra_scan_ns", "ns"),
    ("core.message_set.exclusion_ns", "ns"),
    ("core.message_set.fullness_ns", "ns"),
    ("core.message_set.payload_gather_fingerprint_ns", "ns"),
    ("core.fifo.accept_in_order_ns", "ns"),
    ("core.fifo.accept_gap_close_ns", "ns"),
    ("core.fifo.accept_replay_ns", "ns"),
    ("core.fifo.complete_forwards_ns", "ns"),
    ("core.filter.filter_and_average_ns", "ns"),
    ("sim.scheduler.delay_ns", "ns"),
    ("sim.chaos.decide_ns", "ns"),
    ("sim.stats.record_ns_per_msg", "ns"),
    ("sim.stats.snapshot_ns", "ns"),
    ("sim.net.codec.frame_roundtrip_ns", "ns"),
    ("sim.sim.null_ns_per_msg", "ns"),
    ("sim.threaded.null_ns_per_msg", "ns"),
    ("sim.net.null_ns_per_msg", "ns"),
    ("sim.threaded.bw_k5_run_s", "s"),
    ("baselines.iterengine.wmsr_step_ns", "ns"),
    ("precompute.share_of_run", "ratio"),
    ("node.busy_s", "s"),
    ("node.msgs", "count"),
    ("node.ns_per_msg", "ns"),
    ("node.busy_share", "ratio"),
    ("node.on_message_p99_ns", "ns"),
    ("runtime.self_s", "s"),
    ("runtime.self_ns_per_msg", "ns"),
    ("runtime.self_share", "ratio"),
    ("runtime.delivered_share", "ratio"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("core.witness.mc_firings", "count"),
    ("core.witness.witness_completions", "count"),
    ("core.witness.fra_marks", "count"),
    ("core.witness.rounds_fired", "count"),
    ("sim.chaos.duplicated", "count"),
    ("sim.chaos.reordered", "count"),
    ("sim.chaos.ledger_ok", "count"),
    ("sim.msgs_per_s", "1/s"),
    ("sim.ns_per_msg", "ns"),
    ("core.sweep.cells_per_s", "1/s"),
    ("core.sweep.parallel_efficiency", "ratio"),
    ("core.sweep.reduce_share", "ratio"),
    ("proc.allocs_per_msg", "count"),
    ("proc.alloc_bytes_per_msg", "B"),
    ("proc.peak_live_mb", "MiB"),
    ("proc.cpu_s_per_rep", "s"),
    ("trace.timer_pair_ns", "ns"),
    ("trace.overhead_share", "ratio"),
];

/// What one `perf_traced` invocation produced.
pub struct Report {
    /// Every [`PER_LAYER`] metric, in order.
    pub metrics: Vec<Metric>,
    /// The trace file's contents.
    pub trace_json: String,
    /// Human-readable findings printed above the metrics.
    pub notes: Vec<String>,
    /// Repetitions started (untraced and traced).
    pub attempted: usize,
    /// Repetitions that failed a check.
    pub failed: usize,
}

/// Cost of `Instant::now()`: the whole pair, and the part that falls
/// inside a timed interval (which is what a span over-reads by).
fn calibrate_timer() -> (f64, f64) {
    const N: u32 = 200_000;
    let mut inside = Duration::ZERO;
    let start = Instant::now();
    for _ in 0..N {
        let t = Instant::now();
        inside += t.elapsed();
    }
    let pair = start.elapsed();
    (pair.as_nanos() as f64 / f64::from(N), inside.as_nanos() as f64 / f64::from(N))
}

/// One traced repetition reduced to the numbers the ledger needs; sums
/// over cells for the sweep.
#[derive(Clone, Debug, Default)]
struct Split {
    total_ns: u64,
    precompute_ns: u64,
    drive_ns: u64,
    honest_busy_ns: f64,
    adversary_busy_ns: f64,
    honest_msgs: u64,
    delivered: u64,
    sent: u64,
    duplicated: u64,
    reordered: u64,
    ledger_ok: bool,
    protocol: ProtocolCounters,
    allocs: Counts,
    /// Wire-codec pass over node 0's inbox (counting repetitions only).
    wire: Option<WireKernel>,
}

impl Split {
    fn of(out: &Outcome, trace: &RepTrace, timer_inside_ns: f64) -> Split {
        Split {
            total_ns: trace.total_ns,
            precompute_ns: trace.precompute_end_ns,
            drive_ns: trace.drive_ns(),
            honest_busy_ns: trace.busy_ns(true, timer_inside_ns),
            adversary_busy_ns: trace.busy_ns(false, timer_inside_ns),
            honest_msgs: trace.honest_msgs(),
            delivered: out.sim_stats.messages_delivered(),
            sent: out.sim_stats.messages_sent(),
            duplicated: out.sim_stats.messages_duplicated(),
            reordered: trace.reordered,
            ledger_ok: ledger_ok(&out.sim_stats),
            protocol: out.sim_stats.protocol,
            allocs: trace.allocs.unwrap_or_default(),
            wire: trace.wire,
        }
    }

    fn add(&mut self, o: &Split) {
        self.total_ns += o.total_ns;
        self.precompute_ns += o.precompute_ns;
        self.drive_ns += o.drive_ns;
        self.honest_busy_ns += o.honest_busy_ns;
        self.adversary_busy_ns += o.adversary_busy_ns;
        self.honest_msgs += o.honest_msgs;
        self.delivered += o.delivered;
        self.sent += o.sent;
        self.duplicated += o.duplicated;
        self.reordered += o.reordered;
        self.ledger_ok &= o.ledger_ok;
        self.protocol.rounds_fired += o.protocol.rounds_fired;
        self.protocol.witness_completions += o.protocol.witness_completions;
        self.protocol.mc_firings += o.protocol.mc_firings;
        self.protocol.fra_marks += o.protocol.fra_marks;
        self.allocs.allocs += o.allocs.allocs;
        self.allocs.bytes += o.allocs.bytes;
        self.allocs.peak_live_bytes = self.allocs.peak_live_bytes.max(o.allocs.peak_live_bytes);
        self.wire = self.wire.or(o.wire);
    }

    /// `drive` wall minus every actor's handler time.
    fn runtime_self_ns(&self) -> f64 {
        self.drive_ns as f64 - self.honest_busy_ns - self.adversary_busy_ns
    }
}

/// One traced repetition: its split, and the traces behind it (one per
/// cell for the sweep).
struct TracedRep {
    split: Split,
    traces: Vec<(String, RepTrace)>,
}

/// Everything the alternating loop collected.
#[derive(Default)]
struct Collected {
    untraced_s: Vec<f64>,
    /// Sweep only: `reduce()` share of the untraced timed call, and the
    /// sequential untraced cell sum.
    reduce_s: Vec<f64>,
    cell_sum_s: Vec<f64>,
    /// The first traced repetition: allocation counting and inbox
    /// recording on, so it yields counts and no times.
    counted: Option<TracedRep>,
    /// The rest: spans only; the time split and the overhead come from
    /// these.
    traced: Vec<TracedRep>,
    cpu_s: f64,
    attempted: usize,
    failed: usize,
}

impl Collected {
    fn keep(&mut self, counts: bool, rep: TracedRep) {
        if counts {
            self.counted = Some(rep);
        } else {
            self.traced.push(rep);
        }
    }
}

fn note_failures(c: &mut Collected, what: &str, failures: &[&'static str]) {
    c.attempted += 1;
    if !failures.is_empty() {
        c.failed += 1;
        if c.failed <= 3 {
            eprintln!("{what} failed checks: {failures:?}");
        }
    }
}

/// Checks a traced repetition against the untraced one beside it: on a
/// deterministic workload the wrappers must change nothing observable.
fn traced_failures(w: Workload, untraced: &RepDigest, traced: &RepDigest) -> Vec<&'static str> {
    let mut failures = traced.failures.clone();
    if w.deterministic() && (untraced.delivered != traced.delivered || untraced.bits != traced.bits)
    {
        failures.push("traced_differs_from_untraced");
    }
    failures
}

fn pair_single(w: Workload, prepared: &Prepared, scn: &Scenario, ti: f64, c: &mut Collected) {
    let cpu0 = measure::cpu_seconds();
    let (dt, untraced) = prepared.rep();
    c.cpu_s += measure::cpu_seconds() - cpu0;
    note_failures(c, "untraced rep", &untraced.failures);
    if untraced.failures.is_empty() {
        c.untraced_s.push(dt.as_secs_f64());
    }
    let config = TraceConfig { every: w.span_every(), counts: c.counted.is_none() };
    let (out, trace) = run_traced(scn, config).expect("workload run succeeds");
    let failures = traced_failures(w, &untraced, &digest_outcome(w, &out));
    note_failures(c, "traced rep", &failures);
    if failures.is_empty() {
        let split = Split::of(&out, &trace, ti);
        c.keep(config.counts, TracedRep { split, traces: vec![(w.name().to_string(), trace)] });
    }
}

fn pair_sweep(sweep: &Sweep, ti: f64, c: &mut Collected) {
    let w = Workload::SweepSmallCells;
    // The product call, as `perf` times it — but split at `reduce()`.
    let cpu0 = measure::cpu_seconds();
    let t = Instant::now();
    let report = sweep.run();
    let run = t.elapsed();
    let reduced = report.reduce();
    let both = t.elapsed();
    std::hint::black_box(&reduced);
    c.cpu_s += measure::cpu_seconds() - cpu0;
    let untraced = crate::workloads::digest_sweep(&report);
    note_failures(c, "untraced rep", &untraced.failures);
    if untraced.failures.is_empty() {
        c.untraced_s.push(both.as_secs_f64());
        c.reduce_s.push((both - run).as_secs_f64());
    }
    // Every cell again, one after another on this thread: untraced (for the
    // cell sum) and traced (for the split) alternate cell by cell, so both
    // sums see the same host and the same allocator state.
    let mut cell_sum = Duration::ZERO;
    let mut split = Split { ledger_ok: true, ..Split::default() };
    let mut traces = Vec::with_capacity(SWEEP_CELLS);
    let mut summaries: Vec<CellSummary> = Vec::with_capacity(SWEEP_CELLS);
    let config = TraceConfig { every: w.span_every(), counts: c.counted.is_none() };
    for cell in sweep.cells() {
        let scn = cell.scenario().expect("sweep cells build");
        let t = Instant::now();
        std::hint::black_box(scn.run().expect("cell runs"));
        cell_sum += t.elapsed();
        let (out, trace) = run_traced(scn, config).expect("cell runs");
        split.add(&Split::of(&out, &trace, ti));
        summaries.push(CellSummary::digest(&out));
        traces.push((cell.label().to_string(), trace));
    }
    c.cell_sum_s.push(cell_sum.as_secs_f64());
    let failures = traced_failures(w, &untraced, &digest_cells(summaries.iter().map(Some)));
    note_failures(c, "traced rep", &failures);
    if failures.is_empty() {
        c.keep(config.counts, TracedRep { split, traces });
    }
}

/// The traced repetition the live split is read from, chosen by the same
/// statistic as the headline times: the fastest where repetitions do
/// identical work, the first decile otherwise. All split metrics come from
/// this one repetition, so their identities hold exactly.
fn representative(w: Workload, traced: &[TracedRep]) -> usize {
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by_key(|&i| traced[i].split.total_ns);
    if w.deterministic() {
        order[0]
    } else {
        order[order.len() / 10]
    }
}

/// p99 of the kept `on_message` spans of honest actors, pooled over all
/// traced repetitions — or the highest percentile that still has ten
/// samples beyond it, when p99 does not.
fn on_message_p99_ns(traced: &[TracedRep]) -> f64 {
    let mut sorted: Vec<f64> = traced
        .iter()
        .flat_map(|r| &r.traces)
        .flat_map(|(_, t)| &t.nodes)
        .filter(|n| n.honest)
        .flat_map(|n| n.spans.iter().map(|&(_, d)| d as f64))
        .collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p99 = (n * 99) / 100;
    sorted[p99.min(n.saturating_sub(11))]
}

fn trace_json(w: Workload, seed: u64, timer: (f64, f64), c: &Collected, rep_id: usize) -> String {
    let rep = &c.traced[rep_id];
    let num = |x: f64| Value::Num(x);
    let mut spans = Vec::new();
    let push =
        |name: String, start: u64, end: u64, parent: Option<usize>, spans: &mut Vec<Value>| {
            let id = spans.len();
            spans.push(obj([
                ("id", num(id as f64)),
                ("name", Value::Str(name)),
                ("start_ns", num(start as f64)),
                ("end_ns", num(end as f64)),
                ("parent", parent.map_or(Value::Null, |p| num(p as f64))),
                ("rep", num(rep_id as f64)),
            ]));
            id
        };
    // Cells ran back to back; lay their traces end to end under one root.
    let root = push(w.name().to_string(), 0, rep.split.total_ns, None, &mut spans);
    let mut offset = 0;
    for (label, t) in &rep.traces {
        let cell = if rep.traces.len() > 1 {
            push(format!("cell {label}"), offset, offset + t.total_ns, Some(root), &mut spans)
        } else {
            root
        };
        let at = |ns: u64| offset + ns;
        push("precompute".into(), at(0), at(t.precompute_end_ns), Some(cell), &mut spans);
        push("fleet".into(), at(t.precompute_end_ns), at(t.fleet_end_ns), Some(cell), &mut spans);
        let drive =
            push("drive".into(), at(t.fleet_end_ns), at(t.drive_end_ns), Some(cell), &mut spans);
        push("extract".into(), at(t.drive_end_ns), at(t.total_ns), Some(cell), &mut spans);
        for n in &t.nodes {
            let who = if n.honest { "node" } else { "adversary" };
            let name = format!("{who}{}.on_start", n.node.index());
            push(name, at(n.start_at_ns), at(n.start_at_ns + n.start_ns), Some(drive), &mut spans);
            for &(start, dur) in &n.spans {
                let name = format!("{who}{}.on_message", n.node.index());
                push(name, at(start), at(start + dur), Some(drive), &mut spans);
            }
        }
        offset += t.total_ns;
    }
    let actors: Vec<Value> = rep
        .traces
        .iter()
        .flat_map(|(label, t)| {
            t.nodes.iter().map(move |n| {
                obj([
                    ("cell", Value::Str(label.clone())),
                    ("node", num(n.node.index() as f64)),
                    ("honest", Value::Bool(n.honest)),
                    ("msgs", num(n.msgs as f64)),
                    ("timed", num(n.timed as f64)),
                    ("timed_ns", num(n.timed_ns as f64)),
                    ("on_start_ns", num(n.start_ns as f64)),
                    ("busy_ns", num(n.busy_ns(timer.1))),
                ])
            })
        })
        .collect();
    let reps: Vec<Value> = c
        .traced
        .iter()
        .map(|r| {
            obj([
                ("total_ns", num(r.split.total_ns as f64)),
                ("precompute_ns", num(r.split.precompute_ns as f64)),
                ("drive_ns", num(r.split.drive_ns as f64)),
                ("honest_busy_ns", num(r.split.honest_busy_ns)),
                ("adversary_busy_ns", num(r.split.adversary_busy_ns)),
                ("runtime_self_ns", num(r.split.runtime_self_ns())),
                ("delivered", num(r.split.delivered as f64)),
            ])
        })
        .collect();
    obj([
        ("workload", w.name().into()),
        ("seed", num(seed as f64)),
        ("span_every", num(f64::from(w.span_every()))),
        ("keep_one_span_in", num(crate::spanned::KEEP_ONE_SPAN_IN as f64)),
        ("timer_pair_ns", num(timer.0)),
        ("timer_inside_span_ns", num(timer.1)),
        ("untraced_run_s", Value::Arr(c.untraced_s.iter().map(|&x| num(x)).collect())),
        ("traced_reps", Value::Arr(reps)),
        ("spans_of_rep", num(rep_id as f64)),
        ("actors", Value::Arr(actors)),
        ("spans", Value::Arr(spans)),
    ])
    .render()
}

/// Runs the whole per-layer measurement for `args`.
///
/// # Panics
///
/// Panics if no traced repetition passes its checks, or if the metrics
/// assembled do not match [`PER_LAYER`] — both are bugs, not measurements.
#[must_use]
pub fn run(args: Args) -> Report {
    let w = args.workload;
    let start = Instant::now();
    let timer = calibrate_timer();
    let mut metrics = kernels::run(w, args.seed, args.check);
    let kernels_s = start.elapsed().as_secs_f64();

    let budget = Duration::from_secs_f64(if args.check { 0.0 } else { args.seconds });
    let min_pairs = if args.check { 1 } else { 3 };
    let prepared = Prepared::new(w, args.seed);
    let mut c = Collected::default();
    let mut pairs = 0;
    while pairs < min_pairs || start.elapsed() < budget {
        match &prepared {
            Prepared::One(_, scn) => pair_single(w, &prepared, scn, timer.1, &mut c),
            Prepared::Sweep(sweep) => pair_sweep(sweep, timer.1, &mut c),
        }
        pairs += 1;
    }
    let counted = c.counted.take().expect("the counting repetition passed its checks");
    if c.traced.is_empty() {
        // `--check` runs one pair only: it stands in for the timed ones too.
        c.traced.push(TracedRep { split: counted.split.clone(), traces: counted.traces.clone() });
    }
    assert!(!c.untraced_s.is_empty(), "no untraced repetition passed its checks");

    let rep_id = representative(w, &c.traced);
    let rep = &c.traced[rep_id];
    let s = &rep.split;
    let counts = &counted.split;
    let run_s = measure::headline(w, &c.untraced_s);
    let traced_s: Vec<f64> = c.traced.iter().map(|r| r.split.total_ns as f64 / 1e9).collect();
    // Like for like: the sweep's traced pass is sequential, so its base is
    // the sequential untraced pass, not the parallel product call.
    let overhead_base =
        if w == Workload::SweepSmallCells { stats::min(&c.cell_sum_s) } else { run_s };
    let overhead = measure::headline(w, &traced_s) / overhead_base - 1.0;
    let delivered = s.delivered as f64;
    let drive = s.drive_ns as f64;
    let wire = counts.wire.unwrap_or_default();
    let (cells_per_s, efficiency, reduce_share) = if w == Workload::SweepSmallCells {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        (
            SWEEP_CELLS as f64 / run_s,
            stats::min(&c.cell_sum_s) / (workers * run_s),
            stats::min(&c.reduce_s) / run_s,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let m = Metric::new;
    metrics.extend([
        m("precompute.share_of_run", s.precompute_ns as f64 / s.total_ns as f64, "ratio"),
        m("node.busy_s", s.honest_busy_ns / 1e9, "s"),
        m("node.msgs", s.honest_msgs as f64, "count"),
        m("node.ns_per_msg", s.honest_busy_ns / s.honest_msgs as f64, "ns"),
        m("node.busy_share", s.honest_busy_ns / drive, "ratio"),
        m("node.on_message_p99_ns", on_message_p99_ns(&c.traced), "ns"),
        m("runtime.self_s", s.runtime_self_ns() / 1e9, "s"),
        m("runtime.self_ns_per_msg", s.runtime_self_ns() / delivered, "ns"),
        m("runtime.self_share", s.runtime_self_ns() / drive, "ratio"),
        m("runtime.delivered_share", delivered / (s.sent + s.duplicated) as f64, "ratio"),
        m("wire.encode_ns_per_msg", wire.encode_ns, "ns"),
        m("wire.decode_ns_per_msg", wire.decode_ns, "ns"),
        m("wire.bytes_per_msg", wire.bytes_per_msg, "B"),
        m("core.witness.mc_firings", s.protocol.mc_firings as f64, "count"),
        m("core.witness.witness_completions", s.protocol.witness_completions as f64, "count"),
        m("core.witness.fra_marks", s.protocol.fra_marks as f64, "count"),
        m("core.witness.rounds_fired", s.protocol.rounds_fired as f64, "count"),
        m("sim.chaos.duplicated", s.duplicated as f64, "count"),
        m("sim.chaos.reordered", s.reordered as f64, "count"),
        m("sim.chaos.ledger_ok", f64::from(u8::from(s.ledger_ok)), "count"),
        m("sim.msgs_per_s", delivered / run_s, "1/s"),
        m("sim.ns_per_msg", run_s * 1e9 / delivered, "ns"),
        m("core.sweep.cells_per_s", cells_per_s, "1/s"),
        m("core.sweep.parallel_efficiency", efficiency, "ratio"),
        m("core.sweep.reduce_share", reduce_share, "ratio"),
        m("proc.allocs_per_msg", counts.allocs.allocs as f64 / counts.delivered as f64, "count"),
        m("proc.alloc_bytes_per_msg", counts.allocs.bytes as f64 / counts.delivered as f64, "B"),
        m("proc.peak_live_mb", counts.allocs.peak_live_bytes as f64 / (1024.0 * 1024.0), "MiB"),
        m("proc.cpu_s_per_rep", c.cpu_s / c.untraced_s.len() as f64, "s"),
        m("trace.timer_pair_ns", timer.0, "ns"),
        m("trace.overhead_share", overhead, "ratio"),
    ]);
    let listed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(listed, PER_LAYER, "metrics assembled differ from the PER_LAYER list");

    let phases_ns: u64 = rep.traces.iter().map(|(_, t)| t.total_ns).sum();
    let notes = vec![
        format!(
            "kernels {kernels_s:.2} s; {} untraced + 1 counting + {} traced repetitions",
            c.untraced_s.len(),
            c.traced.len()
        ),
        format!(
            "untraced run_s {run_s:.6} s; traced {:.6} s; adversary busy {:.6} s",
            measure::headline(w, &traced_s),
            s.adversary_busy_ns / 1e9
        ),
        format!(
            "span accounting: node busy + adversary busy + runtime self = drive ({:.6} s) by \
             construction; precompute + fleet + drive + extract = {:.6} s = traced total {:.6} s",
            drive / 1e9,
            phases_ns as f64 / 1e9,
            s.total_ns as f64 / 1e9
        ),
    ];
    let trace_json = trace_json(w, args.seed, timer, &c, rep_id);
    Report { metrics, trace_json, notes, attempted: c.attempted, failed: c.failed }
}
