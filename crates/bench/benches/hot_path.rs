//! Hot-path microbenchmarks for the interning and columnar refactors.
//!
//! Measures the per-message kernels the `PathId` interning and the
//! columnar `MessageSet`/`RoundCore` rewrites target — FIFO reception
//! (`FifoReceiver::accept`: in-order, gap-close, replay), `COMPLETE` relay
//! fan-out (`complete_forwards`), the message-set algebra (`exclusion`,
//! fullness), witness-thread flood ingest (`round_core_ingest`) and the
//! all-guess Maximal-Consistency recompute (`mc_scan`) — on
//! `figure_1b_small` and a clique. Live kernels only: the retired designs
//! they replaced are no longer re-measured (their speedups are recorded in
//! CHANGES.md). With `-- --json <path>` the harness also writes the
//! measurements consumed by the CI `bench-trend` gate.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dbac_core::config::FloodMode;
use dbac_core::fifo::{complete_forwards, FifoReceiver};
use dbac_core::message_set::{CompletePayload, MessageSet};
use dbac_core::precompute::Topology;
use dbac_core::witness::{NodePlan, RoundAction, RoundCore, WitnessScratch};
use dbac_graph::{generators, Digraph, NodeId, NodeSet, PathBudget, PathId};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

struct Fixture {
    name: &'static str,
    topo: Topology,
    /// Simple non-trivial paths ending at node 0 (the FIFO channel space).
    fifo_paths: Vec<PathId>,
    payload: Arc<CompletePayload>,
}

fn fixture(name: &'static str, graph: Digraph) -> Fixture {
    let topo =
        Topology::new(graph, 1, FloodMode::Redundant, PathBudget::default()).expect("in budget");
    let v0 = NodeId::new(0);
    let fifo_paths: Vec<PathId> =
        topo.simple_paths_to(v0).iter().copied().filter(|&p| !topo.index().is_trivial(p)).collect();
    let mut m = MessageSet::new();
    for (i, &p) in fifo_paths.iter().take(8).enumerate() {
        m.insert(p, i as f64);
    }
    let payload = Arc::new(CompletePayload::from_message_set(&m));
    Fixture { name, topo, fifo_paths, payload }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        fixture("fig1b_small", generators::figure_1b_small()),
        fixture("clique5", generators::clique(5)),
    ]
}

const SEQS: u64 = 8;

// ---------------------------------------------------------------------------
// FifoReceiver::accept
// ---------------------------------------------------------------------------

fn bench_fifo_accept(c: &mut Criterion) {
    for fx in fixtures() {
        let index = fx.topo.index();

        let mut group = c.benchmark_group(format!("fifo_accept/{}", fx.name));
        group.sample_size(30);

        // In order: every arrival delivers immediately.
        group.bench_function("in_order/interned", |b| {
            b.iter(|| {
                let mut rx = FifoReceiver::new();
                let mut delivered = 0usize;
                for &p in &fx.fifo_paths {
                    let init = index.init(p);
                    for seq in 1..=SEQS {
                        delivered += rx
                            .accept(p, init, seq, 0, NodeSet::EMPTY, Arc::clone(&fx.payload))
                            .len();
                    }
                }
                black_box(delivered)
            });
        });

        // Gap close: counters 2..=N buffer, counter 1 drains the batch.
        group.bench_function("gap_close/interned", |b| {
            b.iter(|| {
                let mut rx = FifoReceiver::new();
                let mut delivered = 0usize;
                for &p in &fx.fifo_paths {
                    let init = index.init(p);
                    for seq in 2..=SEQS {
                        delivered += rx
                            .accept(p, init, seq, 0, NodeSet::EMPTY, Arc::clone(&fx.payload))
                            .len();
                    }
                    delivered +=
                        rx.accept(p, init, 1, 0, NodeSet::EMPTY, Arc::clone(&fx.payload)).len();
                }
                black_box(delivered)
            });
        });

        // Replay: Byzantine duplicates of an already-drained counter.
        group.bench_function("replay/interned", |b| {
            b.iter(|| {
                let mut rx = FifoReceiver::new();
                let mut delivered = 0usize;
                for &p in &fx.fifo_paths {
                    let init = index.init(p);
                    for _ in 0..SEQS {
                        delivered +=
                            rx.accept(p, init, 1, 0, NodeSet::EMPTY, Arc::clone(&fx.payload)).len();
                    }
                }
                black_box(delivered)
            });
        });

        group.finish();
    }
}

// ---------------------------------------------------------------------------
// complete_forwards
// ---------------------------------------------------------------------------

fn bench_complete_forwards(c: &mut Criterion) {
    let mut group = c.benchmark_group("complete_forwards");
    group.sample_size(30);
    for fx in fixtures() {
        let index = fx.topo.index();
        // Stored simple paths ending at each node — what a relay holds.
        let stored: Vec<PathId> = fx
            .topo
            .graph()
            .nodes()
            .flat_map(|v| fx.topo.simple_paths_to(v).iter().copied())
            .collect();

        group.bench_with_input(BenchmarkId::new("interned", fx.name), &(), |b, ()| {
            b.iter(|| {
                let mut sent = 0usize;
                for &p in &stored {
                    let me = index.ter(p);
                    sent +=
                        complete_forwards(&fx.topo, me, 0, NodeSet::EMPTY, &fx.payload, p, 1).len();
                }
                black_box(sent)
            });
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// MessageSet algebra: exclusion and fullness
// ---------------------------------------------------------------------------

/// Builds node 0's full round history: every pool path toward node 0
/// carrying its initiator's value (the state a node is in when the
/// Maximal-Consistency exclusions and fullness probes run).
fn full_history(topo: &Topology) -> MessageSet {
    let v0 = NodeId::new(0);
    let mut columnar = MessageSet::new();
    for &p in topo.required_paths_to(v0) {
        columnar.insert(p, topo.index().init(p).index() as f64);
    }
    columnar
}

fn bench_message_set_exclusion(c: &mut Criterion) {
    for fx in fixtures() {
        let index = fx.topo.index();
        let guesses: Vec<NodeSet> = fx.topo.guesses().to_vec();
        let columnar = full_history(&fx.topo);

        let mut group = c.benchmark_group(format!("mset_exclusion/{}", fx.name));
        group.sample_size(30);
        // One batch = M|_Ā for every fault-set guess (what a node does
        // across its parallel witness threads).
        group.bench_function("columnar", |b| {
            b.iter(|| {
                let mut kept = 0usize;
                for &g in &guesses {
                    kept += columnar.exclusion(g, index).len();
                }
                black_box(kept)
            });
        });
        group.finish();
    }
}

fn bench_message_set_fullness(c: &mut Criterion) {
    for fx in fixtures() {
        let index = fx.topo.index();
        let guesses: Vec<NodeSet> = fx.topo.guesses().to_vec();
        let v0 = NodeId::new(0);
        let full_col = full_history(&fx.topo);
        // A one-short set: fullness scans must also be fast when they fail.
        let missing = *fx.topo.required_paths_to(v0).last().expect("non-empty pool");
        let mut part_col = MessageSet::new();
        for (p, v) in full_col.iter() {
            if p != missing {
                part_col.insert(p, v);
            }
        }

        let mut group = c.benchmark_group(format!("mset_fullness/{}", fx.name));
        group.sample_size(30);
        // One batch = fullness for (guess, node 0) over every guess, on the
        // full and the one-short history.
        group.bench_function("columnar", |b| {
            b.iter(|| {
                let mut full_count = 0usize;
                for &g in &guesses {
                    full_count += usize::from(full_col.is_full_avoiding(g, v0, index));
                    full_count += usize::from(part_col.is_full_avoiding(g, v0, index));
                }
                black_box(full_count)
            });
        });
        group.finish();
    }
}

// ---------------------------------------------------------------------------
// RoundCore flood ingest: mask-batched witness threads
// ---------------------------------------------------------------------------

/// One batch = a node-0 round from `start` through every pool flood with
/// per-initiator-consistent values — the arrival path where witness
/// threads track their Maximal-Consistency census (and, at pool
/// completion, fire the `COMPLETE` payloads).
fn bench_round_core_ingest(c: &mut Criterion) {
    for fx in fixtures() {
        let v0 = NodeId::new(0);
        let plan = NodePlan::new(&fx.topo, v0);
        let index = fx.topo.index();
        let floods: Vec<(PathId, f64)> = fx
            .topo
            .required_paths_to(v0)
            .iter()
            .filter(|&&p| !index.is_trivial(p))
            .map(|&p| (p, index.init(p).index() as f64))
            .collect();

        let mut group = c.benchmark_group(format!("round_core_ingest/{}", fx.name));
        group.sample_size(20);
        group.bench_function("batched", |b| {
            b.iter(|| {
                let mut core = RoundCore::new(&fx.topo, &plan);
                let mut scratch = WitnessScratch::new();
                let mut fired = core.start(0.0, &fx.topo, &plan, &mut scratch).len();
                for &(p, v) in &floods {
                    let (_, acts) = core.add_flood(p, v, &fx.topo, &plan, &mut scratch);
                    fired += acts
                        .iter()
                        .filter(|a| matches!(a, RoundAction::FloodComplete { .. }))
                        .count();
                }
                black_box(fired)
            });
        });
        group.finish();
    }
}

// ---------------------------------------------------------------------------
// All-guess Maximal-Consistency recompute: mask scans
// ---------------------------------------------------------------------------

/// One batch = recomputing fullness + consistency of `M|_F̄v` for every
/// fault-set guess over node 0's full round history (the state in which
/// the last arrivals decide Maximal-Consistency), on the consistent and
/// on an equivocating history.
fn bench_mc_scan(c: &mut Criterion) {
    for fx in fixtures() {
        let v0 = NodeId::new(0);
        let plan = NodePlan::new(&fx.topo, v0);
        let index = fx.topo.index();
        let mut good = MessageSet::new();
        let mut bad = MessageSet::new();
        for &p in fx.topo.required_paths_to(v0) {
            good.insert(p, index.init(p).index() as f64);
            bad.insert(p, index.node_count(p) as f64); // equivocating
        }

        let mut group = c.benchmark_group(format!("mc_scan/{}", fx.name));
        group.sample_size(20);
        group.bench_function("batched", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for m in [&good, &bad] {
                    for i in 0..plan.guesses().len() {
                        let st = plan.mc_status(i, m);
                        hits += usize::from(st.full) + usize::from(st.consistent);
                    }
                }
                black_box(hits)
            });
        });
        group.finish();
    }
}

// ---------------------------------------------------------------------------
// FIFO-Receive-All progress: slot bitmaps
// ---------------------------------------------------------------------------

/// One batch = a full round of FIFO-Receive-All bookkeeping at node 0:
/// every `(guess, witness, in-reach delivery path)` mark once, then a
/// second Byzantine-replay pass of pure duplicates — the dedup-and-count
/// path Algorithm 1 line 12 runs per delivery.
fn bench_fra_scan(c: &mut Criterion) {
    for fx in fixtures() {
        let v0 = NodeId::new(0);
        let plan = NodePlan::new(&fx.topo, v0);
        let slot_words = fx.topo.simple_paths_to(v0).len().div_ceil(64);
        // The delivery stream as (guess, witness, slot) triples, one
        // fingerprint (the honest case).
        let mut stream: Vec<(usize, usize, usize)> = Vec::new();
        for (gi, gp) in plan.guesses().iter().enumerate() {
            for (wi, w) in gp.fra_witnesses().iter().enumerate() {
                for (word, &bits) in w.mask().iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        stream.push((gi, wi, word * 64 + bits.trailing_zeros() as usize));
                        bits &= bits - 1;
                    }
                }
            }
        }

        let mut group = c.benchmark_group(format!("fra_scan/{}", fx.name));
        group.sample_size(20);
        group.bench_function("batched", |b| {
            b.iter(|| {
                let mut states: Vec<Vec<(usize, Vec<u64>)>> = plan
                    .guesses()
                    .iter()
                    .map(|gp| {
                        gp.fra_witnesses()
                            .iter()
                            .map(|w| (w.required, vec![0u64; slot_words]))
                            .collect()
                    })
                    .collect();
                let mut done = 0usize;
                for _pass in 0..2 {
                    for &(gi, wi, s) in &stream {
                        let (remaining, seen) = &mut states[gi][wi];
                        let (w, bit) = (s / 64, 1u64 << (s % 64));
                        if seen[w] & bit != 0 {
                            continue;
                        }
                        seen[w] |= bit;
                        *remaining -= 1;
                        if *remaining == 0 {
                            done += 1;
                        }
                    }
                }
                black_box(done)
            });
        });
        group.finish();
    }
}

/// The iterative engine's per-round update: W-MSR trimmed mean over one
/// in-neighborhood, as the engine runs it (values already contiguous, one
/// reusable scratch sort).
fn bench_wmsr_step(c: &mut Criterion) {
    use dbac_baselines::iterengine::wmsr_step_in_place;
    for deg in [8usize, 64] {
        let rounds = 60usize;
        // Deterministic pseudo-values: one flat rounds × deg column block.
        let columns: Vec<f64> =
            (0..rounds * deg).map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 10.0).collect();
        let f = deg / 8;

        let mut group = c.benchmark_group(format!("wmsr_step/deg{deg}"));
        group.sample_size(20);
        group.bench_function("columnar", |b| {
            b.iter(|| {
                let mut own = 50.0f64;
                let mut scratch: Vec<f64> = Vec::with_capacity(deg);
                for r in 0..rounds {
                    scratch.clear();
                    scratch.extend_from_slice(&columns[r * deg..(r + 1) * deg]);
                    own = wmsr_step_in_place(own, &mut scratch, f);
                }
                black_box(own)
            });
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_fifo_accept,
    bench_complete_forwards,
    bench_message_set_exclusion,
    bench_message_set_fullness,
    bench_round_core_ingest,
    bench_mc_scan,
    bench_fra_scan,
    bench_wmsr_step
);
criterion_main!(benches);
