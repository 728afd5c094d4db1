//! Experiment **E12 — iterative scaling**: the W-MSR engine past the
//! 128-node wall. The BW protocol is a feasibility construction whose
//! footprint explodes with `n` (E11a); the iterative engine is the
//! scalability counterpoint — constant-degree circulant topologies, flat
//! columnar round buffers, and runs that reach 10⁴ nodes in one simulated
//! scenario.
//!
//! Every scale point now reports how its topology's correctness condition
//! (`(f+1, f+1)`-robustness) was established: the certificate rule that
//! proved it, re-checked by the O(V+E) verifier, or an explicit
//! `UNCERTIFIED` marker. The exact checker is exponential and useless at
//! these sizes — a 10⁴-node run used to ship on silent faith.
//!
//! Scale points above the compiled `MAX_NODES` are skipped with a hint
//! (the default 4-word NodeSet caps at 256 nodes); build with
//! `--features huge-graphs` for the full sweep:
//!
//! ```text
//! cargo run --release -p dbac-bench --features huge-graphs --bin scaling_iterative [-- --json <path>]
//! ```

use dbac_baselines::IterativeTrimmedMean;
use dbac_bench::plan::json_path;
use dbac_bench::table::Table;
use dbac_conditions::robustness::{verify_certificate, CertificationStatus};
use dbac_core::scenario::Scenario;
use dbac_graph::generators;
use std::time::Instant;

struct Point {
    n: usize,
    rounds: u32,
    spread: f64,
    converged: bool,
    messages: u64,
    wall_ms: f64,
    /// Certificate rule name, or "UNCERTIFIED".
    cert: String,
    /// Wall time of the O(V+E) certificate re-verification.
    verify_ms: f64,
}

fn run_point(n: usize, rounds: u32, epsilon: f64) -> Point {
    let g = generators::circulant_pow2(n);
    // Deterministic inputs in [0, 1] with honest extremes at both ends.
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.754_877_666).fract()).collect();
    let start = Instant::now();
    let out = Scenario::builder(g, 0)
        .inputs(inputs)
        .epsilon(epsilon)
        .rounds(rounds)
        .protocol(IterativeTrimmedMean::default())
        .run()
        .expect("iterative scaling run");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(out.all_decided(), "every node must finish its rounds at f = 0");

    // No more silent faith: surface the topology's certification status
    // and re-check the certificate with the linear-time verifier.
    let status = out.certification.as_ref().expect("iterative protocol attaches certification");
    let mut verify_ms = 0.0;
    if let CertificationStatus::Certified(cert) = status {
        let g = generators::circulant_pow2(n);
        let t = Instant::now();
        verify_certificate(&g, cert).expect("issued certificate must verify");
        verify_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    Point {
        n,
        rounds,
        spread: out.spread(),
        converged: out.converged(),
        messages: out.honest_messages.unwrap_or(0),
        wall_ms,
        cert: status.rule_label().to_string(),
        verify_ms,
    }
}

fn main() {
    let json = json_path();
    let epsilon = 1e-6;
    let rounds = 120;
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    for n in [64usize, 256, 1024, 4096, 10_000] {
        if n > dbac_graph::MAX_NODES {
            skipped.push(n);
            continue;
        }
        points.push(run_point(n, rounds, epsilon));
    }

    println!("E12 — iterative W-MSR scaling (circulant-pow2, f = 0, ε = {epsilon:e})\n");
    let mut t = Table::new(vec![
        "n",
        "rounds",
        "spread",
        "converged",
        "messages",
        "wall (ms)",
        "cert",
        "verify (ms)",
    ]);
    for p in &points {
        t.row(vec![
            p.n.to_string(),
            p.rounds.to_string(),
            format!("{:.2e}", p.spread),
            p.converged.to_string(),
            p.messages.to_string(),
            format!("{:.1}", p.wall_ms),
            p.cert.clone(),
            format!("{:.3}", p.verify_ms),
        ]);
    }
    println!("{}", t.render());
    for n in &skipped {
        println!(
            "skipped n = {n}: exceeds MAX_NODES = {} (rebuild with --features huge-graphs)",
            dbac_graph::MAX_NODES
        );
    }

    if let Some(path) = json {
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"n\": {}, \"rounds\": {}, \"spread\": {:e}, \"converged\": {}, \
                     \"messages\": {}, \"wall_ms\": {:.1}, \"cert\": \"{}\", \
                     \"verify_ms\": {:.3}}}",
                    p.n,
                    p.rounds,
                    p.spread,
                    p.converged,
                    p.messages,
                    p.wall_ms,
                    p.cert,
                    p.verify_ms
                )
            })
            .collect();
        let text = format!(
            "{{\n  \"experiment\": \"scaling-iterative\",\n  \"max_nodes\": {},\n  \
             \"epsilon\": {:e},\n  \"points\": [\n{}\n  ]\n}}\n",
            dbac_graph::MAX_NODES,
            epsilon,
            rows.join(",\n")
        );
        std::fs::write(&path, text).expect("scaling JSON written");
        println!("scale points written to {path}");
    }

    // The experiment's claim: every point that ran reached ε-agreement,
    // and — new since the robustness subsystem — every topology carries a
    // machine-checked certificate for (1, 1)-robustness (f = 0), each
    // verified in well under a second even at 10⁴ nodes.
    assert!(points.iter().all(|p| p.converged), "a scale point failed to converge");
    assert!(
        points.iter().all(|p| p.cert != "UNCERTIFIED"),
        "a scale topology ran without a robustness certificate"
    );
    assert!(
        points.iter().all(|p| p.verify_ms < 1000.0),
        "certificate verification must stay well under a second"
    );
}
