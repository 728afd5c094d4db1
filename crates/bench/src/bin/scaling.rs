//! Experiment **E11a — scaling**: the price of the paper's generality.
//! Redundant-path pools, message counts and wall time as `n` and `f` grow
//! — the algorithm is a feasibility construction, and this experiment
//! quantifies its exponential footprint.
//!
//! Run: `cargo run --release -p dbac-bench --bin scaling`

use dbac_bench::table::{yes_no, Table};
use dbac_core::config::FloodMode;
use dbac_core::precompute::Topology;
use dbac_core::scenario::{ByzantineWitness, FaultKind, Scenario};
use dbac_graph::{generators, Digraph, NodeId, PathBudget};
use std::time::Instant;

fn main() {
    path_pool_growth();
    end_to_end_scaling();
}

fn path_pool_growth() {
    println!("E11a — redundant-path pool size per terminal\n");
    let mut t = Table::new(vec![
        "graph",
        "n",
        "edges",
        "simple paths -> v0",
        "redundant paths -> v0",
        "precompute (ms)",
    ]);
    let cases: Vec<(String, Digraph)> = vec![
        ("K3".into(), generators::clique(3)),
        ("K4".into(), generators::clique(4)),
        ("K5".into(), generators::clique(5)),
        ("K6".into(), generators::clique(6)),
        ("two-K3 bridged".into(), generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)])),
        ("two-K4 bridged".into(), generators::figure_1b_small()),
        ("cycle-8".into(), generators::directed_cycle(8)),
    ];
    for (name, g) in cases {
        let start = Instant::now();
        let topo = Topology::new(g.clone(), 1, FloodMode::Redundant, PathBudget::new(5_000_000))
            .expect("within budget");
        let elapsed = start.elapsed().as_millis();
        t.row(vec![
            name,
            g.node_count().to_string(),
            g.edge_count().to_string(),
            topo.simple_paths_to(NodeId::new(0)).len().to_string(),
            topo.required_paths_to(NodeId::new(0)).len().to_string(),
            elapsed.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn end_to_end_scaling() {
    println!("E11a — full protocol runs (one liar, ε = 1.0)\n");
    let mut t = Table::new(vec![
        "graph",
        "f",
        "messages sent",
        "messages delivered",
        "wall (ms)",
        "converged",
    ]);
    let cases: Vec<(String, Digraph, usize)> = vec![
        ("K4".into(), generators::clique(4), 1),
        ("K5".into(), generators::clique(5), 1),
        ("two-K3 bridged".into(), generators::two_cliques_bridged(3, &[(0, 0)], &[(2, 2)]), 0),
        ("two-K4 bridged".into(), generators::figure_1b_small(), 1),
        ("figure-1a".into(), generators::figure_1a(), 1),
    ];
    for (name, g, f) in cases {
        let n = g.node_count();
        let inputs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 2.0).collect();
        let mut builder = Scenario::builder(g.clone(), f)
            .inputs(inputs)
            .epsilon(1.0)
            .seed(6)
            .protocol(ByzantineWitness::default());
        if f > 0 {
            builder = builder.fault(NodeId::new(n - 1), FaultKind::ConstantLiar { value: 1e4 });
        }
        let scenario = builder.build().unwrap();
        let start = Instant::now();
        let out = scenario.run().unwrap();
        let elapsed = start.elapsed().as_millis();
        t.row(vec![
            name.clone(),
            f.to_string(),
            out.sim_stats.messages_sent().to_string(),
            out.sim_stats.messages_delivered().to_string(),
            elapsed.to_string(),
            yes_no(out.converged()),
        ]);
        assert!(out.converged(), "{name} failed to converge");
    }
    println!("{}", t.render());
    println!(
        "RESULT: message volume tracks the redundant-path census — the exponential cost\n\
         of tolerating Byzantine faults in incomplete directed networks, as the paper's\n\
         feasibility-oriented construction predicts."
    );
}
