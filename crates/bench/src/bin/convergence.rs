//! Experiments **E5 / E6 — convergence**: Lemma 15's per-round halving and
//! Section 4.6's termination bound, each a declarative [`ExperimentPlan`]
//! plus a table renderer — the adversary (E5) and ε (E6) are axes, not
//! hand-rolled loops.
//!
//! Run: `cargo run --release -p dbac-bench --bin convergence`

use dbac_bench::plan::run_plan;
use dbac_bench::table::{num, yes_no, Table};
use dbac_core::config::num_rounds;
use dbac_core::scenario::sweep::{CellRow, ExperimentPlan, InputSpec};
use dbac_core::scenario::{ByzantineWitness, FaultKind};
use dbac_graph::{generators, NodeId};

fn main() {
    halving();
    termination_bound();
}

fn summary(row: &CellRow) -> &dbac_core::scenario::sweep::CellSummary {
    row.summary.as_ref().expect("run_plan checked every cell")
}

/// E5: measured spread per round vs the `K/2^r` bound — one plan with the
/// adversary as the only populated axis.
fn halving() {
    println!("E5 / Lemma 15 — spread halves every round\n");
    let k = 16.0;
    let v3 = NodeId::new(3);
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .faults("all honest", Vec::new())
        .faults("crash", vec![(v3, FaultKind::Crash)])
        .faults("liar 1e6", vec![(v3, FaultKind::ConstantLiar { value: 1e6 })])
        .faults("equivocator", vec![(v3, FaultKind::Equivocator { low: -1e3, high: 1e3 })])
        .faults("chaotic", vec![(v3, FaultKind::Chaotic { seed: 5 })])
        .inputs("spread16", InputSpec::fixed(vec![0.0, 16.0, 4.0, 12.0]).with_range(0.0, k))
        .epsilon(0.05)
        .rounds(6)
        .seed(31)
        .build()
        .expect("E5 plan expands");
    let report = run_plan(&sweep, "E5 cells failed");
    for row in &report.rows {
        let adversary = row.coord("placement").expect("placement axis");
        let s = summary(row);
        assert!(s.all_decided, "{adversary}: some node undecided");
        let mut t = Table::new(vec!["round", "spread U[r]-mu[r]", "bound K/2^r", "within bound"]);
        let mut ok = true;
        for (r, &spread) in s.spread_by_round.iter().enumerate() {
            let bound = k / 2f64.powi(r as i32);
            ok &= spread <= bound + 1e-9;
            t.row(vec![r.to_string(), num(spread), num(bound), yes_no(spread <= bound + 1e-9)]);
        }
        println!("adversary: {adversary}\n{}", t.render());
        assert!(ok, "{adversary}: halving bound violated");
        assert!(s.valid, "{adversary}: validity violated");
    }
}

/// E6: rounds needed for ε-agreement vs the a-priori bound `⌈log₂(K/ε)⌉` —
/// ε is the swept axis.
fn termination_bound() {
    println!("E6 / Section 4.6 — termination bound sweep\n");
    let k = 8.0;
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .faults("liar", vec![(NodeId::new(3), FaultKind::ConstantLiar { value: -1e4 })])
        .inputs("spread8", InputSpec::fixed(vec![0.0, 8.0, 2.0, 6.0]).with_range(0.0, k))
        .epsilons([4.0, 2.0, 1.0, 0.5, 0.25])
        .seed(77)
        .build()
        .expect("E6 plan expands");
    let report = run_plan(&sweep, "E6 cells failed");
    let mut t = Table::new(vec![
        "epsilon",
        "rounds bound",
        "final spread",
        "spread < eps",
        "earliest conforming round",
    ]);
    for row in &report.rows {
        let s = summary(row);
        let epsilon = s.epsilon;
        let bound = num_rounds(k, epsilon);
        let final_spread = *s.spread_by_round.last().expect("history recorded");
        let earliest = s
            .rounds_to_epsilon
            .map_or_else(|| s.spread_by_round.len().to_string(), |r| r.to_string());
        t.row(vec![
            num(epsilon),
            bound.to_string(),
            num(final_spread),
            yes_no(final_spread < epsilon),
            earliest,
        ]);
        assert!(final_spread < epsilon, "ε={epsilon}: bound insufficient");
    }
    println!("{}", t.render());
    println!(
        "RESULT: running exactly ⌈log2(K/ε)⌉⁺ rounds suffices, often with slack —\n\
         the paper's bound is a worst-case guarantee."
    );
}
