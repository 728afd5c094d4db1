//! Experiment **E2 — Table 2**: the directed-graph condition matrix.
//!
//! * sync crash exact     — 1-reach (≡ CCS, checked)
//! * async crash approx   — 2-reach (≡ CCA): the crash protocol *runs*
//! * sync Byz exact       — 3-reach (≡ BCS, checked)
//! * async Byz approx     — 3-reach (**this paper**): BW *runs*; the
//!   necessity side is executed by the `impossibility` binary.
//!
//! Every executed row is an [`ExperimentPlan`] over the graph catalog —
//! the graph axis comes straight from [`catalog::feasible_instances`] /
//! [`catalog::infeasible_instances`], and the renderer reads conditions
//! off each cell's scenario.
//!
//! Run: `cargo run --release -p dbac-bench --bin table2`

use dbac_bench::catalog;
use dbac_bench::plan::last_node as last;
use dbac_bench::table::{yes_no, Table};
use dbac_conditions::kreach::{one_reach, three_reach, two_reach};
use dbac_conditions::partition::{bcs, cca, ccs};
use dbac_core::scenario::sweep::{Axis, ExperimentPlan, InputSpec, SchedulerFamily};
use dbac_core::scenario::{ByzantineWitness, CrashTwoReach, FaultKind};
use dbac_graph::Digraph;

fn catalog_axis(instances: Vec<catalog::Instance>) -> Axis<Digraph> {
    // Every catalog instance targets f = 1, so the graph axis can cross a
    // single fault-bound point.
    assert!(instances.iter().all(|i| i.f == 1), "catalog instances all use f = 1");
    Axis::from_points(instances.into_iter().map(|i| (i.name, i.graph)))
}

fn main() {
    println!("E2 / Table 2 — directed tight conditions\n");

    // Condition equivalences (Theorem 17) across a deterministic batch.
    let mut t = Table::new(vec!["graph", "f", "1r=CCS", "2r=CCA", "3r=BCS"]);
    let mut all_equal = true;
    for (i, g) in catalog::random_digraphs(5, 0.5, 12, 7).into_iter().enumerate() {
        for f in 0..=1usize {
            let e1 = one_reach(&g, f).holds() == ccs(&g, f).holds();
            let e2 = two_reach(&g, f).holds() == cca(&g, f).holds();
            let e3 = three_reach(&g, f).holds() == bcs(&g, f).holds();
            all_equal &= e1 && e2 && e3;
            t.row(vec![format!("random-5-{i}"), f.to_string(), yes_no(e1), yes_no(e2), yes_no(e3)]);
        }
    }
    println!("Theorem 17 equivalences:\n{}", t.render());
    assert!(all_equal, "equivalence mismatch");

    // Async crash approx — the 2-reach cell, executed. The a-priori range
    // covers the crashed node's input too: it is honest until it crashes.
    let sweep = ExperimentPlan::new()
        .protocol("crash", CrashTwoReach::default())
        .graphs_axis(catalog_axis(catalog::feasible_instances()))
        .fault_bound(1)
        .placement("crash-after", |g, _| vec![(last(g), FaultKind::CrashAfter { sends: 2 })])
        .inputs(
            "indexed",
            InputSpec::indexed().with_range_fn(|g| (0.0, (g.node_count() - 1) as f64)),
        )
        .epsilon(0.5)
        .scheduler("legacy", SchedulerFamily::legacy_random())
        .seed(5)
        .build()
        .expect("crash-row plan expands");
    let report = sweep.run();
    let mut t = Table::new(vec!["graph", "2-reach", "crash run converged", "valid"]);
    for (cell, row) in sweep.cells().iter().zip(&report.rows) {
        let scn = cell.scenario().expect("catalog cell builds");
        let holds = two_reach(scn.graph(), scn.f()).holds();
        let s = row.summary.as_ref().unwrap_or_else(|e| panic!("{}: {e}", row.label));
        let name = cell.coord("graph").expect("graph axis");
        t.row(vec![name.into(), yes_no(holds), yes_no(s.converged), yes_no(s.valid)]);
        assert!(holds && s.converged && s.valid, "{name} failed");
    }
    println!("Async crash approximate consensus (2-reach row):\n{}", t.render());

    // Async Byzantine approx — the paper's cell, executed with a real fault
    // (the adversary is a second axis crossed with the catalog).
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graphs_axis(catalog_axis(catalog::feasible_instances()))
        .fault_bound(1)
        .placement("crash", |g, _| vec![(last(g), FaultKind::Crash)])
        .placement("liar", |g, _| vec![(last(g), FaultKind::ConstantLiar { value: 1e6 })])
        .epsilon(0.5)
        .seed(13)
        .build()
        .expect("BW-row plan expands");
    let report = sweep.run();
    let mut t =
        Table::new(vec!["graph", "3-reach", "adversary", "BW converged", "valid", "messages"]);
    for (cell, row) in sweep.cells().iter().zip(&report.rows) {
        let scn = cell.scenario().expect("catalog cell builds");
        let s = row.summary.as_ref().unwrap_or_else(|e| panic!("{}: {e}", row.label));
        let name = cell.coord("graph").expect("graph axis");
        let adversary = cell.coord("placement").expect("placement axis");
        t.row(vec![
            name.into(),
            yes_no(three_reach(scn.graph(), scn.f()).holds()),
            adversary.into(),
            yes_no(s.converged),
            yes_no(s.valid),
            s.messages_delivered.to_string(),
        ]);
        assert!(s.converged && s.valid, "{name} ({adversary}) failed");
    }
    println!("Async Byzantine approximate consensus (3-reach row, this paper):\n{}", t.render());

    // Infeasible side: BW stalls honestly on 3-reach violations.
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graphs_axis(catalog_axis(catalog::infeasible_instances()))
        .fault_bound(1)
        .epsilon(0.5)
        .seed(3)
        .build()
        .expect("infeasible-row plan expands");
    let report = sweep.run();
    let mut t = Table::new(vec!["graph", "3-reach", "all honest decided"]);
    for (cell, row) in sweep.cells().iter().zip(&report.rows) {
        let scn = cell.scenario().expect("catalog cell builds");
        let s = row.summary.as_ref().unwrap_or_else(|e| panic!("{}: {e}", row.label));
        t.row(vec![
            cell.coord("graph").expect("graph axis").into(),
            yes_no(three_reach(scn.graph(), scn.f()).holds()),
            yes_no(s.all_decided),
        ]);
    }
    println!(
        "Violating instances (all-honest runs; progress is not guaranteed without 3-reach —\n\
         see the `impossibility` binary for the Appendix-B disagreement construction):\n{}",
        t.render()
    );
    println!("RESULT: Table 2 matrix reproduced (sync rows via condition equivalences).");
}
