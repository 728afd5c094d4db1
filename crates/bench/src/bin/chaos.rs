//! Experiment **E13 — chaos smoke sweep**.
//!
//! Drives the link-fault axis through a small [`ExperimentPlan`]: BW on K4
//! with clean links, two drop probabilities, and an early partition of the
//! last node's in-edges, each over a three-seed batch. The point is not a
//! performance number but an invariant surface: clean cells must converge,
//! lossy cells must count their losses, and *no* cell may fail with an
//! untyped error — chaos turns into per-cell data, never into a crash.
//!
//! Run: `cargo run --release -p dbac-bench --bin chaos`
//! (`-- --json <path>` additionally writes the *reduced* seed-aggregated
//! report, one object per seed-batch group
//! ([`dbac_bench::json::reduced`]), uploaded as a CI artifact next to
//! `sweep.json`).

use dbac_bench::json;
use dbac_bench::plan::{json_path, run_plan};
use dbac_bench::table::Table;
use dbac_core::scenario::sweep::ExperimentPlan;
use dbac_core::scenario::{ByzantineWitness, LinkFault, LinkFaultPlan};
use dbac_graph::{generators, Digraph, NodeId};

fn main() {
    let out = json_path();
    println!("E13 — link-fault (chaos) smoke sweep: BW on K4, three-seed batches\n");
    let drop_all = |prob: f64| {
        move |g: &Digraph, seed: u64| {
            let mut plan = LinkFaultPlan::new(seed);
            for (from, to) in g.edges() {
                plan = plan.fault(from, to, LinkFault::Drop { prob });
            }
            Some(plan)
        }
    };
    let sweep = ExperimentPlan::new()
        .protocol("BW", ByzantineWitness::default())
        .graph("K4", generators::clique(4))
        .fault_bound(0)
        .link_faults("clean", |_, _| None)
        .link_faults("drop5", drop_all(0.05))
        .link_faults("drop20", drop_all(0.20))
        .link_faults("cut-last", |g: &Digraph, seed| {
            // The last node's in-edges go dark for their first 25 messages
            // each — an early partition that may or may not heal in time.
            let last = NodeId::new(g.node_count() - 1);
            let mut plan = LinkFaultPlan::new(seed);
            for (from, to) in g.edges() {
                if to == last {
                    plan = plan.fault(from, to, LinkFault::Partition { from_step: 0, to_step: 25 });
                }
            }
            Some(plan)
        })
        .seeds([1, 2, 3])
        .build()
        .expect("chaos plan expands");
    let reduced = run_plan(&sweep, "chaos cells must degrade, not error").reduce();

    let mut t = Table::new(vec![
        "links",
        "converged",
        "valid",
        "dropped (mean [min, max])",
        "delivered (mean)",
    ]);
    for cell in &reduced.cells {
        let links = cell.coord("links").expect("links axis");
        assert_eq!(cell.valid, cell.runs, "{}: safety violated under chaos", cell.group);
        if links == "clean" {
            assert_eq!(cell.converged, cell.runs, "{}: clean links must converge", cell.group);
            assert_eq!(cell.dropped.max, 0.0, "{}: clean links must not drop", cell.group);
        } else {
            assert!(cell.dropped.min > 0.0, "{}: lossy links must count losses", cell.group);
        }
        t.row(vec![
            links.into(),
            format!("{}/{}", cell.converged, cell.runs),
            format!("{}/{}", cell.valid, cell.runs),
            format!("{:.0} [{:.0}, {:.0}]", cell.dropped.mean, cell.dropped.min, cell.dropped.max),
            format!("{:.0}", cell.messages.mean),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Validity holds in every cell; drops cost only liveness (convergence\n\
         column), and each loss is accounted in the dropped counters.\n"
    );

    if let Some(path) = out {
        json::write(&path, "reduced chaos report", &json::reduced(&reduced));
    }
}
