//! Sweep-plan behaviour at the facade level: failure isolation (an invalid
//! cell must not poison its siblings) and the expansion-size property
//! (cell count = product of axis lengths, with unique labels).

use dbac::core::error::RunError;
use dbac::graph::{generators, NodeId};
use dbac::scenario::sweep::{
    CellRow, CellSummary, ExperimentPlan, InputSpec, SchedulerFamily, SweepReport,
};
use dbac::scenario::{Aad04, ByzantineWitness, CrashTwoReach, FaultKind, LinkFaultPlan, Runtime};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// AAD04 requires `n > 3f`: on K3 with f = 1 the cell is rejected with
/// `ResilienceExceeded` at run time, while the K4 sibling in the same grid
/// still runs to convergence.
#[test]
fn run_time_rejection_surfaces_without_poisoning_siblings() {
    let sweep = ExperimentPlan::new()
        .protocol("aad04", Aad04)
        .graph("K3", generators::clique(3))
        .graph("K4", generators::clique(4))
        .fault_bound(1)
        .seed(7)
        .build()
        .expect("plan expands");
    assert_eq!(sweep.cell_count(), 2);
    // Both cells build — the resilience check is the protocol's, at run.
    assert!(sweep.cells().iter().all(|c| c.scenario().is_some()));

    let report = sweep.run();
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].coord("graph"), Some("K3"));
    let err = failures[0].summary.as_ref().unwrap_err();
    assert!(err.to_string().contains("n > 3f"), "unexpected error: {err}");

    let ok = report.rows.iter().find(|r| r.coord("graph") == Some("K4")).unwrap();
    assert!(ok.summary.as_ref().unwrap().converged, "sibling cell must still converge");

    // The reduced report keeps the failed group as an all-error row.
    let reduced = report.reduce();
    assert_eq!(reduced.cells.len(), 2);
    let bad = reduced.cells.iter().find(|c| c.coord("graph") == Some("K3")).unwrap();
    assert_eq!((bad.runs, bad.errors, bad.converged), (1, 1, 0));
}

/// A cell that fails scenario *validation* (fault node outside the graph)
/// is likewise isolated — captured at build, reported as an error row.
#[test]
fn build_time_rejection_surfaces_without_poisoning_siblings() {
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .graph("K3", generators::clique(3))
        .graph("K4", generators::clique(4))
        .faults("liar@3", vec![(NodeId::new(3), FaultKind::ConstantLiar { value: 1e6 })])
        .build()
        .expect("plan expands despite the invalid cell");
    assert_eq!(sweep.cell_count(), 2);
    assert!(sweep.cells()[0].error().is_some(), "node 3 is outside K3");
    assert!(sweep.cells()[1].scenario().is_some());

    let report = sweep.run();
    assert_eq!(report.failures().len(), 1);
    let ok = report.rows.iter().find(|r| r.coord("graph") == Some("K4")).unwrap();
    assert!(ok.summary.as_ref().unwrap().converged);
}

/// Every label and group of a plan with all eleven axes populated (and
/// differing radices), against the cartesian product written out as the
/// nested loops it stands for: protocol outermost, seed innermost.
#[test]
fn expansion_order_is_the_nested_loop_order_with_the_seed_innermost() {
    let protocols = ["bw", "crash"];
    let graphs = ["K3", "K4"];
    let bounds = [0usize, 1];
    let placements = ["none", "nobody"];
    let inputs = ["idx", "zero"];
    let epsilons = [1.0, 0.5, 0.25];
    let schedulers = ["fix", "rnd"];
    let links = ["clean", "seeded"];
    let runtimes = ["sim", "thr"];
    let rounds = [3u32, 4];
    let seeds = [7u64, 8, 9];

    let sweep = ExperimentPlan::new()
        .protocol(protocols[0], ByzantineWitness::default())
        .protocol(protocols[1], CrashTwoReach::default())
        .graph(graphs[0], generators::clique(3))
        .graph(graphs[1], generators::clique(4))
        .fault_bound(bounds[0])
        .fault_bound(bounds[1])
        .placement(placements[0], |_, _| Vec::new())
        .faults(placements[1], Vec::new())
        .inputs(inputs[0], InputSpec::indexed())
        .inputs(inputs[1], InputSpec::from_fn(|g| vec![0.0; g.node_count()]))
        .epsilons(epsilons)
        .scheduler(schedulers[0], SchedulerFamily::fixed(1))
        .scheduler(schedulers[1], SchedulerFamily::random(1, 9))
        .link_faults(links[0], |_, _| None)
        .link_faults(links[1], |_, seed| Some(LinkFaultPlan::new(seed)))
        .runtime(Runtime::Sim)
        .runtime_labelled(runtimes[1], Runtime::threaded(Duration::from_secs(30)))
        .rounds(rounds[0])
        .rounds(rounds[1])
        .seeds(seeds)
        .build()
        .expect("plan expands");

    let mut expected = Vec::new();
    for p in protocols {
        for g in graphs {
            for f in bounds {
                for place in placements {
                    for input in inputs {
                        for eps in epsilons {
                            for sched in schedulers {
                                for link in links {
                                    for rt in runtimes {
                                        for r in rounds {
                                            let group = format!(
                                                "{p}/{g}/f{f}/{place}/{input}/eps{eps}/{sched}/\
                                                 {link}/{rt}/r{r}"
                                            );
                                            for s in seeds {
                                                expected
                                                    .push((format!("{group}/s{s}"), group.clone()));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 2 * 2 * 3 * 2 * 2 * 2 * 2 * 3);
    let got: Vec<(String, String)> =
        sweep.cells().iter().map(|c| (c.label().to_string(), c.group().to_string())).collect();
    assert_eq!(got, expected);

    // Three literal anchors, so the oracle above cannot drift with the code.
    assert_eq!(sweep.cells()[0].label(), "bw/K3/f0/none/idx/eps1/fix/clean/sim/r3/s7");
    assert_eq!(sweep.cells()[1].label(), "bw/K3/f0/none/idx/eps1/fix/clean/sim/r3/s8");
    assert_eq!(sweep.cells()[3].label(), "bw/K3/f0/none/idx/eps1/fix/clean/sim/r4/s7");
    let last = sweep.cells().last().unwrap();
    assert_eq!(last.label(), "crash/K4/f1/nobody/zero/eps0.25/rnd/seeded/thr/r4/s9");
    assert_eq!(last.group(), "crash/K4/f1/nobody/zero/eps0.25/rnd/seeded/thr/r4");

    // Coordinates and the built scenario follow the same odometer.
    assert_eq!(last.seed(), 9);
    let axes = [
        ("protocol", "crash"),
        ("graph", "K4"),
        ("f", "f1"),
        ("placement", "nobody"),
        ("inputs", "zero"),
        ("epsilon", "eps0.25"),
        ("scheduler", "rnd"),
        ("links", "seeded"),
        ("runtime", "thr"),
        ("rounds", "r4"),
        ("seed", "s9"),
    ];
    for (axis, fragment) in axes {
        assert_eq!(last.coord(axis), Some(fragment), "{axis}");
    }
    let scn = last.scenario().expect("valid cell");
    assert_eq!(scn.protocol().name(), "crash-two-reach");
    assert_eq!((scn.graph().node_count(), scn.f()), (4, 1));
    assert_eq!((scn.epsilon(), scn.rounds_override()), (0.25, Some(4)));
    assert_eq!(scn.inputs(), &[0.0; 4]);
    assert_eq!(scn.scheduler().seed(), 9);
    assert!(scn.link_faults().is_some());
    assert_eq!(scn.runtime(), Runtime::threaded(Duration::from_secs(30)));
}

/// A hand-built raw report (every field is public, so wall times can be
/// fixed) and its reduction, against the exact JSON text of the sweep
/// report schema — and through its reader, `trend::parse_report`.
#[test]
fn report_json_is_byte_stable_and_parses_in_the_gate() {
    let summary = |converged: bool, spread: f64, sent: u64, honest: Option<u64>| CellSummary {
        converged,
        valid: true,
        all_decided: true,
        spread,
        spread_by_round: vec![8.0, spread],
        rounds_to_epsilon: converged.then_some(1),
        epsilon: 0.5,
        messages_sent: sent,
        messages_delivered: sent,
        messages_dropped: 3,
        honest_messages: honest,
        rounds: 4,
    };
    let row = |label: &str, seed: u64, wall_ns: f64, summary| {
        let group = label.rsplit_once('/').unwrap().0.to_string();
        let coords: Arc<[(&'static str, String)]> =
            Arc::from(vec![("protocol", group.clone()), ("seed", format!("s{seed}"))]);
        CellRow { label: label.into(), group, seed, coords, wall_ns, summary }
    };
    let report = SweepReport {
        rows: vec![
            row("bw \"q\"/K4/s1", 1, 1500.5, Ok(summary(true, 0.125, 100, None))),
            row("bw \"q\"/K4/s2", 2, 2500.5, Ok(summary(false, 2.0, 300, Some(40)))),
            row("aad/K3/s1", 1, 10.0, Err(RunError::FaultOutsideGraph { node: 3, nodes: 3 })),
        ],
    };
    let raw = report.to_bench_json();
    assert_eq!(raw, RAW_JSON);
    let reduced = report.reduce().to_bench_json();
    assert_eq!(reduced, REDUCED_JSON);

    let parsed = dbac_bench::trend::parse_report(&raw).expect("raw report parses");
    assert_eq!(parsed.len(), 3);
    assert_eq!(parsed["bw \"q\"/K4/s2"], 2500.5);
    let parsed = dbac_bench::trend::parse_report(&reduced).expect("reduced report parses");
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed["bw \"q\"/K4"], 2000.5);
}

const RAW_JSON: &str = r#"{
  "kernels": {
    "bw \"q\"/K4/s1": { "mean_ns": 1500.5, "converged": 1, "valid": 1, "decided": 1, "spread": 1.25e-1, "messages": 100, "dropped": 3, "rounds": 4 },
    "bw \"q\"/K4/s2": { "mean_ns": 2500.5, "converged": 0, "valid": 1, "decided": 1, "spread": 2e0, "messages": 40, "dropped": 3, "rounds": 4 },
    "aad/K3/s1": { "mean_ns": 10.0, "error": 1 }
  }
}
"#;

const REDUCED_JSON: &str = r#"{
  "kernels": {
    "bw \"q\"/K4": { "mean_ns": 2000.5, "min_ns": 1500.5, "max_ns": 2500.5, "stddev_ns": 500.0, "runs": 2, "errors": 0, "converged": 1, "valid": 2, "decided": 2, "spread_mean": 1.0625e0, "spread_median": 1.0625e0, "spread_max": 2e0, "rounds_to_eps_mean": 1e0, "messages_mean": 70.0, "messages_max": 100.0, "dropped_mean": 3.0 },
    "aad/K3": { "mean_ns": 0.0, "min_ns": 0.0, "max_ns": 0.0, "stddev_ns": 0.0, "runs": 1, "errors": 1, "converged": 0, "valid": 0, "decided": 0, "spread_mean": 0e0, "spread_median": 0e0, "spread_max": 0e0, "rounds_to_eps_mean": 0e0, "messages_mean": 0.0, "messages_max": 0.0, "dropped_mean": 0.0 }
  }
}
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The expansion size equals the product of the axis lengths, and
    /// every cell label is unique.
    #[test]
    fn expansion_size_is_the_product_of_axis_lengths(
        n_graphs in 1usize..3,
        n_eps in 1usize..4,
        n_scheds in 1usize..3,
        n_seeds in 1usize..4,
        n_place in 1usize..3,
        n_rounds in 1usize..3,
        n_inputs in 1usize..3,
    ) {
        let mut plan = ExperimentPlan::new().protocol("bw", ByzantineWitness::default());
        for i in 0..n_graphs {
            plan = plan.graph(format!("g{i}"), generators::clique(3 + i));
        }
        for i in 0..n_eps {
            plan = plan.epsilon(0.5 + i as f64);
        }
        for i in 0..n_scheds {
            plan = plan.scheduler(format!("sch{i}"), SchedulerFamily::fixed(1 + i as u64));
        }
        for s in 0..n_seeds {
            plan = plan.seed(s as u64);
        }
        for i in 0..n_place {
            plan = plan.placement(format!("p{i}"), |_, _| Vec::new());
        }
        for i in 0..n_rounds {
            plan = plan.rounds(3 + i as u32);
        }
        for i in 0..n_inputs {
            let value = i as f64;
            plan = plan.inputs(format!("in{i}"), InputSpec::from_fn(move |g| {
                vec![value; g.node_count()]
            }));
        }
        let sweep = plan.build().unwrap();
        let expected = n_graphs * n_eps * n_scheds * n_seeds * n_place * n_rounds * n_inputs;
        prop_assert_eq!(sweep.cell_count(), expected);
        let labels: HashSet<&str> = sweep.cells().iter().map(|c| c.label()).collect();
        prop_assert_eq!(labels.len(), expected, "labels must be unique");
        // Every cell validates: closures produced consistent scenarios.
        prop_assert!(sweep.cells().iter().all(|c| c.scenario().is_some()));
    }
}
