//! Sweep-plan behaviour at the facade level: failure isolation (an invalid
//! cell must not poison its siblings), the expansion-size property
//! (cell count = product of axis lengths, with unique labels), the
//! byte-stable JSON of a reduced report, and the sweep-memo differential
//! (cells sharing a memoised precompute report exactly what a standalone
//! run of each cell reports).

use dbac::core::error::RunError;
use dbac::core::FloodMode;
use dbac::graph::{generators, NodeId};
use dbac::scenario::sweep::{
    CellRow, CellSummary, ExperimentPlan, InputSpec, SchedulerFamily, SweepReport,
};
use dbac::scenario::{Aad04, ByzantineWitness, CrashTwoReach, FaultKind, LinkFaultPlan, Runtime};
use dbac_bench::json::{self, Json};
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

/// A scheduler point with an empty random-delay range (`min > max`) fails
/// validation in each of its cells, which become error rows, while the
/// cells of the valid scheduler point run.
#[test]
fn empty_delay_range_cells_become_error_rows() {
    let sweep = ExperimentPlan::new()
        .protocol("crash", CrashTwoReach::default())
        .graph("K4", generators::clique(4))
        .fault_bound(1)
        .scheduler("ok", SchedulerFamily::random(1, 9))
        .scheduler("empty", SchedulerFamily::random(9, 1))
        .seeds([7, 8])
        .build()
        .expect("plan expands despite the invalid cells");
    assert_eq!(sweep.cell_count(), 4);
    let report = sweep.run();
    assert_eq!(report.rows.len(), 4);
    for row in &report.rows {
        match row.coord("scheduler") {
            Some("empty") => {
                let err = row.summary.as_ref().unwrap_err();
                assert!(matches!(err, RunError::InvalidConfig { .. }), "{err:?}");
            }
            _ => assert!(row.summary.as_ref().unwrap().converged, "{}", row.label),
        }
    }
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

/// Asserts two digests equal field for field, floats by bit pattern.
fn assert_same_summary(a: &CellSummary, b: &CellSummary, label: &str) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        (a.converged, a.valid, a.all_decided, a.rounds_to_epsilon, a.rounds),
        (b.converged, b.valid, b.all_decided, b.rounds_to_epsilon, b.rounds),
        "{label}"
    );
    assert_eq!(a.spread.to_bits(), b.spread.to_bits(), "{label}: spread");
    assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits(), "{label}: epsilon");
    assert_eq!(bits(&a.spread_by_round), bits(&b.spread_by_round), "{label}: spread_by_round");
    assert_eq!(
        (a.messages_sent, a.messages_delivered, a.messages_dropped, a.honest_messages),
        (b.messages_sent, b.messages_delivered, b.messages_dropped, b.honest_messages),
        "{label}: message counts"
    );
}

/// Asserts two cell results equal: digests as above, errors by value.
fn assert_same_result(
    a: &Result<CellSummary, RunError>,
    b: &Result<CellSummary, RunError>,
    label: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => assert_same_summary(x, y, label),
        (x, y) => assert_eq!(x, y, "{label}"),
    }
}

/// `Sweep::run` shares one precompute per (graph, f, protocol, flood mode)
/// among its cells. Over BW in both flood modes and the crash protocol on
/// two graphs, several ε values and seeds, every row must equal the digest
/// of a standalone `Scenario::run` of its cell, bit for bit; the crash
/// cells with a lying node are error rows on both paths. A second `run` of
/// the same sweep (a fresh memo) repeats every row.
#[test]
fn memoised_sweep_rows_equal_standalone_runs() {
    let sweep = ExperimentPlan::new()
        .protocol("bw", ByzantineWitness::default())
        .protocol("bw-simple", ByzantineWitness::default().with_flood_mode(FloodMode::SimpleOnly))
        .protocol("crash", CrashTwoReach::default())
        .graph("K4", generators::clique(4))
        .graph("K5", generators::clique(5))
        .fault_bound(1)
        .faults("crash@0", vec![(NodeId::new(0), FaultKind::Crash)])
        .faults("liar@0", vec![(NodeId::new(0), FaultKind::ConstantLiar { value: 1e6 })])
        .epsilons([1.0, 0.25])
        .seeds([1, 2])
        .build()
        .expect("plan expands");
    assert_eq!(sweep.cell_count(), 48);

    let report = sweep.run();
    assert_eq!(report.rows.len(), sweep.cell_count());
    assert_eq!(report.failures().len(), 8, "the crash × liar cells are rejected");
    for (cell, row) in sweep.cells().iter().zip(&report.rows) {
        assert_eq!(row.label, cell.label());
        let scenario = cell.scenario().expect("every cell builds");
        let standalone = scenario.run().map(|out| CellSummary::digest(&out));
        assert_same_result(&row.summary, &standalone, &row.label);
    }

    let again = sweep.run();
    assert_eq!(again.rows.len(), report.rows.len());
    for (a, b) in report.rows.iter().zip(&again.rows) {
        assert_eq!(a.label, b.label);
        assert_same_result(&a.summary, &b.summary, &a.label);
    }
}

/// A hand-built raw report (every field is public, so wall times can be
/// fixed) reduced and rendered through `dbac_bench::json::reduced`,
/// against the exact JSON text, and parsed back with `Json::parse`. The
/// all-error group `aad/K3` measured nothing: its statistics read `"n":0`
/// and `null`, never a zero.
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
    let rendered = json::reduced(&report.reduce());
    let text = rendered.to_string();
    assert_eq!(text, REDUCED_JSON);

    let parsed = Json::parse(&text).expect("reduced report parses");
    assert_eq!(parsed, rendered);
    let Some(Json::Array(groups)) = parsed.get("groups") else { panic!("{parsed}") };
    assert_eq!(groups.len(), 2);
    assert_eq!(groups[0].get("group").and_then(Json::as_str), Some("bw \"q\"/K4"));
    assert_eq!(groups[0].get("wall_ns").and_then(|s| s.get("mean")), Some(&Json::F64(2000.5)));
    assert_eq!(groups[1].get("errors").and_then(Json::as_u64), Some(1));
    let eps = groups[1].get("rounds_to_epsilon").unwrap();
    assert_eq!((eps.get("n"), eps.get("mean")), (Some(&Json::U64(0)), Some(&Json::Null)));
}

const REDUCED_JSON: &str = concat!(
    r#"{"groups":[{"group":"bw \"q\"/K4","runs":2,"errors":0,"converged":1,"valid":2,"decided":2,"#,
    r#""spread":{"n":2,"mean":1.0625,"median":1.0625,"min":0.125,"max":2.0,"stddev":0.9375},"#,
    r#""rounds_to_epsilon":{"n":1,"mean":1.0,"median":1.0,"min":1.0,"max":1.0,"stddev":0.0},"#,
    r#""messages":{"n":2,"mean":70.0,"median":70.0,"min":40.0,"max":100.0,"stddev":30.0},"#,
    r#""dropped":{"n":2,"mean":3.0,"median":3.0,"min":3.0,"max":3.0,"stddev":0.0},"#,
    r#""wall_ns":{"n":2,"mean":2000.5,"median":2000.5,"min":1500.5,"max":2500.5,"stddev":500.0}},"#,
    r#"{"group":"aad/K3","runs":1,"errors":1,"converged":0,"valid":0,"decided":0,"#,
    r#""spread":{"n":0,"mean":null,"median":null,"min":null,"max":null,"stddev":null},"#,
    r#""rounds_to_epsilon":{"n":0,"mean":null,"median":null,"min":null,"max":null,"stddev":null},"#,
    r#""messages":{"n":0,"mean":null,"median":null,"min":null,"max":null,"stddev":null},"#,
    r#""dropped":{"n":0,"mean":null,"median":null,"min":null,"max":null,"stddev":null},"#,
    r#""wall_ns":{"n":0,"mean":null,"median":null,"min":null,"max":null,"stddev":null}}]}"#,
);

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
