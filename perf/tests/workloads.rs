//! Workload generators are pure functions of the seed, and the seed never
//! changes how much work a workload is.

use dbac_perf::workloads::{scenario, sweep, Prepared, Workload, ITER_ROUNDS, SWEEP_CELLS};

const SINGLE: [Workload; 4] =
    [Workload::BwFig1bSim, Workload::BwK5ChaosSim, Workload::BwK5Net, Workload::IterCirc256Sim];

/// Everything a scenario hands the program, as comparable text.
fn fingerprint(scn: &dbac_core::Scenario) -> String {
    format!("{scn:?} inputs={:?} range={:?} rounds={}", scn.inputs(), scn.range(), scn.rounds())
}

#[test]
fn same_seed_same_inputs() {
    for w in SINGLE {
        assert_eq!(fingerprint(&scenario(w, 6)), fingerprint(&scenario(w, 6)), "{}", w.name());
        assert_ne!(fingerprint(&scenario(w, 6)), fingerprint(&scenario(w, 7)), "{}", w.name());
    }
    let cells = |seed| -> Vec<String> {
        sweep(seed)
            .cells()
            .iter()
            .map(|c| format!("{} {}", c.label(), fingerprint(c.scenario().expect("cell builds"))))
            .collect()
    };
    assert_eq!(cells(6), cells(6));
    assert_ne!(cells(6), cells(7));
    assert_eq!(cells(6).len(), SWEEP_CELLS);
}

#[test]
fn the_seed_never_changes_the_round_count() {
    for w in SINGLE {
        let rounds = scenario(w, 0).rounds();
        for seed in 1..25 {
            assert_eq!(scenario(w, seed).rounds(), rounds, "{} seed {seed}", w.name());
        }
    }
    assert_eq!(scenario(Workload::IterCirc256Sim, 6).rounds(), ITER_ROUNDS);
    let rounds = |seed| -> Vec<u32> {
        sweep(seed).cells().iter().map(|c| c.scenario().expect("cell builds").rounds()).collect()
    };
    for seed in 1..25 {
        assert_eq!(rounds(seed), rounds(0));
    }
}

#[test]
fn names_round_trip_and_every_workload_is_listed() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("nope"), None);
}

#[test]
fn simulator_repetitions_are_bit_identical_and_pass_their_checks() {
    for (w, seed) in [(Workload::BwK5ChaosSim, 6), (Workload::BwK5ChaosSim, 11)] {
        let prepared = Prepared::new(w, seed);
        let (_, a) = prepared.rep();
        let (_, b) = prepared.rep();
        assert_eq!(a, b);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        if seed == 6 {
            assert_eq!(Some(a.delivered), w.pinned_delivered());
        }
    }
}
