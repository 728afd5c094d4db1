//! Integration: the Appendix-B necessity construction (Theorem 18),
//! executed end-to-end through the public APIs.
//!
//! The `live_matches`/`synthesized` counts pin the reference executions'
//! delivery order: they are the counts E8 has always reported.

use dbac::conditions::kreach::{three_reach, two_reach};
use dbac::graph::{generators, Digraph};
use dbac_bench::impossibility::run_construction;

#[test]
fn k3_necessity_split() {
    let g = generators::clique(3);
    assert!(two_reach(&g, 1).holds() && !three_reach(&g, 1).holds());
    let report = run_construction(&g, 1, 10.0, 1.0).expect("construction runs");
    assert!(report.convergence_violated());
    assert_eq!(report.v_output, 0.0);
    assert_eq!(report.u_output, 10.0);
    assert_eq!((report.live_matches, report.synthesized), (0, 8));
}

#[test]
fn k6_f2_necessity_split() {
    let g = generators::clique(6);
    assert!(two_reach(&g, 2).holds() && !three_reach(&g, 2).holds());
    let report = run_construction(&g, 2, 4.0, 0.5).expect("construction runs");
    assert!(report.convergence_violated());
    assert_eq!(report.disagreement(), 4.0);
    // The splice verified live sends delivery-by-delivery.
    assert_eq!((report.live_matches, report.synthesized), (80, 160));
}

#[test]
fn directed_necessity_split() {
    // K3 plus a pendant receiver 3 fed by 0 and 1.
    let edges = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (0, 3), (1, 3)];
    let g = Digraph::from_edges(4, &edges).unwrap();
    assert!(two_reach(&g, 1).holds() && !three_reach(&g, 1).holds());
    let report = run_construction(&g, 1, 10.0, 1.0).expect("construction runs");
    assert_eq!(report.disagreement(), 10.0);
    assert_eq!((report.live_matches, report.synthesized), (16, 24));
}

#[test]
fn construction_refuses_feasible_graphs() {
    assert!(run_construction(&generators::clique(4), 1, 10.0, 1.0).is_err());
    assert!(run_construction(&generators::figure_1b_small(), 1, 10.0, 1.0).is_err());
}
