//! Differential harness for the robustness subsystem, on three fronts:
//!
//! 1. **Sufficient rules vs. the exact checker** — on a corpus drawn from
//!    every generator/topology class at ≤ 12 nodes, every certificate the
//!    polynomial rules issue must be confirmed by the exponential exact
//!    checker (zero disagreements) *and* accepted by the O(V+E) verifier.
//! 2. **Exact-checker rewrite vs. the frozen reference** — the pruned
//!    2^n-mask search must agree with a verbatim copy of the retired
//!    base-3 enumeration from `dbac-baselines` on every corpus graph.
//! 3. **Verifier tamper-rejection (proptest)** — the verifier accepts
//!    every issued certificate and rejects mutated ones: inflated `r`,
//!    forged rule parameters, forged per-node evidence, padded evidence
//!    vectors, wrong node counts.

use dbac_conditions::robustness::{
    certify, exact_verdict, is_r_s_robust, verify_certificate, CertificateRule,
    RobustnessCertificate, RobustnessVerdict,
};
use dbac_graph::{generators, Digraph, NodeId, NodeSet};
use proptest::proptest;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Every generator/topology class in the workspace, instantiated at
/// ≤ 12 nodes so the exponential exact checker stays fast.
fn corpus() -> Vec<(String, Digraph)> {
    let mut graphs: Vec<(String, Digraph)> = Vec::new();
    for n in 2..=8 {
        graphs.push((format!("clique({n})"), generators::clique(n)));
    }
    for n in [4usize, 6, 9, 12] {
        graphs.push((format!("directed_cycle({n})"), generators::directed_cycle(n)));
        graphs.push((format!("bidirectional_cycle({n})"), generators::bidirectional_cycle(n)));
    }
    graphs.push(("directed_path(6)".into(), generators::directed_path(6)));
    graphs.push(("wheel(6)".into(), generators::wheel(6)));
    graphs.push(("wheel(9)".into(), generators::wheel(9)));
    graphs.push(("figure_1a".into(), generators::figure_1a()));
    graphs.push(("figure_1b_small".into(), generators::figure_1b_small()));
    graphs.push((
        "two_cliques_bridged(5)".into(),
        generators::two_cliques_bridged(5, &[(0, 0), (1, 1)], &[(2, 2), (3, 3), (4, 4)]),
    ));
    let circulants: [(usize, &[usize]); 5] =
        [(8, &[1]), (8, &[1, 2]), (9, &[1, 2, 3]), (12, &[1, 2, 3, 4]), (10, &[2, 5])];
    for (n, offsets) in circulants {
        graphs.push((format!("circulant({n},{offsets:?})"), generators::circulant(n, offsets)));
    }
    graphs.push(("circulant_pow2(8)".into(), generators::circulant_pow2(8)));
    graphs.push(("circulant_pow2(12)".into(), generators::circulant_pow2(12)));
    for (layers, width) in [(2usize, 3usize), (2, 4), (3, 3), (2, 6), (3, 4), (4, 3)] {
        graphs.push((
            format!("layered_expander({layers},{width})"),
            generators::layered_expander(layers, width),
        ));
    }
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        graphs.push((
            format!("random_digraph(8,0.3,{seed})"),
            generators::random_digraph(8, 0.3, &mut rng),
        ));
        graphs.push((
            format!("random_strongly_connected(10,0.25,{seed})"),
            generators::random_strongly_connected(10, 0.25, &mut rng),
        ));
        graphs.push((
            format!("random_undirected(9,0.4,{seed})"),
            generators::random_undirected(9, 0.4, &mut rng),
        ));
    }
    for (name, g) in &graphs {
        assert!(g.node_count() <= 12, "{name} exceeds the corpus size bound");
    }
    graphs
}

/// Every certificate a sufficient rule issues on the corpus must be
/// confirmed by the exact checker and accepted by the O(V+E) verifier —
/// zero disagreements across the full `(r, s)` grid.
#[test]
fn sufficient_rules_never_contradict_the_exact_checker() {
    let mut issued = 0usize;
    for (name, g) in corpus() {
        for r in 0..=3usize {
            for s in 0..=3usize {
                let Some(cert) = certify(&g, r, s) else { continue };
                issued += 1;
                verify_certificate(&g, &cert).unwrap_or_else(|e| {
                    panic!("{name} (r={r}, s={s}): issued certificate rejected: {e}")
                });
                assert!(
                    is_r_s_robust(&g, r, s),
                    "{name} (r={r}, s={s}): certified by {} but the exact checker disagrees",
                    cert.rule.name()
                );
            }
        }
    }
    // The corpus is rich enough that a silently inert rule set would show.
    assert!(issued > 200, "only {issued} certificates issued over the corpus");
}

/// Verbatim copy of the base-3 enumeration that shipped in
/// `dbac_baselines::iterative` through PR 9 — the frozen reference for the
/// rewritten exact checker.
fn reference_violation(g: &Digraph, r: usize, s: usize) -> Option<(NodeSet, NodeSet)> {
    let n = g.node_count();
    let nodes: Vec<NodeId> = g.nodes().collect();
    let reachable = |set: NodeSet| -> NodeSet {
        set.iter().filter(|&v| (g.in_neighbors(v) - set).len() >= r).collect()
    };
    let mut assignment = vec![0u8; n];
    loop {
        let mut s1 = NodeSet::EMPTY;
        let mut s2 = NodeSet::EMPTY;
        for (i, &v) in nodes.iter().enumerate() {
            match assignment[i] {
                1 => {
                    s1.insert(v);
                }
                2 => {
                    s2.insert(v);
                }
                _ => {}
            }
        }
        if !s1.is_empty() && !s2.is_empty() {
            let x1 = reachable(s1);
            let x2 = reachable(s2);
            if x1 != s1 && x2 != s2 && x1.len() + x2.len() < s {
                return Some((s1, s2));
            }
        }
        let mut i = 0;
        loop {
            if i == n {
                return None;
            }
            if assignment[i] == 2 {
                assignment[i] = 0;
                i += 1;
            } else {
                assignment[i] += 1;
                break;
            }
        }
    }
}

/// The pruned 2^n-mask rewrite must agree with the frozen base-3 reference
/// on every corpus graph small enough for the reference to enumerate.
#[test]
fn exact_rewrite_matches_the_frozen_reference() {
    for (name, g) in corpus() {
        if g.node_count() > 9 {
            continue; // 3^n makes the reference the bottleneck, not us
        }
        for r in 0..=3usize {
            for s in 0..=3usize {
                let expected = reference_violation(&g, r, s).is_none();
                let verdict = exact_verdict(&g, r, s);
                assert_eq!(
                    verdict.holds(),
                    expected,
                    "{name} (r={r}, s={s}): rewrite disagrees with the base-3 reference"
                );
                if let RobustnessVerdict::NotRobust(w) = &verdict {
                    // The rewrite's witness must itself be a genuine
                    // violation, not merely *some* pair.
                    assert!(!w.s1.is_empty() && !w.s2.is_empty() && w.s1.is_disjoint(w.s2));
                    assert!(w.x1.len() + w.x2.len() < s, "{name}: witness is not violating");
                }
            }
        }
    }
}

/// A deterministic corpus graph for the proptest cases: strongly connected
/// so certificates are plentiful, sized by the case index.
fn proptest_graph(seed: u64, n: usize) -> Digraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    generators::random_strongly_connected(n, 0.45, &mut rng)
}

proptest! {
    /// The verifier accepts every certificate the rules issue.
    #[test]
    fn verifier_accepts_issued_certificates(
        seed in 0u64..64,
        n in 4usize..12,
        r in 1usize..4,
        s in 1usize..4,
    ) {
        let g = proptest_graph(seed, n);
        if let Some(cert) = certify(&g, r, s) {
            verify_certificate(&g, &cert).expect("issued certificate must verify");
        }
    }

    /// Tampering with the claimed parameters is rejected: inflating `r` to
    /// the node count breaks every rule's premise (for non-trivial certs),
    /// shifting the node count is rejected outright, and so is any change
    /// to the rule's own parameters (`min_in_degree ± 1`, `k + 1`,
    /// `layers` and `width` swapped).
    #[test]
    fn tampered_params_are_rejected(
        seed in 0u64..64,
        n in 4usize..12,
        r in 1usize..4,
        s in 1usize..4,
    ) {
        let g = proptest_graph(seed, n);
        if let Some(cert) = certify(&g, r, s) {
            let mut inflated = cert.clone();
            inflated.r = n;
            assert!(
                verify_certificate(&g, &inflated).is_err(),
                "rule {} accepted a forged r = n = {n}",
                cert.rule.name()
            );
            let mut shifted = cert.clone();
            shifted.n += 1;
            assert!(verify_certificate(&g, &shifted).is_err(), "wrong node count accepted");
            let forged_rules = match cert.rule {
                CertificateRule::MinInDegree { min_in_degree } => vec![
                    CertificateRule::MinInDegree { min_in_degree: min_in_degree + 1 },
                    CertificateRule::MinInDegree { min_in_degree: min_in_degree - 1 },
                ],
                CertificateRule::CirculantPrefix { k } => {
                    vec![CertificateRule::CirculantPrefix { k: k + 1 }]
                }
                CertificateRule::LayeredExpander { layers, width } if layers != width => {
                    vec![CertificateRule::LayeredExpander { layers: width, width: layers }]
                }
                _ => vec![],
            };
            for rule in forged_rules {
                let forged = RobustnessCertificate { rule, ..cert.clone() };
                assert!(
                    verify_certificate(&g, &forged).is_err(),
                    "accepted {rule:?} in place of the issued {:?}",
                    cert.rule
                );
            }
        }
    }

    /// Forged per-node evidence is rejected entry-by-entry, and padding an
    /// empty evidence vector is caught by the length check.
    #[test]
    fn forged_evidence_is_rejected(
        seed in 0u64..64,
        n in 4usize..12,
        r in 1usize..4,
        s in 1usize..4,
        victim in 0usize..12,
    ) {
        let g = proptest_graph(seed, n);
        if let Some(cert) = certify(&g, r, s) {
            let mut forged = cert.clone();
            if forged.evidence.is_empty() {
                forged.evidence.push(1);
                assert!(
                    verify_certificate(&g, &forged).is_err(),
                    "rule {} accepted padded evidence",
                    cert.rule.name()
                );
            } else {
                let i = victim % forged.evidence.len();
                forged.evidence[i] += 1;
                assert!(
                    verify_certificate(&g, &forged).is_err(),
                    "rule {} accepted forged evidence at {i}",
                    cert.rule.name()
                );
            }
        }
    }
}
