//! Serializable robustness certificates and their O(V+E) verifier.
//!
//! A [`RobustnessCertificate`] is a *trust-but-verify* artifact: it names
//! the sufficient-condition rule that was applied, the rule's parameters,
//! and per-node evidence, and [`verify_certificate`] re-checks all of it
//! against the graph in O(V+E) — **without** re-running either the
//! exponential exact search or the polynomial rule discovery. A tampered
//! certificate (forged parameters, forged node evidence, wrong graph) is
//! rejected with a typed [`CertificateError`].
//!
//! Every rule's soundness argument lives with its issuer in
//! [`crate::robustness::sufficient`]; the verifier only needs to re-check
//! the *premises* (degrees, edges, connectivity, structure) and the
//! rule's arithmetic against the claimed `(r, s)`.

use dbac_graph::connectivity::is_strongly_connected;
use dbac_graph::{generators, Digraph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The sufficient-condition rule a certificate rests on, with its
/// parameters. See [`crate::robustness::sufficient`] for each rule's
/// soundness argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CertificateRule {
    /// `r = 0`, `s = 0`, or `n ≤ 1`: the definition is vacuous.
    Trivial,
    /// Every node has in-degree ≥ `⌊n/2⌋ + r − 1`, which forces the
    /// smaller side of any disjoint pair to be fully r-reachable.
    MinInDegree {
        /// The minimum in-degree over all nodes.
        min_in_degree: usize,
    },
    /// Every node `v` has the `k` consecutive circulant in-neighbors
    /// `v−1, …, v−k (mod n)` with `k ≥ max(2r−1, 2r−2+⌈s/2⌉)` — the
    /// k-circulant / in-degree criterion.
    CirculantPrefix {
        /// The consecutive-offset window bound used by the rule.
        k: usize,
    },
    /// The graph is strongly connected, which certifies `r ≤ 1, s ≤ 2`.
    StronglyConnected,
    /// The graph contains `generators::layered_expander(layers, width)`
    /// as a spanning subgraph, which certifies `r ≤ 1, s ≤ 4`.
    LayeredExpander {
        /// Number of layers in the template (≥ 2).
        layers: usize,
        /// Nodes per layer in the template (≥ 3).
        width: usize,
    },
}

impl CertificateRule {
    /// The rule's stable name (used in labels, tables and JSON artifacts).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CertificateRule::Trivial => "trivial",
            CertificateRule::MinInDegree { .. } => "min-in-degree",
            CertificateRule::CirculantPrefix { .. } => "circulant-prefix",
            CertificateRule::StronglyConnected => "strongly-connected",
            CertificateRule::LayeredExpander { .. } => "layered-expander",
        }
    }
}

/// A machine-checkable claim that a graph is `(r, s)`-robust.
///
/// Produced by [`crate::robustness::certify`]; checked by
/// [`verify_certificate`] in O(V+E).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessCertificate {
    /// Node count of the graph the certificate was issued for.
    pub n: usize,
    /// The certified `r`.
    pub r: usize,
    /// The certified `s`.
    pub s: usize,
    /// The rule and its parameters.
    pub rule: CertificateRule,
    /// Per-node evidence; its meaning is rule-specific (in-degrees for
    /// `min-in-degree`, consecutive-prefix lengths for
    /// `circulant-prefix`, empty for the global rules) and the verifier
    /// recomputes it entry by entry, so a forged entry is rejected.
    pub evidence: Vec<u32>,
}

impl fmt::Display for RobustnessCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})-robust by {} on {} nodes", self.r, self.s, self.rule.name(), self.n)
    }
}

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CertificateError {
    /// The certificate was issued for a different node count.
    NodeCountMismatch {
        /// Node count claimed by the certificate.
        claimed: usize,
        /// Node count of the graph being verified against.
        actual: usize,
    },
    /// The claimed `(r, s)` is outside what the rule can certify.
    ParamsOutOfScope {
        /// The rule's name.
        rule: &'static str,
        /// The claimed `r`.
        r: usize,
        /// The claimed `s`.
        s: usize,
    },
    /// The evidence vector has the wrong length for the rule.
    EvidenceLength {
        /// The rule's name.
        rule: &'static str,
        /// The length the rule requires.
        expected: usize,
        /// The length found.
        got: usize,
    },
    /// A per-node evidence entry does not match the graph.
    EvidenceMismatch {
        /// The node whose entry is wrong.
        node: NodeId,
        /// The entry in the certificate.
        claimed: u32,
        /// The value recomputed from the graph.
        actual: u32,
    },
    /// The rule's arithmetic bound fails for the claimed `(r, s)`.
    BoundNotMet {
        /// The rule's name.
        rule: &'static str,
        /// The bound the rule needs.
        needed: usize,
        /// The quantity the graph provides.
        got: usize,
    },
    /// A structural edge the rule relies on is absent.
    MissingEdge {
        /// Tail of the missing edge.
        from: NodeId,
        /// Head of the missing edge.
        to: NodeId,
    },
    /// The strongly-connected rule was claimed on a disconnected graph.
    NotStronglyConnected,
    /// The rule's structural parameters do not describe this graph.
    BadShape {
        /// The rule's name.
        rule: &'static str,
        /// What went wrong.
        detail: &'static str,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::NodeCountMismatch { claimed, actual } => {
                write!(f, "certificate is for {claimed} nodes, graph has {actual}")
            }
            CertificateError::ParamsOutOfScope { rule, r, s } => {
                write!(f, "rule {rule} cannot certify (r, s) = ({r}, {s})")
            }
            CertificateError::EvidenceLength { rule, expected, got } => {
                write!(f, "rule {rule} needs {expected} evidence entries, found {got}")
            }
            CertificateError::EvidenceMismatch { node, claimed, actual } => {
                write!(f, "evidence for node {node} claims {claimed}, graph says {actual}")
            }
            CertificateError::BoundNotMet { rule, needed, got } => {
                write!(f, "rule {rule} needs {needed}, graph provides {got}")
            }
            CertificateError::MissingEdge { from, to } => {
                write!(f, "required edge {from} -> {to} is absent")
            }
            CertificateError::NotStronglyConnected => {
                write!(f, "graph is not strongly connected")
            }
            CertificateError::BadShape { rule, detail } => {
                write!(f, "rule {rule}: {detail}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// The circulant window the [`CertificateRule::CirculantPrefix`] rule
/// needs for `(r, s)`: `max(2r − 1, 2r − 2 + ⌈s/2⌉)`. The commonly quoted
/// `2(r + s) − 1` criterion implies this bound, so any graph passing the
/// quoted form also passes here. Meaningful for `r, s ≥ 1`.
#[must_use]
pub fn required_circulant_k(r: usize, s: usize) -> usize {
    (2 * r).saturating_sub(1).max((2 * r).saturating_sub(2) + s.div_ceil(2))
}

/// The longest consecutive circulant prefix at `v`: the largest `p` such
/// that every `v−1, …, v−p (mod n)` is an in-neighbor of `v`.
#[must_use]
pub fn circulant_prefix_len(g: &Digraph, v: NodeId, n: usize) -> u32 {
    let mut p = 0u32;
    for i in 1..n {
        let u = NodeId::new((v.index() + n - i) % n);
        if !g.has_edge(u, v) {
            break;
        }
        p += 1;
    }
    p
}

/// Re-checks `cert` against `g` in O(V+E), without re-running the search
/// that issued it.
///
/// # Errors
///
/// A typed [`CertificateError`] naming the first premise that failed:
/// wrong graph, parameters outside the rule's scope, forged per-node
/// evidence, or a missing structural edge.
pub fn verify_certificate(
    g: &Digraph,
    cert: &RobustnessCertificate,
) -> Result<(), CertificateError> {
    let n = g.node_count();
    if cert.n != n {
        return Err(CertificateError::NodeCountMismatch { claimed: cert.n, actual: n });
    }
    let expect_evidence = |expected: usize, rule: &'static str| {
        if cert.evidence.len() == expected {
            Ok(())
        } else {
            Err(CertificateError::EvidenceLength { rule, expected, got: cert.evidence.len() })
        }
    };
    match cert.rule {
        CertificateRule::Trivial => {
            expect_evidence(0, "trivial")?;
            if cert.r == 0 || cert.s == 0 || n <= 1 {
                Ok(())
            } else {
                Err(CertificateError::ParamsOutOfScope { rule: "trivial", r: cert.r, s: cert.s })
            }
        }
        CertificateRule::MinInDegree { min_in_degree } => {
            expect_evidence(n, "min-in-degree")?;
            let mut min = usize::MAX;
            for (i, v) in g.nodes().enumerate() {
                let actual = g.in_neighbors(v).len() as u32;
                if cert.evidence[i] != actual {
                    return Err(CertificateError::EvidenceMismatch {
                        node: v,
                        claimed: cert.evidence[i],
                        actual,
                    });
                }
                min = min.min(actual as usize);
            }
            if min_in_degree != min {
                return Err(CertificateError::BoundNotMet {
                    rule: "min-in-degree",
                    needed: min_in_degree,
                    got: min,
                });
            }
            // δ_in ≥ ⌊n/2⌋ + r − 1 certifies (r, s) for every s.
            let needed = n / 2 + cert.r.saturating_sub(1);
            if cert.r >= 1 && min >= needed {
                Ok(())
            } else {
                Err(CertificateError::BoundNotMet { rule: "min-in-degree", needed, got: min })
            }
        }
        CertificateRule::CirculantPrefix { k } => {
            expect_evidence(n, "circulant-prefix")?;
            if cert.r < 1 || cert.s < 1 {
                return Err(CertificateError::ParamsOutOfScope {
                    rule: "circulant-prefix",
                    r: cert.r,
                    s: cert.s,
                });
            }
            let needed = required_circulant_k(cert.r, cert.s);
            if k < needed || k > n.saturating_sub(1) {
                return Err(CertificateError::BoundNotMet {
                    rule: "circulant-prefix",
                    needed,
                    got: k,
                });
            }
            // Each prefix probe stops at the first absent edge, so the
            // whole pass is O(V+E) even on dense graphs.
            for (i, v) in g.nodes().enumerate() {
                let actual = circulant_prefix_len(g, v, n);
                if cert.evidence[i] != actual {
                    return Err(CertificateError::EvidenceMismatch {
                        node: v,
                        claimed: cert.evidence[i],
                        actual,
                    });
                }
                if (actual as usize) < k {
                    return Err(CertificateError::MissingEdge {
                        from: NodeId::new((v.index() + n - (actual as usize + 1)) % n),
                        to: v,
                    });
                }
            }
            Ok(())
        }
        CertificateRule::StronglyConnected => {
            expect_evidence(0, "strongly-connected")?;
            if cert.r > 1 || cert.s > 2 || cert.r < 1 || cert.s < 1 {
                return Err(CertificateError::ParamsOutOfScope {
                    rule: "strongly-connected",
                    r: cert.r,
                    s: cert.s,
                });
            }
            if n < 2 {
                return Err(CertificateError::BadShape {
                    rule: "strongly-connected",
                    detail: "needs at least 2 nodes (use the trivial rule below that)",
                });
            }
            if is_strongly_connected(g) {
                Ok(())
            } else {
                Err(CertificateError::NotStronglyConnected)
            }
        }
        CertificateRule::LayeredExpander { layers, width } => {
            expect_evidence(0, "layered-expander")?;
            if cert.r != 1 || cert.s < 1 || cert.s > 4 {
                return Err(CertificateError::ParamsOutOfScope {
                    rule: "layered-expander",
                    r: cert.r,
                    s: cert.s,
                });
            }
            if layers < 2 || width < 3 || layers * width != n {
                return Err(CertificateError::BadShape {
                    rule: "layered-expander",
                    detail: "layers/width do not tile the node count (layers ≥ 2, width ≥ 3)",
                });
            }
            // The template must be a spanning subgraph: extra edges only
            // strengthen robustness (X_S^r grows monotonically with
            // in-neighborhoods), so containment is what the rule needs.
            let template = generators::layered_expander(layers, width);
            for (u, v) in template.edges() {
                if !g.has_edge(u, v) {
                    return Err(CertificateError::MissingEdge { from: u, to: v });
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::generators;

    #[test]
    fn required_k_matches_the_quoted_criterion() {
        // k ≥ 2(r+s)−1 (the commonly quoted form) always implies our
        // sharper bound, so the quoted criterion is honored.
        for r in 1..=5 {
            for s in 1..=5 {
                assert!(required_circulant_k(r, s) < 2 * (r + s), "r={r} s={s}");
            }
        }
        assert_eq!(required_circulant_k(1, 1), 1);
        assert_eq!(required_circulant_k(2, 2), 3);
    }

    #[test]
    fn wrong_graph_is_rejected() {
        let g = generators::clique(5);
        let cert = RobustnessCertificate {
            n: 6,
            r: 1,
            s: 1,
            rule: CertificateRule::Trivial,
            evidence: vec![],
        };
        assert!(matches!(
            verify_certificate(&g, &cert),
            Err(CertificateError::NodeCountMismatch { claimed: 6, actual: 5 })
        ));
    }

    #[test]
    fn prefix_len_probes_stop_at_the_gap() {
        let g = generators::circulant(8, &[1, 2, 4]);
        for v in g.nodes() {
            assert_eq!(circulant_prefix_len(&g, v, 8), 2, "offsets 1,2 form the prefix");
        }
        let full = generators::clique(4);
        for v in full.nodes() {
            assert_eq!(circulant_prefix_len(&full, v, 4), 3);
        }
    }
}
