//! Serializable robustness certificates and their verifier.
//!
//! A [`RobustnessCertificate`] is a *trust-but-verify* artifact: it names
//! the sufficient-condition rule that issued it, the rule's parameters
//! and per-node evidence. [`verify_certificate`] states no premise of its
//! own. It re-runs the one rule the certificate names, at the
//! certificate's `(r, s)` (and, for the layered expander, at its
//! `layers` × `width`), and accepts iff the rule issues the same
//! certificate again. Every rule is O(V+E) for fixed parameters, so
//! verifying never re-runs rule discovery ([`certify`]'s walk over the
//! rules and the expander's factorizations) nor the exponential exact
//! search.
//!
//! The verifier therefore accepts exactly what the named rule issues on
//! the graph: a tampered certificate (forged parameters, forged or padded
//! evidence, wrong graph) is rejected with a typed [`CertificateError`].
//! Each rule's premises and soundness argument are stated once, with the
//! rule, in [`crate::robustness::sufficient`].
//!
//! [`certify`]: crate::robustness::certify

use super::sufficient::{
    circulant_prefix_rule, layered_expander_rule, min_in_degree_rule, strongly_connected_rule,
    trivial_rule,
};
use dbac_graph::{Digraph, NodeId};
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
    /// `v−1, …, v−k (mod n)` with `k = max(2r−1, 2r−2+⌈s/2⌉)` — the
    /// k-circulant / in-degree criterion.
    CirculantPrefix {
        /// The consecutive-offset window the rule needs for `(r, s)`.
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
/// [`verify_certificate`], which re-runs the rule it names.
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
    /// `circulant-prefix`, empty for the global rules). The verifier's
    /// re-derivation recomputes every entry, so a forged one is rejected.
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
    /// The named rule issues no certificate on this graph at the claimed
    /// `(r, s)` (and, for the layered expander, the claimed shape).
    RuleDoesNotApply {
        /// The rule the certificate names.
        rule: CertificateRule,
        /// The claimed `r`.
        r: usize,
        /// The claimed `s`.
        s: usize,
    },
    /// The first per-node evidence entry that differs from the rule's
    /// re-derivation.
    EvidenceMismatch {
        /// The node whose entry is wrong.
        node: NodeId,
        /// The entry in the certificate.
        claimed: u32,
        /// The value recomputed from the graph.
        actual: u32,
    },
    /// The rule's re-derivation differs elsewhere: in a rule parameter
    /// or in the length of the evidence.
    ParameterMismatch {
        /// The rule and parameters the certificate claims.
        claimed: CertificateRule,
        /// The rule and parameters the re-derivation issues.
        derived: CertificateRule,
        /// The certificate's evidence length.
        claimed_evidence: usize,
        /// The re-derivation's evidence length.
        derived_evidence: usize,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::NodeCountMismatch { claimed, actual } => {
                write!(f, "certificate is for {claimed} nodes, graph has {actual}")
            }
            CertificateError::RuleDoesNotApply { rule, r, s } => {
                write!(f, "rule {} does not certify (r, s) = ({r}, {s}) here", rule.name())
            }
            CertificateError::EvidenceMismatch { node, claimed, actual } => {
                write!(f, "evidence for node {node} claims {claimed}, graph says {actual}")
            }
            CertificateError::ParameterMismatch {
                claimed,
                derived,
                claimed_evidence,
                derived_evidence,
            } => write!(
                f,
                "certificate claims {claimed:?} with {claimed_evidence} evidence entries, \
                 the rule derives {derived:?} with {derived_evidence}"
            ),
        }
    }
}

impl std::error::Error for CertificateError {}

/// Re-checks `cert` against `g` by re-running the rule it names, in
/// O(V+E) for fixed parameters.
///
/// # Errors
///
/// A typed [`CertificateError`]: the wrong node count, a rule that does
/// not apply at the claimed parameters, the first forged evidence entry,
/// or any other difference from the rule's re-derivation.
pub fn verify_certificate(
    g: &Digraph,
    cert: &RobustnessCertificate,
) -> Result<(), CertificateError> {
    let n = g.node_count();
    if cert.n != n {
        return Err(CertificateError::NodeCountMismatch { claimed: cert.n, actual: n });
    }
    let (r, s) = (cert.r, cert.s);
    let derived = match cert.rule {
        CertificateRule::Trivial => trivial_rule(g, r, s),
        CertificateRule::MinInDegree { .. } => min_in_degree_rule(g, r, s),
        CertificateRule::CirculantPrefix { .. } => circulant_prefix_rule(g, r, s),
        CertificateRule::StronglyConnected => strongly_connected_rule(g, r, s),
        CertificateRule::LayeredExpander { layers, width } => {
            layered_expander_rule(g, layers, width, r, s)
        }
    }
    .ok_or(CertificateError::RuleDoesNotApply { rule: cert.rule, r, s })?;
    let entries = cert.evidence.iter().zip(&derived.evidence);
    if let Some((i, (&claimed, &actual))) = entries.enumerate().find(|(_, (c, a))| c != a) {
        return Err(CertificateError::EvidenceMismatch { node: NodeId::new(i), claimed, actual });
    }
    if *cert != derived {
        return Err(CertificateError::ParameterMismatch {
            claimed: cert.rule,
            derived: derived.rule,
            claimed_evidence: cert.evidence.len(),
            derived_evidence: derived.evidence.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::certify;
    use dbac_graph::generators;

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
    fn only_what_the_rule_issues_is_accepted() {
        // circulant(12, {1,2,3,4}) has a 4-window, but (2, 2) needs only
        // k = 3: the rule issues k = 3, and a claimed k = 4 is rejected.
        let g = generators::circulant(12, &[1, 2, 3, 4]);
        let cert = certify(&g, 2, 2).expect("circulant window rule");
        assert_eq!(cert.rule, CertificateRule::CirculantPrefix { k: 3 });
        let mut wide = cert.clone();
        wide.rule = CertificateRule::CirculantPrefix { k: 4 };
        assert_eq!(
            verify_certificate(&g, &wide),
            Err(CertificateError::ParameterMismatch {
                claimed: wide.rule,
                derived: cert.rule,
                claimed_evidence: 12,
                derived_evidence: 12,
            })
        );

        // s = 0 is the trivial rule's: min-in-degree does not issue it.
        let k5 = generators::clique(5);
        let cert = certify(&k5, 2, 2).expect("min-in-degree rule");
        let mut vacuous = cert.clone();
        vacuous.s = 0;
        assert_eq!(
            verify_certificate(&k5, &vacuous),
            Err(CertificateError::RuleDoesNotApply { rule: cert.rule, r: 2, s: 0 })
        );

        // The first forged entry is named with both values.
        let mut forged = cert;
        forged.evidence[3] = 7;
        assert_eq!(
            verify_certificate(&k5, &forged),
            Err(CertificateError::EvidenceMismatch { node: NodeId::new(3), claimed: 7, actual: 4 })
        );
    }
}
