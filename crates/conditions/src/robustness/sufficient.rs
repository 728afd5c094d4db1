//! Polynomial sufficient conditions for `(r, s)`-robustness.
//!
//! Each rule here is **sound**: when it issues a
//! [`RobustnessCertificate`], the graph really is `(r, s)`-robust. None
//! is complete — a robust graph may match no rule, which is exactly what
//! the typed `Uncertified` status is for. The differential harness
//! (`tests/robustness_differential.rs`) replays every issued certificate
//! against the exact exponential checker on all corpus graphs ≤ 12 nodes.
//!
//! Each rule is also its own verifier: [`verify_certificate`] re-runs the
//! rule a certificate names and compares, so a rule's premises are stated
//! here and nowhere else.
//!
//! [`verify_certificate`]: crate::robustness::verify_certificate
//!
//! # The rules and why they are sound
//!
//! Throughout, `S1, S2` is a disjoint non-empty pair and
//! `Xi = X_{Si}^r` its r-reachable subsets; a *violation* needs
//! `X1 ≠ S1`, `X2 ≠ S2` and `|X1| + |X2| < s`.
//!
//! **Trivial** (`r = 0`, `s = 0`, or `n ≤ 1`). With `r = 0` every node
//! has ≥ 0 outside in-neighbors, so `X_S^0 = S` always; with `s = 0` the
//! size clause holds vacuously; with `n ≤ 1` no disjoint non-empty pair
//! exists.
//!
//! **Minimum in-degree** (`δ_in ≥ ⌊n/2⌋ + r − 1` certifies `(r, s)` for
//! *every* `s`). The smaller side of a disjoint pair has
//! `|S| ≤ ⌊n/2⌋`, so each of its nodes keeps at least
//! `δ_in − (|S| − 1) ≥ ⌊n/2⌋ + r − 1 − ⌊n/2⌋ + 1 = r` in-neighbors
//! outside `S` — that side is fully r-reachable and the condition holds.
//!
//! **Circulant prefix** (every node `v` has in-neighbors
//! `v−1, …, v−k (mod n)`, `k ≥ max(2r−1, 2r−2+⌈s/2⌉)`). Write
//! `a(v) = |W_v ∩ S1|` for the window `W_v = {v−1, …, v−k}`. If
//! `X1 ≠ S1` some `u1 ∈ S1` has fewer than `r` in-neighbors outside
//! `S1`, hence `a(u1) ≥ k − r + 1`; symmetrically `u2 ∈ S2` gives
//! `a(u2) ≤ k − b(u2) ≤ r − 1`. Walking the circle one step at a time,
//! `a` changes by at most 1 per step and *increments only at steps whose
//! position is an `S1` node*. On the arc from `u2` to `u1` the value
//! must climb from ≤ `r − 1` to ≥ `k − r + 1`, so before it first
//! reaches `k − r + 1` there are at least `k − 2r + 2` increment steps —
//! each at a distinct `S1` node `p` with `a(p) ≤ k − r`, i.e. with ≥ `r`
//! window in-neighbors outside `S1`, so `p ∈ X1`. Thus
//! `|X1| ≥ k − 2r + 2`, and symmetrically `|X2| ≥ k − 2r + 2` on the
//! complementary arc; `k ≥ 2r − 2 + ⌈s/2⌉` makes the sum ≥ `s`. Extra
//! edges beyond the window only *add* outside in-neighbors, so the rule
//! applies to any supergraph of the consecutive circulant — the commonly
//! quoted "every node has ≥ 2(r+s)−1 circulant in-neighbors" criterion
//! is the special case `k = 2(r+s)−1`.
//!
//! **Strong connectivity** (certifies `r ≤ 1`, `s ≤ 2`). Every proper
//! non-empty `S` receives an edge from outside, so `|X_S^1| ≥ 1`; both
//! sides of a disjoint pair are proper, giving `|X1| + |X2| ≥ 2`.
//!
//! **Layered expander** (a spanning
//! [`generators::layered_expander`]`(L, w)` subgraph, `L ≥ 2`, `w ≥ 3`,
//! certifies `r = 1`, `s ≤ 4`). The template stays strongly connected
//! after removing any single vertex: a layer ring minus a node is still
//! a path, and of the ≥ 3 distinct forward fan targets at most one can
//! be the removed node. Consequently no proper `S` with `|S|, |V∖S| ≥ 2`
//! can funnel all incoming edges through one head (removing that head
//! would disconnect the rest), so `X_S^1 ≠ S` implies `|X_S^1| ≥ 2`
//! (singletons are always fully 1-reachable, and `|V∖S| = 1` gives `X_S`
//! at least the lone outside node's ≥ 2 ring successors). Both sides of
//! a violating pair therefore contribute 2, and `|X1| + |X2| ≥ 4 ≥ s`.
//! Extra edges again only help.

use super::certificate::{CertificateRule, RobustnessCertificate};
use dbac_graph::connectivity::is_strongly_connected;
use dbac_graph::{generators, Digraph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The outcome of consulting the certificate rules for a topology: a
/// certificate, or a typed, non-fatal `Uncertified` warning.
///
/// `Uncertified` does **not** mean "not robust" — the rules are sound but
/// incomplete — it means the run rides on faith and should say so.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CertificationStatus {
    /// A rule applied; the certificate is attached.
    Certified(RobustnessCertificate),
    /// No sufficient condition applied to this graph at these parameters.
    Uncertified {
        /// The `r` that was requested.
        r: usize,
        /// The `s` that was requested.
        s: usize,
    },
}

impl CertificationStatus {
    /// The certificate, if one was issued.
    #[must_use]
    pub fn certificate(&self) -> Option<&RobustnessCertificate> {
        match self {
            CertificationStatus::Certified(c) => Some(c),
            CertificationStatus::Uncertified { .. } => None,
        }
    }

    /// The rule name, or the literal `"UNCERTIFIED"` marker — the string
    /// reports and sweep labels carry.
    #[must_use]
    pub fn rule_label(&self) -> &'static str {
        match self {
            CertificationStatus::Certified(c) => c.rule.name(),
            CertificationStatus::Uncertified { .. } => "UNCERTIFIED",
        }
    }
}

impl fmt::Display for CertificationStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificationStatus::Certified(c) => write!(f, "{c}"),
            CertificationStatus::Uncertified { r, s } => {
                write!(f, "UNCERTIFIED for ({r}, {s})-robustness")
            }
        }
    }
}

/// Tries every sufficient rule in order of cost and returns the first
/// certificate that applies, or `None`.
///
/// Rule order: trivial (O(1)), minimum in-degree (O(V+E)), circulant
/// prefix (O(V+E)), strong connectivity (O(V+E), only covers
/// `r ≤ 1, s ≤ 2`), layered-expander shape detection (O(d(n)·(V+E)) over
/// the divisors of `n`, only covers `r = 1, s ≤ 4`).
#[must_use]
pub fn certify(g: &Digraph, r: usize, s: usize) -> Option<RobustnessCertificate> {
    trivial_rule(g, r, s)
        .or_else(|| min_in_degree_rule(g, r, s))
        .or_else(|| circulant_prefix_rule(g, r, s))
        .or_else(|| strongly_connected_rule(g, r, s))
        .or_else(|| layered_expander_detect(g, r, s))
}

/// [`certify`] wrapped as a typed status: the certificate, or the
/// `Uncertified` warning carrying the requested parameters.
#[must_use]
pub fn certification(g: &Digraph, r: usize, s: usize) -> CertificationStatus {
    match certify(g, r, s) {
        Some(c) => CertificationStatus::Certified(c),
        None => CertificationStatus::Uncertified { r, s },
    }
}

/// The vacuous regimes: `r = 0`, `s = 0`, or `n ≤ 1`.
#[must_use]
pub fn trivial_rule(g: &Digraph, r: usize, s: usize) -> Option<RobustnessCertificate> {
    let n = g.node_count();
    (r == 0 || s == 0 || n <= 1).then(|| RobustnessCertificate {
        n,
        r,
        s,
        rule: CertificateRule::Trivial,
        evidence: vec![],
    })
}

/// The minimum-in-degree bound: `δ_in ≥ ⌊n/2⌋ + r − 1` certifies
/// `(r, s)`-robustness for every `s`. Evidence: each node's in-degree.
#[must_use]
pub fn min_in_degree_rule(g: &Digraph, r: usize, s: usize) -> Option<RobustnessCertificate> {
    let n = g.node_count();
    if r == 0 || s == 0 || n <= 1 {
        return None; // the trivial rule's territory
    }
    let degrees: Vec<u32> = g.nodes().map(|v| g.in_neighbors(v).len() as u32).collect();
    let min = degrees.iter().copied().min()? as usize;
    (min >= n / 2 + r - 1).then_some(RobustnessCertificate {
        n,
        r,
        s,
        rule: CertificateRule::MinInDegree { min_in_degree: min },
        evidence: degrees,
    })
}

/// The circulant window the [`CertificateRule::CirculantPrefix`] rule
/// needs for `(r, s)`: `max(2r − 1, 2r − 2 + ⌈s/2⌉)`. The commonly quoted
/// `2(r + s) − 1` criterion implies this bound, so any graph passing the
/// quoted form also passes here. Meaningful for `r, s ≥ 1`.
#[must_use]
pub fn required_circulant_k(r: usize, s: usize) -> usize {
    (2 * r).saturating_sub(1).max((2 * r).saturating_sub(2) + s.div_ceil(2))
}

/// The longest consecutive circulant prefix at `v`: the largest `p` such
/// that every `v−1, …, v−p (mod n)` is an in-neighbor of `v`. Each probe
/// stops at the first absent edge, so a pass over all nodes is O(V+E).
fn circulant_prefix_len(g: &Digraph, v: NodeId, n: usize) -> u32 {
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

/// The k-circulant criterion: every node has the consecutive circulant
/// in-neighbors `v−1, …, v−k` with `k =` [`required_circulant_k`]`(r, s)`
/// (implied by the commonly quoted `k ≥ 2(r+s)−1`). Evidence: each
/// node's actual consecutive-prefix length.
#[must_use]
pub fn circulant_prefix_rule(g: &Digraph, r: usize, s: usize) -> Option<RobustnessCertificate> {
    let n = g.node_count();
    if r == 0 || s == 0 || n <= 1 {
        return None;
    }
    let k = required_circulant_k(r, s);
    if k > n - 1 {
        return None;
    }
    let mut evidence = Vec::with_capacity(n);
    for v in g.nodes() {
        let p = circulant_prefix_len(g, v, n);
        if (p as usize) < k {
            return None;
        }
        evidence.push(p);
    }
    Some(RobustnessCertificate { n, r, s, rule: CertificateRule::CirculantPrefix { k }, evidence })
}

/// Strong connectivity certifies `(1, 2)`-robustness (hence `(1, 1)`).
#[must_use]
pub fn strongly_connected_rule(g: &Digraph, r: usize, s: usize) -> Option<RobustnessCertificate> {
    let n = g.node_count();
    if r != 1 || !(1..=2).contains(&s) || n < 2 {
        return None;
    }
    is_strongly_connected(g).then(|| RobustnessCertificate {
        n,
        r,
        s,
        rule: CertificateRule::StronglyConnected,
        evidence: vec![],
    })
}

/// The layered-expander composition rule with *known* template
/// parameters ([`layered_expander_detect`] tries each factorization).
#[must_use]
pub fn layered_expander_rule(
    g: &Digraph,
    layers: usize,
    width: usize,
    r: usize,
    s: usize,
) -> Option<RobustnessCertificate> {
    let n = g.node_count();
    if r != 1 || !(1..=4).contains(&s) || layers < 2 || width < 3 || layers * width != n {
        return None;
    }
    let template = generators::layered_expander(layers, width);
    let spanning = template.edges().all(|(u, v)| g.has_edge(u, v));
    spanning.then(|| RobustnessCertificate {
        n,
        r,
        s,
        rule: CertificateRule::LayeredExpander { layers, width },
        evidence: vec![],
    })
}

/// Detection form of the layered-expander rule for arbitrary graphs: try
/// every `(layers, width)` factorization of `n` and accept the first
/// whose template is a spanning subgraph.
#[must_use]
pub fn layered_expander_detect(g: &Digraph, r: usize, s: usize) -> Option<RobustnessCertificate> {
    let n = g.node_count();
    if r != 1 || !(1..=4).contains(&s) {
        return None;
    }
    for layers in 2..=n / 3 {
        if n % layers == 0 {
            let width = n / layers;
            if width >= 3 {
                if let Some(cert) = layered_expander_rule(g, layers, width, r, s) {
                    return Some(cert);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::certificate::verify_certificate;
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

    #[test]
    fn clique_certified_by_min_in_degree() {
        let g = generators::clique(5);
        let cert = certify(&g, 2, 2).expect("K5 is (2,2)-robust by δ_in = 4 ≥ 3");
        assert_eq!(cert.rule.name(), "min-in-degree");
        verify_certificate(&g, &cert).expect("verifies");
    }

    #[test]
    fn circulant_certified_for_f1() {
        // circulant(n, {1,2,3}) has the k = 3 window, enough for (2, 2).
        let g = generators::circulant(12, &[1, 2, 3]);
        let cert = certify(&g, 2, 2).expect("k = 3 ≥ required 3");
        assert_eq!(cert.rule.name(), "circulant-prefix");
        verify_certificate(&g, &cert).expect("verifies");
    }

    #[test]
    fn directed_cycle_certified_only_weakly() {
        let g = generators::directed_cycle(8);
        // (1,1) via the 1-window; (2,2) matches no rule (and is false).
        assert!(certify(&g, 1, 1).is_some());
        assert!(certify(&g, 2, 2).is_none());
    }

    #[test]
    fn layered_expander_detected_when_degree_rules_fail() {
        // 2 layers × 6: δ_in = 5 < ⌊12/2⌋, prefix window is 1, s = 3 is
        // out of the strong-connectivity rule's reach — only the layered
        // template matches.
        let g = generators::layered_expander(2, 6);
        let cert = certify(&g, 1, 3).expect("layered rule applies");
        assert_eq!(cert.rule.name(), "layered-expander");
        verify_certificate(&g, &cert).expect("verifies");
    }

    #[test]
    fn uncertified_is_a_typed_warning() {
        let status = certification(&generators::bidirectional_cycle(6), 2, 2);
        assert!(status.certificate().is_none());
        assert_eq!(status.rule_label(), "UNCERTIFIED");
        assert_eq!(status.to_string(), "UNCERTIFIED for (2, 2)-robustness");
    }
}
