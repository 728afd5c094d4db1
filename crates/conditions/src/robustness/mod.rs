//! `(r, s)`-robustness: the exact checker, certified sufficient
//! conditions, and the certificate verifier.
//!
//! Robustness (LeBlanc–Zhang–Koutsoukos–Sundaram) is the tight condition
//! for the *iterative* consensus family of the related work
//! (Vaidya–Tseng–Liang, arXiv 1201.4183 and its asynchronous Part II,
//! arXiv 1202.6094): under the `f`-total malicious model, W-MSR with
//! parameter `f` is correct iff the network is `(f+1, f+1)`-robust. The
//! exact decision procedure quantifies over subset pairs and is
//! exponential — fine at experiment scale, unusable past ~20 nodes — so
//! this subsystem splits the problem in three:
//!
//! * [`exact`] — the typed exponential checker ([`exact_verdict`] /
//!   [`is_r_s_robust`]; a violating pair is
//!   `exact_verdict(..).violation()`), rewritten with candidate pruning
//!   and early-exit witness search.
//! * [`sufficient`] — polynomial rules ([`certify`]) that issue a
//!   serializable [`RobustnessCertificate`] naming the rule, its
//!   parameters and per-node evidence; when none applies the result is a
//!   typed, non-fatal [`CertificationStatus::Uncertified`] warning. Each
//!   rule is stated once, here, with its soundness argument.
//! * [`certificate`] — the certificate types and [`verify_certificate`],
//!   which re-runs the one rule a certificate names (O(V+E) for fixed
//!   parameters, with neither rule discovery nor the exact search) and
//!   accepts iff the rule issues the same certificate: certificates are
//!   trust-but-verify artifacts that ship next to large-n experiment
//!   outputs.
//!
//! The scalable generator families of `dbac_graph::generators`
//! (`circulant`, `circulant_pow2`, `layered_expander`) are certified by
//! handing the built graph to [`certify`], whose circulant-prefix and
//! layered-expander rules are written for them.
//!
//! # Example
//!
//! ```
//! use dbac_conditions::robustness::{certify, is_r_s_robust, verify_certificate};
//! use dbac_graph::generators;
//!
//! // K5 supports f = 1 ((2,2)-robust); the in-degree rule proves it in
//! // polynomial time and the exact checker agrees.
//! let g = generators::clique(5);
//! let cert = certify(&g, 2, 2).expect("a rule applies");
//! verify_certificate(&g, &cert).expect("the rule re-issues it");
//! assert!(is_r_s_robust(&g, 2, 2));
//!
//! // At 10^4 nodes only the certificate path is feasible:
//! let big = generators::circulant_pow2(256);
//! let cert = certify(&big, 1, 1).expect("circulant window rule");
//! verify_certificate(&big, &cert).expect("still O(V+E)");
//! ```

pub mod certificate;
pub mod exact;
pub mod sufficient;

pub use certificate::{
    verify_certificate, CertificateError, CertificateRule, RobustnessCertificate,
};
pub use exact::{
    exact_verdict, is_r_s_robust, r_reachable_subset, RobustnessVerdict, RobustnessViolation,
};
pub use sufficient::{certification, certify, required_circulant_k, CertificationStatus};
