//! # dbac-conditions
//!
//! The topological conditions of *"Asynchronous Byzantine Approximate
//! Consensus in Directed Networks"* (PODC 2020), as executable checkers:
//!
//! * [`reach`] — reach sets `reach_v(F)` (Definition 2/15), one node or
//!   all nodes per removal set, with caching.
//! * [`reduced`] — reduced graphs `G_{F1,F2}` (Definition 5) and source
//!   components `S_{F1,F2}` (Definition 6).
//! * [`kreach`] — the general k-reach family (Definition 20), of which
//!   the **1-reach / 2-reach / 3-reach** conditions (Definition 3) are
//!   the first three members. The paper's main result: 3-reach is tight
//!   for asynchronous Byzantine approximate consensus.
//! * [`partition`] — Tseng–Vaidya's **CCS / CCA / BCS** conditions
//!   (Definitions 16–18), proven equivalent to 1-/2-/3-reach in
//!   Theorem 17; both forms are implemented so the equivalence is
//!   *checked*, not assumed.
//! * [`cover`] — `f`-covers of path sets (Definition 4), the filtering
//!   primitive of Algorithms 2 and 3.
//! * [`propagate`] — the propagation relation `A ⇝_C B` (Definition 10).
//! * [`theorems`] — exhaustive sweeps checking Theorem 5 (source
//!   components propagate) and Theorem 12 (source components overlap).
//! * [`robustness`] — the related work's `(r, s)`-robustness (tight for
//!   iterative W-MSR consensus): a typed exact checker, polynomial
//!   sufficient conditions ([`certify`]) issuing serializable
//!   [`RobustnessCertificate`]s, and an O(V+E) certificate verifier so
//!   large-n topologies ship with proof instead of faith.
//!
//! # Example
//!
//! ```
//! use dbac_conditions::kreach;
//! use dbac_graph::generators;
//!
//! // In a clique, 3-reach ⇔ n > 3f (Appendix A).
//! assert!(kreach::three_reach(&generators::clique(4), 1).holds());
//! assert!(!kreach::three_reach(&generators::clique(3), 1).holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod kreach;
pub mod partition;
pub mod propagate;
pub mod reach;
pub mod reduced;
pub mod robustness;
pub mod theorems;

pub use kreach::{k_reach, one_reach, three_reach, two_reach, ConditionOutcome, ReachViolation};
pub use reach::{reach_set, reach_sets, ReachCache};
pub use reduced::source_component;
pub use robustness::{
    certify, verify_certificate, CertificationStatus, RobustnessCertificate, RobustnessVerdict,
};
