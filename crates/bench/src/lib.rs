//! # dbac-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (the binaries in `src/bin`, experiments E1–E15), plus shared utilities:
//! text tables, graph catalogs, the [`plan`] plumbing of the
//! `ExperimentPlan`-driven binaries, the Appendix-B indistinguishability
//! splice, the [`daemon`] module backing the `dbacd` live-stats operator
//! binary, and [`json`], which renders and parses every JSON artifact and
//! RPC reply.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod daemon;
pub mod impossibility;
pub mod json;
pub mod plan;
pub mod table;
