//! # dbac-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (the binaries in `src/bin`, experiments E1–E15), plus shared utilities:
//! text tables, graph catalogs, the [`plan`] plumbing of the
//! `ExperimentPlan`-driven binaries, the Appendix-B indistinguishability
//! splice, and the [`daemon`] module backing the `dbacd` live-stats
//! operator binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod daemon;
pub mod impossibility;
pub mod plan;
pub mod table;
pub mod trend;
