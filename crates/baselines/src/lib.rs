//! # dbac-baselines
//!
//! The algorithms the paper builds on or positions itself against:
//!
//! * [`reliable_broadcast`] — Bracha's reliable broadcast (`n > 3f`,
//!   complete networks): the substrate of the Abraham–Amit–Dolev
//!   algorithm.
//! * [`aad04`] — **Abraham, Amit, Dolev (OPODIS 2004)**: optimal-resilience
//!   asynchronous approximate agreement on complete networks. The paper's
//!   Algorithm BW is "a non-trivial generalization" of it to directed,
//!   incomplete networks; experiment E9 compares the two on cliques.
//! * [`iterative`] — the iterative trimmed-mean (W-MSR style) algorithm of
//!   the related work ([13, 25]): purely local filtering, correct under
//!   graph *robustness* rather than 3-reach; experiment E10 contrasts the
//!   two conditions.
//! * [`iterengine`] — the message-passing W-MSR engine: a ring of columnar
//!   round rows and an in-place trimmed-mean kernel, runnable on all
//!   three runtimes (Sim, Threaded, Net) and built to scale past 10⁴
//!   nodes.
//! * [`scenario`] — [`Protocol`](dbac_core::scenario::Protocol)
//!   implementations plugging AAD04 (over reliable broadcast) and W-MSR
//!   into the workspace's unified **Scenario → Outcome** experiment
//!   surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aad04;
pub mod iterative;
pub mod iterengine;
pub mod reliable_broadcast;
pub mod scenario;
pub mod wire;

pub use scenario::{Aad04, IterativeTrimmedMean};
