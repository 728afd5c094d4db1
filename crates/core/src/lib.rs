//! # dbac-core
//!
//! The algorithms of *"Asynchronous Byzantine Approximate Consensus in
//! Directed Networks"* (Sakavalas, Tseng, Vaidya — PODC 2020):
//!
//! * [`witness`] — **Algorithm 1 (Byzantine Witness)** and **Algorithm 2
//!   (Completeness)**: per-fault-guess parallel threads, the
//!   Maximal-Consistency condition, FIFO-Receive-All, and the
//!   source-component verification of received witness sets.
//! * [`filter`] — **Algorithm 3 (Filter-and-Average)**: f-cover trimming
//!   of the sorted round history and the midpoint update.
//! * [`flood`] / [`fifo`] — the **RedundantFlood** (Appendix E) and
//!   **FIFO flood/receive** (Appendix F) subroutines.
//! * [`node`] — the honest node tying it all together across rounds, with
//!   the paper's termination rule (`R > log₂(K/ε)`, Section 4.6).
//! * [`adversary`] — the Byzantine adversary of Algorithm BW: one actor
//!   driven by the fault kind (crash, constant lying, equivocation, relay
//!   tampering, path fabrication, chaos).
//! * [`crash`] — the asynchronous crash-tolerant 2-reach protocol
//!   (Table 2's other asynchronous cell).
//! * [`scenario`] — the unified **Scenario → Outcome** experiment surface:
//!   one builder over every protocol and runtime, plus the dimensional
//!   [`scenario::sweep`] experiment-plan layer with seed-batch reduction,
//!   and the live [`scenario::StatsRegistry`] observability plane.
//!
//! # Example
//!
//! ```
//! use dbac_core::scenario::{ByzantineWitness, FaultKind, Scenario};
//! use dbac_graph::{generators, NodeId};
//!
//! // K4 tolerates one Byzantine node (n > 3f).
//! let outcome = Scenario::builder(generators::clique(4), 1)
//!     .inputs(vec![1.0, 3.0, 2.0, 0.0])
//!     .epsilon(0.5)
//!     .fault(NodeId::new(3), FaultKind::ConstantLiar { value: 1e6 })
//!     .seed(42)
//!     .protocol(ByzantineWitness::default())
//!     .run()?;
//! assert!(outcome.converged() && outcome.valid());
//! # Ok::<(), dbac_core::error::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod config;
pub mod crash;
pub mod error;
pub mod fifo;
pub mod filter;
pub mod flood;
pub mod message;
pub mod message_set;
pub mod node;
pub mod precompute;
pub mod scenario;
pub mod wire;
pub mod witness;

#[cfg(test)]
pub(crate) mod test_support;

pub use config::{num_rounds, FloodMode, ProtocolConfig};
pub use error::RunError;
pub use message::{ProtocolMsg, Round};
pub use message_set::{CompletePayload, MessageSet};
pub use node::HonestNode;
pub use precompute::Topology;
pub use scenario::{
    ByzantineWitness, CrashTwoReach, FaultKind, Outcome, Protocol, Runtime, Scenario,
    SchedulerSpec, StatsRegistry, StatsSnapshot,
};
