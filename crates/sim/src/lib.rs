//! # dbac-sim
//!
//! Asynchronous message-passing runtimes for the `dbac` workspace.
//!
//! The paper's system model (Section 2): reliable directed links, unbounded
//! but finite message delays, event-driven nodes, up to `f` Byzantine
//! nodes. The model has one send primitive — a node, honest or Byzantine,
//! transmits over its own outgoing authenticated edge — and one receive
//! event, and the crate states each of them once: **one fleet, one send
//! gate, two drivers, two outlets.**
//!
//! * The [`Fleet`] is a run under construction: the network, one actor per
//!   node (a [`process::Process`] state machine, or a
//!   [`process::Adversary`] that may send arbitrary well-typed messages
//!   over its own out-edges — links are authenticated, so a faulty node
//!   cannot impersonate another sender), an optional
//!   [`chaos::LinkFaultPlan`] and the run's [`stats::StatsRegistry`], the
//!   only ledger a run keeps.
//! * The **send gate** is the send primitive. Every message of every
//!   driver passes it: it classifies and counts the message, asks the
//!   seeded per-edge fault schedule (drop / duplicate / reorder / corrupt /
//!   partition / omit) for a verdict that is a pure function of the plan
//!   and the edge's message index, and books the fate on the sender's
//!   registry shard — so the fate of the k-th message on an edge is
//!   runtime-independent.
//! * The **virtual-time driver**, [`sim::Simulation`], is a deterministic
//!   discrete-event loop on one thread, delivering in `(time, enqueue
//!   order)` order out of a calendar queue (per-tick FIFO buckets, with a
//!   heap only for far-future events; see [`sim`]). Delivery times come
//!   from a pluggable [`scheduler::DeliveryPolicy`] (fixed, seeded-random,
//!   or adversarial per-edge delays — the latter is exactly what the
//!   Appendix-B impossibility construction needs). Runs are reproducible
//!   bit-for-bit from a seed, and can record a [`trace::Trace`] for the
//!   indistinguishability replay experiment.
//! * The **wall-clock driver**, [`Fleet::run`], puts every node on its own
//!   thread — a node holding its inbox and its outlet, looping until the
//!   watchdog stops the network — demonstrating that the protocol really
//!   is event-driven and order-insensitive under true OS-level
//!   concurrency. It is monomorphised over one of two outlets, chosen by
//!   the configuration it is given: crossbeam channels with seeded jitter
//!   ([`threaded::ThreadedConfig`], the [`threaded`] runtime), or every
//!   message serialized through the length-prefixed binary codec
//!   ([`net::codec`]) onto framed, handshaken duplex connections
//!   ([`net::connection`]) — loopback TCP when the sandbox allows sockets,
//!   byte-real in-process pipes otherwise ([`net::NetConfig`], the [`net`]
//!   runtime).
//!
//! # Example
//!
//! ```
//! use dbac_graph::{generators, NodeId};
//! use dbac_sim::process::{Context, Process};
//! use dbac_sim::scheduler::FixedDelay;
//! use dbac_sim::sim::Simulation;
//!
//! // A node that floods a token once and counts what it hears.
//! struct Echo { heard: usize }
//! impl Process for Echo {
//!     type Message = u64;
//!     fn on_start(&mut self, ctx: &mut Context<u64>) {
//!         for w in ctx.out_neighbors().iter() {
//!             ctx.send(w, 7);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {
//!         self.heard += 1;
//!     }
//! }
//!
//! let g = generators::clique(3);
//! let mut sim = Simulation::new(g.into(), Box::new(FixedDelay::new(1)));
//! for v in 0..3 {
//!     sim.set_honest(NodeId::new(v), Echo { heard: 0 });
//! }
//! let stats = sim.run().expect("quiesces");
//! assert_eq!(stats.messages_delivered, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
mod fleet;
pub mod net;
pub mod process;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod time;
pub mod trace;

pub use chaos::{EdgeCounters, LinkDecision, LinkFault, LinkFaultPlan};
pub use error::SimError;
pub use fleet::Fleet;
pub use net::codec::{WireError, WireMessage};
pub use net::connection::TransportKind;
pub use net::{Net, NetConfig};
pub use process::{Adversary, Context, Process};
pub use scheduler::DeliveryPolicy;
pub use sim::{SimStats, Simulation};
pub use stats::{
    ClassCounters, Coverage, MsgClass, NodeCounters, ProtocolCounters, StatsHandle, StatsRegistry,
    StatsSnapshot, TransportSnapshot,
};
pub use threaded::{Incomplete, IncompleteReason, ThreadedReport};
pub use time::VirtualTime;
