//! Delivery traces.
//!
//! A [`Trace`] is the global delivery order of one simulator run: every
//! delivered message with its time, its edge and its canonical wire bytes
//! ([`WireMessage::encode`](crate::WireMessage::encode) — the same body the
//! network runtime would frame). Keeping the bytes rather than a typed
//! payload leaves the trace protocol-agnostic while still letting a reader
//! recover each message with `from_bytes`.
//!
//! The impossibility experiment (Appendix B) splices two recorded
//! executions into a third: node `v`'s neighbourhood replays execution `e1`
//! while node `u`'s replays `e2`, and the two outputs disagree. Recording
//! the exact global delivery order makes that splice reproducible.

use crate::time::VirtualTime;
use dbac_graph::NodeId;

/// One delivered message: when, along which edge, and its encoded bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual delivery time.
    pub at: VirtualTime,
    /// Authenticated sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The message's `WireMessage::encode` bytes.
    pub frame: Vec<u8>,
}

/// Every delivery of a run, in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The deliveries, in the order the simulator dispatched them.
    pub deliveries: Vec<Delivery>,
}
