//! Execution traces.
//!
//! The impossibility experiment (Appendix B) splices two recorded
//! executions into a third: node `v`'s neighbourhood replays execution `e1`
//! while node `u`'s replays `e2`, and the two outputs disagree. Recording
//! the exact global delivery order makes that splice reproducible.

use crate::time::VirtualTime;
use dbac_graph::NodeId;

/// One delivered message: who sent it, who received it, when, and what.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent<M> {
    /// Virtual delivery time.
    pub at: VirtualTime,
    /// Authenticated sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The payload.
    pub msg: M,
}

/// An ordered record of every delivery in a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace<M> {
    events: Vec<TraceEvent<M>>,
}

impl<M> Trace<M> {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Appends a delivery (runtime-internal).
    pub fn record(&mut self, at: VirtualTime, from: NodeId, to: NodeId, msg: M) {
        self.events.push(TraceEvent { at, from, to, msg });
    }

    /// All recorded deliveries in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent<M>] {
        &self.events
    }

    /// Number of recorded deliveries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<M> IntoIterator for Trace<M> {
    type Item = TraceEvent<M>;
    type IntoIter = std::vec::IntoIter<TraceEvent<M>>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn record_and_read_back() {
        let mut t: Trace<u32> = Trace::new();
        assert!(t.is_empty());
        t.record(VirtualTime::new(1), id(0), id(1), 10);
        t.record(VirtualTime::new(2), id(1), id(2), 20);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].msg, 10);
        assert_eq!(t.events()[1].to, id(2));
    }

    #[test]
    fn into_iterator() {
        let mut t: Trace<u32> = Trace::new();
        t.record(VirtualTime::ZERO, id(0), id(1), 5);
        let collected: Vec<u32> = t.into_iter().map(|e| e.msg).collect();
        assert_eq!(collected, vec![5]);
    }
}
