//! Delivery policies: who decides *when* a sent message arrives.
//!
//! Asynchrony in the paper is adversarial: delays are finite but unbounded
//! and unknown. A [`DeliveryPolicy`] is the adversary's scheduling half —
//! Byzantine *content* lives in [`Adversary`](crate::process::Adversary)
//! implementations, Byzantine *timing* lives here.

use crate::time::VirtualTime;
use dbac_graph::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Assigns a delivery time to each sent message.
pub trait DeliveryPolicy {
    /// Returns the delivery time for a message sent at `now` along the
    /// edge `(from, to)`. Must be `≥ now`; the simulator clamps otherwise.
    fn delivery_time(&mut self, now: VirtualTime, from: NodeId, to: NodeId) -> VirtualTime;
}

/// Every message takes exactly `delay` ticks — the synchronous-looking
/// special case (useful for debugging and as a baseline schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedDelay {
    delay: u64,
}

impl FixedDelay {
    /// Creates a policy with constant per-message delay.
    #[must_use]
    pub fn new(delay: u64) -> Self {
        FixedDelay { delay }
    }
}

impl DeliveryPolicy for FixedDelay {
    fn delivery_time(&mut self, now: VirtualTime, _from: NodeId, _to: NodeId) -> VirtualTime {
        now.after(self.delay)
    }
}

/// Seeded uniform-random delays in `[min, max]` — the default model of an
/// asynchronous network; reproducible from the seed. Messages on the same
/// edge may be reordered, which the paper's model permits (FIFO ordering is
/// reconstructed at the protocol level, Appendix F).
#[derive(Clone, Debug)]
pub struct RandomDelay {
    rng: SmallRng,
    min: u64,
    max: u64,
}

impl RandomDelay {
    /// Creates a seeded random-delay policy with delays in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    #[must_use]
    pub fn new(seed: u64, min: u64, max: u64) -> Self {
        assert!(min <= max, "empty delay range");
        RandomDelay { rng: SmallRng::seed_from_u64(seed), min, max }
    }
}

impl DeliveryPolicy for RandomDelay {
    fn delivery_time(&mut self, now: VirtualTime, _from: NodeId, _to: NodeId) -> VirtualTime {
        now.after(self.rng.gen_range(self.min..=self.max))
    }
}

/// Adversarial per-edge delays on top of a base policy: selected edges get
/// a fixed (possibly enormous) extra delay. This is exactly the Appendix-B
/// construction: "the delivery delay of the latter messages is lower
/// bounded by an arbitrary number `T`".
pub struct EdgeDelay {
    base: Box<dyn DeliveryPolicy + Send>,
    overrides: HashMap<(NodeId, NodeId), u64>,
}

impl std::fmt::Debug for EdgeDelay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeDelay").field("overrides", &self.overrides.len()).finish()
    }
}

impl EdgeDelay {
    /// Wraps `base`, with no overrides yet.
    #[must_use]
    pub fn new(base: Box<dyn DeliveryPolicy + Send>) -> Self {
        EdgeDelay { base, overrides: HashMap::new() }
    }

    /// Delays every message on edge `(from, to)` by at least `delay` ticks
    /// (replacing the base policy's choice for that edge).
    pub fn delay_edge(&mut self, from: NodeId, to: NodeId, delay: u64) -> &mut Self {
        self.overrides.insert((from, to), delay);
        self
    }
}

impl DeliveryPolicy for EdgeDelay {
    fn delivery_time(&mut self, now: VirtualTime, from: NodeId, to: NodeId) -> VirtualTime {
        match self.overrides.get(&(from, to)) {
            Some(&d) => now.after(d),
            None => self.base.delivery_time(now, from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn fixed_delay() {
        let mut p = FixedDelay::new(5);
        assert_eq!(p.delivery_time(VirtualTime::new(10), id(0), id(1)), VirtualTime::new(15));
    }

    #[test]
    fn random_delay_in_range_and_deterministic() {
        let mut a = RandomDelay::new(9, 1, 4);
        let mut b = RandomDelay::new(9, 1, 4);
        for _ in 0..50 {
            let ta = a.delivery_time(VirtualTime::ZERO, id(0), id(1));
            let tb = b.delivery_time(VirtualTime::ZERO, id(0), id(1));
            assert_eq!(ta, tb, "same seed, same schedule");
            assert!((1..=4).contains(&ta.ticks()));
        }
    }

    #[test]
    fn edge_delay_overrides_selected_edges() {
        let mut p = EdgeDelay::new(Box::new(FixedDelay::new(1)));
        p.delay_edge(id(0), id(1), 1_000);
        assert_eq!(p.delivery_time(VirtualTime::ZERO, id(0), id(1)).ticks(), 1_000);
        assert_eq!(p.delivery_time(VirtualTime::ZERO, id(1), id(0)).ticks(), 1);
    }

    #[test]
    #[should_panic(expected = "empty delay range")]
    fn random_delay_rejects_bad_range() {
        let _ = RandomDelay::new(0, 5, 2);
    }
}
