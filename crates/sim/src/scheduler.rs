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
    #[should_panic(expected = "empty delay range")]
    fn random_delay_rejects_bad_range() {
        let _ = RandomDelay::new(0, 5, 2);
    }
}
