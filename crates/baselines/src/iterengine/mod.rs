//! The message-passing **iterative W-MSR engine**.
//!
//! Historically the `IterativeTrimmedMean` protocol was a synchronous
//! closed-form loop ([`crate::iterative::iterate`]) that only the simulated
//! runtime could host. This module promotes it to a first-class
//! [`Process`]: nodes exchange explicit per-round [`IterMsg`] values, so
//! the same fleet runs on [`Runtime::Sim`], [`Runtime::Threaded`] and
//! [`Runtime::Net`] — and through the shared fault-injection, stats and
//! chaos machinery of the runtime layer.
//!
//! # Asynchronous round structure
//!
//! Node `v` enters round `r` holding value `x_v[r]` (round 0 holds the
//! input) and broadcasts `(r, x_v[r])` to its out-neighbors. It **fires**
//! round `r` once values from at least `indegree − f` distinct in-neighbors
//! for round `r` have arrived, applying the W-MSR trimmed-mean rule
//! ([`wmsr_step_in_place`]) to move to `x_v[r+1]`. With `f = 0` a node
//! waits for *every* in-neighbor, which makes the computation
//! schedule-independent: any runtime, any adversarial delivery order,
//! produces bit-identical trajectories (the cross-runtime gate relies on
//! this, exactly like the BW `f = 0` gate).
//!
//! # Columnar buffering
//!
//! The engine is built to scale past 10⁴ nodes, so per-round
//! `HashMap<NodeId, f64>` buffers are out. Each node stores its
//! in-neighborhood once as a sorted id slice and keeps a **ring of round
//! rows**: one row of `indegree` floats for each round from the one it
//! waits to fire to the furthest an in-neighbor has sent, a presence
//! bitmap of whole words per row, and a per-row count of distinct values.
//! Round `r` lives in row `head + (r − round)`, wrapped by one
//! compare-and-subtract.
//! An incoming `(r, value)` from neighbor slot `i` costs one binary search
//! and two writes, and duplicated deliveries (chaos plans re-deliver
//! frames) are absorbed by the bitmap without perturbing the value column:
//! the first value wins.
//!
//! W-MSR is memoryless — round `r`'s update reads only round-`r` values —
//! so firing a round clears its row (presence bits and count) and moves
//! `head` on; the row is reused for round `r + rows`. A message for a
//! round already fired is dropped. That is exact: a fired round is never
//! read again, so such a value could only ever have set a bit and a count
//! nobody looks at.
//!
//! A message beyond the window grows the ring by doubling (never past
//! `rounds` rows), copying the live rows with their presence bits so that
//! first-value-wins holds across a grow. Memory is therefore
//! O(lead × indegree), where the lead is how far an in-neighbor runs
//! ahead, rather than O(rounds × indegree). The worst case is an eager
//! [`IterLiar`], which sends its whole schedule at start: its
//! out-neighbors grow to `rounds` rows (`rounds × indegree` floats) and no
//! further.
//!
//! [`Runtime::Sim`]: dbac_core::scenario::Runtime::Sim
//! [`Runtime::Threaded`]: dbac_core::scenario::Runtime::Threaded
//! [`Runtime::Net`]: dbac_core::scenario::Runtime::Net

mod kernel;

pub use kernel::wmsr_step_in_place;

use crate::iterative::IterStrategy;
use dbac_graph::{Digraph, NodeId};
use dbac_sim::net::codec::{WireError, WireMessage, WireReader};
use dbac_sim::process::{Adversary, Context, Process};
use dbac_sim::stats::MsgClass;

/// One round's value exchange: "entering round `round` I hold `value`".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterMsg {
    /// The 0-based round this value enters.
    pub round: u32,
    /// The sender's value at that round.
    pub value: f64,
}

/// Wire layout: `round: u32 LE` then `value: f64 bits LE` — 12 bytes,
/// total (every 12-byte frame decodes; bounds are enforced at the
/// protocol layer, where the round is checked against the run length and
/// non-finite values are dropped).
impl WireMessage for IterMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.value.to_bits().to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let round = r.u32()?;
        let value = r.f64()?;
        Ok(IterMsg { round, value })
    }
}

/// Rows the ring starts with (fewer if the run is shorter): enough for an
/// in-neighbor a few rounds ahead before the first grow.
const WINDOW: usize = 4;

/// An honest W-MSR node: a ring of round rows plus the in-place
/// trimmed-mean kernel.
#[derive(Clone, Debug)]
pub struct IterNode {
    f: usize,
    /// Total rounds to execute; the node is done entering round `rounds`.
    rounds: u32,
    /// In-neighbor ids, sorted ascending — the column order of a row.
    in_ids: Vec<NodeId>,
    /// The row of `round`; round `round + k` lives `k` rows on, wrapped.
    head: usize,
    /// Ring of round rows: the value from slot `s` for row `row` is
    /// `vals[row * indegree + s]`.
    vals: Vec<f64>,
    /// Presence bits, `indegree.div_ceil(64)` words per row, so a fired row
    /// is cleared word by word (dedups re-deliveries).
    present: Vec<u64>,
    /// Per row, the distinct values received for its round so far; its
    /// length is the ring's row count (at most `rounds`).
    counts: Vec<u32>,
    /// The round this node is currently waiting to fire.
    round: u32,
    /// Current value (`history.last()`).
    value: f64,
    /// `history[r]`: the value entering round `r`; `history[0]` is the input.
    history: Vec<f64>,
    /// Messages sent (the honest-traffic tally of the outcome).
    pub sent: u64,
    /// Reusable kernel scratch (cleared each fire, never shrunk).
    scratch: Vec<f64>,
}

impl IterNode {
    /// A node for `me` on `g`, filtering up to `f` extremes per side,
    /// running `rounds` rounds from `input`.
    #[must_use]
    pub fn new(me: NodeId, g: &Digraph, f: usize, rounds: u32, input: f64) -> Self {
        let in_ids: Vec<NodeId> = g.in_neighbors(me).iter().collect();
        let deg = in_ids.len();
        let rows = WINDOW.min(rounds as usize);
        IterNode {
            f,
            rounds,
            in_ids,
            head: 0,
            vals: vec![0.0; rows * deg],
            present: vec![0; rows * deg.div_ceil(64)],
            counts: vec![0; rows],
            round: 0,
            value: input,
            history: vec![input],
            sent: 0,
            scratch: Vec::with_capacity(deg),
        }
    }

    /// Whether the node has fired all of its rounds.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.round >= self.rounds
    }

    /// The rounds fired so far.
    #[must_use]
    pub fn rounds_fired(&self) -> u32 {
        self.round
    }

    /// The current value (the output once [`Self::is_done`]).
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The full trajectory: `history()[r]` is the value entering round `r`.
    #[must_use]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Values from at least `indegree − f` in-neighbors unlock a round.
    fn fire_threshold(&self) -> u32 {
        (self.in_ids.len() - self.f.min(self.in_ids.len())) as u32
    }

    fn broadcast_current(&mut self, ctx: &mut Context<IterMsg>) {
        let msg = IterMsg { round: self.round, value: self.value };
        self.sent += ctx.out_neighbors().len() as u64;
        ctx.broadcast(&msg);
    }

    /// Presence words per row.
    fn words(&self) -> usize {
        self.in_ids.len().div_ceil(64)
    }

    /// The row of round `round + ahead`, for `ahead ≤` the ring's rows.
    fn row(&self, ahead: usize) -> usize {
        let (row, rows) = (self.head + ahead, self.counts.len());
        if row >= rows {
            row - rows
        } else {
            row
        }
    }

    /// Doubles the ring until it holds `ahead + 1` rows (at most `rounds`),
    /// keeping the live rows with their values, presence bits and counts;
    /// the waiting round lands in row 0.
    fn grow(&mut self, ahead: usize) {
        let mut rows = self.counts.len();
        while rows <= ahead {
            rows *= 2;
        }
        let rows = rows.min(self.rounds as usize);
        let (head, deg, words) = (self.head, self.in_ids.len(), self.words());
        unwrap_to(&mut self.vals, head * deg, rows * deg);
        unwrap_to(&mut self.present, head * words, rows * words);
        unwrap_to(&mut self.counts, head, rows);
        self.head = 0;
    }

    /// Fires every round whose threshold is met, in order. Rounds unlock
    /// strictly in sequence: round `r + 1` values can only be *used* after
    /// round `r` fires, however early they arrive. A fired round's row is
    /// cleared and becomes the ring's last.
    fn fire_ready_rounds(&mut self, ctx: &mut Context<IterMsg>) {
        let (deg, words) = (self.in_ids.len(), self.words());
        let need = self.fire_threshold();
        while !self.is_done() && self.counts[self.head] >= need {
            let row = self.head;
            self.scratch.clear();
            let bits = &mut self.present[row * words..][..words];
            for (slot, &value) in self.vals[row * deg..][..deg].iter().enumerate() {
                if bits[slot / 64] >> (slot % 64) & 1 == 1 {
                    self.scratch.push(value);
                }
            }
            bits.fill(0);
            self.counts[row] = 0;
            self.head = self.row(1);
            let mut received = std::mem::take(&mut self.scratch);
            self.value = wmsr_step_in_place(self.value, &mut received, self.f);
            self.scratch = received;
            self.round += 1;
            self.history.push(self.value);
            if !self.is_done() {
                self.broadcast_current(ctx);
            }
        }
    }
}

/// Rotates `ring` left by `by` items, so the item at `by` comes first, and
/// pads it with zeros to exactly `len` items.
fn unwrap_to<T: Copy + Default>(ring: &mut Vec<T>, by: usize, len: usize) {
    ring.rotate_left(by);
    ring.reserve_exact(len - ring.len());
    ring.resize(len, T::default());
}

impl Process for IterNode {
    type Message = IterMsg;

    fn on_start(&mut self, ctx: &mut Context<IterMsg>) {
        if self.rounds == 0 {
            return;
        }
        self.broadcast_current(ctx);
        // A node with an empty (or all-faulty) in-neighborhood free-runs:
        // every round's threshold is zero.
        self.fire_ready_rounds(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<IterMsg>, from: NodeId, msg: IterMsg) {
        if !(self.round..self.rounds).contains(&msg.round) || !msg.value.is_finite() {
            return; // a fired or out-of-range round, or a value off the real line: drop
        }
        let Ok(slot) = self.in_ids.binary_search(&from) else {
            return; // not an in-neighbor (runtime misdelivery guard)
        };
        let ahead = (msg.round - self.round) as usize;
        if ahead >= self.counts.len() {
            self.grow(ahead);
        }
        let row = self.row(ahead);
        let word = row * self.words() + slot / 64;
        let bit = slot % 64;
        if self.present[word] >> bit & 1 == 1 {
            return; // duplicate delivery (chaos): first value wins
        }
        self.present[word] |= 1 << bit;
        self.vals[row * self.in_ids.len() + slot] = msg.value;
        self.counts[row] += 1;
        if ahead == 0 {
            self.fire_ready_rounds(ctx);
        }
    }

    fn classify(_msg: &IterMsg) -> MsgClass {
        MsgClass::Iter
    }
}

/// A malicious node in the `f`-total *malicious* model: it sends the same
/// planted per-round value to all out-neighbors. Since it answers to no
/// threshold of its own, it broadcasts its entire round schedule eagerly at
/// start — the strongest timing for a value attack, and exactly the
/// per-round values [`crate::iterative::iterate`] models.
#[derive(Clone, Debug)]
pub struct IterLiar {
    rounds: u32,
    strategy: IterStrategy,
}

impl IterLiar {
    /// A liar following `strategy` for a `rounds`-round run.
    #[must_use]
    pub fn new(strategy: IterStrategy, rounds: u32) -> Self {
        IterLiar { rounds, strategy }
    }
}

impl Adversary<IterMsg> for IterLiar {
    fn on_start(&mut self, ctx: &mut Context<IterMsg>) {
        for round in 0..self.rounds {
            if let Some(value) = self.strategy.value(round as usize) {
                ctx.broadcast(&IterMsg { round, value });
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<IterMsg>, _from: NodeId, _msg: IterMsg) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbac_graph::generators;

    #[test]
    fn iter_msg_wire_round_trips() {
        for msg in [
            IterMsg { round: 0, value: 0.0 },
            IterMsg { round: 59, value: -1.5e300 },
            IterMsg { round: u32::MAX, value: f64::NAN },
            IterMsg { round: 7, value: f64::NEG_INFINITY },
        ] {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), 12);
            let back = IterMsg::from_bytes(&bytes).unwrap();
            assert_eq!(back.round, msg.round);
            assert_eq!(back.value.to_bits(), msg.value.to_bits());
        }
        assert!(IterMsg::from_bytes(&[0u8; 11]).is_err(), "truncated");
        assert!(IterMsg::from_bytes(&[0u8; 13]).is_err(), "trailing");
    }

    #[test]
    fn node_tracks_rounds_and_history() {
        let g = generators::clique(3);
        let node = IterNode::new(NodeId::new(0), &g, 1, 10, 4.5);
        assert!(!node.is_done());
        assert_eq!(node.rounds_fired(), 0);
        assert_eq!(node.history(), &[4.5]);
        assert_eq!(node.fire_threshold(), 1, "indegree 2, f 1");
    }

    #[test]
    fn zero_round_node_is_born_done() {
        let g = generators::clique(3);
        let node = IterNode::new(NodeId::new(0), &g, 0, 0, 1.0);
        assert!(node.is_done());
    }

    #[test]
    fn duplicate_deliveries_do_not_double_count() {
        // Node 0 of K3 waits for both of its in-neighbors at f = 0.
        let g = generators::clique(3);
        let (me, a, b) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut node = IterNode::new(me, &g, 0, 5, 1.0);
        let mut ctx = Context::new(me, g.out_neighbors(me));
        node.on_message(&mut ctx, a, IterMsg { round: 0, value: 9.0 });
        node.on_message(&mut ctx, a, IterMsg { round: 0, value: 7.0 });
        assert_eq!(node.rounds_fired(), 0, "second delivery is a duplicate");
        node.on_message(&mut ctx, b, IterMsg { round: 0, value: 3.0 });
        assert_eq!(node.rounds_fired(), 1);
        let first_wins = wmsr_step_in_place(1.0, &mut [9.0, 3.0], 0);
        assert_eq!(node.value().to_bits(), first_wins.to_bits(), "first value wins");
    }
}
