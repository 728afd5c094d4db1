//! The simulator's event queue: a calendar of per-tick FIFO buckets with a
//! far-future overflow of per-tick FIFOs. See the [module docs](super) for
//! the order it keeps and why.

use std::collections::{BTreeMap, VecDeque};

/// Ring size `W`: one bucket per tick of the window `[now, now + W)`, one
/// occupancy bit per bucket in a single `u64`.
const WINDOW: u64 = 64;
/// Events per chunk of bucket storage.
const CHUNK: usize = 32;
/// "No chunk": the end of a bucket's chain or of the free list.
const NIL: u32 = u32::MAX;

/// A fixed-capacity run of one bucket's events, chained to the next.
/// `items` is created with room for [`CHUNK`] events and never holds more,
/// so it never reallocates.
struct Chunk<T> {
    items: VecDeque<T>,
    next: u32,
}

/// One tick's FIFO: a chain of non-empty chunks (both `NIL` when empty).
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A priority queue over `(tick, enqueue order)` whose clock is the tick
/// of the last pop. Pushes must not be earlier than the clock.
pub(super) struct CalendarQueue<T> {
    now: u64,
    len: usize,
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: u64,
    buckets: [Bucket; WINDOW as usize],
    /// Every chunk ever allocated; a chunk is in one bucket's chain or on
    /// the free list, so storage follows the live total, not each
    /// bucket's own peak.
    chunks: Vec<Chunk<T>>,
    free: u32,
    /// Events at `now + W` or later, one FIFO per tick. Invariant:
    /// nothing in here is inside the window — [`advance`](Self::advance)
    /// restores it on every clock move, before the caller can push again.
    overflow: BTreeMap<u64, Vec<T>>,
}

impl<T> CalendarQueue<T> {
    pub(super) fn new() -> Self {
        CalendarQueue {
            now: 0,
            len: 0,
            occupied: 0,
            buckets: [Bucket { head: NIL, tail: NIL }; WINDOW as usize],
            chunks: Vec::new(),
            free: NIL,
            overflow: BTreeMap::new(),
        }
    }

    /// The tick of the last pop (zero before the first).
    #[inline]
    pub(super) fn now(&self) -> u64 {
        self.now
    }

    /// Events queued, ring and overflow together.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Queues `item` for tick `at`, behind everything already queued for
    /// that tick.
    #[inline]
    pub(super) fn push(&mut self, at: u64, item: T) {
        debug_assert!(at >= self.now, "event scheduled before the clock");
        self.len += 1;
        if at - self.now < WINDOW {
            self.push_ring(at, item);
        } else {
            self.overflow.entry(at).or_default().push(item);
        }
    }

    /// The tick of the event [`pop`](Self::pop) would return.
    #[inline]
    pub(super) fn next_tick(&self) -> Option<u64> {
        if self.occupied != 0 {
            // Rotated so bit k stands for tick `now + k`.
            let ahead = self.occupied.rotate_right((self.now % WINDOW) as u32).trailing_zeros();
            Some(self.now + u64::from(ahead))
        } else {
            self.overflow.first_key_value().map(|(&at, _)| at)
        }
    }

    /// Removes the earliest event — ties broken by enqueue order — and
    /// moves the clock to its tick.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<(u64, T)> {
        let at = self.next_tick()?;
        if at != self.now {
            self.advance(at);
        }
        let slot = (at % WINDOW) as usize;
        let head = self.buckets[slot].head;
        let chunk = &mut self.chunks[head as usize];
        let item = chunk.items.pop_front().expect("chained chunks are non-empty");
        if chunk.items.is_empty() {
            let next = std::mem::replace(&mut chunk.next, self.free);
            self.free = head;
            self.buckets[slot].head = next;
            if next == NIL {
                self.buckets[slot].tail = NIL;
                self.occupied &= !(1 << slot);
            }
        }
        self.len -= 1;
        Some((at, item))
    }

    /// Events queued for tick `at`, the tick [`next_tick`](Self::next_tick)
    /// names: its bucket if the window covers it, else its overflow FIFO.
    /// Walks the bucket's chunks, so callers ask once per tick, not per
    /// event.
    pub(super) fn tick_len(&self, at: u64) -> usize {
        if at - self.now >= WINDOW {
            return self.overflow.get(&at).map_or(0, Vec::len);
        }
        let mut len = 0;
        let mut chunk = self.buckets[(at % WINDOW) as usize].head;
        while chunk != NIL {
            len += self.chunks[chunk as usize].items.len();
            chunk = self.chunks[chunk as usize].next;
        }
        len
    }

    /// Moves the clock to `to` and pulls every overflow tick the window
    /// now covers into the ring, each tick's FIFO whole and in order.
    /// Those events were all enqueued while their tick was still outside
    /// the window, hence before anything pushed to that tick directly, so
    /// each bucket stays in enqueue order.
    fn advance(&mut self, to: u64) {
        self.now = to;
        while let Some(entry) = self.overflow.first_entry() {
            let at = *entry.key();
            if at - to >= WINDOW {
                break;
            }
            for item in entry.remove() {
                self.push_ring(at, item);
            }
        }
    }

    fn push_ring(&mut self, at: u64, item: T) {
        let slot = (at % WINDOW) as usize;
        let mut tail = self.buckets[slot].tail;
        if tail == NIL || self.chunks[tail as usize].items.len() == CHUNK {
            let fresh = self.take_chunk();
            if tail == NIL {
                self.buckets[slot].head = fresh;
                self.occupied |= 1 << slot;
            } else {
                self.chunks[tail as usize].next = fresh;
            }
            self.buckets[slot].tail = fresh;
            tail = fresh;
        }
        self.chunks[tail as usize].items.push_back(item);
    }

    /// An empty chunk: off the free list, else newly allocated.
    fn take_chunk(&mut self) -> u32 {
        if self.free == NIL {
            let id = u32::try_from(self.chunks.len()).expect("fewer than 2^32 chunks");
            self.chunks.push(Chunk { items: VecDeque::with_capacity(CHUNK), next: NIL });
            id
        } else {
            let id = self.free;
            self.free = std::mem::replace(&mut self.chunks[id as usize].next, NIL);
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives the calendar and the retired design — one `(at, seq)` heap —
    /// with the same seeded script of pushes (delay classes: the tick
    /// being drained, the near ring, both sides of the ring/overflow
    /// boundary, far, unreachable) and pops, up to `horizon`, checking the
    /// length of each tick it pops from. Even seeds
    /// push as fast as they pop, so the ring keeps running empty and the
    /// clock jumps to the overflow's head; odd seeds build a backlog.
    /// Returns the pop sequence and what was left queued.
    fn differential(seed: u64, horizon: u64) -> (Vec<(u64, u64)>, usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut queue = CalendarQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut oracle_now = 0u64;
        let mut popped = Vec::new();
        let mut seq = 0u64;
        let mut due = std::collections::HashMap::new();
        for step in 0..20_000 {
            let pushes = if step < 15_000 { rng.gen_range(0..=2 + seed % 2) } else { 0 };
            for _ in 0..pushes {
                let delay = match rng.gen_range(0..=11u32) {
                    0 | 1 => 0,
                    2..=5 => rng.gen_range(1..=15u64),
                    6 => WINDOW - 1,
                    7 => WINDOW,
                    8 => WINDOW + 1,
                    9 | 10 => 1_000,
                    _ => VirtualTime::FAR_FUTURE.ticks(),
                };
                seq += 1;
                let at = oracle_now.saturating_add(delay);
                queue.push(at, seq);
                oracle.push(Reverse((at, seq)));
                *due.entry(at).or_insert(0) += 1;
            }
            assert_eq!(queue.len(), oracle.len());
            let next = oracle.peek().map(|&Reverse((at, _))| at);
            assert_eq!(queue.next_tick(), next);
            if let Some(at) = next.filter(|&at| at <= horizon) {
                assert_eq!(queue.tick_len(at), due[&at], "step {step}, seed {seed}");
                let Reverse(want) = oracle.pop().expect("peeked");
                oracle_now = want.0;
                assert_eq!(queue.pop(), Some(want), "step {step}, seed {seed}");
                assert_eq!(queue.now(), oracle_now);
                popped.push(want);
                *due.get_mut(&at).expect("counted") -= 1;
            }
        }
        (popped, queue.len())
    }

    #[test]
    fn pops_in_heap_order_under_seeded_scripts() {
        for seed in 0..24 {
            let (popped, left) = differential(seed, 1 << 40);
            assert!(popped.len() > 10_000, "the script exercises the queue");
            assert!(left > 0, "far-future events stay behind the horizon, counted");
        }
    }

    #[test]
    fn a_near_horizon_leaves_the_remainder_queued_and_counted() {
        let (popped, left) = differential(7, 500);
        assert!(popped.iter().all(|&(at, _)| at <= 500));
        assert!(left > 1_000, "everything past tick 500 is still queued: {left}");
    }

    #[test]
    fn overflow_migrates_when_the_clock_jumps_empty_ticks() {
        let mut queue = CalendarQueue::new();
        queue.push(3, 'a');
        queue.push(WINDOW + 2, 'b'); // overflow: outside [0, W)
        queue.push(5_000, 'd');
        assert_eq!(queue.pop(), Some((3, 'a')));
        // The window is now [3, 3 + W): 'b' has moved into the ring, ahead
        // of a direct push to its tick.
        queue.push(WINDOW + 2, 'c');
        assert_eq!(queue.pop(), Some((WINDOW + 2, 'b')));
        assert_eq!(queue.pop(), Some((WINDOW + 2, 'c')));
        // The ring is empty: the clock jumps straight to the overflow's
        // head, and a zero-delay send lands behind it in the same tick.
        assert_eq!(queue.next_tick(), Some(5_000));
        assert_eq!(queue.pop(), Some((5_000, 'd')));
        queue.push(5_000, 'e');
        assert_eq!(queue.pop(), Some((5_000, 'e')));
        assert_eq!((queue.pop(), queue.len()), (None, 0));
    }

    #[test]
    fn chunk_storage_follows_the_live_total_not_bucket_peaks() {
        // 1.2M events through rotating ticks. Every tick's burst lands in
        // one bucket, so per-bucket growable storage would retain W bursts'
        // worth; pooled chunks retain one burst's worth plus slack.
        let mut queue = CalendarQueue::new();
        let mut rng = SmallRng::seed_from_u64(16);
        let (mut cycled, mut peak_live) = (0u64, 0usize);
        for tick in 0..600u64 {
            let burst = rng.gen_range(1_000..=3_000u64);
            for i in 0..burst {
                queue.push(tick + 1 + i % 3, cycled + i);
            }
            cycled += burst;
            peak_live = peak_live.max(queue.len());
            while queue.next_tick() == Some(tick + 1) {
                queue.pop();
            }
        }
        assert!(cycled >= 1_000_000, "cycled {cycled}");
        let bound = peak_live.div_ceil(CHUNK) + WINDOW as usize;
        assert!(
            queue.chunks.len() <= bound,
            "{} chunks allocated for a peak of {peak_live} live events (bound {bound})",
            queue.chunks.len()
        );
    }
}
