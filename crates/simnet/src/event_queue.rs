//! The discrete-event core's event queue.
//!
//! The simulator needs one operation pair — `push(t, ev)` / `pop() ->
//! (t, ev)` in nondecreasing `t` order, FIFO within a timestamp — executed
//! hundreds of millions of times per evaluation sweep, plus
//! `pop_before(limit)`, which lets it merge the queue with the workload's
//! scripted arrivals (never queued) without disturbing the queue's clock.
//!
//! [`CalendarQueue`] implements it in two tiers, sized for the delays the
//! simulator schedules — microsecond wakes, microsecond-to-millisecond
//! batch completions, 5 ms `epoll_wait` timeouts, seconds of linger:
//!
//! - the **near ring**: 8 192 buckets of 2¹¹ ns (2 µs) over two periods of
//!   2²³ ns (8.4 ms), the period the clock is in and the next. A bucket is
//!   a list kept in `(time, insertion)` order, so the head of the first
//!   occupied bucket at or after the clock is the next event;
//! - a binary **heap** for anything later. When the clock enters the near
//!   ring's second period, the ring moves on by a period and the heap's
//!   events of its new second period are sorted into it.
//!
//! An event is handled a bounded number of times: once when pushed, at
//! most once more when its period reaches the near ring, once when popped.
//! Nodes live in a single arena and recycle through a free list, so a
//! steady-state run allocates nothing per event. The contract's reference
//! is a sorted `Vec` (the `Model` in this module's tests), which the queue
//! is run against in lockstep.
//!
//! Timestamp ties break by insertion sequence (FIFO), which is what makes
//! replays deterministic. A near bucket inserts a node after every node of
//! its time or earlier, so within the ring insertion order is sequence
//! order. An event reaches the ring from the heap only in the move that
//! opens its period, into buckets that hold nothing of that period yet,
//! and the heap yields equal times in push order (it breaks ties on a
//! push counter).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log₂ of a near bucket's width in ns (2 048 ns).
const FINE_BITS: u32 = 11;
/// log₂ of a period, half the near ring, in ns (8.4 ms).
const PERIOD_BITS: u32 = 23;
/// Near buckets: two periods.
const NEAR: usize = 2 << (PERIOD_BITS - FINE_BITS);
/// Null arena index.
const NIL: u32 = u32::MAX;

/// One pending event in the arena, linked into a near bucket's list.
#[derive(Clone, Copy, Debug)]
struct Node<E> {
    t: u64,
    ev: E,
    next: u32,
}

/// A near bucket: an intrusive list of arena nodes, linked by `next`.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// Which near buckets hold events: a bit per bucket, and a summary bit per
/// word of those, so finding the next one costs a few word scans.
#[derive(Debug)]
struct Occupancy {
    words: Box<[u64]>,
    summary: Box<[u64]>,
}

impl Occupancy {
    fn new(buckets: usize) -> Self {
        let words = buckets / 64;
        Self {
            words: vec![0; words].into_boxed_slice(),
            summary: vec![0; words.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] &= !(1 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.summary.iter().all(|&s| s == 0)
    }

    /// The first occupied bucket at or after `i`.
    #[inline]
    fn first_from(&self, i: usize) -> Option<usize> {
        let w = i / 64;
        let here = self.words[w] & (!0u64 << (i % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        let from = w + 1;
        let mut s = from / 64;
        let mut mask = *self.summary.get(s)? & (!0u64 << (from % 64));
        while mask == 0 {
            s += 1;
            mask = *self.summary.get(s)?;
        }
        let w = s * 64 + mask.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// The first occupied bucket at or after `i`, going round the ring.
    #[inline]
    fn first_cyclic(&self, i: usize) -> Option<usize> {
        self.first_from(i).or_else(|| self.first_from(0))
    }
}

/// Two-tier calendar queue over `u64` nanosecond timestamps.
///
/// The near ring holds periods `period` and `period + 1`, the heap
/// everything later. The clock (`elapsed`: the last popped time, or the
/// start of the period the ring last jumped to) always lies in `period`,
/// and every pending event is at or after it. Nodes are recycled through a
/// free list, so arena size tracks the *peak* number of pending events,
/// not the total pushed.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Near buckets: bucket `(t >> FINE_BITS) % NEAR`, each in
    /// `(time, insertion)` order.
    near: Box<[List]>,
    near_occ: Occupancy,
    /// Events past the near ring, `(time, push count, node)`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Pushes into `far`: its tie-break.
    far_pushes: u64,
    /// The near ring's first period.
    period: u64,
    /// The queue's notion of "now": the most recent pop's time, or the
    /// start of the period a jump moved the ring to, whichever is later.
    elapsed: u64,
    len: usize,
}

impl<E: Copy> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> CalendarQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free_head: NIL,
            near: vec![EMPTY; NEAR].into_boxed_slice(),
            near_occ: Occupancy::new(NEAR),
            far: BinaryHeap::new(),
            far_pushes: 0,
            period: 0,
            elapsed: 0,
            len: 0,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arena nodes ever allocated: the peak number of events pending at
    /// once (nodes recycle through the free list).
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Schedule `ev` at time `t`. Times earlier than the last pop are
    /// clamped to it (the simulator never schedules into the past; the
    /// clamp keeps the ring's window invariants unconditionally sound).
    pub fn push(&mut self, t: u64, ev: E) {
        let t = t.max(self.elapsed);
        let node = Node { t, ev, next: NIL };
        let idx = match self.free_head {
            NIL => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            idx => {
                self.free_head = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            }
        };
        self.len += 1;
        if (t >> PERIOD_BITS) - self.period < 2 {
            self.insert_near(idx, t);
        } else {
            self.far_pushes += 1;
            self.far.push(Reverse((t, self.far_pushes, idx)));
        }
    }

    /// Link node `idx` (timestamp `t`, in the near ring's two periods) into
    /// its bucket after every node at `t` or earlier.
    #[inline]
    fn insert_near(&mut self, idx: u32, t: u64) {
        let b = (t >> FINE_BITS) as usize % NEAR;
        let List { head, tail } = self.near[b];
        if head == NIL {
            self.near[b] = List {
                head: idx,
                tail: idx,
            };
            self.near_occ.set(b);
        } else if self.nodes[tail as usize].t <= t {
            self.nodes[tail as usize].next = idx;
            self.near[b].tail = idx;
        } else if t < self.nodes[head as usize].t {
            self.nodes[idx as usize].next = head;
            self.near[b].head = idx;
        } else {
            // The head is at or before `t` and the tail after it.
            let mut after = head;
            loop {
                let next = self.nodes[after as usize].next;
                if self.nodes[next as usize].t > t {
                    break;
                }
                after = next;
            }
            self.nodes[idx as usize].next = self.nodes[after as usize].next;
            self.nodes[after as usize].next = idx;
        }
    }

    /// Sort the heap's events of period `p` into the near ring, whose
    /// buckets for it are empty.
    fn open_period(&mut self, p: u64) {
        while let Some(&Reverse((t, _, idx))) = self.far.peek() {
            if t >> PERIOD_BITS != p {
                break;
            }
            self.far.pop();
            self.insert_near(idx, t);
        }
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.pop_through(u64::MAX)
    }

    /// [`pop`](Self::pop), but only an event strictly earlier than `limit`.
    /// A refusal leaves the queue's clock short of `limit`, so the caller
    /// can handle something of its own at `limit` and push from there
    /// unclamped.
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, E)> {
        self.pop_through(limit.checked_sub(1)?)
    }

    /// The earliest event if its time is `<= last`. A refusal changes
    /// nothing but, when the near ring is empty and the next event's period
    /// starts at or before `last`, the ring's position: the clock moves to
    /// that period's start, short of `last`.
    fn pop_through(&mut self, last: u64) -> Option<(u64, E)> {
        if self.len == 0 {
            return None;
        }
        if self.near_occ.is_empty() {
            // Both near periods are spent: move the ring to the heap's
            // first period, if the clock may reach its start.
            let &Reverse((t, ..)) = self.far.peek().expect("pending events are in the heap");
            let p = t >> PERIOD_BITS;
            if p << PERIOD_BITS > last {
                return None;
            }
            self.period = p;
            self.elapsed = self.elapsed.max(p << PERIOD_BITS);
            self.open_period(p);
            self.open_period(p + 1);
        }
        let cursor = (self.elapsed >> FINE_BITS) as usize % NEAR;
        let b = self
            .near_occ
            .first_cyclic(cursor)
            .expect("an occupied near bucket");
        let idx = self.near[b].head;
        let node = self.nodes[idx as usize];
        if node.t > last {
            return None;
        }
        if node.t >> PERIOD_BITS != self.period {
            // The clock enters the ring's second period, so the first is
            // spent: the ring moves on by one and opens the period after.
            // Without the move, a push into that period would wait in the
            // heap until the ring empties (EXPERIMENTS.md "Near ring and
            // heap").
            self.period += 1;
            self.open_period(self.period + 1);
        }
        self.near[b].head = node.next;
        if node.next == NIL {
            self.near[b].tail = NIL;
            self.near_occ.clear(b);
        }
        self.nodes[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        debug_assert!(node.t >= self.elapsed);
        self.elapsed = node.t;
        Some((node.t, node.ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::SplitMix64;

    /// A near bucket's width, a period, and the distance from the clock's
    /// period start to the heap.
    const BUCKET: u64 = 1 << FINE_BITS;
    const PERIOD: u64 = 1 << PERIOD_BITS;
    const HEAP: u64 = 2 * PERIOD;

    /// The queue's contract as a sorted `Vec`: `(t, seq)` order, pushes
    /// clamped to the last popped time.
    #[derive(Default)]
    struct Model {
        items: Vec<(u64, u64, u32)>,
        seq: u64,
        elapsed: u64,
        /// Most events ever pending at once (the queue's `arena_size`).
        peak: usize,
    }

    impl Model {
        fn push(&mut self, t: u64, ev: u32) {
            self.seq += 1;
            let key = (t.max(self.elapsed), self.seq, ev);
            let at = self.items.partition_point(|&it| it < key);
            self.items.insert(at, key);
            self.peak = self.peak.max(self.items.len());
        }

        fn pop_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            let &(t, _, ev) = self.items.first().filter(|it| it.0 < limit)?;
            self.items.remove(0);
            self.elapsed = t;
            Some((t, ev))
        }
    }

    /// Push to, and pop from, the model and the queue in lockstep.
    #[derive(Default)]
    struct Lockstep {
        model: Model,
        queue: CalendarQueue<u32>,
    }

    impl Lockstep {
        fn push(&mut self, t: u64, ev: u32) {
            self.model.push(t, ev);
            self.queue.push(t, ev);
        }

        fn pop_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            let want = self.model.pop_before(limit);
            assert_eq!(self.queue.pop_before(limit), want, "limit {limit}");
            want
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let want = self.model.pop_before(u64::MAX);
            assert_eq!(self.queue.pop(), want, "pop");
            want
        }

        /// Pop everything, then check both are empty and peaked alike.
        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.queue.is_empty());
            assert_eq!(self.queue.arena_size(), self.model.peak, "peak population");
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = CalendarQueue::new();
        for &t in &[5u64, 1, 9, 3, 7, 2, 8, 0, 6, 4] {
            w.push(t, t as u32);
        }
        let mut out = Vec::new();
        while let Some((t, ev)) = w.pop() {
            assert_eq!(t, ev as u64);
            out.push(t);
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        // Ties at a far-future timestamp survive the moves into the ring.
        for &t in &[0u64, 63, 64, 4096, 1 << 30, u64::MAX / 2] {
            let mut w = CalendarQueue::new();
            for i in 0..100u32 {
                w.push(t, i);
            }
            for i in 0..100u32 {
                assert_eq!(w.pop(), Some((t, i)), "tie order at t={t}");
            }
        }
    }

    #[test]
    fn interleaved_ties_keep_global_insertion_order() {
        let mut q = Lockstep::default();
        // Interleave pushes at two future times, then pop everything.
        for i in 0..50u32 {
            q.push(if i % 2 == 0 { 10_000 } else { 20_000 }, i);
        }
        q.drain();
    }

    #[test]
    fn random_interleaving_matches_the_model() {
        let mut q = Lockstep::default();
        let mut rng = SplitMix64::from_state(0x1234_5678);
        let mut now = 0u64;
        for round in 0..20_000 {
            let r = rng.next_u64();
            if r % 3 < 2 || q.queue.is_empty() {
                // Push at now + a delta spanning many magnitudes.
                let exp = (r >> 8) % 40;
                let delta = (r >> 16) % (1 << exp).max(1);
                q.push(now + delta, round as u32);
            } else {
                now = q.pop().unwrap().0;
            }
        }
        q.drain();
    }

    #[test]
    fn pop_before_matches_the_model() {
        for seed in 1..=8u64 {
            let mut q = Lockstep::default();
            let mut rng = SplitMix64::from_state(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            // The caller's clock, as the simulator keeps it: the time of the
            // last event it ran — popped, or its own at a refused limit.
            let mut now = 0u64;
            let (mut refused, mut popped) = (0u32, 0u32);
            for round in 0..30_000u32 {
                let r = rng.next_u64();
                let delta = (r >> 16) % (1u64 << ((r >> 8) % 36));
                match r % 8 {
                    0..=3 => q.push(now + delta, round),
                    4..=6 => match q.pop_before(now + delta) {
                        Some((t, _)) => {
                            popped += 1;
                            now = t;
                        }
                        None => {
                            refused += 1;
                            now += delta;
                        }
                    },
                    _ => now = q.pop().map_or(now, |(t, _)| t),
                }
                assert_eq!(q.queue.len(), q.model.items.len());
            }
            assert!(
                refused > 1_000 && popped > 1_000,
                "seed {seed}: {refused}/{popped}"
            );
            q.drain();
        }
    }

    #[test]
    fn refused_pop_does_not_clamp_a_push_before_the_refused_period() {
        // The clock-clamp trap. 3·P + 1000 lies in the heap; refusing
        // it must not move the ring to its period, which would move the
        // clock to 3·P and deliver the push at 700 late.
        let mut q = Lockstep::default();
        let far = 3 * PERIOD + 1_000;
        q.push(far, 1);
        assert_eq!(q.pop_before(500), None);
        q.push(700, 2);
        q.push(500, 3);
        assert_eq!(q.pop_before(far), Some((500, 3)));
        assert_eq!(q.pop(), Some((700, 2)));
        // A limit inside the refused event's period may move the ring there
        // (clock to 3·P, short of the limit) and must still refuse the event.
        assert_eq!(q.pop_before(far - 20), None);
        q.push(far - 20, 4);
        assert_eq!(q.pop(), Some((far - 20, 4)));
        assert_eq!(q.pop(), Some((far, 1)));
    }

    #[test]
    fn pop_before_is_strict() {
        for t in [0u64, 5, 64, 1_000, 1 << 40] {
            let mut q = Lockstep::default();
            q.push(t, 1);
            q.push(t, 2);
            assert_eq!(q.pop_before(t), None, "limit == time must refuse");
            assert_eq!(q.pop_before(t + 1), Some((t, 1)));
            assert_eq!(q.pop_before(t + 1), Some((t, 2)));
            assert_eq!(q.pop_before(u64::MAX), None);
        }
    }

    #[test]
    fn extreme_timestamps() {
        let mut w = CalendarQueue::new();
        w.push(u64::MAX, 1u32);
        w.push(0, 2);
        w.push(u64::MAX - 1, 3);
        w.push(1 << 63, 4);
        assert_eq!(w.pop(), Some((0, 2)));
        assert_eq!(w.pop(), Some((1 << 63, 4)));
        assert_eq!(w.pop(), Some((u64::MAX - 1, 3)));
        assert_eq!(w.pop(), Some((u64::MAX, 1)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn past_pushes_clamp_to_elapsed() {
        let mut q = Lockstep::default();
        q.push(1_000, 1);
        assert_eq!(q.pop(), Some((1_000, 1)));
        // t=5 is in the past; it is delivered at elapsed (1000).
        q.push(5, 2);
        q.push(1_000, 3);
        assert_eq!(q.pop(), Some((1_000, 2)));
        assert_eq!(q.pop(), Some((1_000, 3)));
    }

    #[test]
    fn arena_recycles_nodes() {
        let mut w = CalendarQueue::new();
        // Steady state: never more than 8 pending, over many churns.
        let mut t = 0u64;
        for i in 0..10_000u64 {
            w.push(t + 100 + i % 7, 0u32);
            if w.len() >= 8 {
                t = w.pop().unwrap().0;
            }
        }
        assert!(
            w.arena_size() <= 16,
            "arena grew to {} nodes for 8 concurrent events",
            w.arena_size()
        );
    }

    #[test]
    fn empty_pop_is_none_and_queue_reusable() {
        let mut w = CalendarQueue::new();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
        w.push(7, 'x');
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((7, 'x')));
        assert_eq!(w.pop(), None);
        w.push(9, 'y');
        assert_eq!(w.pop(), Some((9, 'y')));
    }

    #[test]
    fn dense_same_bucket_burst() {
        // Everything lands in one near bucket, in no order: the bucket
        // sorts on insert.
        let mut q = Lockstep::default();
        let mut rng = SplitMix64::from_state(42);
        for i in 0..1_000u32 {
            q.push(rng.next_u64() % BUCKET, i);
        }
        q.drain();
    }

    /// A bucket holding a long run of one timestamp at either end, and
    /// pushes landing between the run and the bucket's other end.
    #[test]
    fn inserts_between_a_run_of_one_timestamp_and_the_other_end() {
        let mut q = Lockstep::default();
        let base = 7 * BUCKET;
        for i in 0..300u32 {
            q.push(base + 10, i); // a run at the bucket's head
        }
        q.push(base + 1_000, 300);
        q.push(base + 2_000, 301); // the tail
        for i in 0..50u32 {
            q.push(base + 10 + u64::from(i % 3) * 500, 400 + i);
        }
        let base = 9 * BUCKET;
        q.push(base, 500); // the head
        for i in 0..300u32 {
            q.push(base + 2_000, 600 + i); // a run at the bucket's tail
        }
        for i in 0..50u32 {
            q.push(base + u64::from(i % 4) * 600, 1_000 + i);
        }
        q.drain();
    }

    /// Times on either side of every seam — a near bucket's edge, a
    /// period's, the near ring's end, a period far into the heap — pushed
    /// out of order, each twice, then popped with pushes at the same seams
    /// from the moving clock.
    #[test]
    fn seams_between_buckets_and_tiers_keep_the_order() {
        let edges = [
            BUCKET,
            5 * BUCKET,
            PERIOD - BUCKET,
            PERIOD,
            HEAP,
            HEAP + PERIOD,
            40 * PERIOD,
            41 * PERIOD,
        ];
        let mut times: Vec<u64> = edges.iter().flat_map(|&e| [e - 1, e, e + 1]).collect();
        let mut rng = SplitMix64::from_state(3);
        for i in (1..times.len()).rev() {
            times.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut q = Lockstep::default();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i as u32);
            q.push(t, 100 + i as u32);
        }
        for (round, &e) in edges.iter().cycle().take(3 * times.len()).enumerate() {
            let now = q.pop().expect("pending").0;
            q.push(now + e - 1, 200 + round as u32);
            q.push(now + e, 400 + round as u32);
        }
        q.drain();
    }

    /// Events reach the ring from the heap by the one-period move and, with
    /// the near ring spent, by a jump to the heap's first period however
    /// far it is.
    #[test]
    fn a_jump_past_the_near_ring_reaches_the_heap() {
        let mut q = Lockstep::default();
        q.push(10, 0);
        q.push(HEAP + 5, 1); // the first period past the near ring
        q.push(40 * HEAP + 7, 2); // far past it
        q.push(HEAP - 1, 3); // the near ring's last nanosecond
        assert_eq!(q.pop(), Some((10, 0)));
        // The clock enters the ring's second period, and the heap's event,
        // one period on, comes into the ring with the move.
        assert_eq!(q.pop(), Some((HEAP - 1, 3)));
        q.push(HEAP + 5, 4);
        assert_eq!(q.pop(), Some((HEAP + 5, 1)));
        assert_eq!(q.pop(), Some((HEAP + 5, 4)));
        // The ring is spent: straight to the heap's next period.
        assert_eq!(q.pop(), Some((40 * HEAP + 7, 2)));
        q.push(40 * HEAP + 7, 5);
        q.push(41 * HEAP, 6);
        q.drain();
    }

    /// A refused `pop_before` whose limit lies nearer than the event leaves
    /// the queue able to take pushes at the limit.
    #[test]
    fn a_refusal_with_its_limit_in_another_tier() {
        // (event, limit): the limit nearer than the event.
        let cases = [
            // the near ring's second period; the limit in its first
            (PERIOD + 9, PERIOD - 9),
            // the heap; the limit in the near ring
            (HEAP + 3, PERIOD + 1),
            // the heap; the limit in an empty period past the near ring
            (40 * PERIOD, 5 * PERIOD),
            // the heap; the limit in its own period, so the ring moves
            // there and the clock to the period's start, short of the limit
            (HEAP + 3 * PERIOD + 10, HEAP + 3 * PERIOD + 5),
        ];
        for (at, limit) in cases {
            let mut q = Lockstep::default();
            q.push(at, 1);
            assert_eq!(q.pop_before(limit), None, "event {at}, limit {limit}");
            // The caller runs its own event at `limit` and pushes from there.
            q.push(limit, 2);
            q.push(limit + 1, 3);
            assert_eq!(q.pop_before(at), Some((limit, 2)));
            assert_eq!(q.pop_before(at), Some((limit + 1, 3)));
            assert_eq!(q.pop_before(at), None);
            assert_eq!(q.pop(), Some((at, 1)));
        }
    }

    /// One nanosecond pushed twice into the heap, then into the near ring as
    /// the clock closes in: the moves out of the heap keep the three in
    /// push order.
    #[test]
    fn a_far_push_tied_by_later_nearer_pushes_keeps_sequence_order() {
        let at = 100 * PERIOD + 77;
        let mut q = Lockstep::default();
        q.push(at, 1); // the heap
        q.push(50 * PERIOD, 0);
        assert_eq!(q.pop(), Some((50 * PERIOD, 0)));
        q.push(at, 2); // the heap, from a ring 50 periods on
        q.push(at - PERIOD - 5, 0);
        // The ring jumps to the period before `at`'s and opens `at`'s.
        assert_eq!(q.pop(), Some((at - PERIOD - 5, 0)));
        q.push(at, 3); // the near ring
        assert_eq!(q.pop(), Some((at, 1)));
        assert_eq!(q.pop(), Some((at, 2)));
        assert_eq!(q.pop(), Some((at, 3)));

        // The same through the one-period move, as the clock steps from
        // the ring's first period into its second.
        let mut q = Lockstep::default();
        let at = 2 * PERIOD + 5;
        q.push(at, 1); // the heap
        q.push(PERIOD + 3, 0);
        assert_eq!(q.pop(), Some((PERIOD + 3, 0)));
        q.push(at, 2); // the near ring
        q.push(at - 1, 3);
        assert_eq!(q.pop(), Some((at - 1, 3)));
        assert_eq!(q.pop(), Some((at, 1)));
        assert_eq!(q.pop(), Some((at, 2)));
    }

    /// Random pushes and limits a few nanoseconds either side of multiples
    /// of each seam's width, against the model.
    #[test]
    fn random_seam_deltas_match_the_model() {
        let mut q = Lockstep::default();
        let mut rng = SplitMix64::from_state(0xCA1E_4DA2);
        let mut now = 0u64;
        let seam = |r: u64| {
            let width = [BUCKET, PERIOD, 40 * PERIOD][(r % 3) as usize];
            (width * ((r >> 2) % 4))
                .saturating_add((r >> 8) % 9)
                .saturating_sub(4)
        };
        for round in 0..40_000u32 {
            let r = rng.next_u64();
            let delta = seam(r >> 8);
            match r % 8 {
                0..=3 => q.push(now + delta, round),
                4..=6 => match q.pop_before(now + delta) {
                    Some((t, _)) => now = t,
                    None => now += delta,
                },
                _ => now = q.pop().map_or(now, |(t, _)| t),
            }
        }
        q.drain();
    }
}
