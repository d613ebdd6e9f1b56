//! Event engines for the discrete-event core.
//!
//! The simulator needs one operation pair — `push(t, ev)` / `pop() ->
//! (t, ev)` in nondecreasing `t` order, FIFO within a timestamp — executed
//! hundreds of millions of times per evaluation sweep, plus
//! `pop_before(limit)`, which lets it merge the queue with the workload's
//! scripted arrivals (never queued) without disturbing the queue's clock.
//! Two engines implement it:
//!
//! * [`TimerWheel`] — a hierarchical timing wheel (Varghese–Lauck style,
//!   as in kernel timers and tokio): 11 levels of 64 slots each cover the
//!   full `u64` nanosecond range at 1 ns near-wheel granularity. Schedule
//!   and pop are amortized O(1); `Item` nodes live in a single arena and
//!   are recycled through a free list, so a steady-state run allocates
//!   nothing per event. This is the default engine.
//! * [`HeapQueue`] — the original `BinaryHeap<Reverse<Item>>`, kept as the
//!   reference implementation: O(log n) per operation, one heap entry per
//!   pending event. The equivalence suite replays identical workloads
//!   through both engines and asserts identical observable behaviour.
//!
//! Both engines break timestamp ties by insertion sequence (FIFO), which
//! is what makes replays deterministic and lets golden results carry over
//! across the engine swap. The wheel gets FIFO order for free: level 0 has
//! 1 ns granularity, so every slot list holds exactly one timestamp and
//! append order *is* sequence order; cascades from overflow levels drain
//! their slot lists in FIFO order into lower levels, preserving it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which event engine a [`crate::SimConfig`] selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Hierarchical timer wheel: amortized O(1), arena-recycled nodes.
    #[default]
    Wheel,
    /// Binary-heap reference implementation: O(log n) per operation.
    Heap,
}

impl Engine {
    /// Display name for harness output.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Wheel => "wheel",
            Engine::Heap => "heap",
        }
    }
}

/// Bits of the timestamp consumed per wheel level (64 slots).
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Levels needed to cover all 64 timestamp bits (11 × 6 = 66 ≥ 64).
const LEVELS: usize = 64usize.div_ceil(SLOT_BITS);
/// Null arena index.
const NIL: u32 = u32::MAX;

/// One pending event in the wheel arena, linked into a slot list.
#[derive(Clone, Copy, Debug)]
struct Node<E> {
    t: u64,
    ev: E,
    next: u32,
}

/// Hierarchical timing wheel over `u64` nanosecond timestamps.
///
/// Level `l` spans `64^(l+1)` ns in 64 slots of `64^l` ns each. An event
/// lives at the lowest level whose slot width still separates it from the
/// current time (`elapsed`); popping past a level-`l` slot boundary
/// cascades that slot's events down to finer levels. Nodes are recycled
/// through a free list, so arena size tracks the *peak* number of pending
/// events, not the total pushed.
#[derive(Debug)]
pub struct TimerWheel<E> {
    nodes: Vec<Node<E>>,
    free_head: u32,
    /// Slot list heads/tails, flattened `[level][slot]`.
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    /// Per-level occupancy bitmap (bit = slot has a non-empty list).
    occ: [u64; LEVELS],
    /// Timestamp of the most recent pop (the wheel's notion of "now").
    elapsed: u64,
    len: usize,
}

impl<E: Copy> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> TimerWheel<E> {
    /// An empty wheel at time 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty wheel with `n` arena nodes pre-allocated.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            free_head: NIL,
            heads: vec![NIL; LEVELS * SLOTS].into_boxed_slice(),
            tails: vec![NIL; LEVELS * SLOTS].into_boxed_slice(),
            occ: [0; LEVELS],
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
    /// clamp keeps the wheel's window invariants unconditionally sound).
    pub fn push(&mut self, t: u64, ev: E) {
        let t = t.max(self.elapsed);
        let idx = match self.free_head {
            NIL => {
                self.nodes.push(Node { t, ev, next: NIL });
                (self.nodes.len() - 1) as u32
            }
            idx => {
                self.free_head = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = Node { t, ev, next: NIL };
                idx
            }
        };
        self.link(idx, t);
        self.len += 1;
    }

    /// Lowest level whose slot width separates `t` from `elapsed`: the
    /// position of the highest differing bit, in units of [`SLOT_BITS`].
    /// The `| SLOT_MASK` forces level 0 when the times share a slot.
    #[inline]
    fn level_for(elapsed: u64, t: u64) -> usize {
        let distinct = (elapsed ^ t) | SLOT_MASK;
        ((63 - distinct.leading_zeros()) / SLOT_BITS as u32) as usize
    }

    /// Append node `idx` (timestamp `t`) to its slot list.
    #[inline]
    fn link(&mut self, idx: u32, t: u64) {
        let level = Self::level_for(self.elapsed, t);
        let slot = ((t >> (SLOT_BITS * level)) & SLOT_MASK) as usize;
        let s = level * SLOTS + slot;
        if self.heads[s] == NIL {
            self.heads[s] = idx;
        } else {
            self.nodes[self.tails[s] as usize].next = idx;
        }
        self.tails[s] = idx;
        self.occ[level] |= 1 << slot;
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.pop_through(u64::MAX)
    }

    /// [`pop`](Self::pop), but only an event strictly earlier than `limit`.
    /// A refusal leaves the wheel clock short of `limit`, so the caller can
    /// handle something of its own at `limit` and push from there unclamped.
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, E)> {
        self.pop_through(limit.checked_sub(1)?)
    }

    /// The earliest event if its time is `<= last`. It refuses before it
    /// changes anything: an overflow slot starting after `last` is not
    /// cascaded (that would advance the clock to its start), a near-wheel
    /// node later than `last` is not unlinked.
    fn pop_through(&mut self, last: u64) -> Option<(u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0 slots each hold exactly one timestamp within the
            // current 64 ns window; the lowest occupied slot at or after
            // the cursor is the global minimum.
            let cursor0 = self.elapsed & SLOT_MASK;
            let pending0 = self.occ[0] & (!0u64 << cursor0);
            if pending0 != 0 {
                let slot = pending0.trailing_zeros() as usize;
                let idx = self.heads[slot] as usize;
                let node = self.nodes[idx];
                if node.t > last {
                    return None;
                }
                self.heads[slot] = node.next;
                if node.next == NIL {
                    self.tails[slot] = NIL;
                    self.occ[0] &= !(1 << slot);
                }
                self.nodes[idx].next = self.free_head;
                self.free_head = idx as u32;
                self.len -= 1;
                debug_assert!(node.t >= self.elapsed);
                self.elapsed = node.t;
                return Some((node.t, node.ev));
            }
            // Near wheel exhausted: advance to the next occupied slot of
            // the lowest pending overflow level and cascade it downward.
            // Draining in FIFO order re-links same-timestamp runs in their
            // original sequence, preserving the tie-break.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level;
                let cursor = (self.elapsed >> shift) & SLOT_MASK;
                let pending = self.occ[level] & (!0u64 << cursor);
                if pending == 0 {
                    continue;
                }
                let slot = pending.trailing_zeros() as u64;
                let upper_shift = shift + SLOT_BITS;
                let upper = if upper_shift >= 64 {
                    0
                } else {
                    (self.elapsed >> upper_shift) << upper_shift
                };
                let slot_start = upper | (slot << shift);
                debug_assert!(slot_start >= self.elapsed);
                if slot_start > last {
                    return None;
                }
                self.elapsed = slot_start;
                let s = level * SLOTS + slot as usize;
                let mut idx = self.heads[s];
                self.heads[s] = NIL;
                self.tails[s] = NIL;
                self.occ[level] &= !(1 << slot);
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    self.nodes[idx as usize].next = NIL;
                    let t = self.nodes[idx as usize].t;
                    self.link(idx, t);
                    idx = next;
                }
                cascaded = true;
                break;
            }
            debug_assert!(cascaded, "non-empty wheel failed to make progress");
            if !cascaded {
                return None;
            }
        }
    }
}

/// Heap entry ordered by (time, sequence) only — the payload does not
/// participate, so `E` needs no `Ord`.
#[derive(Clone, Copy, Debug)]
struct HeapItem<E> {
    t: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for HeapItem<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl<E> Eq for HeapItem<E> {}
impl<E> Ord for HeapItem<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}
impl<E> PartialOrd for HeapItem<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The original binary-heap engine, kept as the reference implementation
/// for equivalence testing and before/after benchmarking.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<HeapItem<E>>>,
    seq: u64,
    /// Timestamp of the last pop; pushes clamp to it, mirroring the
    /// wheel's behaviour exactly.
    elapsed: u64,
    /// Most events ever pending at once (the wheel's `arena_size`).
    peak: usize,
}

impl<E: Copy> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> HeapQueue<E> {
    /// An empty heap at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            elapsed: 0,
            peak: 0,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `ev` at time `t` (clamped to the last popped time).
    pub fn push(&mut self, t: u64, ev: E) {
        let t = t.max(self.elapsed);
        self.seq += 1;
        self.heap.push(Reverse(HeapItem {
            t,
            seq: self.seq,
            ev,
        }));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse(item) = self.heap.pop()?;
        self.elapsed = item.t;
        Some((item.t, item.ev))
    }

    /// [`pop`](Self::pop), but only an event strictly earlier than `limit`.
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, E)> {
        (self.heap.peek()?.0.t < limit).then(|| self.pop())?
    }
}

/// Engine-dispatched event queue: the simulator holds one of these and
/// stays agnostic to which engine backs it.
#[derive(Debug)]
pub enum EventQueue<E> {
    /// Timer-wheel engine (default).
    Wheel(TimerWheel<E>),
    /// Heap reference engine.
    Heap(HeapQueue<E>),
}

impl<E: Copy> EventQueue<E> {
    /// Build the queue for the selected engine.
    pub fn new(engine: Engine) -> Self {
        match engine {
            Engine::Wheel => EventQueue::Wheel(TimerWheel::new()),
            Engine::Heap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    /// Schedule `ev` at time `t`.
    #[inline]
    pub fn push(&mut self, t: u64, ev: E) {
        match self {
            EventQueue::Wheel(q) => q.push(t, ev),
            EventQueue::Heap(q) => q.push(t, ev),
        }
    }

    /// Remove and return the earliest event (FIFO among equal times).
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, E)> {
        match self {
            EventQueue::Wheel(q) => q.pop(),
            EventQueue::Heap(q) => q.pop(),
        }
    }

    /// [`pop`](Self::pop), but only an event strictly earlier than `limit`
    /// (see [`TimerWheel::pop_before`]).
    #[inline]
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, E)> {
        match self {
            EventQueue::Wheel(q) => q.pop_before(limit),
            EventQueue::Heap(q) => q.pop_before(limit),
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Wheel(q) => q.len(),
            EventQueue::Heap(q) => q.len(),
        }
    }

    /// Most events ever pending at once.
    pub fn peak_len(&self) -> usize {
        match self {
            EventQueue::Wheel(q) => q.arena_size(),
            EventQueue::Heap(q) => q.peak,
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::SplitMix64;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
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
        // Ties at a far-future timestamp survive one or more cascades.
        for &t in &[0u64, 63, 64, 4096, 1 << 30, u64::MAX / 2] {
            let mut w = TimerWheel::new();
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
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        // Interleave pushes at two future times, then pop everything.
        for i in 0..50u32 {
            let t = if i % 2 == 0 { 10_000 } else { 20_000 };
            w.push(t, i);
            h.push(t, i);
        }
        for _ in 0..50 {
            assert_eq!(w.pop(), h.pop());
        }
    }

    #[test]
    fn random_interleaving_matches_heap() {
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        let mut rng = SplitMix64::from_state(0x1234_5678);
        let mut now = 0u64;
        for round in 0..20_000 {
            let r = rng.next_u64();
            if r % 3 < 2 || w.is_empty() {
                // Push at now + a delta spanning many magnitudes.
                let exp = (r >> 8) % 40;
                let delta = (r >> 16) % (1 << exp).max(1);
                w.push(now + delta, round as u32);
                h.push(now + delta, round as u32);
            } else {
                let (a, b) = (w.pop(), h.pop());
                assert_eq!(a, b);
                now = a.unwrap().0;
            }
        }
        while !w.is_empty() {
            assert_eq!(w.pop(), h.pop());
        }
        assert!(h.is_empty());
    }

    /// The contract both engines implement, as a sorted `Vec`: `(t, seq)`
    /// order, pushes clamped to the last popped time.
    #[derive(Default)]
    struct Model {
        items: Vec<(u64, u64, u32)>,
        seq: u64,
        elapsed: u64,
    }

    impl Model {
        fn push(&mut self, t: u64, ev: u32) {
            self.seq += 1;
            let key = (t.max(self.elapsed), self.seq, ev);
            let at = self.items.partition_point(|&it| it < key);
            self.items.insert(at, key);
        }

        fn pop_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            let &(t, _, ev) = self.items.first().filter(|it| it.0 < limit)?;
            self.items.remove(0);
            self.elapsed = t;
            Some((t, ev))
        }
    }

    /// Push to, and pop from, the model and both engines in lockstep.
    #[derive(Default)]
    struct Lockstep {
        model: Model,
        wheel: TimerWheel<u32>,
        heap: HeapQueue<u32>,
    }

    impl Lockstep {
        fn push(&mut self, t: u64, ev: u32) {
            self.model.push(t, ev);
            self.wheel.push(t, ev);
            self.heap.push(t, ev);
        }

        fn pop_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            let want = self.model.pop_before(limit);
            assert_eq!(self.wheel.pop_before(limit), want, "wheel, limit {limit}");
            assert_eq!(self.heap.pop_before(limit), want, "heap, limit {limit}");
            want
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            let want = self.model.pop_before(u64::MAX);
            assert_eq!(self.wheel.pop(), want, "wheel pop");
            assert_eq!(self.heap.pop(), want, "heap pop");
            want
        }
    }

    #[test]
    fn pop_before_matches_the_model_on_both_engines() {
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
                assert_eq!(q.wheel.len(), q.model.items.len());
                assert_eq!(q.heap.len(), q.model.items.len());
            }
            assert!(
                refused > 1_000 && popped > 1_000,
                "seed {seed}: {refused}/{popped}"
            );
            while q.pop().is_some() {}
            assert!(q.wheel.is_empty() && q.heap.is_empty());
            assert_eq!(q.wheel.arena_size(), q.heap.peak, "peak population");
        }
    }

    #[test]
    fn refused_pop_does_not_clamp_a_push_before_the_refused_slot() {
        // The clock-clamp trap. 1000 lives in an overflow slot starting at
        // 960; refusing it must not cascade that slot, which would move the
        // clock to 960 and deliver the push at 700 late.
        let mut q = Lockstep::default();
        q.push(1_000, 1);
        assert_eq!(q.pop_before(500), None);
        q.push(700, 2);
        q.push(500, 3);
        assert_eq!(q.pop_before(1_000), Some((500, 3)));
        assert_eq!(q.pop(), Some((700, 2)));
        // A limit inside the refused event's slot may cascade it (clock to
        // 960, short of the limit) and must still refuse the event.
        assert_eq!(q.pop_before(980), None);
        q.push(980, 4);
        assert_eq!(q.pop(), Some((980, 4)));
        assert_eq!(q.pop(), Some((1_000, 1)));
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
        let mut w = TimerWheel::new();
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
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        w.push(1_000, 1u32);
        h.push(1_000, 1u32);
        assert_eq!(w.pop(), Some((1_000, 1)));
        assert_eq!(h.pop(), Some((1_000, 1)));
        // t=5 is in the past; both engines deliver it at elapsed (1000).
        w.push(5, 2);
        h.push(5, 2);
        w.push(1_000, 3);
        h.push(1_000, 3);
        assert_eq!(w.pop(), Some((1_000, 2)));
        assert_eq!(h.pop(), Some((1_000, 2)));
        assert_eq!(w.pop(), Some((1_000, 3)));
        assert_eq!(h.pop(), Some((1_000, 3)));
    }

    #[test]
    fn arena_recycles_nodes() {
        let mut w = TimerWheel::new();
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
        let mut q = EventQueue::new(Engine::Wheel);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(7, 'x');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((7, 'x')));
        assert_eq!(q.pop(), None);
        q.push(9, 'y');
        assert_eq!(q.pop(), Some((9, 'y')));
    }

    #[test]
    fn engine_selector_round_trip() {
        assert_eq!(Engine::default(), Engine::Wheel);
        assert_eq!(Engine::Wheel.name(), "wheel");
        assert_eq!(Engine::Heap.name(), "heap");
        assert!(matches!(
            EventQueue::<u8>::new(Engine::Heap),
            EventQueue::Heap(_)
        ));
    }

    #[test]
    fn dense_same_window_burst() {
        // Everything lands inside one 64 ns level-0 window.
        let mut w = TimerWheel::new();
        let mut h = HeapQueue::new();
        let mut rng = SplitMix64::from_state(42);
        for i in 0..1_000u32 {
            let t = rng.next_u64() % 64;
            w.push(t, i);
            h.push(t, i);
        }
        for _ in 0..1_000 {
            assert_eq!(w.pop(), h.pop());
        }
    }
}
