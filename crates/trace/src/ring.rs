//! Lock-free single-producer/single-consumer trace ring.
//!
//! Each lane of the recorder is one [`TraceRing`]: a power-of-two array of
//! 4-word slots with a producer cursor (`head`), a consumer cursor (`tail`)
//! and a saturating drop counter. A push is a bounds check, four relaxed
//! stores and a release cursor bump — it never blocks, never allocates, and
//! when the consumer has fallen a full capacity behind it drops the event
//! and bumps the counter instead of waiting.
//!
//! Memory order, the SPSC argument, both ways round. The producer's
//! `Release` store of `head` orders its slot stores before it, and the
//! consumer's `Acquire` load of `head` orders its slot loads after them: a
//! drained record is the one pushed. The consumer's slot loads come before
//! its `Release` store of `tail`, and the producer's `Acquire` load of
//! `tail` in [`push`](TraceRing::push) orders its overwrite of a freed
//! slot after them: a push never writes a slot the consumer is still
//! reading. An `Acquire` load is a plain load on x86; the second half
//! matters on a weakly ordered CPU.
//!
//! The slots are plain `AtomicU64` words rather than a `&mut`-based ring so
//! that *accidental* concurrent producers (e.g. two threads handed one
//! worker lane) stay memory-safe: the worst outcome is a lost or torn
//! record, which the decoder tolerates via [`EventKind::Unknown`], never
//! undefined behaviour. The one lane with many producers by design, the
//! recorder's control lane, is serialised by the recorder.
//!
//! What is checked: the `models` tests run push and drain under the
//! crate's interleaving checker (`check.rs`), every sequentially
//! consistent schedule of up to two preemptions, on fresh capacity-2
//! rings: no record is torn, lost or reordered, and every record emitted
//! is drained or counted as dropped. The memory-order half above is out
//! of the checker's reach (every operation it runs is sequentially
//! consistent), so the `Acquire` on `tail` rests on the argument, not on
//! a run.

use crate::record::TraceRecord;
use crate::sync::{AtomicU64, Ordering};

/// Default per-lane capacity in records (32 KiB per lane).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

const WORDS_PER_SLOT: usize = 4;

/// A fixed-capacity SPSC ring of [`TraceRecord`]s.
pub struct TraceRing {
    /// `capacity * 4` words: `[ts, kind<<32|worker, a, b]` per slot.
    words: Box<[AtomicU64]>,
    /// Slot-index mask (`capacity - 1`).
    mask: u64,
    /// Next sequence number to write (producer-owned).
    head: AtomicU64,
    /// Next sequence number to read (consumer-owned).
    tail: AtomicU64,
    /// Events discarded because the ring was full. Saturating.
    dropped: AtomicU64,
}

impl TraceRing {
    /// Ring holding `capacity` records. `capacity` must be a power of two.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 2,
            "ring capacity must be a power of two >= 2, got {capacity}"
        );
        let words = (0..capacity * WORDS_PER_SLOT)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            words,
            mask: (capacity - 1) as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of records the ring can hold.
    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Records currently buffered (racy snapshot).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        head.wrapping_sub(tail).min(self.mask + 1) as usize
    }

    /// Whether the ring is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Append a record. Returns `false` (and bumps the drop counter) when
    /// the ring is full. Never blocks.
    #[inline]
    pub fn push(&self, r: TraceRecord) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        // Acquire: the consumer's reads of the slots it freed happen before
        // this push overwrites one (module docs).
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) > self.mask {
            // Full: drop, saturating so the counter never wraps to "clean".
            let d = self.dropped.load(Ordering::Relaxed);
            self.dropped.store(d.saturating_add(1), Ordering::Relaxed);
            return false;
        }
        let base = ((head & self.mask) as usize) * WORDS_PER_SLOT;
        self.words[base].store(r.ts, Ordering::Relaxed);
        self.words[base + 1].store(r.meta(), Ordering::Relaxed);
        self.words[base + 2].store(r.a, Ordering::Relaxed);
        self.words[base + 3].store(r.b, Ordering::Relaxed);
        // Release the slot words to the consumer in one cursor bump.
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Move every buffered record into `out`, oldest first.
    pub fn drain_into(&self, out: &mut Vec<TraceRecord>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        // Bound the walk to one capacity in case a misbehaving producer
        // advanced head past the SPSC full state while we drain.
        let cap = self.mask + 1;
        if head.wrapping_sub(tail) > cap {
            tail = head.wrapping_sub(cap);
        }
        while tail != head {
            let base = ((tail & self.mask) as usize) * WORDS_PER_SLOT;
            let ts = self.words[base].load(Ordering::Relaxed);
            let meta = self.words[base + 1].load(Ordering::Relaxed);
            let a = self.words[base + 2].load(Ordering::Relaxed);
            let b = self.words[base + 3].load(Ordering::Relaxed);
            out.push(TraceRecord::from_words(ts, meta, a, b));
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }

    /// Drop all buffered records and zero the drop counter (test/reset aid).
    pub fn clear(&self) {
        let head = self.head.load(Ordering::Acquire);
        self.tail.store(head, Ordering::Release);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod models {
    //! The ring's protocol under every schedule of up to [`PREEMPTIONS`]
    //! preemptions (`crate::check`), on rings of capacity 2, so that the
    //! full ring and the wrap come up within a few operations. Each thread
    //! returns the records it pushed or drained.
    use super::*;
    use crate::check::{explore, PREEMPTIONS};
    use crate::record::EventKind;

    fn rec(ts: u64) -> TraceRecord {
        TraceRecord {
            ts,
            kind: EventKind::SimDispatch,
            worker: 7,
            a: ts * 2,
            b: ts * 3,
        }
    }

    /// Push `ts` in order; the records the ring took.
    fn push(ring: &TraceRing, ts: std::ops::RangeInclusive<u64>) -> Vec<TraceRecord> {
        ts.map(rec).filter(|&r| ring.push(r)).collect()
    }

    /// `drains` drains; the records they returned.
    fn drain(ring: &TraceRing, drains: usize) -> Vec<TraceRecord> {
        let mut got = Vec::new();
        for _ in 0..drains {
            ring.drain_into(&mut got);
        }
        got
    }

    /// Every interleaving of one producer pushing three records against a
    /// concurrently draining consumer: no record is ever torn (payload
    /// words always match the timestamp they were written with), accepted
    /// records drain in push order, and push + drop accounting is exact.
    #[test]
    fn spsc_push_drain_never_tears_and_loses_nothing() {
        let schedules = explore(
            PREEMPTIONS,
            || TraceRing::with_capacity(2),
            &[|ring| push(ring, 1..=3), |ring| drain(ring, 1)],
            |ring, results| {
                let [pushed, mut got] = <[_; 2]>::try_from(results).unwrap();
                let pushed = pushed.len() as u64;
                ring.drain_into(&mut got);
                for r in &got {
                    assert!((1..=3).contains(&r.ts), "phantom record ts={}", r.ts);
                    assert_eq!(r.a, r.ts * 2, "torn payload a for ts={}", r.ts);
                    assert_eq!(r.b, r.ts * 3, "torn payload b for ts={}", r.ts);
                }
                for w in got.windows(2) {
                    assert!(w[0].ts < w[1].ts, "records drained out of order");
                }
                assert_eq!(got.len() as u64, pushed, "accepted records must drain");
                assert_eq!(pushed + ring.dropped(), 3, "push/drop accounting");
            },
        );
        assert!(schedules >= 149, "{schedules} schedules explored");
    }

    /// A full capacity-2 ring drops rather than blocks in every
    /// interleaving, and the drop counter never double-counts.
    #[test]
    fn full_ring_drop_accounting_is_exact_under_races() {
        let schedules = explore(
            PREEMPTIONS,
            || {
                let ring = TraceRing::with_capacity(2);
                assert!(ring.push(rec(1)));
                assert!(ring.push(rec(2)));
                ring
            },
            &[|ring| push(ring, 3..=3), |ring| drain(ring, 1)],
            |ring, results| {
                let [pushed, mut got] = <[_; 2]>::try_from(results).unwrap();
                let pushed = 2 + pushed.len() as u64;
                ring.drain_into(&mut got);
                assert_eq!(got.len() as u64, pushed);
                assert_eq!(pushed + ring.dropped(), 3);
            },
        );
        assert!(schedules >= 75, "{schedules} schedules explored");
    }

    /// The count the recorder's users read, from the ring alone: a
    /// producer emits four records into two slots while the consumer
    /// drains twice, so slots are freed and reused mid-push; every record
    /// emitted is drained or counted as dropped, whatever the schedule.
    #[test]
    fn drained_plus_dropped_is_emitted() {
        const EMITTED: u64 = 4;
        let schedules = explore(
            PREEMPTIONS,
            || TraceRing::with_capacity(2),
            &[|ring| push(ring, 1..=EMITTED), |ring| drain(ring, 2)],
            |ring, results| {
                let drained = (results[1].len() + drain(ring, 1).len()) as u64;
                let dropped = ring.dropped();
                assert_eq!(
                    drained + dropped,
                    EMITTED,
                    "{drained} drained + {dropped} dropped of {EMITTED} emitted"
                );
            },
        );
        assert!(schedules >= 330, "{schedules} schedules explored");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventKind;

    fn rec(ts: u64) -> TraceRecord {
        TraceRecord {
            ts,
            kind: EventKind::SimDispatch,
            worker: 7,
            a: ts * 2,
            b: ts * 3,
        }
    }

    #[test]
    fn push_then_drain_preserves_order_and_contents() {
        let ring = TraceRing::with_capacity(8);
        for i in 0..5 {
            assert!(ring.push(rec(i)));
        }
        assert_eq!(ring.len(), 5);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 5);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, rec(i as u64));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts_without_blocking() {
        let ring = TraceRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(rec(i)));
        }
        // Next three pushes must fail fast and be accounted.
        for i in 4..7 {
            assert!(!ring.push(rec(i)));
        }
        assert_eq!(ring.dropped(), 3);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        // Oldest four survive; dropped events are gone.
        assert_eq!(
            out.iter().map(|r| r.ts).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn wraparound_reuses_slots_after_drain() {
        let ring = TraceRing::with_capacity(4);
        let mut out = Vec::new();
        // Run the cursors several times around the ring.
        for round in 0..10u64 {
            for i in 0..4 {
                assert!(ring.push(rec(round * 4 + i)));
            }
            out.clear();
            ring.drain_into(&mut out);
            assert_eq!(
                out.iter().map(|r| r.ts).collect::<Vec<_>>(),
                (round * 4..round * 4 + 4).collect::<Vec<_>>()
            );
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn interleaved_push_drain_wraps_correctly() {
        let ring = TraceRing::with_capacity(4);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        let mut next = 0u64;
        for _ in 0..25 {
            for _ in 0..3 {
                if ring.push(rec(next)) {
                    // ok
                }
                next += 1;
            }
            out.clear();
            ring.drain_into(&mut out);
            seen.extend(out.iter().map(|r| r.ts));
        }
        // With capacity 4 and bursts of 3, nothing ever drops, and order holds.
        assert_eq!(ring.dropped(), 0);
        assert_eq!(seen, (0..75).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_contents_and_drop_counter() {
        let ring = TraceRing::with_capacity(2);
        ring.push(rec(0));
        ring.push(rec(1));
        ring.push(rec(2)); // dropped
        assert_eq!(ring.dropped(), 1);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = TraceRing::with_capacity(3);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::with_capacity(1024));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut pushed = 0u64;
                for i in 0..100_000u64 {
                    if ring.push(rec(i)) {
                        pushed += 1;
                    }
                }
                pushed
            })
        };
        let mut got = Vec::new();
        while !producer.is_finished() {
            ring.drain_into(&mut got);
        }
        ring.drain_into(&mut got);
        let pushed = producer.join().unwrap();
        assert_eq!(got.len() as u64, pushed);
        assert_eq!(pushed + ring.dropped(), 100_000);
        // Sequence numbers of accepted records are strictly increasing.
        for w in got.windows(2) {
            assert!(w[0].ts < w[1].ts);
        }
    }
}
