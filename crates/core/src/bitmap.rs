//! 64-bit worker availability bitmap.
//!
//! §5.3.2: scheduling results are carried from userspace to the kernel as a
//! bitmap packed into one 64-bit integer ("1 = available"), because a plain
//! array would need explicit locking while a single word updates atomically.
//! §5.4 then selects a worker from the bitmap with classic bit tricks:
//! population count and *find the Nth set bit* (branchless rank/select from
//! the Bit Twiddling Hacks collection the paper cites).
//!
//! The same packing doubles as the flight recorder's payload convention:
//! `hermes-trace` records carry bitmaps verbatim as one `u64` payload word
//! (`SchedStage`, `SchedDecision` and `BitmapPublish` events), so a trace
//! of successive stage bitmaps can be diffed bit-by-bit to answer exactly
//! which cascade stage rejected which worker.

use crate::WorkerId;

/// A set of available workers encoded in a `u64` (bit `i` ⇒ worker `i`).
///
/// ```
/// use hermes_core::WorkerBitmap;
/// let bm = WorkerBitmap::from_workers([0, 3, 4]);
/// assert_eq!(bm.count(), 3);
/// assert_eq!(bm.nth_set_bit(2), Some(3)); // rank-select, 1-based
/// assert!(!bm.contains(1));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct WorkerBitmap(pub u64);

/// Workers a single bitmap word can carry — the §7 scaling limit that
/// forces grouped (two-level) dispatch beyond one atomic `u64`. Shared by
/// the native dispatcher and the eBPF program emitters so their group-size
/// asserts cannot drift apart.
pub const MAX_WORKERS_PER_GROUP: usize = 64;

impl WorkerBitmap {
    /// The empty set.
    pub const EMPTY: WorkerBitmap = WorkerBitmap(0);

    /// A bitmap with workers `0..n` all set (`Array2INT` of a full worker
    /// list).
    pub fn all(n: usize) -> Self {
        assert!(
            n <= MAX_WORKERS_PER_GROUP,
            "bitmap holds at most {MAX_WORKERS_PER_GROUP} workers"
        );
        if n == MAX_WORKERS_PER_GROUP {
            WorkerBitmap(u64::MAX)
        } else {
            WorkerBitmap((1u64 << n) - 1)
        }
    }

    /// Build from an iterator of worker ids (`Array2INT` in Algorithm 1).
    pub fn from_workers<I: IntoIterator<Item = WorkerId>>(ids: I) -> Self {
        let mut bits = 0u64;
        for id in ids {
            assert!(id < 64, "worker id {id} exceeds bitmap capacity");
            bits |= 1u64 << id;
        }
        WorkerBitmap(bits)
    }

    /// Whether worker `id` is present.
    #[inline]
    pub fn contains(&self, id: WorkerId) -> bool {
        id < 64 && (self.0 >> id) & 1 == 1
    }

    /// Insert worker `id`.
    #[inline]
    pub fn insert(&mut self, id: WorkerId) {
        assert!(id < 64, "worker id {id} exceeds bitmap capacity");
        self.0 |= 1u64 << id;
    }

    /// Remove worker `id`.
    #[inline]
    pub fn remove(&mut self, id: WorkerId) {
        if id < 64 {
            self.0 &= !(1u64 << id);
        }
    }

    /// `CountNonZeroBits` — number of available workers (Algorithm 2 line 3).
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// True when no worker is available.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// `FindNthNonZeroBit` — position of the `nth` set bit, 1-based
    /// (Algorithm 2 line 6). Returns `None` when fewer than `nth` bits are
    /// set or `nth == 0`.
    ///
    /// Implemented as a branchless binary rank/select over popcounts of
    /// halves, the same ladder an eBPF program must use because the verifier
    /// forbids loops (§5.1.3); `hermes-ebpf` runs the bytecode twin of this
    /// function and is property-tested for equivalence against it.
    pub fn nth_set_bit(&self, nth: u32) -> Option<WorkerId> {
        if nth == 0 || nth > self.count() {
            return None;
        }
        let v = self.0;
        let mut r = nth;
        let mut pos = 0u32;
        // At each rung inspect the lower half of the remaining window: if it
        // holds >= r set bits the answer is inside, otherwise skip it.
        let mut width = 32u32;
        while width > 0 {
            let low_mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let low = ((v >> pos) & low_mask).count_ones();
            if low < r {
                r -= low;
                pos += width;
            }
            width /= 2;
        }
        Some(pos as usize)
    }

    /// Iterate the set worker ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = WorkerId> + '_ {
        let bits = self.0;
        (0..64usize).filter(move |i| (bits >> i) & 1 == 1)
    }
}

impl std::fmt::Display for WorkerBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl FromIterator<WorkerId> for WorkerBitmap {
    fn from_iter<I: IntoIterator<Item = WorkerId>>(iter: I) -> Self {
        Self::from_workers(iter)
    }
}

#[cfg(test)]
impl WorkerBitmap {
    /// A bitmap for a seeded test case: anything from empty to full, with
    /// the nearly-empty and nearly-full ends as likely as the middle.
    pub(crate) fn arbitrary(g: &mut hermes_metrics::SplitMix64) -> Self {
        let mut bits = g.next_u64();
        for _ in 0..g.index(8) {
            bits &= g.next_u64();
        }
        WorkerBitmap(if g.index(2) == 0 { bits } else { !bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn all_and_empty() {
        assert_eq!(WorkerBitmap::all(0), WorkerBitmap::EMPTY);
        assert_eq!(WorkerBitmap::all(3).0, 0b111);
        assert_eq!(WorkerBitmap::all(64).0, u64::MAX);
        assert!(WorkerBitmap::EMPTY.is_empty());
    }

    #[test]
    fn paper_example_11001() {
        // §5.3.2: "{1, 1, 0, 0, 1} indicates that workers with ID 1, 2, and 5
        // are selected", bitmap written 11001. With our 0-based bit-`i` ⇒
        // worker-`i` encoding that set is {0, 3, 4}.
        let bm = WorkerBitmap(0b11001);
        assert_eq!(bm.count(), 3);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(bm.nth_set_bit(1), Some(0));
        assert_eq!(bm.nth_set_bit(2), Some(3));
        assert_eq!(bm.nth_set_bit(3), Some(4));
        assert_eq!(bm.nth_set_bit(4), None);
    }

    #[test]
    fn insert_remove_contains() {
        let mut bm = WorkerBitmap::EMPTY;
        bm.insert(7);
        bm.insert(63);
        assert!(bm.contains(7) && bm.contains(63));
        assert!(!bm.contains(8));
        bm.remove(7);
        assert!(!bm.contains(7));
        bm.remove(99); // out-of-range removal is a no-op
        assert_eq!(bm.count(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds bitmap capacity")]
    fn insert_out_of_range_panics() {
        let mut bm = WorkerBitmap::EMPTY;
        bm.insert(64);
    }

    #[test]
    fn nth_set_bit_edges() {
        let bm = WorkerBitmap(1u64 << 63);
        assert_eq!(bm.nth_set_bit(1), Some(63));
        assert_eq!(bm.nth_set_bit(0), None);
        assert_eq!(WorkerBitmap(u64::MAX).nth_set_bit(64), Some(63));
        assert_eq!(WorkerBitmap(u64::MAX).nth_set_bit(1), Some(0));
        assert_eq!(WorkerBitmap::EMPTY.nth_set_bit(1), None);
    }

    #[test]
    fn from_workers_round_trips() {
        let ids = vec![0usize, 5, 13, 41, 63];
        let bm: WorkerBitmap = ids.iter().copied().collect();
        assert_eq!(bm.iter().collect::<Vec<_>>(), ids);
    }

    /// nth_set_bit agrees with a naive scan for all bitmaps and ranks.
    #[test]
    fn nth_set_bit_matches_naive() {
        for_each_case(256, |g| {
            let (bits, nth) = (WorkerBitmap::arbitrary(g).0, g.index(66) as u32);
            let bm = WorkerBitmap(bits);
            let naive = {
                let mut seen = 0;
                let mut ans = None;
                for i in 0..64 {
                    if (bits >> i) & 1 == 1 {
                        seen += 1;
                        if seen == nth {
                            ans = Some(i as usize);
                            break;
                        }
                    }
                }
                ans
            };
            assert_eq!(bm.nth_set_bit(nth), naive, "bits {bits:#x} nth {nth}");
        });
    }

    /// Round trip: from_workers(iter()) is the identity.
    #[test]
    fn iter_round_trip() {
        for_each_case(256, |g| {
            let bm = WorkerBitmap::arbitrary(g);
            let back: WorkerBitmap = bm.iter().collect();
            assert_eq!(back, bm);
        });
    }

    /// count matches iterator length.
    #[test]
    fn count_matches_iter() {
        for_each_case(256, |g| {
            let bm = WorkerBitmap::arbitrary(g);
            assert_eq!(bm.count() as usize, bm.iter().count(), "{bm:?}");
        });
    }
}
