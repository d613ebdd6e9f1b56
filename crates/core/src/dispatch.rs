//! Kernel-side connection dispatch (Algorithm 2), native reference
//! implementation.
//!
//! For each incoming SYN the reuseport group's attached program:
//!
//! 1. loads the userspace bitmap from the array map,
//! 2. counts available workers `n`; if `n <= 1` it returns *fallback* and
//!    the kernel keeps its default hash-based reuseport selection (this is
//!    the overload guard of §5.3.2's two-stage filtering),
//! 3. otherwise scales the precomputed 4-tuple hash into `1..=n` with
//!    `reciprocal_scale` and picks the Nth set bit — fine-grained filtering
//!    that spreads new connections *across* the coarse candidate set instead
//!    of hammering one worker.
//!
//! `hermes-ebpf` executes the same logic as verified bytecode;
//! [`ConnDispatcher::select`] is the semantics oracle it is tested against.

use crate::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use crate::hash::reciprocal_scale;
use crate::WorkerId;

/// Outcome of a dispatch decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// Hermes selected this worker from the userspace bitmap.
    Directed(WorkerId),
    /// Too few candidates — fall back to default reuseport hashing over all
    /// workers.
    Fallback(WorkerId),
}

impl DispatchOutcome {
    /// The chosen worker regardless of path.
    pub fn worker(&self) -> WorkerId {
        match *self {
            DispatchOutcome::Directed(w) | DispatchOutcome::Fallback(w) => w,
        }
    }

    /// True when the userspace bitmap directed the choice.
    pub fn is_directed(&self) -> bool {
        matches!(self, DispatchOutcome::Directed(_))
    }
}

/// The eBPF dispatch program's decision procedure, natively.
///
/// ```
/// use hermes_core::{ConnDispatcher, WorkerBitmap};
/// let d = ConnDispatcher::new(8);
/// let bm = WorkerBitmap::from_workers([2, 5]);
/// let out = d.dispatch(bm, 0xDEAD_BEEF);
/// assert!(out.is_directed());
/// assert!(bm.contains(out.worker()));
/// // A singleton candidate set trips the n>1 guard and falls back:
/// assert!(!d.dispatch(WorkerBitmap::from_workers([2]), 1).is_directed());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ConnDispatcher {
    /// Total workers in the reuseport group (fallback hashes over these).
    workers: usize,
    /// Candidate-count threshold: the bitmap is honoured only when
    /// `count > min_candidates` (Algorithm 2 line 4 uses `n > 1`).
    min_candidates: u32,
}

impl ConnDispatcher {
    /// Dispatcher for a reuseport group of `workers` sockets with the
    /// paper's `n > 1` guard.
    pub fn new(workers: usize) -> Self {
        Self::with_min_candidates(workers, 1)
    }

    /// Dispatcher with a custom candidate guard (ablations).
    pub fn with_min_candidates(workers: usize, min_candidates: u32) -> Self {
        assert!(
            (1..=MAX_WORKERS_PER_GROUP).contains(&workers),
            "1..=64 workers per group"
        );
        Self {
            workers,
            min_candidates,
        }
    }

    /// Number of workers in the group.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Full dispatch: Hermes selection with reuseport fallback.
    /// `hash` is the kernel-precomputed 4-tuple hash.
    pub fn dispatch(&self, bitmap: WorkerBitmap, hash: u32) -> DispatchOutcome {
        let out = match self.select(bitmap, hash) {
            Some(w) => DispatchOutcome::Directed(w),
            None => DispatchOutcome::Fallback(self.reuseport_select(hash)),
        };
        hermes_trace::trace_count!(if out.is_directed() {
            hermes_trace::CounterId::DirectedDispatches
        } else {
            hermes_trace::CounterId::FallbackDispatches
        });
        out
    }

    /// Algorithm 2 lines 2–7: Hermes selection only. `None` means the guard
    /// failed and the caller must fall back.
    pub fn select(&self, bitmap: WorkerBitmap, hash: u32) -> Option<WorkerId> {
        // Mask out ids beyond this group (defensive: userspace bugs must
        // not direct traffic at nonexistent sockets).
        let masked = WorkerBitmap(bitmap.0 & WorkerBitmap::all(self.workers).0);
        let n = masked.count();
        if n <= self.min_candidates {
            return None;
        }
        let nth = reciprocal_scale(hash, n) + 1; // 1..=n
        let id = masked
            .nth_set_bit(nth)
            .expect("nth in 1..=count must exist");
        Some(id)
    }

    /// The kernel's default reuseport selection: hash modulo the socket
    /// count (Linux uses `reciprocal_scale` over the group size).
    pub fn reuseport_select(&self, hash: u32) -> WorkerId {
        reciprocal_scale(hash, self.workers as u32) as WorkerId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn directs_within_bitmap() {
        let d = ConnDispatcher::new(8);
        let bm = WorkerBitmap::from_workers([1, 3, 6]);
        for h in 0..1_000u32 {
            let out = d.dispatch(bm, h.wrapping_mul(2654435761));
            assert!(out.is_directed());
            assert!(bm.contains(out.worker()));
        }
    }

    #[test]
    fn single_candidate_falls_back() {
        // §5.3.2: passing a single worker would funnel all new connections
        // to it, so the guard requires n > 1.
        let d = ConnDispatcher::new(8);
        let bm = WorkerBitmap::from_workers([5]);
        let out = d.dispatch(bm, 42);
        assert!(!out.is_directed());
        assert!(out.worker() < 8);
    }

    #[test]
    fn empty_bitmap_falls_back() {
        let d = ConnDispatcher::new(4);
        let out = d.dispatch(WorkerBitmap::EMPTY, 7);
        assert!(!out.is_directed());
    }

    #[test]
    fn out_of_group_bits_are_masked() {
        let d = ConnDispatcher::new(4);
        // Bits 10 and 20 point past the group; only 1 and 2 are real.
        let bm = WorkerBitmap::from_workers([1, 2, 10, 20]);
        for h in 0..200u32 {
            let out = d.dispatch(bm, h.wrapping_mul(0x9E3779B9));
            assert!(out.is_directed());
            assert!([1usize, 2].contains(&out.worker()));
        }
    }

    #[test]
    fn directed_selection_is_balanced() {
        // reciprocal_scale over a healthy bitmap should spread roughly
        // uniformly across candidates.
        let d = ConnDispatcher::new(16);
        let bm = WorkerBitmap::from_workers([0, 2, 4, 8, 15]);
        let mut counts = std::collections::HashMap::new();
        let n = 50_000u32;
        for i in 0..n {
            let h = crate::hash::jhash_3words(i, 77, 0, 3);
            *counts.entry(d.dispatch(bm, h).worker()).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 5);
        for (&w, &c) in &counts {
            let share = c as f64 / n as f64;
            assert!((share - 0.2).abs() < 0.02, "worker {w} share {share}");
        }
    }

    #[test]
    fn custom_guard_threshold() {
        let d = ConnDispatcher::with_min_candidates(8, 3);
        let three = WorkerBitmap::from_workers([0, 1, 2]);
        let four = WorkerBitmap::from_workers([0, 1, 2, 3]);
        assert!(d.select(three, 9).is_none());
        assert!(d.select(four, 9).is_some());
    }

    #[test]
    fn same_flow_hash_is_sticky() {
        // A given 4-tuple hash always lands on the same worker for a fixed
        // bitmap — dispatch is deterministic, there is no per-packet RNG.
        let d = ConnDispatcher::new(32);
        let bm = WorkerBitmap::all(32);
        assert_eq!(d.dispatch(bm, 12345), d.dispatch(bm, 12345));
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_oversized_group() {
        ConnDispatcher::new(65);
    }

    /// Whatever the bitmap and hash, dispatch returns a valid worker.
    #[test]
    fn dispatch_total_and_in_range() {
        for_each_case(256, |g| {
            let (bm, hash) = (WorkerBitmap::arbitrary(g), g.next_u64() as u32);
            let workers = 1 + g.index(64);
            let out = ConnDispatcher::new(workers).dispatch(bm, hash);
            assert!(out.worker() < workers, "{bm:?} hash {hash} of {workers}");
            if out.is_directed() {
                assert!(bm.contains(out.worker()), "{bm:?} hash {hash}");
            }
        });
    }

    /// With >1 candidates the directed path is always taken; with fewer,
    /// never.
    #[test]
    fn directed_iff_guard_passes() {
        let d = ConnDispatcher::new(64);
        let mut fallbacks = 0;
        for_each_case(256, |g| {
            let (bm, hash) = (WorkerBitmap::arbitrary(g), g.next_u64() as u32);
            let out = d.dispatch(bm, hash);
            assert_eq!(out.is_directed(), bm.count() > 1, "{bm:?} hash {hash}");
            fallbacks += u32::from(!out.is_directed());
        });
        assert!(fallbacks > 0, "no case had fewer than two candidates");
    }
}
