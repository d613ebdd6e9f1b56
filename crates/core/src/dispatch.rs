//! Kernel-side connection dispatch (Algorithm 2 in §7's two-level form),
//! native reference implementation.
//!
//! For each incoming SYN the reuseport group's attached program:
//!
//! 1. picks one of the `G` worker groups by `reciprocal_scale` over the
//!    precomputed 4-tuple hash (level 1, §7; `G == 1` is the flat plane,
//!    where level 1 always picks group 0),
//! 2. loads that group's userspace bitmap from the array map,
//! 3. counts available workers `n`; if `n <= 1` it returns *fallback* and
//!    the kernel keeps its default hash-based reuseport selection within
//!    the group (this is the overload guard of §5.3.2's two-stage
//!    filtering),
//! 4. otherwise scales the bits level 1 did not use ([`level2_hash`]) into
//!    `1..=n` with `reciprocal_scale` and picks the Nth set bit —
//!    fine-grained filtering that spreads new connections *across* the
//!    coarse candidate set instead of hammering one worker.
//!
//! `hermes-ebpf` executes the same logic as verified bytecode;
//! [`ConnDispatcher::dispatch`] is the semantics oracle it is tested
//! against at every group count.

use crate::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use crate::hash::{level2_hash, reciprocal_scale};
use crate::WorkerId;

/// Outcome of a dispatch decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// Hermes selected this worker from the userspace bitmap.
    Directed(WorkerId),
    /// Too few candidates — fall back to default reuseport hashing over the
    /// group's sockets.
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

/// The eBPF dispatch program's decision procedure, natively, at any group
/// count: one decision per connection, as the reuseport hook runs it.
///
/// A pure decision procedure over the bitmaps each call is given: it holds
/// no map and touches no flight-recorder counter.
///
/// ```
/// use hermes_core::{ConnDispatcher, WorkerBitmap};
/// let d = ConnDispatcher::new(8);
/// let bm = WorkerBitmap::from_workers([2, 5]);
/// let out = d.dispatch(&[bm], 0xDEAD_BEEF);
/// assert!(out.is_directed());
/// assert!(bm.contains(out.worker()));
/// // A singleton candidate set trips the n>1 guard and falls back:
/// assert!(!d.dispatch(&[WorkerBitmap::from_workers([2])], 1).is_directed());
/// // Two groups of 8: the worker id is global, `group * 8 + local`.
/// assert!(d.dispatch(&[bm, bm], 0xDEAD_BEEF).worker() < 16);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ConnDispatcher {
    /// Sockets per group: group `g` holds the global ids
    /// `g·size .. (g+1)·size`, and a fallback hashes over its `size`.
    size: usize,
}

impl ConnDispatcher {
    /// Dispatcher over groups of `size` workers each, with Algorithm 2's
    /// `n > 1` guard.
    pub fn new(size: usize) -> Self {
        assert!(
            (1..=MAX_WORKERS_PER_GROUP).contains(&size),
            "1..=64 workers per group"
        );
        Self { size }
    }

    /// Full dispatch over `bitmaps`, one per group (at least one:
    /// `reciprocal_scale` panics on an empty range): level 1 picks the
    /// group, then Hermes selection within it with the reuseport fallback.
    /// `hash` is the kernel-precomputed 4-tuple hash.
    pub fn dispatch(&self, bitmaps: &[WorkerBitmap], hash: u32) -> DispatchOutcome {
        let groups = bitmaps.len();
        let group = reciprocal_scale(hash, groups as u32) as usize;
        let hash = level2_hash(hash, groups);
        let base = group * self.size;
        // Mask out ids beyond the group (defensive: userspace bugs must
        // not direct traffic at nonexistent sockets).
        let masked = WorkerBitmap(bitmaps[group].0 & WorkerBitmap::all(self.size).0);
        let n = masked.count();
        if n <= 1 {
            // Reuseport hashing over the group's sockets: the kernel's own
            // at one group, the program's in-group pick at more.
            let local = reciprocal_scale(hash, self.size as u32) as WorkerId;
            return DispatchOutcome::Fallback(base + local);
        }
        let nth = reciprocal_scale(hash, n) + 1; // 1..=n
        let id = masked
            .nth_set_bit(nth)
            .expect("nth in 1..=count must exist");
        DispatchOutcome::Directed(base + id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{SchedConfig, Scheduler};
    use crate::wst::Wst;
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn directs_within_bitmap() {
        let d = ConnDispatcher::new(8);
        let bm = WorkerBitmap::from_workers([1, 3, 6]);
        for h in 0..1_000u32 {
            let out = d.dispatch(&[bm], h.wrapping_mul(2654435761));
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
        let out = d.dispatch(&[bm], 42);
        assert!(!out.is_directed());
        assert!(out.worker() < 8);
    }

    #[test]
    fn empty_bitmap_falls_back() {
        let d = ConnDispatcher::new(4);
        let out = d.dispatch(&[WorkerBitmap::EMPTY], 7);
        assert!(!out.is_directed());
    }

    #[test]
    fn out_of_group_bits_are_masked() {
        let d = ConnDispatcher::new(4);
        // Bits 10 and 20 point past the group; only 1 and 2 are real.
        let bm = WorkerBitmap::from_workers([1, 2, 10, 20]);
        for h in 0..200u32 {
            let out = d.dispatch(&[bm], h.wrapping_mul(0x9E3779B9));
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
            *counts.entry(d.dispatch(&[bm], h).worker()).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 5);
        for (&w, &c) in &counts {
            let share = c as f64 / n as f64;
            assert!((share - 0.2).abs() < 0.02, "worker {w} share {share}");
        }
    }

    #[test]
    fn same_flow_hash_is_sticky() {
        // A given 4-tuple hash always lands on the same worker for a fixed
        // bitmap — dispatch is deterministic, there is no per-packet RNG.
        let d = ConnDispatcher::new(32);
        let bm = WorkerBitmap::all(32);
        assert_eq!(d.dispatch(&[bm], 12345), d.dispatch(&[bm], 12345));
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
            let out = ConnDispatcher::new(workers).dispatch(&[bm], hash);
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
            let out = d.dispatch(&[bm], hash);
            assert_eq!(out.is_directed(), bm.count() > 1, "{bm:?} hash {hash}");
            fallbacks += u32::from(!out.is_directed());
        });
        assert!(fallbacks > 0, "no case had fewer than two candidates");
    }

    #[test]
    fn grouped_dispatcher_places_through_the_schedulers_bitmaps() {
        // Four groups of four, each with its own WST and scheduler; worker 1
        // of every group is overloaded.
        let d = ConnDispatcher::new(4);
        let sched = Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            ..SchedConfig::default()
        });
        let bitmaps: Vec<WorkerBitmap> = (0..4)
            .map(|_| {
                let wst = Wst::new(4);
                for w in 0..4 {
                    wst.worker(w).enter_loop(1_000);
                }
                wst.worker(1).conn_delta(1_000);
                sched.schedule(&wst, 1_010).bitmap
            })
            .collect();
        for h in (0..512u32).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            let out = d.dispatch(&bitmaps, h);
            let group = out.worker() / 4;
            assert_eq!(group, reciprocal_scale(h, 4) as usize);
            assert!(out.is_directed());
            assert_ne!(out.worker() % 4, 1, "overloaded worker selected");
        }
    }

    #[test]
    fn grouped_dispatcher_falls_back_per_group() {
        // Only group 0 has candidates; group 1's bitmap stays empty.
        let bitmaps = [WorkerBitmap::all(4), WorkerBitmap::EMPTY];
        let d = ConnDispatcher::new(4);
        for h in (0..256u32).map(|i| i.wrapping_mul(0x517C_C1B7)) {
            let out = d.dispatch(&bitmaps, h);
            let group = out.worker() / 4;
            assert_eq!(group, reciprocal_scale(h, 2) as usize);
            assert_eq!(out.is_directed(), group == 0, "empty bitmap must fall back");
        }
    }

    #[test]
    fn one_worker_groups_are_pure_reuseport() {
        // Every group has a single candidate, so the n > 1 guard always
        // fails and placement is level-1 hashing alone.
        let d = ConnDispatcher::new(1);
        for h in (0..256u32).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            let out = d.dispatch(&[WorkerBitmap::all(1); 8], h);
            assert!(!out.is_directed());
            assert_eq!(out.worker(), reciprocal_scale(h, 8) as usize);
        }
    }
}
