//! Two-level worker-group dispatch.
//!
//! §7 ("Will the 64-bit atomic limit Hermes on 128-core servers?"): past 64
//! workers a deployment splits into equal groups of at most 64
//! ([`worker_groups`]). A new connection first picks a group by hashing
//! (level 1), then Algorithm 2 picks a worker within the group from that
//! group's own bitmap (level 2). Each group has its own WST and bitmap,
//! written only by its own workers' schedulers.
//!
//! One group is the flat plane: [`GroupedConnDispatcher`] over one bitmap
//! decides exactly as [`ConnDispatcher`] over it, because
//! `reciprocal_scale(h, 1) == 0` and `level2_hash(h, 1) == h`. Appendix C's
//! cache-locality variant keys level 1 on the destination IP and port
//! instead; `examples/cache_locality.rs` builds it from these parts.

use crate::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use crate::dispatch::{ConnDispatcher, DispatchOutcome};
use crate::hash::{level2_hash, reciprocal_scale};
use crate::WorkerId;

/// §7's rule for a deployment of `workers` workers, as `(groups, size)`:
/// ⌈workers/64⌉ groups of equal size, at most 64 of them — one group, the
/// flat plane, up to 64 workers. `InvalidInput` for no workers, for a count
/// that does not split evenly (65, 130) and beyond 64 groups (4 097).
pub fn worker_groups(workers: usize) -> std::io::Result<(usize, usize)> {
    let groups = workers.div_ceil(MAX_WORKERS_PER_GROUP);
    if !(1..=MAX_WORKERS_PER_GROUP).contains(&groups) || !workers.is_multiple_of(groups) {
        let why = format!("{workers} workers: ⌈n/64⌉ equal groups, at most 64 of them");
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
    }
    Ok((groups, workers / groups))
}

/// Where one new connection went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Flattened global worker id (`group * group_size + local`).
    pub worker: WorkerId,
    /// Level-1 group the flow hashed into (0 in a one-group deployment).
    pub group: usize,
    /// Whether the userspace bitmap directed the choice (false ⇒ reuseport
    /// hash fallback within the group).
    pub directed: bool,
}

impl From<Placement> for DispatchOutcome {
    /// The placement as one socket group's outcome: the global worker, by
    /// the path that chose it.
    fn from(p: Placement) -> DispatchOutcome {
        if p.directed {
            DispatchOutcome::Directed(p.worker)
        } else {
            DispatchOutcome::Fallback(p.worker)
        }
    }
}

/// Kernel-side two-level dispatch over per-group bitmaps — the native
/// counterpart of the eBPF program at any group count, and with one group
/// the counterpart of the flat one.
///
/// A new connection picks its group by `reciprocal_scale` over the flow
/// hash (level 1), then runs Algorithm 2 against that group's bitmap on the
/// bits level 1 did not use ([`level2_hash`], level 2): one decision per
/// connection, as the reuseport hook runs it.
///
/// A pure decision procedure over the bitmaps each call is given: it holds
/// no map and touches no flight-recorder counter (the simulator, its one
/// caller outside tests, tallies each placed SYN once).
#[derive(Debug)]
pub struct GroupedConnDispatcher {
    /// Algorithm 2 over one group; every group has its width.
    group: ConnDispatcher,
}

impl GroupedConnDispatcher {
    /// Dispatcher over groups of `size` workers each: group `g` holds the
    /// global ids `g·size .. (g+1)·size`.
    pub fn new(size: usize) -> Self {
        Self {
            group: ConnDispatcher::new(size),
        }
    }

    /// Full two-level dispatch for one connection over `bitmaps`, one per
    /// group (at least one: `reciprocal_scale` panics on an empty range).
    pub fn dispatch(&self, bitmaps: &[WorkerBitmap], hash: u32) -> Placement {
        let groups = bitmaps.len();
        let group = reciprocal_scale(hash, groups as u32) as usize;
        let out = self
            .group
            .dispatch(bitmaps[group], level2_hash(hash, groups));
        Placement {
            worker: group * self.group.workers() + out.worker(),
            group,
            directed: out.is_directed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{SchedConfig, Scheduler};
    use crate::wst::Wst;

    #[test]
    fn worker_groups_splits_into_at_most_64_equal_groups() {
        for (workers, shape) in [(1, (1, 1)), (64, (1, 64)), (96, (2, 48)), (128, (2, 64))] {
            assert_eq!(worker_groups(workers).unwrap(), shape, "{workers}");
        }
        assert_eq!(worker_groups(4_096).unwrap(), (64, 64));
        for workers in [0, 65, 130, 4_097] {
            let err = worker_groups(workers).expect_err("no such split");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{workers}");
        }
    }

    /// One group is the flat plane: the same decision as [`ConnDispatcher`]
    /// on every bitmap and hash.
    #[test]
    fn one_group_decides_as_the_flat_dispatcher() {
        hermes_metrics::rng::for_each_case(256, |g| {
            let (bm, hash) = (WorkerBitmap::arbitrary(g), g.next_u64() as u32);
            let workers = 1 + g.index(64);
            let flat = ConnDispatcher::new(workers).dispatch(bm, hash);
            let grouped = GroupedConnDispatcher::new(workers).dispatch(&[bm], hash);
            assert_eq!(grouped.group, 0);
            assert_eq!(DispatchOutcome::from(grouped), flat, "{bm:?} hash {hash}");
        });
    }

    #[test]
    fn grouped_dispatcher_places_through_the_schedulers_bitmaps() {
        // Four groups of four, each with its own WST and scheduler; worker 1
        // of every group is overloaded.
        let d = GroupedConnDispatcher::new(4);
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
            let got = d.dispatch(&bitmaps, h);
            assert_eq!(got.group, reciprocal_scale(h, 4) as usize);
            assert!(got.directed);
            assert_ne!(got.worker - got.group * 4, 1, "overloaded worker selected");
        }
    }

    #[test]
    fn grouped_dispatcher_falls_back_per_group() {
        // Only group 0 has candidates; group 1's bitmap stays empty.
        let bitmaps = [WorkerBitmap::all(4), WorkerBitmap::EMPTY];
        let d = GroupedConnDispatcher::new(4);
        for h in (0..256u32).map(|i| i.wrapping_mul(0x517C_C1B7)) {
            let out = d.dispatch(&bitmaps, h);
            assert_eq!(out.directed, out.group == 0, "empty bitmap must fall back");
            assert!(out.worker - out.group * 4 < 4);
        }
    }

    #[test]
    fn one_worker_groups_are_pure_reuseport() {
        // Every group has a single candidate, so the n > 1 guard always
        // fails and placement is level-1 hashing alone.
        let d = GroupedConnDispatcher::new(1);
        for h in (0..256u32).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            let out = d.dispatch(&[WorkerBitmap::all(1); 8], h);
            assert!(!out.directed);
            assert_eq!(out.worker, reciprocal_scale(h, 8) as usize);
        }
    }
}
