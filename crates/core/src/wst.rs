//! The Worker Status Table (WST).
//!
//! §4.1 stage 1: an inter-process table in shared memory, one column per
//! worker, one row per metric. In this reproduction the table lives in an
//! ordinary allocation shared by `Arc` across threads — the lock-free
//! discipline (per-worker write partitioning, per-field atomic reads) is
//! identical to the multi-process shared-memory original; only the mapping
//! mechanism differs (see DESIGN.md substitutions).

use crate::status::{WorkerSnapshot, WorkerStatus};
use crate::WorkerId;

/// Worker Status Table: a fixed-size array of per-worker status slots.
///
/// The owner of slot `i` is worker `i`; only that worker writes the slot.
/// Any thread may read any slot at any time without coordination.
#[derive(Debug)]
pub struct Wst {
    slots: Box<[WorkerStatus]>,
}

impl Wst {
    /// Create a table for `workers` workers (1..=64 for the single-level
    /// scheduler; larger deployments compose tables via
    /// [`crate::group::GroupScheduler`]).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "WST needs at least one worker");
        assert!(
            workers <= crate::MAX_WORKERS_PER_GROUP,
            "single-level WST supports at most {} workers; use GroupScheduler",
            crate::MAX_WORKERS_PER_GROUP
        );
        let slots: Vec<WorkerStatus> = (0..workers).map(|_| WorkerStatus::new()).collect();
        Self {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of workers in the table.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Access worker `id`'s slot.
    ///
    /// # Panics
    /// Panics when `id` is out of range — an out-of-range worker id is a
    /// wiring bug, never a runtime condition.
    #[inline]
    pub fn worker(&self, id: WorkerId) -> &WorkerStatus {
        &self.slots[id]
    }

    /// Copy every slot into the front of a caller-provided 64-row scratch
    /// and return the filled prefix — no allocation on the scheduling path.
    /// Reads are lock-free; cross-worker and cross-field skew is possible
    /// and acceptable (§5.3.1).
    pub fn snapshot_into<'a>(
        &self,
        out: &'a mut [WorkerSnapshot; crate::MAX_WORKERS_PER_GROUP],
    ) -> &'a [WorkerSnapshot] {
        let rows = &mut out[..self.slots.len()];
        for (row, slot) in rows.iter_mut().zip(self.slots.iter()) {
            *row = slot.snapshot();
        }
        rows
    }

    /// Reset every slot (full LB restart).
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scratch() -> [WorkerSnapshot; crate::MAX_WORKERS_PER_GROUP] {
        [WorkerSnapshot::default(); crate::MAX_WORKERS_PER_GROUP]
    }

    #[test]
    fn construction_bounds() {
        assert_eq!(Wst::new(1).workers(), 1);
        assert_eq!(Wst::new(64).workers(), 64);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn rejects_more_than_64_workers() {
        Wst::new(65);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_workers() {
        Wst::new(0);
    }

    #[test]
    fn per_worker_partitioning() {
        let wst = Wst::new(3);
        wst.worker(0).conn_delta(5);
        wst.worker(2).add_pending(7);
        let mut rows = scratch();
        let snap = wst.snapshot_into(&mut rows);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].connections, 5);
        assert_eq!(snap[1].connections, 0);
        assert_eq!(snap[2].pending_events, 7);
    }

    #[test]
    fn snapshot_into_refills_the_prefix() {
        let wst = Wst::new(4);
        let mut rows = scratch();
        assert_eq!(wst.snapshot_into(&mut rows).len(), 4);
        wst.worker(1).conn_delta(1);
        let snap = wst.snapshot_into(&mut rows);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[1].connections, 1);
    }

    #[test]
    fn reset_clears_all_slots() {
        let wst = Wst::new(2);
        wst.worker(0).enter_loop(9);
        wst.worker(1).conn_delta(3);
        wst.reset();
        let mut rows = scratch();
        assert!(wst
            .snapshot_into(&mut rows)
            .iter()
            .all(|s| s.loop_enter_ns == 0 && s.pending_events == 0 && s.connections == 0));
    }

    #[test]
    fn concurrent_owners_do_not_interfere() {
        // Each worker thread hammers only its own slot; a scheduler thread
        // reads the whole table. Final per-slot values must equal each
        // owner's arithmetic, proving write partitioning.
        let wst = Arc::new(Wst::new(8));
        let mut handles = Vec::new();
        for w in 0..8 {
            let t = Arc::clone(&wst);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000i64 {
                    t.worker(w).conn_delta(1);
                    t.worker(w).add_pending(1);
                    if i % 2 == 0 {
                        t.worker(w).event_done();
                    }
                    t.worker(w).enter_loop((w as u64 + 1) * 1_000 + i as u64);
                }
            }));
        }
        let reader = {
            let t = Arc::clone(&wst);
            std::thread::spawn(move || {
                let mut rows = scratch();
                for _ in 0..2_000 {
                    assert_eq!(t.snapshot_into(&mut rows).len(), 8);
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        for w in 0..8 {
            let s = wst.worker(w).snapshot();
            assert_eq!(s.connections, 5_000);
            assert_eq!(s.pending_events, 2_500);
            assert_eq!(s.loop_enter_ns, (w as u64 + 1) * 1_000 + 4_999);
        }
    }
}
