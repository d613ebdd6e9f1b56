//! Per-worker status cell of the Worker Status Table.
//!
//! §5.3.1: each worker owns one partition of the shared-memory WST and is
//! its only writer, so no write locks are needed; the scheduler reads all
//! partitions without read locks. Each of the three status variables is an
//! individually atomic word, so a reader never observes a torn *field* even
//! though a multi-field snapshot may mix generations — the paper argues (and
//! the evaluation confirms) that such cross-field staleness does not perturb
//! scheduling decisions.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// One worker's slot in the WST: the three scheduling metrics of §5.2.1.
///
/// Padded to its own cache line so one worker's updates never cause false
/// sharing with its neighbours' slots.
#[repr(align(128))]
#[derive(Debug)]
pub struct WorkerStatus {
    /// Timestamp (ns) at which the worker last entered its event loop
    /// (line 12 of Fig. 9). A stalled value ⇒ the worker is hung.
    loop_enter_ns: AtomicU64,
    /// Events returned by `epoll_wait` but not yet handled
    /// (`shm_busy_count` in Fig. 9). Signed: decrements race benignly with
    /// batched increments.
    pending_events: AtomicI64,
    /// Concurrent connections accumulated on this worker
    /// (`shm_conn_count` in Fig. 9).
    connections: AtomicI64,
}

impl Default for WorkerStatus {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerStatus {
    /// A fresh slot: never entered the loop, no pending events, no
    /// connections.
    pub fn new() -> Self {
        Self {
            loop_enter_ns: AtomicU64::new(0),
            pending_events: AtomicI64::new(0),
            connections: AtomicI64::new(0),
        }
    }

    /// `shm_avail_update(current_time)` — record event-loop entry.
    #[inline]
    pub fn enter_loop(&self, now_ns: u64) {
        self.loop_enter_ns.store(now_ns, Ordering::Release);
    }

    /// `shm_busy_count(event_num)` — add newly returned events to the
    /// pending total (Fig. 9 line 14).
    #[inline]
    pub fn add_pending(&self, n: i64) {
        self.pending_events.fetch_add(n, Ordering::Relaxed);
    }

    /// `shm_busy_count(-1)` — one event handled (Fig. 9 line 18).
    #[inline]
    pub fn event_done(&self) {
        self.pending_events.fetch_sub(1, Ordering::Relaxed);
    }

    /// `shm_conn_count(±1)` — connection established (+1, Fig. 9 line 25)
    /// or torn down (−1, line 37).
    #[inline]
    pub fn conn_delta(&self, delta: i64) {
        self.connections.fetch_add(delta, Ordering::Relaxed);
    }

    /// Loop-entry timestamp in nanoseconds.
    #[inline]
    pub fn loop_enter(&self) -> u64 {
        self.loop_enter_ns.load(Ordering::Acquire)
    }

    /// Pending (triggered but unhandled) event count, clamped at zero for
    /// consumers: transient negatives can appear between a decrement and the
    /// batched increment that logically preceded it.
    #[inline]
    pub fn pending(&self) -> i64 {
        self.pending_events.load(Ordering::Relaxed).max(0)
    }

    /// Accumulated connection count, clamped at zero.
    #[inline]
    pub fn connections(&self) -> i64 {
        self.connections.load(Ordering::Relaxed).max(0)
    }

    /// Read all three fields. Each field is individually consistent; the
    /// triple may span a concurrent update (§5.3.1 accepts this).
    pub fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            loop_enter_ns: self.loop_enter(),
            pending_events: self.pending(),
            connections: self.connections(),
        }
    }

    /// Reset to the just-constructed state (worker restart).
    pub fn reset(&self) {
        self.loop_enter_ns.store(0, Ordering::Release);
        self.pending_events.store(0, Ordering::Relaxed);
        self.connections.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one worker's metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Last event-loop entry (ns).
    pub loop_enter_ns: u64,
    /// Pending event count.
    pub pending_events: i64,
    /// Accumulated connection count.
    pub connections: i64,
}

impl WorkerSnapshot {
    /// Whether this worker counts as hung at `now_ns` given a hang
    /// threshold: its loop-entry timestamp has not advanced for at least
    /// the threshold (Algorithm 1, FilterTime). A worker that never
    /// entered the loop reads as entered-at-0 and trips the filter once
    /// the threshold elapses — exactly the paper's timestamp comparison,
    /// with no special cases.
    pub fn is_hung(&self, now_ns: u64, threshold_ns: u64) -> bool {
        now_ns.saturating_sub(self.loop_enter_ns) >= threshold_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_slot_is_zeroed() {
        let s = WorkerStatus::new();
        let snap = s.snapshot();
        assert_eq!(snap.loop_enter_ns, 0);
        assert_eq!(snap.pending_events, 0);
        assert_eq!(snap.connections, 0);
    }

    #[test]
    fn fig9_hook_sequence() {
        let s = WorkerStatus::new();
        s.enter_loop(1_000);
        s.add_pending(3); // epoll_wait returned 3 events
        s.event_done();
        s.event_done();
        s.conn_delta(1);
        let snap = s.snapshot();
        assert_eq!(snap.loop_enter_ns, 1_000);
        assert_eq!(snap.pending_events, 1);
        assert_eq!(snap.connections, 1);
    }

    #[test]
    fn pending_clamps_transient_negative() {
        let s = WorkerStatus::new();
        s.event_done(); // decrement races ahead of increment
        assert_eq!(s.pending(), 0);
        s.add_pending(1);
        assert_eq!(s.pending(), 0); // -1 + 1
    }

    #[test]
    fn hang_detection_thresholds() {
        let mut snap = WorkerSnapshot {
            loop_enter_ns: 0,
            pending_events: 0,
            connections: 0,
        };
        // Never entered: fine while young, hung once the threshold passes.
        assert!(!snap.is_hung(10, 100));
        assert!(snap.is_hung(100, 100));
        snap.loop_enter_ns = 1_000;
        assert!(!snap.is_hung(1_050, 100));
        assert!(snap.is_hung(1_100, 100)); // exactly at threshold counts as hung
        assert!(snap.is_hung(9_999, 100));
    }

    #[test]
    fn reset_restores_initial_state() {
        let s = WorkerStatus::new();
        s.enter_loop(5);
        s.add_pending(2);
        s.conn_delta(7);
        s.reset();
        assert_eq!(s.snapshot().loop_enter_ns, 0);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.connections(), 0);
    }

    #[test]
    fn slot_is_cache_line_padded() {
        assert!(std::mem::align_of::<WorkerStatus>() >= 128);
        assert!(std::mem::size_of::<WorkerStatus>() >= 128);
    }

    #[test]
    fn concurrent_updates_from_owner_and_reader() {
        // One writer thread (the owning worker) and one reader thread (a
        // scheduler) must never deadlock or tear individual fields.
        let s = Arc::new(WorkerStatus::new());
        let w = Arc::clone(&s);
        let writer = std::thread::spawn(move || {
            for t in 1..=10_000u64 {
                w.enter_loop(t);
                w.add_pending(2);
                w.event_done();
                w.event_done();
                w.conn_delta(1);
                w.conn_delta(-1);
            }
        });
        let r = Arc::clone(&s);
        let reader = std::thread::spawn(move || {
            for _ in 0..10_000 {
                let snap = r.snapshot();
                assert!(snap.loop_enter_ns <= 10_000);
                assert!(snap.pending_events >= 0);
                assert!(snap.connections >= 0);
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.connections(), 0);
    }
}
