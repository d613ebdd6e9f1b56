//! The embeddable worker SDK (§4.2).
//!
//! "Considering epoll's wide adoption, these modifications can also be
//! incorporated into event frameworks such as libevent and exposed to
//! third-party applications through an SDK." This module is that SDK: a
//! [`WorkerSession`] wraps one worker's slice of the Hermes machinery and
//! exposes exactly the hook points of Fig. 9, so an application's event
//! loop adds Hermes with five calls:
//!
//! ```text
//! loop {
//!     session.loop_top(now);                 // shm_avail_update
//!     let events = epoll_wait(...);
//!     session.events_fetched(events.len());  // shm_busy_count(+n)
//!     for e in events {
//!         match e {
//!             Accept  => { accept(); session.conn_opened(); }
//!             Close   => { close();  session.conn_closed(); }
//!             _       => handle(e),
//!         }
//!         session.event_handled();           // shm_busy_count(-1)
//!     }
//!     session.schedule_and_sync(now);        // Algorithm 1 + map update
//! }
//! ```
//!
//! The sync target is pluggable ([`SyncTarget`]) so the same session works
//! against the native [`SelMap`] cell, the eBPF-backed map, or anything
//! else that accepts a bitmap.

use crate::bitmap::WorkerBitmap;
use crate::sched::{SchedConfig, SchedDecision, Scheduler};
use crate::selmap::SelMap;
use crate::wst::Wst;
use crate::WorkerId;
use std::sync::Arc;

/// Where scheduling decisions are published.
pub trait SyncTarget: Send + Sync {
    /// Publish a bitmap (the `BPF_MAP_UPDATE` of Algorithm 1).
    fn sync(&self, bitmap: WorkerBitmap);
}

impl SyncTarget for SelMap {
    fn sync(&self, bitmap: WorkerBitmap) {
        // Steady-state schedulers recompute the same bitmap every loop;
        // publishing it again would be a pure cache-line ping. The elision
        // is counted separately so Fig. 14's sync frequency stays honest.
        self.store_if_changed(bitmap);
    }
}

impl<F: Fn(WorkerBitmap) + Send + Sync> SyncTarget for F {
    fn sync(&self, bitmap: WorkerBitmap) {
        self(bitmap);
    }
}

/// One worker's handle onto the shared Hermes state: the five Fig. 9
/// hooks plus `schedule_and_sync`.
pub struct WorkerSession<T: SyncTarget> {
    wst: Arc<Wst>,
    id: WorkerId,
    scheduler: Scheduler,
    target: Arc<T>,
    sched_calls: u64,
    /// Timestamp of the most recent schedule call, so a split
    /// [`sync_only`](Self::sync_only) can stamp its publish event with the
    /// loop iteration's time rather than 0.
    last_now_ns: u64,
    /// Flight-recorder lane for this session's publish events. Defaults to
    /// the worker id; grouped deployments override it with the flattened
    /// global id so lanes stay unique across groups.
    trace_lane: u32,
}

impl<T: SyncTarget> WorkerSession<T> {
    /// Create a session for worker `id` over the shared table, publishing
    /// to `target`.
    pub fn new(wst: Arc<Wst>, id: WorkerId, config: SchedConfig, target: Arc<T>) -> Self {
        assert!(id < wst.workers(), "worker id out of range");
        Self {
            wst,
            id,
            scheduler: Scheduler::new(config),
            target,
            sched_calls: 0,
            last_now_ns: 0,
            trace_lane: id as u32,
        }
    }

    /// Override the flight-recorder lane for this session's publish events
    /// (grouped deployments: `hermes_trace::grouped_lane(group, size, id)`).
    pub fn with_trace_lane(mut self, lane: u32) -> Self {
        self.trace_lane = lane;
        self
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The shared table (e.g. for spawning sibling sessions).
    pub fn wst(&self) -> &Arc<Wst> {
        &self.wst
    }

    /// Fig. 9 line 12: record event-loop entry.
    #[inline]
    pub fn loop_top(&self, now_ns: u64) {
        self.wst.worker(self.id).enter_loop(now_ns);
    }

    /// Fig. 9 line 14: `epoll_wait` returned `n` events.
    #[inline]
    pub fn events_fetched(&self, n: usize) {
        self.wst.worker(self.id).add_pending(n as i64);
    }

    /// Fig. 9 line 18: one event handled.
    #[inline]
    pub fn event_handled(&self) {
        self.wst.worker(self.id).event_done();
    }

    /// Fig. 9 line 25: connection accepted.
    #[inline]
    pub fn conn_opened(&self) {
        self.wst.worker(self.id).conn_delta(1);
    }

    /// Fig. 9 line 37: connection closed.
    #[inline]
    pub fn conn_closed(&self) {
        self.wst.worker(self.id).conn_delta(-1);
    }

    /// Fig. 9 line 20: run Algorithm 1 over the whole table and publish
    /// the bitmap. Returns the decision for the caller's own telemetry.
    pub fn schedule_and_sync(&mut self, now_ns: u64) -> SchedDecision {
        let decision = self.scheduler.schedule(&self.wst, now_ns);
        self.last_now_ns = now_ns;
        self.target.sync(decision.bitmap);
        self.publish_trace(now_ns, decision.bitmap);
        self.sched_calls += 1;
        decision
    }

    /// Scheduler invocations so far (Fig. 14 observable).
    pub fn sched_calls(&self) -> u64 {
        self.sched_calls
    }

    /// The scheduling half of [`schedule_and_sync`](Self::schedule_and_sync)
    /// alone — for callers that instrument the scheduler and the map sync
    /// separately (Table 5's "Scheduler" vs "System call" columns).
    pub fn schedule_only(&mut self, now_ns: u64) -> SchedDecision {
        self.last_now_ns = now_ns;
        self.scheduler.schedule(&self.wst, now_ns)
    }

    /// The publish half: push a previously computed bitmap.
    pub fn sync_only(&mut self, bitmap: WorkerBitmap) {
        self.target.sync(bitmap);
        self.publish_trace(self.last_now_ns, bitmap);
        self.sched_calls += 1;
    }

    /// Flight-recorder hook for a bitmap publish: records the bitmap next
    /// to the number of passes this session had published before it
    /// (monotone per lane), so a trace can answer "how many passes behind
    /// was the kernel's view". Compiles out without the `trace` feature.
    fn publish_trace(&self, now_ns: u64, bitmap: WorkerBitmap) {
        hermes_trace::trace_event!(
            now_ns,
            hermes_trace::EventKind::BitmapPublish,
            self.trace_lane,
            bitmap.0,
            self.sched_calls
        );
        hermes_trace::trace_count!(hermes_trace::CounterId::BitmapPublishes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hooks_drive_the_shared_table() {
        let wst = Arc::new(Wst::new(2));
        let sel = Arc::new(SelMap::new());
        let s = WorkerSession::new(Arc::clone(&wst), 0, SchedConfig::default(), sel);
        s.loop_top(1_000);
        s.events_fetched(3);
        s.event_handled();
        s.conn_opened();
        let snap = wst.worker(0).snapshot();
        assert_eq!(snap.loop_enter_ns, 1_000);
        assert_eq!(snap.pending_events, 2);
        assert_eq!(snap.connections, 1);
        s.conn_closed();
        assert_eq!(wst.worker(0).snapshot().connections, 0);
    }

    #[test]
    fn schedule_and_sync_publishes_to_target() {
        let wst = Arc::new(Wst::new(3));
        for w in 0..3 {
            wst.worker(w).enter_loop(1_000_000);
        }
        wst.worker(2).conn_delta(100);
        let sel = Arc::new(SelMap::new());
        let mut s = WorkerSession::new(
            Arc::clone(&wst),
            0,
            SchedConfig::default(),
            Arc::clone(&sel),
        );
        let d = s.schedule_and_sync(1_100_000);
        assert_eq!(sel.load(), d.bitmap);
        assert!(!sel.load().contains(2));
        assert_eq!(s.sched_calls(), 1);
    }

    #[test]
    fn closure_sync_target() {
        let syncs = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&syncs);
        let target = Arc::new(move |_bm: WorkerBitmap| {
            h2.fetch_add(1, Ordering::Relaxed);
        });
        let wst = Arc::new(Wst::new(1));
        wst.worker(0).enter_loop(1);
        let mut s = WorkerSession::new(wst, 0, SchedConfig::default(), target);
        s.schedule_and_sync(100);
        s.schedule_and_sync(200);
        assert_eq!(syncs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn sibling_sessions_share_one_table() {
        let wst = Arc::new(Wst::new(4));
        let sel = Arc::new(SelMap::new());
        let sessions: Vec<_> = (0..4)
            .map(|w| {
                WorkerSession::new(
                    Arc::clone(&wst),
                    w,
                    SchedConfig::default(),
                    Arc::clone(&sel),
                )
            })
            .collect();
        for s in &sessions {
            s.loop_top(1_000_000);
            s.conn_opened();
        }
        // Any session's scheduler sees everyone's status.
        let mut s0 = sessions.into_iter().next().unwrap();
        let d = s0.schedule_and_sync(1_000_500);
        assert_eq!(d.bitmap, WorkerBitmap::all(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_worker() {
        let wst = Arc::new(Wst::new(2));
        let sel = Arc::new(SelMap::new());
        WorkerSession::new(wst, 2, SchedConfig::default(), sel);
    }
}
