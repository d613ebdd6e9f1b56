//! Each worker's scheduler passes trace on that worker's own lane.
//!
//! A flight-recorder ring has one producer. Workers that run
//! `schedule_and_sync` at the same time must not share a lane: two pushes
//! that read the same head write one slot, and a record is lost with no
//! drop counted. The file holds one test, so it owns the global recorder
//! and switches recording on.

use hermes_core::{SchedConfig, WorkerBitmap, WorkerSession, Wst};
use hermes_trace::{EventKind, CONTROL_LANE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PASSES: u64 = 200;

#[test]
fn concurrent_sessions_trace_their_passes_on_their_own_lanes() {
    hermes_trace::set_enabled(true);
    let wst = Arc::new(Wst::new(2));
    // Both sessions publish into one word, as into the kernel's map.
    let word = Arc::new(AtomicU64::new(0));
    let publish = Arc::new(move |bm: WorkerBitmap| word.store(bm.0, Ordering::Release));
    std::thread::scope(|s| {
        for id in 0..2 {
            let config = SchedConfig::default();
            let mut session =
                WorkerSession::new(Arc::clone(&wst), id, config, Arc::clone(&publish));
            s.spawn(move || {
                for i in 0..PASSES {
                    session.loop_top(1_000 + i);
                    session.schedule_and_sync(1_000 + i);
                }
            });
        }
    });
    let records = hermes_trace::drain();
    assert_eq!(hermes_trace::dropped_events(), 0);
    let count = |lane: u32, kind: EventKind| {
        records
            .iter()
            .filter(|r| r.worker == lane && r.kind == kind)
            .count() as u64
    };
    let stages = SchedConfig::default().stages.len() as u64;
    for lane in [0, 1] {
        assert_eq!(count(lane, EventKind::SchedDecision), PASSES, "lane {lane}");
        assert_eq!(
            count(lane, EventKind::SchedStage),
            stages * PASSES,
            "lane {lane}"
        );
        assert_eq!(count(lane, EventKind::BitmapPublish), PASSES, "lane {lane}");
    }
    for kind in [
        EventKind::SchedDecision,
        EventKind::SchedStage,
        EventKind::BitmapPublish,
    ] {
        assert_eq!(count(CONTROL_LANE, kind), 0, "{kind:?} on the control lane");
    }
}
