//! The global flight recorder: one ring per lane.
//!
//! Lanes 0..=63 belong to workers (one producer each — the worker thread).
//! Lane [`KERNEL_LANE`] carries the acceptor/dispatch path and lane
//! [`CONTROL_LANE`] carries scheduler/driver events. Events whose lane id
//! exceeds the table are clamped into the control lane rather than dropped,
//! so a misconfigured worker id can never index out of bounds.
//!
//! The control lane is the one lane with many producers (the backend pool,
//! pacers, and every worker or device past the table), so its pushes take
//! a lock; every other lane's push stays lock-free.

use std::sync::{OnceLock, PoisonError};

use crate::record::{EventKind, TraceRecord};
use crate::ring::{TraceRing, DEFAULT_RING_CAPACITY};
use crate::sync::Mutex;

/// Worker lanes 0..MAX_WORKER_LANES map 1:1 to Hermes worker ids.
pub const MAX_WORKER_LANES: usize = 64;
/// Lane for the kernel-side path: accept bursts, dispatch decisions.
pub const KERNEL_LANE: u32 = 64;
/// Lane for control-plane events: scheduler passes, pacer misses.
pub const CONTROL_LANE: u32 = 65;
/// Total lane count.
pub const LANES: usize = MAX_WORKER_LANES + 2;

/// A multi-lane flight recorder.
pub struct Tracer {
    lanes: Vec<TraceRing>,
    /// Held around each push onto [`CONTROL_LANE`]: a ring has one
    /// producer, and two pushes that read one head would write one slot
    /// and count no drop.
    control: Mutex<()>,
}

impl Tracer {
    /// Recorder with `DEFAULT_RING_CAPACITY` records per lane.
    pub fn new() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Recorder with an explicit per-lane capacity (power of two).
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self {
            lanes: (0..LANES)
                .map(|_| TraceRing::with_capacity(capacity))
                .collect(),
            control: Mutex::new(()),
        }
    }

    /// Record one event on `lane` (clamped into the lane table).
    #[inline]
    pub fn emit(&self, ts: u64, kind: EventKind, lane: u32, a: u64, b: u64) {
        let idx = (lane as usize).min(LANES - 1);
        let record = TraceRecord {
            ts,
            kind,
            worker: lane,
            a,
            b,
        };
        let _one_producer = (idx == CONTROL_LANE as usize)
            .then(|| self.control.lock().unwrap_or_else(PoisonError::into_inner));
        self.lanes[idx].push(record);
    }

    /// Total events dropped across all lanes because a ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.lanes.iter().map(TraceRing::dropped).sum()
    }

    /// Drain every lane and return the records sorted by timestamp (stable,
    /// so per-lane order is preserved among equal timestamps, and lanes tie-
    /// break in lane order — deterministic for sim-time traces).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            lane.drain_into(&mut out);
        }
        out.sort_by(|x, y| x.ts.cmp(&y.ts).then(x.worker.cmp(&y.worker)));
        out
    }

    /// Discard buffered records and drop accounting. Used between
    /// comparison runs.
    pub fn reset(&self) {
        for lane in &self.lanes {
            lane.clear();
        }
    }

    /// Direct access to one lane's ring (benchmarks).
    pub fn lane(&self, lane: u32) -> &TraceRing {
        &self.lanes[(lane as usize).min(LANES - 1)]
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("lanes", &self.lanes.len())
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

/// Map a grouped worker onto a flight-recorder lane: `group * group_size +
/// local`, the flattened global worker id. Deployments wider than
/// [`MAX_WORKER_LANES`] workers (e.g. 256 workers in 4 groups) overflow the
/// lane table; overflowing workers share [`CONTROL_LANE`], whose pushes
/// take a lock.
#[inline]
pub fn grouped_lane(group: usize, group_size: usize, local: usize) -> u32 {
    let global = group * group_size + local;
    if global < MAX_WORKER_LANES {
        global as u32
    } else {
        CONTROL_LANE
    }
}

/// Map a fleet device onto a stable flight-recorder lane derived from the
/// *device index*, never the OS thread that happens to run the device. Under
/// the cluster work pool, devices migrate across pool threads between runs;
/// keying lanes by thread id would shuffle every device's events across
/// lanes from run to run (and alias devices sharing a thread). Keying by
/// device index keeps the trace layout deterministic at any thread count.
/// Fleets wider than [`MAX_WORKER_LANES`] devices clamp to [`CONTROL_LANE`],
/// the same overflow policy as [`grouped_lane`].
#[inline]
pub fn device_lane(device: usize) -> u32 {
    if device < MAX_WORKER_LANES {
        device as u32
    } else {
        CONTROL_LANE
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide recorder, its rings created on first use.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new)
}

/// The process-wide recorder if anything has created it yet.
pub(crate) fn global_if_created() -> Option<&'static Tracer> {
    GLOBAL.get()
}

#[cfg(test)]
mod models {
    use super::*;
    use crate::check::{explore, PREEMPTIONS};

    /// Two workers past the lane table emit onto [`CONTROL_LANE`] while a
    /// reader drains it, over rings of two records, under every schedule
    /// of up to [`PREEMPTIONS`] preemptions (`crate::check`). The lock
    /// keeps the lane's one producer one at a time: every record emitted
    /// is drained or counted as dropped. Without it, two pushes that read
    /// one head write one slot, and the record under the other is lost.
    #[test]
    fn control_lane_producers_lose_no_record_in_any_schedule() {
        fn emit(t: &Tracer, local: usize) -> Vec<TraceRecord> {
            for i in 0..2 {
                let a = (local * 10 + i) as u64;
                t.emit(
                    a,
                    EventKind::SchedDecision,
                    grouped_lane(1, 64, local),
                    a,
                    0,
                );
            }
            Vec::new()
        }
        const EMITTED: [u64; 4] = [0, 1, 10, 11];
        let schedules = explore(
            PREEMPTIONS,
            || Tracer::with_ring_capacity(2),
            &[
                |t| emit(t, 0),
                |t| emit(t, 1),
                |t| {
                    let mut got = Vec::new();
                    t.lane(CONTROL_LANE).drain_into(&mut got);
                    got
                },
            ],
            |t, results| {
                let mut got = results.concat();
                t.lane(CONTROL_LANE).drain_into(&mut got);
                let (drained, dropped) = (got.len() as u64, t.dropped_events());
                let lost: Vec<u64> = EMITTED
                    .into_iter()
                    .filter(|a| !got.iter().any(|r| r.a == *a))
                    .collect();
                assert_eq!(
                    drained + dropped,
                    EMITTED.len() as u64,
                    "{drained} drained + {dropped} dropped of {} emitted; not drained: {lost:?}",
                    EMITTED.len()
                );
            },
        );
        assert!(schedules >= 1084, "{schedules} schedules explored");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_clamp_instead_of_panicking() {
        let t = Tracer::with_ring_capacity(8);
        t.emit(1, EventKind::SimDispatch, 9999, 0, 0);
        let recs = t.drain();
        assert_eq!(recs.len(), 1);
        // The original lane id is preserved in the record even when clamped.
        assert_eq!(recs[0].worker, 9999);
    }

    #[test]
    fn device_lane_is_stable_across_threads() {
        // The lane must be a pure function of the device index: two
        // different OS threads asking for the same device get the same
        // lane, and distinct in-range devices never alias.
        let main_lanes: Vec<u32> = (0..MAX_WORKER_LANES).map(device_lane).collect();
        let other_lanes =
            std::thread::spawn(|| (0..MAX_WORKER_LANES).map(device_lane).collect::<Vec<u32>>())
                .join()
                .unwrap();
        assert_eq!(main_lanes, other_lanes);
        for (d, &lane) in main_lanes.iter().enumerate() {
            assert_eq!(lane, d as u32);
        }
        let mut sorted = main_lanes.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), MAX_WORKER_LANES, "in-range lanes alias");
    }

    #[test]
    fn device_lane_overflow_clamps_to_control() {
        assert_eq!(device_lane(MAX_WORKER_LANES), CONTROL_LANE);
        assert_eq!(device_lane(362), CONTROL_LANE);
        assert_eq!(device_lane(usize::MAX), CONTROL_LANE);
    }

    #[test]
    fn drain_sorts_by_timestamp_then_lane() {
        let t = Tracer::with_ring_capacity(8);
        t.emit(30, EventKind::SimWake, 2, 0, 0);
        t.emit(10, EventKind::SimSyn, KERNEL_LANE, 0, 0);
        t.emit(20, EventKind::SimWake, 1, 0, 0);
        t.emit(10, EventKind::SchedDecision, CONTROL_LANE, 0, 0);
        let recs = t.drain();
        let got: Vec<(u64, u32)> = recs.iter().map(|r| (r.ts, r.worker)).collect();
        assert_eq!(
            got,
            vec![(10, KERNEL_LANE), (10, CONTROL_LANE), (20, 1), (30, 2)]
        );
    }

    #[test]
    fn reset_clears_records_and_drops() {
        let t = Tracer::with_ring_capacity(2);
        for i in 0..5 {
            t.emit(i, EventKind::SimDispatch, 0, 0, 0);
        }
        assert!(t.dropped_events() > 0);
        t.reset();
        assert_eq!(t.dropped_events(), 0);
        assert!(t.drain().is_empty());
    }

    /// Workers past the lane table share the control lane, each from its
    /// own thread, while a reader drains it. A ring has one producer, so the
    /// recorder serialises that lane's pushes: every emit is drained or
    /// counted as dropped. Unserialised, two pushes that read one head write
    /// one slot and count no drop.
    #[test]
    fn control_lane_producers_lose_no_record() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const EMITS: u64 = 1 << 20;
        let lanes = [grouped_lane(1, 64, 0), grouped_lane(1, 64, 1)];
        assert_eq!(lanes, [CONTROL_LANE; 2]);
        let (t, finished) = (&Tracer::with_ring_capacity(1 << 14), &AtomicUsize::new(0));
        let drained = std::thread::scope(|s| {
            for lane in lanes {
                s.spawn(move || {
                    for i in 0..EMITS {
                        t.emit(i, EventKind::SchedDecision, lane, i, 0);
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            let (mut buf, mut drained) = (Vec::new(), 0u64);
            loop {
                let last = finished.load(Ordering::Acquire) == lanes.len();
                buf.clear();
                t.lane(CONTROL_LANE).drain_into(&mut buf);
                drained += buf.len() as u64;
                if last {
                    break drained;
                }
            }
        });
        let dropped = t.dropped_events();
        assert_eq!(
            drained + dropped,
            2 * EMITS,
            "{drained} drained + {dropped} dropped of {} emitted",
            2 * EMITS
        );
    }
}
