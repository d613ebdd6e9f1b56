//! The global flight recorder: one ring per lane plus the counter registry.
//!
//! Lanes 0..=63 belong to workers (one producer each — the worker thread).
//! Lane [`KERNEL_LANE`] carries the acceptor/dispatch path and lane
//! [`CONTROL_LANE`] carries scheduler/driver events. Events whose lane id
//! exceeds the table are clamped into the control lane rather than dropped,
//! so a misconfigured worker id can never index out of bounds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::counters::{CounterId, CounterRegistry};
use crate::record::{EventKind, TraceRecord};
use crate::ring::{TraceRing, DEFAULT_RING_CAPACITY};

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
    counters: CounterRegistry,
    /// Runtime switch layered under the compile-time `trace` feature, so one
    /// binary can compare enabled-vs-disabled behaviour (the determinism
    /// suite flips it). Recording starts on.
    on: AtomicBool,
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
            counters: CounterRegistry::new(),
            on: AtomicBool::new(true),
        }
    }

    /// Whether the recorder is currently accepting events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Flip the runtime recording switch.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Record one event on `lane` (clamped into the lane table).
    #[inline]
    pub fn emit(&self, ts: u64, kind: EventKind, lane: u32, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        let idx = (lane as usize).min(LANES - 1);
        self.lanes[idx].push(TraceRecord {
            ts,
            kind,
            worker: lane,
            a,
            b,
        });
    }

    /// Add `n` to a monotonic counter.
    #[inline]
    pub fn counter_add(&self, id: CounterId, n: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counters.add(id, n);
    }

    /// Ratchet a max-style counter.
    #[inline]
    pub fn counter_max(&self, id: CounterId, v: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counters.max(id, v);
    }

    /// Current counter value.
    pub fn counter_get(&self, id: CounterId) -> u64 {
        self.counters.get(id)
    }

    /// Snapshot of every counter.
    pub fn counters_snapshot(&self) -> [(CounterId, u64); CounterId::COUNT] {
        self.counters.snapshot()
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

    /// Discard buffered records, zero counters and drop accounting, and
    /// re-enable recording. Used between comparison runs.
    pub fn reset(&self) {
        for lane in &self.lanes {
            lane.clear();
        }
        self.counters.reset();
        self.set_enabled(true);
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
            .field("enabled", &self.is_enabled())
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

/// Map a grouped worker onto a flight-recorder lane: `group * group_size +
/// local`, the flattened global worker id. Deployments wider than
/// [`MAX_WORKER_LANES`] workers (e.g. 256 workers in 4 groups) overflow the
/// lane table; overflowing workers share [`CONTROL_LANE`], and each such
/// mapping bumps [`CounterId::TraceLaneOverflows`] so the aliasing is
/// visible in the counter export rather than silent.
#[inline]
pub fn grouped_lane(group: usize, group_size: usize, local: usize) -> u32 {
    let global = group * group_size + local;
    if global < MAX_WORKER_LANES {
        global as u32
    } else {
        crate::trace_count!(CounterId::TraceLaneOverflows);
        CONTROL_LANE
    }
}

/// Map a fleet device onto a stable flight-recorder lane derived from the
/// *device index*, never the OS thread that happens to run the device. Under
/// the cluster work pool, devices migrate across pool threads between runs;
/// keying lanes by thread id would shuffle every device's events across
/// lanes from run to run (and alias devices sharing a thread). Keying by
/// device index keeps the trace layout deterministic at any thread count.
/// Fleets wider than [`MAX_WORKER_LANES`] devices clamp to [`CONTROL_LANE`]
/// and bump [`CounterId::TraceLaneOverflows`], the same overflow policy as
/// [`grouped_lane`].
#[inline]
pub fn device_lane(device: usize) -> u32 {
    if device < MAX_WORKER_LANES {
        device as u32
    } else {
        crate::trace_count!(CounterId::TraceLaneOverflows);
        CONTROL_LANE
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-wide recorder, created on first use.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_clamp_instead_of_panicking() {
        let t = Tracer::with_ring_capacity(8);
        t.emit(1, EventKind::Dispatch, 9999, 0, 0);
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
    fn disabled_recorder_records_nothing() {
        let t = Tracer::with_ring_capacity(8);
        t.set_enabled(false);
        t.emit(1, EventKind::Dispatch, 0, 0, 0);
        t.counter_add(CounterId::SimSyns, 5);
        assert!(t.drain().is_empty());
        assert_eq!(t.counter_get(CounterId::SimSyns), 0);
        t.set_enabled(true);
        t.emit(2, EventKind::Dispatch, 0, 0, 0);
        assert_eq!(t.drain().len(), 1);
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
    fn reset_clears_records_counters_and_drops() {
        let t = Tracer::with_ring_capacity(2);
        for i in 0..5 {
            t.emit(i, EventKind::Dispatch, 0, 0, 0);
        }
        t.counter_add(CounterId::SimSyns, 1);
        assert!(t.dropped_events() > 0);
        t.reset();
        assert_eq!(t.dropped_events(), 0);
        assert!(t.drain().is_empty());
        assert_eq!(t.counter_get(CounterId::SimSyns), 0);
    }
}
