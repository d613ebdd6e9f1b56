//! Flight-recorder tracing for the Hermes dispatch pipeline.
//!
//! Hermes's premise is that userspace knows best: workers export loop-entry
//! timestamps, pending-event counts and connection counts into the WST so
//! the scheduler can explain every admit/reject (Algorithm 1) and the eBPF
//! program can honor the decision (Algorithm 2). This crate makes those
//! decisions *observable* in a live run without perturbing them:
//!
//! * [`TraceRing`] — per-lane SPSC rings of fixed-size 32-byte binary
//!   records (`u64` timestamp, `u16` kind, `u32` worker id, 2×`u64`
//!   payload). A push is a bounds check plus four relaxed stores and a
//!   release cursor bump; a full ring drops (saturating counter), never
//!   blocks. The ring's protocol, and the lock that keeps the control
//!   lane to one producer at a time, are checked under every schedule of
//!   up to two preemptions by an interleaving checker that exists only in
//!   this crate's test build (`check.rs`; `sync.rs` routes the atomics
//!   and the lock through it there, and every other build uses `std`'s).
//! * [`trace_event!`] — the only way instrumented crates emit. Every build
//!   carries it; one process-wide switch ([`set_enabled`]) decides whether
//!   it records. Switched off (the start state) an event is one relaxed
//!   load and a branch not taken (gated at ≤ 3 ns), and no ring exists
//!   until something switches recording on. Switched on, it is that
//!   branch plus the ring write (gated at ≤ 14 ns; see
//!   `results/BENCH_trace.json`).
//! * [`chrome_json`] / [`summary`] — drain/export into chrome://tracing
//!   JSON or an ASCII per-kind table.
//!
//! The recorder keeps no counts of its own beyond ring drops: a count lives
//! with the code that owns the fact (`LbStats`, `RelayStats`, `SchedStats`,
//! ...), and a rate the event stream gives is read off it.
//!
//! Determinism: tracing observes, never steers. Simnet emits with simulated
//! time, so a traced run produces byte-identical reports *and* byte-identical
//! traces across repeats; the `trace_determinism` suite in `hermes-simnet`
//! enforces both halves of that contract, comparing runs with the recorder
//! switched on and off.

mod export;
mod record;
mod ring;
mod sync;
mod tracer;

pub use export::{chrome_json, summary};
pub use record::{EventKind, TraceRecord};
pub use ring::{TraceRing, DEFAULT_RING_CAPACITY};
pub use tracer::{
    device_lane, global, grouped_lane, Tracer, CONTROL_LANE, KERNEL_LANE, LANES, MAX_WORKER_LANES,
};

use std::sync::atomic::{AtomicBool, Ordering};
use tracer::global_if_created;

/// The process-wide recording switch. Starts off.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Record one event on the global recorder, creating its rings on first
/// use. [`trace_event!`] calls this only while recording is switched on.
#[inline]
pub fn emit(ts: u64, kind: EventKind, lane: u32, a: u64, b: u64) {
    global().emit(ts, kind, lane, a, b);
}

/// Switch recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether [`trace_event!`] records: one relaxed load.
#[inline]
pub fn is_enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Drain the global recorder: all lanes, sorted by (timestamp, lane).
pub fn drain() -> Vec<TraceRecord> {
    global_if_created().map_or_else(Vec::new, Tracer::drain)
}

/// Total events dropped by full rings on the global recorder.
pub fn dropped_events() -> u64 {
    global_if_created().map_or(0, Tracer::dropped_events)
}

/// Clear the global recorder's records and drop accounting. The switch
/// is left as it is.
pub fn reset() {
    if let Some(tracer) = global_if_created() {
        tracer.reset();
    }
}

/// Record a flight-recorder event: `trace_event!(ts, kind, lane, a, b)`.
///
/// `ts`, `lane`, `a`, `b` are cast with `as u64`/`as u32`, so any integer
/// type goes. The arguments are evaluated only while recording is on.
#[macro_export]
macro_rules! trace_event {
    ($ts:expr, $kind:expr, $lane:expr, $a:expr, $b:expr) => {
        if $crate::is_enabled() {
            $crate::emit(
                ($ts) as u64,
                $kind,
                ($lane) as u32,
                ($a) as u64,
                ($b) as u64,
            );
        }
    };
}

#[cfg(test)]
mod check;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_type_check_mixed_integer_widths() {
        let ts: u32 = 5;
        let lane: usize = 3;
        let a: u16 = 9;
        trace_event!(ts, EventKind::SimWake, lane, a, 0i64);
    }

    /// No test in this binary switches recording on, so the process never
    /// records: an emit, a drain and a reset leave the recorder uncreated
    /// (66 rings of 4 096 records are 8.6 MiB a process would otherwise
    /// carry).
    #[test]
    fn switched_off_process_creates_no_ring() {
        assert!(!is_enabled());
        trace_event!(1u64, EventKind::SimDispatch, 0u32, 0u64, 0u64);
        reset();
        assert!(drain().is_empty());
        assert_eq!(dropped_events(), 0);
        assert!(global_if_created().is_none());
    }
}
