//! Lock-free flight-recorder tracing for the Hermes dispatch pipeline.
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
//!   blocks.
//! * [`trace_event!`] — the only way instrumented crates emit. With the
//!   `trace` cargo feature **off** (the default) [`ENABLED`] is `false` and
//!   the macro expands to `if false { .. }`: arguments still type-check,
//!   then the whole call is dead-code eliminated — the hot paths pay
//!   literally nothing. With the feature **on**, it is one runtime-switch
//!   branch plus the ring write (gated at ≤ 14 ns, ~8 measured; see
//!   `results/BENCH_trace.json`).
//! * [`chrome_json`] / [`summary`] — drain/export into chrome://tracing
//!   JSON or an ASCII per-kind table.
//!
//! The recorder keeps no counts of its own beyond ring drops: a count lives
//! with the code that owns the fact (`LbStats`, `RelayStats`, `SelMap`,
//! `SchedStats`, ...), and a rate the event stream gives is read off it.
//!
//! Determinism: tracing observes, never steers. Simnet emits with simulated
//! time, so a traced run produces byte-identical reports *and* byte-identical
//! traces across repeats; the `trace_determinism` suite in `hermes-simnet`
//! enforces the report half of that contract with the recorder both on and
//! off.

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

/// Compile-time master switch. `true` iff this crate was built with the
/// `trace` cargo feature. The macros below branch on this constant, so with
/// the feature off every instrumentation site compiles to nothing.
///
/// Forced off under `--cfg loom` so model-checked structures (the SPSC ring,
/// `hermes-core`'s `SelMap`) never drag the global recorder's non-loom
/// atomics into a loom model.
pub const ENABLED: bool = cfg!(feature = "trace") && !cfg!(loom);

/// Record one event on the global recorder.
#[inline]
pub fn emit(ts: u64, kind: EventKind, lane: u32, a: u64, b: u64) {
    global().emit(ts, kind, lane, a, b);
}

/// Flip the global runtime recording switch (no-op semantics when the
/// `trace` feature is off: nothing records either way).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the global recorder currently accepts events. Always `false` in
/// practice when [`ENABLED`] is `false` because no macro ever emits.
pub fn is_enabled() -> bool {
    ENABLED && global().is_enabled()
}

/// Drain the global recorder: all lanes, sorted by (timestamp, lane).
pub fn drain() -> Vec<TraceRecord> {
    global().drain()
}

/// Total events dropped by full rings on the global recorder.
pub fn dropped_events() -> u64 {
    global().dropped_events()
}

/// Clear the global recorder's records and drop accounting, and re-enable
/// recording.
pub fn reset() {
    global().reset();
}

/// Record a flight-recorder event: `trace_event!(ts, kind, lane, a, b)`.
///
/// `ts`, `lane`, `a`, `b` are cast with `as u64`/`as u32`, so any integer
/// type goes. Compiles to nothing when the `trace` feature is off.
#[macro_export]
macro_rules! trace_event {
    ($ts:expr, $kind:expr, $lane:expr, $a:expr, $b:expr) => {
        if $crate::ENABLED {
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
mod tests {
    use super::*;

    #[test]
    fn enabled_tracks_the_cargo_feature() {
        assert_eq!(ENABLED, cfg!(feature = "trace") && !cfg!(loom));
    }

    #[test]
    fn macros_type_check_mixed_integer_widths() {
        // Must compile regardless of feature state; records only when on.
        let ts: u32 = 5;
        let lane: usize = 3;
        let a: u16 = 9;
        trace_event!(ts, EventKind::SimWake, lane, a, 0i64);
    }
}
