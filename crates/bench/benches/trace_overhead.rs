//! Micro-benchmarks of the flight-recorder hot path.
//!
//! The `trace_overhead` *binary* owns the gated cost contract (it runs a
//! differential loop and enforces the <= 25 ns/event budget); this bench
//! times the individual operations: an event emit with the recorder on,
//! the runtime-disabled branch, a counter bump, and a full-lane drain.
//! Built without `--features trace` every instrumented body collapses to
//! its baseline — benchmarking that build shows the compiled-out macros
//! at work.

use hermes_bench::time_it;
use hermes_trace::{CounterId, EventKind};
use std::hint::black_box;

fn main() {
    hermes_trace::reset();
    hermes_trace::set_enabled(true);
    let mut i = 0u64;
    time_it("trace/emit_enabled", || {
        i = i.wrapping_add(1);
        hermes_trace::trace_event!(i, EventKind::Dispatch, (i & 63) as u32, black_box(i), 0u64);
    });

    hermes_trace::set_enabled(false);
    time_it("trace/emit_runtime_disabled", || {
        i = i.wrapping_add(1);
        hermes_trace::trace_event!(i, EventKind::Dispatch, (i & 63) as u32, black_box(i), 0u64);
    });
    hermes_trace::set_enabled(true);

    time_it("trace/counter_add", || {
        hermes_trace::trace_count!(CounterId::SimSyns, black_box(1u64))
    });

    time_it("trace/drain_full_recorder", || {
        hermes_trace::reset();
        for i in 0..1_000u64 {
            hermes_trace::trace_event!(i, EventKind::SimSyn, (i & 63) as u32, i, i);
        }
        hermes_trace::drain().len()
    });

    hermes_trace::reset();
}
