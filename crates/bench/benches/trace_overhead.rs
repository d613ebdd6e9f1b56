//! Micro-benchmarks of the flight recorder off the emit path.
//!
//! The `trace_overhead` *binary* owns the emit cost — recorder on and
//! runtime-disabled, against the same loop without the macro — and gates it;
//! this bench times what that binary does not: a counter bump and a
//! full-lane drain. Built without `--features trace` the counter body
//! collapses to nothing and the drain finds nothing.

use hermes_bench::time_it;
use hermes_trace::{CounterId, EventKind};
use std::hint::black_box;

fn main() {
    hermes_trace::reset();
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
