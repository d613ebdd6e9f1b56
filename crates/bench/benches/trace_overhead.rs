//! Micro-benchmarks of the flight recorder off the emit path.
//!
//! The `trace_overhead` *binary* owns the emit cost — recording on and
//! switched off, against the same loop without the macro — and gates it;
//! this bench times what that binary does not: a full-lane drain.

use hermes_bench::time_it;
use hermes_trace::EventKind;

fn main() {
    hermes_trace::set_enabled(true);
    time_it("trace/drain_full_recorder", || {
        hermes_trace::reset();
        for i in 0..1_000u64 {
            hermes_trace::trace_event!(i, EventKind::SimSyn, (i & 63) as u32, i, i);
        }
        hermes_trace::drain().len()
    });
}
