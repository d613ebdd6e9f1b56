//! Flight-recorder overhead harness: the cost contract of `hermes-trace`. A
//! full run records it in `results/BENCH_trace.json`.
//!
//! The same tight loop runs three ways in alternating rounds, and the gated
//! quantity is the per-event *difference* from the plain loop, round by round:
//!
//!   plain      the loop alone (wrapping-arithmetic accumulator)
//!   enabled    loop + `trace_event!`, recording switched on
//!   disabled   loop + `trace_event!`, recording switched off
//!              (one branch + one relaxed atomic load per event)
//!
//! This is the producer's cost, so nothing reads the rings while the clock
//! runs: events are emitted in windows no larger than one lane's ring, the
//! rings are emptied off the clock between windows, and the run FAILS unless
//! every event emitted was drained and none was dropped. A recorder that
//! drops is cheap for the wrong reason — a full ring refuses the write. The
//! rings are emptied between the switched-off windows too, and the run FAILS
//! if a switched-off pass left a record there.
//!
//! With a drainer thread emptying the rings *while* the producer writes, the
//! same loop measures something else: the ring's cache lines moving between
//! two cores, which is this host's interconnect (and, when the drainer falls
//! behind, the refusal path again). That figure is stated beside the gated
//! one, with its drop count, and gates nothing.
//!
//! Flags: `--smoke` (an eighth of the events, a third of the rounds, never
//! writes), `--out PATH`.
//! EXPERIMENTS.md "Gates that measure both sides" has the runs the budgets
//! were read off and the seeded regressions they catch; DESIGN.md "Overhead
//! contract" states them.

use hermes_bench::gate::{Clock, Gates, Json, Samples};
use hermes_metrics::Summary;
use hermes_trace::{EventKind, TraceRecord};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

/// Events emitted between two drains: one lane's ring, so no lane can fill
/// however the events spread over lanes.
const WINDOW: u64 = hermes_trace::DEFAULT_RING_CAPACITY as u64;
/// Recording on: one recorded event may cost the producer this much (5.7–10.0
/// over 20 runs of this host; a lock around the push reads 17 and up).
const ENABLED_BUDGET_NS: f64 = 14.0;
/// Recording switched off: one branch and one relaxed load (0.3–0.8 over the
/// runs in EXPERIMENTS.md "Flight-recorder overhead"; one read-modify-write
/// in their place reads 9).
const DISABLED_BUDGET_NS: f64 = 3.0;

/// The unit of work every variant performs per iteration: cheap enough
/// that the macro's cost dominates the differential, opaque enough that
/// the optimizer cannot delete the loop.
#[inline(always)]
fn work(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

#[inline(always)]
fn traced(i: u64) -> u64 {
    let v = work(i);
    hermes_trace::trace_event!(i, EventKind::SimDispatch, (i & 63) as u32, v, i);
    v
}

/// `events` iterations of `body` in windows, with `between` run off the clock
/// after each window.
fn pass(clock: &mut Clock, events: u64, body: impl Fn(u64) -> u64, mut between: impl FnMut()) {
    let mut acc = 0u64;
    for start in (0..events).step_by(WINDOW as usize) {
        for i in start..start + WINDOW {
            acc = acc.wrapping_add(body(i));
        }
        clock.untimed(&mut between);
    }
    black_box(acc);
}

/// Empty every lane of the global recorder; how many records came out.
fn drain_all(buf: &mut Vec<TraceRecord>) -> u64 {
    let mut drained = 0;
    for lane in 0..hermes_trace::LANES as u32 {
        buf.clear();
        hermes_trace::global().lane(lane).drain_into(buf);
        drained += buf.len() as u64;
    }
    drained
}

/// What `side` cost per event over the plain loop, round by round.
fn ns_over_plain(samples: &Samples, side: &str, events: u64) -> Summary {
    samples.pairwise(side, "plain", |traced, plain| {
        (traced - plain) * 1e9 / events as f64
    })
}

fn main() {
    let mut gates = Gates::from_args("trace_overhead", "results/BENCH_trace.json", 8, 24);
    let events: u64 = if gates.smoke() { 1 << 19 } else { 1 << 22 };
    println!(" {events} events per pass in windows of {WINDOW}");

    let mut buf = Vec::with_capacity(WINDOW as usize);
    let (mut emitted, mut drained, mut leaked) = (0u64, 0u64, 0u64);
    let samples = gates.alternate(&mut [
        ("plain", &mut |c| pass(c, events, work, || {})),
        ("enabled", &mut |c| {
            hermes_trace::set_enabled(true);
            pass(c, events, traced, || drained += drain_all(&mut buf));
            hermes_trace::set_enabled(false);
            emitted += events;
        }),
        ("disabled", &mut |c| {
            pass(c, events, traced, || leaked += drain_all(&mut Vec::new()));
        }),
    ]);
    let dropped = hermes_trace::dropped_events();

    let mut enabled = ns_over_plain(&samples, "enabled", events);
    let mut disabled = ns_over_plain(&samples, "disabled", events);
    println!(
        "  plain {:.3} ns/iter, enabled +{:.3} ns/event, switched off +{:.3} ns/event; {drained} drained of {emitted} emitted, {dropped} dropped, {leaked} left while off",
        samples.of("plain").p50() * 1e9 / events as f64,
        enabled.p50(),
        disabled.p50()
    );
    gates.at_most(
        "enabled emit, ns/event over plain",
        &mut enabled,
        ENABLED_BUDGET_NS,
    );
    gates.at_most(
        "switched-off emit, ns/event over plain",
        &mut disabled,
        DISABLED_BUDGET_NS,
    );
    gates.check(
        "every event recorded, none dropped",
        drained == emitted && dropped == 0,
        format!("{drained} drained of {emitted} emitted, {dropped} dropped"),
    );
    gates.check(
        "switched off: no record left",
        leaked == 0,
        format!("{leaked} records left by switched-off passes"),
    );

    let mut record = Json::new()
        .int("events_per_pass", events)
        .int("window", WINDOW)
        .timed("plain_seconds_per_pass", &mut samples.of("plain"))
        .timed("enabled_overhead_ns_per_event", &mut enabled)
        .timed("runtime_disabled_overhead_ns_per_event", &mut disabled)
        .int("emitted_events", emitted)
        .int("drained_events", drained)
        .int("dropped_events", dropped)
        .int("records_left_while_off", leaked);

    // The figure this harness used to gate: the same emit loop with a
    // reader on another core. See the module doc for what it measures.
    hermes_trace::set_enabled(true);
    let stop = AtomicBool::new(false);
    let (samples, drained) = std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            let mut buf = Vec::with_capacity(WINDOW as usize);
            let mut drained = 0;
            while !stop.load(Ordering::Relaxed) {
                let n = drain_all(&mut buf);
                drained += n;
                if n == 0 {
                    std::thread::yield_now();
                }
            }
            drained + drain_all(&mut buf)
        });
        let samples = gates.alternate(&mut [
            ("plain", &mut |c| pass(c, events, work, || {})),
            ("enabled", &mut |c| pass(c, events, traced, || {})),
        ]);
        stop.store(true, Ordering::Relaxed);
        (samples, drainer.join().expect("drainer lives"))
    });
    hermes_trace::set_enabled(false);
    let dropped = hermes_trace::dropped_events() - dropped;
    let mut concurrent = ns_over_plain(&samples, "enabled", events);
    gates.report(
        "enabled emit beside a concurrent drainer",
        format!(
            "{:.2} ns/event, {dropped} dropped, {drained} drained",
            concurrent.p50()
        ),
    );
    let block = Json::new()
        .timed("enabled_overhead_ns_per_event", &mut concurrent)
        .int("drained_events", drained)
        .int("dropped_events", dropped);
    record = record.block("concurrent_drainer", block);
    gates.finish(record)
}
