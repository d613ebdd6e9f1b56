//! Quickstart: the Hermes feedback loop in ~40 lines.
//!
//! Builds the three pieces by hand — WST, scheduler, kernel dispatch —
//! and shows a connection being steered away from an overloaded worker.
//!
//! Run with: `cargo run --example quickstart`

use hermes::prelude::*;
use std::sync::Arc;

fn main() {
    let workers = 4;

    // Stage 1: the shared Worker Status Table. Each worker publishes its
    // loop-entry timestamp, pending events, and connection count.
    let wst = Arc::new(Wst::new(workers));
    for w in 0..workers {
        wst.worker(w).enter_loop(1_000_000); // everyone alive at t=1ms
    }
    // Worker 2 is drowning: 500 accumulated connections.
    wst.worker(2).conn_delta(500);

    // Stage 2: the userspace scheduler (Algorithm 1) filters workers and
    // publishes the survivor bitmap to the kernel-visible map.
    let scheduler = Scheduler::new(SchedConfig::default());
    let decision = scheduler.schedule(&wst, 2_000_000);
    println!(
        "coarse-grained filter selected: {:?}",
        decision.bitmap.iter().collect::<Vec<_>>()
    );

    // Stage 3: kernel-side dispatch (Algorithm 2) — here the native
    // oracle; swap in `ReuseportGroup` for the verified eBPF bytecode.
    let dispatcher = ConnDispatcher::new(workers);
    let mut per_worker = vec![0u32; workers];
    for i in 0..10_000u32 {
        let flow = FlowKey::new(
            0x0a00_0000 + i,
            40_000 + (i % 20_000) as u16,
            0x0aff_0001,
            443,
        );
        let outcome = dispatcher.dispatch(&[decision.bitmap], flow.hash());
        per_worker[outcome.worker()] += 1;
    }
    println!("connections per worker: {per_worker:?}");
    assert_eq!(per_worker[2], 0, "overloaded worker must receive nothing");
    println!("worker 2 (500 conns) received zero new connections — the loop is closed.");
}
