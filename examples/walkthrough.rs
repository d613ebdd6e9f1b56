//! The paper's Appendix B walkthrough (Fig. A3/A4), executed.
//!
//! Requests `a, b1..b4` arrive on a 3-worker LB; `a`'s events cost twice
//! a `b`'s. Fig. A3's reuseport pathology is *stateless hashing may keep
//! dispatching onto the worker already busy with `a`* — we make that
//! deterministic by crafting the `b` flows' source ports so two of them
//! hash-collide onto `a`'s reuseport socket. Hermes sees the busy status
//! in the WST and routes them elsewhere (Fig. A4).
//!
//! Run with: `cargo run --example walkthrough`

use hermes::core::hash::reciprocal_scale;
use hermes::prelude::*;
use hermes::workload::{ConnectionSpec, RequestSpec};

const WORKERS: usize = 3;
const VIP: u32 = 0x0aff_0001;
const PORT: u16 = 443;

/// Find a flow whose reuseport hash lands on `target`.
fn flow_hitting(target: usize, mut seed: u32) -> FlowKey {
    loop {
        let f = FlowKey::new(
            0x0a00_0200 + seed,
            (1_000 + seed % 50_000) as u16,
            VIP,
            PORT,
        );
        if reciprocal_scale(f.hash(), WORKERS as u32) as usize == target {
            return f;
        }
        seed += 1;
    }
}

/// Append a one-request connection whose two events (the workload's one
/// tenant has two per request) cost `per_event_ns` each.
fn push(wl: &mut Workload, flow: FlowKey, arrival_ns: u64, per_event_ns: u64) {
    let request = RequestSpec {
        start_offset_ns: 0,
        service_ns: per_event_ns * 2,
    };
    wl.push(ConnectionSpec::new(arrival_ns, flow, 0), [request]);
}

fn main() {
    let t = 2_000_000u64; // one `b` event = 2 ms; one `a` event = 4 ms
    let a_flow = flow_hitting(0, 1);
    let w_a = 0;
    let mut wl = Workload::new("walkthrough", 1_000_000_000);
    wl.set_events_per_request(0, 2);
    push(&mut wl, a_flow, 0, 2 * t);
    // b1, b2 collide onto a's worker under reuseport; b3, b4 hash away.
    push(&mut wl, flow_hitting(w_a, 500), 1_500_000, t);
    push(&mut wl, flow_hitting(w_a, 900), 3_000_000, t);
    push(&mut wl, flow_hitting(1, 1_300), 4_500_000, t);
    push(&mut wl, flow_hitting(2, 1_700), 6_000_000, t);
    let wl = wl.seal();

    println!("a (2x4ms events) then b1..b4 (2x2ms events), 1.5 ms apart, 3 workers.");
    println!("b1 and b2 are crafted to reuseport-hash onto a's worker.\n");
    for mode in Mode::paper_trio() {
        let r = hermes::simnet::run(&wl, SimConfig::new(WORKERS, mode));
        let accepted: Vec<u64> = r.workers.iter().map(|w| w.accepted).collect();
        println!(
            "{:<22} accepted per worker {:?}   avg {:.2} ms   worst request {:.2} ms",
            mode.name(),
            accepted,
            r.avg_latency_ms(),
            r.request_latency.max() as f64 / 1e6,
        );
    }
    println!("\nReuseport serializes b1/b2 behind a (worst-case request waits ~2x longer);");
    println!("Hermes reads `busy`/`conn` from the WST and steers them to idle workers,");
    println!("matching the Fig. A4 schedule.");
}
