//! Timer wheel vs binary heap: the simulator's event-queue engines head
//! to head, isolated from the rest of the simulator.
//!
//! Two workloads:
//!
//! * **steady churn** — hold `n` pending events and repeatedly pop the
//!   earliest, rescheduling it a pseudo-random think-time ahead. This is
//!   the simulator's steady state (every live connection keeps exactly
//!   one timer pending), where the heap pays O(log n) per pop and the
//!   wheel amortized O(1); sweeping `n` shows the divergence.
//! * **same-tick burst** — dispatch batches land many events on one
//!   timestamp; the tie-break (FIFO by insertion sequence) must stay
//!   cheap, not degenerate into sorting.
//!
//! The whole-simulation number lives in `src/bin/simnet_throughput.rs`;
//! this bench explains *why* it moves.

use hermes_bench::time_it;
use hermes_simnet::{Engine, EventQueue};
use std::hint::black_box;

/// Deterministic, stateless 64-bit mix (splitmix64's finaliser).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Think-time-shaped delta: 1 µs – ~67 ms, like Case-3 connection timers.
fn delta(seed: u64) -> u64 {
    1_000 + mix(seed) % 67_000_000
}

fn churn(engine: Engine, pending: usize, ops: usize) -> u64 {
    let mut q = EventQueue::new(engine);
    for i in 0..pending {
        q.push(delta(i as u64), i as u32);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (t, ev) = q.pop().expect("queue stays full");
        acc = acc.wrapping_add(t);
        q.push(t + delta(i as u64 ^ 0xdead_beef), ev);
    }
    acc
}

fn burst(engine: Engine, width: usize, rounds: usize) -> u64 {
    let mut q = EventQueue::new(engine);
    let mut acc = 0u64;
    let mut now = 0u64;
    for r in 0..rounds {
        now += 5_000_000; // one epoll batch every simulated 5 ms
        for ev in 0..width {
            q.push(now, ev as u32);
        }
        while let Some((t, ev)) = q.pop() {
            acc = acc.wrapping_add(t ^ ev as u64 ^ r as u64);
        }
    }
    acc
}

fn main() {
    for pending in [64usize, 4_096, 65_536] {
        for engine in [Engine::Heap, Engine::Wheel] {
            let name = format!("event_engine/churn/{}/{pending}", engine.name());
            time_it(&name, || churn(engine, black_box(pending), 10_000));
        }
    }
    for engine in [Engine::Heap, Engine::Wheel] {
        let name = format!("event_engine/burst512/{}", engine.name());
        time_it(&name, || burst(engine, black_box(512), 16));
    }
}
