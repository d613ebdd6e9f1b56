//! The simulator's event queue, the two-tier calendar, isolated from the
//! rest of the simulator.
//!
//! Three workloads:
//!
//! * **Case 3 churn** — hold `n` pending events and repeatedly pop the
//!   earliest, rescheduling it a pseudo-random think-time ahead (1 µs to
//!   67 ms, like Case 3's long-lived connections' timers), so most events
//!   land in the heap and move into the near ring before they pop;
//!   sweeping `n` shows what the moves and cache misses cost as the
//!   population grows.
//! * **Case 1 churn** — the same loop with what a Case 1 worker schedules:
//!   a 3 µs wake, a batch completion microseconds to a millisecond out, or
//!   a 5 ms `epoll_wait` timeout. Nearly everything lands in the near ring.
//! * **same-tick burst** — dispatch batches land many events on one
//!   timestamp; the tie-break (FIFO by insertion sequence) must stay
//!   cheap, not degenerate into sorting.
//!
//! The whole-simulation number lives in `src/bin/simnet_throughput.rs`;
//! this bench explains *why* it moves.

use hermes_bench::time_it;
use hermes_simnet::CalendarQueue;
use std::hint::black_box;

/// Deterministic, stateless 64-bit mix (splitmix64's finaliser).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Think-time-shaped delta: 1 µs – ~67 ms, like Case-3 connection timers.
fn case3_delta(seed: u64) -> u64 {
    1_000 + mix(seed) % 67_000_000
}

/// What a Case 1 worker schedules: a quarter 3 µs wakes, a quarter 5 ms
/// `epoll_wait` timeouts, half batch completions spread evenly over the
/// powers of two from 2 µs to 1 ms.
fn case1_delta(seed: u64) -> u64 {
    let r = mix(seed);
    match r % 4 {
        0 => 3_000,
        1 => 5_000_000,
        _ => {
            let scale = 1u64 << (11 + (r >> 8) % 10);
            scale + (r >> 16) % scale
        }
    }
}

fn churn(pending: usize, ops: usize, delta: fn(u64) -> u64) -> u64 {
    let mut q = CalendarQueue::new();
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

fn burst(width: usize, rounds: usize) -> u64 {
    let mut q = CalendarQueue::new();
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
        let name = format!("event_engine/churn_case3/calendar/{pending}");
        time_it(&name, || churn(black_box(pending), 10_000, case3_delta));
    }
    for pending in [64usize, 512, 4_096] {
        let name = format!("event_engine/churn_case1/calendar/{pending}");
        time_it(&name, || churn(black_box(pending), 10_000, case1_delta));
    }
    time_it("event_engine/burst512/calendar", || {
        burst(black_box(512), 16)
    });
}
