//! Micro-benchmarks of the Hermes fast paths.
//!
//! These are the operations on the per-event / per-connection critical
//! path, whose costs justify the paper's design choices: lock-free WST
//! updates (tens of ns, §5.3.1), O(n) scheduling cheap enough to run
//! every loop iteration (§5.3.2), and an Algorithm 2 decision small enough
//! for the kernel hook (§5.4; the kernel times the attached program itself,
//! `repro table5`).

use hermes_bench::time_it;
use hermes_core::dispatch::ConnDispatcher;
use hermes_core::hash::{jhash_3words, reciprocal_scale, FlowKey};
use hermes_core::sched::{SchedConfig, Scheduler};
use hermes_core::wst::Wst;
use hermes_core::{WorkerBitmap, WorkerSnapshot, MAX_WORKERS_PER_GROUP};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_wst() {
    let wst = Wst::new(32);
    // The Fig. 9 hook sequence for one loop with 4 events, 1 accept.
    time_it("wst/update_one_loop_iteration", || {
        let w = wst.worker(black_box(7));
        w.enter_loop(black_box(123_456_789));
        w.add_pending(4);
        w.conn_delta(1);
        for _ in 0..4 {
            w.event_done();
        }
    });
    let mut rows = [WorkerSnapshot::default(); MAX_WORKERS_PER_GROUP];
    time_it("wst/snapshot_32_workers", || {
        wst.snapshot_into(&mut rows).len()
    });
}

fn bench_scheduler() {
    for &n in &[8usize, 32, 64] {
        let wst = Wst::new(n);
        for w in 0..n {
            wst.worker(w).enter_loop(1_000_000);
            wst.worker(w).add_pending((w % 7) as i64);
            wst.worker(w).conn_delta((w % 13) as i64 * 3);
        }
        let sched = Scheduler::new(SchedConfig::default());
        // The loop-resident shape: a worker stamps its own row, then runs
        // the pass (an unchanged table is not something a worker loop ever
        // schedules over).
        let mut now = 1_100_000u64;
        let name = format!("scheduler/row_write_then_pass_{n}_workers");
        time_it(&name, || {
            now += 1;
            wst.worker(now as usize % n).enter_loop(now);
            sched.schedule(&wst, black_box(now))
        });
    }
}

fn bench_bitmap_and_hash() {
    let bm = WorkerBitmap(0xA5A5_5A5A_F0F0_0F0Fu64);
    time_it("bits/nth_set_bit", || bm.nth_set_bit(black_box(17)));
    time_it("bits/jhash_3words", || {
        jhash_3words(black_box(1), black_box(2), black_box(3), 7)
    });
    time_it("bits/reciprocal_scale", || {
        reciprocal_scale(black_box(0xDEAD_BEEF), 32)
    });
    let f = FlowKey::new(0x0a000001, 40000, 0x0aff0001, 443);
    time_it("bits/flowkey_hash", || black_box(&f).hash());
}

fn bench_dispatch() {
    let native = ConnDispatcher::new(64);
    time_it("dispatch/native_algorithm2", || {
        native.dispatch(
            &[WorkerBitmap(black_box(0x0000_F0F0_A5A5_3C3C))],
            black_box(0x1234_5678),
        )
    });
    // The kernel's map value: one 64-bit word, stored and read back.
    let word = AtomicU64::new(0);
    time_it("dispatch/bitmap_word_store_load", || {
        word.store(black_box(0xFFu64), Ordering::Release);
        WorkerBitmap(word.load(Ordering::Acquire))
    });
}

fn main() {
    bench_wst();
    bench_scheduler();
    bench_bitmap_and_hash();
    bench_dispatch();
}
