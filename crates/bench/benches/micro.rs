//! Micro-benchmarks of the Hermes fast paths.
//!
//! These are the operations on the per-event / per-connection critical
//! path, whose costs justify the paper's design choices: lock-free WST
//! updates (tens of ns, §5.3.1), O(n) scheduling cheap enough to run
//! every loop iteration (§5.3.2), and a dispatch program small enough for
//! the kernel hook (§5.4).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hermes_core::dispatch::ConnDispatcher;
use hermes_core::hash::{jhash_3words, reciprocal_scale, FlowKey};
use hermes_core::sched::{SchedConfig, Scheduler};
use hermes_core::selmap::SelMap;
use hermes_core::wst::Wst;
use hermes_core::{WorkerBitmap, WorkerSnapshot, MAX_WORKERS_PER_GROUP};
use hermes_ebpf::ReuseportGroup;
use std::hint::black_box;
use std::time::Duration;

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_wst(c: &mut Criterion) {
    let mut g = c.benchmark_group("wst");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(300));

    let wst = Wst::new(32);
    g.bench_function("update_one_loop_iteration", |b| {
        // The Fig. 9 hook sequence for one loop with 4 events, 1 accept.
        b.iter(|| {
            let w = wst.worker(black_box(7));
            w.enter_loop(black_box(123_456_789));
            w.add_pending(4);
            w.conn_delta(1);
            for _ in 0..4 {
                w.event_done();
            }
        })
    });
    g.bench_function("snapshot_32_workers", |b| {
        let mut rows = [WorkerSnapshot::default(); MAX_WORKERS_PER_GROUP];
        b.iter(|| black_box(wst.snapshot_into(&mut rows).len()))
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(300));
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
        g.bench_function(format!("row_write_then_pass_{n}_workers"), |b| {
            b.iter(|| {
                now += 1;
                wst.worker(now as usize % n).enter_loop(now);
                black_box(sched.schedule(&wst, black_box(now)))
            })
        });
    }
    g.finish();
}

fn bench_bitmap_and_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("bits");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(300));
    let bm = WorkerBitmap(0xA5A5_5A5A_F0F0_0F0Fu64);
    g.bench_function("nth_set_bit", |b| {
        b.iter(|| black_box(bm.nth_set_bit(black_box(17))))
    });
    g.bench_function("jhash_3words", |b| {
        b.iter(|| black_box(jhash_3words(black_box(1), black_box(2), black_box(3), 7)))
    });
    g.bench_function("reciprocal_scale", |b| {
        b.iter(|| black_box(reciprocal_scale(black_box(0xDEAD_BEEF), 32)))
    });
    g.bench_function("flowkey_hash", |b| {
        let f = FlowKey::new(0x0a000001, 40000, 0x0aff0001, 443);
        b.iter(|| black_box(black_box(&f).hash()))
    });
    g.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    g.measurement_time(Duration::from_millis(900));
    g.warm_up_time(Duration::from_millis(300));
    let sel = SelMap::new();
    sel.store(WorkerBitmap(0x0000_F0F0_A5A5_3C3C));
    let native = ConnDispatcher::new(64);
    g.bench_function("native_algorithm2", |b| {
        b.iter(|| black_box(native.dispatch(sel.load(), black_box(0x1234_5678))))
    });
    let group = ReuseportGroup::new(64);
    group.sync_bitmap(WorkerBitmap(0x0000_F0F0_A5A5_3C3C));
    g.bench_function("ebpf_bytecode_algorithm2", |b| {
        b.iter(|| black_box(group.dispatch(black_box(0x1234_5678))))
    });
    g.bench_function("selmap_store_load", |b| {
        b.iter_batched(
            || WorkerBitmap(black_box(0xFFu64)),
            |bm| {
                sel.store(bm);
                black_box(sel.load())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn all(c: &mut Criterion) {
    let c = configure(c);
    bench_wst(c);
    bench_scheduler(c);
    bench_bitmap_and_hash(c);
    bench_dispatch(c);
}

criterion_group!(benches, all);
criterion_main!(benches);
