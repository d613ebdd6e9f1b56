//! Ablation cost benchmarks for the design choices DESIGN.md calls out.
//!
//! Each compares the paper's choice against the alternative it rejected:
//!
//! * lock-free atomic WST vs a mutex-guarded table (§5.3.1);
//! * 64-bit bitmap sync vs a locked boolean array (§5.3.2);
//! * the paper's filter order vs reversed (cost side; the *quality* side
//!   is in `src/bin/ablation_quality.rs`);
//! * single-level dispatch vs two-level group dispatch (§7);
//! * native dispatch vs interpreted eBPF bytecode (the non-intrusiveness
//!   tax, §5.4).

use hermes_bench::time_it;
use hermes_core::group::{GroupBy, GroupScheduler};
use hermes_core::hash::FlowKey;
use hermes_core::sched::{FilterStage, SchedConfig, Scheduler};
use hermes_core::selmap::SelMap;
use hermes_core::wst::Wst;
use hermes_core::{ConnDispatcher, WorkerBitmap, WorkerSnapshot, MAX_WORKERS_PER_GROUP};
use hermes_ebpf::ReuseportGroup;
use std::hint::black_box;
use std::sync::Mutex;

/// The rejected alternative to the lock-free WST: one mutex around a
/// plain table (what "just use a lock" would look like).
struct LockedWst {
    table: Mutex<Vec<(u64, i64, i64)>>,
}

impl LockedWst {
    fn new(n: usize) -> Self {
        Self {
            table: Mutex::new(vec![(0, 0, 0); n]),
        }
    }
    fn update(&self, w: usize, now: u64) {
        let mut t = self.table.lock().expect("no updater panics");
        t[w].0 = now;
        t[w].1 += 4;
        t[w].2 += 1;
        t[w].1 -= 4;
    }
    fn snapshot(&self) -> Vec<(u64, i64, i64)> {
        self.table.lock().expect("no updater panics").clone()
    }
}

fn ablation_wst_lock() {
    let lock_free = Wst::new(32);
    let locked = LockedWst::new(32);
    time_it("ablation_wst_lock/lockfree_update", || {
        let w = lock_free.worker(5);
        w.enter_loop(black_box(42));
        w.add_pending(4);
        w.conn_delta(1);
        w.add_pending(-4);
    });
    time_it("ablation_wst_lock/mutex_update", || {
        locked.update(black_box(5), black_box(42))
    });
    let mut rows = [WorkerSnapshot::default(); MAX_WORKERS_PER_GROUP];
    time_it("ablation_wst_lock/lockfree_snapshot", || {
        lock_free.snapshot_into(&mut rows).len()
    });
    time_it("ablation_wst_lock/mutex_snapshot", || {
        locked.snapshot().len()
    });

    // Uncontended, the mutex looks cheap; §5.3.1's argument is about
    // *concurrent* updaters plus a scheduler reader. Measure wall time
    // for 4 writer threads × N updates each, both ways.
    fn contended<W: Sync>(
        threads: usize,
        per_thread: u64,
        table: &W,
        f: impl Fn(&W, usize) + Sync + Copy + Send,
    ) {
        std::thread::scope(|s| {
            for w in 0..threads {
                s.spawn(move || {
                    for _ in 0..per_thread {
                        f(table, w);
                    }
                });
            }
        });
    }
    let wst = Wst::new(4);
    time_it("ablation_wst_lock_contended/lockfree_4writers", || {
        contended(4, 5_000, &wst, |t, w| {
            let s = t.worker(w);
            s.enter_loop(1);
            s.add_pending(1);
            s.add_pending(-1);
        })
    });
    let locked = LockedWst::new(4);
    time_it("ablation_wst_lock_contended/mutex_4writers", || {
        contended(4, 5_000, &locked, |t, w| t.update(w, 1))
    });
}

/// The rejected alternative to the u64 bitmap: a locked boolean array.
fn ablation_bitmap() {
    let sel = SelMap::new();
    time_it("ablation_bitmap_sync/atomic_u64_bitmap", || {
        sel.store(WorkerBitmap(black_box(0xF0F0)));
        sel.load()
    });
    let locked: Mutex<Vec<bool>> = Mutex::new(vec![false; 64]);
    time_it("ablation_bitmap_sync/locked_bool_array", || {
        {
            let mut v = locked.lock().expect("single thread");
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = (black_box(0xF0F0u64) >> i) & 1 == 1;
            }
        }
        let v = locked.lock().expect("single thread");
        v.iter().filter(|&&x| x).count()
    });
}

fn ablation_filter_order() {
    let wst = Wst::new(32);
    for w in 0..32 {
        wst.worker(w)
            .enter_loop(if w % 5 == 0 { 1 } else { 1_000_000 });
        wst.worker(w).add_pending((w % 9) as i64);
        wst.worker(w).conn_delta((w % 4) as i64 * 10);
    }
    let paper = Scheduler::new(SchedConfig::default());
    let reversed = Scheduler::new(SchedConfig {
        stages: vec![
            FilterStage::PendingEvents,
            FilterStage::Connections,
            FilterStage::Time,
        ],
        ..SchedConfig::default()
    });
    time_it("ablation_filter_order/paper_order_time_conn_event", || {
        paper.schedule(&wst, 1_100_000)
    });
    time_it("ablation_filter_order/reversed_order", || {
        reversed.schedule(&wst, 1_100_000)
    });
}

fn ablation_groups() {
    let single = ConnDispatcher::new(64);
    let sel = SelMap::new();
    sel.store(WorkerBitmap::all(64));
    time_it("ablation_groups/single_level_64", || {
        single.dispatch(sel.load(), black_box(0xABCD_EF01))
    });
    let two_level = GroupScheduler::new(128, 64, GroupBy::FlowHash, SchedConfig::default());
    for gi in 0..two_level.group_count() {
        for w in 0..two_level.group(gi).workers() {
            two_level.group(gi).wst().worker(w).enter_loop(1_000_000);
        }
    }
    two_level.schedule_all(1_100_000);
    let flow = FlowKey::new(1, 2, 3, 4);
    time_it("ablation_groups/two_level_128", || {
        two_level.dispatch(black_box(&flow))
    });
}

fn ablation_ebpf_vs_native() {
    let native = ConnDispatcher::new(32);
    let sel = SelMap::new();
    sel.store(WorkerBitmap(0xFFFF_0000_FF00));
    time_it("ablation_ebpf_vs_native/native", || {
        native.dispatch(sel.load(), black_box(7777))
    });
    let group = ReuseportGroup::new(32);
    group.sync_bitmap(WorkerBitmap(0xFF00_FF00));
    time_it("ablation_ebpf_vs_native/ebpf_interpreted", || {
        group.dispatch(black_box(7777))
    });
}

fn main() {
    ablation_wst_lock();
    ablation_bitmap();
    ablation_filter_order();
    ablation_groups();
    ablation_ebpf_vs_native();
}
