//! The scheduler pass allocates nothing.
//!
//! §5.3.2 runs Algorithm 1 at the end of *every* event loop iteration, so a
//! pass that touches the allocator is a per-loop tax (and, before the fused
//! kernel, `GroupScheduler::schedule_group` paid it: a `Vec` per call on
//! every pass of every sharded deployment). A counting global allocator
//! pins every loop-resident entry point at zero allocations once warm.

use hermes_core::group::{GroupBy, GroupScheduler};
use hermes_core::{SchedConfig, Scheduler, SelMap, WorkerSession, Wst};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread. Per thread, so the test harness's
    /// own threads cannot disturb the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a `const`-initialised
// thread-local `Cell<u64>`, which needs no allocation and has no destructor.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller meets `GlobalAlloc::dealloc`'s requirements.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 100;
const CALLS: u64 = 10_000;

/// Allocations this thread makes across `CALLS` runs of `pass`, after
/// `WARM_UP` runs that let any lazy set-up happen.
fn allocations_during(mut pass: impl FnMut(u64)) -> u64 {
    for i in 0..WARM_UP {
        pass(i);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for i in WARM_UP..WARM_UP + CALLS {
        pass(i);
    }
    ALLOCATIONS.with(Cell::get) - before
}

fn running_table(workers: usize) -> Arc<Wst> {
    let wst = Arc::new(Wst::new(workers));
    for w in 0..workers {
        wst.worker(w).enter_loop(1_000_000);
        wst.worker(w).conn_delta((w % 5) as i64);
    }
    wst
}

// One test function: the counter is per thread, and so must the passes be.
#[test]
fn scheduler_passes_do_not_allocate() {
    // The counter counts: a control that must allocate.
    assert_eq!(allocations_during(|i| drop(black_box(Box::new(i)))), CALLS);

    for workers in [8, 64] {
        let wst = running_table(workers);
        let scheduler = Scheduler::new(SchedConfig::default());
        let n = allocations_during(|i| {
            let now = 1_000_000 + i;
            wst.worker(i as usize % workers).enter_loop(now);
            black_box(scheduler.schedule(&wst, now));
        });
        assert_eq!(n, 0, "Scheduler::schedule over {workers} rows");
    }

    let groups = GroupScheduler::new(128, 64, GroupBy::FlowHash, SchedConfig::default());
    for g in 0..2 {
        for w in 0..64 {
            groups.group(g).wst().worker(w).enter_loop(1_000_000);
        }
    }
    let n = allocations_during(|i| {
        let (g, w, now) = (i as usize % 2, i as usize % 64, 1_000_000 + i);
        groups.group(g).wst().worker(w).conn_delta(1);
        black_box(groups.schedule_group(g, now));
    });
    assert_eq!(n, 0, "GroupScheduler::schedule_group");

    let mut session = WorkerSession::new(
        running_table(8),
        0,
        SchedConfig::default(),
        Arc::new(SelMap::new()),
    );
    let n = allocations_during(|i| {
        let now = 1_000_000 + i;
        session.loop_top(now);
        session.events_fetched(1);
        session.event_handled();
        black_box(session.schedule_and_sync(now));
    });
    assert_eq!(n, 0, "WorkerSession::schedule_and_sync");
}
