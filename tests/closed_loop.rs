//! Cross-crate integration: the full Hermes feedback loop assembled from
//! the public API — WST updates → Algorithm 1 scheduling → bitmap sync →
//! Algorithm 2 dispatch — through both the native oracle and the verified
//! eBPF bytecode path.

use hermes::prelude::*;
use std::sync::Arc;

#[test]
fn status_to_dispatch_round_trip() {
    let workers = 8;
    let wst = Arc::new(Wst::new(workers));
    for w in 0..workers {
        wst.worker(w).enter_loop(1_000_000);
    }
    // Overload workers 1 and 6.
    wst.worker(1).conn_delta(1_000);
    wst.worker(6).add_pending(1_000);

    let decision = Scheduler::new(SchedConfig::default()).schedule(&wst, 1_500_000);
    assert!(!decision.bitmap.contains(1));
    assert!(!decision.bitmap.contains(6));
    assert_eq!(decision.alive, WorkerBitmap::all(workers));

    let dispatcher = ConnDispatcher::new(workers);
    for i in 0..2_000u32 {
        let flow = FlowKey::new(i, (i % 1_000) as u16, 42, 443);
        let out = dispatcher.dispatch(&[decision.bitmap], flow.hash());
        assert!(out.is_directed());
        assert_ne!(out.worker(), 1);
        assert_ne!(out.worker(), 6);
    }
}

#[test]
fn ebpf_group_follows_live_wst_changes() {
    let workers = 4;
    let wst = Arc::new(Wst::new(workers));
    let group = ReuseportGroup::new(workers);
    let sched = Scheduler::new(SchedConfig::default());
    for w in 0..workers {
        wst.worker(w).enter_loop(1_000_000);
    }
    // Round 1: all healthy.
    group.sync_bitmap(sched.schedule(&wst, 1_100_000).bitmap);
    let hits: std::collections::HashSet<usize> = (0..200u32)
        .map(|i| group.dispatch(i.wrapping_mul(0x9E37_79B9)).worker())
        .collect();
    assert_eq!(hits.len(), workers, "all workers should receive traffic");

    // Round 2: worker 3 accumulates connections; re-schedule and re-sync.
    wst.worker(3).conn_delta(500);
    group.sync_bitmap(sched.schedule(&wst, 1_200_000).bitmap);
    for i in 0..500u32 {
        let out = group.dispatch(i.wrapping_mul(0x517C_C1B7));
        assert!(out.is_directed());
        assert_ne!(out.worker(), 3);
    }

    // Round 3: worker 3 drains; it must return to rotation.
    wst.worker(3).conn_delta(-500);
    group.sync_bitmap(sched.schedule(&wst, 1_300_000).bitmap);
    let again: std::collections::HashSet<usize> = (0..500u32)
        .map(|i| group.dispatch(i.wrapping_mul(0x2545_F491)).worker())
        .collect();
    assert!(again.contains(&3), "drained worker must be re-admitted");
}

#[test]
fn native_and_bytecode_agree_under_scheduler_driven_bitmaps() {
    // Drive both dispatch paths with the *same* scheduler decisions over a
    // changing WST and require decision-identical outputs.
    let workers = 16;
    let wst = Wst::new(workers);
    let sched = Scheduler::new(SchedConfig::default());
    let group = ReuseportGroup::new(workers);
    let native = ConnDispatcher::new(workers);
    for round in 0u64..50 {
        for w in 0..workers {
            wst.worker(w).enter_loop(round * 1_000_000);
            wst.worker(w)
                .conn_delta(((round as usize + w) % 5) as i64 - 2);
        }
        let bm = sched.schedule(&wst, round * 1_000_000 + 500_000).bitmap;
        group.sync_bitmap(bm);
        for i in 0..50u32 {
            let hash = FlowKey::new(i, round as u16, 9, 80).hash();
            assert_eq!(
                native.dispatch(&[bm], hash),
                group.dispatch(hash),
                "divergence at round {round}, flow {i}"
            );
        }
    }
}

#[test]
fn all_hung_workers_fall_back_like_reuseport() {
    // §5.3.2: if the coarse filter yields too few workers, dispatch must
    // keep working via plain reuseport hashing.
    let workers = 4;
    let wst = Wst::new(workers);
    // Nobody ever re-enters the loop: all hung after the threshold.
    let sched = Scheduler::new(SchedConfig {
        hang_threshold_ns: 1_000,
        ..SchedConfig::default()
    });
    let d = sched.schedule(&wst, 1_000_000);
    assert!(d.bitmap.is_empty());
    let group = ReuseportGroup::new(workers);
    group.sync_bitmap(d.bitmap);
    let mut seen = std::collections::HashSet::new();
    for i in 0..200u32 {
        let out = group.dispatch(i.wrapping_mul(0x9E37_79B9));
        assert!(!out.is_directed());
        seen.insert(out.worker());
    }
    assert_eq!(seen.len(), workers, "fallback must hash across everyone");
}
