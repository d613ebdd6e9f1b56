//! The dispatch plane is visible to the counter registry in every shape.
//!
//! `dispatch.directed` / `dispatch.fallback` / `dispatch.batches` /
//! `dispatch.batched_flows` and the `bitmap.*` pair are tallied by
//! [`DispatchPlane`] itself, once, whichever of {native, bytecode} ×
//! {one group, many} executes the decision — the grouped shapes used to
//! read 0. Requires the `trace` feature (ci.sh runs it in a lane of its
//! own); the file holds exactly one test so the global counter deltas
//! cannot race a sibling test in the same process.

#![cfg(feature = "trace")]

use hermes_core::WorkerBitmap;
use hermes_ebpf::DispatchPlane;
use hermes_trace::{counter_get, CounterId};

#[test]
fn every_plane_shape_counts_each_flow_and_each_sync_once() {
    const FLOWS: u64 = 64;
    let hashes: Vec<u32> = (0..FLOWS as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    type Build = fn(usize, usize) -> DispatchPlane;
    let shapes: [(&str, Build, usize); 4] = [
        ("native flat", DispatchPlane::native, 1),
        ("native grouped", DispatchPlane::native, 2),
        ("bytecode flat", DispatchPlane::bytecode, 1),
        ("bytecode grouped", DispatchPlane::bytecode, 2),
    ];
    for (shape, build, groups) in shapes {
        let plane = build(groups, 8);
        let read =
            |ids: &[CounterId]| -> Vec<u64> { ids.iter().map(|&id| counter_get(id)).collect() };
        let ids = [
            CounterId::DirectedDispatches,
            CounterId::FallbackDispatches,
            CounterId::DispatchBatches,
            CounterId::BatchedFlows,
            CounterId::GroupDispatches,
            CounterId::KernelBitmapSyncs,
            CounterId::BitmapSyncSkips,
        ];
        let before = read(&ids);
        // Group 0 gets candidates, any other group stays empty: both the
        // directed and the fallback path run in the grouped shapes.
        plane.sync(0, WorkerBitmap::from_workers([1, 4, 6]));
        plane.sync(0, WorkerBitmap::from_workers([1, 4, 6]));
        let mut placed = Vec::new();
        plane.dispatch_batch(&hashes, &mut placed);
        let delta: Vec<u64> = read(&ids).iter().zip(&before).map(|(a, b)| a - b).collect();
        let [directed, fallback, batches, batched_flows, group_dispatches, syncs, skips] =
            delta[..]
        else {
            unreachable!("seven counters were read")
        };
        assert_eq!(
            directed + fallback,
            FLOWS,
            "{shape}: a flow went uncounted or twice"
        );
        assert_eq!(
            directed,
            placed.iter().filter(|p| p.directed).count() as u64,
            "{shape}"
        );
        assert!(directed > 0, "{shape}: group 0 has three candidates");
        assert_eq!(batches, 1, "{shape}");
        assert_eq!(batched_flows, FLOWS, "{shape}");
        assert_eq!(
            group_dispatches,
            if groups > 1 { FLOWS } else { 0 },
            "{shape}"
        );
        assert_eq!(
            (syncs, skips),
            (1, 1),
            "{shape}: one store, one elided repeat"
        );

        let before = read(&ids[..2]);
        plane.dispatch(hashes[0]);
        let after = read(&ids[..2]);
        assert_eq!(
            after[0] + after[1] - before[0] - before[1],
            1,
            "{shape}: single dispatch"
        );
    }
}
