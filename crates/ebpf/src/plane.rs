//! The kernel-side dispatch plane: the one attach point every consumer
//! places connections through.
//!
//! The paper has one kernel-side mechanism — the Algorithm 2 program at one
//! `SO_ATTACH_REUSEPORT_EBPF` attach point (§5.4), which §7 extends to
//! worker groups by picking the map first. [`DispatchPlane`] is that
//! mechanism for `groups × group_size` workers, in either of its two
//! executions:
//!
//! ```text
//! DispatchPlane ─┬─ native   → GroupedConnDispatcher (core's oracle; one group = flat)
//!                └─ bytecode ─┬─ groups == 1 → ReuseportGroup        (Algorithm 2)
//!                             └─ groups  > 1 → GroupedReuseportGroup (§7, map picked first)
//! ```
//!
//! Userspace schedulers publish with [`sync`](DispatchPlane::sync); the
//! simulator's SYN path places with
//! [`dispatch`](DispatchPlane::dispatch) /
//! [`dispatch_batch`](DispatchPlane::dispatch_batch). The {flat, grouped} ×
//! {oracle, bytecode} cross product is matched here and nowhere else, the
//! admission bar lives in the attach constructors
//! ([`crate::program::AttachedProgram`]), and the `dispatch.*` counters are
//! tallied here, once, for every shape.

use crate::group_program::{GroupedOutcome, GroupedReuseportGroup};
use crate::program::ReuseportGroup;
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::{GroupedConnDispatcher, SelMap, WorkerBitmap};
use hermes_trace::CounterId;
use std::sync::Arc;

pub use hermes_core::Placement;

/// What executes the placement decision.
#[derive(Debug)]
enum Kernel {
    Native(GroupedConnDispatcher),
    Flat(ReuseportGroup),
    Grouped(GroupedReuseportGroup),
}

/// `groups` groups of `group_size` workers behind one dispatch program.
///
/// ```
/// use hermes_ebpf::DispatchPlane;
/// use hermes_core::WorkerBitmap;
/// let plane = DispatchPlane::bytecode(2, 4);
/// plane.sync(1, WorkerBitmap::from_workers([0, 3]));
/// let p = plane.dispatch(0xFFFF_0000); // the top of the hash range: group 1
/// assert!(p.directed && p.group == 1);
/// assert!([4usize, 7].contains(&p.worker));
/// ```
#[derive(Debug)]
pub struct DispatchPlane {
    kernel: Kernel,
    groups: usize,
    group_size: usize,
}

impl DispatchPlane {
    /// The admitted bytecode, attached and run by the checked interpreter:
    /// the paper's flat program for one group, the §7 program for more.
    pub fn bytecode(groups: usize, group_size: usize) -> Self {
        let kernel = if groups == 1 {
            Kernel::Flat(ReuseportGroup::new(group_size))
        } else {
            Kernel::Grouped(GroupedReuseportGroup::new(groups, group_size))
        };
        Self {
            kernel,
            groups,
            group_size,
        }
    }

    /// Core's native oracle for the same decision procedure (what the
    /// simulator runs when program execution is not under study).
    pub fn native(groups: usize, group_size: usize) -> Self {
        let sel_maps = (0..groups).map(|_| Arc::new(SelMap::new())).collect();
        let sizes = vec![group_size; groups];
        Self {
            kernel: Kernel::Native(GroupedConnDispatcher::new(sel_maps, &sizes, group_size)),
            groups,
            group_size,
        }
    }

    /// Groups in the deployment.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Workers per group (the global-id stride).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Userspace sync: publish `group`'s scheduling bitmap (Algorithm 1
    /// line 8). A steady-state scheduler recomputes the same bitmap every
    /// loop; re-storing it would be a pure cross-core cache-line ping, so
    /// an unchanged bitmap is skipped and counted as `bitmap.sync_skips`.
    pub fn sync(&self, group: usize, bitmap: WorkerBitmap) {
        match &self.kernel {
            // `SelMap` elides and counts on its own.
            Kernel::Native(d) => {
                d.sel(group).store_if_changed(bitmap);
            }
            Kernel::Flat(g) => {
                assert_eq!(group, 0, "a one-group plane has only group 0");
                publish(g.bitmap(), bitmap, || g.sync_bitmap(bitmap));
            }
            Kernel::Grouped(g) => publish(g.group_bitmap(group), bitmap, || {
                g.sync_group_bitmap(group, bitmap)
            }),
        }
    }

    /// Kernel-side placement of one new connection with 4-tuple hash
    /// `hash`.
    pub fn dispatch(&self, hash: u32) -> Placement {
        let placed = match &self.kernel {
            Kernel::Native(d) => d.dispatch(hash),
            Kernel::Flat(g) => flat(g.dispatch(hash)),
            Kernel::Grouped(g) => grouped(g.dispatch(hash), self.group_size),
        };
        self.count(1, usize::from(placed.directed));
        placed
    }

    /// Kernel-side placement of a whole arrival burst. Placements
    /// are appended to `out` in order and equal per-hash
    /// [`dispatch`](Self::dispatch) calls under the same bitmaps.
    pub fn dispatch_batch(&self, hashes: &[u32], out: &mut Vec<Placement>) {
        let start = out.len();
        out.reserve(hashes.len());
        match &self.kernel {
            Kernel::Native(d) => d.dispatch_batch(hashes, out),
            Kernel::Flat(g) => g.dispatch_each(hashes, |o| out.push(flat(o))),
            Kernel::Grouped(g) => {
                g.dispatch_each(hashes, |o| out.push(grouped(o, self.group_size)))
            }
        }
        hermes_trace::trace_count!(CounterId::DispatchBatches);
        hermes_trace::trace_count!(CounterId::BatchedFlows, hashes.len());
        if hermes_trace::ENABLED {
            let directed = out[start..].iter().filter(|p| p.directed).count();
            self.count(hashes.len(), directed);
        }
    }

    /// Tally `flows` placements, `directed` of them through the bitmap.
    #[inline]
    fn count(&self, flows: usize, directed: usize) {
        hermes_trace::trace_count!(CounterId::DirectedDispatches, directed);
        hermes_trace::trace_count!(CounterId::FallbackDispatches, flows - directed);
        if self.groups > 1 {
            hermes_trace::trace_count!(CounterId::GroupDispatches, flows);
        }
    }
}

/// `SelMap::store_if_changed` for the bytecode maps and the kernel's:
/// `store` only a bitmap that differs from the `current` one.
pub(crate) fn publish(current: WorkerBitmap, bitmap: WorkerBitmap, store: impl FnOnce()) {
    if current == bitmap {
        hermes_trace::trace_count!(CounterId::BitmapSyncSkips);
    } else {
        store();
    }
}

fn flat(outcome: DispatchOutcome) -> Placement {
    Placement {
        worker: outcome.worker(),
        group: 0,
        directed: outcome.is_directed(),
    }
}

fn grouped(outcome: GroupedOutcome, group_size: usize) -> Placement {
    Placement {
        worker: outcome.global(group_size),
        group: outcome.group,
        directed: outcome.directed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUP_SIZE: usize = 8;

    /// Five bitmaps per group, rotated by group so no two groups of a
    /// round share one: empty, a singleton (guard fails), a pair, a
    /// spread, and full.
    fn bitmap(round: usize, group: usize) -> WorkerBitmap {
        [
            WorkerBitmap::EMPTY,
            WorkerBitmap::from_workers([3]),
            WorkerBitmap::from_workers([1, 4]),
            WorkerBitmap::from_workers([0, 2, 5, 6, 7]),
            WorkerBitmap::all(GROUP_SIZE),
        ][(round + group) % 5]
    }

    /// The property the consumers rely on, over bitmaps that stay put:
    /// a batch places exactly like per-connection dispatch, the native
    /// oracle exactly like the bytecode, and one group exactly like the
    /// §7 program attached with one group ("groups = 1 *is* flat").
    #[test]
    fn every_shape_places_identically_under_fixed_bitmaps() {
        let hashes: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for groups in [1usize, 2, 4] {
            let native = DispatchPlane::native(groups, GROUP_SIZE);
            let bytecode = DispatchPlane::bytecode(groups, GROUP_SIZE);
            assert_eq!(
                (bytecode.groups(), bytecode.group_size()),
                (groups, GROUP_SIZE)
            );
            let one_group = (groups == 1).then(|| GroupedReuseportGroup::new(1, GROUP_SIZE));
            let (mut directed, mut fallback) = (0, 0);
            for round in 0..5 {
                for g in 0..groups {
                    native.sync(g, bitmap(round, g));
                    bytecode.sync(g, bitmap(round, g));
                }
                let singles: Vec<Placement> =
                    hashes.iter().map(|&h| bytecode.dispatch(h)).collect();
                let (mut batched, mut oracle) = (Vec::new(), Vec::new());
                // Burst by burst, as the accept loop calls it.
                for burst in hashes.chunks(hermes_core::DISPATCH_BATCH) {
                    bytecode.dispatch_batch(burst, &mut batched);
                    native.dispatch_batch(burst, &mut oracle);
                }
                assert_eq!(
                    batched, singles,
                    "groups={groups} round={round}: batch != single"
                );
                assert_eq!(
                    oracle, singles,
                    "groups={groups} round={round}: native != bytecode"
                );
                for (&h, p) in hashes.iter().zip(&singles) {
                    assert_eq!(native.dispatch(h), *p, "groups={groups} hash {h:#x}");
                    assert_eq!(p.worker / GROUP_SIZE, p.group);
                    if p.directed {
                        assert!(bitmap(round, p.group).contains(p.worker % GROUP_SIZE));
                    }
                }
                if let Some(attached) = &one_group {
                    attached.sync_group_bitmap(0, bitmap(round, 0));
                    let mut flattened = Vec::new();
                    attached.dispatch_each(&hashes, |o| flattened.push(grouped(o, GROUP_SIZE)));
                    assert_eq!(
                        flattened, singles,
                        "round={round}: flat != one-group §7 program"
                    );
                }
                directed += singles.iter().filter(|p| p.directed).count();
                fallback += singles.iter().filter(|p| !p.directed).count();
            }
            assert!(
                directed > 0 && fallback > 0,
                "groups={groups}: the bitmaps must exercise both paths"
            );
        }
    }

    #[test]
    fn sync_publishes_per_group() {
        for plane in [DispatchPlane::native(2, 4), DispatchPlane::bytecode(2, 4)] {
            plane.sync(1, WorkerBitmap::all(4));
            // The top of the hash range is group 1, the bottom group 0.
            assert!(plane.dispatch(u32::MAX).directed);
            assert!(!plane.dispatch(0).directed, "group 0 was never published");
        }
    }

    #[test]
    #[should_panic(expected = "only group 0")]
    fn a_one_group_plane_has_no_group_one() {
        DispatchPlane::bytecode(1, 4).sync(1, WorkerBitmap::all(4));
    }
}
