//! Two-level (grouped) dispatch program (§7).
//!
//! Beyond 64 workers the bitmap no longer fits one atomic word, so the
//! paper groups workers into sets of ≤64: "we first select a worker group
//! using a simple 4-tuple hash to choose an eBPF map (level-1 selection).
//! Within that group, we apply the original Hermes logic based on the
//! atomic int recorded in the eBPF map."
//!
//! In bytecode, "choosing an eBPF map" is computing a map fd at run time:
//! the per-group selection maps are registered at consecutive fds, so
//! `fd = sel_base + reciprocal_scale(hash, groups)` — and likewise for
//! the per-group sockarrays. Everything else is the Algorithm 2 ladder.

use crate::helpers::{HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE};
use crate::insn::{Alu, Insn, Reg};
use crate::maps::{ArrayMap, MapRef, MapRegistry, SockArrayMap};
use crate::program::{assemble, AttachedProgram};
use hermes_core::bitmap::WorkerBitmap;
use hermes_core::hash::{level2_hash, reciprocal_scale};
use hermes_core::Placement;
use std::sync::Arc;

/// A reuseport deployment of `groups * group_size` workers with the
/// two-level program attached.
#[derive(Debug)]
pub struct GroupedReuseportGroup {
    attached: AttachedProgram,
    sel_maps: Vec<Arc<ArrayMap>>,
    groups: usize,
    group_size: usize,
}

impl std::ops::Deref for GroupedReuseportGroup {
    type Target = AttachedProgram;

    fn deref(&self) -> &AttachedProgram {
        &self.attached
    }
}

impl GroupedReuseportGroup {
    /// Build `groups` groups of `group_size` workers each, all sockets
    /// registered (socket handle = *global* worker id).
    ///
    /// The program computes its map fds at run time; analysis bounds each
    /// helper's fd to a contiguous registered bank of one kind, so every
    /// candidate a call can name was checked at attach.
    pub fn new(groups: usize, group_size: usize) -> Self {
        assert!(groups >= 1, "need at least one group");
        let registry = MapRegistry::new();
        // Register all selection maps first (consecutive fds from 0),
        // then all sockarrays (consecutive fds from `groups`).
        let sel_maps: Vec<Arc<ArrayMap>> = (0..groups)
            .map(|_| {
                let m = Arc::new(ArrayMap::new(1));
                registry.register(MapRef::Array(Arc::clone(&m)));
                m
            })
            .collect();
        for g in 0..groups {
            let m = SockArrayMap::new(group_size);
            for w in 0..group_size {
                m.register(w, g * group_size + w);
            }
            registry.register(MapRef::SockArray(Arc::new(m)));
        }
        Self {
            attached: AttachedProgram::attach(registry, Self::build_program(groups, group_size)),
            sel_maps,
            groups,
            group_size,
        }
    }

    /// Assemble the two-level program: Algorithm 2 with the group index
    /// `g = reciprocal_scale(hash, groups)` parked in stack slot [fp-8],
    /// the saved hash replaced by `hash * groups` for level 2, the bitmap
    /// read from map fd `g` and the socket committed through sockarray fd
    /// `groups + g`.
    fn build_program(groups: usize, group_size: usize) -> Vec<Insn> {
        assemble(
            group_size,
            |a| {
                // Level 1: pick the group, park it on the stack.
                a.mov(Reg::R1, Reg::R6);
                a.mov_imm(Reg::R2, groups as i64);
                a.call(HELPER_RECIPROCAL_SCALE);
                a.stx_stack(-8, Reg::R0);
                // Level 2 scales the low word of hash * groups, the bits
                // level 1 did not use (`level2_hash`); the helper reads
                // its first argument as a u32.
                a.alu_imm(Alu::Mul, Reg::R6, groups as i64);
                // Level 2 lookup: C = map_lookup(sel_base + g, 0); sel_base = 0.
                a.ldx_stack(Reg::R1, -8);
                a.mov_imm(Reg::R2, 0);
                a.call(HELPER_MAP_LOOKUP);
            },
            |a| {
                a.ldx_stack(Reg::R1, -8);
                a.alu_imm(Alu::Add, Reg::R1, groups as i64);
            },
        )
    }

    /// Groups in the deployment.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Workers per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Userspace sync: store one group's scheduling bitmap.
    pub fn sync_group_bitmap(&self, group: usize, bitmap: WorkerBitmap) {
        self.sel_maps[group].update(0, bitmap.0);
        hermes_trace::trace_count!(hermes_trace::CounterId::KernelBitmapSyncs);
    }

    /// Kernel-side dispatch: run the program; on fallback, hash within
    /// the (deterministically known) level-1 group. Sockets are registered
    /// under their global worker id, so a committed socket is the placement.
    pub fn dispatch(&self, hash: u32) -> Placement {
        let result = self.run(hash);
        let group = reciprocal_scale(hash, self.groups as u32) as usize;
        let directed = result.return_value != 0;
        let worker = if directed {
            result.selected_sock.expect("committed socket")
        } else {
            let hash = level2_hash(hash, self.groups);
            group * self.group_size + reciprocal_scale(hash, self.group_size as u32) as usize
        };
        Placement {
            worker,
            group,
            directed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::dispatch::ConnDispatcher;
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn program_verifies_for_varied_shapes() {
        for (groups, size) in [(1usize, 64usize), (2, 64), (4, 32), (16, 8), (128, 1)] {
            let g = GroupedReuseportGroup::new(groups, size);
            assert_eq!(g.groups(), groups);
            assert_eq!(g.group_size(), size);
        }
    }

    #[test]
    fn grouped_program_attaches_clean() {
        let g = GroupedReuseportGroup::new(4, 16);
        assert_eq!(g.tier().trace_code(), 0);
        assert!(g.analysis().is_clean());
    }

    #[test]
    fn level1_is_hash_stable_and_level2_respects_bitmap() {
        let g = GroupedReuseportGroup::new(4, 8);
        for grp in 0..4 {
            g.sync_group_bitmap(grp, WorkerBitmap::from_workers([1, 3, 5]));
        }
        for i in 0..500u32 {
            let h = i.wrapping_mul(0x9E37_79B9);
            let a = g.dispatch(h);
            let b = g.dispatch(h);
            assert_eq!(a, b, "dispatch must be deterministic");
            assert!(a.directed);
            assert!(a.group < 4);
            assert_eq!(a.worker / 8, a.group);
            assert!([1usize, 3, 5].contains(&(a.worker % 8)));
        }
    }

    #[test]
    fn empty_group_bitmap_falls_back_within_the_group() {
        let g = GroupedReuseportGroup::new(4, 8);
        // Only group 2 has a healthy bitmap; others empty.
        g.sync_group_bitmap(2, WorkerBitmap::from_workers([0, 1]));
        let mut saw_directed = false;
        let mut saw_fallback = false;
        for i in 0..2_000u32 {
            let out = g.dispatch(i.wrapping_mul(0x517C_C1B7));
            if out.group == 2 {
                assert!(out.directed);
                saw_directed = true;
            } else {
                assert!(!out.directed);
                assert_eq!(out.worker / 8, out.group);
                saw_fallback = true;
            }
        }
        assert!(saw_directed && saw_fallback);
    }

    /// The grouped bytecode agrees with the native composition: level-1
    /// reciprocal_scale + level-2 ConnDispatcher per group on `level2_hash`.
    #[test]
    fn grouped_bytecode_matches_native() {
        for_each_case(256, |g| {
            let groups = 1 + g.index(5);
            let bitmaps: Vec<u64> = (0..groups).map(|_| g.next_u64()).collect();
            let (hash, group_size) = (g.next_u64() as u32, 1 + g.index(64));
            let grouped = GroupedReuseportGroup::new(groups, group_size);
            for (i, &b) in bitmaps.iter().enumerate() {
                grouped.sync_group_bitmap(i, WorkerBitmap(b));
            }
            let out = grouped.dispatch(hash);
            let expect_group = reciprocal_scale(hash, groups as u32) as usize;
            assert_eq!(out.group, expect_group, "hash {hash:#x} of {groups} groups");
            let native = ConnDispatcher::new(group_size).dispatch(
                WorkerBitmap(bitmaps[expect_group]),
                level2_hash(hash, groups),
            );
            assert_eq!(
                out.worker,
                expect_group * group_size + native.worker(),
                "hash {hash:#x} {bitmaps:x?}"
            );
            assert_eq!(out.directed, native.is_directed());
        });
    }
}
