//! Two-level worker-group scheduling.
//!
//! §7 ("Will the 64-bit atomic limit Hermes on 128-core servers?"): workers
//! are partitioned into groups of at most 64. A new connection first picks a
//! group by hashing (level 1), then the ordinary Hermes bitmap logic picks a
//! worker within the group (level 2). Each group has its own independent WST
//! and selection map, updated only by its own workers.
//!
//! Appendix C (Fig. A6) generalizes the same structure into a cache-locality
//! knob: hashing the *DIP & Dport* (instead of the full 4-tuple) at level 1
//! pins a tenant's traffic to one group while level 2 still balances within
//! it. One group ⇒ standard Hermes; one worker per group ⇒ pure reuseport.

use crate::bitmap::WorkerBitmap;
use crate::dispatch::{ConnDispatcher, DispatchOutcome};
use crate::hash::{jhash_3words, level2_hash, reciprocal_scale, FlowKey};
use crate::sched::{SchedConfig, SchedDecision, Scheduler};
use crate::selmap::SelMap;
use crate::wst::Wst;
use crate::WorkerId;
use std::sync::Arc;

/// What the level-1 group hash covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupBy {
    /// Hash the full 4-tuple (§7): connections spray across groups.
    FlowHash,
    /// Hash destination IP and port only (Appendix C, Fig. A6): a tenant's
    /// traffic sticks to one group for cache locality.
    DipDport,
}

/// A worker's position under two-level scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupedWorker {
    /// Group index.
    pub group: usize,
    /// Worker index within the group.
    pub local: WorkerId,
    /// Flattened global worker id (`group * group_size + local`).
    pub global: WorkerId,
}

/// One worker group: its own WST, selection map, and dispatcher.
#[derive(Debug)]
pub struct Group {
    wst: Arc<Wst>,
    sel: Arc<SelMap>,
    dispatcher: ConnDispatcher,
}

impl Group {
    /// The group's worker status table.
    pub fn wst(&self) -> &Arc<Wst> {
        &self.wst
    }

    /// The group's selection map.
    pub fn sel(&self) -> &Arc<SelMap> {
        &self.sel
    }

    /// Workers in this group.
    pub fn workers(&self) -> usize {
        self.dispatcher.workers()
    }
}

/// Two-level Hermes scheduler/dispatcher over `groups * group_size`
/// workers.
#[derive(Debug)]
pub struct GroupScheduler {
    groups: Vec<Group>,
    group_size: usize,
    group_by: GroupBy,
    scheduler: Scheduler,
}

impl GroupScheduler {
    /// Partition `total_workers` into groups of `group_size` (last group may
    /// be smaller), with level-1 hashing per `group_by`.
    pub fn new(
        total_workers: usize,
        group_size: usize,
        group_by: GroupBy,
        config: SchedConfig,
    ) -> Self {
        assert!(total_workers >= 1, "need at least one worker");
        assert!(
            (1..=crate::MAX_WORKERS_PER_GROUP).contains(&group_size),
            "group size must be 1..=64"
        );
        let mut groups = Vec::new();
        let mut remaining = total_workers;
        while remaining > 0 {
            let n = remaining.min(group_size);
            groups.push(Group {
                wst: Arc::new(Wst::new(n)),
                sel: Arc::new(SelMap::new()),
                dispatcher: ConnDispatcher::new(n),
            });
            remaining -= n;
        }
        Self {
            groups,
            group_size,
            group_by,
            scheduler: Scheduler::new(config),
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total workers across all groups.
    pub fn total_workers(&self) -> usize {
        self.groups.iter().map(Group::workers).sum()
    }

    /// Borrow group `g`.
    pub fn group(&self, g: usize) -> &Group {
        &self.groups[g]
    }

    /// Resolve a global worker id into its group coordinates.
    pub fn locate(&self, global: WorkerId) -> GroupedWorker {
        assert!(global < self.total_workers(), "worker id out of range");
        GroupedWorker {
            group: global / self.group_size,
            local: global % self.group_size,
            global,
        }
    }

    /// Level-1 group selection for a flow.
    pub fn group_for(&self, flow: &FlowKey) -> usize {
        let h = match self.group_by {
            GroupBy::FlowHash => flow.hash(),
            GroupBy::DipDport => jhash_3words(flow.dst_ip, flow.dst_port as u32, 0, 0x4a6f_9d21),
        };
        reciprocal_scale(h, self.groups.len() as u32) as usize
    }

    /// Run the per-group scheduler for group `g` at `now_ns` and sync its
    /// bitmap. Returns the decision (mirrors `schedule_and_sync`). The sync
    /// is elided when the recomputed bitmap matches what the kernel already
    /// sees ([`SelMap::store_if_changed`]) — in steady state, per-group
    /// schedulers converge and re-publish nothing.
    pub fn schedule_group(&self, g: usize, now_ns: u64) -> SchedDecision {
        let decision = self.scheduler.schedule(&self.groups[g].wst, now_ns);
        self.groups[g].sel.store_if_changed(decision.bitmap);
        decision
    }

    /// Run the scheduler for every group (used by harnesses; production
    /// workers each schedule only their own group).
    pub fn schedule_all(&self, now_ns: u64) {
        for g in 0..self.groups.len() {
            self.schedule_group(g, now_ns);
        }
    }

    /// Full two-level dispatch for a new connection.
    pub fn dispatch(&self, flow: &FlowKey) -> (usize, DispatchOutcome) {
        let g = self.group_for(flow);
        let group = &self.groups[g];
        let hash = level2_hash(flow.hash(), self.groups.len());
        (g, group.dispatcher.dispatch(group.sel.load(), hash))
    }

    /// Flatten a `(group, local)` outcome into the global worker id.
    pub fn global_id(&self, group: usize, local: WorkerId) -> WorkerId {
        group * self.group_size + local
    }

    /// Union of per-group bitmaps lifted to global ids — monitoring helper.
    pub fn global_selected(&self) -> Vec<WorkerId> {
        let mut out = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            let bm: WorkerBitmap = group.sel.load();
            out.extend(bm.iter().map(|local| self.global_id(g, local)));
        }
        out
    }
}

/// Where one new connection went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Flattened global worker id (`group * group_size + local`).
    pub worker: WorkerId,
    /// Level-1 group the flow hashed into (0 in a one-group deployment).
    pub group: usize,
    /// Whether the userspace bitmap directed the choice (false ⇒ reuseport
    /// hash fallback within the group).
    pub directed: bool,
}

/// Kernel-side two-level dispatch over per-group selection maps — the
/// native counterpart of the grouped eBPF program, and with one group the
/// counterpart of the flat one.
///
/// Holds one `(SelMap, ConnDispatcher)` pair per group. A new connection
/// picks its group by `reciprocal_scale` over the flow hash (level 1), then
/// runs Algorithm 2 against that group's bitmap on the bits level 1 did not
/// use ([`level2_hash`], level 2): one decision per connection, as the
/// reuseport hook runs it.
///
/// A pure decision procedure: it touches no flight-recorder counter (the
/// simulator, its one caller outside tests, tallies each placed SYN once).
#[derive(Debug)]
pub struct GroupedConnDispatcher {
    groups: Vec<(Arc<SelMap>, ConnDispatcher)>,
    group_size: usize,
}

impl GroupedConnDispatcher {
    /// Dispatcher over `sel_maps.len()` groups. `sizes[g]` workers live in
    /// group `g`; `group_size` is the flattening stride (the nominal full
    /// group width, so a ragged last group still gets contiguous global
    /// ids).
    pub fn new(sel_maps: Vec<Arc<SelMap>>, sizes: &[usize], group_size: usize) -> Self {
        assert_eq!(sel_maps.len(), sizes.len(), "one size per group");
        assert!(!sel_maps.is_empty(), "need at least one group");
        let groups = sel_maps
            .into_iter()
            .zip(sizes)
            .map(|(sel, &n)| (sel, ConnDispatcher::new(n)))
            .collect();
        Self { groups, group_size }
    }

    /// Dispatcher sharing a [`GroupScheduler`]'s selection maps: scheduling
    /// decisions published by the scheduler's workers are immediately
    /// visible to dispatch, with no copies and no locks.
    pub fn from_scheduler(gs: &GroupScheduler) -> Self {
        let sel_maps = (0..gs.group_count())
            .map(|g| Arc::clone(gs.group(g).sel()))
            .collect();
        let sizes: Vec<usize> = (0..gs.group_count())
            .map(|g| gs.group(g).workers())
            .collect();
        Self::new(sel_maps, &sizes, gs.group_size)
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Flattening stride (nominal workers per group).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Total workers across all groups.
    pub fn total_workers(&self) -> usize {
        self.groups.iter().map(|(_, d)| d.workers()).sum()
    }

    /// Level-1 group selection for a flow hash.
    #[inline]
    pub fn group_for(&self, hash: u32) -> usize {
        reciprocal_scale(hash, self.groups.len() as u32) as usize
    }

    /// Full two-level dispatch for one connection.
    pub fn dispatch(&self, hash: u32) -> Placement {
        let group = self.group_for(hash);
        let hash = level2_hash(hash, self.groups.len());
        let (sel, d) = &self.groups[group];
        let (local, directed) = match d.select(sel.load(), hash) {
            Some(local) => (local, true),
            None => (d.reuseport_select(hash), false),
        };
        Placement {
            worker: group * self.group_size + local,
            group,
            directed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedConfig {
        SchedConfig {
            hang_threshold_ns: 100,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn partitions_workers_into_groups() {
        let gs = GroupScheduler::new(130, 64, GroupBy::FlowHash, cfg());
        assert_eq!(gs.group_count(), 3);
        assert_eq!(gs.total_workers(), 130);
        assert_eq!(gs.group(0).workers(), 64);
        assert_eq!(gs.group(2).workers(), 2);
    }

    #[test]
    fn locate_round_trips() {
        let gs = GroupScheduler::new(130, 64, GroupBy::FlowHash, cfg());
        let w = gs.locate(100);
        assert_eq!(w.group, 1);
        assert_eq!(w.local, 36);
        assert_eq!(gs.global_id(w.group, w.local), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_out_of_range() {
        GroupScheduler::new(10, 5, GroupBy::FlowHash, cfg()).locate(10);
    }

    #[test]
    fn flowhash_sprays_groups_dipdport_pins_them() {
        let spray = GroupScheduler::new(128, 32, GroupBy::FlowHash, cfg());
        let pin = GroupScheduler::new(128, 32, GroupBy::DipDport, cfg());
        let mut spray_groups = std::collections::HashSet::new();
        let mut pin_groups = std::collections::HashSet::new();
        // Same tenant (DIP/Dport), many client flows.
        for i in 0..500u32 {
            let flow = FlowKey::new(0x0a00_0000 + i, 1024 + i as u16, 0xc0a8_0001, 8443);
            spray_groups.insert(spray.group_for(&flow));
            pin_groups.insert(pin.group_for(&flow));
        }
        assert_eq!(pin_groups.len(), 1, "DipDport must pin tenant to a group");
        assert!(
            spray_groups.len() > 1,
            "FlowHash must spread a tenant across groups"
        );
    }

    #[test]
    fn dispatch_honours_group_bitmaps() {
        let gs = GroupScheduler::new(8, 4, GroupBy::FlowHash, cfg());
        // Bring all workers up, overload worker local=0 of each group.
        for g in 0..2 {
            for w in 0..4 {
                gs.group(g).wst().worker(w).enter_loop(1_000);
            }
            gs.group(g).wst().worker(0).conn_delta(1_000);
        }
        gs.schedule_all(1_010);
        for i in 0..300u32 {
            let flow = FlowKey::new(i, i as u16, 7, 443);
            let (g, out) = gs.dispatch(&flow);
            assert!(out.is_directed());
            assert_ne!(out.worker(), 0, "overloaded worker selected in group {g}");
        }
    }

    #[test]
    fn degenerate_configs_match_paper_claims() {
        // One group ⇒ standard Hermes (single WST covering everyone).
        let hermes = GroupScheduler::new(32, 32, GroupBy::DipDport, cfg());
        assert_eq!(hermes.group_count(), 1);
        // One worker per group ⇒ reduces to reuseport: every group has a
        // single candidate, the n>1 guard always fails, selection is pure
        // level-1 hashing.
        let reuseport = GroupScheduler::new(8, 1, GroupBy::FlowHash, cfg());
        for g in 0..8 {
            reuseport.group(g).wst().worker(0).enter_loop(1_000);
        }
        reuseport.schedule_all(1_010);
        let flow = FlowKey::new(1, 2, 3, 4);
        let (_, out) = reuseport.dispatch(&flow);
        assert!(!out.is_directed(), "single-worker groups must fall back");
    }

    #[test]
    fn schedule_group_elides_steady_state_syncs() {
        let gs = GroupScheduler::new(8, 4, GroupBy::FlowHash, cfg());
        for g in 0..2 {
            for w in 0..4 {
                gs.group(g).wst().worker(w).enter_loop(1_000);
            }
        }
        // First pass publishes; nine steady-state repeats publish nothing.
        for round in 0..10 {
            gs.schedule_all(1_010 + round);
        }
        for g in 0..2 {
            assert_eq!(gs.group(g).sel().update_count(), 1, "group {g}");
            assert_eq!(gs.group(g).sel().skipped_count(), 9, "group {g}");
        }
        // A load change re-publishes exactly once more.
        gs.group(1).wst().worker(0).conn_delta(1_000);
        gs.schedule_all(1_030);
        assert_eq!(gs.group(0).sel().update_count(), 1);
        assert_eq!(gs.group(1).sel().update_count(), 2);
    }

    #[test]
    fn grouped_dispatcher_places_through_the_schedulers_maps() {
        let gs = GroupScheduler::new(16, 4, GroupBy::FlowHash, cfg());
        let d = GroupedConnDispatcher::from_scheduler(&gs);
        assert_eq!(d.group_count(), 4);
        assert_eq!(d.total_workers(), 16);
        for g in 0..4 {
            for w in 0..4 {
                gs.group(g).wst().worker(w).enter_loop(1_000);
            }
            gs.group(g).wst().worker(1).conn_delta(1_000);
        }
        // Published after the dispatcher was built: the maps are shared.
        gs.schedule_all(1_010);
        for h in (0..512u32).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            let got = d.dispatch(h);
            assert_eq!(got.group, reciprocal_scale(h, 4) as usize);
            assert!(got.directed);
            assert_ne!(got.worker - got.group * 4, 1, "overloaded worker selected");
        }
    }

    #[test]
    fn grouped_dispatcher_falls_back_per_group() {
        let gs = GroupScheduler::new(8, 4, GroupBy::FlowHash, cfg());
        // Only group 0 schedules; group 1's bitmap stays empty.
        for w in 0..4 {
            gs.group(0).wst().worker(w).enter_loop(1_000);
        }
        gs.schedule_all(1_010);
        let d = GroupedConnDispatcher::from_scheduler(&gs);
        for h in (0..256u32).map(|i| i.wrapping_mul(0x517C_C1B7)) {
            let out = d.dispatch(h);
            assert_eq!(out.directed, out.group == 0, "empty bitmap must fall back");
            assert!(out.worker - out.group * 4 < 4);
        }
    }

    #[test]
    fn global_selected_lifts_local_ids() {
        let gs = GroupScheduler::new(6, 3, GroupBy::FlowHash, cfg());
        for g in 0..2 {
            for w in 0..3 {
                gs.group(g).wst().worker(w).enter_loop(1_000);
            }
        }
        gs.schedule_all(1_010);
        let mut sel = gs.global_selected();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3, 4, 5]);
    }
}
