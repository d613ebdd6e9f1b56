//! Per-mode dispatch machinery.
//!
//! [`Dispatcher`] answers the two questions the simulator's kernel model
//! asks: *which socket gets this SYN?* (per-worker-socket modes answer at
//! handshake time; epoll exclusive's shared queue answers `None` and lets
//! wakeup order decide) and *which idle worker wakes when the shared
//! accept queue becomes readable?*

use crate::config::Mode;
use crate::metrics::SchedStats;
use hermes_core::sched::SchedConfig;
use hermes_core::status::WorkerStatus;
use hermes_core::{FlowKey, GroupedConnDispatcher, Placement, Scheduler, SelMap, Wst};
use std::sync::Arc;

/// Hermes state bundle: the WST, the scheduler that runs over it, and the
/// kernel-side dispatch decision, core's native oracle for the program the
/// kernel runs. A simulated device has at most 64 workers, so it is one
/// group (§7, `hermes_core::group::worker_groups`).
pub struct HermesState {
    /// The worker status table every simulated loop pass writes.
    wst: Wst,
    /// Algorithm 1 over `wst`.
    scheduler: Scheduler,
    /// The kernel-visible bitmap `scheduler` publishes into.
    sel: Arc<SelMap>,
    /// Places SYNs from `sel`.
    dispatcher: GroupedConnDispatcher,
    /// Scheduler/dispatch statistics (Fig. 14).
    pub stats: SchedStats,
}

impl HermesState {
    fn new(workers: usize, config: SchedConfig) -> Self {
        let sel = Arc::new(SelMap::new());
        Self {
            wst: Wst::new(workers),
            scheduler: Scheduler::new(config),
            dispatcher: GroupedConnDispatcher::new(vec![Arc::clone(&sel)], workers),
            sel,
            stats: SchedStats::default(),
        }
    }

    /// Status cell for worker `w`.
    pub fn worker(&self, w: usize) -> &WorkerStatus {
        self.wst.worker(w)
    }

    /// `schedule_and_sync` (Algorithm 1) as run from a worker's event loop:
    /// run the cascade and publish the bitmap to the kernel-visible map
    /// (redundant republishes are elided and counted, just like the real
    /// load balancer's sync path). The pass traces on `lane`, the running
    /// worker's.
    pub fn schedule_and_sync(&mut self, now_ns: u64, lane: u32) {
        let decision = self.scheduler.schedule_on_lane(&self.wst, now_ns, lane);
        self.sel.store_if_changed(decision.bitmap);
        self.stats.calls += 1;
        self.stats.selected_sum += u64::from(decision.bitmap.count());
        self.stats.alive_sum += u64::from(decision.alive.count());
    }

    /// Kernel-side dispatch of one SYN (Algorithm 2): one decision per
    /// connection, as the reuseport hook runs it.
    pub fn dispatch(&mut self, flow: &FlowKey) -> Placement {
        let placed = self.dispatcher.dispatch(flow.hash());
        self.tally(placed);
        placed
    }

    /// Dispatch decision without touching the per-SYN statistics — used by
    /// degradation re-homing (Appendix C), which is not a new connection
    /// and must not inflate the Fig. 14 counters.
    pub fn redirect(&self, flow: &FlowKey) -> usize {
        self.dispatcher.dispatch(flow.hash()).worker
    }

    /// Fig. 14's directed/fallback split: the one place a placed SYN is
    /// counted.
    fn tally(&mut self, placed: Placement) {
        if placed.directed {
            self.stats.directed_dispatches += 1;
        } else {
            self.stats.fallback_dispatches += 1;
        }
    }
}

/// The dispatch discipline state machine.
pub enum Dispatcher {
    /// epoll exclusive's shared accept queue: one idle waiter wakes, in
    /// LIFO order.
    Shared,
    /// Per-worker sockets, stateless hashing.
    Reuseport {
        /// Group size.
        workers: usize,
    },
    /// Hermes closed-loop dispatch.
    Hermes(Box<HermesState>),
}

impl Dispatcher {
    /// Build the dispatcher for a mode.
    pub fn new(mode: Mode, workers: usize, hermes: SchedConfig) -> Self {
        match mode {
            Mode::ExclusiveLifo => Dispatcher::Shared,
            Mode::Reuseport => Dispatcher::Reuseport { workers },
            Mode::Hermes => Dispatcher::Hermes(Box::new(HermesState::new(workers, hermes))),
        }
    }

    /// Socket/worker assignment at SYN time. `None` ⇒ shared accept queue
    /// (wakeup order decides the acceptor later).
    pub fn assign_at_syn(&mut self, flow: &FlowKey) -> Option<usize> {
        match self {
            Dispatcher::Shared => None,
            Dispatcher::Reuseport { workers } => {
                Some(hermes_core::hash::reciprocal_scale(flow.hash(), *workers as u32) as usize)
            }
            Dispatcher::Hermes(h) => Some(h.dispatch(flow).worker),
        }
    }

    /// For the shared queue: the idle worker to wake when a connection
    /// lands in it, `None` if every worker is busy. `idle` flags index by
    /// worker id; the waiter list's head is the *most recently
    /// registered* worker and registration order is 0..n, so epoll
    /// exclusive's LIFO walk wakes the idle worker with the highest id.
    pub fn pick_wake(&self, idle: &[bool]) -> Option<usize> {
        assert!(
            matches!(self, Dispatcher::Shared),
            "pick_wake only applies to the shared queue"
        );
        idle.iter().rposition(|&i| i)
    }

    /// Borrow the Hermes bundle (panics for other modes — caller checks).
    pub fn hermes_mut(&mut self) -> &mut HermesState {
        match self {
            Dispatcher::Hermes(h) => h,
            _ => panic!("not a Hermes dispatcher"),
        }
    }

    /// Borrow the Hermes bundle if this is Hermes.
    pub fn hermes(&self) -> Option<&HermesState> {
        match self {
            Dispatcher::Hermes(h) => Some(h),
            _ => None,
        }
    }

    /// Is this a mode with per-worker sockets (assignment at SYN)?
    pub fn assigns_at_syn(&self) -> bool {
        !matches!(self, Dispatcher::Shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    #[test]
    fn lifo_prefers_most_recently_registered() {
        let d = Dispatcher::new(Mode::ExclusiveLifo, 4, cfg());
        assert_eq!(d.pick_wake(&[true, true, true, true]), Some(3));
        assert_eq!(d.pick_wake(&[true, true, false, false]), Some(1));
        assert_eq!(d.pick_wake(&[false, true, false, false]), Some(1));
        assert_eq!(d.pick_wake(&[false, false, false, false]), None);
    }

    #[test]
    fn reuseport_assignment_is_sticky_and_in_range() {
        let mut d = Dispatcher::new(Mode::Reuseport, 8, cfg());
        let flow = FlowKey::new(1, 2, 3, 4);
        let a = d.assign_at_syn(&flow).unwrap();
        let b = d.assign_at_syn(&flow).unwrap();
        assert_eq!(a, b);
        assert!(a < 8);
        assert!(d.assigns_at_syn());
    }

    #[test]
    fn shared_modes_defer_assignment() {
        let mut d = Dispatcher::new(Mode::ExclusiveLifo, 4, cfg());
        assert_eq!(d.assign_at_syn(&FlowKey::new(1, 2, 3, 4)), None);
        assert!(!d.assigns_at_syn());
    }

    #[test]
    fn hermes_dispatch_tracks_stats_and_respects_bitmap() {
        let mut d = Dispatcher::new(Mode::Hermes, 4, cfg());
        {
            let h = d.hermes_mut();
            for w in 0..4 {
                h.worker(w).enter_loop(1_000_000);
            }
            h.worker(0).conn_delta(1_000); // overload worker 0
            h.schedule_and_sync(1_100_000, 0);
            assert_eq!(h.stats.calls, 1);
            assert_eq!(h.stats.selected_sum, 3);
        }
        for i in 0..100u32 {
            let flow = FlowKey::new(i, i as u16, 9, 443);
            let w = d.assign_at_syn(&flow).unwrap();
            assert_ne!(w, 0, "overloaded worker got a connection");
        }
        let h = d.hermes().unwrap();
        assert_eq!(h.stats.directed_dispatches, 100);
    }

    #[test]
    fn schedule_and_sync_elides_steady_state_syncs() {
        let mut d = Dispatcher::new(Mode::Hermes, 4, cfg());
        let h = d.hermes_mut();
        for w in 0..4 {
            h.worker(w).enter_loop(1_000_000);
        }
        // The first pass publishes; nine steady-state repeats publish nothing.
        for round in 0..10 {
            h.schedule_and_sync(1_000_010 + round, 0);
        }
        assert_eq!((h.sel.update_count(), h.sel.skipped_count()), (1, 9));
        // A load change re-publishes exactly once more.
        h.worker(0).conn_delta(1_000);
        h.schedule_and_sync(1_000_030, 0);
        assert_eq!(h.sel.update_count(), 2);
        assert_eq!(h.stats.calls, 11);
    }
}
