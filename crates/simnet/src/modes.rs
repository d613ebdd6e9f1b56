//! Per-mode dispatch machinery.
//!
//! [`Dispatcher`] answers the one question the simulator's kernel model
//! asks of a mode: *which socket gets this SYN?* Per-worker-socket modes
//! answer at handshake time; epoll exclusive's shared queue answers `None`,
//! and the simulator wakes its most recently registered idle worker (LIFO)
//! when the queue becomes readable. Under Hermes the answer comes from the
//! bitmap [`HermesState`] last published from the simulator's worker
//! status table.

use crate::config::Mode;
use crate::metrics::SchedStats;
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::sched::SchedConfig;
use hermes_core::{ConnDispatcher, Scheduler, StatusTable, WorkerBitmap};

/// Hermes state bundle: the scheduler, the bitmap it last published and
/// the kernel-side dispatch decision, core's native oracle for the program
/// the kernel runs. A simulated device has at most 64 workers, so it is one
/// group (§7, `hermes_core::group::worker_groups`).
///
/// The worker status table it schedules over is the simulator's: a
/// [`StatusTable`] of plain rows, not a `hermes_core::Wst`, whose atomics on
/// lines of their own, locked updates and clamping copy-out serve threads.
/// The simulator runs every worker on one thread, one event at a time, and
/// its rows never go negative (checked in debug builds), so they read what
/// a `Wst` fed the same updates would report.
pub struct HermesState {
    /// Algorithm 1.
    scheduler: Scheduler,
    /// The bitmap the kernel sees: the last one `scheduler` published. A
    /// plain value, as the rows are; the load balancers publish into the
    /// kernel's own map word.
    published: WorkerBitmap,
    /// Places SYNs from `published`.
    dispatcher: ConnDispatcher,
    /// Scheduler/dispatch statistics (Fig. 14).
    pub stats: SchedStats,
}

impl HermesState {
    fn new(workers: usize, config: SchedConfig) -> Self {
        Self {
            scheduler: Scheduler::new(config),
            published: WorkerBitmap::EMPTY,
            dispatcher: ConnDispatcher::new(workers),
            stats: SchedStats::default(),
        }
    }

    /// `schedule_and_sync` (Algorithm 1) as run from a worker's event loop:
    /// run the cascade over the status table and publish the bitmap.
    /// Only a bitmap that differs from the published one replaces it, as
    /// `KernelDispatch::publish` stores into the kernel's word only then,
    /// and each replacement is counted in `stats.publishes`. The pass
    /// traces on `lane`, the running worker's.
    pub fn schedule_and_sync(&mut self, table: &mut StatusTable, now_ns: u64, lane: u32) {
        let decision = self.scheduler.schedule_table(table, now_ns, lane);
        if decision.bitmap != self.published {
            self.published = decision.bitmap;
            self.stats.publishes += 1;
        }
        self.stats.calls += 1;
        self.stats.selected_sum += u64::from(decision.bitmap.count());
        self.stats.alive_sum += u64::from(decision.alive.count());
    }

    /// Kernel-side dispatch of one SYN (Algorithm 2) by its flow's kernel
    /// hash: one decision per connection, as the reuseport hook runs it.
    pub fn dispatch(&mut self, flow_hash: u32) -> DispatchOutcome {
        let placed = self.dispatcher.dispatch(&[self.published], flow_hash);
        self.tally(placed);
        placed
    }

    /// Dispatch decision without touching the per-SYN statistics — used by
    /// degradation re-homing (Appendix C), which is not a new connection
    /// and must not inflate the Fig. 14 counters.
    pub fn redirect(&self, flow_hash: u32) -> usize {
        self.dispatcher
            .dispatch(&[self.published], flow_hash)
            .worker()
    }

    /// Fig. 14's directed/fallback split: the one place a placed SYN is
    /// counted.
    fn tally(&mut self, placed: DispatchOutcome) {
        if placed.is_directed() {
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

    /// Socket/worker assignment at SYN time, by the flow's kernel hash.
    /// `None` ⇒ shared accept queue (wakeup order decides the acceptor
    /// later).
    pub fn assign_at_syn(&mut self, flow_hash: u32) -> Option<usize> {
        match self {
            Dispatcher::Shared => None,
            Dispatcher::Reuseport { workers } => {
                Some(hermes_core::hash::reciprocal_scale(flow_hash, *workers as u32) as usize)
            }
            Dispatcher::Hermes(h) => Some(h.dispatch(flow_hash).worker()),
        }
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
    use hermes_core::FlowKey;

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    /// A table of `n` idle workers, each having entered its loop at `at`.
    fn entered(n: usize, at: u64) -> StatusTable {
        let mut table = StatusTable::new(n);
        for w in 0..n {
            table.enter_loop(w, at);
        }
        table
    }

    #[test]
    fn reuseport_assignment_is_sticky_and_in_range() {
        let mut d = Dispatcher::new(Mode::Reuseport, 8, cfg());
        let flow = FlowKey::new(1, 2, 3, 4).hash();
        let a = d.assign_at_syn(flow).unwrap();
        let b = d.assign_at_syn(flow).unwrap();
        assert_eq!(a, b);
        assert!(a < 8);
        assert!(d.assigns_at_syn());
    }

    #[test]
    fn shared_modes_defer_assignment() {
        let mut d = Dispatcher::new(Mode::ExclusiveLifo, 4, cfg());
        assert_eq!(d.assign_at_syn(FlowKey::new(1, 2, 3, 4).hash()), None);
        assert!(!d.assigns_at_syn());
    }

    #[test]
    fn hermes_dispatch_tracks_stats_and_respects_bitmap() {
        let mut d = Dispatcher::new(Mode::Hermes, 4, cfg());
        let mut table = entered(4, 1_000_000);
        table.add_connections(0, 1_000); // overload worker 0
        {
            let h = d.hermes_mut();
            h.schedule_and_sync(&mut table, 1_100_000, 0);
            assert_eq!(h.stats.calls, 1);
            assert_eq!(h.stats.selected_sum, 3);
        }
        for i in 0..100u32 {
            let flow = FlowKey::new(i, i as u16, 9, 443).hash();
            let w = d.assign_at_syn(flow).unwrap();
            assert_ne!(w, 0, "overloaded worker got a connection");
        }
        let h = d.hermes().unwrap();
        assert_eq!(h.stats.directed_dispatches, 100);
    }

    #[test]
    fn schedule_and_sync_elides_steady_state_syncs() {
        let mut d = Dispatcher::new(Mode::Hermes, 4, cfg());
        let h = d.hermes_mut();
        let mut table = entered(4, 1_000_000);
        // The first pass publishes; nine steady-state repeats publish nothing.
        for round in 0..10 {
            h.schedule_and_sync(&mut table, 1_000_010 + round, 0);
        }
        assert_eq!((h.stats.calls, h.stats.publishes), (10, 1));
        assert_eq!(h.published, WorkerBitmap::all(4));
        // A load change re-publishes exactly once more.
        table.add_connections(0, 1_000);
        h.schedule_and_sync(&mut table, 1_000_030, 0);
        assert_eq!((h.stats.calls, h.stats.publishes), (11, 2));
        assert!(!h.published.contains(0));
    }
}
