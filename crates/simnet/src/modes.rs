//! Per-mode dispatch machinery.
//!
//! [`Dispatcher`] answers the two questions the simulator's kernel model
//! asks: *which socket gets this SYN?* (per-worker-socket modes answer at
//! handshake time; epoll exclusive's shared queue answers `None` and lets
//! wakeup order decide) and *which idle worker wakes when the shared
//! accept queue becomes readable?*

use crate::config::Mode;
use crate::metrics::SchedStats;
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::sched::SchedConfig;
use hermes_core::{ConnDispatcher, Scheduler, WorkerBitmap, WorkerSnapshot};

/// Hermes state bundle: the worker table, the scheduler that runs over it,
/// and the kernel-side dispatch decision, core's native oracle for the
/// program the kernel runs. A simulated device has at most 64 workers, so
/// it is one group (§7, `hermes_core::group::worker_groups`).
///
/// The table is plain [`WorkerSnapshot`] rows, not a `hermes_core::Wst`.
/// A `Wst` is built for threads: each row is three atomics on a 128-byte
/// line of its own, every counter update is a locked read-modify-write, and
/// every pass copies the table out with clamping loads. The simulator runs
/// every simulated worker on one thread, one event at a time, so nothing
/// reads a row while it is written; the scheduler runs its one cascade
/// (`Scheduler::schedule_from_snapshot`) on the rows in place. The rows
/// carry the values a `Wst` would report, because they never go negative
/// (checked in debug builds), so `WorkerStatus`'s clamp at zero has
/// nothing to do.
pub struct HermesState {
    /// The worker status table every simulated loop pass writes: row `w`
    /// is worker `w`'s loop entry, pending events and connections.
    rows: Vec<WorkerSnapshot>,
    /// Algorithm 1 over `rows`.
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
            rows: vec![WorkerSnapshot::default(); workers],
            scheduler: Scheduler::new(config),
            published: WorkerBitmap::EMPTY,
            dispatcher: ConnDispatcher::new(workers),
            stats: SchedStats::default(),
        }
    }

    /// `shm_avail_update(now)`: worker `w` entered its event loop.
    #[inline]
    pub fn enter_loop(&mut self, w: usize, now_ns: u64) {
        self.rows[w].loop_enter_ns = now_ns;
    }

    /// `shm_busy_count(n)`: `n` events added to (negative: handled by)
    /// worker `w`.
    #[inline]
    pub fn add_pending(&mut self, w: usize, n: i64) {
        let pending = &mut self.rows[w].pending_events;
        *pending += n;
        debug_assert!(*pending >= 0, "worker {w}: {} pending events", *pending);
    }

    /// `shm_conn_count(delta)`: worker `w` gained or lost connections.
    #[inline]
    pub fn conn_delta(&mut self, w: usize, delta: i64) {
        let connections = &mut self.rows[w].connections;
        *connections += delta;
        debug_assert!(
            *connections >= 0,
            "worker {w}: {} connections",
            *connections
        );
    }

    /// `schedule_and_sync` (Algorithm 1) as run from a worker's event loop:
    /// run the cascade and publish the bitmap. Only a bitmap that differs
    /// from the published one replaces it, as `KernelDispatch::publish`
    /// stores into the kernel's word only then, and each replacement is
    /// counted in `stats.publishes`. The pass traces on `lane`, the
    /// running worker's.
    pub fn schedule_and_sync(&mut self, now_ns: u64, lane: u32) {
        let decision = self
            .scheduler
            .schedule_from_snapshot(&self.rows, now_ns, lane);
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
    use hermes_core::{FlowKey, Wst};
    use hermes_metrics::rng::for_each_case;

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
        {
            let h = d.hermes_mut();
            for w in 0..4 {
                h.enter_loop(w, 1_000_000);
            }
            h.conn_delta(0, 1_000); // overload worker 0
            h.schedule_and_sync(1_100_000, 0);
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
        for w in 0..4 {
            h.enter_loop(w, 1_000_000);
        }
        // The first pass publishes; nine steady-state repeats publish nothing.
        for round in 0..10 {
            h.schedule_and_sync(1_000_010 + round, 0);
        }
        assert_eq!((h.stats.calls, h.stats.publishes), (10, 1));
        assert_eq!(h.published, WorkerBitmap::all(4));
        // A load change re-publishes exactly once more.
        h.conn_delta(0, 1_000);
        h.schedule_and_sync(1_000_030, 0);
        assert_eq!((h.stats.calls, h.stats.publishes), (11, 2));
        assert!(!h.published.contains(0));
    }

    /// The plain rows read what a `Wst` fed the same updates reports, and
    /// the one cascade decides alike over both.
    #[test]
    fn plain_rows_match_a_wst_fed_the_same_updates() {
        for_each_case(64, |g| {
            let workers = 1 + g.index(64);
            let mut d = Dispatcher::new(Mode::Hermes, workers, cfg());
            let h = d.hermes_mut();
            let wst = Wst::new(workers);
            let scheduler = Scheduler::new(cfg());
            let mut now = 0u64;
            for _ in 0..200 {
                let w = g.index(workers);
                now += g.next_u64() % 20_000_000;
                match g.index(4) {
                    0 => {
                        h.enter_loop(w, now);
                        wst.worker(w).enter_loop(now);
                    }
                    1 => {
                        let n = 1 + g.index(512) as i64;
                        h.add_pending(w, n);
                        wst.worker(w).add_pending(n);
                    }
                    2 if h.rows[w].pending_events > 0 => {
                        let n = h.rows[w].pending_events;
                        h.add_pending(w, -n);
                        wst.worker(w).add_pending(-n);
                    }
                    _ => {
                        let delta = if h.rows[w].connections > 0 && g.index(2) == 0 {
                            -1
                        } else {
                            1
                        };
                        h.conn_delta(w, delta);
                        wst.worker(w).conn_delta(delta);
                    }
                }
                for (v, row) in h.rows.iter().enumerate() {
                    assert_eq!(*row, wst.worker(v).snapshot(), "worker {v}");
                }
                assert_eq!(
                    scheduler.schedule_from_snapshot(&h.rows, now, 0),
                    scheduler.schedule(&wst, now)
                );
            }
        });
    }

    /// The rows skip `WorkerStatus`'s clamp at zero, so a count that would
    /// go negative is a simulator bug, caught where it happens.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pending events")]
    fn a_pending_count_never_goes_negative() {
        let mut d = Dispatcher::new(Mode::Hermes, 2, cfg());
        let h = d.hermes_mut();
        h.add_pending(1, 3);
        h.add_pending(1, -4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "connections")]
    fn a_connection_count_never_goes_negative() {
        let mut d = Dispatcher::new(Mode::Hermes, 2, cfg());
        d.hermes_mut().conn_delta(0, -1);
    }
}
