//! Per-mode dispatch machinery.
//!
//! [`Dispatcher`] answers the two questions the simulator's kernel model
//! asks: *which socket gets this SYN?* (per-worker-socket modes answer at
//! handshake time; shared-queue modes answer `None` and let wakeup order
//! decide) and *which idle workers wake when a shared accept queue becomes
//! readable?*

use crate::config::Mode;
use crate::metrics::SchedStats;
use hermes_core::group::{GroupBy, GroupScheduler, GroupedWorker};
use hermes_core::sched::SchedConfig;
use hermes_core::status::WorkerStatus;
use hermes_core::{FlowKey, GroupedConnDispatcher, Placement};
use hermes_trace::CounterId;

/// Hermes state bundle: per-group WSTs + scheduler + the kernel-side
/// dispatch decision, core's native oracle for the program the kernel runs.
pub struct HermesState {
    /// §7 per-group WSTs and the scheduler that runs over each; the flat
    /// deployment is the one-group case.
    sched: GroupScheduler,
    /// Group coordinates of every global worker id, so the WST hooks of
    /// every simulated loop pass resolve their row without a division.
    rows: Vec<GroupedWorker>,
    /// Places SYNs from the selection maps `sched` publishes into.
    dispatcher: GroupedConnDispatcher,
    /// Scheduler/dispatch statistics (Fig. 14).
    pub stats: SchedStats,
}

impl HermesState {
    fn new(workers: usize, config: SchedConfig, group_count: usize) -> Self {
        assert!(
            group_count >= 1 && workers.is_multiple_of(group_count),
            "workers must divide evenly into groups"
        );
        let sched = GroupScheduler::new(workers, workers / group_count, GroupBy::FlowHash, config);
        Self {
            rows: (0..workers).map(|w| sched.locate(w)).collect(),
            dispatcher: GroupedConnDispatcher::from_scheduler(&sched),
            sched,
            stats: SchedStats::default(),
        }
    }

    /// Status cell for global worker `w`, in its group's table.
    pub fn worker(&self, w: usize) -> &WorkerStatus {
        let at = self.rows[w];
        self.sched.group(at.group).wst().worker(at.local)
    }

    /// `schedule_and_sync` (Algorithm 1) as run from worker `worker`'s
    /// event loop: run the cascade over the calling worker's group — each
    /// group's bitmap is maintained by its own workers, exactly as §7
    /// prescribes — and publish the bitmap to the kernel-visible map
    /// (redundant republishes are elided and counted, just like the real
    /// load balancer's sync path).
    pub fn schedule_and_sync(&mut self, worker: usize, now_ns: u64) {
        let decision = self.sched.schedule_group(self.rows[worker].group, now_ns);
        self.stats.calls += 1;
        self.stats.selected_sum += u64::from(decision.bitmap.count());
        self.stats.alive_sum += u64::from(decision.alive.count());
    }

    /// Boot-time sync: publish an initial bitmap for every group (one
    /// scheduler pass per group; a flat plane is one group).
    pub fn schedule_boot(&mut self, now_ns: u64) {
        for g in 0..self.dispatcher.group_count() {
            self.schedule_and_sync(g * self.dispatcher.group_size(), now_ns);
        }
    }

    /// Kernel-side dispatch of one SYN (Algorithm 2; two-level when
    /// sharded): one decision per connection, as the reuseport hook runs
    /// it. `worker` is the *global* worker id.
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

    /// Fig. 14's directed/fallback split, and the flight recorder's: the
    /// one place a placed SYN is counted.
    fn tally(&mut self, placed: Placement) {
        if placed.directed {
            self.stats.directed_dispatches += 1;
            hermes_trace::trace_count!(CounterId::DirectedDispatches);
        } else {
            self.stats.fallback_dispatches += 1;
            hermes_trace::trace_count!(CounterId::FallbackDispatches);
        }
        if self.dispatcher.group_count() > 1 {
            hermes_trace::trace_count!(CounterId::GroupDispatches);
        }
    }
}

/// The dispatch discipline state machine.
pub enum Dispatcher {
    /// Shared accept queue with a wakeup order over idle waiters.
    Shared {
        /// Wakeup discipline.
        order: WakeOrder,
    },
    /// Per-worker sockets, stateless hashing.
    Reuseport {
        /// Group size.
        workers: usize,
    },
    /// Hermes closed-loop dispatch.
    Hermes(Box<HermesState>),
    /// Userspace dispatcher: worker 0 accepts and redistributes;
    /// connections go to the backend with the fewest live connections.
    Userspace,
}

/// Wakeup order for shared accept queues.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WakeOrder {
    /// Walk waiters head-first where the head is the *most recently
    /// registered* worker (epoll exclusive's LIFO pathology): wake the
    /// first idle one.
    Lifo,
    /// Walk waiters in registration order (io_uring's fixed FIFO): wake
    /// the first-registered idle worker — the mirror-image concentration.
    Fifo,
    /// Rotate: wake the idle worker at the cursor, advance the cursor
    /// (epoll-rr patch).
    RoundRobin {
        /// Next position to try.
        cursor: usize,
    },
    /// Wake every idle waiter (early epoll thundering herd).
    All,
}

impl Dispatcher {
    /// Build the dispatcher for a mode, sharding the Hermes plane into
    /// `groups` worker groups (one is the flat plane; non-Hermes modes
    /// ignore it).
    pub fn new(mode: Mode, workers: usize, hermes: SchedConfig, groups: usize) -> Self {
        match mode {
            Mode::ExclusiveLifo => Dispatcher::Shared {
                order: WakeOrder::Lifo,
            },
            Mode::RoundRobin => Dispatcher::Shared {
                order: WakeOrder::RoundRobin { cursor: 0 },
            },
            Mode::WakeAll => Dispatcher::Shared {
                order: WakeOrder::All,
            },
            Mode::IoUringFifo => Dispatcher::Shared {
                order: WakeOrder::Fifo,
            },
            Mode::Reuseport => Dispatcher::Reuseport { workers },
            Mode::Hermes => Dispatcher::Hermes(Box::new(HermesState::new(workers, hermes, groups))),
            Mode::UserspaceDispatcher => Dispatcher::Userspace,
        }
    }

    /// Socket/worker assignment at SYN time. `None` ⇒ shared accept queue
    /// (wakeup order decides the acceptor later). `conn_counts` supports
    /// the userspace dispatcher's least-connections backend pick.
    pub fn assign_at_syn(&mut self, flow: &FlowKey, conn_counts: &[i64]) -> Option<usize> {
        match self {
            Dispatcher::Shared { .. } => None,
            Dispatcher::Reuseport { workers } => {
                Some(hermes_core::hash::reciprocal_scale(flow.hash(), *workers as u32) as usize)
            }
            Dispatcher::Hermes(h) => Some(h.dispatch(flow).worker),
            // All SYNs land on the dispatcher (worker 0); the backend is
            // chosen when the dispatcher accepts — but the choice only
            // depends on live counts, so pick now for simplicity.
            Dispatcher::Userspace => {
                let backend = conn_counts
                    .iter()
                    .enumerate()
                    .skip(1)
                    .min_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
                    .unwrap_or(1);
                Some(backend)
            }
        }
    }

    /// For shared-queue modes: which idle workers to wake when a
    /// connection lands in a shared accept queue, written into the
    /// caller's reusable buffer (cleared first — per-SYN allocation-free).
    /// `idle` flags index by worker id; registration order is 0..n, so
    /// LIFO prefers high ids.
    pub fn pick_wake(&mut self, idle: &[bool], out: &mut Vec<usize>) {
        out.clear();
        match self {
            Dispatcher::Shared { order } => match order {
                WakeOrder::Lifo => {
                    if let Some((w, _)) = idle.iter().enumerate().rev().find(|(_, &i)| i) {
                        out.push(w);
                    }
                }
                WakeOrder::Fifo => {
                    if let Some((w, _)) = idle.iter().enumerate().find(|(_, &i)| i) {
                        out.push(w);
                    }
                }
                WakeOrder::RoundRobin { cursor } => {
                    let n = idle.len();
                    for k in 0..n {
                        let w = (*cursor + k) % n;
                        if idle[w] {
                            *cursor = (w + 1) % n;
                            out.push(w);
                            break;
                        }
                    }
                }
                WakeOrder::All => {
                    out.extend(idle.iter().enumerate().filter(|(_, &i)| i).map(|(w, _)| w));
                }
            },
            _ => unreachable!("pick_wake only applies to shared-queue modes"),
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
        !matches!(self, Dispatcher::Shared { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    /// Test shim over the buffer-filling `pick_wake`.
    fn wake(d: &mut Dispatcher, idle: &[bool]) -> Vec<usize> {
        let mut out = Vec::new();
        d.pick_wake(idle, &mut out);
        out
    }

    #[test]
    fn lifo_prefers_most_recently_registered() {
        let mut d = Dispatcher::new(Mode::ExclusiveLifo, 4, cfg(), 1);
        assert_eq!(wake(&mut d, &[true, true, true, true]), vec![3]);
        assert_eq!(wake(&mut d, &[true, true, false, false]), vec![1]);
        assert!(wake(&mut d, &[false, false, false, false]).is_empty());
    }

    #[test]
    fn fifo_prefers_first_registered() {
        let mut d = Dispatcher::new(Mode::IoUringFifo, 4, cfg(), 1);
        assert_eq!(wake(&mut d, &[true, true, true, true]), vec![0]);
        assert_eq!(wake(&mut d, &[false, false, true, true]), vec![2]);
        assert!(wake(&mut d, &[false; 4]).is_empty());
    }

    #[test]
    fn round_robin_rotates() {
        let mut d = Dispatcher::new(Mode::RoundRobin, 3, cfg(), 1);
        assert_eq!(wake(&mut d, &[true, true, true]), vec![0]);
        assert_eq!(wake(&mut d, &[true, true, true]), vec![1]);
        assert_eq!(wake(&mut d, &[true, true, true]), vec![2]);
        assert_eq!(wake(&mut d, &[true, true, true]), vec![0]);
        // Skips busy workers.
        assert_eq!(wake(&mut d, &[false, false, true]), vec![2]);
        assert_eq!(wake(&mut d, &[true, false, true]), vec![0]);
    }

    #[test]
    fn wake_all_wakes_every_idle_waiter() {
        let mut d = Dispatcher::new(Mode::WakeAll, 4, cfg(), 1);
        assert_eq!(wake(&mut d, &[true, false, true, true]), vec![0, 2, 3]);
    }

    #[test]
    fn pick_wake_clears_the_reused_buffer() {
        let mut d = Dispatcher::new(Mode::WakeAll, 4, cfg(), 1);
        let mut out = vec![99, 98];
        d.pick_wake(&[false, true, false, false], &mut out);
        assert_eq!(out, vec![1]);
        d.pick_wake(&[false; 4], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reuseport_assignment_is_sticky_and_in_range() {
        let mut d = Dispatcher::new(Mode::Reuseport, 8, cfg(), 1);
        let flow = FlowKey::new(1, 2, 3, 4);
        let a = d.assign_at_syn(&flow, &[]).unwrap();
        let b = d.assign_at_syn(&flow, &[]).unwrap();
        assert_eq!(a, b);
        assert!(a < 8);
        assert!(d.assigns_at_syn());
    }

    #[test]
    fn shared_modes_defer_assignment() {
        let mut d = Dispatcher::new(Mode::ExclusiveLifo, 4, cfg(), 1);
        assert_eq!(d.assign_at_syn(&FlowKey::new(1, 2, 3, 4), &[]), None);
        assert!(!d.assigns_at_syn());
    }

    #[test]
    fn userspace_picks_least_loaded_backend() {
        let mut d = Dispatcher::new(Mode::UserspaceDispatcher, 4, cfg(), 1);
        // conn_counts: dispatcher=0 (ignored), backends 1..: 5, 2, 9.
        let w = d.assign_at_syn(&FlowKey::new(1, 2, 3, 4), &[0, 5, 2, 9]);
        assert_eq!(w, Some(2));
    }

    #[test]
    fn hermes_dispatch_tracks_stats_and_respects_bitmap() {
        let mut d = Dispatcher::new(Mode::Hermes, 4, cfg(), 1);
        {
            let h = d.hermes_mut();
            for w in 0..4 {
                h.worker(w).enter_loop(1_000_000);
            }
            h.worker(0).conn_delta(1_000); // overload worker 0
            h.schedule_and_sync(0, 1_100_000);
            assert_eq!(h.stats.calls, 1);
            assert_eq!(h.stats.selected_sum, 3);
        }
        for i in 0..100u32 {
            let flow = FlowKey::new(i, i as u16, 9, 443);
            let w = d.assign_at_syn(&flow, &[]).unwrap();
            assert_ne!(w, 0, "overloaded worker got a connection");
        }
        let h = d.hermes().unwrap();
        assert_eq!(h.stats.directed_dispatches, 100);
    }
}
