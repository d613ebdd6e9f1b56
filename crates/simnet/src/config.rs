//! Simulator configuration: dispatch mode, cost model, faults.

use crate::event_queue::Engine;
use hermes_core::sched::SchedConfig;
use hermes_metrics::NANOS_PER_MILLI;

/// The I/O event notification / dispatch discipline under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// epoll exclusive (Linux ≥4.5): shared accept queue, LIFO wakeup.
    ExclusiveLifo,
    /// epoll round-robin (unmerged patch): shared queue, rotating wakeup.
    RoundRobin,
    /// Early epoll: every idle waiter wakes (thundering herd).
    WakeAll,
    /// io_uring's default interrupt mode (§8 related work): fixed FIFO
    /// wakeup order — like epoll exclusive but preferring the
    /// *first*-registered waiter, with the mirror-image concentration.
    IoUringFifo,
    /// SO_REUSEPORT: per-worker sockets, stateless hash at SYN.
    Reuseport,
    /// Hermes: userspace-directed bitmap dispatch over reuseport sockets.
    Hermes,
    /// Userspace dispatcher (§2.2): worker 0 fetches and redistributes.
    UserspaceDispatcher,
}

impl Mode {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::ExclusiveLifo => "Epoll exclusive",
            Mode::RoundRobin => "Epoll roundrobin",
            Mode::WakeAll => "Epoll wake-all",
            Mode::IoUringFifo => "io_uring FIFO",
            Mode::Reuseport => "Epoll with reuseport",
            Mode::Hermes => "Hermes",
            Mode::UserspaceDispatcher => "Userspace dispatcher",
        }
    }

    /// The three modes Table 3 / Fig. 13 compare.
    pub fn paper_trio() -> [Mode; 3] {
        [Mode::ExclusiveLifo, Mode::Reuseport, Mode::Hermes]
    }
}

/// Fixed costs of kernel/userspace mechanics (ns). Defaults are laptop-scale
/// estimates of the syscall/context-switch costs the paper discusses; the
/// comparison between modes is insensitive to their absolute values, but the
/// *asymmetries* (per-port poll cost for exclusive, scheduling cost for
/// Hermes) reproduce the paper's overhead arguments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Base cost of an `epoll_wait` call that returns events.
    pub epoll_wait_ns: u64,
    /// Per-port component of the *connection dispatch* overhead in
    /// shared-queue modes: §6.2 Case 1 — "the overhead of dispatching new
    /// connections is O(1) for Hermes and reuseport, but O(#ports) for
    /// exclusive", because every worker's epoll instance registers all
    /// ports' listening sockets and each accept walks that state. Charged
    /// per accept as `per_port_poll_ns * #ports`; per-socket modes pay
    /// only the O(1) `accept_ns`.
    pub per_port_poll_ns: u64,
    /// Wakeup latency: event arrival → worker running (context switch).
    pub wake_ns: u64,
    /// `accept()` + conn_fd setup + `epoll_ctl(ADD)` per new connection.
    pub accept_ns: u64,
    /// Hermes: one WST counter update (`atomic<int>` ops in Fig. 9).
    pub counter_ns: u64,
    /// Hermes: one scheduler pass (Algorithm 1, O(workers)).
    pub sched_ns: u64,
    /// Hermes: one map-update syscall (bitmap sync).
    pub sync_ns: u64,
    /// Userspace dispatcher: per-event redistribution cost (queue push +
    /// wake), paid by the dispatcher worker.
    pub dispatch_us_ns: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            epoll_wait_ns: 1_500,
            per_port_poll_ns: 120,
            wake_ns: 3_000,
            accept_ns: 4_000,
            counter_ns: 25,
            sched_ns: 400,
            sync_ns: 1_200,
            dispatch_us_ns: 1_000,
        }
    }
}

/// Injected worker faults (the §7 / Appendix C failure studies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Worker stops processing forever at `at_ns` (process crash). Its
    /// established connections die; dispatch-mode behaviour decides how
    /// much *new* traffic keeps landing on it.
    Crash {
        /// Victim worker.
        worker: usize,
        /// Crash time.
        at_ns: u64,
    },
    /// Worker is trapped in a poison task for `duration_ns` starting at
    /// `at_ns` (the edge-triggered read-loop hang of Appendix C).
    Hang {
        /// Victim worker.
        worker: usize,
        /// Hang start.
        at_ns: u64,
        /// Hang length.
        duration_ns: u64,
    },
}

/// `epoll_wait` timeout (the paper sets 5 ms).
pub const EPOLL_TIMEOUT_NS: u64 = 5 * NANOS_PER_MILLI;
/// Max events returned per `epoll_wait` (MAX_EVENTS in Fig. A1).
pub const MAX_EVENTS: usize = 512;
/// Metrics sampling interval (CPU util, connection counts).
pub const SAMPLE_INTERVAL_NS: u64 = 100 * NANOS_PER_MILLI;
/// CPU cost of answering one probe.
pub const PROBE_SERVICE_NS: u64 = 10_000;

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Worker processes on the device (1..=64 for single-group Hermes).
    pub workers: usize,
    /// Dispatch mode under test.
    pub mode: Mode,
    /// Kernel/userspace cost model.
    pub costs: CostParams,
    /// Hermes scheduler tuning (θ, hang threshold, filter order).
    pub hermes: SchedConfig,
    /// Shard the Hermes plane into this many worker groups (§7 two-level
    /// dispatch: per-group WSTs, schedulers, and selection maps). One
    /// group, the default, is the flat plane. Ignored by non-Hermes modes.
    pub groups: usize,
    /// Run `schedule_and_sync` at the *start* of the loop instead of the
    /// end (§5.3.2 scheduling-timing ablation).
    pub sched_at_loop_start: bool,
    /// Event-queue engine: the timer wheel (default) or the binary-heap
    /// reference implementation (equivalence testing, before/after
    /// benchmarking). Behaviourally identical by construction and by the
    /// `engine_equivalence` suite.
    pub engine: Engine,
    /// Injected faults.
    pub faults: Vec<Fault>,
    /// NIC RSS queues to model for the Fig. 7 tap (0 disables).
    pub nic_queues: usize,
    /// Port whose live-connection/request-rate trace to record (Fig. 3).
    pub trace_port: Option<u16>,
    /// When set, inject a health probe into *every* worker's event queue
    /// at this interval (Fig. 11's per-worker probing; the LB contains no
    /// probe logic beyond echoing, so delay ⇒ an unresponsive worker).
    pub probe_interval_ns: Option<u64>,
    /// Proactive service degradation (Appendix C exception case 1): when
    /// a worker stays hot, RST a slice of its connections so clients
    /// reconnect and get rescheduled to healthy workers. Evaluated at
    /// every sampling point; Hermes mode only (the policy reschedules via
    /// the bitmap dispatch).
    pub degrade: Option<hermes_core::degrade::DegradeConfig>,
    /// Fleet position of this device, when it is one of many run by the
    /// cluster layer. Routes the device's trace events to a stable lane
    /// derived from the device index (`hermes_trace::device_lane`) instead
    /// of per-worker lanes, so fleet traces stay deterministic regardless
    /// of which pool thread runs the device. `None` (single-device runs)
    /// keeps the per-worker lane mapping.
    pub device_index: Option<u32>,
}

impl SimConfig {
    /// A standard configuration for `workers` workers in `mode`.
    pub fn new(workers: usize, mode: Mode) -> Self {
        Self {
            workers,
            mode,
            costs: CostParams::default(),
            hermes: SchedConfig::default(),
            groups: 1,
            sched_at_loop_start: false,
            engine: Engine::default(),
            faults: Vec::new(),
            nic_queues: 0,
            trace_port: None,
            probe_interval_ns: None,
            degrade: None,
            device_index: None,
        }
    }

    /// Validate invariants (called by the simulator).
    pub fn validate(&self) {
        assert!(
            (1..=64).contains(&self.workers),
            "1..=64 workers per simulated device"
        );
        assert!((1..=64).contains(&self.groups), "1..=64 worker groups");
        assert!(
            self.workers.is_multiple_of(self.groups),
            "workers must divide evenly into groups"
        );
        if self.mode == Mode::UserspaceDispatcher {
            assert!(
                self.workers >= 2,
                "userspace dispatcher needs a dispatcher plus >= 1 backend"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paperlike() {
        let c = SimConfig::new(32, Mode::Hermes);
        assert_eq!(EPOLL_TIMEOUT_NS, 5_000_000);
        assert_eq!(MAX_EVENTS, 512);
        assert_eq!(c.hermes.theta_frac, 0.5);
        c.validate();
    }

    #[test]
    fn paper_trio_order() {
        let [a, b, c] = Mode::paper_trio();
        assert_eq!(a, Mode::ExclusiveLifo);
        assert_eq!(b, Mode::Reuseport);
        assert_eq!(c, Mode::Hermes);
        assert_eq!(c.name(), "Hermes");
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_zero_workers() {
        SimConfig::new(0, Mode::Reuseport).validate();
    }

    #[test]
    #[should_panic(expected = "dispatcher")]
    fn dispatcher_needs_two_workers() {
        SimConfig::new(1, Mode::UserspaceDispatcher).validate();
    }
}
