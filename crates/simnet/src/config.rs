//! Simulator configuration: dispatch mode, faults, taps; the cost model
//! and the loop's fixed parameters are constants.
//!
//! A simulated device has at most 64 workers, which §7's rule
//! (`hermes_core::group::worker_groups`) makes one group: there is no group
//! setting, as the load balancers take none.

use hermes_core::sched::SchedConfig;
use hermes_metrics::NANOS_PER_MILLI;

/// The I/O event notification / dispatch discipline under test: the three
/// the paper's evaluation compares (the crate docs name those it does not
/// model).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// epoll exclusive (Linux ≥4.5): shared accept queue, LIFO wakeup.
    ExclusiveLifo,
    /// SO_REUSEPORT: per-worker sockets, stateless hash at SYN.
    Reuseport,
    /// Hermes: userspace-directed bitmap dispatch over reuseport sockets.
    Hermes,
}

impl Mode {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::ExclusiveLifo => "Epoll exclusive",
            Mode::Reuseport => "Epoll with reuseport",
            Mode::Hermes => "Hermes",
        }
    }

    /// The three modes Table 3 / Fig. 13 compare.
    pub fn paper_trio() -> [Mode; 3] {
        [Mode::ExclusiveLifo, Mode::Reuseport, Mode::Hermes]
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

// Fixed costs of kernel/userspace mechanics (ns). Comparisons between
// modes rest on the *asymmetries* (per-port poll cost for exclusive,
// scheduling cost for Hermes), which reproduce the paper's overhead
// arguments, more than on the absolute values. Each constant names its
// source: the paper, an on-host figure, or "a guess". On-host figures are
// per-layer metrics of the end-to-end benchmark (benchmark/README.md) from
// one traced run on a 2-vCPU Xeon 2.1 GHz microVM; no value was changed to
// match them.

/// Base cost of an `epoll_wait` call that returns events. On-host,
/// `lb.reactor.wait_ready_ns` (a wait that finds an event already ready)
/// reads 400 ns; the model charges ~4× that, a guess that stands until
/// the cost model is swept.
pub const EPOLL_WAIT_NS: u64 = 1_500;
/// Per-port component of the *connection dispatch* overhead in shared-queue
/// modes: §6.2 Case 1 — "the overhead of dispatching new connections is
/// O(1) for Hermes and reuseport, but O(#ports) for exclusive", because
/// every worker's epoll instance registers all ports' listening sockets and
/// each accept walks that state. Charged per accept as
/// `PER_PORT_POLL_NS * #ports`; per-socket modes pay only the O(1)
/// [`ACCEPT_NS`]. The O(#ports) shape is the paper's; the per-port figure
/// is a guess (the paper gives none, and nothing here runs a shared accept
/// queue over thousands of ports).
pub const PER_PORT_POLL_NS: u64 = 120;
/// Wakeup latency: event arrival → worker running (context switch).
/// On-host, `lb.reactor.wake_us` (a wake on one thread → `epoll_wait`
/// returning on another) reads 2.7 µs.
pub const WAKE_NS: u64 = 3_000;
/// `accept()` + conn_fd setup + `epoll_ctl(ADD)` per new connection. A
/// guess: nothing here times a bare accept, and the benchmark's nearest
/// figure, `span.admit_*`, spans accept, admission and the backend
/// connect together.
pub const ACCEPT_NS: u64 = 4_000;
/// Hermes: one WST counter update (`atomic<int>` ops in Fig. 9). On-host,
/// `core.wst.update_ns` reads 33 ns for a connection's five hooks
/// together (~7 ns each); the model's figure is ~4× that.
pub const COUNTER_NS: u64 = 25;
/// Hermes: one scheduler pass (Algorithm 1, O(workers)). On-host,
/// `core.sched.pass_ns` reads 59 ns for an 8-worker table; scaled
/// linearly to the 32 workers of Table 3's devices that is ~240 ns.
pub const SCHED_NS: u64 = 400;
/// Hermes: one map-update syscall (bitmap sync). This models the paper's
/// Linux 4.19 `bpf(BPF_MAP_UPDATE_ELEM)`, not this repository's sync, a
/// ~2 ns store into an mmap'd map (EXPERIMENTS.md, divergence 2). That is
/// a choice: the simulator keeps the paper's cost structure, where the
/// sync is among Table 5's dearest columns. The value is a guess at that
/// syscall's cost.
pub const SYNC_NS: u64 = 1_200;

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Worker processes on the device, 1..=64 (one §7 group).
    pub workers: usize,
    /// Dispatch mode under test.
    pub mode: Mode,
    /// Hermes scheduler tuning (θ, hang threshold, filter order).
    pub hermes: SchedConfig,
    /// Run `schedule_and_sync` at the *start* of the loop instead of the
    /// end (§5.3.2 scheduling-timing ablation).
    pub sched_at_loop_start: bool,
    /// Injected faults.
    pub faults: Vec<Fault>,
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
    /// the bitmap dispatch, and [`validate`](Self::validate) refuses it in
    /// any other mode).
    pub degrade: Option<crate::degrade::DegradeConfig>,
}

impl SimConfig {
    /// A standard configuration for `workers` workers in `mode`.
    pub fn new(workers: usize, mode: Mode) -> Self {
        Self {
            workers,
            mode,
            hermes: SchedConfig::default(),
            sched_at_loop_start: false,
            faults: Vec::new(),
            trace_port: None,
            probe_interval_ns: None,
            degrade: None,
        }
    }

    /// Validate invariants (called by the simulator).
    pub fn validate(&self) {
        assert!(
            (1..=64).contains(&self.workers),
            "1..=64 workers per simulated device"
        );
        assert!(
            self.degrade.is_none() || self.mode == Mode::Hermes,
            "degrade reschedules through the Hermes dispatch: {} cannot run it",
            self.mode.name()
        );
        assert!(
            self.probe_interval_ns != Some(0),
            "probe_interval_ns must be > 0 (a zero interval re-arms at the same instant forever)"
        );
        for fault in &self.faults {
            let (Fault::Crash { worker, .. } | Fault::Hang { worker, .. }) = *fault;
            assert!(
                worker < self.workers,
                "faults: worker {worker} out of range for {} workers",
                self.workers
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
    #[should_panic(expected = "probe_interval_ns must be > 0")]
    fn rejects_a_zero_probe_interval() {
        let mut c = SimConfig::new(4, Mode::Hermes);
        c.probe_interval_ns = Some(0);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "Epoll with reuseport cannot run it")]
    fn rejects_degradation_outside_hermes() {
        let mut c = SimConfig::new(4, Mode::Reuseport);
        c.degrade = Some(crate::degrade::DegradeConfig::default());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "faults: worker 4 out of range")]
    fn rejects_a_fault_on_a_worker_the_device_lacks() {
        let mut c = SimConfig::new(4, Mode::Hermes);
        c.faults = vec![Fault::Hang {
            worker: 4,
            at_ns: 1_000,
            duration_ns: 1_000,
        }];
        c.validate();
    }
}
