//! Measurement taps and the per-run report.
//!
//! Everything the evaluation harnesses read out of a simulation run lives
//! in [`DeviceReport`]: request latency, throughput, per-worker observables
//! (Fig. 4/5), load-balance standard deviations (Fig. 13, Table 2),
//! per-port traces (Fig. 3), Hermes scheduler statistics (Fig. 14), and
//! probe delays (Fig. 11).

use crate::config::SAMPLE_INTERVAL_NS;
use hermes_metrics::{timeseries::Agg, Cdf, Histogram, TimeSeries, Welford};

/// Per-worker measurement block.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Events returned per `epoll_wait` call (Fig. 4's CDF).
    pub events_per_wait: Histogram,
    /// Batch processing time per `epoll_wait` return (Fig. 5a).
    pub batch_proc_ns: Histogram,
    /// `epoll_wait` blocking time per call (Fig. 5b).
    pub blocking_ns: Histogram,
    /// Total CPU time consumed.
    pub busy_ns: u64,
    /// Connections accepted over the run.
    pub accepted: u64,
    /// Live connections at the end of the run.
    pub final_connections: i64,
    /// `epoll_wait` calls that returned no events.
    pub empty_wakes: u64,
    /// CPU utilization over the run (busy / horizon).
    pub utilization: f64,
}

impl WorkerReport {
    pub(crate) fn new() -> Self {
        Self {
            events_per_wait: Histogram::new(7),
            batch_proc_ns: Histogram::latency(),
            blocking_ns: Histogram::latency(),
            busy_ns: 0,
            accepted: 0,
            final_connections: 0,
            empty_wakes: 0,
            utilization: 0.0,
        }
    }
}

/// Hermes scheduler statistics (Fig. 14, Table 5).
#[derive(Clone, Debug, Default)]
pub struct SchedStats {
    /// `schedule_and_sync` invocations across all workers.
    pub calls: u64,
    /// Sum over calls of workers passing the coarse filter.
    pub selected_sum: u64,
    /// Sum over calls of alive (non-hung) workers.
    pub alive_sum: u64,
    /// Dispatches that took the directed path (vs reuseport fallback).
    pub directed_dispatches: u64,
    /// Dispatches that fell back.
    pub fallback_dispatches: u64,
}

impl SchedStats {
    /// Mean fraction of workers passing the coarse filter (Fig. 14).
    pub fn mean_pass_ratio(&self, workers: usize) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.selected_sum as f64 / (self.calls as f64 * workers as f64)
        }
    }

    /// Scheduler call frequency (per second) over `horizon_ns`.
    pub fn call_rate(&self, horizon_ns: u64) -> f64 {
        if horizon_ns == 0 {
            0.0
        } else {
            self.calls as f64 * 1e9 / horizon_ns as f64
        }
    }
}

/// Cross-worker imbalance tracking sampled at a fixed interval (Fig. 13).
#[derive(Clone, Debug, Default)]
pub struct BalanceStats {
    /// Mean over sampling points of the cross-worker CPU-utilization
    /// standard deviation (percent points).
    pub cpu_sd: Welford,
    /// Mean over sampling points of the cross-worker connection-count
    /// standard deviation.
    pub conn_sd: Welford,
    /// Per-sample series of (time, cpu_sd, conn_sd) for plotting.
    pub series: Vec<(u64, f64, f64)>,
}

/// The complete result of one simulation run.
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Run label (workload name + mode).
    pub label: String,
    /// Horizon simulated (ns).
    pub horizon_ns: u64,
    /// Simulation events executed by the engine over the run (the
    /// denominator of the `simnet_throughput` events/sec figure).
    pub events_processed: u64,
    /// End-to-end request latency (readable → fully processed).
    pub request_latency: Histogram,
    /// Latency of health probes (per-worker injected probes and probe
    /// pseudo-tenant requests), Fig. 11.
    pub probe_latency: Histogram,
    /// Per-worker probes injected (0 when probing is disabled).
    pub probes_sent: u64,
    /// Completed requests.
    pub completed_requests: u64,
    /// Requests unfinished at the horizon. Includes both genuinely stuck
    /// work (overload/crash) *and* scripted requests whose start time lies
    /// beyond the horizon (long-lived streams) — compare against
    /// `completed_requests` trends rather than reading it as a pure
    /// failure count.
    pub incomplete_requests: u64,
    /// Connections accepted.
    pub accepted_connections: u64,
    /// Connections never accepted by the horizon.
    pub unaccepted_connections: u64,
    /// Per-worker blocks.
    pub workers: Vec<WorkerReport>,
    /// Cross-worker balance over time.
    pub balance: BalanceStats,
    /// Hermes scheduler stats (zeroed for other modes).
    pub sched: SchedStats,
    /// Per-port live-connection gauge and per-second request starts for a
    /// designated port (Fig. 3); `None` when no port was traced.
    pub port_trace: Option<PortTrace>,
    /// NIC RSS per-queue packet counts (Fig. 7); empty when disabled.
    pub nic_queue_packets: Vec<u64>,
    /// Connections RST-rescheduled by the degradation policy (Appendix C
    /// exception case 1); 0 when degradation is disabled.
    pub rst_reschedules: u64,
    /// Bytes the device's SoA connection table occupies (capacities of all
    /// parallel arrays plus the pooled waiting-list nodes). The per-device
    /// memory budget reported by `fleet_throughput` and gated in CI.
    pub conn_table_bytes: u64,
    /// Most events the event queue ever held at once. It holds only live
    /// events (wakes, batch ends, closes, timers) — scripted arrivals are
    /// streamed past it — so this tracks workers and open connections, not
    /// the workload's length.
    pub peak_pending_events: u64,
}

/// Per-port time series for the Fig. 3 lag-effect plot.
#[derive(Clone, Debug)]
pub struct PortTrace {
    /// Traced port.
    pub port: u16,
    /// Live connections through the port (gauge).
    pub connections: TimeSeries,
    /// Request events processed per bucket (rate when divided by width).
    pub requests: TimeSeries,
}

impl PortTrace {
    pub(crate) fn new(port: u16) -> Self {
        Self {
            port,
            connections: TimeSeries::new(0, SAMPLE_INTERVAL_NS, Agg::Last),
            requests: TimeSeries::new(0, SAMPLE_INTERVAL_NS, Agg::Sum),
        }
    }
}

impl DeviceReport {
    /// Throughput in requests/second.
    pub fn throughput_rps(&self) -> f64 {
        if self.horizon_ns == 0 {
            0.0
        } else {
            self.completed_requests as f64 * 1e9 / self.horizon_ns as f64
        }
    }

    /// Mean request latency (ms), the Table 3 "Avg" column.
    pub fn avg_latency_ms(&self) -> f64 {
        self.request_latency.mean() / 1e6
    }

    /// P99 request latency (ms), the Table 3 "P99" column.
    pub fn p99_latency_ms(&self) -> f64 {
        self.request_latency.p99() as f64 / 1e6
    }

    /// CDF of per-worker CPU utilization (Table 2 style summaries).
    pub fn cpu_utilizations(&self) -> Vec<f64> {
        self.workers.iter().map(|w| w.utilization).collect()
    }

    /// Cross-worker standard deviation of total accepted connections.
    pub fn accepted_sd(&self) -> f64 {
        let v: Vec<f64> = self.workers.iter().map(|w| w.accepted as f64).collect();
        hermes_metrics::welford::stddev_of(&v)
    }

    /// CDF of probe latencies (empty histogram ⇒ empty CDF).
    pub fn probe_cdf(&self) -> Cdf {
        Cdf::from_samples(
            self.probe_latency
                .iter_buckets()
                .flat_map(|(v, c)| std::iter::repeat_n(v as f64, c as usize)),
        )
    }

    /// Count of probes delayed beyond `threshold_ns` (Fig. 11's 200 ms).
    /// Probes never answered by the horizon (hung/crashed worker) count as
    /// delayed too — in production they *are* the timeouts.
    pub fn delayed_probes(&self, threshold_ns: u64) -> u64 {
        let late: u64 = self
            .probe_latency
            .iter_buckets()
            .filter(|&(v, _)| v > threshold_ns)
            .map(|(_, c)| c)
            .sum();
        late + self.unanswered_probes()
    }

    /// Probes injected but never answered by the horizon.
    pub fn unanswered_probes(&self) -> u64 {
        self.probes_sent.saturating_sub(self.probe_latency.count())
    }

    /// Connections still established at the horizon (sum of per-worker
    /// live-connection gauges). The fleet "live connections" figure.
    pub fn live_connections(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.final_connections.max(0) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> DeviceReport {
        DeviceReport {
            label: "t".into(),
            horizon_ns: 1_000_000_000,
            events_processed: 0,
            request_latency: Histogram::latency(),
            probe_latency: Histogram::latency(),
            probes_sent: 0,
            completed_requests: 0,
            incomplete_requests: 0,
            accepted_connections: 0,
            unaccepted_connections: 0,
            workers: vec![WorkerReport::new(), WorkerReport::new()],
            balance: BalanceStats::default(),
            sched: SchedStats::default(),
            port_trace: None,
            nic_queue_packets: Vec::new(),
            rst_reschedules: 0,
            conn_table_bytes: 0,
            peak_pending_events: 0,
        }
    }

    #[test]
    fn throughput_and_latency_accessors() {
        let mut r = empty_report();
        r.completed_requests = 500;
        r.request_latency.record_n(2_000_000, 98);
        r.request_latency.record_n(50_000_000, 2);
        assert_eq!(r.throughput_rps(), 500.0);
        assert!((r.avg_latency_ms() - 2.96).abs() < 0.01);
        // Nearest-rank P99 over 100 samples is the 99th value: the tail.
        assert!(r.p99_latency_ms() >= 49.0);
    }

    #[test]
    fn delayed_probe_counting() {
        let mut r = empty_report();
        r.probe_latency.record_n(1_000_000, 10); // 1 ms: fine
        r.probe_latency.record_n(300_000_000, 3); // 300 ms: delayed
        assert_eq!(r.delayed_probes(200_000_000), 3);
        assert_eq!(r.probe_cdf().count(), 13);
    }

    #[test]
    fn sched_stats_ratios() {
        let s = SchedStats {
            calls: 100,
            selected_sum: 600,
            alive_sum: 800,
            directed_dispatches: 90,
            fallback_dispatches: 10,
        };
        assert!((s.mean_pass_ratio(8) - 0.75).abs() < 1e-12);
        assert!((s.call_rate(1_000_000_000) - 100.0).abs() < 1e-9);
        assert_eq!(SchedStats::default().mean_pass_ratio(8), 0.0);
    }

    #[test]
    fn accepted_sd_measures_imbalance() {
        let mut r = empty_report();
        r.workers[0].accepted = 100;
        r.workers[1].accepted = 0;
        assert!((r.accepted_sd() - 50.0).abs() < 1e-9);
    }
}
