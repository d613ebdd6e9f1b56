//! Multi-device fleet simulation (§6.1 methodology).
//!
//! The paper evaluates by redeploying "one LB with epoll exclusive and
//! another with reuseport, along with others with Hermes, in a single LB
//! cluster (8 LBs in total for load sharing and failure recovery)" — the
//! upstream L4 LB splits connections evenly across devices, so every device
//! sees statistically identical production traffic and the dispatch modes
//! can be compared side by side. §6.1 adds that "deploying multiple LBs
//! yields results equivalent to those obtained with a single LB".
//!
//! [`run_fleet_with`] models exactly that: each device runs its own
//! [`SimConfig`] (mode, faults, Hermes tuning) over its own shard of the
//! traffic, which the caller's builder generates from the device index
//! (`hermes_workload::scenario::fleet_device_mix` / `fleet_device_case`
//! seed an independent stream per device).
//!
//! # Fleet parallelism
//!
//! Devices are independent in the paper's deployment (§6.1): no state is
//! shared between LBs, so a fleet run is embarrassingly parallel.
//! [`run_fleet_with`] fans devices out over a scoped work pool
//! (`std::thread::scope`). Determinism is preserved by construction:
//!
//! 1. each device's event stream is already byte-deterministic (the
//!    `run_determinism` suite), and a device never reads another
//!    device's state, so *which thread* runs a device cannot change its
//!    [`DeviceReport`];
//! 2. pool workers claim device indices from a single atomic counter
//!    (dynamic work stealing — load balance does not depend on a static
//!    partition), and every finished report is stored into a slot keyed
//!    by its device index;
//! 3. the merged [`ClusterReport`] is assembled from those slots in
//!    device-index order after the pool joins.
//!
//! Completion order and thread count therefore never reach the output:
//! `threads=1` and `threads=N` produce byte-identical fleet reports (the
//! `fleet_determinism` suite proves this for every mode and fault
//! schedule).

use crate::config::SimConfig;
use crate::metrics::DeviceReport;
use crate::sim::Simulator;
use hermes_workload::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Result of a fleet run: one report per device, in device-index order.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-device reports.
    pub devices: Vec<DeviceReport>,
}

impl ClusterReport {
    /// Total completed requests across the cluster.
    pub fn completed_requests(&self) -> u64 {
        self.devices.iter().map(|d| d.completed_requests).sum()
    }

    /// Cluster-wide throughput (requests/second).
    pub fn throughput_rps(&self) -> f64 {
        self.devices.iter().map(DeviceReport::throughput_rps).sum()
    }

    /// Simulation events executed across the fleet (the numerator of the
    /// `fleet_throughput` events/sec figure).
    pub fn events_processed(&self) -> u64 {
        self.devices.iter().map(|d| d.events_processed).sum()
    }

    /// Connections still established at the horizon, fleet-wide.
    pub fn live_connections(&self) -> u64 {
        self.devices
            .iter()
            .map(DeviceReport::live_connections)
            .sum()
    }

    /// Total bytes held in per-device connection tables.
    pub fn conn_table_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.conn_table_bytes).sum()
    }

    /// Largest single-device connection-table footprint — the quantity
    /// the per-device memory budget gates.
    pub fn max_device_conn_table_bytes(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.conn_table_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Fleet run over `devices` devices and a work pool of `threads` OS
/// threads, with per-device workload *generation inside the pool*: the
/// builder produces device `d`'s `(SimConfig, Workload)` on the claiming
/// worker, the device runs, and the workload is dropped before the next
/// claim. Peak workload memory is O(threads), not O(devices) — this is
/// what lets one machine sweep 363 devices × thousands of connections.
///
/// The builder must be a pure function of `d` for the fleet report to be
/// thread-count independent (seed it from the device index, not from any
/// shared mutable state). Device `d`'s events log to the trace lane
/// `hermes_trace::device_lane(d)`, whichever thread runs it.
///
/// The pool claims indices from one atomic counter, so a slow device
/// never idles the other workers behind a static partition; slot-indexed
/// merging makes the output independent of claim and completion order.
/// `threads` is clamped to `1..=devices`. `threads == 1` short-circuits
/// to a plain serial loop (no pool, same claim order).
pub fn run_fleet_with<B>(devices: usize, threads: usize, build: B) -> ClusterReport
where
    B: Fn(usize) -> (SimConfig, Workload) + Sync,
{
    assert!(devices >= 1, "need at least one device");
    let run = |d: usize| {
        let (cfg, wl) = build(d);
        Simulator::on_lane(cfg, &wl, Some(hermes_trace::device_lane(d))).run()
    };
    let threads = threads.max(1).min(devices);
    if threads == 1 {
        return ClusterReport {
            devices: (0..devices).map(run).collect(),
        };
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<DeviceReport>>> = Mutex::new((0..devices).map(|_| None).collect());
    // Joins every worker and re-raises a worker's panic.
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let d = next.fetch_add(1, Ordering::Relaxed);
                if d >= devices {
                    break;
                }
                let report = run(d);
                slots.lock().expect("pool panicked")[d] = Some(report);
            });
        }
    });
    ClusterReport {
        devices: slots
            .into_inner()
            .expect("pool panicked")
            .into_iter()
            .map(|r| r.expect("every device slot filled"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use hermes_workload::scenario::fleet_device_case;
    use hermes_workload::{Case, CaseLoad};

    #[test]
    fn mixed_mode_cluster_reproduces_the_methodology() {
        // One exclusive device, one reuseport device, two Hermes devices,
        // each on its own shard of the same traffic; the exclusive device
        // must show the worst accept imbalance (this is how Fig. 13 was
        // measured).
        let modes = [
            Mode::ExclusiveLifo,
            Mode::Reuseport,
            Mode::Hermes,
            Mode::Hermes,
        ];
        let report = run_fleet_with(modes.len(), 1, |d| {
            let wl = fleet_device_case(Case::Case3, CaseLoad::Light, 4, 3_000_000_000, 5, d);
            (SimConfig::new(4, modes[d]), wl)
        });
        assert_eq!(report.devices.len(), 4);
        let sds: Vec<f64> = report
            .devices
            .iter()
            .map(DeviceReport::accepted_sd)
            .collect();
        assert!(
            sds[0] > 2.0 * sds[2].max(1.0),
            "exclusive device SD {} vs hermes {}",
            sds[0],
            sds[2]
        );
        // Load sharing works: every device served traffic.
        for d in &report.devices {
            assert!(d.completed_requests > 0);
        }
        assert!(report.completed_requests() > 0);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        run_fleet_with(0, 1, |_| {
            (SimConfig::new(2, Mode::Hermes), Workload::new("empty", 1))
        });
    }

    #[test]
    fn threaded_cluster_matches_serial_byte_for_byte() {
        let modes = [
            Mode::ExclusiveLifo,
            Mode::Reuseport,
            Mode::Hermes,
            Mode::Hermes,
            Mode::ExclusiveLifo,
        ];
        let build = |d: usize| {
            let wl = fleet_device_case(Case::Case2, CaseLoad::Light, 4, 500_000_000, 11, d);
            (SimConfig::new(4, modes[d]), wl)
        };
        let serial = run_fleet_with(modes.len(), 1, build);
        for threads in [2, 3, 8] {
            let pooled = run_fleet_with(modes.len(), threads, build);
            assert_eq!(
                format!("{serial:?}"),
                format!("{pooled:?}"),
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn fleet_builder_generates_on_pool_and_stays_deterministic() {
        let build = |d: usize| {
            let wl = Case::Case1.workload(CaseLoad::Light, 2, 300_000_000, 100 + d as u64);
            (SimConfig::new(2, Mode::Hermes), wl)
        };
        let serial = run_fleet_with(6, 1, build);
        let pooled = run_fleet_with(6, 4, build);
        assert_eq!(serial.devices.len(), 6);
        assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
        assert!(serial.events_processed() > 0);
        assert!(serial.max_device_conn_table_bytes() > 0);
        assert!(serial.conn_table_bytes() >= serial.max_device_conn_table_bytes());
    }

    #[test]
    fn more_threads_than_devices_is_fine() {
        let r = run_fleet_with(1, 16, |_| {
            let wl = Case::Case1.workload(CaseLoad::Light, 2, 200_000_000, 9);
            (SimConfig::new(2, Mode::Hermes), wl)
        });
        assert_eq!(r.devices.len(), 1);
    }
}
