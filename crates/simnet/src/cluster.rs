//! Multi-device cluster simulation (§6.1 methodology).
//!
//! The paper evaluates by redeploying "one LB with epoll exclusive and
//! another with reuseport, along with others with Hermes, in a single LB
//! cluster (8 LBs in total for load sharing and failure recovery)" — the
//! upstream L4 LB splits connections across devices, so every device sees
//! statistically identical production traffic and the dispatch modes can
//! be compared side by side.
//!
//! [`run_cluster`] models exactly that: an ECMP-style flow-hash split of
//! one workload across per-device simulators, each with its own
//! [`SimConfig`] (mode, faults, Hermes tuning).
//!
//! # Fleet parallelism
//!
//! Devices are independent in the paper's deployment (§6.1): no state is
//! shared between LBs, so a fleet run is embarrassingly parallel.
//! [`run_cluster_threaded`] and [`run_fleet_with`] fan devices out over a
//! scoped work pool (`std::thread::scope`). Determinism is preserved by
//! construction:
//!
//! 1. each device's event stream is already byte-deterministic (the
//!    engine-equivalence suite), and a device never reads another
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
use hermes_core::hash::{jhash_3words, reciprocal_scale};
use hermes_workload::{ConnectionSpec, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Seed for the L4 LB's ECMP hash — deliberately different from the
/// in-kernel reuseport seed so device choice and worker choice are
/// independent, as they are in production.
const L4_HASH_SEED: u32 = 0x5bd1_e995;

/// L4-level device selection for a connection.
pub fn device_for(conn: &ConnectionSpec, devices: usize) -> usize {
    let f = &conn.flow;
    let h = jhash_3words(
        f.src_ip,
        f.dst_ip,
        ((f.src_port as u32) << 16) | f.dst_port as u32,
        L4_HASH_SEED,
    );
    reciprocal_scale(h, devices as u32) as usize
}

/// Split one cluster workload into per-device workloads by flow hash.
pub fn split_workload(wl: &Workload, devices: usize) -> Vec<Workload> {
    assert!(devices >= 1, "need at least one device");
    let mut per_device: Vec<Workload> = (0..devices)
        .map(|d| Workload::new(format!("{}-dev{}", wl.name, d), wl.duration_ns))
        .collect();
    for conn in &wl.conns {
        per_device[device_for(conn, devices)].push(conn.clone());
    }
    per_device.into_iter().map(Workload::seal).collect()
}

/// Result of a cluster run: one report per device, in config order.
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

/// Run `devices` independent jobs over a pool of `threads` workers and
/// collect the reports in device-index order.
///
/// The pool claims indices from one atomic counter, so a slow device
/// never idles the other workers behind a static partition; slot-indexed
/// merging makes the output independent of claim and completion order.
/// `threads` is clamped to `1..=devices`. `threads == 1` short-circuits
/// to a plain serial loop (no pool, same claim order).
fn run_indexed<F>(devices: usize, threads: usize, run: F) -> ClusterReport
where
    F: Fn(usize) -> DeviceReport + Sync,
{
    assert!(devices >= 1, "need at least one device");
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

/// Run `workload` across a cluster of devices, one [`SimConfig`] each
/// (the per-device worker counts may differ; modes certainly may).
pub fn run_cluster(workload: &Workload, configs: Vec<SimConfig>) -> ClusterReport {
    run_cluster_threaded(workload, configs, 1)
}

/// [`run_cluster`] over a work pool of `threads` OS threads.
///
/// Byte-identical to the serial run at any thread count (see the module
/// docs for the determinism argument). Each device's config gets its
/// fleet position stamped into [`SimConfig::device_index`] (unless the
/// caller already set one) so trace lanes stay stable under the pool.
pub fn run_cluster_threaded(
    workload: &Workload,
    configs: Vec<SimConfig>,
    threads: usize,
) -> ClusterReport {
    assert!(!configs.is_empty(), "need at least one device");
    let shards = split_workload(workload, configs.len());
    let mut configs = configs;
    for (d, cfg) in configs.iter_mut().enumerate() {
        cfg.device_index.get_or_insert(d as u32);
    }
    run_indexed(configs.len(), threads, |d| {
        Simulator::new(configs[d].clone(), &shards[d]).run()
    })
}

/// Fleet run with per-device workload *generation inside the pool*: the
/// builder produces device `d`'s `(SimConfig, Workload)` on the claiming
/// worker, the device runs, and the workload is dropped before the next
/// claim. Peak workload memory is O(threads), not O(devices) — this is
/// what lets one machine sweep 363 devices × thousands of connections.
///
/// The builder must be a pure function of `d` for the fleet report to be
/// thread-count independent (seed it from the device index, not from any
/// shared mutable state).
pub fn run_fleet_with<B>(devices: usize, threads: usize, build: B) -> ClusterReport
where
    B: Fn(usize) -> (SimConfig, Workload) + Sync,
{
    run_indexed(devices, threads, |d| {
        let (mut cfg, wl) = build(d);
        cfg.device_index.get_or_insert(d as u32);
        Simulator::new(cfg, &wl).run()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use hermes_workload::{Case, CaseLoad};

    #[test]
    fn split_partitions_the_workload() {
        let wl = Case::Case1.workload(CaseLoad::Light, 4, 1_000_000_000, 3);
        let shards = split_workload(&wl, 8);
        let total: usize = shards.iter().map(Workload::connection_count).sum();
        assert_eq!(total, wl.connection_count());
        // ECMP balance: every device gets a fair share.
        for (d, s) in shards.iter().enumerate() {
            let share = s.connection_count() as f64 / wl.connection_count() as f64;
            assert!((share - 0.125).abs() < 0.03, "device {d} share {share}");
        }
    }

    #[test]
    fn device_choice_is_deterministic_and_flow_stable() {
        let wl = Case::Case1.workload(CaseLoad::Light, 2, 200_000_000, 4);
        for conn in wl.conns.iter().take(50) {
            assert_eq!(device_for(conn, 8), device_for(conn, 8));
        }
    }

    #[test]
    fn mixed_mode_cluster_reproduces_the_methodology() {
        // One exclusive device, one reuseport device, two Hermes devices —
        // same cluster traffic; the exclusive device must show the worst
        // accept imbalance (this is how Fig. 13 was measured).
        let wl = Case::Case3.workload(CaseLoad::Light, 4, 3_000_000_000, 5);
        let configs = vec![
            SimConfig::new(4, Mode::ExclusiveLifo),
            SimConfig::new(4, Mode::Reuseport),
            SimConfig::new(4, Mode::Hermes),
            SimConfig::new(4, Mode::Hermes),
        ];
        let report = run_cluster(&wl, configs);
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
        let wl = Workload::new("empty", 1);
        run_cluster(&wl, vec![]);
    }

    #[test]
    fn threaded_cluster_matches_serial_byte_for_byte() {
        let wl = Case::Case2.workload(CaseLoad::Light, 4, 500_000_000, 11);
        let configs = || {
            vec![
                SimConfig::new(4, Mode::ExclusiveLifo),
                SimConfig::new(4, Mode::Reuseport),
                SimConfig::new(4, Mode::Hermes),
                SimConfig::new(4, Mode::Hermes),
                SimConfig::new(4, Mode::RoundRobin),
            ]
        };
        let serial = run_cluster(&wl, configs());
        for threads in [2, 3, 8] {
            let pooled = run_cluster_threaded(&wl, configs(), threads);
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
        let wl = Case::Case1.workload(CaseLoad::Light, 2, 200_000_000, 9);
        let r = run_cluster_threaded(&wl, vec![SimConfig::new(2, Mode::Hermes)], 16);
        assert_eq!(r.devices.len(), 1);
    }

    #[test]
    fn device_index_is_stamped_for_fleet_trace_lanes() {
        // The cluster layer assigns each device its fleet position unless
        // the caller pinned one; lanes derive from it, not the OS thread.
        let wl = Case::Case1.workload(CaseLoad::Light, 2, 200_000_000, 9);
        let mut pinned = SimConfig::new(2, Mode::Hermes);
        pinned.device_index = Some(7);
        let shards = split_workload(&wl, 1);
        // Indirect check: a pinned index survives the threaded runner.
        let r = run_cluster_threaded(&wl, vec![pinned.clone()], 2);
        assert_eq!(r.devices.len(), 1);
        // And the stamped default equals the device position.
        let mut cfgs = vec![SimConfig::new(2, Mode::Hermes); 3];
        for (d, cfg) in cfgs.iter_mut().enumerate() {
            cfg.device_index.get_or_insert(d as u32);
            assert_eq!(cfg.device_index, Some(d as u32));
        }
        drop(shards);
    }
}
