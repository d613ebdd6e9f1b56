//! Merge-order independence of the fleet work pool.
//!
//! The engine-equivalence suite proves each *device* is deterministic;
//! this suite proves the *cluster layer* is too: the same seed at
//! `threads ∈ {1, 2, 8}` yields byte-identical fleet reports, for every
//! dispatch mode and for fault schedules, regardless of which pool
//! thread runs which device or in what order devices finish.
//!
//! The fingerprint is the concatenated `Debug` of every `DeviceReport`
//! in device-index order — the same strongest-cheap-fingerprint idiom as
//! `engine_equivalence.rs` — so a divergence anywhere in latency
//! histograms, per-worker accepts, scheduler stats, balance series, or
//! memory accounting fails the suite.

use hermes_simnet::{run_cluster_threaded, run_fleet_with, ClusterReport, Fault, Mode, SimConfig};
use hermes_workload::scenario::fleet_device_case;
use hermes_workload::{Case, CaseLoad};

const THREADS: [usize; 3] = [1, 2, 8];

fn fleet_fingerprint(r: &ClusterReport) -> String {
    let mut s = String::new();
    for d in &r.devices {
        s.push_str(&format!("{d:?}\n"));
    }
    s
}

/// Property body: `make(threads)` produces the same fleet report bytes
/// at every thread count.
fn assert_thread_count_independent<F>(label: &str, make: F)
where
    F: Fn(usize) -> ClusterReport,
{
    let baseline = make(THREADS[0]);
    let want = fleet_fingerprint(&baseline);
    for &threads in &THREADS[1..] {
        let got = make(threads);
        assert_eq!(
            baseline.devices.len(),
            got.devices.len(),
            "{label}: device count at threads={threads}"
        );
        // Targeted totals first for readable failures.
        assert_eq!(
            baseline.completed_requests(),
            got.completed_requests(),
            "{label}: completed requests diverge at threads={threads}"
        );
        assert_eq!(
            baseline.events_processed(),
            got.events_processed(),
            "{label}: event counts diverge at threads={threads}"
        );
        assert_eq!(
            baseline.live_connections(),
            got.live_connections(),
            "{label}: live connections diverge at threads={threads}"
        );
        assert_eq!(
            baseline.conn_table_bytes(),
            got.conn_table_bytes(),
            "{label}: memory accounting diverges at threads={threads}"
        );
        assert_eq!(
            want,
            fleet_fingerprint(&got),
            "{label}: fleet reports diverge at threads={threads}"
        );
    }
}

#[test]
fn every_mode_is_merge_order_independent() {
    for mode in [
        Mode::ExclusiveLifo,
        Mode::RoundRobin,
        Mode::WakeAll,
        Mode::IoUringFifo,
        Mode::Reuseport,
        Mode::Hermes,
        Mode::UserspaceDispatcher,
    ] {
        let wl = Case::Case3.workload(CaseLoad::Light, 4, 500_000_000, 21);
        assert_thread_count_independent(&format!("{mode:?}"), |threads| {
            let configs = (0..5).map(|_| SimConfig::new(4, mode)).collect();
            run_cluster_threaded(&wl, configs, threads)
        });
    }
}

#[test]
fn mixed_mode_cluster_is_merge_order_independent() {
    // The §6.1 side-by-side deployment: different modes in one cluster.
    let wl = Case::Case2.workload(CaseLoad::Medium, 4, 500_000_000, 33);
    assert_thread_count_independent("mixed-mode", |threads| {
        let configs = vec![
            SimConfig::new(4, Mode::ExclusiveLifo),
            SimConfig::new(4, Mode::Reuseport),
            SimConfig::new(4, Mode::Hermes),
            SimConfig::new(4, Mode::Hermes),
            SimConfig::new(4, Mode::UserspaceDispatcher),
            SimConfig::new(4, Mode::RoundRobin),
        ];
        run_cluster_threaded(&wl, configs, threads)
    });
}

#[test]
fn fault_schedules_are_merge_order_independent() {
    // Faults land on different devices; a pool that leaked state across
    // threads (or merged out of order) would scramble which device
    // reports the crash fallout.
    let wl = Case::Case2.workload(CaseLoad::Medium, 4, 600_000_000, 55);
    assert_thread_count_independent("faults", |threads| {
        let mut configs: Vec<SimConfig> = (0..4).map(|_| SimConfig::new(4, Mode::Hermes)).collect();
        configs[1].faults = vec![Fault::Crash {
            worker: 2,
            at_ns: 200_000_000,
        }];
        configs[3].faults = vec![Fault::Hang {
            worker: 0,
            at_ns: 100_000_000,
            duration_ns: 300_000_000,
        }];
        run_cluster_threaded(&wl, configs, threads)
    });
}

#[test]
fn pool_side_generation_is_merge_order_independent() {
    // `run_fleet_with` builds each device's workload *on the claiming
    // pool worker*; the stream must depend only on the device index.
    assert_thread_count_independent("fleet-builder", |threads| {
        run_fleet_with(7, threads, |d| {
            let wl = fleet_device_case(Case::Case3, CaseLoad::Light, 4, 400_000_000, 77, d);
            (SimConfig::new(4, Mode::Hermes), wl)
        })
    });
}

#[test]
fn oversubscribed_pool_matches_serial() {
    // More threads than devices: excess workers claim past the end and
    // exit; output is still the serial bytes.
    let wl = Case::Case1.workload(CaseLoad::Light, 2, 300_000_000, 3);
    let serial = run_cluster_threaded(&wl, vec![SimConfig::new(2, Mode::Hermes); 3], 1);
    let over = run_cluster_threaded(&wl, vec![SimConfig::new(2, Mode::Hermes); 3], 64);
    assert_eq!(fleet_fingerprint(&serial), fleet_fingerprint(&over));
}
