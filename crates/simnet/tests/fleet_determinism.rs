//! Merge-order independence of the fleet work pool.
//!
//! The run-determinism suite proves each *device* is deterministic;
//! this suite proves the fleet runner, `run_fleet_with`, is too: the same
//! seed at `threads ∈ {1, 2, 8}` yields byte-identical fleet reports, for
//! every dispatch mode and for fault schedules, regardless of which pool
//! thread runs which device or in what order devices finish. Each device
//! draws its own shard (`fleet_device_case`), built on the claiming pool
//! worker.
//!
//! The fingerprint is the concatenated `Debug` of every `DeviceReport`
//! in device-index order — the same strongest-cheap-fingerprint idiom as
//! `run_determinism.rs` — so a divergence anywhere in latency
//! histograms, per-worker accepts, scheduler stats, balance series, or
//! memory accounting fails the suite.

use hermes_simnet::{run_fleet_with, ClusterReport, Fault, Mode, SimConfig};
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
    for mode in Mode::paper_trio() {
        assert_thread_count_independent(&format!("{mode:?}"), |threads| {
            run_fleet_with(5, threads, |d| {
                let wl = fleet_device_case(Case::Case3, CaseLoad::Light, 4, 500_000_000, 21, d);
                (SimConfig::new(4, mode), wl)
            })
        });
    }
}

#[test]
fn mixed_mode_cluster_is_merge_order_independent() {
    // The §6.1 side-by-side deployment: different modes in one cluster.
    let modes = [
        Mode::ExclusiveLifo,
        Mode::Reuseport,
        Mode::Hermes,
        Mode::Hermes,
        Mode::Reuseport,
        Mode::ExclusiveLifo,
    ];
    assert_thread_count_independent("mixed-mode", |threads| {
        run_fleet_with(modes.len(), threads, |d| {
            let wl = fleet_device_case(Case::Case2, CaseLoad::Medium, 4, 500_000_000, 33, d);
            (SimConfig::new(4, modes[d]), wl)
        })
    });
}

#[test]
fn fault_schedules_are_merge_order_independent() {
    // Faults land on different devices; a pool that leaked state across
    // threads (or merged out of order) would scramble which device
    // reports the crash fallout.
    let faults = |d: usize| match d {
        1 => vec![Fault::Crash {
            worker: 2,
            at_ns: 200_000_000,
        }],
        3 => vec![Fault::Hang {
            worker: 0,
            at_ns: 100_000_000,
            duration_ns: 300_000_000,
        }],
        _ => Vec::new(),
    };
    assert_thread_count_independent("faults", |threads| {
        run_fleet_with(4, threads, |d| {
            let wl = fleet_device_case(Case::Case2, CaseLoad::Medium, 4, 600_000_000, 55, d);
            let mut cfg = SimConfig::new(4, Mode::Hermes);
            cfg.faults = faults(d);
            (cfg, wl)
        })
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
    let build = |d| {
        let wl = fleet_device_case(Case::Case1, CaseLoad::Light, 2, 300_000_000, 3, d);
        (SimConfig::new(2, Mode::Hermes), wl)
    };
    let serial = run_fleet_with(3, 1, build);
    let over = run_fleet_with(3, 64, build);
    assert_eq!(fleet_fingerprint(&serial), fleet_fingerprint(&over));
}
