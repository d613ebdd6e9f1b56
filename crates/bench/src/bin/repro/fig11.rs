//! Regenerate **Fig. 11**: delayed health probes (>200 ms end-to-end) per
//! day, before (epoll exclusive) and after (Hermes) deployment, for two
//! regions.
//!
//! The paper "periodically sends probes to all workers" — probes are
//! per-worker, bypassing connection dispatch, so a delayed probe means
//! *that worker* was unresponsive. Production hangs came from load
//! concentration: epoll exclusive parks most long-lived connections on a
//! few workers, and synchronized bursts bury exactly those workers
//! (§2.3's lag effect). Hermes spreads the connections, so no worker
//! accumulates a multi-hundred-ms backlog and the hangs disappear.

use hermes_bench::{banner, WORKERS};
use hermes_metrics::{NANOS_PER_MILLI, NANOS_PER_SEC};
use hermes_simnet::{Mode, SimConfig};
use hermes_workload::scenario::{surge_into, SurgeConfig};
use hermes_workload::Workload;

/// Several surge waves over the horizon: long-lived connections build up,
/// go quiet, then burst together — repeatedly, like the quantitative
/// trading tenants the paper describes.
fn wavy_workload(waves: u64, conns_per_wave: usize, seed: u64) -> Workload {
    let cfg = SurgeConfig {
        connections: conns_per_wave,
        ramp_ns: 2 * NANOS_PER_SEC,
        quiet_ns: 2 * NANOS_PER_SEC,
        surge_window_ns: NANOS_PER_SEC / 2,
        burst_requests: 6,
        burst_service_ns: 400_000.0,
        drain_ns: NANOS_PER_SEC,
    };
    let wave_period = 6 * NANOS_PER_SEC;
    let mut wl = Workload::new("fig11-waves", waves * wave_period + 2 * NANOS_PER_SEC);
    for k in 0..waves {
        surge_into(&mut wl, cfg, seed.wrapping_add(k), k * wave_period);
    }
    wl.seal()
}

fn run_region(name: &str, conns_per_wave: usize, seed: u64) {
    let wl = wavy_workload(3, conns_per_wave, seed);
    let horizon_s = wl.duration_ns as f64 / NANOS_PER_SEC as f64;
    let scale = 86_400.0 / horizon_s;
    let mut results = Vec::new();
    for (label, mode) in [
        ("before (exclusive)", Mode::ExclusiveLifo),
        ("after (Hermes)", Mode::Hermes),
    ] {
        let mut cfg = SimConfig::new(WORKERS, mode);
        cfg.probe_interval_ns = Some(10 * NANOS_PER_MILLI);
        let r = hermes_simnet::run(&wl, cfg);
        let delayed = r.delayed_probes(200 * NANOS_PER_MILLI);
        results.push(delayed);
        println!(
            "{name} {label:<20}: {delayed:>5} / {} probes delayed >200ms  (~{:.0}/day)  probe P99 {:.1} ms",
            r.probes_sent,
            delayed as f64 * scale,
            r.probe_latency.p99() as f64 / 1e6
        );
    }
    let (before, after) = (results[0], results[1]);
    if before > 0 {
        println!(
            "{name} reduction: {:.1}%  (paper: 99.8% in Region1, 99% in Region2)\n",
            before.saturating_sub(after) as f64 / before as f64 * 100.0
        );
    } else {
        println!("{name}: no delayed probes before — increase load/seed\n");
    }
}

pub fn run() {
    banner(
        "Fig 11",
        "§6.2 '#Delayed probes per day before/after Hermes'",
    );
    run_region("Region1", 1_600, 101);
    run_region("Region2", 1_200, 202);
    println!("Paper shape: delayed probes collapse by ~99%+ after Hermes replaces exclusive.");
}
