//! Regenerate the §7 "Experiences" findings that are quantifiable:
//!
//! 1. the backend round-robin restart imbalance Hermes exposed (and the
//!    randomized-offset fix),
//! 2. the per-worker vs shared backend connection-pool reuse gap,
//! 3. the canary-release connection-drain tail behind Fig. 11
//!    ("probes continued reaching old-version VMs ... up to 11 days"),
//! 4. static "last-added" port assignment failing under tenant skew
//!    (why the multi-port workaround of §7 does not work).

use hermes_backend::{fleet_distribution, PoolModel, PoolSim, RestartPolicy};
use hermes_bench::banner;
use hermes_core::canary::DrainModel;
use hermes_metrics::ascii::line_plot;
use hermes_metrics::table::Table;
use hermes_metrics::welford::stddev_of;
use hermes_workload::distr::Zipf;

fn issue1_round_robin() {
    println!("--- Deployment issue 1: synchronized round-robin restarts ---");
    let (workers, reqs, servers) = (16, 30, 100);
    let mut t = Table::new("per-backend-server request counts after a list update").header([
        "policy",
        "max",
        "min",
        "SD",
        "servers with 0",
    ]);
    for (name, policy) in [
        ("restart at first server (bug)", RestartPolicy::FirstServer),
        (
            "randomized offsets (fix)",
            RestartPolicy::Randomized { seed: 7 },
        ),
    ] {
        let counts = fleet_distribution(workers, reqs, servers, policy);
        let f: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        t.row([
            name.to_string(),
            counts.iter().max().unwrap().to_string(),
            counts.iter().min().unwrap().to_string(),
            format!("{:.2}", stddev_of(&f)),
            counts.iter().filter(|&&c| c == 0).count().to_string(),
        ]);
    }
    println!("{t}");
}

fn issue2_connection_pools() {
    println!("--- Deployment issue 2: backend connection reuse ---");
    let (workers, servers) = (8usize, 50usize);
    let mut t = Table::new("upstream connection reuse under Hermes-spread traffic").header([
        "pool model",
        "reuse rate",
        "handshakes per 10k requests",
    ]);
    for (name, model) in [
        ("per-worker pools", PoolModel::PerWorker),
        ("shared pool (fix)", PoolModel::Shared),
    ] {
        let mut sim = PoolSim::new(model, workers, servers, 100);
        for i in 0..10_000usize {
            // pseudo-random backend pick per request
            let mut x = i as u64 ^ 0x2545_F491_4F6C_DD1D;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            sim.request(i % workers, (x % servers as u64) as usize);
        }
        t.row([
            name.to_string(),
            format!("{:.1}%", sim.reuse_rate() * 100.0),
            sim.handshakes.to_string(),
        ]);
    }
    println!("{t}");
}

fn canary_drain() {
    println!("--- Canary rollout: old-version connection drain (Fig. 11 tail) ---");
    let r1 = DrainModel::region1_like();
    let r2 = DrainModel::region2_like();
    let s1: Vec<(f64, f64)> = r1
        .drain_series(14)
        .iter()
        .enumerate()
        .map(|(d, &f)| (d as f64, f))
        .collect();
    let s2: Vec<(f64, f64)> = r2
        .drain_series(14)
        .iter()
        .enumerate()
        .map(|(d, &f)| (d as f64, f))
        .collect();
    println!(
        "{}",
        line_plot(
            "fraction of connections still on old-version VMs (x = days)",
            &[("Region1-like", &s1), ("Region2-like", &s2)],
            72,
            12,
        )
    );
    println!(
        "days until fully drained (<1e-4 remaining): Region1-like {} (paper: ~11), Region2-like {}",
        r1.days_to_drain(1e-4),
        r2.days_to_drain(1e-4)
    );
}

fn static_port_assignment() {
    println!("\n--- Why static 'last-added' port scattering fails (§7) ---");
    // O(10K) ports scattered over O(10) workers, but tenant traffic is
    // Zipf-skewed: the dominant tenants land wherever their ports were
    // pinned, re-creating concentration.
    let (ports, workers) = (10_000usize, 16usize);
    let zipf = Zipf::new(ports, 1.05);
    let mut rng = hermes_workload::rng(3);
    let mut per_worker = vec![0u64; workers];
    for _ in 0..200_000 {
        let port = zipf.sample_index(&mut rng);
        // Static scatter: port p pinned to worker p % workers.
        per_worker[port % workers] += 1;
    }
    let f: Vec<f64> = per_worker.iter().map(|&c| c as f64).collect();
    let mean = f.iter().sum::<f64>() / f.len() as f64;
    let max = f.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "static pinning under Zipf tenants: hottest worker {:.1}x the mean (SD {:.0})",
        max / mean,
        stddev_of(&f)
    );
    println!("-> dominant tenants concentrate load regardless of how ports are scattered.");
}

fn main() {
    banner(
        "Experiences",
        "§7 deployment issues + canary drain + port-scatter analysis",
    );
    issue1_round_robin();
    issue2_connection_pools();
    canary_drain();
    static_port_assignment();
}
