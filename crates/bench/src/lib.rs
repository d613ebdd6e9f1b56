//! # hermes-bench
//!
//! The evaluation harness: one binary per table/figure of the paper (see
//! `src/bin/`), plus micro-benchmarks and ablations (`benches/`, plain
//! `harness = false` mains over [`time_it`]).
//! This library holds the shared experiment parameters and output helpers
//! so every harness prints comparable, diff-friendly results, and [`gate`],
//! the harness under the binaries `scripts/ci.sh` runs as gates, and
//! [`Pacer`], the open-loop clock of `table5`'s clients.
//!
//! Absolute numbers come from a simulator on a laptop, not Alibaba's
//! testbed; per DESIGN.md the *shape* of each result (ordering of modes,
//! imbalance ratios, crossovers) is the reproduction target, and
//! EXPERIMENTS.md records paper-vs-measured for each experiment.

pub mod gate;
pub mod pacer;

pub use pacer::Pacer;

use hermes_metrics::NANOS_PER_SEC;
use hermes_simnet::{DeviceReport, Mode, SimConfig};
use hermes_workload::Workload;
use std::cell::Cell;
use std::hint::black_box;

/// Workers per simulated LB device. The paper's devices are 32-core VMs;
/// 8 keeps harness runtimes laptop-friendly while preserving every
/// qualitative behaviour (all dispatch logic is per-worker-count agnostic).
pub const WORKERS: usize = 8;

/// Default simulated duration per experiment run.
pub const DURATION_NS: u64 = 10 * NANOS_PER_SEC;

/// Workspace-standard experiment seed.
pub const SEED: u64 = 42;

/// Requests per second the 363-device fleet of `fleet_throughput` completes
/// (Case 3 medium, 10 s, seed 363): simulated, so the same on every host. A
/// full `fleet_throughput` run fails if it measures anything else; `fig12`
/// calibrates its cost model on it.
pub const FLEET_RPS: f64 = 16_270_389.8;

/// Run one workload under one mode with default configuration.
pub fn run_mode(wl: &Workload, mode: Mode, workers: usize) -> DeviceReport {
    hermes_simnet::run(wl, SimConfig::new(workers, mode))
}

/// Format a float with engineering-friendly precision (3 significant-ish
/// decimals for small values, fewer for large).
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Render a `(value, flagged)` cell the way Table 3 marks degraded modes:
/// `x.xx (x)` when flagged.
pub fn flag(v: f64, flagged: bool) -> String {
    if flagged {
        format!("{} (x)", fmt(v))
    } else {
        fmt(v)
    }
}

/// Standard experiment header so harness outputs are self-describing.
pub fn banner(id: &str, paper_ref: &str) {
    println!("==================================================================");
    println!("{id} — reproducing {paper_ref}");
    println!(
        "workers/device = {WORKERS}, horizon = {}s, seed = {SEED}",
        DURATION_NS / NANOS_PER_SEC
    );
    println!("==================================================================");
}

/// Time one benchmark body and print a row: double a batch of calls until it
/// takes 20 ms, then hand it to the gate sampler as a comparison with one
/// side — a warm-up batch, 25 timed ones — and report the median nanoseconds
/// per call and the batches' coefficient of variation.
///
/// `cargo bench` starts a bench target with `--bench`; started without it
/// (`cargo test --benches`) the body runs once, as a smoke test.
pub fn time_it<O>(name: &str, mut body: impl FnMut() -> O) {
    const BATCH_SECONDS: f64 = 0.020;
    const BATCHES: usize = 25;
    if !std::env::args().any(|a| a == "--bench") {
        black_box(body());
        println!("{name:<56} ran once (not under `cargo bench`)");
        return;
    }
    let mut clock = gate::Clock::wall();
    let calls = Cell::new(1u64);
    let mut batch = |_: &mut gate::Clock| {
        for _ in 0..calls.get() {
            black_box(body());
        }
    };
    while clock.time(&mut batch) < BATCH_SECONDS {
        calls.set(calls.get() * 2);
    }
    let mut samples = clock.alternate(BATCHES, &mut [(name, &mut batch)]).of(name);
    println!(
        "{name:<56} {:>12} ns/call  (cov {:.1}%, {BATCHES} x {} calls)",
        fmt(samples.p50() * 1e9 / calls.get() as f64),
        100.0 * samples.stddev() / samples.mean(),
        calls.get()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision_tiers() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.123");
        assert_eq!(fmt(5.678), "5.68");
        assert_eq!(fmt(56.78), "56.8");
        assert_eq!(fmt(5678.0), "5678");
    }

    #[test]
    fn flag_marks_degraded_cells() {
        assert_eq!(flag(1.5, false), "1.50");
        assert_eq!(flag(1.5, true), "1.50 (x)");
    }
}
