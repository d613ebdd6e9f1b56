//! # hermes-bench
//!
//! The evaluation harness: one binary per table/figure of the paper (see
//! `src/bin/`), plus micro-benchmarks and ablations (`benches/`, plain
//! `harness = false` mains over [`time_it`]).
//! This library holds the shared experiment parameters and output helpers
//! so every harness prints comparable, diff-friendly results.
//!
//! Absolute numbers come from a simulator on a laptop, not Alibaba's
//! testbed; per DESIGN.md the *shape* of each result (ordering of modes,
//! imbalance ratios, crossovers) is the reproduction target, and
//! EXPERIMENTS.md records paper-vs-measured for each experiment.

use hermes_metrics::{Summary, NANOS_PER_SEC};
use hermes_simnet::{DeviceReport, Mode, SimConfig};
use hermes_workload::Workload;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Workers per simulated LB device. The paper's devices are 32-core VMs;
/// 8 keeps harness runtimes laptop-friendly while preserving every
/// qualitative behaviour (all dispatch logic is per-worker-count agnostic).
pub const WORKERS: usize = 8;

/// Default simulated duration per experiment run.
pub const DURATION_NS: u64 = 10 * NANOS_PER_SEC;

/// Workspace-standard experiment seed.
pub const SEED: u64 = 42;

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

/// Time one benchmark body and print a row: warm up for 200 ms (which also
/// sizes a batch of calls to about 20 ms), time 25 batches, report the
/// median nanoseconds per call and the batches' coefficient of variation.
///
/// `cargo bench` starts a bench target with `--bench`; started without it
/// (`cargo test --benches`) the body runs once, as a smoke test.
pub fn time_it<O>(name: &str, mut body: impl FnMut() -> O) {
    const WARM_UP: Duration = Duration::from_millis(200);
    const BATCH: Duration = Duration::from_millis(20);
    const BATCHES: usize = 25;
    if !std::env::args().any(|a| a == "--bench") {
        black_box(body());
        println!("{name:<56} ran once (not under `cargo bench`)");
        return;
    }
    // The clock is read only at powers of two, so that reading it does not
    // show in the per-call estimate of a nanosecond-sized body.
    let start = Instant::now();
    let mut calls = 0u64;
    while !calls.is_power_of_two() || start.elapsed() < WARM_UP {
        black_box(body());
        calls += 1;
    }
    let per_call = start.elapsed().as_secs_f64() / calls as f64;
    let batch = ((BATCH.as_secs_f64() / per_call) as u64).max(1);
    let mut samples = Summary::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(body());
        }
        samples.record(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    println!(
        "{name:<56} {:>12} ns/call  (cov {:.1}%, {BATCHES} x {batch} calls)",
        fmt(samples.p50()),
        100.0 * samples.stddev() / samples.mean()
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
