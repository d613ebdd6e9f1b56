//! Measurement plumbing for the Hermes evaluation harness.
//!
//! The Hermes paper reports latency percentiles (P50/P90/P99/P999), CDFs of
//! per-worker observables (events per `epoll_wait`, processing time, blocking
//! time), standard deviations of CPU utilization and connection counts across
//! workers, and throughput in requests per second. This crate provides the
//! small, dependency-free statistical toolkit those experiments need:
//!
//! * [`Histogram`] — a log-bucketed value histogram with bounded relative
//!   error, suitable for latency recording at high rates.
//! * [`Summary`] — exact order statistics over a retained sample.
//! * [`Welford`] — streaming mean/variance for imbalance (stddev) metrics.
//! * [`Cdf`] — empirical CDF construction and fixed-grid evaluation.
//! * [`TimeSeries`] — time-bucketed counters/gauges for rate and utilization
//!   traces (Fig. 3, Fig. 13).
//! * [`table`] — aligned plain-text table rendering for regenerated tables.
//! * [`ascii`] — plain-text line/CDF plots for regenerated figures.
//! * [`SplitMix64`] — the seeded generator behind every workload and every
//!   randomized test in the workspace.
//!
//! Everything here is deterministic and allocation-conscious; nothing in the
//! measurement path takes a lock.

pub mod ascii;
pub mod cdf;
pub mod histogram;
pub mod rng;
pub mod summary;
pub mod table;
pub mod timeseries;
pub mod welford;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use rng::SplitMix64;
pub use summary::Summary;
pub use timeseries::TimeSeries;
pub use welford::Welford;

/// Nanoseconds-per-second constant used across the workspace.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Nanoseconds-per-millisecond constant used across the workspace.
pub const NANOS_PER_MILLI: u64 = 1_000_000;

/// Format a duration given in nanoseconds using an adaptive unit.
///
/// Used by table/figure harnesses so that regenerated output reads like the
/// paper's ("2.62 ms", "440 s").
pub fn fmt_nanos(ns: u64) -> String {
    if ns >= 10 * NANOS_PER_SEC {
        format!("{:.1} s", ns as f64 / NANOS_PER_SEC as f64)
    } else if ns >= NANOS_PER_SEC {
        format!("{:.2} s", ns as f64 / NANOS_PER_SEC as f64)
    } else if ns >= NANOS_PER_MILLI {
        format!("{:.2} ms", ns as f64 / NANOS_PER_MILLI as f64)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1_000.0)
    } else {
        format!("{} ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_nanos_picks_adaptive_units() {
        assert_eq!(fmt_nanos(12), "12 ns");
        assert_eq!(fmt_nanos(1_500), "1.50 us");
        assert_eq!(fmt_nanos(2_620_000), "2.62 ms");
        assert_eq!(fmt_nanos(1_500_000_000), "1.50 s");
        assert_eq!(fmt_nanos(440 * NANOS_PER_SEC), "440.0 s");
    }
}
