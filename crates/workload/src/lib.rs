//! # hermes-workload
//!
//! Synthetic multi-tenant L7 traffic for the Hermes evaluation.
//!
//! The paper characterizes its production traffic through aggregate
//! statistics — request-size and processing-time percentiles per region
//! (Table 1), four canonical CPS × processing-time cases (Table 3) and
//! their regional mix (Table 4), heavy-tailed tenant skew (§7), long-lived
//! connection surges (Fig. 3), and forwarding-rule counts per port
//! (Fig. A5). This crate regenerates equivalent traffic:
//!
//! * [`distr`] — the statistical distributions, implemented from scratch so
//!   they can be property-tested (exponential, lognormal, Pareto, Zipf,
//!   empirical, constant).
//! * [`arrival`] — arrival processes: Poisson, on/off bursty (MMPP-2), and
//!   deterministic pacing.
//! * [`spec`] — the workload data model handed to the simulator:
//!   connections carrying requests with service times and event counts.
//! * [`tenant`] — multi-tenant composition: ports, Zipf-weighted tenant
//!   shares, per-tenant traffic profiles.
//! * [`cases`] — the four Table 3 cases at light/medium/heavy load.
//! * [`regions`] — region profiles fitted to Table 1 percentiles and the
//!   Table 4 case mix.
//! * [`scenario`] — composite scenarios: the Fig. 3 long-lived-connection
//!   surge, probe streams (Fig. 11), and the Fig. A5 rules-per-port model.

pub mod arrival;
pub mod cases;
pub mod distr;
pub mod regions;
pub mod scenario;
pub mod spec;
pub mod tenant;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use cases::{Case, CaseLoad};
pub use distr::Distribution;
pub use spec::{ConnectionSpec, RequestSpec, Workload};
pub use tenant::{TenantProfile, TenantSet};

/// Deterministic RNG used across all generators: experiments must be
/// reproducible run-to-run.
pub type Rng = hermes_metrics::SplitMix64;

/// Construct the workspace-standard RNG from a seed.
pub fn rng(seed: u64) -> Rng {
    Rng::new(seed)
}
