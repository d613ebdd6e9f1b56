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
//!   constant, two-component mixture). Each can also skip a draw: advance
//!   the RNG as a sample would without computing the value, which is how a
//!   request's size, drawn only to keep every seed's stream, costs one raw
//!   draw instead of a logarithm.
//! * [`arrival`] — the arrival process every generator draws from: Poisson
//!   at a connections-per-second rate, read lazily.
//! * [`spec`] — the workload data model handed to the simulator, holding
//!   only what it reads: connections (arrival and tenant in one word, flow
//!   hash) carrying requests (start offset, service time), and each
//!   tenant's Dport, linger and events per request. A connection whose
//!   script is one request at offset 0 below 2.1 s — every Case 1
//!   connection — holds it in its own 16-byte row, where the generator
//!   writes it directly; any other script is a run of the workload's one
//!   request table.
//! * [`tenant`] — multi-tenant composition: ports, Zipf-weighted tenant
//!   shares, per-tenant traffic profiles.
//! * [`cases`] — the four Table 3 cases at light/medium/heavy load.
//! * [`regions`] — region profiles fitted to Table 1 percentiles and the
//!   Table 4 case mix.
//! * [`scenario`] — composite scenarios: the Fig. 3 long-lived-connection
//!   surge, region mixes and their per-device fleet shards, and the Fig. A5
//!   rules-per-port model. Fig. 11's health probes are not traffic: the
//!   simulator injects them (`SimConfig::probe_interval_ns`).

pub mod arrival;
pub mod cases;
pub mod distr;
pub mod regions;
pub mod scenario;
pub mod spec;
pub mod tenant;

pub use arrival::ArrivalProcess;
pub use cases::{Case, CaseLoad};
pub use distr::Distribution;
pub use spec::{ConnectionSpec, FlowHash, RequestSpec, Workload};
pub use tenant::{TenantProfile, TenantSet};

/// Deterministic RNG used across all generators: experiments must be
/// reproducible run-to-run.
pub type Rng = hermes_metrics::SplitMix64;

/// Construct the workspace-standard RNG from a seed.
pub fn rng(seed: u64) -> Rng {
    Rng::new(seed)
}
