//! # Hermes
//!
//! A full reproduction of **"Hermes: Enhancing Layer-7 Cloud Load
//! Balancers with Userspace-Directed I/O Event Notification"**
//! (SIGCOMM 2025) as a Rust workspace. This facade crate re-exports the
//! public API of every subsystem:
//!
//! * [`core`] — the contribution: lock-free Worker Status Table,
//!   cascading-filter scheduler (Algorithm 1), worker bitmap, kernel-side
//!   connection dispatch (Algorithm 2), two-level worker groups (§7), and
//!   the worker SDK.
//! * [`ebpf`] — the Algorithm 2 dispatch program in kernel eBPF encoding:
//!   assembler, disassembler, a checked interpreter of those bytes with the
//!   program's maps (attached as a [`ebpf::ReuseportGroup`]), and the same
//!   bytes loaded with `bpf(2)` onto real `SO_REUSEPORT` groups, where the
//!   kernel's verifier admits them.
//! * [`simnet`] — the discrete-event simulator of the kernel dispatch
//!   path under the three modes the paper measures: epoll exclusive
//!   (LIFO), reuseport and Hermes, with fault injection and Appendix C's
//!   connection-reset degradation.
//! * [`workload`] — multi-tenant synthetic traffic: distributions fitted
//!   to Table 1, the four Table 3 cases, region mixes, fleet shards, surges.
//! * [`metrics`] — histograms, percentiles, CDFs, time series, and the
//!   text rendering used by the table/figure harnesses.
//! * [`backend`] — the backend data plane: per-backend health state
//!   machine, epoch-versioned backend tables published as frozen
//!   snapshots, O(1) consistent selection, per-connection admission.
//! * [`lb`] — a working multi-tenant L7 reverse proxy assembled from the
//!   pieces: HTTP/1.1 parsing, routing rules, backend pools, a real
//!   TCP server whose workers the kernel dispatches to through the
//!   attached program, and a client↔backend byte relay over the versioned
//!   pools.
//!
//! ## Quickstart
//!
//! Run a workload under all three paper modes and compare balance:
//!
//! ```
//! use hermes::prelude::*;
//!
//! let wl = Case::Case3.workload(CaseLoad::Light, 4, 1_000_000_000, 7);
//! for mode in Mode::paper_trio() {
//!     let report = hermes::simnet::run(&wl, SimConfig::new(4, mode));
//!     println!("{}: accepted SD {:.1}", mode.name(), report.accepted_sd());
//! }
//! ```
//!
//! See `examples/` for runnable scenarios, and `hermes-bench`'s `repro`
//! binary (`repro <name>`, `repro all`) for every table and figure.

pub use hermes_backend as backend;
pub use hermes_core as core;
pub use hermes_ebpf as ebpf;
pub use hermes_lb as lb;
pub use hermes_metrics as metrics;
pub use hermes_simnet as simnet;
pub use hermes_workload as workload;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use hermes_backend::{Admission, BackendPool, BackendTable, HealthState, TableCache};
    pub use hermes_core::{
        ConnDispatcher, FlowKey, SchedConfig, SchedDecision, Scheduler, WorkerBitmap, Wst,
    };
    pub use hermes_ebpf::ReuseportGroup;
    pub use hermes_metrics::{Histogram, Summary};
    pub use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
    pub use hermes_workload::{Case, CaseLoad, TenantProfile, TenantSet, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Compile-time check that each subsystem is reachable.
        let _ = crate::core::WorkerBitmap::all(4);
        let _ = crate::metrics::Histogram::latency();
        let _ = crate::workload::Case::all();
        let _ = crate::simnet::Mode::paper_trio();
        let _ = crate::ebpf::ReuseportGroup::new(2);
        let _ = crate::backend::BackendPool::new(2);
    }
}
