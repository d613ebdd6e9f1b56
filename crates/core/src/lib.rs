//! # hermes-core
//!
//! The primary contribution of the Hermes paper (SIGCOMM 2025): a
//! *userspace-directed I/O event notification* framework for L7 load
//! balancers, as a reusable library.
//!
//! Hermes closes a feedback loop between userspace workers and the kernel's
//! connection dispatch:
//!
//! 1. **Worker status update** — every worker publishes three metrics into a
//!    lock-free, per-worker-partitioned [`Wst`] (Worker Status Table): the
//!    timestamp of its last event-loop entry, its pending-event count, and
//!    its accumulated connection count (§5.2.1).
//! 2. **Connection scheduling** — a scheduler embedded in each worker's
//!    event loop runs the cascading filter of Algorithm 1
//!    ([`Scheduler::schedule`]): drop hung workers by loop-entry timestamp,
//!    then keep workers whose connection count and pending-event count are
//!    below `average + θ`. The surviving set is encoded as a 64-bit
//!    [`WorkerBitmap`] and stored into the `BPF_MAP_TYPE_ARRAY` element the
//!    kernel reads (§5.3): the load balancers store into the kernel's own
//!    map word, the simulator keeps the bitmap as a plain value.
//! 3. **Connection dispatch** — for each new connection the kernel-side
//!    program of Algorithm 2 ([`ConnDispatcher`]) counts the set bits,
//!    scales the precomputed 4-tuple hash into `1..=n` with
//!    `reciprocal_scale`, picks the Nth set bit, and selects that worker's
//!    reuseport socket; with too few candidates it falls back to plain
//!    reuseport hashing (§5.3.2, §5.4).
//!
//! Scaling beyond 64 workers uses the two-level dispatch of §7:
//! [`group::worker_groups`] splits a deployment into ⌈workers/64⌉ equal
//! groups, each with its own [`Wst`], [`Scheduler`] pass and bitmap, and
//! [`ConnDispatcher`] first picks a group by the flow hash, then runs
//! Algorithm 2 over that group's bitmap. One group is the flat plane, so the
//! simulator and every deployment of up to 64 workers run the same decision
//! procedure as a 128-worker one.
//!
//! The crate is deliberately runtime-agnostic: the discrete-event simulator
//! (`hermes-simnet`), the load balancers' worker threads (`hermes-lb`), and
//! the eBPF-bytecode dispatch program (`hermes-ebpf`) all consume these types.
//!
//! ## Quick example
//!
//! ```
//! use hermes_core::{Wst, Scheduler, SchedConfig, dispatch::ConnDispatcher};
//! use std::sync::Arc;
//!
//! let workers = 4;
//! let wst = Arc::new(Wst::new(workers));
//!
//! // Workers publish status from their event loops (Fig. 9 hooks):
//! wst.worker(0).enter_loop(1_000);     // shm_avail_update(now)
//! wst.worker(0).add_pending(3);        // shm_busy_count(event_num)
//! wst.worker(0).conn_delta(1);         // shm_conn_count(+1)
//! for w in 1..workers {
//!     wst.worker(w).enter_loop(1_000);
//! }
//!
//! // Any worker runs schedule_and_sync at the end of its loop:
//! let sched = Scheduler::new(SchedConfig::default());
//! let decision = sched.schedule(&wst, 2_000);
//!
//! // Kernel-side dispatch for a new connection with some 4-tuple hash,
//! // over the bitmap the scheduler published (one group: the flat plane):
//! let dispatcher = ConnDispatcher::new(workers);
//! let out = dispatcher.dispatch(&[decision.bitmap], 0xdead_beef);
//! assert!(out.is_directed());
//! ```

pub mod bitmap;
pub mod dispatch;
pub mod group;
pub mod hash;
pub mod sched;
pub mod sdk;
pub mod status;
pub mod wst;

pub use bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
pub use dispatch::ConnDispatcher;
pub use hash::FlowKey;
pub use sched::{FilterStage, SchedConfig, SchedDecision, Scheduler, SnapshotCache};
pub use sdk::WorkerSession;
pub use status::{WorkerSnapshot, WorkerStatus};
pub use wst::Wst;

/// Identifies a worker within one LB device (dense, 0-based).
pub type WorkerId = usize;

/// Batch geometry of the end-to-end benchmark, which times the dispatch
/// program over chunks of this many flow hashes. It is no accept burst:
/// both load balancers accept one connection per report of a worker's
/// listener.
pub const DISPATCH_BATCH: usize = 64;
