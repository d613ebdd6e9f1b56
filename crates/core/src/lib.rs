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
//!    [`WorkerBitmap`] and stored into a [`SelMap`] — the stand-in for the
//!    `BPF_MAP_TYPE_ARRAY` element the kernel reads (§5.3).
//! 3. **Connection dispatch** — for each new connection the kernel-side
//!    program of Algorithm 2 ([`dispatch::ConnDispatcher`]) counts the set
//!    bits, scales the precomputed 4-tuple hash into `1..=n` with
//!    `reciprocal_scale`, picks the Nth set bit, and selects that worker's
//!    reuseport socket; with too few candidates it falls back to plain
//!    reuseport hashing (§5.3.2, §5.4).
//!
//! Scaling beyond 64 workers uses the two-level group selection of §7
//! ([`group::GroupScheduler`]); the same machinery doubles as the
//! cache-locality trade-off knob of Appendix C (one group ⇒ pure Hermes, one
//! worker per group ⇒ pure reuseport).
//!
//! The crate is deliberately runtime-agnostic: the discrete-event simulator
//! (`hermes-simnet`), the load balancers' worker threads (`hermes-lb`), and
//! the eBPF-bytecode dispatch program (`hermes-ebpf`) all consume these types.
//!
//! ## Quick example
//!
//! ```
//! use hermes_core::{Wst, Scheduler, SchedConfig, dispatch::ConnDispatcher, SelMap};
//! use std::sync::Arc;
//!
//! let workers = 4;
//! let wst = Arc::new(Wst::new(workers));
//! let sel = Arc::new(SelMap::new());
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
//! sel.store(decision.bitmap);
//!
//! // Kernel-side dispatch for a new connection with some 4-tuple hash:
//! let dispatcher = ConnDispatcher::new(workers);
//! let worker = dispatcher.select(sel.load(), 0xdead_beef);
//! assert!(worker.is_some());
//! ```

pub mod bitmap;
pub mod canary;
pub mod costmodel;
pub mod degrade;
pub mod dispatch;
pub mod group;
pub mod hash;
pub mod sandbox;
pub mod sched;
pub mod sdk;
pub mod selmap;
pub mod status;
pub(crate) mod sync;
pub mod wst;

pub use bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
pub use dispatch::ConnDispatcher;
pub use group::{GroupedConnDispatcher, Placement};
pub use hash::FlowKey;
pub use sched::{FilterStage, SchedConfig, SchedDecision, Scheduler, SnapshotCache};
pub use sdk::{SyncTarget, WorkerSession};
pub use selmap::{SelMap, SockArray};
pub use status::{WorkerSnapshot, WorkerStatus};
pub use wst::Wst;

/// Identifies a worker within one LB device (dense, 0-based).
pub type WorkerId = usize;

/// Accept-burst geometry: the lb workers drain up to this many accepts per
/// listener wake-up (`ACCEPT_BURST`), and the end-to-end benchmark times
/// the dispatch program over chunks of it.
pub const DISPATCH_BATCH: usize = 64;
