//! # hermes-runtime
//!
//! A *real* multi-threaded Hermes deployment: OS threads running the
//! modified epoll event loop of Fig. 9 against a shared lock-free WST, with
//! connection dispatch through the same kernel-side logic the paper
//! attaches via `SO_ATTACH_REUSEPORT_EBPF` (here: the verified bytecode
//! behind `hermes_ebpf::DispatchPlane`).
//!
//! Where the simulator (`hermes-simnet`) gives deterministic, scalable
//! replays for the comparative tables, this crate exercises the *actual
//! concurrency claims* of §5.3:
//!
//! * per-worker-partitioned WST updates with no write locks, concurrent
//!   with scheduler reads (§5.3.1);
//! * multiple workers running `schedule_and_sync` concurrently, last
//!   writer winning on the atomic bitmap cell (§5.3.2);
//! * real wall-clock overhead accounting per component — counter,
//!   scheduler, map sync, dispatcher — regenerating **Table 5**.
//!
//! The substitution vs. the paper: worker *threads* instead of processes
//! (identical atomics semantics; see DESIGN.md), and an in-process
//! dispatch step instead of kernel socket selection. `epoll_wait` with a
//! 5 ms timeout is modelled by a blocking channel receive with timeout —
//! the same block-until-event-or-deadline contract.
//!
//! ```
//! use hermes_runtime::{LbRuntime, RuntimeConfig, ConnectionScript};
//! use std::time::Duration;
//!
//! let mut rt = LbRuntime::start(RuntimeConfig::new(4));
//! for i in 0..100u32 {
//!     rt.submit(ConnectionScript {
//!         flow_hash: i.wrapping_mul(0x9E3779B9),
//!         requests: vec![Duration::from_micros(50); 2],
//!         probe: false,
//!     });
//! }
//! let report = rt.shutdown();
//! assert_eq!(report.completed_requests, 200);
//! ```

pub mod clock;
pub mod driver;
pub mod pacer;
pub mod report;
pub mod worker;

pub use driver::{ConnectionScript, LbRuntime, RuntimeConfig};
pub use pacer::Pacer;
pub use report::{ComponentOverhead, RuntimeReport};
