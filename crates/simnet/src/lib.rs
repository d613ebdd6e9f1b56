//! # hermes-simnet
//!
//! A discrete-event simulator of the Linux connection-dispatch path that the
//! Hermes evaluation exercises: SYN arrival → handshake → accept-queue →
//! I/O event notification → userspace worker processing, under the three
//! dispatch disciplines the paper's evaluation compares (§6):
//!
//! * **epoll exclusive** — shared per-port accept queues; wait-queue walk
//!   wakes the first idle worker in LIFO registration order (the
//!   connection-concentration pathology of Fig. 2a);
//! * **reuseport** — per-worker sockets, stateless 4-tuple hashing at SYN
//!   time (Fig. 2b);
//! * **Hermes** — reuseport sockets with the userspace-directed bitmap
//!   dispatch of Algorithms 1 and 2: `hermes_core`'s `Scheduler` publishes
//!   the device's one §7 group, and `GroupedConnDispatcher`, the native
//!   oracle for the dispatch program, places, one decision per connection.
//!
//! The disciplines the paper discusses but does not measure — epoll
//! round-robin, wake-all and the userspace dispatcher (§2.2), io_uring's
//! FIFO wakeup (§8) — are not modelled.
//!
//! Workers are run-to-completion epoll event loops with a 5 ms
//! `epoll_wait` timeout, exactly the structure of Fig. 9/Fig. A1; worker
//! hangs are *emergent* (a long request simply keeps the loop from
//! re-entering, which stalls the loop-entry timestamp Hermes watches).
//!
//! The model ends at the worker: a request completes when its last event
//! has been processed. What happens behind the load balancer — backend
//! selection under pool churn, the byte relay — is `hermes-backend`'s and
//! `hermes-lb`'s, and is tested there on the code that ships.
//!
//! The simulator is deterministic: same workload + config ⇒ identical
//! results, which is what lets Table 3 run the *same* captured traffic
//! under each mode.

pub mod cluster;
pub mod config;
pub mod degrade;
pub mod event_queue;
pub mod metrics;
pub mod modes;
pub mod ports;
pub mod sim;
pub mod state;

pub use cluster::{run_fleet_with, ClusterReport};
pub use config::{Fault, Mode, SimConfig};
pub use event_queue::CalendarQueue;
pub use metrics::{DeviceReport, WorkerReport};
pub use ports::PortTable;
pub use sim::Simulator;

/// Convenience: run `workload` under `config` and return the report.
pub fn run(workload: &hermes_workload::Workload, config: SimConfig) -> metrics::DeviceReport {
    Simulator::new(config, workload).run()
}
