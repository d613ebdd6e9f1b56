//! End-to-end simulation throughput per dispatch mode.
//!
//! Measures how fast the simulator replays a fixed 1-second Case-1 slice
//! under each mode. Besides guarding simulator performance regressions,
//! the relative costs echo the modes' real bookkeeping weight (shared
//! wait-queue walking vs per-socket hashing vs Hermes scheduling).

use hermes_bench::time_it;
use hermes_simnet::{Mode, SimConfig};
use hermes_workload::{Case, CaseLoad};

fn main() {
    let wl = Case::Case1.workload(CaseLoad::Light, 4, 1_000_000_000, 99);
    for mode in [
        Mode::ExclusiveLifo,
        Mode::RoundRobin,
        Mode::WakeAll,
        Mode::Reuseport,
        Mode::Hermes,
        Mode::UserspaceDispatcher,
    ] {
        time_it(&format!("simulate_case1_light_1s/{mode:?}"), || {
            hermes_simnet::run(&wl, SimConfig::new(4, mode)).completed_requests
        });
    }
}
