//! A placed SYN is counted once, and nothing else is.
//!
//! `HermesState::tally` is the one place `dispatch.directed` /
//! `dispatch.fallback` / `dispatch.grouped` are bumped, beside the Fig. 14
//! statistics. Degradation re-homing (`redirect`) runs the same decision
//! for a connection that already exists and must reach neither — it used to
//! reach the trace counters. Requires the `trace` feature (ci.sh runs it in
//! a lane of its own); the file holds exactly one test so the global
//! counter deltas cannot race a sibling test in the same process.

#![cfg(feature = "trace")]

use hermes_core::degrade::DegradeConfig;
use hermes_simnet::{Fault, Mode, SimConfig, Simulator};
use hermes_trace::{counter_get, CounterId};
use hermes_workload::{Case, CaseLoad};

const WORKERS: usize = 8;
const SECOND: u64 = 1_000_000_000;

#[test]
fn a_degrading_run_counts_each_syn_once_and_no_redirect() {
    // `tests/faults.rs`'s degradation scenario, acting after one hot
    // interval: long-lived connections, worker 0 hung for 3 s, half its
    // connections shed per action (37 re-homed flat, 157 in two groups).
    let wl = Case::Case3.workload(CaseLoad::Heavy, WORKERS, 6 * SECOND, 8);
    for groups in [1usize, 2] {
        let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
        cfg.groups = groups;
        cfg.faults.push(Fault::Hang {
            worker: 0,
            at_ns: SECOND,
            duration_ns: 3 * SECOND,
        });
        cfg.degrade = Some(DegradeConfig {
            cpu_high_watermark: 0.9,
            sustain_intervals: 1,
            shed_fraction: 0.5,
            min_shed: 1,
        });
        let ids = [
            CounterId::DirectedDispatches,
            CounterId::FallbackDispatches,
            CounterId::GroupDispatches,
            CounterId::SimSyns,
        ];
        let before = ids.map(counter_get);
        let r = Simulator::new(cfg, &wl).run();
        let after = ids.map(counter_get);
        let [directed, fallback, grouped, syns] = std::array::from_fn(|i| after[i] - before[i]);

        assert!(
            r.rst_reschedules > 0,
            "groups={groups}: nothing was re-homed"
        );
        assert_eq!(directed + fallback, syns, "groups={groups}");
        assert_eq!(directed, r.sched.directed_dispatches, "groups={groups}");
        assert_eq!(fallback, r.sched.fallback_dispatches, "groups={groups}");
        assert_eq!(
            grouped,
            if groups > 1 { syns } else { 0 },
            "groups={groups}"
        );
    }
}
