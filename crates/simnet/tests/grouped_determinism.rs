//! Sharded-plane equivalence and determinism.
//!
//! The `groups` knob shards the Hermes plane into per-group WSTs,
//! schedulers, and selection maps (§7). Two contracts pin it down:
//!
//! 1. The grouped native oracle and the grouped eBPF bytecode make
//!    identical decisions, so whole runs agree byte for byte.
//! 2. Same seed ⇒ same report, with any group count.

use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad};

/// Same fingerprint the engine-equivalence suite uses: `Debug` covers
/// every field a run can legitimately differ on.
fn fingerprint(r: &DeviceReport) -> String {
    format!("{r:?}")
}

fn run(workers: usize, groups: usize, use_ebpf: bool, seed: u64) -> DeviceReport {
    let wl = Case::Case3.workload(CaseLoad::Light, workers, 1_200_000_000, seed);
    let mut cfg = SimConfig::new(workers, Mode::Hermes);
    cfg.groups = groups;
    cfg.use_ebpf = use_ebpf;
    Simulator::new(cfg, &wl).run()
}

#[test]
fn grouped_ebpf_and_native_agree_end_to_end() {
    for (workers, groups) in [(8usize, 2usize), (12, 3), (8, 4)] {
        let native = run(workers, groups, false, 99);
        let ebpf = run(workers, groups, true, 99);
        assert_eq!(
            fingerprint(&native),
            fingerprint(&ebpf),
            "{workers}w/{groups}g: bytecode plane diverged from the native oracle"
        );
    }
}

#[test]
fn grouped_runs_are_deterministic_and_spread_work() {
    let a = run(8, 2, false, 7);
    let b = run(8, 2, false, 7);
    assert_eq!(fingerprint(&a), fingerprint(&b), "same-seed runs differ");
    // Both groups' workers accept connections: level 1 sprays across
    // groups, level 2 balances within each.
    let accepts: Vec<u64> = a.workers.iter().map(|w| w.accepted).collect();
    let (g0, g1): (u64, u64) = (accepts[..4].iter().sum(), accepts[4..].iter().sum());
    assert!(g0 > 0 && g1 > 0, "a group sat idle: {accepts:?}");
    assert!(a.sched.directed_dispatches > 0, "no directed dispatches");
}

#[test]
#[should_panic(expected = "divide evenly")]
fn ragged_group_split_is_rejected() {
    let wl = Case::Case3.workload(CaseLoad::Light, 7, 200_000_000, 1);
    let mut cfg = SimConfig::new(7, Mode::Hermes);
    cfg.groups = 2;
    Simulator::new(cfg, &wl).run();
}
