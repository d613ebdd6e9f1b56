//! Sharded-plane determinism.
//!
//! The `groups` knob shards the Hermes plane into per-group WSTs,
//! schedulers, and selection maps (§7). Same seed ⇒ same report, with any
//! group count, and every group takes work. (That the grouped bytecode
//! places where the native oracle these runs use does is
//! `crates/ebpf/tests/soundness.rs`'s grouped differential sweeps.)

use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad};

/// Same fingerprint the engine-equivalence suite uses: `Debug` covers
/// every field a run can legitimately differ on.
fn fingerprint(r: &DeviceReport) -> String {
    format!("{r:?}")
}

fn run(workers: usize, groups: usize, seed: u64) -> DeviceReport {
    let wl = Case::Case3.workload(CaseLoad::Light, workers, 1_200_000_000, seed);
    let mut cfg = SimConfig::new(workers, Mode::Hermes);
    cfg.groups = groups;
    Simulator::new(cfg, &wl).run()
}

#[test]
fn grouped_runs_are_deterministic_and_spread_work() {
    let a = run(8, 2, 7);
    let b = run(8, 2, 7);
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
