//! Golden decision fingerprints of the Hermes plane.
//!
//! The constants below were recorded at the commit *before* the scheduler
//! read path was rewritten as one fused kernel (the Vec snapshot, the
//! epoch-tagged cache and the per-id `f64` sums went). A scheduler change
//! that alters a single decision moves `selected_sum`, and through the
//! placements it steers every other number, so "decision-identical" is a
//! test rather than a claim.
//!
//! Most of the traffic has Case 1 heavy's shape — 2 100 connections per
//! second per worker, one two-event request of ~380 µs each, 2 000 tenant
//! ports — generated here from integer arithmetic on the workspace
//! generator (raw states: the constants predate its seed whitening), so
//! those constants pin the simulator alone. `CASE1_HEAVY_GENERATED` goes
//! through `Case::Case1.workload` and so pins generator, distributions and
//! simulator together.
//!
//! Every golden also pins the end-of-run connection census (requests left
//! incomplete, connections never accepted) and the degradation re-homes.
//! Those three fields, the degrading runs and the generated exclusive run
//! were recorded before the simulator's connection table became a window
//! over open connection ids, so that change is checked against the table it
//! replaced.
//!
//! Case 3's shape also runs under reuseport and epoll exclusive, the
//! other two modes the paper compares.

mod golden;

use golden::*;
use hermes_simnet::{Mode, SimConfig};

#[test]
fn flat_plane_matches_the_recorded_run() {
    let wl = case1_heavy_shaped();
    assert_eq!(run_cfg(&wl, SimConfig::new(WORKERS, Mode::Hermes)), FLAT);
}

#[test]
fn generated_case1_heavy_matches_the_recorded_run() {
    let wl = case1_heavy_generated();
    assert_eq!(wl.conns.len(), 66_920);
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::Hermes)),
        CASE1_HEAVY_GENERATED
    );
    // The traffic fact the one-decision-per-connection dispatch path rests
    // on (EXPERIMENTS.md, "Traffic that was guessed"): arrivals all but
    // never share an instant, so there is no burst to batch.
    let at = |i: usize| wl.conns.get(i).map(|c| c.arrival_ns());
    let sharing = (0..wl.conns.len())
        .filter(|&i| at(i) == at(i + 1) || (i > 0 && at(i) == at(i - 1)))
        .count();
    assert!(
        sharing * 10_000 < wl.conns.len(),
        "{sharing} of {} arrivals share their instant with another",
        wl.conns.len()
    );
}

#[test]
fn case3_shape_matches_the_recorded_runs() {
    let wl = case3_shaped();
    // The shape is what it claims: clumps, ties and zero think times exist.
    assert!(wl
        .conns
        .windows(2)
        .any(|w| w[0].arrival_ns() == w[1].arrival_ns()));
    assert!(wl.conns.iter().any(|c| {
        let requests = wl.requests_of(c);
        requests
            .iter()
            .zip(requests.iter().skip(1))
            .any(|(a, b)| a.start_offset_ns == b.start_offset_ns)
    }));

    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::Hermes)),
        CASE3_HERMES
    );
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::Reuseport)),
        CASE3_REUSEPORT
    );
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::ExclusiveLifo)),
        CASE3_EXCLUSIVE
    );
}

#[test]
fn case1_shape_under_non_hermes_modes_matches_the_recorded_runs() {
    let wl = case1_heavy_shaped();
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::Reuseport)),
        CASE1_REUSEPORT
    );
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::ExclusiveLifo)),
        CASE1_EXCLUSIVE
    );
}

#[test]
fn hang_and_crash_run_matches_the_recorded_run() {
    assert_eq!(
        run_cfg(&case1_heavy_shaped(), hang_and_crash()),
        CASE1_FAULTS
    );
}

/// Appendix C degradation re-homes live connections off a hot worker, so
/// a run with it set pins which connections the re-homing scan finds, in
/// what order, and where their later requests go: in Case 1's shape one
/// request's events are all queued when the owner moves, in Case 3's the
/// rest of a long-lived connection's requests follow it to the new owner.
#[test]
fn degrading_runs_match_the_recorded_runs() {
    assert_eq!(run_cfg(&case1_heavy_shaped(), degrading()), CASE1_DEGRADED);
    assert_eq!(run_cfg(&case3_shaped(), degrading()), CASE3_DEGRADED);
}

/// The generated Case 1 heavy second under epoll exclusive: one worker
/// takes nearly every connection and falls behind, so connections stay open
/// across a wide span of ids (875 263 of 2 016 205 at 30 s) and thousands
/// are never accepted.
#[test]
fn generated_case1_heavy_under_exclusive_matches_the_recorded_run() {
    assert_eq!(
        run_cfg(
            &case1_heavy_generated(),
            SimConfig::new(WORKERS, Mode::ExclusiveLifo)
        ),
        CASE1_GENERATED_EXCLUSIVE
    );
}

#[test]
fn probed_run_matches_the_recorded_run() {
    assert_eq!(run_cfg(&case3_shaped(), probed()), CASE3_PROBED);
}
