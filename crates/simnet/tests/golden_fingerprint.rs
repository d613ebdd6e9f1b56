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

use hermes_core::FlowKey;
use hermes_metrics::SplitMix64;
use hermes_simnet::degrade::DegradeConfig;
use hermes_simnet::{Fault, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad, ConnectionSpec, RequestSpec, Workload};

const WORKERS: usize = 32;
const HORIZON_NS: u64 = 1_000_000_000;
const SEED: u64 = 42;

/// Roughly exponential with the given mean, integers only (no libm in the
/// fingerprint): a geometric whole part (a leading-zero count, mean 1) plus
/// a uniform fraction (mean ½), in units of ⅔ of the mean.
fn exp_ns(mean_ns: u64, rng: &mut SplitMix64) -> u64 {
    let unit = mean_ns * 2 / 3;
    let whole = u64::from(rng.next_u64().leading_zeros());
    unit * whole + ((unit * (rng.next_u64() & 0xffff)) >> 16)
}

fn case1_heavy_shaped() -> Workload {
    let mut rng = SplitMix64::from_state(SEED);
    let gap_ns = 1_000_000_000 / (2_100 * WORKERS as u64);
    let mut wl = Workload::new("case1-heavy-shaped", HORIZON_NS);
    let mut at = 0u64;
    loop {
        at += exp_ns(gap_ns, &mut rng);
        if at >= HORIZON_NS {
            break;
        }
        let r = rng.next_u64();
        let tenant = (r % 2_000) as u16;
        let port = 20_000 + tenant;
        let flow = FlowKey::new((r >> 32) as u32, (r >> 16) as u16, 0x0a00_0001, port);
        let request = RequestSpec {
            start_offset_ns: 0,
            service_ns: exp_ns(380_000, &mut rng).max(1),
            events: 2,
            size_bytes: 300,
        };
        wl.push(ConnectionSpec::new(at, flow, tenant, port, 0), [request]);
    }
    wl.seal()
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events_processed: u64,
    completed_requests: u64,
    p99_ns: u64,
    sched_calls: u64,
    selected_sum: u64,
    alive_sum: u64,
    incomplete_requests: u64,
    unaccepted_connections: u64,
    rst_reschedules: u64,
}

fn run_cfg(wl: &Workload, cfg: SimConfig) -> Golden {
    let r = Simulator::new(cfg, wl).run();
    Golden {
        events_processed: r.events_processed,
        completed_requests: r.completed_requests,
        p99_ns: r.request_latency.p99(),
        sched_calls: r.sched.calls,
        selected_sum: r.sched.selected_sum,
        alive_sum: r.sched.alive_sum,
        incomplete_requests: r.incomplete_requests,
        unaccepted_connections: r.unaccepted_connections,
        rst_reschedules: r.rst_reschedules,
    }
}

const FLAT: Golden = Golden {
    events_processed: 322_729,
    completed_requests: 67_748,
    p99_ns: 4_194_304,
    sched_calls: 80_446,
    selected_sum: 1_600_119,
    alive_sum: 2_574_272,
    incomplete_requests: 23,
    unaccepted_connections: 22,
    rst_reschedules: 0,
};

#[test]
fn flat_plane_matches_the_recorded_run() {
    let wl = case1_heavy_shaped();
    assert_eq!(run_cfg(&wl, SimConfig::new(WORKERS, Mode::Hermes)), FLAT);
}

/// One second of the benchmark's `sim_case1` input (`Case1`, heavy, 32
/// workers, seed 42; 66 920 connections). Recorded in the build that
/// produced every checked-in result, before the generator moved in-repo.
const CASE1_HEAVY_GENERATED: Golden = Golden {
    events_processed: 322_191,
    completed_requests: 66_901,
    p99_ns: 4_259_840,
    sched_calls: 80_713,
    selected_sum: 1_613_356,
    alive_sum: 2_582_816,
    incomplete_requests: 19,
    unaccepted_connections: 19,
    rst_reschedules: 0,
};

#[test]
fn generated_case1_heavy_matches_the_recorded_run() {
    let wl = Case::Case1.workload(CaseLoad::Heavy, WORKERS, HORIZON_NS, SEED);
    assert_eq!(wl.conns.len(), 66_920);
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::Hermes)),
        CASE1_HEAVY_GENERATED
    );
    // The traffic fact the one-decision-per-connection dispatch path rests
    // on (EXPERIMENTS.md, "Traffic that was guessed"): arrivals all but
    // never share an instant, so there is no burst to batch.
    let at = |i: usize| wl.conns.get(i).map(|c| c.arrival_ns);
    let sharing = (0..wl.conns.len())
        .filter(|&i| at(i) == at(i + 1) || (i > 0 && at(i) == at(i - 1)))
        .count();
    assert!(
        sharing * 10_000 < wl.conns.len(),
        "{sharing} of {} arrivals share their instant with another",
        wl.conns.len()
    );
}

// ---------------------------------------------------------------------
// Shapes Case 1 never reaches. Recorded at the commit *before* scripted
// arrivals left the event queue (they are now streamed from the sorted
// workload and merged with the queue), so the merge's tie-break — scripted
// before live at one nanosecond, scripted by (connection, request index) —
// is pinned against what the single queue did.
// ---------------------------------------------------------------------

/// Case 3's shape — few long-lived connections, each streaming 200 cheap
/// one-event requests at think-time offsets, closing after a linger — with
/// every time on a 100 µs grid, so the run is full of ties: connections
/// arriving in same-instant clumps, requests of different connections on
/// one nanosecond, zero think times (equal offsets within a connection),
/// and live wakes landing on scripted instants.
fn case3_shaped() -> Workload {
    const GRID_NS: u64 = 100_000;
    let mut rng = SplitMix64::from_state(SEED ^ 3);
    let mut wl = Workload::new("case3-shaped", HORIZON_NS);
    let mut at = 0u64;
    loop {
        at += exp_ns(1_250_000, &mut rng).div_ceil(GRID_NS) * GRID_NS;
        if at >= HORIZON_NS {
            break;
        }
        let clump = match rng.next_u64() % 16 {
            0..=11 => 1,
            r => r - 10,
        };
        for _ in 0..clump {
            let r = rng.next_u64();
            let tenant = (r % 200) as u16;
            let port = 20_000 + tenant;
            let mut offset = 0u64;
            let requests = (0..200).map(|i| {
                if i > 0 {
                    offset += exp_ns(2_000_000, &mut rng) / GRID_NS * GRID_NS;
                }
                RequestSpec {
                    start_offset_ns: offset,
                    service_ns: exp_ns(35_000, &mut rng).max(1),
                    events: 1,
                    size_bytes: 600,
                }
            });
            let flow = FlowKey::new((r >> 32) as u32, (r >> 16) as u16, 0x0a00_0001, port);
            let conn = ConnectionSpec::new(at, flow, tenant, port, 50_000_000);
            wl.push(conn, requests);
        }
    }
    wl.seal()
}

#[test]
fn case3_shape_matches_the_recorded_runs() {
    let wl = case3_shaped();
    // The shape is what it claims: clumps, ties and zero think times exist.
    assert!(wl
        .conns
        .windows(2)
        .any(|w| w[0].arrival_ns == w[1].arrival_ns));
    assert!(wl.conns.iter().any(|c| wl
        .requests_of(c)
        .windows(2)
        .any(|w| w[0].start_offset_ns == w[1].start_offset_ns)));

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
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.faults = vec![
        Fault::Hang {
            worker: 3,
            at_ns: 200_000_000,
            duration_ns: 300_000_000,
        },
        Fault::Crash {
            worker: 7,
            at_ns: 500_000_000,
        },
    ];
    assert_eq!(run_cfg(&case1_heavy_shaped(), cfg), CASE1_FAULTS);
}

/// Appendix C degradation re-homes live connections off a hot worker, so
/// a run with it set pins which connections the re-homing scan finds, in
/// what order, and where their later requests go: in Case 1's shape one
/// request's events are all queued when the owner moves, in Case 3's the
/// rest of a long-lived connection's requests follow it to the new owner.
#[test]
fn degrading_runs_match_the_recorded_runs() {
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.faults = vec![Fault::Hang {
        worker: 3,
        at_ns: 200_000_000,
        duration_ns: 500_000_000,
    }];
    cfg.degrade = Some(DegradeConfig {
        cpu_high_watermark: 0.8,
        sustain_intervals: 1,
        shed_fraction: 0.5,
        min_shed: 1,
    });
    assert_eq!(run_cfg(&case1_heavy_shaped(), cfg.clone()), CASE1_DEGRADED);
    assert_eq!(run_cfg(&case3_shaped(), cfg), CASE3_DEGRADED);
}

/// The generated Case 1 heavy second under epoll exclusive: one worker
/// takes nearly every connection and falls behind, so connections stay open
/// across a wide span of ids (875 263 of 2 016 205 at 30 s) and thousands
/// are never accepted.
#[test]
fn generated_case1_heavy_under_exclusive_matches_the_recorded_run() {
    let wl = Case::Case1.workload(CaseLoad::Heavy, WORKERS, HORIZON_NS, SEED);
    assert_eq!(
        run_cfg(&wl, SimConfig::new(WORKERS, Mode::ExclusiveLifo)),
        CASE1_GENERATED_EXCLUSIVE
    );
}

#[test]
fn probed_run_matches_the_recorded_run() {
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    // On the workload's grid, so probe ticks tie with scripted events.
    cfg.probe_interval_ns = Some(10_000_000);
    assert_eq!(run_cfg(&case3_shaped(), cfg), CASE3_PROBED);
}

const CASE3_HERMES: Golden = Golden {
    events_processed: 586_169,
    completed_requests: 195_854,
    p99_ns: 238_592,
    sched_calls: 138_624,
    selected_sum: 3_389_352,
    alive_sum: 4_435_968,
    incomplete_requests: 47_946,
    unaccepted_connections: 0,
    rst_reschedules: 0,
};

const CASE3_REUSEPORT: Golden = Golden {
    events_processed: 585_165,
    completed_requests: 195_853,
    p99_ns: 240_640,
    sched_calls: 0,
    selected_sum: 0,
    alive_sum: 0,
    incomplete_requests: 47_947,
    unaccepted_connections: 0,
    rst_reschedules: 0,
};

const CASE3_EXCLUSIVE: Golden = Golden {
    events_processed: 285_918,
    completed_requests: 195_835,
    p99_ns: 11_075_584,
    sched_calls: 0,
    selected_sum: 0,
    alive_sum: 0,
    incomplete_requests: 47_965,
    unaccepted_connections: 0,
    rst_reschedules: 0,
};

const CASE1_REUSEPORT: Golden = Golden {
    events_processed: 290_279,
    completed_requests: 67_709,
    p99_ns: 9_306_112,
    sched_calls: 0,
    selected_sum: 0,
    alive_sum: 0,
    incomplete_requests: 62,
    unaccepted_connections: 60,
    rst_reschedules: 0,
};

const CASE1_EXCLUSIVE: Golden = Golden {
    events_processed: 185_586,
    completed_requests: 50_990,
    p99_ns: 350_224_384,
    sched_calls: 0,
    selected_sum: 0,
    alive_sum: 0,
    incomplete_requests: 16_781,
    unaccepted_connections: 9_661,
    rst_reschedules: 0,
};

const CASE1_FAULTS: Golden = Golden {
    events_processed: 314_680,
    completed_requests: 67_506,
    p99_ns: 4_456_448,
    sched_calls: 76_202,
    selected_sum: 1_469_636,
    alive_sum: 2_393_254,
    incomplete_requests: 265,
    unaccepted_connections: 262,
    rst_reschedules: 0,
};

const CASE3_PROBED: Golden = Golden {
    events_processed: 591_142,
    completed_requests: 195_854,
    p99_ns: 238_592,
    sched_calls: 140_325,
    selected_sum: 3_427_619,
    alive_sum: 4_490_400,
    incomplete_requests: 47_946,
    unaccepted_connections: 0,
    rst_reschedules: 0,
};

const CASE1_DEGRADED: Golden = Golden {
    events_processed: 310_567,
    completed_requests: 67_752,
    p99_ns: 4_587_520,
    sched_calls: 73_995,
    selected_sum: 1_426_288,
    alive_sum: 2_340_836,
    incomplete_requests: 19,
    unaccepted_connections: 18,
    rst_reschedules: 13,
};

const CASE3_DEGRADED: Golden = Golden {
    events_processed: 581_094,
    completed_requests: 195_854,
    p99_ns: 313_344,
    sched_calls: 137_009,
    selected_sum: 3_348_113,
    alive_sum: 4_321_161,
    incomplete_requests: 47_946,
    unaccepted_connections: 0,
    rst_reschedules: 1,
};

const CASE1_GENERATED_EXCLUSIVE: Golden = Golden {
    events_processed: 184_354,
    completed_requests: 50_844,
    p99_ns: 348_127_232,
    sched_calls: 0,
    selected_sum: 0,
    alive_sum: 0,
    incomplete_requests: 16_076,
    unaccepted_connections: 8_316,
    rst_reschedules: 0,
};
