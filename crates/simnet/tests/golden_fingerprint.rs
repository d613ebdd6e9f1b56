//! Golden decision fingerprints of the Hermes plane.
//!
//! The constants below were recorded at the commit *before* the scheduler
//! read path was rewritten as one fused kernel (the Vec snapshot, the
//! epoch-tagged cache and the per-id `f64` sums went). A scheduler change
//! that alters a single decision moves `selected_sum`, and through the
//! placements it steers every other number, so "decision-identical" is a
//! test rather than a claim.
//!
//! The traffic has Case 1 heavy's shape — 2 100 connections per second per
//! worker, one two-event request of ~380 µs each, 2 000 tenant ports — but
//! is generated here from integer arithmetic on a splitmix stream, not by
//! `Case::Case1.workload`: that goes through the `rand` crate, and pinned
//! constants must not depend on which `rand` build is linked.

use hermes_core::FlowKey;
use hermes_simnet::{Mode, SimConfig, Simulator};
use hermes_workload::{ConnectionSpec, RequestSpec, Workload};

const WORKERS: usize = 32;
const HORIZON_NS: u64 = 1_000_000_000;
const SEED: u64 = 42;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Roughly exponential with the given mean, integers only (no libm in the
/// fingerprint): a geometric whole part (a leading-zero count, mean 1) plus
/// a uniform fraction (mean ½), in units of ⅔ of the mean.
fn exp_ns(mean_ns: u64, state: &mut u64) -> u64 {
    let unit = mean_ns * 2 / 3;
    let whole = u64::from(splitmix(state).leading_zeros());
    unit * whole + ((unit * (splitmix(state) & 0xffff)) >> 16)
}

fn case1_heavy_shaped() -> Workload {
    let mut rng = SEED;
    let gap_ns = 1_000_000_000 / (2_100 * WORKERS as u64);
    let mut wl = Workload::new("case1-heavy-shaped", HORIZON_NS);
    let mut at = 0u64;
    loop {
        at += exp_ns(gap_ns, &mut rng);
        if at >= HORIZON_NS {
            break;
        }
        let r = splitmix(&mut rng);
        let tenant = (r % 2_000) as u16;
        let port = 20_000 + tenant;
        wl.push(ConnectionSpec {
            arrival_ns: at,
            flow: FlowKey::new((r >> 32) as u32, (r >> 16) as u16, 0x0a00_0001, port),
            tenant,
            port,
            requests: vec![RequestSpec {
                start_offset_ns: 0,
                service_ns: exp_ns(380_000, &mut rng).max(1),
                events: 2,
                size_bytes: 300,
            }],
            linger_ns: None,
        });
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
}

fn run(wl: &Workload, groups: Option<usize>, use_ebpf: bool) -> Golden {
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.groups = groups;
    cfg.use_ebpf = use_ebpf;
    let r = Simulator::new(cfg, wl).run();
    Golden {
        events_processed: r.events_processed,
        completed_requests: r.completed_requests,
        p99_ns: r.request_latency.p99(),
        sched_calls: r.sched.calls,
        selected_sum: r.sched.selected_sum,
        alive_sum: r.sched.alive_sum,
    }
}

const FLAT: Golden = Golden {
    events_processed: 322_729,
    completed_requests: 67_748,
    p99_ns: 4_194_304,
    sched_calls: 80_446,
    selected_sum: 1_600_119,
    alive_sum: 2_574_272,
};

const TWO_GROUPS: Golden = Golden {
    events_processed: 210_749,
    completed_requests: 66_345,
    p99_ns: 88_080_384,
    sched_calls: 7_581,
    selected_sum: 61_785,
    alive_sum: 121_296,
};

#[test]
fn flat_plane_matches_the_recorded_run() {
    let wl = case1_heavy_shaped();
    for use_ebpf in [false, true] {
        assert_eq!(run(&wl, None, use_ebpf), FLAT, "use_ebpf={use_ebpf}");
    }
}

#[test]
fn two_group_plane_matches_the_recorded_run() {
    let wl = case1_heavy_shaped();
    for use_ebpf in [false, true] {
        assert_eq!(
            run(&wl, Some(2), use_ebpf),
            TWO_GROUPS,
            "use_ebpf={use_ebpf}"
        );
    }
}
