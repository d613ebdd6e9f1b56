//! The whole-run goldens: the workload shapes, the configurations they run
//! under and the figures recorded for each run (see `golden_fingerprint.rs`
//! for when and why they were recorded). `golden_fingerprint` checks every
//! run with the flight recorder switched off; `trace_determinism` checks
//! [`recorded_runs`] with it switched on.

use hermes_core::FlowKey;
use hermes_metrics::SplitMix64;
use hermes_simnet::degrade::DegradeConfig;
use hermes_simnet::{Fault, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad, ConnectionSpec, RequestSpec, Workload};

pub const WORKERS: usize = 32;
pub const HORIZON_NS: u64 = 1_000_000_000;
pub const SEED: u64 = 42;

/// Roughly exponential with the given mean, integers only (no libm in the
/// fingerprint): a geometric whole part (a leading-zero count, mean 1) plus
/// a uniform fraction (mean ½), in units of ⅔ of the mean.
pub fn exp_ns(mean_ns: u64, rng: &mut SplitMix64) -> u64 {
    let unit = mean_ns * 2 / 3;
    let whole = u64::from(rng.next_u64().leading_zeros());
    unit * whole + ((unit * (rng.next_u64() & 0xffff)) >> 16)
}

pub fn case1_heavy_shaped() -> Workload {
    let mut rng = SplitMix64::from_state(SEED);
    let gap_ns = 1_000_000_000 / (2_100 * WORKERS as u64);
    let mut wl = Workload::new("case1-heavy-shaped", HORIZON_NS);
    for tenant in 0..2_000 {
        wl.set_events_per_request(tenant, 2);
    }
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
        };
        wl.push(ConnectionSpec::new(at, flow, tenant), [request]);
    }
    wl.seal()
}

#[derive(Debug, PartialEq, Eq)]
pub struct Golden {
    pub events_processed: u64,
    pub completed_requests: u64,
    pub p99_ns: u64,
    pub sched_calls: u64,
    pub selected_sum: u64,
    pub alive_sum: u64,
    pub incomplete_requests: u64,
    pub unaccepted_connections: u64,
    pub rst_reschedules: u64,
}

pub fn run_cfg(wl: &Workload, cfg: SimConfig) -> Golden {
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

pub const FLAT: Golden = Golden {
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

/// [`case1_heavy_generated`] under Hermes. Recorded in the build that
/// produced every checked-in result, before the generator moved in-repo.
pub const CASE1_HEAVY_GENERATED: Golden = Golden {
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
pub fn case3_shaped() -> Workload {
    const GRID_NS: u64 = 100_000;
    let mut rng = SplitMix64::from_state(SEED ^ 3);
    let mut wl = Workload::new("case3-shaped", HORIZON_NS);
    for tenant in 0..200 {
        wl.set_linger(tenant, 50_000_000);
    }
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
                }
            });
            let flow = FlowKey::new((r >> 32) as u32, (r >> 16) as u16, 0x0a00_0001, port);
            let conn = ConnectionSpec::new(at, flow, tenant);
            wl.push(conn, requests);
        }
    }
    wl.seal()
}

/// One second of the benchmark's `sim_case1` input (`Case1`, heavy, 32
/// workers, seed 42; 66 920 connections).
pub fn case1_heavy_generated() -> Workload {
    Case::Case1.workload(CaseLoad::Heavy, WORKERS, HORIZON_NS, SEED)
}

/// Worker 3 hangs for 300 ms at 200 ms and worker 7 crashes at 500 ms.
pub fn hang_and_crash() -> SimConfig {
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
    cfg
}

/// Worker 3 hangs for 500 ms at 200 ms, with Appendix C degradation on.
pub fn degrading() -> SimConfig {
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
    cfg
}

/// Hermes with the probe ticking every 10 ms: on the Case 3 shape's grid,
/// so probe ticks tie with scripted events.
pub fn probed() -> SimConfig {
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.probe_interval_ns = Some(10_000_000);
    cfg
}

/// A recorded run: its name, its workload, its configuration, its figures.
pub type RecordedRun = (&'static str, fn() -> Workload, SimConfig, Golden);

/// Every recorded run. (`golden_fingerprint` names each in a test of its
/// own, beside the checks on its shape.)
#[allow(dead_code)]
pub fn recorded_runs() -> Vec<RecordedRun> {
    let mode = |mode| SimConfig::new(WORKERS, mode);
    vec![
        (
            "case1 shaped, hermes",
            case1_heavy_shaped,
            mode(Mode::Hermes),
            FLAT,
        ),
        (
            "case1 shaped, reuseport",
            case1_heavy_shaped,
            mode(Mode::Reuseport),
            CASE1_REUSEPORT,
        ),
        (
            "case1 shaped, exclusive",
            case1_heavy_shaped,
            mode(Mode::ExclusiveLifo),
            CASE1_EXCLUSIVE,
        ),
        (
            "case1 shaped, hang and crash",
            case1_heavy_shaped,
            hang_and_crash(),
            CASE1_FAULTS,
        ),
        (
            "case1 shaped, degrading",
            case1_heavy_shaped,
            degrading(),
            CASE1_DEGRADED,
        ),
        (
            "case1 generated, hermes",
            case1_heavy_generated,
            mode(Mode::Hermes),
            CASE1_HEAVY_GENERATED,
        ),
        (
            "case1 generated, exclusive",
            case1_heavy_generated,
            mode(Mode::ExclusiveLifo),
            CASE1_GENERATED_EXCLUSIVE,
        ),
        (
            "case3 shaped, hermes",
            case3_shaped,
            mode(Mode::Hermes),
            CASE3_HERMES,
        ),
        (
            "case3 shaped, reuseport",
            case3_shaped,
            mode(Mode::Reuseport),
            CASE3_REUSEPORT,
        ),
        (
            "case3 shaped, exclusive",
            case3_shaped,
            mode(Mode::ExclusiveLifo),
            CASE3_EXCLUSIVE,
        ),
        (
            "case3 shaped, degrading",
            case3_shaped,
            degrading(),
            CASE3_DEGRADED,
        ),
        ("case3 shaped, probed", case3_shaped, probed(), CASE3_PROBED),
    ]
}

pub const CASE3_HERMES: Golden = Golden {
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

pub const CASE3_REUSEPORT: Golden = Golden {
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

pub const CASE3_EXCLUSIVE: Golden = Golden {
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

pub const CASE1_REUSEPORT: Golden = Golden {
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

pub const CASE1_EXCLUSIVE: Golden = Golden {
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

pub const CASE1_FAULTS: Golden = Golden {
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

pub const CASE3_PROBED: Golden = Golden {
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

pub const CASE1_DEGRADED: Golden = Golden {
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

pub const CASE3_DEGRADED: Golden = Golden {
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

pub const CASE1_GENERATED_EXCLUSIVE: Golden = Golden {
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
