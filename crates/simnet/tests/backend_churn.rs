//! Per-connection consistency under backend churn.
//!
//! The acceptance property of the versioned backend tables: a deterministic
//! run drives a rolling drain *and* a backend flap while 12,000 connections
//! are in flight, and every one of them completes every request against the
//! table version it was admitted under — zero misroutes (a request routed
//! away from a pinned backend that still serves), zero dropped responses,
//! and zero live-table fallbacks (no admitted version ever fully expires
//! when churn takes down at most one backend at a time).
//!
//! The same scenario must be byte-identical across fleet thread counts:
//! the backend plane lives entirely inside each device's simulator, so the
//! cluster layer's merge order must not leak into the routing counters.

use hermes_core::FlowKey;
use hermes_simnet::backend::HealthState;
use hermes_simnet::{
    run_fleet_with, BackendChurnEvent, BackendSimConfig, ClusterReport, Mode, SimConfig, Simulator,
};
use hermes_workload::{ConnectionSpec, RequestSpec, Workload};

const CONNS: usize = 12_000;
const REQS_PER_CONN: usize = 6;
const BACKENDS: usize = 8;
const MEAN_SERVICE_NS: u64 = 200_000;
const HORIZON_NS: u64 = 6_000_000_000;

/// 12k connections arriving over the first half-second, each carrying six
/// requests spread across ~4.5 s — so the whole population is live while
/// the churn script (1 s – 3 s) runs.
fn churn_workload(conns: usize) -> Workload {
    let mut w = Workload::new("backend-churn", HORIZON_NS);
    for i in 0..conns {
        let arrival = i as u64 * 40_000; // 40 µs spacing → 480 ms span
        let requests = (0..REQS_PER_CONN)
            .map(|r| RequestSpec {
                // Requests every 750 ms, staggered per connection so the
                // event queue never sees a degenerate all-at-once spike.
                start_offset_ns: r as u64 * 750_000_000 + (i as u64 % 997) * 1_000,
                service_ns: 15_000,
                events: 1,
                size_bytes: 512,
            })
            .collect();
        w.push(ConnectionSpec {
            arrival_ns: arrival,
            flow: FlowKey::new(
                0x0a00_0000 + (i as u32 / 60_000),
                (i % 60_000) as u16,
                1,
                443,
            ),
            tenant: 0,
            port: 443,
            requests,
            linger_ns: None,
        });
    }
    w.seal()
}

/// Rolling drain over backends 0..=5 (1 s – 2.5 s, one at a time, each
/// recovering as the next drains) plus a flap on backend 6 (hard Down at
/// 1.5 s, back at 2.5 s). At most two backends are ever out of `admit`
/// (one draining, the flap victim), and only the flap victim ever stops
/// serving in-flight traffic — so no admitted version can expire.
fn churn_script() -> BackendSimConfig {
    let mut cfg =
        BackendSimConfig::rolling_drain(BACKENDS, MEAN_SERVICE_NS, 1_000_000_000, 250_000_000, 6);
    cfg.churn.push(BackendChurnEvent {
        at_ns: 1_500_000_000,
        backend: 6,
        to: HealthState::Down,
    });
    cfg.churn.push(BackendChurnEvent {
        at_ns: 2_500_000_000,
        backend: 6,
        to: HealthState::Healthy,
    });
    cfg
}

fn sim_config() -> SimConfig {
    let mut cfg = SimConfig::new(8, Mode::Hermes);
    cfg.backend = Some(churn_script());
    cfg
}

#[test]
fn every_in_flight_connection_completes_against_its_admitted_version() {
    let wl = churn_workload(CONNS);
    let r = Simulator::new(sim_config(), &wl).run();
    let b = r.backend.as_ref().expect("backend plane configured");

    // Total completion: nothing stuck, nothing lost.
    assert_eq!(
        r.completed_requests,
        (CONNS * REQS_PER_CONN) as u64,
        "incomplete: {}",
        r.incomplete_requests
    );
    assert_eq!(r.accepted_connections, CONNS as u64);
    assert_eq!(b.admitted, CONNS as u64, "every accepted conn admitted");

    // The consistency invariants.
    assert_eq!(
        b.misroutes, 0,
        "request left a still-serving pinned backend"
    );
    assert_eq!(b.dropped_responses, 0, "request found no serving backend");
    assert_eq!(
        b.fell_back, 0,
        "an admitted table version expired under single-backend churn"
    );

    // The churn actually happened: 12 drain transitions + 2 flap
    // transitions on top of the initial version.
    assert_eq!(b.versions_published, 15);
    // Only the flap displaces in-flight traffic; drains never do.
    assert!(
        b.retried > 0,
        "flap victim's pinned connections must have retried"
    );
    assert_eq!(
        b.pinned + b.retried,
        (CONNS * REQS_PER_CONN) as u64,
        "every request resolved inside its admitted version"
    );
    assert_eq!(
        b.per_backend_completed.iter().sum::<u64>(),
        (CONNS * REQS_PER_CONN) as u64
    );
    // The flap victim served less than the busiest sibling.
    let victim = b.per_backend_completed[6];
    let max = *b.per_backend_completed.iter().max().unwrap();
    assert!(
        victim < max,
        "victim {victim} should trail the busiest backend {max}"
    );
}

#[test]
fn only_a_backend_that_stops_serving_displaces_a_request() {
    // No churn, a rolling drain over every backend, and one backend at 8x
    // service time: each keeps every backend serving its pinned
    // connections, so every resolution must stay pinned.
    let wl = churn_workload(4_000);
    let requests = 4_000 * REQS_PER_CONN as u64;
    let p99_ms = [
        (
            "steady",
            BackendSimConfig::steady(BACKENDS, MEAN_SERVICE_NS),
        ),
        (
            "drain",
            BackendSimConfig::rolling_drain(
                BACKENDS,
                MEAN_SERVICE_NS,
                1_000_000_000,
                250_000_000,
                BACKENDS,
            ),
        ),
        (
            "slow",
            BackendSimConfig::slow_backend(BACKENDS, MEAN_SERVICE_NS, 3, 8.0),
        ),
    ]
    .map(|(name, script)| {
        let mut cfg = SimConfig::new(8, Mode::Hermes);
        cfg.backend = Some(script);
        let r = Simulator::new(cfg, &wl).run();
        let b = r.backend.as_ref().expect("backend plane configured");
        assert_eq!(r.completed_requests, requests, "{name}");
        assert_eq!(b.retried, 0, "{name} displaced in-flight traffic");
        assert_eq!(b.misroutes, 0, "{name}");
        assert_eq!(b.fell_back, 0, "{name}");
        assert_eq!(b.dropped_responses, 0, "{name}");
        assert_eq!(b.pinned, requests, "{name}");
        r.p99_latency_ms()
    });
    // Degraded but serving: routing is untouched and only the tail moves.
    let [steady, _, slow] = p99_ms;
    assert!(
        slow > steady,
        "a backend at 8x service time left P99 at {slow} ms (steady {steady} ms)"
    );
}

fn fleet_fingerprint(r: &ClusterReport) -> String {
    let mut s = String::new();
    for d in &r.devices {
        s.push_str(&format!("{d:?}\n"));
    }
    s
}

#[test]
fn churn_scenario_is_byte_identical_across_thread_counts() {
    let make = |threads: usize| {
        run_fleet_with(3, threads, |d| {
            // Device-dependent population so the merge has real variety.
            let wl = churn_workload(3_000 + d * 500);
            (sim_config(), wl)
        })
    };
    let baseline = make(1);
    let want = fleet_fingerprint(&baseline);
    for threads in [2, 8] {
        let got = make(threads);
        assert_eq!(
            want,
            fleet_fingerprint(&got),
            "backend-plane fleet reports diverge at threads={threads}"
        );
    }
    // The fingerprint covered a run where the invariants held.
    for d in &baseline.devices {
        let b = d.backend.as_ref().expect("backend plane configured");
        assert_eq!(b.misroutes, 0);
        assert_eq!(b.dropped_responses, 0);
    }
}
