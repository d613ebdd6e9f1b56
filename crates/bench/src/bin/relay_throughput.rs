//! End-to-end backend data-plane harness: request latency through the
//! full LB → backend relay path under churn. A full run records it in
//! `results/BENCH_relay.json`.
//!
//! Four deterministic simnet scenarios (8 workers, Hermes dispatch, 8
//! backends at 200 µs mean service time) exercise the versioned-table
//! consistency machinery end to end:
//!
//!   * **steady** — no churn; the latency reference every other scenario
//!     is read against.
//!   * **flap** — one backend hard-`Down` mid-run, recovering later:
//!     in-flight connections pinned to the victim must retry *inside
//!     their admitted table version* (no live-table fallback).
//!   * **drain** — a rolling drain walks six backends: draining backends
//!     keep serving their pinned connections, so zero requests are
//!     displaced and zero fall back.
//!   * **slow** — one backend at 8× service time: degraded but serving,
//!     so routing is untouched and only the latency tail moves.
//!
//! Gates, all exact: every request completes with zero misroutes and zero
//! dropped responses in all four scenarios — the churn-consistency property —
//! and the drain scenario retries nothing and falls back nowhere (draining
//! alone never displaces a request). The latencies are simulated time and are
//! stated, not gated, here: `golden_fingerprint.rs::CASE3_BACKEND_CHURN` pins
//! the backend model to the nanosecond.
//!
//! The relay's real-socket figures are not measured here: the end-to-end
//! benchmark (`benchmark/`, workloads `keepalive` and `bulk_*`) reports
//! them against the one relay engine that ships.
//!
//! Flags: `--smoke` (2k connections, 3 s horizon, never writes), `--out PATH`.

use hermes_bench::gate::{Gates, Json};
use hermes_core::FlowKey;
use hermes_simnet::metrics::DeviceReport;
use hermes_simnet::{BackendSimConfig, Mode, SimConfig, Simulator};
use hermes_workload::{ConnectionSpec, RequestSpec, Workload};

const WORKERS: usize = 8;
const BACKENDS: usize = 8;
const MEAN_SERVICE_NS: u64 = 200_000;
const SLOW_FACTOR: f64 = 8.0;
const REQS_PER_CONN: usize = 4;
const FULL_CONNS: usize = 12_000;
const SMOKE_CONNS: usize = 2_000;
const FULL_HORIZON_NS: u64 = 6_000_000_000;
const SMOKE_HORIZON_NS: u64 = 3_000_000_000;

/// The same population the churn acceptance test uses, scaled by flag:
/// connections arrive over the first ~5% of the horizon and spread their
/// requests across it, so churn always lands on live traffic.
fn relay_workload(conns: usize, horizon_ns: u64) -> Workload {
    let mut w = Workload::new("relay-bench", horizon_ns);
    let arrival_step = horizon_ns / 20 / conns.max(1) as u64;
    let req_step = horizon_ns * 3 / 4 / REQS_PER_CONN as u64;
    for i in 0..conns {
        let requests = (0..REQS_PER_CONN)
            .map(|r| RequestSpec {
                start_offset_ns: r as u64 * req_step + (i as u64 % 997) * 1_000,
                service_ns: 15_000,
                events: 1,
                size_bytes: 512,
            })
            .collect();
        w.push(ConnectionSpec {
            arrival_ns: i as u64 * arrival_step,
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

fn scenario(name: &str, horizon_ns: u64) -> BackendSimConfig {
    match name {
        "steady" => BackendSimConfig::steady(BACKENDS, MEAN_SERVICE_NS),
        // Victim down for the middle third of the run.
        "flap" => BackendSimConfig::flap(
            BACKENDS,
            MEAN_SERVICE_NS,
            BACKENDS - 2,
            horizon_ns / 3,
            horizon_ns * 2 / 3,
        ),
        // Six backends drain one at a time across the middle of the run.
        "drain" => BackendSimConfig::rolling_drain(
            BACKENDS,
            MEAN_SERVICE_NS,
            horizon_ns / 4,
            horizon_ns / 16,
            6,
        ),
        "slow" => BackendSimConfig::slow_backend(BACKENDS, MEAN_SERVICE_NS, 3, SLOW_FACTOR),
        other => panic!("unknown scenario {other:?}"),
    }
}

fn run_scenario(name: &str, conns: usize, horizon_ns: u64) -> DeviceReport {
    let wl = relay_workload(conns, horizon_ns);
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.backend = Some(scenario(name, horizon_ns));
    Simulator::new(cfg, &wl).run()
}

fn main() {
    let mut gates = Gates::from_args("relay_throughput", "results/BENCH_relay.json", 0, 0);
    let (conns, horizon_ns) = if gates.smoke() {
        (SMOKE_CONNS, SMOKE_HORIZON_NS)
    } else {
        (FULL_CONNS, FULL_HORIZON_NS)
    };
    println!(
        " {BACKENDS} backends x {WORKERS} workers / Hermes / {conns} conns x {REQS_PER_CONN} reqs, {}s horizon",
        horizon_ns / 1_000_000_000
    );

    let expected = (conns * REQS_PER_CONN) as u64;
    let mut scenarios = Json::new();
    for name in ["steady", "flap", "drain", "slow"] {
        let r = run_scenario(name, conns, horizon_ns);
        let b = r.backend.as_ref().expect("backend plane configured");
        // Latencies in simulated milliseconds.
        let (p50_ms, p99_ms) = (r.request_latency.p50() as f64 / 1e6, r.p99_latency_ms());
        println!(
            "  {name:<7} {:>8} completed  P50 {p50_ms:>8.3} ms  P99 {p99_ms:>8.3} ms  retried {:>5}  fell_back {:>3}  versions {:>2}",
            r.completed_requests, b.retried, b.fell_back, b.versions_published
        );
        // The churn-consistency gate: every request completes, none is
        // routed off a still-serving pinned backend, none finds no backend.
        gates.check(
            &format!("{name}: every request served, none misrouted"),
            b.misroutes == 0 && b.dropped_responses == 0 && r.completed_requests == expected,
            format!(
                "completed {}/{expected}, misroutes {}, dropped {}",
                r.completed_requests, b.misroutes, b.dropped_responses
            ),
        );
        if name == "drain" {
            gates.check(
                "drain: draining displaces nothing",
                b.retried == 0 && b.fell_back == 0,
                format!("retried {}, fell back {}", b.retried, b.fell_back),
            );
        }
        let row = Json::new()
            .int("completed", r.completed_requests)
            .num("p50_ms", p50_ms)
            .num("p99_ms", p99_ms)
            .num("rps", r.throughput_rps())
            .int("pinned", b.pinned)
            .int("retried", b.retried)
            .int("fell_back", b.fell_back)
            .int("misroutes", b.misroutes)
            .int("dropped_responses", b.dropped_responses)
            .int("versions_published", b.versions_published);
        scenarios = scenarios.block(name, row);
    }
    gates.finish(
        Json::new()
            .int("conns", conns as u64)
            .int("reqs_per_conn", REQS_PER_CONN as u64)
            .int("backends", BACKENDS as u64)
            .int("mean_service_ns", MEAN_SERVICE_NS)
            .int("horizon_ns", horizon_ns)
            .block("scenarios", scenarios),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_scripts_validate() {
        for name in ["steady", "flap", "drain", "slow"] {
            scenario(name, FULL_HORIZON_NS).validate();
        }
    }

    #[test]
    fn workload_spreads_requests_across_the_horizon() {
        let wl = relay_workload(100, FULL_HORIZON_NS);
        assert_eq!(wl.conns.len(), 100);
        assert!(wl.conns.iter().all(|c| c.requests.len() == REQS_PER_CONN));
        let last_start = wl
            .conns
            .iter()
            .flat_map(|c| c.requests.iter())
            .map(|r| r.start_offset_ns)
            .max()
            .unwrap();
        assert!(last_start > FULL_HORIZON_NS / 2, "requests bunch at start");
    }
}
