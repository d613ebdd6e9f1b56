//! End-to-end backend data-plane harness: request latency through the
//! full LB → backend relay path under churn, tracked as
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
//! Hard gates (every run): zero misroutes and zero dropped responses in
//! all scenarios — the churn-consistency property — and zero fallbacks
//! plus zero retries in the drain scenario (draining alone never
//! displaces a request). Smoke runs additionally gate steady-scenario
//! P99 against the checked-in baseline (25% margin: the figure is
//! simulated-time, so it only moves when the model legitimately changes).
//!
//! The relay's real-socket figures are not measured here: the end-to-end
//! benchmark (`benchmark/`, workloads `keepalive` and `bulk_*`) reports
//! them against the one relay engine that ships.
//!
//! Flags:
//!   --smoke            2k connections, 3s horizon (CI gate)
//!   --out PATH         write JSON here (default results/BENCH_relay.json)
//!   --baseline PATH    gate steady P99 against this file (smoke runs)
//!   --no-write         measure and check only, leave the baseline file

use hermes_core::FlowKey;
use hermes_simnet::metrics::DeviceReport;
use hermes_simnet::{BackendSimConfig, Mode, SimConfig, Simulator};
use hermes_workload::{ConnectionSpec, RequestSpec, Workload};
use std::time::Instant;

const WORKERS: usize = 8;
const BACKENDS: usize = 8;
const MEAN_SERVICE_NS: u64 = 200_000;
const SLOW_FACTOR: f64 = 8.0;
const REQS_PER_CONN: usize = 4;
const FULL_CONNS: usize = 12_000;
const SMOKE_CONNS: usize = 2_000;
const FULL_HORIZON_NS: u64 = 6_000_000_000;
const SMOKE_HORIZON_NS: u64 = 3_000_000_000;
/// Allowed steady-P99 drift vs. the checked-in baseline. Latency here is
/// *simulated* time, so this catches model regressions, not host noise.
const P99_MARGIN_FRAC: f64 = 0.25;

/// One scenario's end-to-end figures (latencies in simulated ms).
#[derive(Clone, Debug)]
struct ScenarioResult {
    name: &'static str,
    completed: u64,
    p50_ms: f64,
    p99_ms: f64,
    rps: f64,
    pinned: u64,
    retried: u64,
    fell_back: u64,
    misroutes: u64,
    dropped: u64,
    versions: u64,
}

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

fn scenario(name: &'static str, horizon_ns: u64) -> BackendSimConfig {
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

fn run_scenario(name: &'static str, conns: usize, horizon_ns: u64) -> ScenarioResult {
    let wl = relay_workload(conns, horizon_ns);
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.backend = Some(scenario(name, horizon_ns));
    let r: DeviceReport = Simulator::new(cfg, &wl).run();
    let b = r.backend.as_ref().expect("backend plane configured");
    ScenarioResult {
        name,
        completed: r.completed_requests,
        p50_ms: r.request_latency.p50() as f64 / 1e6,
        p99_ms: r.p99_latency_ms(),
        rps: r.throughput_rps(),
        pinned: b.pinned,
        retried: b.retried,
        fell_back: b.fell_back,
        misroutes: b.misroutes,
        dropped: b.dropped_responses,
        versions: b.versions_published,
    }
}

fn scenario_json(s: &ScenarioResult) -> String {
    format!(
        "    \"{}\": {{\n      \"completed\": {},\n      \"p50_ms\": {:.4},\n      \"p99_ms\": {:.4},\n      \"rps\": {:.1},\n      \"pinned\": {},\n      \"retried\": {},\n      \"fell_back\": {},\n      \"misroutes\": {},\n      \"dropped_responses\": {},\n      \"versions_published\": {}\n    }}",
        s.name,
        s.completed,
        s.p50_ms,
        s.p99_ms,
        s.rps,
        s.pinned,
        s.retried,
        s.fell_back,
        s.misroutes,
        s.dropped,
        s.versions
    )
}

fn render_json(
    conns: usize,
    horizon_ns: u64,
    smoke: bool,
    wall_seconds: f64,
    results: &[ScenarioResult],
) -> String {
    let blocks: Vec<String> = results.iter().map(scenario_json).collect();
    let steady_p99 = results
        .iter()
        .find(|s| s.name == "steady")
        .map(|s| format!("{:.4}", s.p99_ms))
        .unwrap_or_else(|| "null".into());
    format!(
        "{{\n  \"benchmark\": \"relay_throughput\",\n  \"scenario\": \"{BACKENDS} backends x {WORKERS} workers / Hermes / {conns} conns x {REQS_PER_CONN} reqs\",\n  \"conns\": {conns},\n  \"reqs_per_conn\": {REQS_PER_CONN},\n  \"backends\": {BACKENDS},\n  \"mean_service_ns\": {MEAN_SERVICE_NS},\n  \"horizon_ns\": {horizon_ns},\n  \"smoke\": {smoke},\n  \"wall_seconds\": {wall_seconds:.3},\n  \"scenarios\": {{\n{}\n  }},\n  \"steady_p99_ms\": {steady_p99}\n}}\n",
        blocks.join(",\n")
    )
}

/// Pull `"steady_p99_ms": <number>` from a baseline file without a JSON
/// dependency (the bench crate has none).
fn baseline_steady_p99(contents: &str) -> Option<f64> {
    number_after(contents, "\"steady_p99_ms\":")
}

fn number_after(contents: &str, key: &str) -> Option<f64> {
    let at = contents.find(key)? + key.len();
    let rest = contents[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut smoke = false;
    let mut no_write = false;
    let mut out = String::from("results/BENCH_relay.json");
    let mut baseline: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--no-write" => no_write = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            other => panic!("unknown flag {other:?}"),
        }
    }

    let conns = if smoke { SMOKE_CONNS } else { FULL_CONNS };
    let horizon_ns = if smoke {
        SMOKE_HORIZON_NS
    } else {
        FULL_HORIZON_NS
    };
    println!(
        "relay_throughput: {BACKENDS} backends x {WORKERS} workers / Hermes / {conns} conns x {REQS_PER_CONN} reqs, {}s horizon{}",
        horizon_ns / 1_000_000_000,
        if smoke { " [smoke]" } else { "" }
    );

    let start = Instant::now();
    let results: Vec<ScenarioResult> = ["steady", "flap", "drain", "slow"]
        .into_iter()
        .map(|name| {
            let s = run_scenario(name, conns, horizon_ns);
            println!(
                "  {:<7} {:>8} completed  P50 {:>8.3} ms  P99 {:>8.3} ms  retried {:>5}  fell_back {:>3}  versions {:>2}",
                s.name, s.completed, s.p50_ms, s.p99_ms, s.retried, s.fell_back, s.versions
            );
            s
        })
        .collect();

    let wall_seconds = start.elapsed().as_secs_f64();

    let mut failed = false;
    let expected = (conns * REQS_PER_CONN) as u64;
    for s in &results {
        // The churn-consistency gate: every request completes, none is
        // routed off a still-serving pinned backend, none finds no backend.
        if s.misroutes != 0 || s.dropped != 0 || s.completed != expected {
            eprintln!(
                "CONSISTENCY: scenario {} completed {}/{expected}, misroutes {}, dropped {}",
                s.name, s.completed, s.misroutes, s.dropped
            );
            failed = true;
        }
    }
    let steady = results
        .iter()
        .find(|s| s.name == "steady")
        .expect("steady ran");
    let drain = results
        .iter()
        .find(|s| s.name == "drain")
        .expect("drain ran");
    // Draining alone must never displace in-flight traffic.
    if drain.retried != 0 || drain.fell_back != 0 {
        eprintln!(
            "DRAIN DISPLACEMENT: rolling drain retried {} and fell back {} (both must be 0)",
            drain.retried, drain.fell_back
        );
        failed = true;
    }
    if !failed {
        println!(
            "  consistency gates: zero misroutes / drops everywhere, drain displaced nothing — ok"
        );
    }

    if let Some(path) = baseline {
        match std::fs::read_to_string(&path) {
            Ok(contents) => match baseline_steady_p99(&contents) {
                Some(base) => {
                    let ceil = base * (1.0 + P99_MARGIN_FRAC);
                    if steady.p99_ms > ceil {
                        eprintln!(
                            "LATENCY REGRESSION: steady P99 {:.3} ms exceeds baseline {base:.3} ms + {:.0}% (ceiling {ceil:.3})",
                            steady.p99_ms,
                            P99_MARGIN_FRAC * 100.0
                        );
                        failed = true;
                    } else {
                        println!(
                            "  baseline check: steady P99 {:.3} ms vs baseline {base:.3} ms (ceiling {ceil:.3}) — ok",
                            steady.p99_ms
                        );
                    }
                }
                None => {
                    eprintln!("baseline {path} has no steady_p99_ms field");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if !no_write {
        let json = render_json(conns, horizon_ns, smoke, wall_seconds, &results);
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&out, json).expect("write BENCH_relay.json");
        println!("  wrote {out}");
    }

    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> Vec<ScenarioResult> {
        ["steady", "flap", "drain", "slow"]
            .into_iter()
            .enumerate()
            .map(|(i, name)| ScenarioResult {
                name,
                completed: 48_000,
                p50_ms: 0.25 + i as f64,
                p99_ms: 1.5 + i as f64,
                rps: 8_000.0,
                pinned: 47_000,
                retried: 1_000,
                fell_back: 0,
                misroutes: 0,
                dropped: 0,
                versions: 1 + i as u64,
            })
            .collect()
    }

    #[test]
    fn baseline_parse_reads_the_steady_p99() {
        let json = render_json(12_000, 6_000_000_000, false, 1.25, &sample_results());
        assert_eq!(baseline_steady_p99(&json), Some(1.5));
        assert_eq!(baseline_steady_p99("not json"), None);
    }

    #[test]
    fn rendered_json_carries_the_gated_quantities() {
        let json = render_json(12_000, 6_000_000_000, true, 1.25, &sample_results());
        for needle in [
            "\"benchmark\": \"relay_throughput\"",
            "\"smoke\": true",
            "\"steady\":",
            "\"flap\":",
            "\"drain\":",
            "\"slow\":",
            "\"misroutes\": 0",
            "\"dropped_responses\": 0",
            "\"steady_p99_ms\": 1.5",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert_eq!(baseline_steady_p99(&json), Some(1.5));
    }

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
