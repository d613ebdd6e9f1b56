//! Fleet-scale throughput harness: the paper's 363-device region on one
//! machine, tracked as `results/BENCH_fleet.json`.
//!
//! Sweeps the cluster work pool over thread counts (1 → 2 → 4) running
//! the Case-3 medium-load scenario on every device (Hermes mode, 8
//! workers/device — ≥1M connections live at the horizon fleet-wide at
//! the full 363-device scale), and reports:
//!
//!   * events/sec per thread count and the 4-over-1 scaling factor;
//!   * fleet totals: live connections, completed requests, fleet RPS
//!     (the figure `fig12` calibrates its cost model against);
//!   * the per-device memory budget: max SoA connection-table bytes.
//!
//! Every sweep must produce identical event/request/live totals — the
//! merge-order-independence property — and the harness hard-fails if a
//! thread count diverges.
//!
//! Flags:
//!   --smoke            24 devices, 2s horizon, threads {1,4} (CI gate)
//!   --out PATH         write JSON here (default results/BENCH_fleet.json)
//!   --baseline PATH    compare against a checked-in baseline; exit 1 if
//!                      single-thread events/sec regresses more than 20%,
//!                      if a device exceeds the memory cap, or (on hosts
//!                      with >= 4 cores) if 4-thread scaling falls under
//!                      2x — single-core hosts print SKIP for the scaling
//!                      sub-gate, matching the ci.sh SKIP lanes. Smoke
//!                      runs compare against the baseline's
//!                      smoke_t1_events_per_sec reference (the full-run
//!                      harness measures the smoke scenario too: 24
//!                      devices at 2s is denser-horizon work than 363 at
//!                      10s, so the two eps figures are not comparable)
//!   --no-write         measure and check only, leave the baseline file
//!   --devices N        fleet size (default 363; smoke uses 24)
//!   --horizon-s N      simulated seconds (default 10; smoke uses 2)
//!
//! The regression gate compares throughput on this machine against a
//! baseline possibly measured elsewhere, so the 20% margin is generous;
//! regenerate with `cargo run --release -p hermes-bench --bin
//! fleet_throughput` when the simulator legitimately changes speed.

use hermes_simnet::{run_fleet_with, ClusterReport, Mode, SimConfig};
use hermes_workload::scenario::fleet_device_case;
use hermes_workload::{Case, CaseLoad};
use std::time::Instant;

const FLEET_SEED: u64 = 363;
const WORKERS_PER_DEVICE: usize = 8;
const DEFAULT_DEVICES: usize = 363;
const SMOKE_DEVICES: usize = 24;
const DEFAULT_HORIZON_S: u64 = 10;
const SMOKE_HORIZON_S: u64 = 2;
const REGRESSION_FRAC: f64 = 0.20;
/// Documented per-device connection-table budget (DESIGN.md "Fleet
/// parallelism"): Case-3 medium at 10s is ~4.9 MB/device in the SoA
/// layout; 8 MiB leaves headroom without hiding a layout regression.
const MEM_CAP_BYTES: u64 = 8 * 1024 * 1024;
/// Required events/sec scaling at 4 pool threads over 1 (hosts with >= 4
/// cores only).
const SCALING_FLOOR: f64 = 2.0;
/// Required live connections at the horizon for a full (non-smoke) run —
/// the paper-scale ">= 1M live connections on one machine" criterion.
const LIVE_FLOOR: u64 = 1_000_000;

#[derive(Clone, Copy, Debug)]
struct SweepResult {
    threads: usize,
    events: u64,
    wall_seconds: f64,
    events_per_sec: f64,
}

struct FleetTotals {
    live_connections: u64,
    completed_requests: u64,
    fleet_rps: f64,
    max_device_conn_table_bytes: u64,
    fingerprint: u64,
}

/// Order-insensitive-looking but fully order-pinned digest of the fleet
/// report: FNV over each device's Debug bytes in device-index order.
fn fleet_digest(r: &ClusterReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &r.devices {
        for b in format!("{d:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn run_fleet(devices: usize, threads: usize, horizon_ns: u64) -> (ClusterReport, f64) {
    let start = Instant::now();
    let report = run_fleet_with(devices, threads, |d| {
        let wl = fleet_device_case(
            Case::Case3,
            CaseLoad::Medium,
            WORKERS_PER_DEVICE,
            horizon_ns,
            FLEET_SEED,
            d,
        );
        (SimConfig::new(WORKERS_PER_DEVICE, Mode::Hermes), wl)
    });
    (report, start.elapsed().as_secs_f64())
}

fn json_block(r: &SweepResult) -> String {
    format!(
        "{{\n      \"threads\": {},\n      \"events\": {},\n      \"wall_seconds\": {:.6},\n      \"events_per_sec\": {:.1}\n    }}",
        r.threads, r.events, r.wall_seconds, r.events_per_sec
    )
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    devices: usize,
    horizon_ns: u64,
    smoke: bool,
    host_cores: usize,
    totals: &FleetTotals,
    sweeps: &[SweepResult],
    scaling_4_over_1: Option<f64>,
    smoke_t1_eps: Option<f64>,
) -> String {
    let sweep_json: Vec<String> = sweeps
        .iter()
        .map(|s| format!("    \"threads_{}\": {}", s.threads, json_block(s)))
        .collect();
    format!(
        "{{\n  \"benchmark\": \"fleet_throughput\",\n  \"scenario\": \"Case3-Medium / Hermes / {devices} devices x {WORKERS_PER_DEVICE} workers\",\n  \"seed\": {FLEET_SEED},\n  \"devices\": {devices},\n  \"workers_per_device\": {WORKERS_PER_DEVICE},\n  \"horizon_ns\": {horizon_ns},\n  \"smoke\": {smoke},\n  \"host_cores\": {host_cores},\n  \"live_connections\": {},\n  \"completed_requests\": {},\n  \"fleet_rps\": {:.1},\n  \"max_device_conn_table_bytes\": {},\n  \"mem_cap_bytes\": {MEM_CAP_BYTES},\n  \"sweeps\": {{\n{}\n  }},\n  \"scaling_4_over_1\": {},\n  \"smoke_t1_events_per_sec\": {}\n}}\n",
        totals.live_connections,
        totals.completed_requests,
        totals.fleet_rps,
        totals.max_device_conn_table_bytes,
        sweep_json.join(",\n"),
        scaling_4_over_1
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "null".into()),
        smoke_t1_eps
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| "null".into()),
    )
}

/// Pull `"events_per_sec": <number>` out of the `"threads_1"` block of a
/// baseline file without a JSON dependency (the bench crate has none).
fn baseline_t1_eps(contents: &str) -> Option<f64> {
    let t1 = contents.find("\"threads_1\"")?;
    number_after(&contents[t1..], "\"events_per_sec\":")
}

/// The baseline's smoke-scenario reference figure (`smoke_t1_events_per_sec`),
/// measured by the full harness so smoke CI runs compare like-for-like.
fn baseline_smoke_t1_eps(contents: &str) -> Option<f64> {
    number_after(contents, "\"smoke_t1_events_per_sec\":")
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
    let mut out = String::from("results/BENCH_fleet.json");
    let mut baseline: Option<String> = None;
    let mut devices: Option<usize> = None;
    let mut horizon_s: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--no-write" => no_write = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--devices" => {
                devices = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--devices needs a count"),
                )
            }
            "--horizon-s" => {
                horizon_s = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--horizon-s needs seconds"),
                )
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let devices = devices.unwrap_or(if smoke {
        SMOKE_DEVICES
    } else {
        DEFAULT_DEVICES
    });
    let horizon_ns = horizon_s.unwrap_or(if smoke {
        SMOKE_HORIZON_S
    } else {
        DEFAULT_HORIZON_S
    }) * 1_000_000_000;
    let thread_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "fleet_throughput: Case3-Medium / Hermes / {devices} devices x {WORKERS_PER_DEVICE} workers, {}s horizon, threads {thread_counts:?}, {host_cores} host core(s){}",
        horizon_ns / 1_000_000_000,
        if smoke { " [smoke]" } else { "" }
    );

    // Warmup: page in the binary and fault the allocator on a tiny fleet.
    run_fleet(2.min(devices), 1, 500_000_000);

    let mut sweeps: Vec<SweepResult> = Vec::new();
    let mut totals: Option<FleetTotals> = None;
    for &threads in thread_counts {
        let (report, wall_seconds) = run_fleet(devices, threads, horizon_ns);
        let events = report.events_processed();
        let sweep = SweepResult {
            threads,
            events,
            wall_seconds,
            events_per_sec: events as f64 / wall_seconds,
        };
        println!(
            "  threads={threads}: {:>12} events  {:>8.3}s  {:>12.0} events/sec",
            sweep.events, sweep.wall_seconds, sweep.events_per_sec
        );
        let t = FleetTotals {
            live_connections: report.live_connections(),
            completed_requests: report.completed_requests(),
            fleet_rps: report.throughput_rps(),
            max_device_conn_table_bytes: report.max_device_conn_table_bytes(),
            fingerprint: fleet_digest(&report),
        };
        match &totals {
            None => totals = Some(t),
            Some(base) => {
                // Merge-order independence is load-bearing for the whole
                // harness: every sweep must be byte-identical.
                assert_eq!(
                    base.fingerprint, t.fingerprint,
                    "threads={threads} produced a different fleet report"
                );
            }
        }
        sweeps.push(sweep);
    }
    let totals = totals.expect("at least one sweep");

    println!(
        "  fleet: {} live connections, {} completed requests, {:.0} rps, max device table {} bytes",
        totals.live_connections,
        totals.completed_requests,
        totals.fleet_rps,
        totals.max_device_conn_table_bytes
    );

    let eps_at = |threads: usize| {
        sweeps
            .iter()
            .find(|s| s.threads == threads)
            .map(|s| s.events_per_sec)
    };
    let scaling_4_over_1 = match (eps_at(4), eps_at(1)) {
        (Some(four), Some(one)) if one > 0.0 => Some(four / one),
        _ => None,
    };
    if let Some(s) = scaling_4_over_1 {
        println!("  scaling (4 threads over 1): {s:.2}x");
    }

    // The smoke scenario's single-thread eps, for like-for-like CI
    // comparison: a smoke run's own threads=1 figure, or — on full runs —
    // one extra measurement of the smoke scenario (24 devices at 2s has a
    // different per-event cost profile than 363 at 10s, so the full-run
    // threads_1 figure cannot gate smoke runs).
    let smoke_t1_eps = if smoke {
        eps_at(1)
    } else {
        let start = Instant::now();
        let (report, _) = run_fleet(SMOKE_DEVICES, 1, SMOKE_HORIZON_S * 1_000_000_000);
        let eps = report.events_processed() as f64 / start.elapsed().as_secs_f64();
        println!("  smoke reference (for CI): {eps:.0} events/sec at threads=1");
        Some(eps)
    };

    let mut failed = false;

    // Per-device memory budget: independent of the host, always gated.
    if totals.max_device_conn_table_bytes > MEM_CAP_BYTES {
        eprintln!(
            "MEMORY BUDGET: max device connection table {} bytes exceeds the {} byte cap",
            totals.max_device_conn_table_bytes, MEM_CAP_BYTES
        );
        failed = true;
    } else {
        println!(
            "  memory budget: max device table {} bytes <= cap {} — ok",
            totals.max_device_conn_table_bytes, MEM_CAP_BYTES
        );
    }

    // Paper-scale criterion: >= 1M live connections at the full fleet.
    if !smoke {
        if totals.live_connections < LIVE_FLOOR {
            eprintln!(
                "FLEET SCALE: {} live connections at the horizon is under the {} floor",
                totals.live_connections, LIVE_FLOOR
            );
            failed = true;
        } else {
            println!(
                "  fleet scale: {} live connections >= {} — ok",
                totals.live_connections, LIVE_FLOOR
            );
        }
    }

    // Scaling gate: only meaningful where 4 pool threads can actually run
    // in parallel. Single/dual-core hosts print SKIP, matching ci.sh's
    // SKIP lanes for miri/TSan/aarch64.
    match scaling_4_over_1 {
        Some(s) if host_cores >= 4 => {
            if s < SCALING_FLOOR {
                eprintln!(
                    "SCALING REGRESSION: {s:.2}x at 4 threads over 1 is under the {SCALING_FLOOR:.1}x floor"
                );
                failed = true;
            } else {
                println!("  scaling gate: {s:.2}x >= {SCALING_FLOOR:.1}x — ok");
            }
        }
        Some(s) => {
            println!(
                "  scaling gate: SKIP ({host_cores} host core(s) cannot demonstrate 4-thread scaling; measured {s:.2}x)"
            );
        }
        None => {}
    }

    if let Some(path) = baseline {
        // Smoke runs gate against the baseline's smoke-scenario reference;
        // full runs against the full threads_1 figure.
        let (parsed, field) = match std::fs::read_to_string(&path) {
            Ok(contents) if smoke => (baseline_smoke_t1_eps(&contents), "smoke_t1_events_per_sec"),
            Ok(contents) => (baseline_t1_eps(&contents), "threads_1 events_per_sec"),
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                failed = true;
                (None, "")
            }
        };
        match parsed {
            Some(base) => {
                let one = eps_at(1).expect("threads=1 always swept");
                let floor = base * (1.0 - REGRESSION_FRAC);
                if one < floor {
                    eprintln!(
                        "REGRESSION: threads=1 {one:.0} events/sec is more than {:.0}% below baseline {base:.0} (floor {floor:.0})",
                        REGRESSION_FRAC * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "  baseline check: {one:.0} events/sec vs baseline {base:.0} (floor {floor:.0}) — ok"
                    );
                }
            }
            None if !field.is_empty() => {
                eprintln!("baseline {path} has no {field} field");
                failed = true;
            }
            None => {}
        }
    }

    if !no_write {
        let json = render_json(
            devices,
            horizon_ns,
            smoke,
            host_cores,
            &totals,
            &sweeps,
            scaling_4_over_1,
            smoke_t1_eps,
        );
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&out, json).expect("write BENCH_fleet.json");
        println!("  wrote {out}");
    }

    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        let totals = FleetTotals {
            live_connections: 1_450_000,
            completed_requests: 9_000_000,
            fleet_rps: 900_000.0,
            max_device_conn_table_bytes: 5_100_000,
            fingerprint: 0,
        };
        let sweeps = [
            SweepResult {
                threads: 1,
                events: 1000,
                wall_seconds: 2.0,
                events_per_sec: 500.0,
            },
            SweepResult {
                threads: 4,
                events: 1000,
                wall_seconds: 0.5,
                events_per_sec: 2000.0,
            },
        ];
        render_json(
            363,
            10_000_000_000,
            false,
            8,
            &totals,
            &sweeps,
            Some(4.0),
            Some(1_900_000.0),
        )
    }

    #[test]
    fn baseline_parse_finds_the_threads_1_block() {
        let json = sample_json();
        // Must pick the threads_1 figure, not threads_4.
        assert_eq!(baseline_t1_eps(&json), Some(500.0));
        assert_eq!(baseline_t1_eps("not json"), None);
    }

    #[test]
    fn baseline_parse_finds_the_smoke_reference() {
        let json = sample_json();
        assert_eq!(baseline_smoke_t1_eps(&json), Some(1_900_000.0));
        assert_eq!(baseline_smoke_t1_eps("{}"), None);
    }

    #[test]
    fn rendered_json_carries_the_gated_quantities() {
        let json = sample_json();
        for needle in [
            "\"live_connections\": 1450000",
            "\"max_device_conn_table_bytes\": 5100000",
            "\"mem_cap_bytes\": 8388608",
            "\"scaling_4_over_1\": 4.00",
            "\"fleet_rps\": 900000.0",
            "\"host_cores\": 8",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
