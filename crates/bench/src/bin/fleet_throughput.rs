//! Fleet-scale harness: the paper's 363-device region on one machine. A full
//! run records it in `results/BENCH_fleet.json`.
//!
//! Every device runs Case 3 medium under Hermes with 8 workers (≥ 1 M
//! connections live at the horizon fleet-wide at the full 363 devices). The
//! fleet runs serially (`threads = 1` is a plain loop, no pool) and through
//! the cluster work pool at 4 threads (and at 2 in a full run), in
//! alternating rounds, and the harness checks:
//!
//!   * every pass, at every thread count, produces the same fleet report —
//!     the merge-order-independence property, on a digest of every device;
//!   * no device's connection table exceeds its 256 KiB budget (the
//!     process's peak resident set, which holds every device's report, is
//!     printed and recorded beside it);
//!   * a full run holds ≥ 1 M live connections at the horizon and completes
//!     the requests per second `fig12` calibrates its cost model on;
//!   * the pool costs the fleet nothing: pooled events/sec over the same
//!     devices' serial events/sec stays above a floor any host can show;
//!   * on a host with ≥ 4 cores, 4 pool threads at least double the serial
//!     rate. Fewer cores cannot show that, and the check says SKIP.
//!
//! Flags: `--smoke` (24 devices, 2 s horizon, never writes), `--out PATH`.
//! EXPERIMENTS.md "Gates that measure both sides" has the runs the pool floor
//! was read off and the seeded regression it catches.

use hermes_bench::gate::{Clock, Gates, Json, Side};
use hermes_bench::FLEET_RPS;
use hermes_metrics::NANOS_PER_SEC;
use hermes_simnet::{run_fleet_with, ClusterReport, Mode, SimConfig};
use hermes_workload::scenario::fleet_device_case;
use hermes_workload::{Case, CaseLoad};
use std::cell::RefCell;

const FLEET_SEED: u64 = 363;
const WORKERS_PER_DEVICE: usize = 8;
/// Per-device connection-table budget (DESIGN.md "Fleet parallelism"). The
/// table is a window over the connections in flight, 12 B a slot in a
/// power-of-two ring: a full run's largest device peaks at 8 192 slots
/// (96 KiB), and the cap leaves room for one more doubling. A table sized
/// by the whole workload took 1.07 MB on the smoke run's largest device
/// (5.16 MB on a full run's), so a return to it fails `--smoke`.
const MEM_CAP_BYTES: u64 = 256 * 1024;
/// Required live connections at the horizon of a full run — the paper-scale
/// ">= 1M live connections on one machine" criterion.
const LIVE_FLOOR: u64 = 1_000_000;
/// The pool at 4 threads must deliver at least this share of the serial
/// loop's events/sec, on any host.
const POOL_OVER_SERIAL_FLOOR: f64 = 0.8;
/// Required events/sec at 4 pool threads over serial (hosts with >= 4 cores).
const SCALING_FLOOR: f64 = 2.0;

/// What one pass over the fleet produced.
struct Pass {
    events: u64,
    live_connections: u64,
    completed_requests: u64,
    fleet_rps: f64,
    max_device_conn_table_bytes: u64,
    /// FNV over each device's Debug bytes in device-index order.
    fingerprint: u64,
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`), KiB;
/// 0 where the kernel reports none.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

impl Pass {
    fn of(r: &ClusterReport) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for d in &r.devices {
            for b in format!("{d:?}").bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        Self {
            events: r.events_processed(),
            live_connections: r.live_connections(),
            completed_requests: r.completed_requests(),
            fleet_rps: r.throughput_rps(),
            max_device_conn_table_bytes: r.max_device_conn_table_bytes(),
            fingerprint: h,
        }
    }
}

fn main() {
    let mut gates = Gates::from_args("fleet_throughput", "results/BENCH_fleet.json", 6, 2);
    let (devices, horizon_s, thread_counts): (usize, u64, &[usize]) = if gates.smoke() {
        (24, 2, &[1, 4])
    } else {
        (363, 10, &[1, 2, 4])
    };
    let horizon_ns = horizon_s * NANOS_PER_SEC;
    println!(
        " Case3-Medium / Hermes / {devices} devices x {WORKERS_PER_DEVICE} workers, {horizon_s}s horizon, threads {thread_counts:?}"
    );

    let passes = RefCell::new(Vec::new());
    let every_pass = &passes;
    let names: Vec<String> = thread_counts
        .iter()
        .map(|t| format!("threads_{t}"))
        .collect();
    let mut bodies: Vec<_> = thread_counts
        .iter()
        .map(|&threads| {
            move |clock: &mut Clock| {
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
                clock.untimed(|| every_pass.borrow_mut().push(Pass::of(&report)));
            }
        })
        .collect();
    let mut sides: Vec<Side> = names
        .iter()
        .zip(&mut bodies)
        .map(|(name, body)| (name.as_str(), body as &mut dyn FnMut(&mut Clock)))
        .collect();
    let samples = gates.alternate(&mut sides);
    let passes = passes.into_inner();
    let fleet = &passes[0];

    let mut sweeps = Json::new();
    for name in &names {
        let row = Json::throughput(name, "event", fleet.events, &mut samples.of(name));
        sweeps = sweeps.block(name, row);
    }
    gates.check(
        "one fleet report at every thread count",
        passes.iter().all(|p| p.fingerprint == fleet.fingerprint),
        format!(
            "{} passes, fingerprint {:#018x}",
            passes.len(),
            fleet.fingerprint
        ),
    );
    gates.check(
        "device connection table within budget",
        fleet.max_device_conn_table_bytes <= MEM_CAP_BYTES,
        format!(
            "max {} bytes <= {MEM_CAP_BYTES}",
            fleet.max_device_conn_table_bytes
        ),
    );
    let peak_rss_kib = peak_rss_kib();
    gates.report(
        "process peak RSS (VmHWM)",
        format!("{:.1} MiB", peak_rss_kib as f64 / 1024.0),
    );
    let live = format!("{} live connections", fleet.live_connections);
    if gates.smoke() {
        gates.report("live at the horizon (floor is a full run's)", live);
    } else {
        gates.check(
            "live at the horizon",
            fleet.live_connections >= LIVE_FLOOR,
            format!("{live} >= {LIVE_FLOOR}"),
        );
        gates.check(
            "fleet rps is the figure fig12 calibrates on",
            (fleet.fleet_rps - FLEET_RPS).abs() < 0.1,
            format!("{:.1} against {FLEET_RPS:.1}", fleet.fleet_rps),
        );
    }
    let mut pool_over_serial = samples.ratio("threads_1", "threads_4");
    gates.at_least(
        "pool at 4 threads / serial, events/sec",
        &mut pool_over_serial,
        POOL_OVER_SERIAL_FLOOR,
    );
    let scaling = "4 pool threads scale the serial rate";
    if gates.host_cores() >= 4 {
        gates.at_least(scaling, &mut pool_over_serial, SCALING_FLOOR);
    } else {
        gates.skip(
            scaling,
            format!(
                "{} host core(s) cannot run 4 pool threads in parallel",
                gates.host_cores()
            ),
        );
    }
    gates.finish(
        Json::new()
            .int("seed", FLEET_SEED)
            .int("devices", devices as u64)
            .int("workers_per_device", WORKERS_PER_DEVICE as u64)
            .int("horizon_ns", horizon_ns)
            .int("live_connections", fleet.live_connections)
            .int("completed_requests", fleet.completed_requests)
            .num("fleet_rps", fleet.fleet_rps)
            .int(
                "max_device_conn_table_bytes",
                fleet.max_device_conn_table_bytes,
            )
            .int("mem_cap_bytes", MEM_CAP_BYTES)
            .int("peak_rss_kib", peak_rss_kib)
            .block("sweeps", sweeps)
            .timed("pool_4_over_serial", &mut pool_over_serial),
    )
}
