//! Simulator throughput harness: the perf trajectory of the simulator
//! core, tracked as `results/BENCH_simnet.json` from PR 2 on.
//!
//! Two questions, one file:
//!
//! * **What does the event engine cost?** The Case-3 medium-load scenario
//!   (low CPS, long-lived connections — the workload with the most events
//!   pending at once, ~1 100 now that only live events are queued) runs
//!   under both event engines — the binary-heap reference and the
//!   hierarchical timer wheel — and reports events/sec, ns/event and the
//!   peak pending count for each, plus the wheel-over-heap speedup. Both
//!   engines execute the exact same event sequence (see
//!   `crates/simnet/tests/engine_equivalence.rs`), so the wall-clock ratio
//!   isolates the engine cost.
//! * **What does Hermes cost per worker loop?** Case 1 heavy — Table 3's
//!   high-CPS workload, a scheduler pass per loop iteration of every worker
//!   — runs under `Mode::Hermes` and under `Mode::Reuseport`; the wall-time
//!   ratio of the two is the per-loop Hermes tax (WST hooks, Algorithm 1,
//!   bitmap sync, Algorithm 2) as the simulator pays it.
//!
//! Every row is the best of N timed runs after a warm-up (N = 5, or 1 with
//! `--smoke`), and carries the coefficient of variation across the N so a
//! reader can tell a quiet host from a noisy one. The file records the
//! host's core count and CPU model and the commit it was measured at.
//!
//! Flags:
//!   --smoke            short horizon, single measured run (CI gate)
//!   --out PATH         write JSON here (default results/BENCH_simnet.json)
//!   --baseline PATH    compare against a checked-in baseline; exit 1 if
//!                      wheel or Case-1 Hermes events/sec regresses more
//!                      than 20%
//!   --no-write         measure and check only, leave the baseline file
//!   --workers N        worker processes (default 32)
//!   --horizon-s N      simulated seconds (default 10; smoke uses 2)
//!
//! The regression gate compares *simulator throughput on this machine*
//! against a baseline measured on a possibly different machine, so the
//! 20% margin is deliberately generous; regenerate the baseline with
//! `cargo run --release -p hermes-bench --bin simnet_throughput` when the
//! simulator legitimately changes speed.

use hermes_simnet::{Engine, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad, Workload};
use std::time::Instant;

const SEED: u64 = 42;
const DEFAULT_WORKERS: usize = 32;
const DEFAULT_HORIZON_S: u64 = 10;
const SMOKE_HORIZON_S: u64 = 2;
const FULL_RUNS: usize = 5;
const REGRESSION_FRAC: f64 = 0.20;

#[derive(Clone, Copy, Debug)]
struct RowResult {
    events: u64,
    /// Most events the queue held at once (`DeviceReport::peak_pending_events`).
    peak_pending: u64,
    wall_seconds: f64,
    events_per_sec: f64,
    ns_per_event: f64,
    /// Standard deviation over mean of the timed runs' wall seconds.
    cov: f64,
}

fn run_once(wl: &Workload, workers: usize, mode: Mode, engine: Engine) -> (u64, f64, u64) {
    let mut cfg = SimConfig::new(workers, mode);
    cfg.engine = engine;
    let sim = Simulator::new(cfg, wl);
    let start = Instant::now();
    let report = sim.run();
    let secs = start.elapsed().as_secs_f64();
    (report.events_processed, secs, report.peak_pending_events)
}

/// Best-of-`runs` wall time (the least-interfered-with run) after one
/// untimed warmup, with the spread of the timed runs beside it.
fn measure(wl: &Workload, workers: usize, mode: Mode, engine: Engine, runs: usize) -> RowResult {
    run_once(wl, workers, mode, engine); // warmup: faults, page cache, etc.
    let timed: Vec<(u64, f64, u64)> = (0..runs)
        .map(|_| run_once(wl, workers, mode, engine))
        .collect();
    let (events, wall_seconds, peak_pending) = timed
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("runs >= 1");
    let mean = timed.iter().map(|r| r.1).sum::<f64>() / runs as f64;
    let var = timed.iter().map(|r| (r.1 - mean).powi(2)).sum::<f64>() / runs as f64;
    RowResult {
        events,
        peak_pending,
        wall_seconds,
        events_per_sec: events as f64 / wall_seconds,
        ns_per_event: wall_seconds * 1e9 / events as f64,
        cov: var.sqrt() / mean,
    }
}

fn print_row(label: &str, r: &RowResult) {
    println!(
        "  {label:<15}: {:>12} events  {:>8.3}s  {:>12.0} events/sec  {:>7.1} ns/event  CoV {:.3}  peak pending {}",
        r.events, r.wall_seconds, r.events_per_sec, r.ns_per_event, r.cov, r.peak_pending
    );
}

fn json_block(r: &RowResult) -> String {
    format!(
        "{{\n      \"events\": {},\n      \"peak_pending_events\": {},\n      \"wall_seconds\": {:.6},\n      \"events_per_sec\": {:.1},\n      \"ns_per_event\": {:.2},\n      \"cov\": {:.4}\n    }}",
        r.events, r.peak_pending, r.wall_seconds, r.events_per_sec, r.ns_per_event, r.cov
    )
}

/// Where and at what commit the numbers were taken.
struct Provenance {
    host_cores: usize,
    cpu_model: String,
    commit: String,
    repeats: usize,
}

impl Provenance {
    fn capture(repeats: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=12"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            commit,
            repeats,
        }
    }
}

struct Results {
    heap: RowResult,
    wheel: RowResult,
    case1_hermes: RowResult,
    case1_reuseport: RowResult,
}

impl Results {
    /// The per-loop Hermes tax: Case 1 heavy's wall time under Hermes over
    /// the same traffic's under reuseport.
    fn hermes_over_reuseport(&self) -> f64 {
        self.case1_hermes.wall_seconds / self.case1_reuseport.wall_seconds
    }
}

fn render_json(
    workers: usize,
    horizon_ns: u64,
    smoke: bool,
    host: &Provenance,
    r: &Results,
) -> String {
    format!(
        "{{\n  \"benchmark\": \"simnet_throughput\",\n  \"scenario\": \"Case3-Medium / Hermes / {workers} workers\",\n  \"seed\": {SEED},\n  \"horizon_ns\": {horizon_ns},\n  \"smoke\": {smoke},\n  \"host_cores\": {},\n  \"cpu_model\": \"{}\",\n  \"commit\": \"{}\",\n  \"repeats\": {},\n  \"engines\": {{\n    \"heap\": {},\n    \"wheel\": {}\n  }},\n  \"speedup_wheel_over_heap\": {:.2},\n  \"case1_heavy\": {{\n    \"case1_hermes\": {},\n    \"case1_reuseport\": {}\n  }},\n  \"wall_ratio_hermes_over_reuseport\": {:.2}\n}}\n",
        host.host_cores,
        host.cpu_model.replace(['"', '\\'], " "),
        host.commit,
        host.repeats,
        json_block(&r.heap),
        json_block(&r.wheel),
        r.wheel.events_per_sec / r.heap.events_per_sec,
        json_block(&r.case1_hermes),
        json_block(&r.case1_reuseport),
        r.hermes_over_reuseport()
    )
}

/// Pull `"events_per_sec": <number>` out of the `"<row>"` block of a
/// baseline file without a JSON dependency (the bench crate has none).
fn baseline_eps(contents: &str, row: &str) -> Option<f64> {
    let block = contents.find(&format!("\"{row}\""))?;
    let tail = &contents[block..];
    let key = "\"events_per_sec\":";
    let at = tail.find(key)? + key.len();
    let rest = tail[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One gated row against the baseline; `Err` carries the message to print.
fn check_row(contents: &str, row: &str, measured: f64) -> Result<String, String> {
    let base = baseline_eps(contents, row)
        .ok_or_else(|| format!("baseline has no {row} events_per_sec field"))?;
    let floor = base * (1.0 - REGRESSION_FRAC);
    if measured < floor {
        Err(format!(
            "REGRESSION: {row} {measured:.0} events/sec is more than {:.0}% below baseline {base:.0} (floor {floor:.0})",
            REGRESSION_FRAC * 100.0
        ))
    } else {
        Ok(format!(
            "  baseline check: {row} {measured:.0} events/sec vs baseline {base:.0} (floor {floor:.0}) — ok"
        ))
    }
}

fn main() {
    let mut smoke = false;
    let mut no_write = false;
    let mut out = String::from("results/BENCH_simnet.json");
    let mut baseline: Option<String> = None;
    let mut workers = DEFAULT_WORKERS;
    let mut horizon_s: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--no-write" => no_write = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a count")
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

    let horizon_ns = horizon_s.unwrap_or(if smoke {
        SMOKE_HORIZON_S
    } else {
        DEFAULT_HORIZON_S
    }) * 1_000_000_000;
    let runs = if smoke { 1 } else { FULL_RUNS };
    let host = Provenance::capture(runs);

    println!(
        "simnet_throughput: {workers} workers, {}s horizon, {runs} run(s) per row, {} host core(s), {} @ {}{}",
        horizon_ns / 1_000_000_000,
        host.host_cores,
        host.cpu_model,
        host.commit,
        if smoke { " [smoke]" } else { "" }
    );

    println!(" Case3-Medium / Hermes, both event engines:");
    let case3 = Case::Case3.workload(CaseLoad::Medium, workers, horizon_ns, SEED);
    let heap = measure(&case3, workers, Mode::Hermes, Engine::Heap, runs);
    print_row("heap", &heap);
    let wheel = measure(&case3, workers, Mode::Hermes, Engine::Wheel, runs);
    print_row("wheel", &wheel);
    assert_eq!(
        heap.events, wheel.events,
        "engines must execute the same event sequence"
    );
    println!(
        "  speedup (wheel over heap): {:.2}x",
        wheel.events_per_sec / heap.events_per_sec
    );

    println!(" Case1-Heavy, Hermes against reuseport (wheel engine):");
    let case1 = Case::Case1.workload(CaseLoad::Heavy, workers, horizon_ns, SEED);
    let case1_hermes = measure(&case1, workers, Mode::Hermes, Engine::Wheel, runs);
    print_row("case1_hermes", &case1_hermes);
    let case1_reuseport = measure(&case1, workers, Mode::Reuseport, Engine::Wheel, runs);
    print_row("case1_reuseport", &case1_reuseport);
    let results = Results {
        heap,
        wheel,
        case1_hermes,
        case1_reuseport,
    };
    println!(
        "  wall ratio (Hermes over reuseport): {:.2}x",
        results.hermes_over_reuseport()
    );

    let mut failed = false;
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path) {
            Ok(contents) => {
                for (row, measured) in [
                    ("wheel", results.wheel.events_per_sec),
                    ("case1_hermes", results.case1_hermes.events_per_sec),
                ] {
                    match check_row(&contents, row, measured) {
                        Ok(line) => println!("{line}"),
                        Err(line) => {
                            eprintln!("{line}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if !no_write {
        let json = render_json(workers, horizon_ns, smoke, &host, &results);
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(&out, json).expect("write BENCH_simnet.json");
        println!("  wrote {out}");
    }

    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(events_per_sec: f64) -> RowResult {
        RowResult {
            events: 100,
            peak_pending: 7,
            wall_seconds: 100.0 / events_per_sec,
            events_per_sec,
            ns_per_event: 1e9 / events_per_sec,
            cov: 0.01,
        }
    }

    #[test]
    fn baseline_parse_finds_each_gated_row() {
        let results = Results {
            heap: row(50.0),
            wheel: row(100.0),
            case1_hermes: row(400.0),
            case1_reuseport: row(800.0),
        };
        let host = Provenance {
            host_cores: 2,
            cpu_model: "Some \"quoted\" CPU".into(),
            commit: "abcdef012345".into(),
            repeats: 5,
        };
        let json = render_json(8, 1_000_000_000, false, &host, &results);
        // Must pick the named block's figure, not a neighbour's.
        assert_eq!(baseline_eps(&json, "wheel"), Some(100.0));
        assert_eq!(baseline_eps(&json, "case1_hermes"), Some(400.0));
        assert_eq!(baseline_eps("not json", "wheel"), None);
        assert!(json.contains("\"wall_ratio_hermes_over_reuseport\": 2.00"));
        assert_eq!(json.matches("\"peak_pending_events\": 7").count(), 4);
        assert!(json.contains("\"cpu_model\": \"Some  quoted  CPU\""));
        assert!(check_row(&json, "case1_hermes", 330.0).is_ok());
        assert!(check_row(&json, "case1_hermes", 310.0).is_err());
        assert!(check_row(&json, "no_such_row", 1.0).is_err());
    }
}
