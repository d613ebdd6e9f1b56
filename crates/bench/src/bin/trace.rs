//! Drain-and-export front end for the flight recorder.
//!
//! Runs a canned Hermes simnet scenario with tracing on, drains the
//! global recorder, and renders the event stream:
//!
//!   trace export --chrome [--out PATH]   chrome://tracing JSON (stdout
//!                                        unless --out)
//!   trace summary                        ASCII per-kind table + drops
//!
//! Options: --workers N (default 8), --seed N (default 42), --duration-ms N
//! (default 2000). The recorder is switched on for the run only.

use hermes_simnet::{Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad};

fn usage() -> ! {
    eprintln!(
        "usage: trace <export --chrome [--out PATH] | summary> \
         [--workers N] [--seed N] [--duration-ms N]"
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage());
    let mut chrome = false;
    let mut out: Option<String> = None;
    let mut workers = 8usize;
    let mut seed = 42u64;
    let mut duration_ms = 2_000u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chrome" => chrome = true,
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--duration-ms" => {
                duration_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    match cmd.as_str() {
        "export" if chrome => {}
        "summary" => {}
        _ => usage(),
    }

    // One deterministic instrumented run: the benchmark scenario the rest
    // of the harness uses (Case 3, medium load) under Hermes dispatch.
    let duration_ns = duration_ms * 1_000_000;
    let wl = Case::Case3.workload(CaseLoad::Medium, workers, duration_ns, seed);
    hermes_trace::set_enabled(true);
    let report = Simulator::new(SimConfig::new(workers, Mode::Hermes), &wl).run();
    hermes_trace::set_enabled(false);

    let records = hermes_trace::drain();
    let dropped = hermes_trace::dropped_events();
    eprintln!(
        "trace: {} sim events over {duration_ms} ms sim time, {} connections, {} dropped records",
        records.len(),
        report.accepted_connections,
        dropped
    );

    match cmd.as_str() {
        "export" => {
            let json = hermes_trace::chrome_json(&records);
            match out {
                Some(path) => {
                    std::fs::write(&path, json).expect("write chrome trace");
                    eprintln!("trace: wrote {path} (open in chrome://tracing or Perfetto)");
                }
                None => print!("{json}"),
            }
        }
        "summary" => {
            print!("{}", hermes_trace::summary(&records, dropped));
        }
        _ => unreachable!(),
    }
}
