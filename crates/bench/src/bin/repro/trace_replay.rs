//! Capture-and-replay demonstration: the Table 3 methodology as a tool.
//!
//! Generates a Case-2 capture and replays the *identical* traffic under all
//! three modes at 1×/2×/3× by time-compression — the paper's "replayed
//! traffic at 2 to 3 times the original rate".

use hermes_bench::{banner, fmt, run_mode, WORKERS};
use hermes_metrics::table::Table;
use hermes_simnet::Mode;
use hermes_workload::{Case, CaseLoad, RequestSpec, Workload};

/// Replay a trace at `speedup`× by compressing every timestamp (the
/// paper's replay-rate knob).
fn compress(wl: &Workload, speedup: u64) -> Workload {
    let mut out = Workload::new(format!("{}@{speedup}x", wl.name), wl.duration_ns / speedup);
    for c in &wl.conns {
        out.set_linger(c.tenant(), wl.linger_of(c));
        out.set_events_per_request(c.tenant(), wl.events_of(c));
        let requests = wl.requests_of(c).iter().map(|r| RequestSpec {
            start_offset_ns: r.start_offset_ns / speedup,
            ..r
        });
        out.push_copy(wl, c, c.arrival_ns() / speedup, requests);
    }
    out.seal()
}

pub fn run() {
    banner(
        "Trace replay",
        "§6.2 methodology: capture, replay at 1x/2x/3x",
    );
    let captured = Case::Case2.workload(CaseLoad::Light, WORKERS, 10_000_000_000, 1234);
    println!(
        "captured {} connections, {} requests\n",
        captured.connection_count(),
        captured.request_count()
    );

    let mut t = Table::new("replayed trace: Avg latency ms (1x / 2x / 3x)")
        .header(["Mode", "1x", "2x", "3x"]);
    for mode in Mode::paper_trio() {
        let mut row = vec![mode.name().to_string()];
        for speedup in [1u64, 2, 3] {
            let wl = compress(&captured, speedup);
            let r = run_mode(&wl, mode, WORKERS);
            row.push(fmt(r.avg_latency_ms()));
        }
        t.row(row);
    }
    println!("{t}");
    println!("Same capture, same replay, three modes — differences are purely dispatch.");
}
