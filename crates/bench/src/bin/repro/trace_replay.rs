//! Capture-and-replay demonstration: the Table 3 methodology as a tool.
//!
//! Generates a Case-2 capture and replays the *identical* traffic under all
//! three modes at 1×/2×/3× by time-compression — the paper's "replayed
//! traffic at 2 to 3 times the original rate".

use hermes_bench::{banner, fmt, run_mode, WORKERS};
use hermes_metrics::table::Table;
use hermes_simnet::Mode;
use hermes_workload::{Case, CaseLoad};

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

    let mut rows: Vec<Vec<String>> = Mode::paper_trio()
        .into_iter()
        .map(|mode| vec![mode.name().to_string()])
        .collect();
    // Replay at `speedup`x by compressing every timestamp (the paper's
    // replay-rate knob): one replay per rate, run under every mode.
    for speedup in [1u64, 2, 3] {
        let mut wl = captured.clone();
        wl.compress(speedup);
        for (row, mode) in rows.iter_mut().zip(Mode::paper_trio()) {
            row.push(fmt(run_mode(&wl, mode, WORKERS).avg_latency_ms()));
        }
    }
    let mut t = Table::new("replayed trace: Avg latency ms (1x / 2x / 3x)")
        .header(["Mode", "1x", "2x", "3x"]);
    for row in rows {
        t.row(row);
    }
    println!("{t}");
    println!("Same capture, same replay, three modes — differences are purely dispatch.");
}
