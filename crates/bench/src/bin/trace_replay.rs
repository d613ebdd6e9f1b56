//! Capture-and-replay demonstration: the Table 3 methodology as a tool.
//!
//! Generates a Case-2 capture, saves it as a text trace, reloads it, and
//! replays the *identical* traffic under all three modes at 1×/2×/3× by
//! time-compression — the paper's "replayed traffic at 2 to 3 times the
//! original rate".

use hermes_bench::{banner, fmt, run_mode, WORKERS};
use hermes_metrics::table::Table;
use hermes_simnet::Mode;
use hermes_workload::{trace, Case, CaseLoad, Workload};

/// Replay a trace at `speedup`× by compressing every timestamp (the
/// paper's replay-rate knob).
fn compress(wl: &Workload, speedup: u64) -> Workload {
    let mut out = Workload::new(format!("{}@{speedup}x", wl.name), wl.duration_ns / speedup);
    for c in &wl.conns {
        let mut c = c.clone();
        c.arrival_ns /= speedup;
        for r in &mut c.requests {
            r.start_offset_ns /= speedup;
        }
        out.push(c);
    }
    out.seal()
}

fn main() {
    banner(
        "Trace replay",
        "§6.2 methodology: capture, save, replay at 1x/2x/3x",
    );
    let captured = Case::Case2.workload(CaseLoad::Light, WORKERS, 10_000_000_000, 1234);
    let path = std::env::temp_dir().join("hermes_case2_capture.trace");
    trace::save(&captured, &path).expect("save trace");
    let loaded = trace::load(&path).expect("load trace");
    println!(
        "captured {} connections -> {} ({} bytes on disk)\n",
        captured.connection_count(),
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    assert_eq!(
        loaded.conns, captured.conns,
        "trace round-trip must be exact"
    );

    let mut t = Table::new("replayed trace: Avg latency ms (1x / 2x / 3x)")
        .header(["Mode", "1x", "2x", "3x"]);
    for mode in Mode::paper_trio() {
        let mut row = vec![mode.name().to_string()];
        for speedup in [1u64, 2, 3] {
            let wl = compress(&loaded, speedup);
            let r = run_mode(&wl, mode, WORKERS);
            row.push(fmt(r.avg_latency_ms()));
        }
        t.row(row);
    }
    println!("{t}");
    let _ = std::fs::remove_file(&path);
    println!("Same capture, same replay, three modes — differences are purely dispatch.");
}
