//! Regenerate **Fig. 14**: the fraction of workers passing the
//! coarse-grained filter and the scheduler call frequency, as functions of
//! workload. Higher load ⇒ fewer workers pass (more are busy) and the
//! scheduler runs more often (shorter `epoll_wait` blocks) — the
//! self-strengthening feedback the paper calls out.

use hermes_bench::{banner, DURATION_NS, SEED, WORKERS};
use hermes_metrics::table::Table;
use hermes_simnet::{Mode, SimConfig};
use hermes_workload::{Case, CaseLoad};

pub fn run() {
    banner(
        "Fig 14",
        "§6.2 '#Workers passing coarse-grained filtering / scheduler frequency'",
    );
    let mut t = Table::new("Fig 14: coarse-filter pass ratio and scheduler call rate vs load")
        .header([
            "Load (x Case1 light)",
            "pass ratio",
            "sched calls/s (device)",
            "directed %",
        ]);
    // Sweep load from 0.5x to 3x of Case 1 light (the Case 1 loads, plus
    // light thinned to half), on the same device size.
    for (label, load, scale) in [
        ("0.5x", CaseLoad::Light, 0.5f64),
        ("1x", CaseLoad::Light, 1.0),
        ("2x", CaseLoad::Medium, 1.0),
        ("3x", CaseLoad::Heavy, 1.0),
    ] {
        // `scale` < 1 thins the light workload by keeping every k-th
        // connection, preserving the arrival process's shape over the full
        // horizon (truncation would compress traffic into a burst followed
        // by dead air and distort the averages).
        let mut wl = Case::Case1.workload(load, WORKERS, DURATION_NS, SEED);
        if scale < 1.0 {
            wl.thin((1.0 / scale).round() as usize);
        }
        let r = hermes_simnet::run(&wl, SimConfig::new(WORKERS, Mode::Hermes));
        let directed_pct = r.sched.directed_dispatches as f64
            / (r.sched.directed_dispatches + r.sched.fallback_dispatches).max(1) as f64
            * 100.0;
        t.row([
            label.to_string(),
            format!("{:.3}", r.sched.mean_pass_ratio(WORKERS)),
            format!("{:.0}", r.sched.call_rate(r.horizon_ns)),
            format!("{directed_pct:.1}%"),
        ]);
    }
    println!("{t}");
    println!("Paper shape: pass ratio falls with load; call frequency rises with load");
    println!("(heavier traffic shortens epoll_wait blocks, reaching ~20k calls/s).");
}
